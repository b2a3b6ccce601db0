"""Syllable-level rewriting and the exchange-based equality test.

Words over syllables admit two kinds of moves: merges, which fuse or
cancel adjacent powers of one vertex and strictly shorten the word, and
exchanges, which rewrite an adjacent pair across an edge,

    (x^a, y^b)  ->  (phi_x^a(y)^b, phi_y^{-b}(x)^a),

preserving both the element and the length.  Exchanges are reversible, so
reduced words of one element form a single exchange orbit: two words are
equal in the group iff their reductions have the same length and one is
reachable from the other by exchanges alone.  ``exchange_connected``
searches that orbit breadth-first.

Reduction itself is delegated to the piling engine: ``syllabic_reduce``
takes the word's element through ``pilings.from_syllables``, which
reduces each exponent mod mu and drops the vanished ones, and reads the
strata back off in descending vertex order.  The result is a shortest
syllabic word for the element, so a word is reduced exactly when
reduction does not shorten it.  Because it goes through the piling
engine, ``syllabic_reduce`` is no independent check of it;
``exchange_connected`` and the random strategies of ``confluence`` are.
"""

from __future__ import annotations

from .graph import GraphError
from .pilings import canonical_exponent, from_syllables, nf_letters
from .pilings import format_word as format_syllabic  # the name perfbench/workloads.py calls

DEFAULT_ORBIT_BOUND = 10 ** 5


class OrbitBoundExceeded(RuntimeError):
    """The exchange orbit grew past the caller's bound."""


def apply_merge(graph, word, position):
    """Fuse the syllables at position and position + 1 (same vertex)."""
    (x, a), (y, b) = word[position], word[position + 1]
    if x != y:
        raise GraphError(f"syllables at {position} have different vertices")
    c = canonical_exponent(graph, x, a + b)
    mid = ((x, c),) if c != 0 else ()
    return word[:position] + mid + word[position + 2:]


def apply_exchange(graph, word, position):
    """Exchange the syllables at position and position + 1 (edge needed)."""
    (x, a), (y, b) = word[position], word[position + 1]
    if not graph.edge(x, y):
        raise GraphError(f"no edge between {x!r} and {y!r}")
    pair = ((graph.phi_pow(x, a, y), b), (graph.phi_pow(y, -b, x), a))
    return word[:position] + pair + word[position + 2:]


def syllabic_reduce(graph, word):
    """A shortest syllabic word for the element of ``word``.

    Computed through the piling engine; the output lists each stratum of
    the canonical piling in descending vertex order, so its length is the
    syllabic length of the element.  Exponents are read mod mu, so x^0
    and x^mu(x) reduce to the empty word.
    """
    return tuple(nf_letters(graph, from_syllables(graph, word).piling))


def is_syllabically_reduced(graph, word) -> bool:
    """No reduction shortens the word and every exponent is canonical, so
    ``x^(mu(x) + 1)`` is not reduced although ``x`` has the same length."""
    return (len(word) == len(syllabic_reduce(graph, word))
            and all(canonical_exponent(graph, v, a) == a for v, a in word))


def exchange_connected(graph, w, v, bound=DEFAULT_ORBIT_BOUND) -> bool:
    """Is v reachable from w by exchanges alone?

    Both words must be reduced and of equal length.  The search is
    complete while the orbit stays within ``bound`` visited words;
    otherwise OrbitBoundExceeded is raised.
    """
    w, v = tuple(w), tuple(v)
    if len(w) != len(v):
        raise GraphError("exchange moves preserve length; the words differ in length")
    if not (is_syllabically_reduced(graph, w) and is_syllabically_reduced(graph, v)):
        raise GraphError("both words must be syllabically reduced")
    if w == v:
        return True
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for word in frontier:
            for i in range(len(word) - 1):
                if not graph.edge(word[i][0], word[i + 1][0]):
                    continue
                moved = apply_exchange(graph, word, i)
                if moved == v:
                    return True
                if moved not in seen:
                    if len(seen) >= bound:
                        raise OrbitBoundExceeded(f"exchange orbit exceeded {bound} words")
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return False
