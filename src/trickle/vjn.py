"""The virtual cactus group as a semidirect product.

Virtual cactus words mix interval generators x[p,q] with simple
transpositions r1, ..., r(n-1).  Killing the interval generators maps
onto the symmetric group; the kernel is generated by the conjugates of
the interval generators by permutations, one generator per tuple of
distinct points, and those tuples form a valid vertex-ordered graph:
contiguous subtuples sit below their hosts, disjoint or nested tuples
are adjacent, and the star map of a tuple reflects a subtuple's position
block through the middle.

An element is therefore a pair (kernel element, permutation); a word is
folded left to right, each interval generator contributing the kernel
generator of its tuple translated by the permutation read so far.  Two
words are equal iff both components agree, which solves the word problem
for the whole group and exhibits the plain cactus group as the parabolic
subgroup on the consecutive tuples.
"""

from __future__ import annotations

import itertools
import operator
import re
import reprlib
from collections import namedtuple
from functools import lru_cache

from .graph import GraphError, TrickleGraph
from .pilings import from_syllables

Perm = tuple  # one-line: perm[i - 1] is the image of i


def perm_identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def transposition(n: int, i: int) -> Perm:
    if not 1 <= i <= n - 1:
        raise GraphError(f"r{i} is out of range for n = {n}")
    img = list(range(1, n + 1))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


# ----------------------------------------------------------------------
# the kernel graph on tuples of distinct points


def _tuple_token(t: tuple) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def _parse_tuple(token: str) -> tuple:
    body = token.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        return tuple(int(part) for part in body.split(","))
    except ValueError:
        raise GraphError(f"bad tuple token {reprlib.repr(token)}") from None


def build_kjn_graph(n: int) -> TrickleGraph:
    """Tuples of 2..n distinct points of {1..n}, ordered by contiguous
    inclusion, adjacent when comparable or disjoint, label 2 everywhere,
    the star map reflecting a subtuple's position block."""
    if n < 2:
        raise GraphError("the kernel graph needs n >= 2")
    verts = [t for length in range(2, n + 1)
             for t in itertools.permutations(range(1, n + 1), length)]
    # the contiguous proper subtuples of y are exactly the keys of its table
    phi = {y: {y[p:p + k]: y[len(y) - k - p:len(y) - p]
               for k in range(2, len(y)) for p in range(len(y) - k + 1)}
           for y in verts}
    less = [(sub, y) for y, table in phi.items() for sub in table]
    by_support = {}
    for t in verts:
        by_support.setdefault(sum(1 << p for p in t), []).append(t)
    disjoint = [(a, b) for s, r in itertools.combinations(by_support, 2) if not s & r
                for a in by_support[s] for b in by_support[r]]
    ranking = sorted(verts, key=lambda t: (len(t), t))
    return TrickleGraph.build(verts, 2, less + disjoint, less, phi, ranking=ranking,
                              name=f"kj{n}",
                              parse_vertex=_parse_tuple,
                              format_vertex=_tuple_token)


# One graph per n, so vjn_encode and vjn_equal share its kernel and step table.
kjn_graph = lru_cache(maxsize=None)(build_kjn_graph)


# ----------------------------------------------------------------------
# words and elements


# An immutable (kernel element, permutation) pair.
VjnElement = namedtuple("VjnElement", "kernel perm")


_TOKEN = re.compile(r"^(?:x\[(\d+),(\d+)\]|r(\d+))$")


def parse_vjn_word(n: int, text: str):
    """Tokens x[p,q] (1 <= p < q <= n) and ri (1 <= i < n)."""
    out = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise GraphError(f"bad token {reprlib.repr(tok)}; expected x[p,q] or r<i>")
        if m.group(3) is not None:
            i = int(m.group(3))
            if not 1 <= i <= n - 1:
                raise GraphError(f"{reprlib.repr(tok)} is out of range for n = {n}")
            out.append(("r", i))
        else:
            p, q = int(m.group(1)), int(m.group(2))
            if not 1 <= p < q <= n:
                raise GraphError(f"{reprlib.repr(tok)} is out of range for n = {n}")
            out.append(("x", p, q))
    return out


def vjn_encode(n: int, word) -> VjnElement:
    """Fold a word left to right into a (kernel, permutation) pair.

    An interval generator contributes the kernel generator of its tuple
    translated by the permutation accumulated so far; a transposition
    multiplies the permutation on the right, which swaps two of its
    entries.  The kernel syllables are normalized once, at the end.  A
    word is text or a list of tokens ("x", p, q) and ("r", i); any other
    token raises ``GraphError``.
    """
    if isinstance(word, str):
        word = parse_vjn_word(n, word)
    sylls = []
    perm = list(perm_identity(n))
    for tok in word:
        # positions are read as pilings._exponent reads exponents; ints skip
        # operator.index, which would otherwise run on every token
        try:
            kind = tok[0]
            if kind == "r":
                _, i = tok
                i = i if type(i) is int else operator.index(i)
            elif kind == "x":
                _, p, q = tok
                if type(p) is not int or type(q) is not int:
                    p, q = operator.index(p), operator.index(q)
            else:
                raise ValueError(kind)
        except (TypeError, ValueError, LookupError):
            raise GraphError(f"bad token {reprlib.repr(tok)}; "
                             "expected ('x', p, q) or ('r', i)") from None
        if kind == "r":
            if not 1 <= i <= n - 1:
                raise GraphError(f"r{i} is out of range for n = {n}")
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        else:
            if not 1 <= p < q <= n:
                raise GraphError(f"{reprlib.repr(f'x[{p},{q}]')} is out of range for n = {n}")
            sylls.append((tuple(perm[p - 1:q]), 1))
    return VjnElement(from_syllables(kjn_graph(n), sylls), tuple(perm))


def vjn_equal(n: int, w1, w2) -> bool:
    a = vjn_encode(n, w1)
    b = vjn_encode(n, w2)
    return a.perm == b.perm and a.kernel == b.kernel


# ----------------------------------------------------------------------
# the cactus subgroup on consecutive tuples


def consecutive_tuple(p: int, q: int) -> tuple:
    return tuple(range(p, q + 1))


def jn_embedding_check(n: int, samples) -> bool:
    """Sampled agreement between cactus equality and kernel equality.

    Each sample is a pair of words over the interval generators, given as
    sequences of (p, q) pairs.  True iff, on every sample, equality in
    the cactus group matches equality of the encodings.
    """
    from .families import cactus, interval_id

    jn = cactus(n)
    for w1, w2 in samples:
        eq_jn = (from_syllables(jn, [(interval_id(p, q), 1) for p, q in w1])
                 == from_syllables(jn, [(interval_id(p, q), 1) for p, q in w2]))
        eq_vjn = vjn_equal(n,
                           [("x", p, q) for p, q in w1],
                           [("x", p, q) for p, q in w2])
        if eq_jn != eq_vjn:
            return False
    return True
