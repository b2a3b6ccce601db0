"""The stratum rewriting engine.

Words over the vertex alphabet are rewritten through a two-level
structure.  A *syllable* is a pair (vertex, exponent) with the exponent a
nonzero residue mod mu(vertex) (a nonzero integer when mu is INFINITY).
A *stratum* is a finite set of syllables whose supports are distinct and
pairwise adjacent, stored as a tuple in descending vertex order.  A
*piling* is a tuple of strata.

Rewriting moves a syllable from a stratum down into the previous one:
extract it (conjugating it past the larger syllables of its stratum with
the star maps), and add it to the target stratum, merging or cancelling
exponents when the vertex is already present.  Empty strata are erased.
The system terminates and is confluent, so every piling has a unique
irreducible form, whatever order the moves are made in.  ``normalize``
uses that freedom: it settles the two halves of a piling on their own
and joins them with the junction pass of ``product``, which only looks
as far right as its moves spread.  Group elements are held in that
canonical form, which makes equality a tuple comparison and solves the
word problem.

Normal-form words depend on the total vertex ranking the graph carries;
the ranking is part of the graph, so one graph yields one normal form
per element.

Words enter through ``from_syllables``; ``normalize`` takes pilings.  Each
graph flavour has one reduction route.  A finite graph runs on its
integer ``Kernel`` (``graph.py``): each stratum becomes an id of the
kernel's step table once on the way in and names once on the way out,
and the move at a pair of ids is read from the table's rows, which
``_table_step`` fills the first time the graph meets the pair.  Lazy
graphs and ``product`` step on names and keep no memo.  Every route
makes the same moves.
"""

from __future__ import annotations

import math
import operator
import reprlib
import threading
from collections import namedtuple

from .graph import INFINITY, GraphError, TrickleGraph

Syllable = tuple          # (vertex, exponent)
Stratum = tuple           # syllables, descending vertex order
Piling = tuple            # strata


def canonical_exponent(graph, v, a):
    """Reduce an exponent into the canonical range; 0 means it vanished."""
    m = graph.mu(v)
    if m == INFINITY:
        return a
    return a % m


def make_syllable(graph, v, a) -> Syllable:
    if not graph.contains_vertex(v):
        raise GraphError(f"unknown vertex {reprlib.repr(v)}")
    a = canonical_exponent(graph, v, a)
    if a == 0:
        raise GraphError(f"zero exponent at {reprlib.repr(v)}: not a syllable")
    return (v, a)


def sort_stratum(graph, syllables) -> Stratum:
    key = graph.sort_key
    return tuple(sorted(syllables, key=lambda s: key(s[0]), reverse=True))


def make_stratum(graph, syllables) -> Stratum:
    """Validated stratum: distinct, pairwise adjacent supports."""
    sylls = [make_syllable(graph, v, a) for v, a in syllables]
    seen = set()
    for v, _ in sylls:
        if v in seen:
            raise GraphError(f"repeated vertex {v!r} in a stratum")
        seen.add(v)
    for i, (v, _) in enumerate(sylls):
        for w, _ in sylls[i + 1:]:
            if not graph.edge(v, w):
                raise GraphError(f"stratum support {v!r}, {w!r} is not an edge")
    return sort_stratum(graph, sylls)


def stratum_remove(U: Stratum, s: Syllable) -> Stratum:
    i = U.index(s)
    return U[:i] + U[i + 1:]


def stratum_extract(graph, U: Stratum, s: Syllable) -> Syllable:
    """Conjugate s past the syllables above it in U."""
    i = U.index(s)
    v = s[0]
    for j in range(i - 1, -1, -1):
        x, a = U[j]
        v = graph.phi_pow(x, a, v)
    return (v, s[1])


def stratum_can_add(graph, U: Stratum, s: Syllable) -> bool:
    y = s[0]
    ok = True
    for x, _ in U:
        if x == y:
            return True
        if ok and not graph.edge(y, x):
            ok = False
    return ok


def stratum_add(graph, U: Stratum, s: Syllable) -> Stratum:
    """Push s into U: fresh vertices join, matching vertices merge or cancel.

    Requires ``stratum_can_add``; every other syllable is pulled back
    through phi so the product of the stratum is unchanged as an element.
    """
    if not stratum_can_add(graph, U, s):
        raise GraphError(f"syllable {s!r} cannot be added to {U!r}")
    return _stratum_add(graph, U, s)


def _stratum_add(graph, U: Stratum, s: Syllable) -> Stratum:
    """``stratum_add`` for a syllable already known to be addable."""
    y, b = s
    out = []
    merged = False
    for x, a in U:
        if x == y:
            merged = True
            c = canonical_exponent(graph, y, a + b)
            if c != 0:
                out.append((y, c))
        else:
            out.append((graph.phi_pow(y, -b, x), a))
    if not merged:
        out.append(s)
    return sort_stratum(graph, out)


def push_syllable(graph, U: Stratum, V: Stratum, s: Syllable):
    """Move s from V down into U; None when the extracted syllable cannot land."""
    g = stratum_extract(graph, V, s)
    if not stratum_can_add(graph, U, g):
        return None
    return _stratum_add(graph, U, g), stratum_remove(V, s)


def normalize(graph, piling) -> Piling:
    """The unique irreducible piling reachable from ``piling``.

    The strata are split in halves until a piece has at most ``_LEAF``
    strata.  A leaf is settled by the pass of ``_settle`` over all its
    pairs; two settled halves are joined by the pass of ``product``.  Each
    settled half has no reducible pair, so a join needs to look only at
    the junction and as far right as its moves spread.  A syllable thus
    travels down a half, not down the whole word; on J5 and CSTAR this
    takes the time from quadratic to near linear in the word length
    (``scripts/bench.py``).  Confluence makes the result independent of
    the order of the moves.

    On a finite graph the strata become ids of the step table of its
    ``Kernel`` and are reduced with the table's moves: the move at a pair
    depends on the pair alone, so a pair met in an earlier call reuses
    its entry, the move a fresh search would make.  A lazy graph is
    reduced by ``_step`` on names.  On both routes each vertex is checked,
    each exponent is read mod mu and the syllables that vanish are
    dropped, so ``x^mu(x)`` and ``x^0`` are the identity, and a stratum
    may list its syllables in any order: it is put in descending rank.
    """
    kernel = graph.kernel()
    if kernel is None:
        strata = []
        for U in piling:
            S = []
            for v, a in U:
                if not graph.contains_vertex(v):
                    raise GraphError(f"unknown vertex {reprlib.repr(v)}")
                c = canonical_exponent(graph, v, a if type(a) is int else _exponent(a))
                if c:
                    S.append((v, c))
            if S:
                strata.append(sort_stratum(graph, S) if len(S) > 1 else tuple(S))
        return _halves(graph, strata, None)
    table, ids = _table(kernel), []
    for U in piling:
        S = _kernel_stratum(kernel, U)
        if S:
            ids.append(table.sid(S))
    return _on_table(table, ids)


def _kernel_stratum(kernel, U):
    """The name stratum U in the ids of ``kernel``, each exponent read mod
    mu, the syllables that vanish dropped, in descending id, which is
    descending rank (a stable sort on the vertex alone)."""
    index, mu, S = kernel.index, kernel.mu, []
    for v, a in U:
        x = index.get(v)
        if x is None:
            raise GraphError(f"unknown vertex {reprlib.repr(v)}")
        c = a if type(a) is int else _exponent(a)
        if mu[x]:
            c %= mu[x]
        if c:
            S.append((x, c))
    if len(S) > 1:
        S.sort(key=operator.itemgetter(0), reverse=True)
    return tuple(S)


def _exponent(a):
    """A non-``int`` exponent as an int, on finite and lazy graphs alike: the
    step table keys strata by value, so ``True`` would share the id of ``1``
    and spell later answers.  It runs per syllable, so callers skip it for ints."""
    try:
        return operator.index(a)
    except TypeError:
        raise GraphError(f"non-integral exponent {reprlib.repr(a)}") from None


# A call replaces a step table whose weight, _STRATUM_WEIGHT per stratum plus
# one per move, is over _TABLE_BOUND, keeping others' ids.  A stratum holds
# 180-570 bytes, up to about 260 more once searches have built its mask and
# movers, and a move 30-90, so a stratum weighs several times its bytes: a
# table that reuses its strata keeps its moves (J5 and KJ4 all of theirs, in
# 0.31 and 0.72 MB; RAAG-C6 1.22 MB at the bound), and one that keeps meeting
# new strata stops at 720-860 of them (GAR3 0.44 MB, kjn_graph(5) 0.89 MB),
# on the words of scripts/bench.py.  A warm wordproblem pass makes 50k fresh
# searches, 185k at the old bound of 4,096 strata plus moves: ops/s +57%.
_STRATUM_WEIGHT = 96
_TABLE_BOUND = 80_000


class _StepTable:
    """The moves met on one finite graph, on stratum ids, across calls.

    ``sids`` maps a stratum in kernel ids to its index in ``strata``;
    ``rows[u]``, the memo of ``_settle``, maps v to the ids the move at
    (u, v) leaves, or to None; ``masks[u]`` and ``movers[u]``, None until
    a search first needs them, hold the support bitmask and the
    ``_movers`` of stratum u; ``names`` caches strata in vertex names;
    ``ones``, read by ``from_syllables``, maps c * n + x, for a kernel of
    n vertices, to the id of the one-syllable stratum ((x, c),).  The
    lock keeps a stratum from getting two ids, and ``sids`` gets an id
    after its stratum, row, mask and movers slots; entries written twice
    are equal, and ``moves`` may miss a count under threads.
    """

    __slots__ = ("kernel", "sids", "strata", "rows", "masks", "movers", "names", "ones",
                 "moves", "lock")

    def __init__(self, kernel):
        self.kernel, self.sids, self.strata, self.rows = kernel, {}, [], []
        self.masks, self.movers, self.names, self.ones = [], [], {}, {}
        self.moves, self.lock = 0, threading.Lock()

    def sid(self, S):
        u = self.sids.get(S)
        if u is None:
            with self.lock:
                u = self.sids.get(S)
                if u is None:
                    u = len(self.strata)
                    self.strata.append(S)
                    self.rows.append({})
                    self.masks.append(None)
                    self.movers.append(None)
                    self.sids[S] = u
        return u


def _table(kernel):
    """The kernel's step table, a fresh one once its weight is over _TABLE_BOUND."""
    table = kernel.table
    if table is None or _STRATUM_WEIGHT * len(table.strata) + table.moves > _TABLE_BOUND:
        table = kernel.table = _StepTable(kernel)
    return table


def _on_table(table, ids):
    """``normalize`` of the stratum ids ``ids`` of ``table``, back in names."""
    names, verts, out = table.names, table.kernel.graph.vertices, []
    for u in _halves(table, ids, table.rows):
        N = names.get(u)
        if N is None:
            N = names[u] = tuple([(verts[x], a) for x, a in table.strata[u]])
        out.append(N)
    return tuple(out)


# Splitting short words costs more than it saves on KJ4, RAAG-C6 and
# RACG-C6; of 64, 128 and 256, 128 gave the lowest median time per op on
# the perfbench wordproblem words.
_LEAF = 128


def _halves(graph, strata, rows):
    """``normalize`` of the list ``strata`` (no empty stratum), by halves."""
    if len(strata) <= _LEAF:
        return _settle(graph, strata, 0, len(strata) - 1, rows)
    mid = len(strata) // 2
    return _join(graph, _halves(graph, strata[:mid], rows),
                 _halves(graph, strata[mid:], rows), rows)


def product(graph, left: Piling, right: Piling) -> Piling:
    """``normalize(graph, left + right)`` for irreducible ``left`` and ``right``,
    stepping on names."""
    return _join(graph, left, right, None)


def _join(graph, left, right, rows):
    """The pass of ``product``: it starts on the junction pair.

    Every pair inside ``left`` and inside ``right`` is irreducible, so
    the cursor starts on (len(left) - 1, len(left)) with the frontier at
    len(left), and the pass ends once the changes stop spreading right.
    """
    if not (left and right):
        return left or right
    return _settle(graph, list(left + right), len(left) - 1, len(left), rows)


def _step(graph, U, V):
    """The move at the pair (U, V): the nonempty strata left in its place.

    The mover syllables of V are tried in descending vertex order and
    the first that lands in U moves; None when none lands, that is, when
    the pair is irreducible.
    """
    for s in V:
        t = push_syllable(graph, U, V, s)
        if t is not None:
            return t if t[0] and t[1] else tuple([S for S in t if S])
    return None


def _movers(kernel, V):
    """The movers of the id stratum V for ``_table_step``, in one flat list.

    The i-th syllable of V, the i-th that ``_step`` tries, gives slot 2i
    its extraction, the syllable conjugated past the ones before it
    through the cycle tables, and slot 2i + 1 None, for the id of V left
    without it.  Where the tables give no image (an unsound star map, a
    vertex outside a star: only broken graphs get there) the list ends in
    None at an even slot, so the fault fires only in a search that gets
    that far.  One list per stratum and no remainder stratum built: a
    stratum met once costs the collector one object.
    """
    adj, pw, out = kernel.adj, kernel.pw, []
    for i, s in enumerate(V):
        y = s[0]
        for j in range(i - 1, -1, -1):
            x, a = V[j]
            p = pw[x]
            if p is None:
                out.append(None)
                return out
            c = p.get(y)
            if c is not None:
                y = c[0][(c[1] + a) % len(c[0])]
            elif y != x and not adj[x] >> y & 1:
                out.append(None)
                return out
        out.append(s if y == s[0] else (y, s[1]))
        out.append(None)
    return out


def _table_step(table, u, v):
    """``_step`` at the strata with ids u and v, its strata interned.

    The support mask of u and the movers of v are read from the table,
    built the first time u is a left and v a right stratum of a search.
    A mover lands when the mask holds its vertex or lies within the
    vertex's neighbours; then every other syllable of u is pulled back
    through phi, a matching one merges or cancels, and the stratum is
    sorted by descending id, which is descending rank.  A mover's
    remainder is interned at its first landing, after the landed stratum,
    and its id (-1 when it is empty) kept in the movers, so no stratum is
    interned for a mover that never lands.  So the move at every pair is
    the move of ``_step``.  Where the tables give no image, the pair goes
    to ``_name_step``, where ``_step`` raises its own error; a search that
    raises keeps and counts nothing.
    """
    U, kernel = table.strata[u], table.kernel
    supp = table.masks[u]
    if supp is None:
        supp = 0
        for x, _ in U:
            supp |= 1 << x
        table.masks[u] = supp
    movers = table.movers[v]
    if movers is None:
        movers = table.movers[v] = _movers(kernel, table.strata[v])
    adj = kernel.adj
    for k in range(0, len(movers), 2):
        g = movers[k]
        if g is None:
            break
        y, b = g
        bit = 1 << y
        merged = supp & bit
        if not merged and supp & ~adj[y]:
            continue
        p = kernel.pw[y]
        if p is None and supp != bit or merged and supp & ~adj[y] != bit:
            break
        mu, out = kernel.mu[y], []
        for x, a in U:
            if x == y:
                c = a + b
                if mu:
                    c %= mu
                if c:
                    out.append((y, c))
            else:
                c = p.get(x)
                out.append((c[0][(c[1] - b) % len(c[0])] if c else x, a))
        if not merged:
            out.append(g)
        table.moves += 1
        if out:
            out.sort(reverse=True)
            S = tuple(out)
            o = table.sids.get(S)
            if o is None:
                o = table.sid(S)
        w = movers[k + 1]
        if w is None:
            V, i = table.strata[v], k // 2
            W = V[:i] + V[i + 1:]
            w = movers[k + 1] = table.sid(W) if W else -1
        if w < 0:
            return (o,) if out else ()
        return (o, w) if out else (w,)
    else:
        table.moves += 1
        return None
    # a conjugation fault, or a landing the tables give no image for
    t = _name_step(kernel, table.strata[u], table.strata[v])
    table.moves += 1
    return t and tuple(map(table.sid, t))


def _name_step(kernel, U, V):
    """``_step`` at the names of the id strata U and V, its move back in ids
    as it is: on a graph whose labels change along a star map it may hold
    an exponent outside the range of its vertex's label, as the table's
    own moves do."""
    verts, index = kernel.graph.vertices, kernel.index
    t = _step(kernel.graph, *[tuple([(verts[x], a) for x, a in S]) for S in (U, V)])
    return t and tuple([tuple([(index[v], a) for v, a in S]) for S in t])


_UNSEEN = object()


def _settle(graph, strata, i, h, rows):
    """Reduce the list ``strata`` by pushes at a cursor on the pair (i, i+1).

    Pairs left of the cursor are irreducible, and so is every pair whose
    right stratum lies beyond the frontier ``h``.  A push at (i, i+1)
    rewrites only strata i and i+1, so the cursor steps back to re-check
    (i-1, i), and the strata right of the pair shift by the change in
    length, the frontier with them.  A push at the frontier pair itself
    may make the next pair reducible, so the frontier then moves to the
    first stratum after the rewritten ones (the last stratum when there
    is none).  Once the cursor passes the frontier, no pair is
    reducible.  With ``rows`` None the strata are of vertices and each
    move is a fresh ``_step(graph, U, V)``.  Otherwise they are stratum
    ids, ``graph`` is the step table and ``rows`` its rows: the move at
    (U, V) is ``rows[U][V]``, which ``_table_step`` fills when missing.
    """
    while i < h:
        U, V = strata[i], strata[i + 1]
        if rows is None:
            t = _step(graph, U, V)
        else:
            row = rows[U]
            t = row.get(V, _UNSEEN)
            if t is _UNSEEN:
                t = row[V] = _table_step(graph, U, V)
        if t is None:
            i += 1
        else:
            strata[i:i + 2] = t
            if i + 1 < h:
                h += len(t) - 2
            else:
                h = i + len(t)
                if h == len(strata):
                    h -= 1
            if i:
                i -= 1
    return tuple(strata)


# ----------------------------------------------------------------------
# group elements


class GroupElement:
    """An element held as its canonical (irreducible) piling."""

    __slots__ = ("graph", "piling")

    def __init__(self, graph: TrickleGraph, piling: Piling):
        self.graph = graph
        self.piling = piling

    @classmethod
    def identity(cls, graph):
        return cls(graph, ())

    @property
    def is_identity(self):
        return not self.piling

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.graph is not other.graph:
            raise GraphError("elements live over different graphs")
        return GroupElement(self.graph, product(self.graph, self.piling, other.piling))

    def inverse(self):
        return from_syllables(self.graph, [(v, -a) for v, a in reversed(self.nf())])

    def __pow__(self, k: int):
        base = self if k >= 0 else self.inverse()
        out = GroupElement.identity(self.graph)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.graph is other.graph
                and self.piling == other.piling)

    def __hash__(self):
        return hash((id(self.graph), self.piling))

    def nf(self):
        """Normal-form word as a list of (vertex, exponent) syllables."""
        return nf_letters(self.graph, self.piling)

    def nf_str(self) -> str:
        return format_word(self.graph, self.nf())

    def __repr__(self):
        return f"<element {self.nf_str() or '1'}>"


def from_syllables(graph, pairs) -> GroupElement:
    """Element of the product of the given (vertex, exponent) powers.

    On a finite graph each vertex is checked and translated to its kernel
    id and each exponent reduced in the same pass, each one-syllable
    stratum's id is read from the step table's ``ones``, and the ids are
    normalized on the table, as in ``normalize``.  On a lazy graph the
    word is handed to ``normalize`` as one-syllable strata.
    """
    kernel = graph.kernel()
    if kernel is None:
        return GroupElement(graph, normalize(graph, [((v, k),) for v, k in pairs]))
    strata = []
    index, mu, table = kernel.index, kernel.mu, _table(kernel)
    ones, n = table.ones, len(mu)
    for v, k in pairs:
        x = index.get(v)
        if x is None:
            raise GraphError(f"unknown vertex {reprlib.repr(v)}")
        if type(k) is not int:
            k = _exponent(k)
        c = k % mu[x] if mu[x] else k
        if c:
            key = c * n + x
            u = ones.get(key)
            if u is None:
                u = ones[key] = table.sid(((x, c),))
            strata.append(u)
    return GroupElement(graph, _on_table(table, strata))


def nf_letters(graph, piling):
    """The syllables of a piling, stratum by stratum."""
    return [s for U in piling for s in U]


# ----------------------------------------------------------------------
# the word grammar: whitespace-separated tokens  v | v^k  (k nonzero)


def parse_word(graph, text: str):
    """Parse a word into (vertex, exponent) pairs, one per token."""
    out = []
    for tok in text.split():
        name, caret, exp = tok.rpartition("^")
        if caret:
            try:
                k = int(exp)
            except ValueError:
                raise GraphError(f"bad exponent in token {reprlib.repr(tok)}") from None
            if k == 0:
                raise GraphError(f"zero exponent in token {reprlib.repr(tok)}")
        else:
            name, k = tok, 1
        v = graph.parse_vertex(name)
        if not graph.contains_vertex(v):
            raise GraphError(f"unknown vertex {reprlib.repr(name)}")
        out.append((v, k))
    return out


def format_word(graph, syllables) -> str:
    """Render syllables as tokens v or v^k, one token per syllable."""
    fmt = graph.format_vertex
    return " ".join([fmt(v) if a == 1 else f"{fmt(v)}^{a}" for v, a in syllables])


def element_from_text(graph, text: str) -> GroupElement:
    return from_syllables(graph, parse_word(graph, text))


# ----------------------------------------------------------------------
# finiteness


class FinitenessAnswer(namedtuple("FinitenessAnswer", "finite order reason")):
    """``order`` is the group's order, None when it is infinite."""

    __slots__ = ()

    def __str__(self):
        return f"finite, order {self.order}" if self.finite else f"infinite ({self.reason})"


def is_finite(graph) -> FinitenessAnswer:
    """Finite iff the graph is finite, complete, and every mu is finite.

    The order of a finite group counts its normal forms: independent
    exponent choices per vertex, so the product of the mu values.
    """
    if not graph.finite:
        return FinitenessAnswer(False, None, "declared lazy, so the vertex set is infinite")
    if not graph.complete():
        missing = next((x, y) for x in graph.vertices for y in graph.vertices
                       if x != y and not graph.edge(x, y))
        return FinitenessAnswer(False, None, f"missing edge {reprlib.repr(missing)}")
    infinite = [v for v in graph.vertices if graph.mu(v) == INFINITY]
    if infinite:
        return FinitenessAnswer(False, None, f"mu({reprlib.repr(infinite[0])}) is infinite")
    return FinitenessAnswer(True, math.prod(map(graph.mu, graph.vertices)),
                            "complete with finite labels")
