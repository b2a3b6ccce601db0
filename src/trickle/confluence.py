"""Computational certification of local confluence, within bounds.

Two independent checks.  The first enumerates every overlap of rewriting
rules up to a stratum-support and exponent bound and verifies that both
divergent successors reach one irreducible piling.  Overlaps come in
three shapes: an empty-stratum erasure overlapping a push out of the
next stratum (C1), two pushes sharing the middle stratum (C2), and two
pushes out of one stratum (C3).
The second check normalizes random pilings under many random maximal
strategies and demands a single result.

A clean first check shows every overlap within its bounds joinable.
Where the bounds list every stratum of the graph (every label finite
and ``max_support`` at least the clique number), that is local
confluence, and with termination Newman's lemma gives confluence.  With
an infinite label no bound covers every exponent, and the second check
is a sample; together they expose corrupted star maps with an explicit
witness.

The overlaps are enumerated once, as work units (``_units``) that
``enumerate_critical_pairs`` expands into pairs and ``check_critical_pairs``
evaluates on interned pilings with memoized products.  A ``_Reducer``
holds pilings as tuples of stratum ids of one ``pilings._StepTable``,
the id step table ``normalize`` keeps per finite graph, and reduces them
with its moves, so a product that was never computed still finds most
of its moves by one row lookup.  Its products are memoized by row, one
dict per piling from the first time it is a left factor, so a row of
products is read in one pass and its misses are computed in one loop; a
product whose junction pair the table shows irreducible is its two
factors side by side, with no pass at all.  In a C2 unit each distinct
left-hand product has its row of products with the incoming strata read
once, and each right-hand row forms its inner products once per
distinct middle stratum V + gz before reading the outer products from
their rows; the rows are compared as a whole.
The strategy-independence check holds strata as ints for one call,
extracts the movers of each of them once and searches the landing
pushes of each pair of them once.  The strategies of one piling walk
one move graph, built as their draws first take each move, so a piling
an earlier strategy reached is stepped through by lookups; the draws
are those of a fresh search at every step.
``resolve`` and the failure witnesses both ``normalize`` the two
successors, so a False answer always comes with two distinct irreducible
forms as evidence.

The first check evaluates one C2 unit per orbit of middle strata under
the graph's symmetries: vertex permutations sigma that keep adjacency,
the order, the labels and the star maps, sigma(phi_x(y)) =
phi_sigma(x)(sigma(y)), but need not keep the ranking.  It does so only
where every star map is a bijection and axioms (b) and (d) hold, as
``_symmetries`` checks on the kernel; then sigma maps every move to a
move.  A move extracts a syllable y past the syllables ranked above it
in its stratum, then lands it.  Those above y in the order form a chain:
of two incomparable ones, (b) would make y incomparable to one.  By (d)
phi_x moves only vertices below x, so it maps the star vertices below x
among themselves, and y conjugated up the chain stays below the last
chain syllable passed.  When it meets a syllable x incomparable to y,
that last one, c, is incomparable to x too (c < x would put y below x,
and x < c would rank x below c), so by (b) x is incomparable to
everything below c, the conjugated y included (and to y itself before
the chain), and phi_x fixes it by (d).  So extraction is conjugation up the chain alone,
in chain order, which sigma keeps; the landing test, merges and the
pull-back at a landing read only adjacency, labels and star maps.  Hence
sigma maps the C2 pairs of a middle stratum V one to one onto those of
sigma(V), and a piling both successors of a pair reach to one both
successors of its image reach.  A reduced check that finds no failure
has thus shown every pair within the bounds joinable; only where the
system is not confluent could the irreducible forms the check picks for
an image pair still differ.  Without (d) the argument fails: at (2, 1),
8 of ``broken_d``'s 18 middle strata fail on other pair counts than
their images under its order-2 symmetry, and its 9,556 failures would
fall to 5,664.

The group also holds, for each class C of y ~ phi_x(y) that ``_negations``
admits, the map sigma_C that negates the exponent a of each syllable over
C, mod its label.  It keeps every vertex and so the ranking, needs neither
(b) nor (d), and sends the one move at a pair to the move at its image.
Extraction conjugates by phi_x^a for the syllables above the mover; for x
in C the sign of a flips, and phi_x^-a = phi_x^a, since phi_x is an
involution whose order divides mu(x).  The mover keeps its exponent and
stays in its class, which has one label, so its residue negates
consistently.  Landing reads supports only; merges add exponents, and
negation commutes with a + b and with its vanishing; the pull-back
phi_y^-b flips sign only for y in C, where phi_y is an involution.
Symmetries map admitted classes onto admitted classes, so the group is
(Z/2)^k x| Perm.  The one label per class is needed: negating the class
{x, y, z} of ``broken_f``, labelled 2, 2 and 4, changes the move at 108
of its pairs at (2, 2).

A reduced check that finds a failure is run again over every unit, so
failures and witnesses are those of the full check.  A unit left out
still adds its own pair count.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from collections import namedtuple
from types import SimpleNamespace

from .graph import INFINITY, GraphError
from .pilings import (_UNSEEN, _StepTable, _kernel_stratum, _settle, _stratum_add,
                      normalize, push_syllable, sort_stratum, stratum_can_add,
                      stratum_extract, stratum_remove)


# Most strata one enumeration may build.  The work grows much faster than the
# strata: on a 2-core x86-64 host, KJ4 at support 3 and exponent 2 has 361
# strata and 1.5M pairs, and RAAG-C6 at (2, 4) has 433 strata and 35M pairs.
# Reduced by their symmetry groups (orders 48 and 768) they are checked in
# 0.14-0.19 s and 20 MB max RSS and in 0.7-0.8 s and 45 MB; a graph with no
# symmetry pays what every unit costs, which on these two was 2.0-3.0 s and
# 122 MB and 14.5-20 s and 309 MB.
MAX_STRATA = 500

# Most candidate images the symmetry search may try; past it the check runs
# unreduced.  A try takes 5-50 us, more on larger graphs: KJ4 (60 vertices,
# order 48) makes 1,101 tries in 6 ms, kjn_graph(5) (320 vertices, order 240)
# 10,290 in 0.2 s.  The search runs after the MAX_STRATA refusal, so on
# fewer than 500 vertices.
SYMMETRY_BUDGET = 100_000


# case: "C1" | "C2" | "C3"
# strata:    C1: (W,)   C2: (U, V, W)   C3: (U, V)
# syllables: C1: (z,)   C2: (y, z)      C3: (y, z)
CriticalPair = namedtuple("CriticalPair", "case strata syllables")


def exponent_range(graph, v, max_exp):
    m = graph.mu(v)
    if m == INFINITY:
        return [a for a in range(-max_exp, max_exp + 1) if a != 0]
    return list(range(1, m))


def _exponent_count(graph, v, max_exp):
    """len(exponent_range(graph, v, max_exp)), without building the list."""
    m = graph.mu(v)
    return 2 * max_exp if m == INFINITY else m - 1


def _check_bounds(max_support, max_exp):
    if max_support < 1 or max_exp < 1:
        raise GraphError(f"max_support and max_exp must be at least 1, "
                         f"got {max_support} and {max_exp}")


def enumerate_strata(graph, max_support, max_exp):
    """All strata with support size and exponent magnitude within bounds.

    The cliques are searched once, and each clique's strata are counted
    before they are built: more than MAX_STRATA in all raise ``GraphError``.
    """
    if not graph.finite:
        raise GraphError("stratum enumeration needs a finite graph")
    _check_bounds(max_support, max_exp)
    out = [()]

    def extend(base, strata, candidates):
        for i, v in enumerate(candidates):
            clique = base + [v]
            n = strata * _exponent_count(graph, v, max_exp)
            if len(out) + n > MAX_STRATA:
                raise GraphError(f"more than {MAX_STRATA} strata within max_support "
                                 f"{max_support} and max_exp {max_exp}; lower the bounds")
            ranges = [[(w, a) for a in exponent_range(graph, w, max_exp)] for w in clique]
            out.extend(sort_stratum(graph, sylls) for sylls in itertools.product(*ranges))
            if len(clique) < max_support:
                extend(clique, n, [w for w in candidates[i + 1:] if graph.edge(v, w)])

    extend([], 1, list(graph.vertices))
    return out


def _bits(m):
    """The set bits of the int m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _symmetries(graph):
    """Generators and order of the symmetry group of a finite graph, or None.

    None unless every star map is a bijection of its star and axioms (b)
    and (d) hold, read off the kernel's ``adj`` and ``pw`` and an up-mask
    per vertex, and None past SYMMETRY_BUDGET tries.  A vertex's images
    are those of its cell: label, degree, up- and down-degree and the
    cycle type of its star map.  The search keeps one symmetry per (level,
    image) coset of a point-stabiliser chain along a breadth-first base:
    from the last level up, a symmetry that fixes the base before the
    level and sends its point to an image outside the orbit of the
    symmetries found so far.  Each try tests adjacency and order against
    the images assigned so far, and the star-map triples (x, y, phi_x(y))
    once all three are assigned.
    """
    k = graph.kernel()
    adj, pw, n, index = k.adj, k.pw, len(k.adj), k.index
    up, down = [0] * n, [0] * n
    for v in graph.vertices:
        for w in graph._up[v]:
            up[index[v]] |= 1 << index[w]
            down[index[w]] |= 1 << index[v]
    for x, p in enumerate(pw):
        inc = adj[x] & ~(up[x] | down[x])
        if (p is None or any(not up[y] >> x & 1 for y in p)
                or any(down[y] & ~inc for y in _bits(inc))):
            return None
    invariants = [(k.mu[x], adj[x].bit_count(), up[x].bit_count(), down[x].bit_count(),
                   tuple(sorted(len(c) for c, i in pw[x].values() if not i)))
                  for x in range(n)]
    cells = {}
    for x, key in enumerate(invariants):
        cells[key] = cells.get(key, 0) | 1 << x
    cell = [cells[key] for key in invariants]

    base, placed = [], 0
    for v in range(n):
        if not placed >> v & 1:
            placed |= 1 << v
            base.append(v)
            for u in base[len(base) - 1:]:      # grows as it is read
                new = adj[u] & ~placed
                placed |= new
                base.extend(_bits(new))
    pos, prefix = [0] * n, [0]
    for i, v in enumerate(base):
        pos[v] = i
        prefix.append(prefix[-1] | 1 << v)
    triples = [[] for _ in range(n)]
    for x, p in enumerate(pw):
        for y, (c, i) in p.items():
            z = c[(i + 1) % len(c)]
            triples[max(pos[x], pos[y], pos[z])].append((x, y, z))

    tries = 0

    def frame(i, f, used, cands):
        """[the images base[i] may take, and the images of its neighbours,
        of the vertices above it and of those below it assigned so far]."""
        v, known = base[i], prefix[i]
        a, u, d = [sum(1 << f[j] for j in _bits(m[v] & known)) for m in (adj, up, down)]
        cands &= cell[v] & ~used
        if a:
            cands &= adj[(a & -a).bit_length() - 1]
        return [cands, a, u, d]

    def kept(f, x, y, z):
        """phi_f(x)(f(y)) = f(z), for z = phi_x(y)."""
        c, t = pw[f[x]].get(f[y], ((), 0))
        return bool(c) and c[(t + 1) % len(c)] == f[z]

    def extend(i0, first):
        """A symmetry fixing base[:i0] and sending base[i0] to first, or None."""
        nonlocal tries
        f = [-1] * n
        for v in base[:i0]:
            f[v] = v
        used = prefix[i0]
        stack = [frame(i0, f, used, 1 << first)]
        while stack and tries <= SYMMETRY_BUDGET:
            i = i0 + len(stack) - 1
            v, top = base[i], stack[-1]
            if f[v] >= 0:       # back from a dead end: undo the last try
                used ^= 1 << f[v]
                f[v] = -1
            cands, a, u, d = top
            for w in _bits(cands):
                tries += 1
                if adj[w] & used == a and up[w] & used == u and down[w] & used == d:
                    f[v] = w
                    if all(kept(f, *t) for t in triples[i]):
                        break
                    f[v] = -1
            else:
                stack.pop()
                continue
            top[0] = cands & -(2 << w)
            used |= 1 << w
            if i + 1 == n:
                return f
            stack.append(frame(i + 1, f, used, -1))
        return None

    gens, order = [], 1
    for i in range(n - 1, -1, -1):
        b, orbit = base[i], {base[i]}
        for c in _bits(cell[b] & ~prefix[i]):
            if c not in orbit:
                g = extend(i, c)
                if tries > SYMMETRY_BUDGET:
                    return None
                if g is not None:
                    gens.append(g)
                    todo = [b]
                    for v in todo:      # grows as it is read
                        for h in gens:
                            if h[v] not in orbit:
                                orbit.add(h[v])
                                todo.append(h[v])
        order *= len(orbit)
    return gens, order


def _units(graph, strata):
    """Every overlap among ``strata``, once, grouped into work units.

    ``("C1", W, movers)`` covers each ``(s, gs)`` of W's movers; ``("C3", U,
    V, (y, gy), (z, gz))`` is one overlap; in ``("C2", V, incoming, heads)``
    each head ``(y, gy, U)`` is one unit, paired with every ``(W, z, gz)`` of
    ``incoming``.  ``gy`` is y extracted from its stratum: the syllable that
    lands, in every stratum a unit adds it to (``addable``, or ``()``).
    """
    nonempty = [U for U in strata if U]
    movers = {V: [(s, stratum_extract(graph, V, s)) for s in V] for V in nonempty}
    addable = {v: [U for U in strata if stratum_can_add(graph, U, (v, 1))]
               for v in graph.vertices}

    for W in nonempty:
        yield ("C1", W, movers[W])

    for V in nonempty:
        for (y, gy), (z, gz) in itertools.combinations(movers[V], 2):
            for U in addable[gy[0]]:
                if stratum_can_add(graph, U, gz):
                    yield ("C3", U, V, (y, gy), (z, gz))

    wz_by_vertex = {v: [] for v in graph.vertices}
    for W in nonempty:
        for z, gz in movers[W]:
            wz_by_vertex[gz[0]].append((W, z, gz))
    for V in nonempty:
        incoming = [wz for v in graph.vertices if stratum_can_add(graph, V, (v, 1))
                    for wz in wz_by_vertex[v]]
        if incoming:
            heads = [(y, gy, U) for y, gy in movers[V] for U in addable[gy[0]]]
            yield ("C2", V, incoming, heads)


def enumerate_critical_pairs(graph, max_support=3, max_exp=2):
    """Yield every overlap within the bounds (finite mu: full residue range)."""
    for unit in _units(graph, enumerate_strata(graph, max_support, max_exp)):
        if unit[0] == "C1":
            _, W, movers = unit
            for s, _ in movers:
                yield CriticalPair("C1", (W,), (s,))
        elif unit[0] == "C3":
            _, U, V, (y, _), (z, _) = unit
            yield CriticalPair("C3", (U, V), (y, z))
        else:
            _, V, incoming, heads = unit
            for y, _, U in heads:
                for W, z, _ in incoming:
                    yield CriticalPair("C2", (U, V, W), (y, z))


class _Reducer:
    """Irreducible pilings interned as ints, with a memoized pair product.

    A piling is held as a tuple of stratum ids of a ``pilings._StepTable``
    of the reducer's own: the graph's shared table may be replaced by a
    ``normalize`` call partway through a check.  ``of_stratum`` takes a
    name stratum to kernel ids; ``check_critical_pairs`` memoizes it and
    the pushes in ``functools.cache`` locals.
    The products are memoized by row: ``_rows[i]`` maps j to the id of
    i * j.  A piling gets its row when it is first a left factor, and most
    pilings never are one (at (3, 2), 1,394 of J5's 14,500 and 11,965 of
    KJ4's 386,521), so the products a check only compares hold no row.
    ``mult_row`` reads many products of one left factor with one dict
    lookup each and computes and interns the missing ones in one loop,
    with no call per product: when one read of the table's rows shows the
    junction pair irreducible, the product is the two factors side by
    side; otherwise it runs the junction pass of ``pilings.product`` on
    the tuples with the table's moves, so a product that was never
    computed still finds most of its moves by one row lookup.
    """

    def __init__(self, graph):
        self.table = _StepTable(graph.kernel())
        self._ids = {(): 0}
        self._pilings = [()]
        self._rows = {}

    def intern(self, piling):
        i = self._ids.get(piling)
        if i is None:
            i = self._ids[piling] = len(self._pilings)
            self._pilings.append(piling)
        return i

    def of_stratum(self, U):
        """Id of the piling of the name stratum U, read as ``normalize`` reads
        it: exponents mod mu, so () when every syllable vanishes."""
        S = _kernel_stratum(self.table.kernel, U)
        return self.intern((self.table.sid(S),) if S else ())

    def mult(self, i, j):
        """Id of the product of the pilings with ids i and j."""
        row = self._rows.get(i)
        out = None if row is None else row.get(j)
        return self.mult_row(i, (j,))[0] if out is None else out

    def mult_row(self, i, js):
        """``[self.mult(i, j) for j in js]``, reading the known products of
        row i in one pass and computing the others in one loop."""
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = {}
        out = list(map(row.get, js))
        if None in out:
            # the bodies of _join and intern, inline: no call per missing product
            table, ids, pilings = self.table, self._ids, self._pilings
            left = pilings[i]
            junction = table.rows[left[-1]] if left else None
            for n, k in enumerate(out):
                if k is not None:
                    continue
                j = js[n]
                k = row.get(j)      # js may repeat a miss
                if k is None:
                    right = pilings[j]
                    if not (left and right):
                        k = j if right else i
                    else:
                        if junction.get(right[0], _UNSEEN) is None:
                            p = left + right
                        else:
                            p = _settle(table, list(left + right), len(left) - 1, len(left),
                                        table.rows)
                        k = ids.get(p)
                        if k is None:
                            k = ids[p] = len(pilings)
                            pilings.append(p)
                    row[j] = k
                out[n] = k
        return out


def _successors(graph, pair: CriticalPair):
    """The two pilings one rewrite away from the overlap, or None.

    C1 is ``((), W)`` erasing its empty stratum or pushing s out of W;
    C3 is ``(U, V)`` pushing y or z out of V; C2 is ``(U, V, W)`` pushing
    y out of V or z out of W.  None when one side cannot actually move.
    """
    case = pair.case
    if case == "C1":
        (W,), (s,) = pair.strata, pair.syllables
        t = push_syllable(graph, (), W, s)
        return None if t is None else (t, (W,))
    if case == "C3":
        (U, V), (y, z) = pair.strata, pair.syllables
        t1, t2 = push_syllable(graph, U, V, y), push_syllable(graph, U, V, z)
        return None if t1 is None or t2 is None else (t1, t2)
    if case == "C2":
        (U, V, W), (y, z) = pair.strata, pair.syllables
        t1, t2 = push_syllable(graph, U, V, y), push_syllable(graph, V, W, z)
        return None if t1 is None or t2 is None else (t1 + (W,), (U,) + t2)
    raise GraphError(f"unknown overlap case {case!r}")


def resolve(graph, pair: CriticalPair) -> bool:
    """Do the two divergent successors of the overlap meet again?

    Each successor is reduced by ``normalize``; True means the irreducible
    results coincide.  Overlaps where one side cannot actually move are
    vacuously resolved.
    """
    successors = _successors(graph, pair)
    if successors is None:
        return True
    left, right = successors
    return normalize(graph, left) == normalize(graph, right)


class ConfluenceReport(SimpleNamespace):
    def __init__(self, pairs_checked=0, failures=None, samples_checked=0, sample_failures=None):
        super().__init__(pairs_checked=pairs_checked,
                         failures=[] if failures is None else failures,
                         samples_checked=samples_checked,
                         sample_failures=[] if sample_failures is None else sample_failures)

    @property
    def ok(self):
        return not self.failures and not self.sample_failures

    def describe(self) -> str:
        lines = [f"critical pairs checked: {self.pairs_checked}, unresolved: {len(self.failures)}"]
        for pair, left, right in self.failures[:5]:
            lines.append(f"  {pair.case} at strata {pair.strata} syllables {pair.syllables}:")
            lines.append(f"    reduces to both {left} and {right}")
        if self.samples_checked:
            lines.append(f"random pilings checked: {self.samples_checked}, "
                         f"divergent: {len(self.sample_failures)}")
            for piling, forms in self.sample_failures[:5]:
                lines.append(f"  {piling} reached {len(forms)} distinct irreducible forms")
        return "\n".join(lines)


def check_critical_pairs(graph, max_support=3, max_exp=2, fail_limit=10) -> ConfluenceReport:
    """Resolve every enumerated overlap, collecting failures with evidence.

    Consumes the work units that ``enumerate_critical_pairs`` expands and
    reaches the verdicts of ``resolve``, but evaluates each unit on interned
    strata: each push (U + g, or V less y) is interned once per check, the
    C2 incoming strata once per middle stratum, the C2 right-hand rows once
    per (V, U) and the left-hand rows once per distinct left product, and
    only memoized product rows remain in the hot loop.  A right-hand row
    (U * V2) * W2 keeps its left association (the two associations agree
    only where the system is confluent, which is what is being checked):
    U * V2 is formed once per distinct V2 of the unit, and the incoming
    pairs are grouped by V2 so that each group is one row read.  Rows that
    differ are walked in incoming order, so failures come in pair order.  A
    failure's witness is the irreducible form of each of its two successors.
    One step table, the reducer's, serves the whole check.  The check stops
    at ``fail_limit`` failures, which must be at least 1.

    Where the graph has symmetries, only the C2 units whose middle stratum
    comes first in its orbit are evaluated, and a failure there sends the
    check back over every unit (module docstring).  The report's
    ``group_order`` is the order of the group the check was reduced by,
    2^k times the number of symmetries for k negated classes (1 when it
    was not reduced), and ``c2_evaluated`` counts the C2 units evaluated.
    """
    if fail_limit < 1:
        raise GraphError(f"fail_limit must be at least 1, got {fail_limit}")
    strata = enumerate_strata(graph, max_support, max_exp)
    reduced = _orbit_firsts(graph, strata)
    if reduced is not None:
        report = _check(graph, strata, 1, reduced[0])
        if not report.failures:
            report.group_order = reduced[1]
            return report
    report = _check(graph, strata, fail_limit, None)
    report.group_order = 1
    return report


def _negations(graph):
    """The classes of y ~ phi_x(y) whose exponents may be negated, as dicts
    from vertex to kernel label: those of one label, not 2, on which every
    star map is an involution, of even label where it moves a vertex; none
    unless every star map is a bijection."""
    k = graph.kernel()
    pw, mu, root = k.pw, k.mu, list(range(len(k.pw)))
    if None in pw:
        return []

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for p in pw:
        for c, i in p.values():
            root[find(c[i])] = find(c[0])
    classes = [list(C) for _, C in itertools.groupby(sorted(range(len(pw)), key=find), find)]
    return [{graph.vertices[x]: mu[x] for x in C} for C in classes
            if len({mu[x] for x in C}) == 1 and mu[C[0]] != 2
            and all(len(c) == 2 and mu[x] % 2 == 0 for x in C for c, _ in pw[x].values())]


def _orbit_firsts(graph, strata):
    """The strata that come first in their orbit under the group generated
    by the symmetries of ``_symmetries`` and the class negations of
    ``_negations``, the orbits taken as the closure under the generators,
    and the group's order; None when the group is trivial."""
    found = _symmetries(graph)
    gens, order = found if found is not None else ((), 1)
    verts = graph.vertices
    maps = [lambda S, m=dict(zip(verts, [verts[i] for i in g])):
            sort_stratum(graph, [(m[v], a) for v, a in S]) for g in gens]
    for C in _negations(graph):     # vertices stay, so a stratum keeps its order
        maps.append(lambda S, C=C: tuple([(v, a if v not in C else -a % C[v] if C[v] else -a)
                                          for v, a in S]))
        order *= 2
    if order == 1:
        return None
    seen, firsts = set(), set()
    for S in strata:
        if S not in seen:
            firsts.add(S)
            seen.add(S)
            todo = [S]
            for T in todo:      # grows as it is read
                for m in maps:
                    R = m(T)
                    if R not in seen:
                        seen.add(R)
                        todo.append(R)
    return firsts, order


def _check(graph, strata, fail_limit, firsts):
    """``check_critical_pairs`` on the units of ``strata``, evaluating a C2
    unit only when ``firsts`` is None or holds its middle stratum."""
    report = ConfluenceReport()
    report.c2_evaluated = 0
    r = _Reducer(graph)
    # local memos: a cache on the reducer would form a cycle through its bound method
    mult, mult_row, of = r.mult, r.mult_row, functools.cache(r.of_stratum)
    add = functools.cache(lambda U, g: of(_stratum_add(graph, U, g)))
    remove = functools.cache(lambda V, y: of(stratum_remove(V, y)))

    def record(pair):
        report.failures.append((pair, *(normalize(graph, p) for p in _successors(graph, pair))))
        return len(report.failures) >= fail_limit

    for u in _units(graph, strata):
        if u[0] == "C1":
            _, W, movers = u
            iW = of(W)
            for s, gs in movers:
                report.pairs_checked += 1
                if mult(add((), gs), remove(W, s)) != iW:
                    if record(CriticalPair("C1", (W,), (s,))):
                        return report
        elif u[0] == "C3":
            _, U, V, (y, gy), (z, gz) = u
            report.pairs_checked += 1
            a = mult(add(U, gy), remove(V, y))
            b = mult(add(U, gz), remove(V, z))
            if a != b:
                if record(CriticalPair("C3", (U, V), (y, z))):
                    return report
        else:
            _, V, incoming, heads = u
            if firsts is not None and V not in firsts:
                report.pairs_checked += len(heads) * len(incoming)
                continue
            report.c2_evaluated += 1
            # the incoming pairs grouped by V2 = V + gz, in first-seen order
            groups = {}
            for n, (W, z, gz) in enumerate(incoming):
                groups.setdefault(add(V, gz), []).append((n, of(W), remove(W, z)))
            order = [n for group in groups.values() for n, _, _ in group]
            iWs = [iW for group in groups.values() for _, iW, _ in group]
            v2s = list(groups)
            w2s = [[iW2 for _, _, iW2 in group] for group in groups.values()]
            right, rows = {}, {}
            for y, gy, U in heads:
                a1 = mult(add(U, gy), remove(V, y))
                a = rows.get(a1)
                if a is None:
                    a = rows[a1] = mult_row(a1, iWs)
                iU = of(U)
                b = right.get(iU)
                if b is None:
                    b = right[iU] = []
                    for iUV2, row in zip(mult_row(iU, v2s), w2s):
                        b += mult_row(iUV2, row)
                report.pairs_checked += len(iWs)
                if a == b:
                    continue
                for n in sorted(n for n, aW, bW in zip(order, a, b) if aW != bW):
                    if record(CriticalPair("C2", (U, V, incoming[n][0]), (y, incoming[n][1]))):
                        return report
    return report


# ----------------------------------------------------------------------
# randomized strategy independence


def random_piling(graph, rng: random.Random, max_len=4, max_support=3, max_exp=2):
    """Random piling, possibly containing empty strata."""
    _check_bounds(max_support, max_exp)
    strata = []
    for _ in range(rng.randrange(max_len + 1)):
        size = rng.randrange(max_support + 1)
        pool = list(graph.vertices)
        rng.shuffle(pool)
        support = []
        for v in pool:
            if len(support) == size:
                break
            if all(graph.edge(v, w) for w in support):
                support.append(v)
        sylls = [(v, _random_exponent(graph, v, rng, max_exp)) for v in support]
        strata.append(sort_stratum(graph, sylls))
    return tuple(strata)


def _random_exponent(graph, v, rng, max_exp):
    """``rng.choice(exponent_range(graph, v, max_exp))``, without the list.

    ``randrange`` over the range's length draws as ``choice`` does, so
    seeded pilings are the same as with the list.
    """
    m = graph.mu(v)
    if m != INFINITY:
        return rng.randrange(1, m)
    k = rng.randrange(2 * max_exp)
    return k - max_exp if k < max_exp else k - max_exp + 1


def normalize_random_strategy(graph, piling, rng: random.Random):
    """Reduce by uniformly random applicable moves until irreducible."""
    moves = _Moves(graph)
    return moves.names_of(moves.walk({}, moves.key(piling), rng))


class _Moves:
    """The moves of random strategies within one call, on strata held as ints.

    ``names[u]`` is the stratum with id u; id 0 is the empty stratum.  A
    piling is held as its key, the tuple of its stratum ids.  ``movers``
    maps a stratum's id to its syllables in order, each extracted past the
    ones above it and paired with the id of the stratum left without it;
    ``pushes`` maps a pair of ids to the id pairs its landing pushes leave,
    one for each mover of the right stratum that lands in the left one.
    Both work on vertex names, so the check does not lean on the kernel's
    step table that it tests.

    A walk reads and extends a move graph ``seen``: each piling met maps
    to its node ``(key, count, empties, ends, landings, nexts)``.  Its
    ``count`` moves are numbered as a fresh search lists them, erasures
    first (at the positions ``empties``) and then the pushes of each pair
    left to right, ``landings[i]`` those of the pair at i and ``ends[i]``
    the running total of pushes through it, so ``rng`` draws the values
    it would draw there.  ``nexts`` maps a move's number to the node it
    leads to, filled when a draw first takes it: walks that share
    ``seen`` share its nodes, and a walk that reaches a piling an earlier
    walk expanded steps on by dict lookups alone.
    """

    def __init__(self, graph):
        self.graph, self.ids, self.names = graph, {(): 0}, [()]
        self.movers, self.pushes = {}, {}

    def sid(self, U):
        u = self.ids.get(U)
        if u is None:
            u = self.ids[U] = len(self.names)
            self.names.append(U)
        return u

    def key(self, piling):
        return tuple([self.sid(U) for U in piling])

    def names_of(self, key):
        return tuple([self.names[u] for u in key])

    def _node(self, seen, key):
        pairs = list(zip(key, key[1:]))
        landings = list(map(self.pushes.get, pairs))
        if None in landings:
            for i, ts in enumerate(landings):
                if ts is None:
                    landings[i] = self._landings(pairs[i])
        empties = [i for i, u in enumerate(key) if not u] if 0 in key else []
        ends = list(itertools.accumulate(map(len, landings)))
        count = len(empties) + (ends[-1] if ends else 0)
        node = seen[key] = (key, count, empties, ends, landings, {})
        return node

    def _landings(self, pair):
        graph, U, v = self.graph, self.names[pair[0]], pair[1]
        movers = self.movers.get(v)
        if movers is None:
            V = self.names[v]
            movers = self.movers[v] = [(stratum_extract(graph, V, s),
                                        self.sid(stratum_remove(V, s))) for s in V]
        ts = self.pushes[pair] = tuple([(self.sid(_stratum_add(graph, U, g)), w)
                                        for g, w in movers if stratum_can_add(graph, U, g)])
        return ts

    def walk(self, seen, key, rng):
        """The key of the irreducible piling one random strategy reaches from
        ``key``; each step adds at most one piling to ``seen``."""
        node = seen.get(key) or self._node(seen, key)
        while True:
            key, count, empties, ends, landings, nexts = node
            if not count:
                return key
            r = rng.randrange(count)
            node = nexts.get(r)
            if node is None:
                p = r - len(empties)
                if p < 0:
                    i = empties[r]
                    k = key[:i] + key[i + 1:]
                else:
                    i = bisect.bisect_right(ends, p)
                    k = key[:i] + landings[i][p - ends[i - 1] if i else p] + key[i + 2:]
                node = nexts[r] = seen.get(k) or self._node(seen, k)


def check_strategy_independence(graph, rng=None, pilings=1000, strategies=20,
                                max_support=3, max_exp=2) -> ConfluenceReport:
    """Many random pilings, each reduced under many random strategies.

    The strategies of one piling walk one move graph (``_Moves``), so a
    piling that an earlier strategy expanded costs a dict lookup per
    step.  The landing pushes of each pair of strata are searched once
    per call; move graphs live for one piling.
    """
    if pilings < 0 or strategies < 1:
        raise GraphError(f"pilings must be at least 0 and strategies at least 1, "
                         f"got {pilings} and {strategies}")
    rng = rng or random.Random(0)
    report = ConfluenceReport()
    moves = _Moves(graph)
    for _ in range(pilings):
        piling = random_piling(graph, rng, max_support=max_support, max_exp=max_exp)
        report.samples_checked += 1
        key, seen = moves.key(piling), {}
        forms = {moves.names_of(moves.walk(seen, key, rng)) for _ in range(strategies)}
        forms.add(normalize(graph, piling))
        if len(forms) != 1:
            report.sample_failures.append((piling, sorted(forms)))
    return report
