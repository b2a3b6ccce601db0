"""Vertex-ordered simplicial graphs with star maps.

The central object is a quadruple: a simplicial graph, a strict partial
order on its vertices, a torsion label mu per vertex (an integer >= 2 or
INFINITY), and one automorphism of each vertex star.  A graph whose
quadruple satisfies axioms (a)-(g) below presents a trickle group, and
everything else in this package consumes it through the small query
oracle exposed here: edge, less, mu, phi, phi_pow (phi_inv is phi_pow
with exponent -1).

Two flavours exist.  Finite graphs are table-backed (built from explicit
vertex, edge, order and star-map data, which ``tables`` hands back) and
support full validation and serialization; each sound star map is also
kept as its cycles, y -> (cycle, index), so phi_x^a(y) is
cycle[(index + a) % len(cycle)].
Infinite families are "lazy" chains ordered by the vertices' own ``<``,
which is also the normal-form ranking; by axiom (a) they are complete.
They supply one callable, phi_pow(x, a, y), giving phi_x^a in closed form
for every a, and are checked by sampling (spot_check) rather than
exhaustively.  LAZY_POWER_CAP bounds |a|, so it bounds the size of an
image, not a number of steps.  The rewriting engine runs a
finite graph on its ``Kernel``, the same tables held by integer id.

Axioms, for vertices x, y, z (x || y means incomparable):

  (a) x < y implies {x, y} is an edge.
  (b) {x, y} an edge with x || y and z <= y implies {x, z} is an edge
      with x || z.
  (c) for y, z in star(x): z <= y iff phi_x(z) <= phi_x(y).
  (d) phi_x(y) != y implies y < x.
  (e) if mu(x) is finite, the order of phi_x divides mu(x).
  (f) mu(phi_x(y)) = mu(y).
  (g) for chains z < y < x: phi_x(phi_y(z)) = phi_y'(phi_x(z)) where
      y' = phi_x(y).
"""

from __future__ import annotations

import heapq
import itertools
import reprlib
from collections import namedtuple
from math import inf, lcm
from types import SimpleNamespace

INFINITY = inf
LAZY_POWER_CAP = 10 ** 6
MAX_WITNESSES = 20      # listed per axiom in one report
# (a, b) sampled by spot_check for phi_x^a . phi_x^b = phi_x^(a+b) on lazy graphs
POWER_LAW_PAIRS = ((1, 1), (1, -2), (-2, -1), (2, 3))


class GraphError(ValueError):
    """Malformed graph data or an out-of-domain query."""


class Violation(namedtuple("Violation", "axiom witness detail")):
    """A failed check; ``axiom`` is "structure" or one of "a".."g"."""

    __slots__ = ()

    def __str__(self):
        what = "structural error" if self.axiom == "structure" else f"axiom ({self.axiom})"
        return f"{what} at {self.witness}: {self.detail}"


class ValidationReport(SimpleNamespace):
    def __init__(self, violations=None, checked=None):
        # checked: the number of samples, for spot checks
        super().__init__(violations=[] if violations is None else violations, checked=checked)

    @property
    def ok(self):
        return not self.violations

    def axioms_violated(self):
        return sorted({v.axiom for v in self.violations})

    def describe(self) -> str:
        if self.ok:
            return "valid (vacuous)" if self.checked == 0 else "valid"
        return "\n".join(str(v) for v in self.violations)


def _cycles(table):
    """y -> (cycle of y under the permutation ``table``, index of y in it)."""
    out = {}
    for y in table:
        if y not in out:
            cycle = [y]
            while table[cycle[-1]] != y:
                cycle.append(table[cycle[-1]])
            cycle = tuple(cycle)
            out.update((z, (cycle, i)) for i, z in enumerate(cycle))
    return out


def _kahn(verts, direct, key):
    """Stable Kahn pass over the order pairs ``direct``: among the minimal
    vertices left, the one with the least key comes first.  A cycle is
    named by one of its vertices, the same for the same input."""
    below = dict.fromkeys(verts, 0)
    for v in verts:
        for w in direct[v]:
            below[w] += 1
    ready = [(key(v), i, v) for i, v in enumerate(verts) if not below[v]]
    heapq.heapify(ready)
    seq = len(verts)
    order = []
    while ready:
        v = heapq.heappop(ready)[2]
        order.append(v)
        for w in direct[v]:
            below[w] -= 1
            if not below[w]:
                heapq.heappush(ready, (key(w), seq, w))
                seq += 1
    if len(order) < len(verts):
        # each vertex left sits above another one left: walk down until one repeats
        done = set(order)
        lower = {w: v for v in reversed(verts) if v not in done for w in direct[v]}
        v, seen = next(v for v in verts if v not in done), set()
        while v not in seen:
            seen.add(v)
            v = lower[v]
        raise GraphError(f"order relation has a cycle through {reprlib.repr(v)}")
    return order


def _not_a_bijection(x, table, star, verts):
    """Why ``table`` is no bijection of ``star``, naming preimages in vertex order."""
    pos = {v: i for i, v in enumerate(verts)}
    inv = {}
    for y in sorted(table, key=pos.__getitem__):
        img = table[y]
        if img not in star:
            return (f"phi_{reprlib.repr(x)} sends {reprlib.repr(y)} to "
                    f"{reprlib.repr(img)} outside the star")
        if img in inv:
            return (f"phi_{reprlib.repr(x)} is not injective: {reprlib.repr(inv[img])} "
                    f"and {reprlib.repr(y)} both map to {reprlib.repr(img)}")
        inv[img] = y


class Kernel:
    """A finite graph compiled to integer ids, built once per graph.

    A vertex's id is its position in ``graph.vertices``, the ranking order,
    so strata sorted by descending id are sorted by descending rank.
    ``adj[i]`` is the bitmask of the neighbours of i and ``mu[i]`` its label,
    0 for INFINITY.  ``pw[i]`` is None when phi_i is not a bijection of the
    star; otherwise it maps each star vertex that phi_i moves to its cycle
    (a tuple of ids) and its index in it, so phi_i^a(j) is
    cycle[(index + a) % len(cycle)], and every other star vertex is fixed.
    The tables grow with the stars, not with n squared.  ``graph`` keeps the
    name oracle for translating back and for errors.  ``table`` caches the
    moves ``pilings`` makes on these tables, so it never changes an answer.
    """

    __slots__ = ("graph", "index", "adj", "mu", "pw", "table")

    def __init__(self, graph):
        self.graph = graph
        self.index = index = graph._rank
        self.adj = [sum(1 << index[y] for y in graph._adj[x]) for x in graph.vertices]
        self.mu = [0 if graph._mu[x] == INFINITY else graph._mu[x] for x in graph.vertices]
        self.pw = []
        for x in graph.vertices:
            cycles = graph._cycles.get(x)     # None when phi_x is unsound
            if cycles is not None:
                moved, last = {}, None
                for y, (cycle, i) in cycles.items():    # a cycle's vertices come in a row
                    if len(cycle) > 1:
                        if cycle is not last:
                            last, ids = cycle, tuple(map(index.__getitem__, cycle))
                        moved[index[y]] = (ids, i)
                cycles = moved
            self.pw.append(cycles)
        self.table = None


class TrickleGraph:
    """Query oracle for a vertex-ordered graph with star maps.

    Immutable after construction; all methods are pure queries, so shared
    concurrent reads are safe: the one cache, the step table of the
    ``Kernel``, never changes an answer.  Construct finite graphs with
    ``build`` and infinite ones with ``lazy``; derived ones come from those.
    """

    def __init__(self):
        raise TypeError("use TrickleGraph.build(...) or TrickleGraph.lazy(...)")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def build(cls, vertices, mu, edges, less=(), phi=None, ranking=None,
              name="graph", parse_vertex=None, format_vertex=None):
        """Finite graph from explicit data; the one place graph data is checked.

        ``mu`` is a mapping covering every vertex or a single value applied
        to every vertex.  ``less`` lists (lo, hi) pairs meaning lo < hi; any
        acyclic relation is accepted and its transitive closure is taken.
        ``phi`` maps a vertex to a dict of star images; omitted entries are
        the identity.  Images must be vertices but may leave the star, so
        that ``validate`` can diagnose the map.  ``ranking`` fixes the total
        order used for normal forms and must extend the partial order; by
        default a stable topological sort refined by the lexicographic
        vertex token is used.  Bad data raises ``GraphError``.
        """
        self = object.__new__(cls)
        verts = list(vertices)
        vset = set()
        for v in verts:
            if v in vset:
                raise GraphError(f"duplicate vertex {reprlib.repr(v)}")
            vset.add(v)

        try:
            mu_map = {v: mu[v] for v in verts} if isinstance(mu, dict) else dict.fromkeys(verts, mu)
        except KeyError as e:
            raise GraphError(f"mu has no label for vertex {reprlib.repr(e.args[0])}") from None
        for v, m in mu_map.items():
            if m != INFINITY and (not isinstance(m, int) or m < 2):
                raise GraphError(f"mu({reprlib.repr(v)}) = {reprlib.repr(m)}: "
                                 "need an integer >= 2 or INFINITY")

        def known(what, *vs):
            for v in vs:
                if v not in vset:
                    raise GraphError(f"{what} names unknown vertex {reprlib.repr(v)}")

        adj = {v: set() for v in verts}
        for a, b in edges:
            known("edge", a, b)
            if a == b:
                raise GraphError(f"self-loop at {reprlib.repr(a)}")
            adj[a].add(b)
            adj[b].add(a)
        direct = {v: [] for v in verts}     # direct[v]: w for each input pair (v, w)
        for a, b in less:
            known("order pair", a, b)
            if a == b:
                raise GraphError(f"reflexive order pair at {reprlib.repr(a)}")
            direct[a].append(b)

        phi = phi or {}
        for x, given in phi.items():
            known("phi", x, *given, *given.values())
            for y in given:
                if y != x and y not in adj[x]:
                    raise GraphError(f"phi[{reprlib.repr(x)}] defined at {reprlib.repr(y)}, "
                                     "not a star vertex")
        phi_tab = {}
        phi_bad = {}
        cycles = {}
        for x in verts:
            star = adj[x] | {x}
            given = phi.get(x, {})
            table = {y: given.get(y, y) for y in star}
            phi_tab[x] = table
            if set(table.values()) == star:
                phi_bad[x] = None
                cycles[x] = _cycles(table)
            else:
                phi_bad[x] = _not_a_bijection(x, table, star, verts)

        self.finite = True
        self._mu = mu_map
        self._adj = {v: frozenset(s) for v, s in adj.items()}
        self._phi = phi_tab
        self._phi_bad = phi_bad
        self._cycles = cycles    # sound maps only
        self.name = name
        self.parse_vertex = parse_vertex or str
        self.format_vertex = format_vertex or str

        if ranking is None:
            key = self.format_vertex
        else:
            ranking = list(ranking)
            if len(ranking) != len(verts) or set(ranking) != vset:
                raise GraphError("ranking is not a permutation of the vertices")
            key = {v: i for i, v in enumerate(ranking)}.__getitem__
        order = _kahn(verts, direct, key)
        if ranking is not None and order != ranking:
            # where they part, the ranking puts r before a vertex p < r
            r = next(r for r, v in zip(ranking, order) if r != v)
            p = next(p for p in verts if r in direct[p] and key(p) > key(r))
            raise GraphError(
                f"ranking is not a linear extension: {reprlib.repr(p)} < {reprlib.repr(r)} but "
                f"{self.format_vertex(r)} is ranked below {self.format_vertex(p)}")
        up = {}     # up[v]: everything strictly above v, taken top down
        for v in reversed(order):
            up[v] = frozenset(direct[v]).union(*(up[w] for w in direct[v]))
        self._up = up
        self.vertices = tuple(order)
        self._rank = {v: i for i, v in enumerate(self.vertices)}
        self._dual = None
        self._kernel = None
        return self

    @classmethod
    def lazy(cls, *, mu, phi_pow, contains, name="lazy graph",
             parse_vertex=None, format_vertex=None):
        """Infinite chain on the vertices accepted by ``contains``.

        Their own ``<`` is the order and the normal-form ranking, and by
        axiom (a) any two distinct vertices are adjacent.  ``mu`` labels
        every vertex.  ``phi_pow(x, a, y)`` is phi_x^a(y) for any nonzero
        integer a, in closed form: it is the one star-map callable, so
        phi and phi_inv are its cases a = 1 and a = -1.  The queries keep
        |a| within LAZY_POWER_CAP, as the image's size may grow with |a|.
        """
        self = object.__new__(cls)
        self.finite = False
        self.vertices = None
        self._mu_constant = mu
        self._phi_pow_fn = phi_pow
        self._contains = contains
        self.name = name
        self.parse_vertex = parse_vertex or str
        self.format_vertex = format_vertex or str
        self._dual = None
        self._kernel = None
        return self

    # ------------------------------------------------------------------
    # queries

    def kernel(self):
        """The ``Kernel`` of a finite graph, compiled at first use; None if lazy."""
        if self._kernel is None and self.finite:
            self._kernel = Kernel(self)
        return self._kernel

    def contains_vertex(self, v) -> bool:
        if self.finite:
            return v in self._rank
        return self._contains(v)

    def edge(self, x, y) -> bool:
        if self.finite:
            return y in self._adj[x]
        return x != y

    def less(self, x, y) -> bool:
        """Strict order: x < y."""
        if self.finite:
            return y in self._up[x]
        return x < y

    def leq(self, x, y) -> bool:
        return x == y or self.less(x, y)

    def incomparable(self, x, y) -> bool:
        return x != y and not self.less(x, y) and not self.less(y, x)

    def mu(self, x):
        return self._mu[x] if self.finite else self._mu_constant

    def star(self, x):
        if not self.finite:
            raise GraphError("star enumeration needs a finite graph")
        return self._adj[x] | {x}

    def phi(self, x, y):
        if self.finite:
            try:
                return self._phi[x][y]
            except KeyError:
                raise GraphError(f"{reprlib.repr(y)} is not in "
                                 f"star({reprlib.repr(x)})") from None
        return y if x == y else self._phi_pow_fn(x, 1, y)

    def phi_inv(self, x, y):
        return self.phi_pow(x, -1, y)

    def phi_order(self, x) -> int:
        """Order of phi_x as a permutation of the (finite) star."""
        if not self.finite:
            raise GraphError("phi_order needs a finite graph")
        bad = self._phi_bad.get(x, f"unknown vertex {x!r}")
        if bad:
            raise GraphError(bad)
        return lcm(*{len(cycle) for cycle, _ in self._cycles[x].values()})

    def phi_pow(self, x, a, y):
        """phi_x^a(y), for any integer a."""
        if a == 0:
            return y
        if self.finite:
            try:
                cycle, i = self._cycles[x][y]
            except KeyError:
                raise GraphError(self._phi_bad.get(x) or f"{reprlib.repr(y)} is not in "
                                 f"star({reprlib.repr(x)})") from None
            return cycle[(i + a) % len(cycle)]
        if x == y:
            return y
        if abs(a) > LAZY_POWER_CAP:
            raise GraphError(f"phi power {a} exceeds the cap {LAZY_POWER_CAP} on a lazy graph")
        return self._phi_pow_fn(x, a, y)

    def sort_key(self, v):
        """Key whose descending order is the normal-form order on vertices."""
        if self.finite:
            return self._rank[v]
        return v

    def complete(self) -> bool:
        if not self.finite:
            raise GraphError("completeness check needs a finite graph")
        n = len(self.vertices)
        return all(len(self._adj[v]) == n - 1 for v in self.vertices)

    # ------------------------------------------------------------------
    # derived graphs

    def tables(self):
        """The ``build`` arguments ``(vertices, mu, edges, less, phi)`` of a
        finite graph: vertices in ranking order, each edge once, the closed
        order, and in ``phi`` only the entries that move."""
        if not self.finite:
            raise GraphError(f"{self.name} is lazy and has no tables")
        rank = self._rank.__getitem__
        edges = [(x, y) for x in self.vertices
                 for y in sorted(self._adj[x], key=rank) if rank(y) > rank(x)]
        less = [(x, y) for x in self.vertices for y in sorted(self._up[x], key=rank)]
        phi = {x: {y: img for y, img in self._phi[x].items() if img != y} for x in self.vertices}
        return self.vertices, dict(self._mu), edges, less, {x: m for x, m in phi.items() if m}

    def with_ranking(self, ranking):
        """Same graph with an explicit normal-form ranking."""
        return TrickleGraph.build(*self.tables(), ranking=ranking, name=self.name,
                                  parse_vertex=self.parse_vertex,
                                  format_vertex=self.format_vertex)

    def dual(self):
        """Same graph with every star map replaced by its inverse."""
        if self._dual is not None:
            return self._dual
        name = f"dual({self.name})"
        if self.finite:
            for x in self.vertices:
                if self._phi_bad[x]:
                    raise GraphError(self._phi_bad[x])
            vertices, mu, edges, less, phi = self.tables()
            phi = {x: {img: y for y, img in moved.items()} for x, moved in phi.items()}
            g = TrickleGraph.build(vertices, mu, edges, less, phi, ranking=vertices,
                                   name=name, parse_vertex=self.parse_vertex,
                                   format_vertex=self.format_vertex)
        else:
            fn = self._phi_pow_fn
            g = TrickleGraph.lazy(mu=self._mu_constant, phi_pow=lambda x, a, y: fn(x, -a, y),
                                  contains=self._contains,
                                  name=name, parse_vertex=self.parse_vertex,
                                  format_vertex=self.format_vertex)
        g._dual = self
        self._dual = g
        return g

    def same_structure(self, other) -> bool:
        """Structural equality of finite graphs (tables and ranking)."""
        if not (isinstance(other, TrickleGraph) and self.finite and other.finite):
            return self is other
        return self.tables() == other.tables()

    def __repr__(self):
        if self.finite:
            return f"<TrickleGraph {self.name!r}: {len(self.vertices)} vertices>"
        return f"<TrickleGraph {self.name!r}: lazy>"


# ----------------------------------------------------------------------
# validation


def validate(graph: TrickleGraph) -> ValidationReport:
    """Check the axioms on a finite graph, reporting witnesses.

    Structural problems with the star maps (not a bijection of the star,
    or not preserving adjacency) are reported first; axioms (c)-(g) are
    only evaluated on vertices with structurally sound maps.  Witnesses
    come in ranking order, at most MAX_WITNESSES per axiom.
    """
    if not graph.finite:
        raise GraphError("validate needs a finite graph; use spot_check for lazy graphs")
    report = ValidationReport()
    _check(graph, graph.vertices, report, {})
    return report


def spot_check(graph: TrickleGraph, samples) -> ValidationReport:
    """Sampled axiom check for lazy graphs.

    Each sample is a triple of vertices, checked as ``validate`` checks a
    graph but with every star cut down to the triple.  Axiom (e) is
    checked on finite graphs only: it needs the order of phi_x, which
    finitely many queries do not reveal on an infinite star.  On a lazy
    graph, whose phi_pow is a closed form of its own, each star vertex y
    is also checked against the power law phi_x^a(phi_x^b(y)) =
    phi_x^(a+b)(y) for (a, b) in POWER_LAW_PAIRS.  A witness found on
    several triples is listed once.
    """
    report = ValidationReport(checked=0)
    seen = {}
    for triple in samples:
        report.checked += 1
        _check(graph, triple, report, seen)
    return report


def _check(graph, pool, report, seen):
    """Add the violations among the vertices of ``pool`` to ``report``,
    with every star cut down to the pool; pool and stars are walked in
    ranking order.  ``seen`` maps each axiom to the witnesses reported so
    far, so a witness found again from another pool is listed once."""
    def hit(axiom, witness, detail):
        witnesses = seen.setdefault(axiom, set())
        if witness not in witnesses and len(witnesses) < MAX_WITNESSES:
            witnesses.add(witness)
            report.violations.append(Violation(axiom, witness, detail))

    for v in pool:
        if not graph.contains_vertex(v):
            raise GraphError(f"{v!r} is not a vertex of {graph.name}")
    pool = sorted(set(pool), key=graph.sort_key)
    star = {x: [y for y in pool if y == x or graph.edge(x, y)] for x in pool}

    sound = set()
    for x in pool:
        try:
            faults = [y for y in star[x] if graph.phi_inv(x, graph.phi(x, y)) != y]
        except GraphError as e:     # finite: phi_x is not a bijection of star(x)
            hit("structure", (x,), str(e))
            continue
        for y in faults:
            hit("structure", (x, y), "phi_inv does not undo phi")
        for y in () if graph.finite else star[x]:
            for a, b in POWER_LAW_PAIRS:
                if graph.phi_pow(x, a, graph.phi_pow(x, b, y)) != graph.phi_pow(x, a + b, y):
                    hit("structure", (x, y), f"phi_{x!r}^{a} . phi_{x!r}^{b} is not "
                                             f"phi_{x!r}^{a + b} at {y!r}")
                    faults.append(y)
                    break
        for y, z in itertools.combinations(star[x], 2):
            if graph.edge(y, z) != graph.edge(graph.phi(x, y), graph.phi(x, z)):
                hit("structure", (x, y, z),
                    f"phi_{x!r} does not preserve adjacency on ({y!r}, {z!r})")
                faults.append(y)
        if not faults:
            sound.add(x)

    for x in pool:
        for y in pool:
            if graph.less(x, y) and not graph.edge(x, y):
                hit("a", (x, y), "x < y without an edge {x, y}")

    for x in pool:
        for y in (y for y in star[x] if graph.incomparable(x, y)):
            for z in (z for z in pool if graph.less(z, y)):
                if not graph.edge(x, z):
                    hit("b", (x, y, z), "z <= y on an incomparable edge but {x, z} missing")
                elif not graph.incomparable(x, z):
                    hit("b", (x, y, z), "z <= y on an incomparable edge but x, z comparable")

    for x in (x for x in pool if x in sound):
        for y in star[x]:
            fy = graph.phi(x, y)
            if fy != y and not graph.less(y, x):
                hit("d", (x, y), f"phi_{x!r} moves {y!r}, which is not below {x!r}")
            if graph.mu(fy) != graph.mu(y):
                hit("f", (x, y), f"mu changes along phi_{x!r}: mu({y!r}) != mu({fy!r})")
            for z in star[x]:
                if graph.leq(z, y) != graph.leq(graph.phi(x, z), fy):
                    hit("c", (x, y, z), f"phi_{x!r} does not preserve the order on the star")
            if not (graph.less(y, x) and y in sound):
                continue
            for z in (z for z in pool if graph.less(z, y)):
                try:
                    lhs = graph.phi(x, graph.phi(y, z))
                    rhs = graph.phi(fy, graph.phi(x, z))
                except GraphError as e:
                    hit("g", (z, y, x), f"cannot evaluate the exchange identity: {e}")
                    continue
                if lhs != rhs:
                    hit("g", (z, y, x), f"phi_{x!r} . phi_{y!r} sends {z!r} to {lhs!r}, "
                                        f"the exchanged composite to {rhs!r}")
        m = graph.mu(x)
        if graph.finite and m != INFINITY and m % graph.phi_order(x):
            hit("e", (x,), f"phi_{x!r} has order {graph.phi_order(x)}, not a divisor of mu = {m}")
