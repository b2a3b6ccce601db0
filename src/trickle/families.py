"""Constructors for the stock example graphs.

graph_product     trivially ordered graphs: RAAGs, RACGs, and mixed
                  graph products of cyclic groups
cactus            intervals [p,q] inside [1,n], reversal star maps
dual_cactus_s3    the four-generator presentation x, y, z, u with
                  x u = u z, y u = u x, z u = u y  (CSTAR fixture)
gar3              minimal complete ordered fixture with one swap (GAR3)
affine_quandle_graph
                  dyadic rationals under x * y = (x + y) / 2, a lazy
                  complete totally ordered graph
"""

from __future__ import annotations

import reprlib

from .dyadic import Dyadic
from .graph import INFINITY, GraphError, TrickleGraph
from .thompson import f_graph
from .vjn import kjn_graph


def path_graph(n: int):
    if n < 1:
        raise GraphError("a path or cycle needs n >= 1")
    verts = [f"v{i}" for i in range(1, n + 1)]
    return verts, [(verts[i], verts[i + 1]) for i in range(n - 1)]


def cycle_graph(n: int):
    verts, edges = path_graph(n)
    if n > 2:
        edges.append((verts[-1], verts[0]))
    return verts, edges


def graph_product(vertices, edges, mu, name="graph product") -> TrickleGraph:
    """Graph product of cyclic groups: trivial order, identity star maps."""
    return TrickleGraph.build(vertices, mu, edges, less=(), phi=None, name=name)


def raag(vertices, edges, name="raag") -> TrickleGraph:
    return graph_product(vertices, edges, INFINITY, name=name)


def racg(vertices, edges, name="racg") -> TrickleGraph:
    return graph_product(vertices, edges, 2, name=name)


# ----------------------------------------------------------------------
# cactus


def interval_id(p: int, q: int) -> str:
    return f"[{p},{q}]"


def cactus(n: int) -> TrickleGraph:
    """Intervals [p,q], 1 <= p < q <= n; nested or disjoint intervals are
    adjacent, strict inclusion orders them, and the star map of [p,q]
    reflects nested intervals through its midpoint."""
    if n < 2:
        raise GraphError("cactus needs n >= 2")
    ivals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    ids = {iv: interval_id(*iv) for iv in ivals}

    def nested(a, b):   # a strictly inside b
        return a != b and b[0] <= a[0] and a[1] <= b[1]

    def disjoint(a, b):
        return a[1] < b[0] or b[1] < a[0]

    edges = [(ids[a], ids[b]) for i, a in enumerate(ivals) for b in ivals[i + 1:]
             if nested(a, b) or nested(b, a) or disjoint(a, b)]
    less = [(ids[a], ids[b]) for a in ivals for b in ivals if nested(a, b)]
    phi = {ids[p, q]: {ids[m, r]: ids[p + q - r, p + q - m]
                       for m, r in ivals if nested((m, r), (p, q))} for p, q in ivals}
    return TrickleGraph.build([ids[iv] for iv in ivals], 2, edges, less, phi,
                              name=f"cactus({n})")


# ----------------------------------------------------------------------
# small fixtures


def dual_cactus_s3() -> TrickleGraph:
    """Four generators over the symmetric group on three letters: u has
    order three and conjugation by u cycles x -> y -> z -> x."""
    verts = ["x", "y", "z", "u"]
    mu = {"x": 2, "y": 2, "z": 2, "u": 3}
    edges = [("x", "u"), ("y", "u"), ("z", "u")]
    less = [("x", "u"), ("y", "u"), ("z", "u")]
    phi = {"u": {"z": "x", "x": "y", "y": "z"}}
    return TrickleGraph.build(verts, mu, edges, less, phi, name="cstar")


def gar3() -> TrickleGraph:
    """Complete graph on x, y, z with y, z below x and phi_x swapping y, z.

    All labels infinite, so this is the smallest interesting Garside
    fixture: x y = z x and y z = z y.
    """
    verts = ["x", "y", "z"]
    edges = [("x", "y"), ("x", "z"), ("y", "z")]
    less = [("y", "x"), ("z", "x")]
    phi = {"x": {"y": "z", "z": "y"}}
    return TrickleGraph.build(verts, INFINITY, edges, less, phi, name="gar3")


# ----------------------------------------------------------------------
# ordered quandle on the dyadics


def _quandle_phi_pow(x: Dyadic, a: int, y: Dyadic) -> Dyadic:
    """phi_x^a(y) = x - (x - y) / 2**a: a averagings of y toward x."""
    return x - (x - y).scaled(-a) if y <= x else y


def affine_quandle_graph() -> TrickleGraph:
    """Lazy complete graph on the dyadic rationals, totally ordered, with
    phi_x averaging everything below x toward x."""
    return TrickleGraph.lazy(
        mu=INFINITY,
        phi_pow=_quandle_phi_pow,
        contains=lambda v: isinstance(v, Dyadic),
        parse_vertex=Dyadic.parse,
        format_vertex=str,
        name="affine-quandle",
    )


# ----------------------------------------------------------------------
# fixture registry (tests, scripts and the CLI share these)


FIXTURES = {
    "J2": lambda: cactus(2),
    "J3": lambda: cactus(3),
    "J4": lambda: cactus(4),
    "J5": lambda: cactus(5),
    "GAR3": gar3,
    "CSTAR": dual_cactus_s3,
    "RACG-P6": lambda: racg(*path_graph(6), name="racg-p6"),
    "RACG-C6": lambda: racg(*cycle_graph(6), name="racg-c6"),
    "RAAG-P6": lambda: raag(*path_graph(6), name="raag-p6"),
    "RAAG-C6": lambda: raag(*cycle_graph(6), name="raag-c6"),
    "KJ2": lambda: kjn_graph(2),
    "KJ3": lambda: kjn_graph(3),
    "KJ4": lambda: kjn_graph(4),
}

LAZY_FIXTURES = {
    "QUANDLE": affine_quandle_graph,
    "F": f_graph,
}


def fixture(name: str) -> TrickleGraph:
    key = name.upper()
    if key in FIXTURES:
        return FIXTURES[key]()
    if key in LAZY_FIXTURES:
        return LAZY_FIXTURES[key]()
    raise GraphError(f"unknown fixture {reprlib.repr(name)}; known: {', '.join(sorted(FIXTURES) + sorted(LAZY_FIXTURES))}")
