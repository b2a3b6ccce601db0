"""Positive elements and the divisibility structure of torsion-free graphs.

When every mu is infinite, the presentation is homogeneous and the
positive words form a monoid that embeds in the group.  Positivity is
visible on the canonical piling (no negative exponents), left and
right divisibility reduce to positivity of a quotient, and the right
atom divisors are the left ones in the dual graph through word
reversal.  On a finite complete graph the descending product of all
vertices is a Garside element: its left and right divisor sets coincide
and are exactly the square-free elements, the descending products of
distinct vertices, one per vertex subset.

``lcm_bruteforce`` is a deliberately naive enumeration oracle for least
common right-multiples; it exists to cross-check the structural results
at desk scale, not to be fast.
"""

from __future__ import annotations

import itertools
import reprlib

from .graph import INFINITY, GraphError, Violation, ValidationReport
from .pilings import GroupElement, from_syllables, stratum_extract


def is_pregarside(graph) -> bool:
    """Every vertex label infinite."""
    if graph.finite:
        return all(graph.mu(v) == INFINITY for v in graph.vertices)
    return graph._mu_constant == INFINITY


def _require_pregarside(graph):
    if not is_pregarside(graph):
        raise GraphError("this operation needs every mu infinite")


def is_positive(g: GroupElement) -> bool:
    """No negative exponent in the normal form."""
    _require_pregarside(g.graph)
    return all(a > 0 for U in g.piling for _, a in U)


def _as_positive(g):
    if not is_positive(g):
        raise GraphError(f"{reprlib.repr(g)} is not positive")
    return g


def letter_length(g: GroupElement) -> int:
    """Word length of a positive element; additive under products."""
    _as_positive(g)
    return sum(abs(a) for U in g.piling for _, a in U)


def left_divides(a: GroupElement, b: GroupElement) -> bool:
    _require_pregarside(a.graph)
    return is_positive(a.inverse() * b)


def _reversed_in_dual(g: GroupElement) -> GroupElement:
    dual = g.graph.dual()
    return from_syllables(dual, [(v, e) for v, e in reversed(g.nf())])


def right_divides(a: GroupElement, b: GroupElement) -> bool:
    """There is a positive c with c a = b, that is, b a^-1 is positive."""
    _require_pregarside(a.graph)
    return is_positive(b * a.inverse())


def atom_left_divisors(g: GroupElement) -> frozenset:
    """Vertices dividing the positive g on the left.

    These are read off the first stratum of the canonical piling: each
    syllable, conjugated past the syllables above it, contributes its
    vertex.
    """
    _as_positive(g)
    U = g.piling[0] if g.piling else ()
    return frozenset(stratum_extract(g.graph, U, s)[0] for s in U)


def atom_right_divisors(g: GroupElement) -> frozenset:
    return atom_left_divisors(_reversed_in_dual(g))


def _require_finite_complete(graph):
    _require_pregarside(graph)
    if not (graph.finite and graph.complete()):
        raise GraphError("this operation needs a finite complete graph")


def square_free(graph) -> list:
    """All 2**n descending products of distinct vertices: an oracle, off user paths."""
    _require_finite_complete(graph)
    desc = graph.vertices[::-1]
    return [from_syllables(graph, [(v, 1) for v in combo])
            for r in range(len(desc) + 1) for combo in itertools.combinations(desc, r)]


def garside_element(graph) -> GroupElement:
    """The descending product of all the vertices."""
    _require_finite_complete(graph)
    return from_syllables(graph, [(v, 1) for v in reversed(graph.vertices)])


def lcm_atoms(graph, X) -> GroupElement:
    """The square-free element whose atom left divisors are exactly X."""
    X = list(X)
    for v in X:
        if not graph.contains_vertex(v):
            raise GraphError(f"unknown vertex {reprlib.repr(v)}")
    _require_finite_complete(graph)
    X = frozenset(X)
    # The atoms of Delta_S, the descending product of S, are its top x and phi_x
    # of those of Delta_{S-x}, which axioms (c) and (d) keep ranked below x: so x
    # tops X, and S-x has the atoms phi_x^-1 of the rest.
    S, rest = [], set(X)
    while rest:
        x = max(rest, key=graph.sort_key)
        S.append(x)
        rest = {graph.phi_inv(x, z) for z in rest if z != x}
    g = from_syllables(graph, [(v, 1) for v in sorted(S, key=graph.sort_key, reverse=True)])
    if atom_left_divisors(g) != X:
        raise GraphError(f"no square-free element has atom divisor set {sorted(map(str, X))}")
    return g


def positive_elements_of_length(graph, length: int) -> set:
    """All positive elements of the given word length (finite graphs)."""
    _require_pregarside(graph)
    if not graph.finite:
        raise GraphError("enumeration needs a finite graph")
    layer = {GroupElement.identity(graph)}
    gens = [from_syllables(graph, [(v, 1)]) for v in graph.vertices]
    for _ in range(length):
        layer = {g * x for g in layer for x in gens}
    return layer


def lcm_bruteforce(a: GroupElement, b: GroupElement, max_len: int):
    """Least common right-multiple of two positive elements, by search.

    Enumerates positive elements by word length; every common upper bound
    of minimal length equals the least one, so the first nonempty batch
    is checked for agreement and returned.  None when nothing is found
    up to max_len.
    """
    graph = a.graph
    start = max(letter_length(a), letter_length(b))
    for length in range(start, max_len + 1):
        bounds = [c for c in positive_elements_of_length(graph, length)
                  if left_divides(a, c) and left_divides(b, c)]
        if bounds:
            first = bounds[0]
            if any(c != first for c in bounds):
                raise GraphError("distinct minimal common upper bounds; no least element")
            return first
    return None


# ----------------------------------------------------------------------
# the local cube condition on the partial complement


def theta_cube_check(graph) -> ValidationReport:
    """Check the local coherence of the complement x * y = phi_y(x).

    For pairwise-distinct triples, (z*x)*(y*x) and (z*y)*(x*y) must both
    be defined exactly when the triple spans a triangle, and then agree.
    Witnesses of either failure are reported.
    """
    if not graph.finite:
        raise GraphError("the cube check needs a finite graph")
    trivial = object()   # the trivial word; None encodes "undefined"

    def star_op(u, v):
        if u is trivial or v is trivial:
            return u
        if u == v:
            return trivial
        if not graph.edge(u, v):
            return None
        return graph.phi(v, u)

    def nested(u, v, w, t):
        a = star_op(u, v)
        b = star_op(w, t)
        if a is None or b is None:
            return None
        return star_op(a, b)

    def show(w):
        return "1" if w is trivial else repr(w)

    report = ValidationReport()
    for x, y, z in itertools.permutations(graph.vertices, 3):
        left = nested(z, x, y, x)
        right = nested(z, y, x, y)
        triangle = graph.edge(x, y) and graph.edge(x, z) and graph.edge(y, z)
        if (left is not None) != triangle or (right is not None) != triangle:
            report.violations.append(Violation(
                "cube-definedness", (x, y, z),
                "one side of the cube is defined without a full triangle"))
        elif left is not None and left != right:
            report.violations.append(Violation(
                "cube-coherence", (x, y, z),
                f"the two complements disagree: {show(left)} vs {show(right)}"))
    return report


def is_garside(graph) -> bool:
    """A torsion-free graph presents a Garside monoid iff it is finite
    and complete."""
    _require_pregarside(graph)
    return graph.finite and graph.complete()
