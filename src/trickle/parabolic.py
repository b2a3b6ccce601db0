"""Parabolic subgraphs and the subgroups they generate.

A vertex subset is parabolic when each of its star maps stabilizes the
star inside the subset, in both directions.  The induced graph is then a
valid quadruple in its own right, its group embeds in the ambient one,
and membership is visible on normal forms: an element lies in the
subgroup iff every syllable of its normal form is on a subset vertex.  The
induced graph keeps the restriction of the ambient vertex ranking, so
normal forms agree syllable for syllable across the embedding.

Works over lazy ambient graphs too, as long as the subset itself is
finite.  Infinite subsets would need a closure argument we cannot check
by queries, so they are rejected.
"""

from __future__ import annotations

import reprlib

from .graph import GraphError, TrickleGraph
from .pilings import GroupElement


def _leak(graph, X):
    """The first "phi_x(y) = z" or "phi_x^-1(y) = z" with x in X, y in its
    star within X and z outside X, both walked in ranking order, or None;
    on an unsound star map, the text or its ``GraphError`` ignores the hash
    seed."""
    X = frozenset(X)
    unknown = [x for x in X if not graph.contains_vertex(x)]
    if unknown:
        raise GraphError(f"unknown vertex {reprlib.repr(min(unknown, key=repr))}")
    for x in sorted(X, key=graph.sort_key):
        star = (graph.star(x) & X if graph.finite
                else [y for y in X if y == x or graph.edge(x, y)])
        for y in sorted(star, key=graph.sort_key):
            for power, phi in (("", graph.phi), ("^-1", graph.phi_inv)):
                z = phi(x, y)
                if z not in X:
                    return f"phi_{reprlib.repr(x)}{power}({reprlib.repr(y)}) = {reprlib.repr(z)}"
    return None


def is_parabolic(graph, X) -> bool:
    """Does every star map of X stabilize its star within X?"""
    return _leak(graph, X) is None


def downward_closure(graph, X) -> frozenset:
    """Everything at or below X; always spans a parabolic subgraph."""
    if not graph.finite:
        raise GraphError("downward closure needs a finite graph")
    X = set(X)
    return frozenset(v for v in graph.vertices
                     if any(graph.leq(v, x) for x in X))


class ParabolicSubgraph:
    """A parabolic vertex subset of ``parent``, immutable; equal when the
    parent and the vertices are, whether or not the induced graph is built."""

    __slots__ = ("parent", "vertices", "_induced")

    def __init__(self, parent: TrickleGraph, vertices: frozenset):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_induced", [])

    def __setattr__(self, *a):
        raise AttributeError("ParabolicSubgraph is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.vertices) == (other.parent, other.vertices)

    def __hash__(self):
        return hash((self.parent, self.vertices))

    def __repr__(self):
        return f"ParabolicSubgraph(parent={self.parent!r}, vertices={self.vertices!r})"

    def graph(self) -> TrickleGraph:
        """The induced quadruple, ranked by the parent order."""
        if not self._induced:
            self._induced.append(_induce(self.parent, self.vertices))
        return self._induced[0]


def parabolic_subgraph(graph, X) -> ParabolicSubgraph:
    X = frozenset(X)
    leak = _leak(graph, X)
    if leak is not None:
        raise GraphError(f"subset is not parabolic: {leak} is outside it")
    return ParabolicSubgraph(graph, X)


def _induce(graph, X):
    """The graph on X: a finite graph's ``tables`` kept to X, a lazy
    graph's queried pair by pair."""
    if graph.finite:
        vertices, _, edges, less, phi = graph.tables()
        order = [x for x in vertices if x in X]
        edges = [(x, y) for x, y in edges if x in X and y in X]
        less = [(x, y) for x, y in less if x in X and y in X]
        phi = {x: {y: img for y, img in phi[x].items() if y in X} for x in order if x in phi}
    else:
        order = sorted(X, key=graph.sort_key)
        edges = [(x, y) for i, x in enumerate(order) for y in order[i + 1:]
                 if graph.edge(x, y)]
        less = [(x, y) for x in order for y in order if graph.less(x, y)]
        phi = {x: {y: graph.phi(x, y) for y in order if y == x or graph.edge(x, y)}
               for x in order}
    return TrickleGraph.build(order, {x: graph.mu(x) for x in order},
                              edges, less, phi, ranking=order,
                              name=f"{graph.name}|{{{len(order)} vertices}}",
                              parse_vertex=graph.parse_vertex,
                              format_vertex=graph.format_vertex)


def member(g: GroupElement, sub: ParabolicSubgraph) -> bool:
    """Is g in the subgroup generated by the subset vertices?"""
    return all(v in sub.vertices for v, _ in g.nf())


def intersect(p1: ParabolicSubgraph, p2: ParabolicSubgraph) -> ParabolicSubgraph:
    if p1.parent is not p2.parent:
        raise GraphError("parabolic subgraphs of different parents")
    return ParabolicSubgraph(p1.parent, p1.vertices & p2.vertices)
