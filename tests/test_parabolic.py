import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from trickle.dyadic import Dyadic
from trickle.families import FIXTURES, cactus, fixture
from trickle.graph import GraphError, TrickleGraph
from trickle.parabolic import (ParabolicSubgraph, downward_closure, intersect,
                               is_parabolic, member, parabolic_subgraph)
from trickle.pilings import element_from_text, from_syllables
from trickle.thompson import f_graph

A, B, C = "[1,3]", "[1,2]", "[2,3]"


@pytest.fixture(scope="module")
def j3():
    return cactus(3)


@pytest.fixture(scope="module")
def j4():
    return cactus(4)


def test_is_parabolic(j3):
    assert is_parabolic(j3, {B, C})          # pairwise incomparable
    assert not is_parabolic(j3, {A, B})      # the swap exits the subset
    assert is_parabolic(j3, set(j3.vertices))
    assert is_parabolic(j3, set())


def test_downward_closure(j3, j4):
    assert downward_closure(j3, {A}) == {A, B, C}
    assert downward_closure(j3, set()) == frozenset()
    assert downward_closure(j4, {"[1,2]"}) == {"[1,2]"}
    for X in ({A}, {B}, {A, C}):
        assert is_parabolic(j3, downward_closure(j3, X))


def test_constructor_rejects_non_parabolic(j3):
    with pytest.raises(GraphError):
        parabolic_subgraph(j3, {A, B})


def test_rejection_names_its_witness(j3):
    with pytest.raises(GraphError) as e:
        parabolic_subgraph(j3, {A, B})
    assert str(e.value) == "subset is not parabolic: phi_'[1,3]'('[1,2]') = '[2,3]' is outside it"
    # phi_t turns p -> q -> r: with q in X, the inverse image of p leaves it
    g = TrickleGraph.build(["t", "p", "q", "r"], 2, [("t", "p"), ("t", "q"), ("t", "r")],
                           [("p", "t"), ("q", "t"), ("r", "t")],
                           phi={"t": {"p": "q", "q": "r", "r": "p"}})
    with pytest.raises(GraphError, match=r"phi_'t'\^-1\('p'\) = 'r' is outside it$"):
        parabolic_subgraph(g, {"t", "p", "q"})
    long_id = "v" * 3000
    g = TrickleGraph.build(["x", long_id, "z"], 2, [("x", long_id), ("x", "z")],
                           phi={"x": {long_id: "z", "z": long_id}})
    with pytest.raises(GraphError) as e:
        parabolic_subgraph(g, {"x", long_id})
    assert len(str(e.value)) < 120


def test_rejection_text_ignores_the_hash_seed():
    # J4's star maps leave X at three (x, y); the first in ranking order is named
    code = ("from trickle.families import cactus\n"
            "from trickle.graph import GraphError\n"
            "from trickle.parabolic import parabolic_subgraph\n"
            "g = cactus(4)\n"
            "try:\n"
            "    parabolic_subgraph(g, {'[1,2]', '[1,3]', '[1,4]'})\n"
            "except GraphError as e:\n"
            "    print(e)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    answers = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
                              ).stdout for seed in range(6)}
    assert answers == {"subset is not parabolic: phi_'[1,3]'('[1,2]') = '[2,3]' is outside it\n"}


def test_member(j3):
    sub = parabolic_subgraph(j3, {B, C})
    assert member(element_from_text(j3, f"{B} {C}"), sub)
    assert not member(element_from_text(j3, A), sub)
    # a b a = c: inside
    assert member(element_from_text(j3, f"{A} {B} {A}"), sub)
    assert member(element_from_text(j3, ""), sub)


def test_intersect(j3):
    p1 = parabolic_subgraph(j3, {B, C})
    p2 = parabolic_subgraph(j3, {A, B, C})
    assert intersect(p1, p2).vertices == {B, C}
    p3 = parabolic_subgraph(j3, {B})
    assert intersect(p1, p3).vertices == {B}
    assert intersect(p3, parabolic_subgraph(j3, {C})).vertices == frozenset()
    # an equal graph built apart is another parent
    with pytest.raises(GraphError, match="^parabolic subgraphs of different parents$"):
        intersect(p1, parabolic_subgraph(cactus(3), {B, C}))


def test_induced_graph_is_valid(j4):
    from trickle.graph import validate
    sub = parabolic_subgraph(j4, downward_closure(j4, {"[1,4]"}))
    assert validate(sub.graph()).ok


def test_conservativity_of_normal_forms(j4):
    # words over the subset have one normal form, ambient or induced
    rng = random.Random(7)
    X = downward_closure(j4, {"[1,3]"})
    sub = parabolic_subgraph(j4, X)
    inner = sub.graph()
    pool = sorted(X)
    for _ in range(200):
        word = [(rng.choice(pool), 1) for _ in range(rng.randrange(7))]
        assert from_syllables(j4, word).nf() == from_syllables(inner, word).nf()


def test_subgroup_injectivity(j4):
    # distinct induced elements stay distinct in the ambient group
    rng = random.Random(8)
    X = downward_closure(j4, {"[2,4]"})
    inner = parabolic_subgraph(j4, X).graph()
    pool = sorted(X)
    elements = {}
    for _ in range(150):
        word = [(rng.choice(pool), 1) for _ in range(rng.randrange(6))]
        inside = from_syllables(inner, word)
        outside = from_syllables(j4, word)
        if inside in elements:
            assert elements[inside] == outside
        else:
            assert outside not in elements.values()
            elements[inside] = outside


def test_membership_meets_intersection(j4):
    rng = random.Random(9)
    p1 = parabolic_subgraph(j4, downward_closure(j4, {"[1,3]"}))
    p2 = parabolic_subgraph(j4, downward_closure(j4, {"[2,4]"}))
    both = intersect(p1, p2)
    for _ in range(200):
        word = [(rng.choice(j4.vertices), 1) for _ in range(rng.randrange(6))]
        g = from_syllables(j4, word)
        assert (member(g, p1) and member(g, p2)) == member(g, both)


def test_parabolic_over_lazy_graph():
    g = f_graph()
    X = {Dyadic(0), Dyadic(-1), Dyadic(1, 1)}
    closed = {Dyadic(0), Dyadic(-1), Dyadic(-2), Dyadic(-3)}
    # h_0 shifts the ladder below 0; this finite set is not stable
    assert not is_parabolic(g, X)
    sub = ParabolicSubgraph(g, frozenset(closed))
    elt = element_from_text(g, "0 -1")
    assert member(elt, sub)
    assert not member(element_from_text(g, "5"), sub)


def test_parabolic_subgraphs_are_values(j4):
    a = parabolic_subgraph(j4, {"[1,2]", "[2,3]", "[3,4]"})
    b = parabolic_subgraph(j4, {"[1,2]", "[1,4]", "[3,4]"})
    again = parabolic_subgraph(j4, list(a.vertices))
    assert a == again and hash(a) == hash(again) and a != b
    assert a != parabolic_subgraph(cactus(4), a.vertices)     # another parent
    assert a.__eq__(a.vertices) is NotImplemented
    assert intersect(a, b) == parabolic_subgraph(j4, a.vertices & b.vertices)
    assert len({a, again, b}) == 2
    with pytest.raises(AttributeError, match="ParabolicSubgraph is immutable"):
        a.vertices = frozenset()
    assert a.graph() is a.graph()
    # one vertex: a frozenset's print order depends on the hash seed
    assert repr(parabolic_subgraph(j4, {"[1,2]"})) == (
        "ParabolicSubgraph(parent=<TrickleGraph 'cactus(4)': 6 vertices>, "
        "vertices=frozenset({'[1,2]'}))")
    assert repr(f_graph()) == "<TrickleGraph 'thompson-f': lazy>"


def pairwise_is_parabolic(graph, X):
    """``is_parabolic`` by the walk over every pair of X."""
    return all(graph.phi(x, y) in X and graph.phi_inv(x, y) in X
               for x in X for y in X if y == x or graph.edge(x, y))


def pairwise_induce(graph, X):
    """The induced graph by the walk over every pair of X."""
    order = sorted(X, key=graph.sort_key)
    edges = [(x, y) for i, x in enumerate(order) for y in order[i + 1:] if graph.edge(x, y)]
    less = [(x, y) for x in order for y in order if graph.less(x, y)]
    phi = {x: {y: graph.phi(x, y) for y in order if y == x or graph.edge(x, y)}
           for x in order}
    return TrickleGraph.build(order, {x: graph.mu(x) for x in order}, edges, less, phi,
                              ranking=order)


def test_star_walk_matches_the_pairwise_walk():
    # every subset of every fixture of at most 10 vertices: the same
    # verdict, and for each parabolic one the same induced tables
    parabolic = 0
    for name in sorted(FIXTURES):
        g = fixture(name)
        if len(g.vertices) > 10:
            continue
        for r in range(len(g.vertices) + 1):
            for X in map(frozenset, itertools.combinations(g.vertices, r)):
                assert is_parabolic(g, X) == pairwise_is_parabolic(g, X), (name, X)
                if is_parabolic(g, X):
                    parabolic += 1
                    got = parabolic_subgraph(g, X).graph()
                    assert got.tables() == pairwise_induce(g, X).tables(), (name, X)
    assert parabolic == 420


def test_unsound_star_map_answers_alike_under_every_hash_seed():
    # phi_x sends y and z both to z; X and its stars are sets, walked in ranking order
    code = ("from trickle.graph import GraphError, TrickleGraph\n"
            "from trickle.parabolic import is_parabolic\n"
            "g = TrickleGraph.build('xyz', 2, [('x', 'y'), ('x', 'z'), ('y', 'z')],\n"
            "                       phi={'x': {'y': 'z', 'z': 'z'}})\n"
            "try:\n"
            "    print(is_parabolic(g, {'x', 'y'}))\n"
            "except GraphError as e:\n"
            "    print('error:', e)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    answers = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
                              ).stdout for seed in range(6)}
    assert answers == {"error: phi_'x' is not injective: 'y' and 'z' both map to 'z'\n"}
