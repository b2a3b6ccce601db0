import random

import pytest

from trickle.dyadic import Dyadic
from trickle.families import (FIXTURES, affine_quandle_graph, cactus, cycle_graph,
                              dual_cactus_s3, fixture, gar3, graph_product,
                              interval_id, path_graph, raag, racg)
from trickle.graph import GraphError, INFINITY, validate
from trickle.pilings import element_from_text, from_syllables, is_finite


def test_graph_product_examples():
    g = racg(*path_graph(3))
    assert validate(g).ok
    assert g.mu("v1") == 2
    assert not any(g.less(x, y) for x in g.vertices for y in g.vertices)
    r = raag(*cycle_graph(4))
    assert validate(r).ok and r.mu("v1") == INFINITY
    single = graph_product(["x"], [], 5)
    ans = is_finite(single)
    assert ans.finite and ans.order == 5


def test_path_and_cycle_need_a_vertex():
    assert path_graph(1) == (["v1"], [])
    assert cycle_graph(1) == (["v1"], [])
    for n in (0, -1):
        with pytest.raises(GraphError):
            path_graph(n)
        with pytest.raises(GraphError):
            cycle_graph(n)


def test_graph_product_rejects_small_mu():
    with pytest.raises(GraphError):
        graph_product(["x"], [], 1)


def test_cactus_structure():
    j3 = cactus(3)
    assert len(j3.vertices) == 3
    edges = [(x, y) for i, x in enumerate(j3.vertices) for y in j3.vertices[i + 1:]
             if j3.edge(x, y)]
    assert len(edges) == 2
    assert validate(j3).ok
    with pytest.raises(GraphError):
        cactus(1)


def test_cactus_two_is_order_two():
    j2 = cactus(2)
    assert len(j2.vertices) == 1
    ans = is_finite(j2)
    assert ans.finite and ans.order == 2


def test_cactus_palindromic_interval_fixed():
    j4 = cactus(4)
    assert j4.phi("[1,4]", "[2,3]") == "[2,3]"
    assert j4.phi("[1,4]", "[1,2]") == "[3,4]"
    # the reflected relation degenerates to commutation here
    assert (element_from_text(j4, "[1,4] [2,3]")
            == element_from_text(j4, "[2,3] [1,4]"))


def test_cactus_defining_relations():
    for n in (3, 4):
        jn = cactus(n)
        ivals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
        for p, q in ivals:
            assert from_syllables(jn, [(interval_id(p, q), 1)] * 2).is_identity
            for m, r in ivals:
                a, b = interval_id(p, q), interval_id(m, r)
                if q < m or r < p:
                    assert (element_from_text(jn, f"{a} {b}")
                            == element_from_text(jn, f"{b} {a}"))
                elif p <= m and r <= q and (p, q) != (m, r):
                    c = interval_id(p + q - r, p + q - m)
                    assert (element_from_text(jn, f"{a} {b}")
                            == element_from_text(jn, f"{c} {a}"))


def test_dual_cactus_s3():
    cs = dual_cactus_s3()
    assert validate(cs).ok
    assert element_from_text(cs, "x u") == element_from_text(cs, "u z")
    assert element_from_text(cs, "y u") == element_from_text(cs, "u x")
    assert element_from_text(cs, "z u") == element_from_text(cs, "u y")
    assert not is_finite(cs).finite
    assert from_syllables(cs, [("u", 1)] * 3).is_identity
    # conjugation by u cycles the involutions
    for a, b in (("x", "y"), ("y", "z"), ("z", "x")):
        lhs = element_from_text(cs, f"u {a} u^-1")
        assert lhs == element_from_text(cs, b)


def test_gar3():
    g = gar3()
    assert validate(g).ok
    assert element_from_text(g, "z x") == element_from_text(g, "x y")
    assert element_from_text(g, "y z") == element_from_text(g, "z y")
    assert not is_finite(g).finite


def test_affine_quandle():
    q = affine_quandle_graph()
    one, zero, half = Dyadic(1), Dyadic(0), Dyadic(1, 1)
    assert q.phi(one, zero) == half
    assert q.phi_inv(one, half) == zero
    assert q.phi(half, one) == one           # identity above the base
    assert q.phi(one, one) == one
    assert q.mu(one) == INFINITY


def test_quandle_phi_pow_matches_iterated_averaging():
    q = affine_quandle_graph()
    rng = random.Random(9)
    for _ in range(200):
        x, y = (Dyadic(rng.randint(-500, 500), rng.randint(0, 6)) for _ in range(2))
        up = down = y
        for a in range(1, 25):
            # below x, phi_x averages toward x and its inverse doubles away
            up = Dyadic.mid(up, x) if y <= x else up
            down = down.double() - x if y <= x else down
            assert q.phi_pow(x, a, y) == up
            assert q.phi_pow(x, -a, y) == down


def test_fixture_registry():
    assert fixture("j3").name == "cactus(3)"
    assert fixture("KJ3").name == "kj3"
    with pytest.raises(GraphError):
        fixture("nope")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_each_fixture_call_builds_a_graph_of_its_own(name):
    # a shared graph would share its kernel and step table with every caller
    g, h = fixture(name), fixture(name)
    assert g is not h and g.kernel() is not h.kernel()
    assert g.vertices == h.vertices
