import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrupt import BROKEN
from trickle.dyadic import Dyadic
from trickle.families import (affine_quandle_graph, cactus, dual_cactus_s3,
                              fixture, gar3, FIXTURES, LAZY_FIXTURES)
from trickle.confluence import ConfluenceReport
from trickle.graph import (GraphError, INFINITY, LAZY_POWER_CAP, TrickleGraph, ValidationReport,
                           Violation, spot_check, validate)
from trickle.thompson import TOP, f_graph
from trickle.vjn import vjn_encode


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_all_fixtures_validate(name):
    assert validate(fixture(name)).ok


@pytest.mark.parametrize("axiom", sorted(BROKEN))
def test_broken_fixtures_rejected(axiom, max_other=0):
    report = validate(BROKEN[axiom]())
    assert report.axioms_violated() == [axiom]


def test_identity_phi_passes_axioms():
    # forcing every star map to the identity never breaks (a)-(g)
    j3 = cactus(3)
    g = TrickleGraph.build(
        j3.vertices, {v: 2 for v in j3.vertices},
        [(x, y) for i, x in enumerate(j3.vertices) for y in j3.vertices[i + 1:]
         if j3.edge(x, y)],
        [(x, y) for x in j3.vertices for y in j3.vertices if j3.less(x, y)])
    assert validate(g).ok


def test_structural_error_reported_before_axioms():
    g = TrickleGraph.build(["x", "y", "z"], INFINITY,
                           edges=[("x", "y"), ("x", "z")],
                           phi={"x": {"y": "z", "z": "z"}})
    report = validate(g)
    assert "structure" in report.axioms_violated()


def test_less_cycle_rejected():
    with pytest.raises(GraphError, match="cycle"):
        TrickleGraph.build(["a", "b"], 2, [("a", "b")], [("a", "b"), ("b", "a")])


@pytest.mark.parametrize("phi, mu", [({"w": {}}, 2), ({"x": {"y": "w"}}, 2),
                                     (None, {"x": 2})],
                         ids=["phi-key", "phi-image", "mu-missing"])
def test_build_rejects_data_naming_no_vertex(phi, mu):
    with pytest.raises(GraphError, match="unknown vertex|no label"):
        TrickleGraph.build(["x", "y"], mu, [("x", "y")], phi=phi)


LONG = "v" * 10_000


@pytest.mark.parametrize("vertices, edges, less", [
    (["x"], [("x", LONG)], []),
    (["x"], [], [(LONG, "x")]),
    (["x", LONG], [(LONG, LONG)], []),
    (["x", LONG], [("x", LONG)], [("x", LONG), (LONG, "x")]),
], ids=["edge", "order-pair", "self-loop", "cycle"])
def test_build_messages_echo_a_bounded_excerpt(vertices, edges, less):
    with pytest.raises(GraphError) as info:
        TrickleGraph.build(vertices, 2, edges, less)
    assert len(str(info.value)) <= 300


def test_transitive_closure_of_covering_pairs():
    g = TrickleGraph.build(["a", "b", "c"], 2,
                           [("a", "b"), ("b", "c"), ("a", "c")],
                           [("a", "b"), ("b", "c")])
    assert g.less("a", "c")


def test_ranking_extends_order():
    for name in FIXTURES:
        g = fixture(name)
        for x in g.vertices:
            for y in g.vertices:
                if g.less(x, y):
                    assert g.sort_key(x) < g.sort_key(y)


def test_ranking_override_must_extend_order():
    g = gar3()
    reranked = g.with_ranking(["z", "y", "x"])
    assert reranked.vertices == ("z", "y", "x")
    with pytest.raises(GraphError, match="linear extension"):
        g.with_ranking(["x", "y", "z"])
    with pytest.raises(GraphError, match="permutation"):
        g.with_ranking(["x", "y"])


# ----------------------------------------------------------------------
# phi powers


def test_phi_pow_examples():
    g = gar3()
    assert g.phi_pow("x", 2, "y") == "y"
    assert g.phi_pow("x", -1, "y") == "z"
    assert g.phi_pow("x", 0, "y") == "y"
    assert g.phi_pow("x", 7, "z") == "y"


def test_phi_pow_outside_star():
    j3 = cactus(3)
    with pytest.raises(GraphError):
        j3.phi("[1,2]", "[2,3]")
    with pytest.raises(GraphError):
        j3.phi_pow("[1,2]", 2, "[2,3]")   # 2 is a multiple of the order of phi_[1,2]


def test_phi_pow_follows_a_map_that_moves_its_base():
    # phi_x(x) = y breaks (d), but the queries must still agree
    g = TrickleGraph.build(["x", "y"], INFINITY, [("x", "y")], phi={"x": {"x": "y", "y": "x"}})
    assert g.phi_pow("x", 1, "x") == g.phi("x", "x") == "y"
    assert g.phi_inv("x", "y") == "x"


def test_phi_queries_on_an_unknown_vertex():
    g = gar3()
    for query in (lambda: g.phi_pow("w", 1, "x"), lambda: g.phi_inv("w", "x"),
                  lambda: g.phi_order("w"), lambda: g.phi("w", "x")):
        with pytest.raises(GraphError):
            query()


def test_lazy_phi_pow_past_the_cap():
    g = f_graph()
    with pytest.raises(GraphError):
        g.phi_pow(Dyadic(0), LAZY_POWER_CAP + 1, Dyadic(-1, 1))


def test_phi_inv_undoes_phi_everywhere():
    for name in FIXTURES:
        base = fixture(name)
        for g in (base, base.dual()):
            for x in g.vertices:
                n = 2 * g.phi_order(x) + 1
                for y in g.star(x):
                    assert g.phi_inv(x, g.phi(x, y)) == y
                    # phi_pow agrees with iterated phi / phi_inv
                    up = down = y
                    for a in range(1, n + 1):
                        up, down = g.phi(x, up), g.phi_inv(x, down)
                        assert g.phi_pow(x, a, y) == up
                        assert g.phi_pow(x, -a, y) == down


def test_phi_pow_exchange_identity_on_chains():
    # phi_x^a . phi_y^b = phi_{phi_x^a(y)}^b . phi_x^a below y, for all chains
    rng = random.Random(1)
    for name in ("J4", "GAR3", "CSTAR", "KJ3"):
        g = fixture(name)
        chains = [(z, y, x) for x in g.vertices for y in g.vertices for z in g.vertices
                  if g.leq(z, y) and g.leq(y, x)]
        for z, y, x in chains:
            for _ in range(4):
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                lhs = g.phi_pow(x, a, g.phi_pow(y, b, z))
                rhs = g.phi_pow(g.phi_pow(x, a, y), b, g.phi_pow(x, a, z))
                assert lhs == rhs


# ----------------------------------------------------------------------
# dual graphs


def test_dual_involution():
    g = gar3()
    assert g.dual().dual().same_structure(g)


def test_dual_of_involutive_maps_is_itself():
    j3 = cactus(3)
    assert j3.dual().same_structure(j3)


def test_dual_cstar_inverts_the_cycle():
    d = dual_cactus_s3().dual()
    assert d.phi("u", "x") == "z"
    assert d.phi("u", "z") == "y"
    assert d.phi("u", "y") == "x"
    assert validate(d).ok


def test_dual_refuses_an_unsound_star_map():
    with pytest.raises(GraphError, match="not injective"):
        NOT_INJECTIVE.dual()


def test_dual_keeps_an_explicit_ranking():
    d = gar3().with_ranking(["z", "y", "x"]).dual()
    assert d.vertices == ("z", "y", "x")
    assert d.phi("x", "y") == "z"


def test_lazy_dual_swaps_the_star_maps():
    g = f_graph()
    d = g.dual()
    assert d.dual() is g
    x, y = Dyadic(0), Dyadic(-1, 1)
    assert d.phi(x, y) == g.phi_inv(x, y)
    assert d.phi_inv(x, y) == g.phi(x, y)


@pytest.mark.parametrize("name", sorted(LAZY_FIXTURES))
def test_lazy_dual_negates_the_exponent(name):
    g = fixture(name)
    d = g.dual()
    rng = random.Random(4)
    for _ in range(50):
        x, y = (_random_lazy_vertex(name, rng) for _ in range(2))
        for a in (1, -1, 2, -3, 17, -40):
            assert d.phi_pow(x, a, y) == g.phi_pow(x, -a, y)


def test_lazy_graphs_have_no_tables():
    for query in (lambda g: g.tables(), lambda g: g.with_ranking([TOP])):
        with pytest.raises(GraphError):
            query(f_graph())


def _small_graphs():
    for name in sorted(FIXTURES):
        yield name, fixture(name)
        yield f"dual({name})", fixture(name).dual()
    for axiom in sorted(BROKEN):
        yield f"broken-{axiom}", BROKEN[axiom]()


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _small_graphs()])
def test_build_from_tables_rebuilds_the_graph(g):
    vertices, mu, edges, less, phi = g.tables()
    h = TrickleGraph.build(vertices, mu, edges, less, phi, ranking=g.vertices)
    assert h.same_structure(g)
    assert len(edges) == len({frozenset(e) for e in edges})
    for x in g.vertices:
        assert h.mu(x) == g.mu(x) and h.star(x) == g.star(x)
        assert all(h.phi(x, y) == g.phi(x, y) for y in g.star(x))
        assert all(h.less(x, y) == g.less(x, y) for y in g.vertices)


# ----------------------------------------------------------------------
# spot checks on lazy graphs


def test_spot_check_thompson_chain():
    g = f_graph()
    report = spot_check(g, [(Dyadic(-1, 2), Dyadic(0), Dyadic(1)),
                            (Dyadic(-1, 2), Dyadic(0), TOP)])
    assert report.ok and report.checked == 2


def test_spot_check_quandle_chain():
    g = affine_quandle_graph()
    assert spot_check(g, [(Dyadic(0), Dyadic(1, 1), Dyadic(1))]).ok


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _small_graphs()
                               if len(g.vertices) <= 12])
def test_spot_check_on_every_triple_agrees_with_validate(g):
    full = validate(g)
    assert "structure" not in full.axioms_violated()
    sampled = spot_check(g, itertools.combinations(g.vertices, 3))
    assert sampled.axioms_violated() == full.axioms_violated()


# edge and order of each lazy fixture written out per family: the
# reference the chain queries (x != y, the vertices' own <) must match
LAZY_REFERENCE = {
    "F": (lambda x, y: x != y, lambda x, y: x is not TOP and (y is TOP or x < y)),
    "QUANDLE": (lambda x, y: x != y, lambda x, y: x < y),
}


def _random_lazy_vertex(name, rng):
    if name == "F" and rng.random() < 0.1:
        return TOP
    return Dyadic(rng.randint(-40, 40), rng.randint(0, 5))


@pytest.mark.parametrize("name", sorted(LAZY_REFERENCE))
def test_lazy_queries_match_the_reference_callables(name):
    graphs = (fixture(name), fixture(name).dual())
    edge_fn, less_fn = LAZY_REFERENCE[name]
    rng = random.Random(12)
    for _ in range(2000):
        x, y = (_random_lazy_vertex(name, rng) for _ in range(2))
        if rng.random() < 0.1:
            y = x
        less = x != y and less_fn(x, y)
        more = x != y and less_fn(y, x)
        for g in graphs:
            assert g.edge(x, y) == (x != y and edge_fn(x, y))
            assert g.less(x, y) == less
            assert g.leq(x, y) == (x == y or less)
            assert g.incomparable(x, y) == (x != y and not less and not more)


@pytest.mark.parametrize("name", sorted(LAZY_REFERENCE))
def test_spot_check_random_triples(name):
    g = fixture(name)
    rng = random.Random(300)
    triples = [tuple(_random_lazy_vertex(name, rng) for _ in range(3)) for _ in range(300)]
    report = spot_check(g, triples)
    assert report.ok and report.checked == 300


NOT_INJECTIVE = TrickleGraph.build(["x", "y", "z"], INFINITY, edges=[("x", "y"), ("x", "z")],
                                   phi={"x": {"y": "z", "z": "z"}})
BREAKS_ADJACENCY = TrickleGraph.build(     # phi_x swaps z and w, but only y-z is an edge
    ["x", "y", "z", "w"], INFINITY,
    edges=[("x", "y"), ("x", "z"), ("x", "w"), ("y", "z")],
    less=[("y", "x"), ("z", "x"), ("w", "x")],
    phi={"x": {"z": "w", "w": "z"}})


@pytest.mark.parametrize("g", [NOT_INJECTIVE, BREAKS_ADJACENCY], ids=["not-injective", "adjacency"])
def test_spot_check_reports_unsound_star_maps(g):
    assert "structure" in validate(g).axioms_violated()
    report = spot_check(g, [("x", "y", "z")])
    assert "structure" in report.axioms_violated()


def test_spot_check_lists_each_witness_once():
    # a < b without an edge shows on three triples but is one witness
    g = TrickleGraph.build(["a", "b", "c", "d", "e"], INFINITY, [("c", "d")], [("a", "b")])
    full = validate(g)
    assert [v.witness for v in full.violations] == [("a", "b")]
    assert spot_check(g, itertools.combinations(g.vertices, 3)).violations == full.violations


def _quandle_breaking_the_power_law():
    """The quandle's phi and phi_inv, but phi_pow at |a| >= 2 is one step short."""
    q = affine_quandle_graph()

    def phi_pow(x, a, y):
        return q.phi_pow(x, a if abs(a) < 2 else a - (a > 0) + (a < 0), y)
    return TrickleGraph.lazy(mu=INFINITY, phi_pow=phi_pow, contains=q.contains_vertex,
                             name="short powers")


def test_spot_check_samples_the_power_law():
    g = _quandle_breaking_the_power_law()
    x, y, z = Dyadic(0), Dyadic(1, 1), Dyadic(1)
    assert g.phi(z, x) == affine_quandle_graph().phi(z, x)
    report = spot_check(g, [(x, y, z)])
    assert report.axioms_violated() == ["structure"]
    assert (z, x) in [v.witness for v in report.violations]
    assert any("is not phi_" in v.detail for v in report.violations)


def test_spot_check_reports_a_phi_inv_that_does_not_undo_phi():
    q = affine_quandle_graph()
    g = TrickleGraph.lazy(mu=INFINITY, phi_pow=lambda x, a, y: q.phi_pow(x, abs(a), y),
                          contains=q.contains_vertex, name="no inverse")
    x, y, z = Dyadic(0), Dyadic(1, 1), Dyadic(1)
    report = spot_check(g, [(x, y, z)])
    assert report.describe().splitlines() == [
        f"structural error at {(y, x)}: phi_inv does not undo phi",
        f"structural error at {(z, x)}: phi_inv does not undo phi",
        f"structural error at {(z, y)}: phi_inv does not undo phi"]
    with pytest.raises(GraphError, match="^'x' is not a vertex of no inverse$"):
        spot_check(g, [(x, y, "x")])


def test_spot_check_vacuous():
    report = spot_check(f_graph(), [])
    assert report.ok
    assert report.describe() == "valid (vacuous)"


def test_records_compare_by_fields_and_print_them():
    report = ValidationReport()
    assert (report.violations, report.checked) == ([], None)
    assert ValidationReport().violations is not report.violations
    assert repr(report) == "ValidationReport(violations=[], checked=None)"
    v = Violation("a", ("y", "x"), "no edge")
    report = ValidationReport([v], checked=3)
    assert repr(report) == ("ValidationReport(violations=[Violation(axiom='a', "
                            "witness=('y', 'x'), detail='no edge')], checked=3)")
    assert report == ValidationReport([v], 3) and report != ValidationReport([v], 4)
    report.checked = 4
    assert report == ValidationReport([v], 4)

    conf = ConfluenceReport()
    assert (conf.pairs_checked, conf.failures, conf.samples_checked,
            conf.sample_failures) == (0, [], 0, [])
    assert ConfluenceReport().failures is not conf.failures
    conf.samples_checked = 5
    assert repr(conf) == ("ConfluenceReport(pairs_checked=0, failures=[], samples_checked=5, "
                          "sample_failures=[])")
    assert conf == ConfluenceReport(samples_checked=5) != ConfluenceReport(pairs_checked=5)
    for unhashable in (report, conf):
        with pytest.raises(TypeError):
            hash(unhashable)

    e = vjn_encode(3, "x[1,3] r1")
    assert repr(e) == "VjnElement(kernel=<element (1,2,3)>, perm=(2, 1, 3))"
    assert (e.kernel, e.perm) == (vjn_encode(3, "x[1,3]").kernel, (2, 1, 3))
    assert e == vjn_encode(3, "x[1,3] r2 r2 r1") != vjn_encode(3, "x[1,3]")
    assert hash(e) == hash((e.kernel, e.perm))
    with pytest.raises(AttributeError):
        e.perm = (1, 2, 3)


def test_validate_refuses_lazy():
    with pytest.raises(GraphError):
        validate(f_graph())


# ----------------------------------------------------------------------
# misc properties


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_graph_product_phi_trivial(a, b):
    g = gar3()
    # phi_y and phi_z are identities; only phi_x acts
    assert g.phi_pow("y", a, "x") == "x"
    assert g.phi_pow("z", b, "x") == "x"


def test_star_contents():
    j3 = cactus(3)
    assert j3.star("[1,3]") == {"[1,2]", "[2,3]", "[1,3]"}
    assert j3.star("[1,2]") == {"[1,2]", "[1,3]"}


def test_phi_order():
    assert dual_cactus_s3().phi_order("u") == 3
    assert gar3().phi_order("x") == 2
    assert gar3().phi_order("y") == 1
