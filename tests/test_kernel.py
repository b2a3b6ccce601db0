"""The integer kernel of finite graphs against the step on vertex names.

The reference route is ``_halves(graph, strata, _step, {})``: the same
driver, with the pair step that queries the graph by vertex name.
``normalize`` and ``from_syllables`` run on the kernel and must give the
same pilings and raise the same errors.
"""

import random
import reprlib

import pytest

from corrupt import BROKEN
from trickle.confluence import random_piling
from trickle.families import FIXTURES, fixture
from trickle.graph import INFINITY, GraphError, TrickleGraph
from trickle.pilings import (_LEAF, _halves, _step, canonical_exponent, from_syllables,
                             normalize)
from trickle.thompson import f_graph
from trickle.vjn import kjn_graph

LETTERS = (1, 50, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 800)


def reference_normalize(graph, piling):
    return _halves(graph, [U for U in piling if U], _step, {})


def reference_from_syllables(graph, pairs):
    strata = []
    for v, k in pairs:
        if not graph.contains_vertex(v):
            raise GraphError(f"unknown vertex {reprlib.repr(v)}")
        c = canonical_exponent(graph, v, k)
        if c:
            strata.append(((v, c),))
    return reference_normalize(graph, strata)


def outcome(fn, *args):
    try:
        return fn(*args)
    except GraphError as e:
        return f"GraphError: {e}"


def random_word(graph, rng, length):
    """Exponents in and out of the canonical range, zero included."""
    word = []
    for _ in range(length):
        v = rng.choice(graph.vertices)
        m = graph.mu(v)
        word.append((v, rng.choice((-3, -2, -1, 0, 1, 2, 5)) if m == INFINITY
                     else rng.randrange(-2 * m, 2 * m)))
    return word


def assert_same_routes(graph, rng):
    for n in LETTERS:
        word = random_word(graph, rng, n)
        ref = outcome(reference_from_syllables, graph, word)
        got = outcome(lambda: from_syllables(graph, word).piling)
        assert got == ref, (graph.name, n)
        piling = tuple(((v, canonical_exponent(graph, v, a)),) for v, a in word
                       if canonical_exponent(graph, v, a))
        assert outcome(normalize, graph, piling) == outcome(reference_normalize, graph, piling)
    for _ in range(40):
        piling = random_piling(graph, rng, max_len=8)
        assert outcome(normalize, graph, piling) == outcome(reference_normalize, graph, piling)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_kernel_matches_the_name_step_on_fixtures(name):
    rng = random.Random(f"kernel:{name}")
    base = fixture(name)
    for g in (base, base.dual()):
        assert_same_routes(g, rng)


@pytest.mark.parametrize("axiom", sorted(BROKEN))
def test_kernel_matches_the_name_step_on_broken_graphs(axiom):
    assert_same_routes(BROKEN[axiom](), random.Random(f"kernel:{axiom}"))


def test_extraction_through_a_three_cycle():
    # phi_t turns p -> q -> r: in the stratum (t, p), p extracts to q, which
    # lands next to w where t and r do not
    g = TrickleGraph.build(["t", "p", "q", "r", "w"], INFINITY,
                           [("t", "p"), ("t", "q"), ("t", "r"), ("q", "w")],
                           [("p", "t"), ("q", "t"), ("r", "t")],
                           phi={"t": {"p": "q", "q": "r", "r": "p"}})
    piling = ((("w", 1),), (("t", 1), ("p", 1)))
    assert normalize(g, piling) == reference_normalize(g, piling) == (
        (("w", 1), ("q", 1)), (("t", 1),))
    assert_same_routes(g, random.Random("kernel:three-cycle"))


NOT_INJECTIVE = (["x", "y", "z"], 2, [("x", "y"), ("x", "z"), ("y", "z")],
                 [("y", "x"), ("z", "x")], {"x": {"y": "z", "z": "z"}})
OUTSIDE_THE_STAR = (["x", "y", "z"], 2, [("x", "y")], [("y", "x")], {"x": {"y": "z"}})


@pytest.mark.parametrize("tables, text", [
    (NOT_INJECTIVE, "phi_'x' is not injective: 'y' and 'z' both map to 'z'"),
    (OUTSIDE_THE_STAR, "phi_'x' sends 'y' to 'z' outside the star"),
])
def test_unsound_star_maps_raise_the_name_step_error(tables, text):
    g = TrickleGraph.build(*tables)
    # "y x" pulls y back through phi_x; "x y" only through the sound phi_y
    with pytest.raises(GraphError) as ref:
        reference_from_syllables(g, [("y", 1), ("x", 1)])
    with pytest.raises(GraphError) as got:
        from_syllables(g, [("y", 1), ("x", 1)])
    assert str(got.value) == str(ref.value) == text
    with pytest.raises(GraphError) as got:
        normalize(g, ((("y", 1),), (("x", 1),)))
    assert str(got.value) == text
    assert (from_syllables(g, [("x", 1), ("y", 1)]).piling
            == reference_from_syllables(g, [("x", 1), ("y", 1)]) == ((("x", 1), ("y", 1)),))


def test_strata_off_the_stars_raise_the_name_step_error():
    # a path a - b - c: a stratum holding both ends is no clique, and the
    # moves on it leave the star of a or of c
    g = TrickleGraph.build(["a", "b", "c"], INFINITY, [("a", "b"), ("b", "c")])
    ends = (("c", 1), ("a", 1))
    for piling, text in ((((("a", 1),), ends), "'a' is not in star('c')"),
                         ((ends, (("a", 1),)), "'c' is not in star('a')")):
        assert outcome(normalize, g, piling) == outcome(reference_normalize, g, piling)
        assert outcome(normalize, g, piling) == f"GraphError: {text}"


def test_unknown_vertex_error_is_the_name_step_error():
    g = fixture("J5")
    long_id = "v" * 2000
    for word, bad in (([("nope", 1)], "nope"),
                      ([("[1,2]", 1), (long_id, 3), ("nope", 1)], long_id)):
        with pytest.raises(GraphError) as got:
            from_syllables(g, word)
        assert str(got.value) == f"unknown vertex {reprlib.repr(bad)}"
        assert len(str(got.value)) < 200
    with pytest.raises(GraphError, match="unknown vertex 'nope'"):
        normalize(g, ((("[1,2]", 1),), (("nope", 1),)))


def test_kernel_is_compiled_once_and_only_for_finite_graphs():
    g = fixture("KJ4")
    assert g.kernel() is g.kernel()
    assert g.dual().kernel() is not g.kernel()
    assert f_graph().kernel() is None


def test_kernel_tables_grow_with_the_stars():
    g = kjn_graph(6)
    k = g.kernel()
    cycles = {id(ids): ids for table in k.pw for ids, _ in table.values()}
    entries = (len(k.adj) + len(k.mu) + sum(len(table) for table in k.pw)
               + sum(len(ids) for ids in cycles.values()))
    stars = sum(len(g.star(v)) for v in g.vertices)
    assert len(g.vertices) == 1950
    assert entries <= len(g.vertices) + stars
