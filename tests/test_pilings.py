import functools
import itertools
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trickle.confluence import normalize_random_strategy, random_piling
from trickle.dyadic import Dyadic
from trickle.families import FIXTURES, cactus, dual_cactus_s3, fixture, gar3
from trickle.graph import GraphError, INFINITY, TrickleGraph
from trickle.garside import letter_length
from trickle.pilings import (_LEAF, GroupElement, element_from_text,
                             from_syllables, is_finite,
                             format_word, make_stratum, make_syllable, parse_word,
                             normalize, product,
                             push_syllable, stratum_add, stratum_can_add,
                             stratum_extract, stratum_remove)

A, B, C = "[1,3]", "[1,2]", "[2,3]"   # J3 vertices: B, C below A


@pytest.fixture(scope="module")
def j3():
    return cactus(3)


@pytest.fixture(scope="module")
def g3():
    return gar3()


def strat(graph, *pairs):
    return make_stratum(graph, pairs)


# ----------------------------------------------------------------------
# stratum operations, on the worked examples


def test_stratum_remove(j3, g3):
    U = strat(j3, (A, 1), (B, 1))
    assert stratum_remove(U, (B, 1)) == strat(j3, (A, 1))
    assert stratum_remove(strat(g3, ("x", 1)), ("x", 1)) == ()
    assert stratum_remove(strat(g3, ("x", 2), ("y", 1)), ("y", 1)) == strat(g3, ("x", 2))
    with pytest.raises(ValueError):
        stratum_remove(U, (C, 1))


def test_stratum_extract(j3, g3):
    U = strat(j3, (A, 1), (B, 1))
    assert stratum_extract(j3, U, (B, 1)) == (C, 1)       # conjugated past A
    assert stratum_extract(j3, U, (A, 1)) == (A, 1)       # topmost: untouched
    U = strat(g3, ("x", 1), ("y", 1))
    assert stratum_extract(g3, U, ("y", 1)) == ("z", 1)


def test_stratum_extract_numbering_independent(j3):
    # any ordering of the incomparable part gives the same answer
    g = fixture("KJ3")
    rng = random.Random(5)
    for _ in range(50):
        pool = list(g.vertices)
        rng.shuffle(pool)
        support = []
        for v in pool:
            if len(support) == 3:
                break
            if all(g.edge(v, w) for w in support):
                support.append(v)
        U = make_stratum(g, [(v, 1) for v in support])
        for s in U:
            expected = stratum_extract(g, U, s)
            for perm in itertools.permutations(U):
                # valid numberings put larger vertices first
                valid = not any(g.less(perm[i][0], perm[j][0])
                                for i in range(len(perm))
                                for j in range(i + 1, len(perm)))
                if valid:
                    assert _extract_with_order(g, perm, s) == expected


def _extract_with_order(graph, ordered, s):
    i = ordered.index(s)
    v = s[0]
    for j in range(i - 1, -1, -1):
        x, a = ordered[j]
        v = graph.phi_pow(x, a, v)
    return (v, s[1])


def test_stratum_can_add(j3):
    assert not stratum_can_add(j3, strat(j3, (B, 1)), (C, 1))
    assert stratum_can_add(j3, strat(j3, (A, 1)), (B, 1))
    assert stratum_can_add(j3, (), (C, 1))
    assert stratum_can_add(j3, strat(j3, (B, 1)), (B, 1))


def test_stratum_add(j3, g3):
    assert stratum_add(j3, strat(j3, (B, 1)), (A, 1)) == strat(j3, (C, 1), (A, 1))
    assert stratum_add(g3, strat(g3, ("y", 1)), ("x", -1)) == strat(g3, ("z", 1), ("x", -1))
    assert stratum_add(j3, strat(j3, (A, 1)), (A, 1)) == ()
    assert stratum_add(g3, strat(g3, ("x", 1)), ("x", 2)) == strat(g3, ("x", 3))
    with pytest.raises(GraphError):
        stratum_add(j3, strat(j3, (B, 1)), (C, 1))


def test_push_syllable(j3):
    got = push_syllable(j3, strat(j3, (A, 1)), strat(j3, (B, 1)), (B, 1))
    assert got == (strat(j3, (A, 1), (B, 1)), ())
    assert push_syllable(j3, strat(j3, (B, 1)), strat(j3, (C, 1)), (C, 1)) is None
    got = push_syllable(j3, strat(j3, (C, 1)), strat(j3, (A, 1)), (A, 1))
    assert got == (strat(j3, (A, 1), (B, 1)), ())


# ----------------------------------------------------------------------
# normalization


def test_normalize_examples(j3):
    sa = strat(j3, (A, 1))
    assert normalize(j3, (sa, sa)) == ()
    got = normalize(j3, (strat(j3, (C, 1)), sa))
    assert got == (strat(j3, (A, 1), (B, 1)),)
    untouched = (strat(j3, (B, 1)), strat(j3, (C, 1)))
    assert normalize(j3, untouched) == untouched


def test_normalize_drops_empty_strata(j3):
    assert normalize(j3, ((), strat(j3, (B, 1)), ())) == (strat(j3, (B, 1)),)
    assert normalize(j3, ((),)) == ()


def test_normalize_reads_exponents_mod_mu():
    cstar = fixture("CSTAR")          # mu(u) = 3, mu(x) = 2
    assert normalize(cstar, ((("u", 1),), (("u", 2),))) == ()
    assert normalize(cstar, ((("u", 3),),)) == ()
    assert normalize(cstar, ((("x", 0),),)) == ()
    assert normalize(cstar, ((("u", 4),),)) == normalize(cstar, ((("u", 1),),))
    F = fixture("F")
    assert normalize(F, (((Dyadic(0), 0),),)) == ()


@pytest.mark.parametrize("name", ["F", "QUANDLE"])
def test_normalize_checks_vertices_on_lazy_graphs(name):
    g = fixture(name)
    for piling in (((("x", 1),),), (((Dyadic(1, 1), 1),), (("x", 1),))):
        with pytest.raises(GraphError, match="unknown vertex 'x'"):
            normalize(g, piling)


def test_normalize_reads_a_stratum_in_any_order(j3):
    assert normalize(j3, (((B, 1), (A, 1)),)) == (strat(j3, (A, 1), (B, 1)),)
    assert normalize(j3, (((B, 1), (A, 1)),)) == normalize(j3, (((A, 1), (B, 1)),))
    F = fixture("F")
    low, high = (Dyadic(0), 1), (Dyadic(1, 1), -1)
    assert normalize(F, ((low, high),)) == ((high, low),)
    assert normalize(F, ((low, high), (low,))) == normalize(F, ((high, low), (low,)))


def _random_word(g, rng, length):
    word = []
    for _ in range(length):
        v = rng.choice(g.vertices)
        m = g.mu(v)
        word.append((v, rng.choice((-2, -1, 1, 2)) if m == INFINITY else rng.randrange(1, m)))
    return word


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_product_is_normalize_of_concatenation(name):
    rng = random.Random(17)
    base = fixture(name)
    for g in (base, base.dual()):
        pool = [()] + [normalize(g, random_piling(g, rng, max_len=6)) for _ in range(15)]
        pool += [from_syllables(g, _random_word(g, rng, rng.randrange(30))).piling
                 for _ in range(15)]
        for _ in range(150):
            a, b = rng.choice(pool), rng.choice(pool)
            assert product(g, a, b) == normalize(g, a + b)


# normalize settles halves of at most _LEAF strata, then joins them: these
# lengths give one leaf, a leaf and a one-stratum half, three levels, and
# a deep tree
_HALVES_LENGTHS = (_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 1000)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_long_word_is_the_fold_of_its_letters(name):
    # from_syllables goes through normalize by halves, the fold through
    # products started at the junction, one letter at a time
    rng = random.Random(29)
    base = fixture(name)
    for g in (base, base.dual()):
        for n in _HALVES_LENGTHS:
            word = _random_word(g, rng, n)
            letters = [from_syllables(g, [s]) for s in word]
            folded = functools.reduce(operator.mul, letters, GroupElement.identity(g))
            assert from_syllables(g, word) == folded


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_halves_agree_with_random_strategies(name):
    # pilings of leaf + 1 strata, many syllables each, reduced by random moves
    rng = random.Random(37)
    base = fixture(name)
    for g in (base, base.dual()):
        for _ in range(2):
            piling = ()
            while len(piling) <= _LEAF:
                piling += random_piling(g, rng, max_len=8)
            piling = piling[:_LEAF + 1]
            assert normalize(g, piling) == normalize_random_strategy(g, piling, rng)


@pytest.mark.parametrize("name", ["CSTAR", "J5", "KJ4", "RAAG-C6"])
def test_a_half_that_cancels_to_the_identity(name):
    g = fixture(name)
    rng = random.Random(41)
    w = _random_word(g, rng, _LEAF + 3)
    w_inv = [(v, -a) for v, a in reversed(w)]
    u = _random_word(g, rng, 2 * len(w))
    # the first half, then the second half, then the whole word cancels
    assert from_syllables(g, w + w_inv + u) == from_syllables(g, u)
    assert from_syllables(g, u + w + w_inv) == from_syllables(g, u)
    assert from_syllables(g, w + w_inv).is_identity


@pytest.mark.parametrize("name", ["CSTAR", "J5"])
def test_long_words_normalize_in_near_linear_time(name):
    # on a 2-core x86-64 host one left-to-right pass took 2-8 s, and
    # normalize by halves takes under 0.1 s
    g = fixture(name)
    piling = tuple((s,) for s in _random_word(g, random.Random(43), 12_800))
    start = time.perf_counter()
    normalize(g, piling)
    assert time.perf_counter() - start < 1.0


def test_from_word_examples(j3, g3):
    assert from_syllables(j3, [(A, 1), (B, 1)]).piling == (strat(j3, (A, 1), (B, 1)),)
    assert from_syllables(j3, [(A, 1)] * 3).piling == (strat(j3, (A, 1)),)
    assert from_syllables(g3, [("x", 1), ("y", 1)]).piling == (strat(g3, ("x", 1), ("y", 1)),)
    with pytest.raises(GraphError):
        from_syllables(j3, [("nope", 1)])


def test_nf_examples(j3, g3):
    assert element_from_text(j3, f"{B} {A}").nf_str() == f"{A} {C}"
    assert element_from_text(j3, "").nf_str() == ""
    assert element_from_text(g3, "x^-1 x y").nf_str() == "y"


def test_group_ops(j3, g3):
    assert element_from_text(j3, f"{A} {B}") == element_from_text(j3, f"{C} {A}")
    assert element_from_text(g3, "x y") != element_from_text(g3, "y x")
    rng = random.Random(11)
    j4 = cactus(4)
    for _ in range(25):
        word = [(rng.choice(j4.vertices), 1) for _ in range(rng.randrange(8))]
        g = from_syllables(j4, word)
        assert (g * g.inverse()).is_identity
        assert (g.inverse() * g).is_identity


def test_pow(g3):
    x = element_from_text(g3, "x")
    assert (x ** 3).nf_str() == "x^3"
    assert (x ** -2) == element_from_text(g3, "x^-2")
    assert (x ** 0).is_identity


def test_graph_mismatch(j3, g3):
    with pytest.raises(GraphError):
        element_from_text(j3, A) * element_from_text(g3, "x")


def test_is_finite(j3, g3):
    assert not is_finite(j3).finite
    assert not is_finite(g3).finite
    k2 = TrickleGraph.build(["x", "y"], {"x": 2, "y": 3}, [("x", "y")], [("y", "x")])
    ans = is_finite(k2)
    assert ans.finite and ans.order == 6
    from trickle.thompson import f_graph
    assert not is_finite(f_graph()).finite


def test_finite_order_matches_element_count():
    k2 = TrickleGraph.build(["x", "y"], {"x": 2, "y": 3}, [("x", "y")], [("y", "x")])
    elements = {GroupElement.identity(k2)}
    frontier = list(elements)
    gens = [from_syllables(k2, [(v, 1)]) for v in k2.vertices]
    while frontier:
        nxt = []
        for g in frontier:
            for x in gens:
                h = g * x
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    assert len(elements) == 6


# ----------------------------------------------------------------------
# word grammar


def test_parse_word(g3):
    assert parse_word(g3, "x y^-1 z^3") == [("x", 1), ("y", -1), ("z", 3)]
    with pytest.raises(GraphError):
        parse_word(g3, "x^0")
    with pytest.raises(GraphError):
        parse_word(g3, "x^one")
    with pytest.raises(GraphError):
        parse_word(g3, "w")


def test_format_round_trip(g3):
    for text in ("x^3 y", "x y^-2 z", "z x z x"):
        elt = element_from_text(g3, text)
        again = element_from_text(g3, elt.nf_str())
        assert again == elt


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["x", "y", "z"]),
                          st.integers(-3, 3).filter(bool)), max_size=8))
def test_nf_round_trip_random(pairs):
    g = gar3()
    elt = from_syllables(g, pairs)
    assert element_from_text(g, elt.nf_str()) == elt
    assert from_syllables(g, elt.nf()) == elt


_FUZZ_GRAPHS = {name: fixture(name) for name in ("GAR3", "J3", "F", "KJ3")}
_FUZZ_TOKENS = {name: [g.format_vertex(v) for v in g.vertices] if g.finite
                else ["0", "1", "-1/2", "3/8", "inf", "-7/4"]
                for name, g in _FUZZ_GRAPHS.items()}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_GRAPHS)), st.data())
def test_parse_word_fuzz(name, data):
    # any text parses or raises ValueError, and a parsed word survives formatting
    g = _FUZZ_GRAPHS[name]
    name_part = st.one_of(st.sampled_from(_FUZZ_TOKENS[name]),
                          st.text("xyzinf[](),/^-0123456789", max_size=8))
    exponent = st.one_of(st.just(""), st.integers(-10 ** 9, 10 ** 9).map("^{}".format),
                         st.text("^-0123456789", max_size=4))
    tokens = data.draw(st.lists(st.tuples(name_part, exponent), max_size=6))
    text = data.draw(st.sampled_from([" ", "  ", "\t"])).join(a + b for a, b in tokens)
    try:
        word = parse_word(g, text)
    except ValueError:
        return
    assert parse_word(g, format_word(g, word)) == word


# ----------------------------------------------------------------------
# structural properties of normal forms


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_defining_relations_hold(name):
    g = fixture(name)
    for x in g.vertices:
        m = g.mu(x)
        if m != INFINITY:
            assert from_syllables(g, [(x, 1)] * m).is_identity
        for y in g.vertices:
            if g.sort_key(x) < g.sort_key(y) and g.edge(x, y):
                lhs = from_syllables(g, [(g.phi(x, y), 1), (x, 1)])
                rhs = from_syllables(g, [(g.phi(y, x), 1), (y, 1)])
                assert lhs == rhs


def test_syllable_injectivity():
    g = dual_cactus_s3()
    seen = {}
    for v in g.vertices:
        m = g.mu(v)
        for a in range(1, m):
            elt = from_syllables(g, [(v, a)])
            assert elt not in seen.values()
            seen[(v, a)] = elt


def test_nf_stable_under_relation_insertion(j3):
    rng = random.Random(23)
    relators = _relator_words(j3)
    for _ in range(300):
        word = [(rng.choice(j3.vertices), 1) for _ in range(rng.randrange(7))]
        base = from_syllables(j3, word)
        cut = rng.randrange(len(word) + 1)
        stuffed = word[:cut] + rng.choice(relators) + word[cut:]
        assert from_syllables(j3, stuffed) == base


def _relator_words(g):
    out = []
    for x in g.vertices:
        m = g.mu(x)
        if m != INFINITY:
            out.append([(x, 1)] * m)
        for y in g.vertices:
            if g.edge(x, y):
                out.append([(g.phi(x, y), 1), (x, 1), (y, -1), (g.phi(y, x), -1)])
    return out


def test_letter_length_is_homogeneous_without_inverses():
    g = gar3()
    rng = random.Random(3)
    for _ in range(100):
        word = [(rng.choice(g.vertices), 1) for _ in range(rng.randrange(9))]
        assert letter_length(from_syllables(g, word)) == len(word)


def test_query_errors_bound_a_long_vertex():
    long_id = "v" * 5000
    g = TrickleGraph.build(["x", long_id], INFINITY, [])
    queries = [lambda: g.phi("x", long_id), lambda: g.phi_pow("x", 1, long_id),
               lambda: make_syllable(gar3(), long_id, 1), lambda: make_syllable(g, long_id, 0),
               lambda: from_syllables(gar3(), [(long_id, 1)])]
    for query in queries:
        with pytest.raises(GraphError) as info:
            query()
        assert len(str(info.value)) < 200
