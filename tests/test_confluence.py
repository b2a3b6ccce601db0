import random
import time

import pytest

from corrupt import broken_a, broken_b, broken_c, broken_d, broken_e, broken_f, broken_g
from trickle import confluence as conf
from trickle.families import FIXTURES, cactus, dual_cactus_s3, fixture, gar3
from trickle.graph import INFINITY, GraphError, TrickleGraph
from trickle.pilings import _LEAF, make_stratum, normalize, push_syllable

A, B, C = "[1,3]", "[1,2]", "[2,3]"


def test_enumerate_strata_counts():
    j3 = cactus(3)
    # cliques: 3 singletons + 2 edges; label 2 everywhere, so one exponent
    strata = conf.enumerate_strata(j3, max_support=3, max_exp=2)
    assert len(strata) == 1 + 3 + 2
    g = gar3()
    strata = conf.enumerate_strata(g, max_support=3, max_exp=2)
    assert len(strata) == 1 + 3 * 4 + 3 * 16 + 64
    assert len(conf.enumerate_strata(g, 3, 1)) == 1 + 3 * 2 + 3 * 4 + 8


def test_empty_graph_yields_nothing():
    from trickle.graph import TrickleGraph
    g = TrickleGraph.build([], 2, [])
    assert list(conf.enumerate_critical_pairs(g, 3, 2)) == []
    assert conf.check_critical_pairs(g, 3, 2).pairs_checked == 0


def test_c1_pairs_one_per_member():
    j3 = cactus(3)
    c1 = [p for p in conf.enumerate_critical_pairs(j3, 3, 2) if p.case == "C1"]
    strata = [U for U in conf.enumerate_strata(j3, 3, 2) if U]
    assert len(c1) == sum(len(U) for U in strata)


def test_c3_respects_stratum_validity():
    j3 = cactus(3)
    seen_av = False
    for pair in conf.enumerate_critical_pairs(j3, 3, 2):
        if pair.case == "C3":
            U, V = pair.strata
            support = [v for v, _ in V]
            assert all(j3.edge(x, y) for i, x in enumerate(support)
                       for y in support[i + 1:])
            seen_av |= (U, V) == (make_stratum(j3, [(A, 1)]),
                                  make_stratum(j3, [(A, 1), (B, 1)]))
    # the two-syllable stratum over an edge does occur as a divergence source
    assert seen_av


def test_all_pairs_resolve_on_valid_fixtures():
    for make in (cactus(3), gar3(), dual_cactus_s3()):
        report = conf.check_critical_pairs(make, 3, 2)
        assert report.ok, report.describe()
        assert report.pairs_checked > 0


def test_resolve_matches_fused_check():
    j3 = cactus(3)
    pairs = list(conf.enumerate_critical_pairs(j3, 3, 2))
    assert all(conf.resolve(j3, p) for p in pairs)
    report = conf.check_critical_pairs(j3, 3, 2)
    assert report.pairs_checked == len(pairs)


CORRUPT_BOUNDS = [
    (broken_d, (2, 1)), (broken_e, (2, 1)), (broken_e, (3, 2)),
    (broken_f, (2, 1)), (broken_f, (3, 2)),
]


@pytest.mark.parametrize("name, pairs", [("J3", 197), ("CSTAR", 1847), ("J4", 15923),
                                         ("KJ3", 1596)])
def test_pair_counts(name, pairs):
    g = fixture(name)
    assert sum(1 for _ in conf.enumerate_critical_pairs(g, 3, 2)) == pairs
    report = conf.check_critical_pairs(g, 3, 2)
    assert report.ok and report.pairs_checked == pairs


def reference_failures(g, bounds):
    """Failures with witnesses, from ``normalize`` of each pair's two successors."""
    out = []
    for pair in conf.enumerate_critical_pairs(g, *bounds):
        successors = conf._successors(g, pair)
        if successors is not None:
            left, right = (normalize(g, p) for p in successors)
            if left != right:
                out.append((pair, left, right))
    return out


@pytest.mark.parametrize("make, bounds", CORRUPT_BOUNDS)
def test_check_matches_normalize_of_the_successors(make, bounds):
    g = make()
    expected = reference_failures(g, bounds)
    assert expected
    for limit in (1, 3, len(expected) + 1):
        report = conf.check_critical_pairs(g, *bounds, fail_limit=limit)
        assert report.failures == expected[:limit]


@pytest.mark.parametrize("make, bounds", CORRUPT_BOUNDS)
def test_fused_check_fails_exactly_the_unresolved_pairs(make, bounds):
    g = make()
    unresolved = [p for p in conf.enumerate_critical_pairs(g, *bounds) if not conf.resolve(g, p)]
    limit = len(unresolved) + 1
    report = conf.check_critical_pairs(g, *bounds, fail_limit=limit)
    assert [pair for pair, _, _ in report.failures] == unresolved
    assert all(left != right for _, left, right in report.failures)


def as_strata(reducer, ids):
    """The pilings behind interned piling ids, as tuples of strata."""
    return [tuple(reducer.table.strata[u] for u in reducer._pilings[k]) for k in ids]


def test_mult_row_reads_as_mult():
    g = fixture("J4")
    cold, warm = conf._Reducer(g), conf._Reducer(g)
    ids = [warm.of_stratum(U) for U in conf.enumerate_strata(g, 2, 1)]
    assert [cold.of_stratum(U) for U in conf.enumerate_strata(g, 2, 1)] == ids
    for i in ids[:4]:
        for j in ids[::2]:
            warm.mult(i, j)
    js = ids + [0, ids[3], 0, ids[1]]
    for i in [0] + ids:
        expected = [warm.mult(i, j) for j in js]
        assert warm.mult_row(i, js) == expected
        row = cold.mult_row(i, js)
        assert as_strata(cold, row) == as_strata(warm, expected)
        assert cold.mult_row(i, js) == row == [cold.mult(i, j) for j in js]
    assert warm.mult_row(ids[2], []) == []


def test_corrupted_graph_fails_with_witness():
    g = broken_g()
    report = conf.check_critical_pairs(g, 2, 1, fail_limit=1)
    assert not report.ok
    pair, left, right = report.failures[0]
    assert left != right
    assert not conf.resolve(g, pair)


def test_vacuous_resolution():
    j3 = cactus(3)
    # push B from {B} toward {C}: no edge, so nothing diverges
    pair = conf.CriticalPair("C2", (make_stratum(j3, [(C, 1)]),
                                    make_stratum(j3, [(B, 1)]),
                                    make_stratum(j3, [(B, 1)])),
                             ((B, 1), (B, 1)))
    assert conf.resolve(j3, pair)


def test_resolve_normalizes_both_successors_on_a_lazy_graph(monkeypatch):
    g = fixture("F")
    x, y, z = (g.parse_vertex(t) for t in ("0", "1/2", "inf"))
    U, V = make_stratum(g, [(x, 1)]), make_stratum(g, [(y, 2), (z, -1)])
    pair = conf.CriticalPair("C3", (U, V), V)
    left, right = conf._successors(g, pair)
    assert left != right
    seen = []
    monkeypatch.setattr(conf, "normalize", lambda graph, p: seen.append(p) or normalize(graph, p))
    assert conf.resolve(g, pair)
    assert seen == [left, right]
    with pytest.raises(GraphError, match="needs a finite graph"):
        conf.check_critical_pairs(g)


def test_random_piling_is_well_formed():
    g = gar3()
    rng = random.Random(0)
    for _ in range(200):
        piling = conf.random_piling(g, rng)
        for U in piling:
            support = [v for v, _ in U]
            assert len(set(support)) == len(support)
            assert all(g.edge(x, y) for i, x in enumerate(support)
                       for y in support[i + 1:])
            assert all(a != 0 for _, a in U)


@pytest.mark.parametrize("mu", [INFINITY, 2, 3, 5])
@pytest.mark.parametrize("max_exp", [1, 2, 7])
def test_random_exponent_draws_as_choice_over_the_range(mu, max_exp):
    g = TrickleGraph.build(["x"], mu, [])
    rng, reference = random.Random(mu * max_exp), random.Random(mu * max_exp)
    for _ in range(2000):
        assert (conf._random_exponent(g, "x", rng, max_exp)
                == reference.choice(conf.exponent_range(g, "x", max_exp)))


def test_huge_exponent_bound_draws_without_a_list():
    t0 = time.perf_counter()
    report = conf.check_strategy_independence(gar3(), random.Random(0), pilings=1,
                                              strategies=1, max_exp=10**9)
    assert time.perf_counter() - t0 < 1
    assert report.samples_checked == 1 and report.ok


def test_normalize_is_idempotent():
    rng = random.Random(8)
    for g in (cactus(4), gar3(), dual_cactus_s3()):
        for _ in range(80):
            once = normalize(g, conf.random_piling(g, rng))
            assert normalize(g, once) == once


def test_random_strategies_agree_with_normalize():
    rng = random.Random(1)
    for g in (cactus(4), gar3(), dual_cactus_s3()):
        for _ in range(60):
            piling = conf.random_piling(g, rng)
            expected = normalize(g, piling)
            for _ in range(5):
                assert conf.normalize_random_strategy(g, piling, rng) == expected


def reference_random_strategy(graph, piling, rng):
    """``normalize_random_strategy`` searching every pair afresh at each step."""
    strata = list(piling)
    while True:
        moves = []
        for i, U in enumerate(strata):
            if not U:
                moves.append((i, None))
        for i in range(len(strata) - 1):
            U, V = strata[i], strata[i + 1]
            for s in V:
                t = push_syllable(graph, U, V, s)
                if t is not None:
                    moves.append((i, t))
        if not moves:
            return tuple(strata)
        i, t = moves[rng.randrange(len(moves))]
        if t is None:
            del strata[i]
        else:
            strata[i:i + 2] = [t[0], t[1]]


def reference_strategy_independence(graph, rng, pilings, strategies):
    report = conf.ConfluenceReport()
    for _ in range(pilings):
        piling = conf.random_piling(graph, rng)
        report.samples_checked += 1
        forms = {reference_random_strategy(graph, piling, rng) for _ in range(strategies)}
        forms.add(normalize(graph, piling))
        if len(forms) != 1:
            report.sample_failures.append((piling, sorted(forms)))
    return report


SI_GRAPHS = dict(FIXTURES, **{m.__name__: m for m in (broken_a, broken_b, broken_c, broken_d,
                                                       broken_e, broken_f, broken_g)})


@pytest.mark.parametrize("name", SI_GRAPHS)
def test_shared_move_table_matches_fresh_searches(name):
    g = SI_GRAPHS[name]()
    rng, reference = random.Random(5), random.Random(5)
    report = conf.check_strategy_independence(g, rng, pilings=40, strategies=8)
    expected = reference_strategy_independence(g, reference, pilings=40, strategies=8)
    assert report.samples_checked == expected.samples_checked == 40
    assert report.sample_failures == expected.sample_failures
    assert rng.random() == reference.random()


def _long_piling(g, rng):
    piling = ()
    while len(piling) <= _LEAF:
        piling += conf.random_piling(g, rng, max_len=8)
    return piling[:_LEAF + 1]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_one_walk_matches_fresh_searches_on_long_pilings(name):
    # pilings of _LEAF + 1 strata take hundreds of steps, most of them
    # to pilings no earlier step met
    base = fixture(name)
    for g in (base, base.dual()):
        piling = _long_piling(g, random.Random(43))
        rng, reference = random.Random(7), random.Random(7)
        assert (conf.normalize_random_strategy(g, piling, rng)
                == reference_random_strategy(g, piling, reference))
        assert rng.random() == reference.random()


class _CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


@pytest.mark.parametrize("name", ["GAR3", "J5", "KJ4"])
def test_a_walk_adds_at_most_one_piling_per_step(name):
    g = fixture(name)
    moves = conf._Moves(g)
    rng = _CountingRandom(11)
    for _ in range(20):
        key, seen = moves.key(conf.random_piling(g, rng)), {}
        for _ in range(8):
            before, draws = len(seen), rng.draws
            moves.walk(seen, key, rng)
            assert len(seen) - before <= rng.draws - draws + 1
    piling = _long_piling(g, rng)
    seen, draws = {}, rng.draws
    moves.walk(seen, moves.key(piling), rng)
    assert len(seen) <= rng.draws - draws + 1


def test_strategy_independence_report():
    report = conf.check_strategy_independence(gar3(), random.Random(2),
                                              pilings=50, strategies=8)
    assert report.ok
    assert report.samples_checked == 50


def test_strategy_independence_catches_corruption():
    report = conf.check_strategy_independence(broken_g(), random.Random(3),
                                              pilings=400, strategies=12)
    assert not report.ok
