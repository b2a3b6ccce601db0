import itertools
import random
import time

import pytest

from corrupt import broken_a, broken_b, broken_c, broken_d, broken_e, broken_f, broken_g
from trickle import confluence as conf
from trickle.families import FIXTURES, cactus, dual_cactus_s3, fixture, gar3, graph_product
from trickle.graph import INFINITY, GraphError, TrickleGraph, validate
from trickle.pilings import (_LEAF, _step, make_stratum, normalize, product, push_syllable,
                             sort_stratum)

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


def as_names(g, reducer, k):
    """The piling behind the interned id k, in vertex names."""
    return tuple(tuple((g.vertices[x], a) for x, a in S) for S in as_strata(reducer, [k])[0])


@pytest.mark.parametrize("make", [lambda: fixture("J4"), gar3, broken_d, broken_g],
                         ids=["J4", "GAR3", "broken_d", "broken_g"])
def test_mult_row_reads_as_mult(make):
    g = make()
    cold, warm = conf._Reducer(g), conf._Reducer(g)
    ids = [warm.of_stratum(U) for U in conf.enumerate_strata(g, 2, 1)]
    assert [cold.of_stratum(U) for U in conf.enumerate_strata(g, 2, 1)] == ids
    for i in ids[:4]:
        for j in ids[::2]:
            warm.mult(i, j)
    js = ids + [0, ids[3], 0, ids[1]]
    for i in [0] + ids + [warm.mult(ids[-1], ids[-2]), warm.mult(ids[-2], ids[-1])]:
        expected = [warm.mult(i, j) for j in js]
        assert warm.mult_row(i, js) == expected
        row = cold.mult_row(i, js)
        assert as_strata(cold, row) == as_strata(warm, expected)
        assert cold.mult_row(i, js) == row == [cold.mult(i, j) for j in js]
        # the reference: the junction pass of ``product``, on names with fresh searches
        for j, k in zip(js, row):
            assert as_names(g, cold, k) == product(g, as_names(g, cold, i), as_names(g, cold, j))
    assert warm.mult_row(ids[2], []) == []


def test_a_product_never_a_left_factor_has_no_row():
    g = fixture("J4")
    r = conf._Reducer(g)
    a, b = (r.of_stratum(U) for U in conf.enumerate_strata(g, 1, 1)[1:3])
    ab = r.mult(a, b)
    assert ab not in (a, b) and list(r._rows) == [a] and r._rows[a] == {b: ab}
    r.mult_row(ab, [a])
    assert list(r._rows) == [a, ab]


@pytest.mark.parametrize("limit", [0, -3])
def test_fail_limit_below_one_is_refused(limit):
    with pytest.raises(GraphError, match=f"^fail_limit must be at least 1, got {limit}$"):
        conf.check_critical_pairs(broken_g(), 2, 1, fail_limit=limit)


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


# ----------------------------------------------------------------------
# one C2 middle stratum per symmetry orbit


def brute_force_symmetries(g):
    """Every vertex permutation, as a tuple of kernel ids, that keeps
    adjacency, the order, the labels and the star maps."""
    vs = g.vertices
    for p in itertools.permutations(range(len(vs))):
        s = dict(zip(vs, (vs[i] for i in p)))
        keeps_edges_and_order = all(
            g.edge(x, y) == g.edge(s[x], s[y]) and g.less(x, y) == g.less(s[x], s[y])
            for x in vs for y in vs if x != y)
        if keeps_edges_and_order and all(
                g.mu(x) == g.mu(s[x]) and all(s[g.phi(x, y)] == g.phi(s[x], s[y])
                                              for y in g.star(x)) for x in vs):
            yield p


def closure(gens, n):
    """The group the permutations ``gens`` of range(n) generate."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    for p in todo:
        for q in gens:
            r = tuple(q[i] for i in p)
            if r not in group:
                group.add(r)
                todo.append(r)
    return group


SMALL = [(name, make) for name, make in FIXTURES.items() if len(make().vertices) <= 7]
SMALL += [(f"dual({name})", lambda make=make: make().dual()) for name, make in SMALL]


@pytest.mark.parametrize("make", [make for _, make in SMALL], ids=[name for name, _ in SMALL])
def test_symmetry_search_finds_the_brute_force_group(make):
    g = make()
    gens, order = conf._symmetries(g)
    expected = set(brute_force_symmetries(g))
    assert closure(gens, len(g.vertices)) == expected and order == len(expected)


@pytest.mark.parametrize("make", [broken_a, broken_b, broken_c, broken_d, broken_e, broken_f,
                                  broken_g])
def test_symmetry_search_on_corrupted_graphs(make):
    g = make()
    found = conf._symmetries(g)
    # (b) and (d) are read off the kernel; without them there is no reduction
    assert (found is None) == bool({"b", "d"} & set(validate(g).axioms_violated()))
    if found is not None:
        expected = set(brute_force_symmetries(g))
        assert closure(found[0], len(g.vertices)) == expected and found[1] == len(expected)


def test_symmetry_search_gives_up_past_its_budget(monkeypatch):
    g = fixture("KJ3")
    assert conf._symmetries(g)[1] == 72
    monkeypatch.setattr(conf, "SYMMETRY_BUDGET", 5)
    assert conf._symmetries(g) is None
    report = conf.check_critical_pairs(g, 3, 2)
    assert report.ok and report.pairs_checked == 1596 and report.group_order == 1


def unreduced(g, bounds, fail_limit):
    return conf._check(g, conf.enumerate_strata(g, *bounds), fail_limit, None)


REDUCTION_CASES = ([(name, make, bounds) for name, make in FIXTURES.items()
                    for bounds in ((2, 1), (3, 2))] +
                   [(make.__name__, make, bounds) for make in (broken_a, broken_b, broken_c,
                                                               broken_d, broken_e, broken_f)
                    for bounds in ((2, 1), (3, 2))] + [("broken_g", broken_g, (2, 1))])


@pytest.mark.parametrize("make, bounds", [case[1:] for case in REDUCTION_CASES],
                         ids=[f"{name}-{b[0]}-{b[1]}" for name, _, b in REDUCTION_CASES])
def test_reduced_check_reports_as_the_unreduced_one(make, bounds):
    g = make()
    for limit in (1, 3, 200):
        report = conf.check_critical_pairs(g, *bounds, fail_limit=limit)
        full = unreduced(g, bounds, limit)
        assert (report.pairs_checked, report.failures) == (full.pairs_checked, full.failures)
        if full.ok:
            break


def gar_like(seed):
    """A complete graph like GAR3: incomparable bottoms under a chain of
    tops, each top's star map a seeded permutation of the bottoms, seeded
    labels.  A symmetry that swaps two bottoms reverses a ranked edge."""
    rng = random.Random(seed)
    bottoms = [f"b{i}" for i in range(rng.randint(2, 3))]
    tops = [f"t{i}" for i in range(rng.randint(1, 2))]
    verts = bottoms + tops
    mu = {v: rng.choice([2, 3, INFINITY]) for v in verts}
    if rng.random() < 0.5:
        mu.update(dict.fromkeys(bottoms, rng.choice([2, 3, INFINITY])))
    phi = {t: dict(zip(bottoms, rng.sample(bottoms, len(bottoms)))) for t in tops}
    less = [(b, t) for b in bottoms for t in tops] + list(zip(tops, tops[1:]))
    return TrickleGraph.build(verts, mu, list(itertools.combinations(verts, 2)), less, phi,
                              name=f"gar-like-{seed}")


def test_reduced_check_on_graphs_whose_symmetries_reverse_a_ranked_edge():
    seen = set()
    for seed in range(12):
        g = gar_like(seed)
        found = conf._symmetries(g)
        n = len(g.vertices)
        reverses = found is not None and any(
            p[x] > p[y] for p in closure(found[0], n) for x in range(n) for y in range(x + 1, n))
        for limit in (1, 200):
            report = conf.check_critical_pairs(g, 2, 1, fail_limit=limit)
            full = unreduced(g, (2, 1), limit)
            assert (report.pairs_checked, report.failures) == (full.pairs_checked, full.failures)
        seen.add((reverses, full.ok))
    # symmetries that reverse a ranked edge, on graphs that pass and that fail
    assert {(True, True), (True, False)} <= seen


def graph_product_like(seed):
    """A seeded graph product on 3-5 vertices with labels from {2, 3, 4,
    INFINITY}: every star map is the identity, so each vertex is a class of
    its own, negated unless its label is 2."""
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(rng.randint(3, 5))]
    edges = [e for e in itertools.combinations(verts, 2) if rng.random() < 0.6]
    return graph_product(verts, edges, {v: rng.choice([2, 3, 4, INFINITY]) for v in verts},
                         name=f"graph-product-{seed}")


def star_map_classes(g):
    """The classes of the equivalence y ~ phi_x(y), by a union-find over ``g.phi``."""
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for x in g.vertices:
        for y in g.star(x):
            root[find(y)] = find(g.phi(x, y))
    classes = {}
    for v in g.vertices:
        classes.setdefault(find(v), set()).add(v)
    return list(classes.values())


def admitted(g, C):
    """Every star map of C an involution, of even label where it moves a
    vertex, and one label on C that is not 2."""
    labels = {g.mu(x) for x in C}
    even = {x for x in C if g.mu(x) == INFINITY or g.mu(x) % 2 == 0}
    return len(labels) == 1 and labels != {2} and all(
        g.phi(x, g.phi(x, y)) == y and (g.phi(x, y) == y or x in even)
        for x in C for y in g.star(x))


def negation(g, C):
    """sigma_C on strata: each syllable (v, a) with v in C becomes (v, -a)."""
    def neg(v, a):
        return -a if g.mu(v) == INFINITY else -a % g.mu(v)
    return lambda S: tuple([(v, neg(v, a) if v in C else a) for v, a in S])


def permutation(g, p):
    """The vertex permutation p, as kernel ids, on strata."""
    s = dict(zip(g.vertices, (g.vertices[i] for i in p)))
    return lambda S: sort_stratum(g, [(s[v], a) for v, a in S])


def group_generators(g):
    """The generators of the group ``_orbit_firsts`` reduces by, on strata:
    the symmetries of ``_symmetries``, then the negations of ``_negations``."""
    found = conf._symmetries(g)
    return ([permutation(g, p) for p in (found[0] if found else ())],
            [negation(g, C) for C in conf._negations(g)])


def outcome(fn, *args):
    try:
        return fn(*args)
    except GraphError:
        return "raises"


def moves(g, U, V):
    """The pushes out of V that land in U, as a set."""
    return {outcome(push_syllable, g, U, V, s) for s in V} - {None}


def image(f, t):
    return t if t is None or t == "raises" else tuple(f(T) for T in t)


COMMUTATION_STRATA = 24     # strata per graph, spread over the enumeration
COMMUTATION_GRAPHS = ([make() for make in FIXTURES.values()] +
                      [make().dual() for make in FIXTURES.values()] +
                      [make() for make in (broken_a, broken_b, broken_c, broken_d, broken_e,
                                           broken_f, broken_g)])


@pytest.mark.parametrize("graphs", [COMMUTATION_GRAPHS, [gar_like(seed) for seed in range(40)],
                                    [graph_product_like(seed) for seed in range(30)]],
                         ids=["fixtures-duals-corrupt", "gar-like", "graph-products"])
def test_every_generator_maps_moves_to_moves(graphs):
    """A symmetry maps the moves at (U, V) onto those at its image; a
    negation keeps the ranking, so it also commutes with the one move
    ``_step`` makes.  A symmetry that reverses a ranked pair may not: the
    first mover to land at (U, V) can map to a later one."""
    negations = 0
    for g in graphs:
        strata = conf.enumerate_strata(g, 2, 2)
        strata = strata[::-(-len(strata) // COMMUTATION_STRATA)]
        perms, negs = group_generators(g)
        negations += len(negs)
        for U, V in itertools.product(strata, strata[1:]):
            here, step = moves(g, U, V), outcome(_step, g, U, V)
            for f in perms + negs:
                assert moves(g, f(U), f(V)) == {image(f, t) for t in here}, (g.name, U, V)
                if f in negs:
                    assert outcome(_step, g, f(U), f(V)) == image(f, step), (g.name, U, V)
    assert negations > 0


def test_negating_a_class_whose_labels_differ_breaks_a_move():
    # broken_f's star map of u cycles x, y, z, labelled 2, 2 and 4: that class
    # would be admitted but for its labels, and negating it breaks a move
    g = broken_f()
    C = next(C for C in star_map_classes(g) if "z" in C)
    assert C == {"x", "y", "z"} and conf._negations(g) == []
    f = negation(g, C)
    strata = conf.enumerate_strata(g, 2, 2)
    broken = sum(_step(g, f(U), f(V)) != image(f, _step(g, U, V))
                 for U, V in itertools.product(strata, strata[1:]))
    assert broken == 108


@pytest.mark.parametrize("graphs, kinds", [
    ([gar_like(seed) for seed in range(12)], {(True, True), (True, False)}),
    ([graph_product_like(seed) for seed in range(12)], {(True, True)}),
], ids=["gar-like", "graph-products"])
def test_reduced_check_at_exponent_two(graphs, kinds):
    seen = set()
    for g in graphs:
        for limit in (1, 200):
            report = conf.check_critical_pairs(g, 2, 2, fail_limit=limit)
            full = unreduced(g, (2, 2), limit)
            assert (report.pairs_checked, report.failures) == (full.pairs_checked, full.failures)
            if full.ok:
                break
        seen.add((bool(conf._negations(g)), full.ok))
    # negated classes on graphs that pass and, among the gar-like ones, that fail
    assert kinds <= seen


@pytest.mark.parametrize("name", ["J5", "GAR3", "CSTAR", "RAAG-C6", "KJ3", "KJ4"])
def test_each_c2_orbit_has_equal_unit_pair_counts(name):
    g = fixture(name)
    strata = conf.enumerate_strata(g, 3, 2)
    firsts, order = conf._orbit_firsts(g, strata)
    perms, negs = group_generators(g)
    counts = {V: len(heads) * len(incoming)
              for case, V, incoming, heads in (u for u in conf._units(g, strata) if u[0] == "C2")}
    orbits = 0
    for V in counts:
        orbit, todo = {V}, [V]
        for U in todo:
            for s in perms + negs:
                W = s(U)
                assert W in counts
                if W not in orbit:
                    orbit.add(W)
                    todo.append(W)
        assert len({counts[U] for U in orbit}) == 1
        assert len(orbit & firsts) == 1 and min(orbit, key=list(counts).index) in firsts
        orbits += V in firsts
    report = conf.check_critical_pairs(g, 3, 2)
    assert report.c2_evaluated == orbits < len(counts) and report.group_order == order > 1
    n = len(g.vertices)
    symmetries = (len(set(brute_force_symmetries(g))) if n <= 7
                  else len(closure(conf._symmetries(g)[0], n)))
    assert order == symmetries * 2 ** sum(admitted(g, C) for C in star_map_classes(g))
