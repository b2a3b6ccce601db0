"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Everything is seeded, so runs are reproducible.
"""

import itertools
import random

import pytest

from corrupt import BROKEN, broken_g
from trickle import confluence as conf
from trickle import garside as gar
from trickle.dyadic import Dyadic
from trickle.families import (FIXTURES, cactus, cycle_graph, fixture,
                              path_graph, raag, racg)
from trickle.graph import INFINITY, TrickleGraph, validate
from trickle.parabolic import (downward_closure, intersect, is_parabolic,
                               member, parabolic_subgraph)
from trickle.pilings import GroupElement, from_syllables, is_finite, normalize
from trickle.syllabic import exchange_connected, syllabic_reduce
from trickle.thompson import TOP, evaluate_letters, f_graph, h_apply, h_apply_inv
from trickle.vjn import jn_embedding_check, vjn_equal

D = Dyadic

CONFLUENCE_FIXTURES = sorted(FIXTURES)   # the thirteen finite fixtures


def announce(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def random_word(graph, rng, max_len, max_exp=2, signed=True):
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        v = rng.choice(graph.vertices)
        m = graph.mu(v)
        if m == INFINITY:
            a = rng.choice([k for k in range(-max_exp, max_exp + 1) if k]) if signed \
                else rng.randrange(1, max_exp + 1)
        else:
            a = rng.randrange(1, m)
        out.append((v, a))
    return out


# ----------------------------------------------------------------------


def test_criterion_1_axiom_suite():
    checked = 0
    for name in sorted(FIXTURES):
        assert validate(fixture(name)).ok, name
        checked += 1
    for n in range(2, 6):
        assert validate(racg(*path_graph(n))).ok
        assert validate(raag(*path_graph(n))).ok
        checked += 2
    for n in range(3, 6):
        assert validate(racg(*cycle_graph(n))).ok
        assert validate(raag(*cycle_graph(n))).ok
        checked += 2
    for axiom in "abcdefg":
        report = validate(BROKEN[axiom]())
        assert not report.ok
        assert report.axioms_violated() == [axiom], axiom
        assert report.violations[0].witness
    announce(1, f"axioms hold on {checked} fixtures; all 7 corrupted graphs "
                "rejected with the right witness")


def test_criterion_2_confluence():
    pairs_total = 0
    for name in CONFLUENCE_FIXTURES:
        g = fixture(name)
        sampled = conf.check_strategy_independence(
            g, random.Random(100), pilings=1000, strategies=20)
        assert sampled.ok, f"{name}: {sampled.describe()}"
        assert sampled.samples_checked == 1000
        report = conf.check_critical_pairs(g, max_support=3, max_exp=2)
        assert report.ok, f"{name}: {report.describe()}"
        pairs_total += report.pairs_checked
    announce(2, f"1000 pilings x 20 strategies per fixture converge; "
                f"{pairs_total} critical pairs all resolve")


def test_criterion_3_word_problem_soundness():
    insertions = 0
    rng = random.Random(300)
    for name in CONFLUENCE_FIXTURES:
        g = fixture(name)
        relators = []
        for x in g.vertices:
            m = g.mu(x)
            if m != INFINITY:
                assert from_syllables(g, [(x, 1)] * m).is_identity
                relators.append([(x, 1)] * m)
            for y in g.vertices:
                if g.sort_key(x) < g.sort_key(y) and g.edge(x, y):
                    lhs = [(g.phi(x, y), 1), (x, 1)]
                    rhs = [(g.phi(y, x), 1), (y, 1)]
                    assert from_syllables(g, lhs) == from_syllables(g, rhs)
                    relators.append(lhs + [(v, -e) for v, e in reversed(rhs)])
        for _ in range(770):
            word = random_word(g, rng, 6)
            cut = rng.randrange(len(word) + 1)
            stuffed = word[:cut] + rng.choice(relators) + word[cut:]
            assert from_syllables(g, stuffed) == from_syllables(g, word)
            insertions += 1
    announce(3, f"defining relations and torsion hold everywhere; "
                f"{insertions} relator insertions left normal forms unchanged")


def _random_valid_complete_graph(rng):
    while True:
        n = rng.randrange(1, 4)
        verts = [f"v{i}" for i in range(n)]
        edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
        perm = verts[:]
        rng.shuffle(perm)
        less = [(a, b) for i, a in enumerate(perm) for b in perm[i + 1:]
                if rng.random() < 0.5]
        closure = {v: set() for v in verts}
        for a, b in less:
            closure[a].add(b)
        for a in verts:
            for b in list(closure[a]):
                closure[a] |= closure[b]
        mu = {v: rng.randrange(2, 5) for v in verts}
        phi = {}
        for x in verts:
            below = sorted(v for v in verts if x in closure[v])
            if below and rng.random() < 0.6:
                image = below[:]
                rng.shuffle(image)
                phi[x] = dict(zip(below, image))
        g = TrickleGraph.build(verts, mu, edges, less, phi)
        if validate(g).ok:
            return g


def test_criterion_4_finiteness_oracle():
    rng = random.Random(400)
    for _ in range(20):
        g = _random_valid_complete_graph(rng)
        answer = is_finite(g)
        gens = [from_syllables(g, [(v, 1)]) for v in g.vertices]
        elements = {GroupElement.identity(g)}
        frontier = list(elements)
        while frontier:
            nxt = []
            for e in frontier:
                for x in gens:
                    h = e * x
                    if h not in elements:
                        elements.add(h)
                        nxt.append(h)
            frontier = nxt
        product = 1
        for v in g.vertices:
            product *= g.mu(v)
        assert answer.finite
        assert answer.order == len(elements) == product
    announce(4, "finiteness and exact order agree with closure enumeration "
                "on 20 random complete graphs")


def test_criterion_5_tits_cross_validation():
    rng = random.Random(500)
    checked = 0
    for name in ("J3", "GAR3"):
        g = fixture(name)
        for _ in range(500):
            w1 = tuple(random_word(g, rng, 8))
            w2 = tuple(random_word(g, rng, 8))
            if rng.random() < 0.35:
                w2 = _relation_shuffle(g, rng, w1)
            same = from_syllables(g, w1) == from_syllables(g, w2)
            r1 = syllabic_reduce(g, w1)
            r2 = syllabic_reduce(g, w2)
            same_tits = len(r1) == len(r2) and exchange_connected(g, r1, r2)
            assert same == same_tits
            checked += 1
    announce(5, f"piling equality matches reduce+exchange search on {checked} word pairs")


def _relation_shuffle(g, rng, word):
    from trickle.syllabic import apply_exchange

    word = tuple(word)
    for _ in range(8):
        if len(word) < 2:
            break
        i = rng.randrange(len(word) - 1)
        if word[i][0] != word[i + 1][0] and g.edge(word[i][0], word[i + 1][0]):
            word = apply_exchange(g, word, i)
    return word


def test_criterion_6_parabolic():
    rng = random.Random(600)
    j4 = cactus(4)
    subsets = []
    while len(subsets) < 10:
        seed = {v for v in j4.vertices if rng.random() < 0.4}
        X = downward_closure(j4, seed) if rng.random() < 0.5 else frozenset(seed)
        if X and is_parabolic(j4, X) and X not in subsets:
            subsets.append(frozenset(X))
    words = 0
    for X in subsets:
        sub = parabolic_subgraph(j4, X)
        inner = sub.graph()
        pool = sorted(X)
        for _ in range(100):
            word = [(rng.choice(pool), 1) for _ in range(rng.randrange(7))]
            assert from_syllables(j4, word).nf() == from_syllables(inner, word).nf()
            words += 1
    crossings = 0
    for p1, p2 in itertools.combinations([parabolic_subgraph(j4, X) for X in subsets], 2):
        both = intersect(p1, p2)
        for _ in range(25):
            g = from_syllables(j4, random_word(j4, rng, 6))
            assert (member(g, p1) and member(g, p2)) == member(g, both)
            crossings += 1
            if crossings >= 1000:
                break
        if crossings >= 1000:
            break
    assert crossings >= 1000
    announce(6, f"normal forms conservative on {words} subgroup words over 10 "
                "parabolic subsets; membership respects intersections")


def test_criterion_7_garside():
    g = fixture("GAR3")
    atoms = {v: from_syllables(g, [(v, 1)]) for v in g.vertices}
    elements = {GroupElement.identity(g)}
    layer = set(elements)
    checked = 0
    for _ in range(4):
        layer = {e * a for e in layer for a in atoms.values()}
        elements |= layer
    for e in sorted(elements, key=lambda e: e.nf_str()):
        length = gar.letter_length(e)
        brute = {v for v, a in atoms.items()
                 if any(a * rest == e for rest in _layer(g, atoms, length - 1))} \
            if length else set()
        assert gar.atom_left_divisors(e) == brute
        checked += 1
    sf = gar.square_free(g)
    sizes = [0] * 4
    for e in sf:
        sizes[gar.letter_length(e)] += 1
    assert sizes == [1, 3, 3, 1]
    delta = gar.garside_element(g)
    div_l = {e for e in sf if gar.left_divides(e, delta)}
    div_r = {e for e in sf if gar.right_divides(e, delta)}
    assert div_l == div_r == set(sf)
    for a, b in itertools.combinations(sorted(atoms), 2):
        assert gar.lcm_atoms(g, {a, b}) == gar.lcm_bruteforce(atoms[a], atoms[b], 4)
    for name in ("GAR3", "RAAG-P6", "RAAG-C6"):
        assert gar.theta_cube_check(fixture(name)).ok
    assert not gar.theta_cube_check(broken_g()).ok
    announce(7, f"atom divisors match brute force on {checked} positive elements; "
                "square-free counts (1,3,3,1); balanced Garside element; "
                "lcms agree; cube condition separates valid from corrupted")


def _layer(g, atoms, length):
    layer = {GroupElement.identity(g)}
    for _ in range(length):
        layer = {e * a for e in layer for a in atoms.values()}
    return layer


def test_criterion_8_monoid_embedding():
    rng = random.Random(800)
    checked = 0
    for name in ("GAR3", "RAAG-P6", "RAAG-C6"):
        g = fixture(name)
        for _ in range(334):
            w1 = random_word(g, rng, 6, signed=False)
            w2 = random_word(g, rng, 6, signed=False)
            positive_eq = from_syllables(g, w1).piling == from_syllables(g, w2).piling
            group_eq = (from_syllables(g, w1)
                        * from_syllables(g, w2).inverse()).is_identity
            assert positive_eq == group_eq
            checked += 1
    announce(8, f"positive-piling equality matches group equality on {checked} "
                "positive word pairs")


def test_criterion_9_virtual_cactus():
    for n in (2, 3, 4):
        ivals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
        for p, q in ivals:
            assert vjn_equal(n, f"x[{p},{q}] x[{p},{q}]", "")
            for m, r in ivals:
                if q < m or r < p:
                    assert vjn_equal(n, f"x[{p},{q}] x[{m},{r}]",
                                     f"x[{m},{r}] x[{p},{q}]")
                elif p <= m and r <= q and (p, q) != (m, r):
                    assert vjn_equal(n, f"x[{p},{q}] x[{m},{r}]",
                                     f"x[{p + q - r},{p + q - m}] x[{p},{q}]")
        for i in range(1, n):
            assert vjn_equal(n, f"r{i} r{i}", "")
            for j in range(1, n):
                if abs(i - j) == 1:
                    assert vjn_equal(n, f"r{i} r{j} r{i}", f"r{j} r{i} r{j}")
                elif i != j:
                    assert vjn_equal(n, f"r{i} r{j}", f"r{j} r{i}")
        for p, q in ivals:
            for i in range(1, n):
                if i < p - 1 or i >= q + 1:
                    assert vjn_equal(n, f"r{i} x[{p},{q}]", f"x[{p},{q}] r{i}")
            if q < n:
                rs = " ".join(f"r{k}" for k in range(q, p - 1, -1))
                assert vjn_equal(n, f"x[{p},{q}] {rs}", f"{rs} x[{p + 1},{q + 1}]")
    rng = random.Random(900)
    for n in (3, 4):
        ivals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
        samples = []
        for _ in range(500):
            w1 = [rng.choice(ivals) for _ in range(rng.randrange(5))]
            w2 = [rng.choice(ivals) for _ in range(rng.randrange(5))]
            samples.append((w1, w2))
        assert jn_embedding_check(n, samples)
    announce(9, "all defining relations hold for n <= 4; cactus embedding "
                "agrees on 500 sampled pairs for n = 3, 4")


def test_criterion_10_thompson():
    rng = random.Random(1000)
    for _ in range(1000):
        x = D(rng.randrange(-2 ** 10, 2 ** 10 + 1), rng.randrange(0, 11))
        y = D(rng.randrange(-2 ** 10, 2 ** 10 + 1), rng.randrange(0, 11))
        assert h_apply_inv(x, h_apply(x, y)) == y
        assert h_apply(x, h_apply_inv(x, y)) == y
    triples = 0
    while triples < 500:
        x = D(rng.randrange(-256, 257), rng.randrange(0, 9))
        y = D(rng.randrange(-256, 257), rng.randrange(0, 9))
        if not y < x:
            continue
        t = D(rng.randrange(-256, 257), rng.randrange(0, 9))
        assert h_apply(x, h_apply(y, t)) == h_apply(h_apply(x, y), h_apply(x, t))
        triples += 1
    g = f_graph()
    pool = [TOP, D(0), D(1), D(-1, 1), D(3, 2), D(-2)]
    trivial = 0
    for i in range(200):
        word = [(rng.choice(pool), rng.choice([-1, 1]))
                for _ in range(rng.randrange(7))]
        if rng.random() < 0.35:
            word = word + [(v, -e) for v, e in reversed(word)]
        elt = from_syllables(g, word)
        grid = _thompson_grid(pool, elt)
        fixes = all(evaluate_letters(word, t) == t for t in grid)
        assert fixes == elt.is_identity
        trivial += elt.is_identity
    assert trivial >= 40
    announce(10, f"1000 round trips, 500 pointwise exchange identities, "
                 f"200 words ({trivial} trivial) match their piecewise-linear action")


def _thompson_grid(pool, elt):
    grid = {v for v in pool if v is not TOP}
    grid |= {v - 1 for v in pool if v is not TOP}
    if elt.piling:
        U = elt.piling[0]
        top = U[0][0]
        if top is TOP:
            below = U[1][0] if len(U) > 1 else D(0)
            grid.add(below + 1)
        else:
            below = U[1][0] if len(U) > 1 else top - 1
            grid.add(Dyadic.mid(below, top))
    return grid


def test_criterion_11_torsion_spot_check():
    rng = random.Random(1100)
    g = fixture("GAR3")
    done = 0
    while done < 200:
        elt = from_syllables(g, random_word(g, rng, 5))
        if elt.is_identity:
            continue
        power = elt
        for k in range(2, 7):
            power = power * elt
            assert not power.is_identity
        done += 1
    announce(11, "200 random nontrivial elements have no power collapsing "
                 "through exponent 6")
