import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trickle.dyadic import Dyadic
from trickle.graph import GraphError
from trickle.pilings import element_from_text, from_syllables
from trickle.thompson import (TOP, evaluate_letters, f_graph, h_apply,
                              h_apply_inv, h_pow, level, pred, succ)

D = Dyadic

dyadics = st.builds(D, st.integers(-3000, 3000), st.integers(0, 10))


def test_level_examples():
    assert level(D(3)) == 0
    assert level(D(-1, 1)) == 1
    assert level(D(1, 2)) == 2
    # subdivision points accumulate rightward, so 3/4 = 1 - 1/4 is level 1
    assert level(D(3, 2)) == 1
    assert level(D(3, 3)) == 2
    assert level(D(9, 4)) == 3


def _level_sets(depth, bits):
    """Levels of the points of [-2, 2] with denominator <= 2**bits, by
    literally subdividing gaps: every level-p gap (u, u') gains the points
    u' - (u' - u) / 2**k.  Gaps are aligned to their power-of-two length, so
    a gap no longer than 2**-bits holds no point of that denominator."""
    fine = Fraction(1, 2 ** bits)
    levels = {Fraction(n): 0 for n in range(-2, 3)}
    gaps = [(Fraction(n), Fraction(n + 1)) for n in range(-2, 2)]
    for p in range(1, depth + 1):
        finer = []
        for lo, hi in gaps:
            step = hi - lo
            while step > fine:
                finer.append((hi - step, hi - step / 2))
                levels.setdefault(hi - step / 2, p)
                step /= 2
        gaps = finer
    return levels


def test_level_matches_subdivision_oracle():
    depth, bits = 5, 10
    levels = _level_sets(depth, bits)
    grid = [D(n, bits) for n in range(-2 << bits, 2 << bits)]
    for x in grid:
        exact = Fraction(x.num, 2 ** x.exp)
        if level(x) <= depth:
            assert levels.get(exact) == level(x), x
        else:
            assert exact not in levels, x
    # succ is the right neighbour inside a level, and pred at a point's own
    # level is its left neighbour
    for p in range(depth + 1):
        points = sorted(v for v, q in levels.items() if q <= p)
        for left, right in zip(points, points[1:]):
            x = D(left.numerator, left.denominator.bit_length() - 1)
            nxt = succ(p, x)
            if nxt.exp <= bits:
                assert Fraction(nxt.num, 2 ** nxt.exp) == right, (p, x)
            y = D(right.numerator, right.denominator.bit_length() - 1)
            if level(y) == p:
                assert Fraction(pred(p, y).num, 2 ** pred(p, y).exp) == left, (p, y)


def test_succ_pred_examples():
    assert succ(0, D(3)) == D(4)
    assert succ(1, D(-1, 1)) == D(-1, 2)
    assert pred(1, D(-1, 1)) == D(-1)
    assert pred(0, D(0)) == D(-1)
    assert succ(1, D(0)) == D(1, 1)
    # a coarser point walks left at its own level: t_2(1/2) = t_1(1/2)
    assert pred(2, D(1, 1)) == D(0)
    assert pred(2, D(1, 2)) == D(0)


def test_succ_pred_membership_guard():
    with pytest.raises(GraphError):
        succ(0, D(1, 1))
    with pytest.raises(GraphError):
        pred(1, D(1, 2))


@settings(max_examples=150, deadline=None)
@given(dyadics, st.integers(0, 3))
def test_pred_undoes_succ(x, extra):
    # the right step always lands on a point that is new at its level,
    # so the left walk undoes it; the converse only holds at x's level
    p = level(x) + extra
    assert pred(p, succ(p, x)) == x
    if extra == 0 and p > 0:
        assert succ(p, pred(p, x)) == x


def test_h_examples():
    assert h_apply(TOP, D(5, 1)) == D(3, 1)
    assert h_apply(D(0), D(-1, 2)) == D(-1, 1)
    assert h_apply(D(0), D(1, 1)) == D(1, 1)        # identity above the vertex
    assert h_apply_inv(TOP, D(0)) == D(1)
    # 100,009 rungs above the base rung of 0, and back
    y = D(-1, 100010)
    assert h_apply(D(0), y) == D(-1, 100009)
    assert h_apply_inv(D(0), h_apply(D(0), y)) == y
    assert h_apply(D(0), h_apply_inv(D(0), y)) == y


@settings(max_examples=200, deadline=None)
@given(dyadics, dyadics)
def test_h_round_trip(x, y):
    assert h_apply_inv(x, h_apply(x, y)) == y
    assert h_apply(x, h_apply_inv(x, y)) == y


@settings(max_examples=150, deadline=None)
@given(dyadics, dyadics, dyadics)
def test_h_monotone(x, y, z):
    if y < z:
        assert h_apply(x, y) < h_apply(x, z)


@settings(max_examples=100, deadline=None)
@given(dyadics, dyadics)
def test_h_fixes_points_at_or_above(x, y):
    if y >= x:
        assert h_apply(x, y) == y


def test_conjugation_identity_random():
    # h_x . h_y = h_{h_x(y)} . h_x pointwise, for y < x
    rng = random.Random(21)
    for _ in range(300):
        x = D(rng.randrange(-100, 101), rng.randrange(0, 7))
        y = D(rng.randrange(-100, 101), rng.randrange(0, 7))
        if not y < x:
            continue
        t = D(rng.randrange(-100, 101), rng.randrange(0, 7))
        lhs = h_apply(x, h_apply(y, t))
        rhs = h_apply(h_apply(x, y), h_apply(x, t))
        assert lhs == rhs


def test_conjugation_identity_with_top():
    for y, t in ((D(0), D(-1, 2)), (D(3, 1), D(1)), (D(-2), D(5, 3))):
        lhs = h_apply(TOP, h_apply(y, t))
        rhs = h_apply(h_apply(TOP, y), h_apply(TOP, t))
        assert lhs == rhs


def test_h_maps_each_rung_one_down():
    # build the ladder of x from the walk definitions and check that the
    # map sends rung [v_k, v_{k+1}] linearly onto [v_{k-1}, v_k]
    rng = random.Random(17)
    seeded = [D(rng.randrange(-400, 401), rng.randrange(0, 12)) for _ in range(100)]
    for x in (D(0), D(1, 1), D(-3, 2), D(5), D(7, 3), *seeded):
        p = level(x)
        v0 = pred(p, x)
        ladder = [pred(p, pred(p, pred(p, v0))), pred(p, pred(p, v0)),
                  pred(p, v0), v0]
        up = v0
        for _ in range(4):
            up = Dyadic.mid(up, x)
            ladder.append(up)
        for lo, hi in zip(ladder[1:-1], ladder[2:]):
            below = ladder[ladder.index(lo) - 1]
            assert h_apply(x, lo) == below
            assert h_apply(x, hi) == lo
            assert h_apply(x, Dyadic.mid(lo, hi)) == Dyadic.mid(below, lo)


def _closed_form_cases(rng):
    """Seeded (x, y) pairs covering every branch of the rung index: TOP as
    x or y, integer x, y at or above x, y on the ladder above v_0, on the
    prefix rungs of v_0 and below floor(v_0)."""
    for _ in range(80):
        x = D(rng.randint(-600, 600), rng.choice([0, 0, *range(1, 10)]))
        v0 = x - D(1, x.exp)
        y = rng.choice([
            D(rng.randint(-6000, 6000), rng.randint(0, 12)),      # anywhere
            x - D(rng.randint(1, 1 << 12), x.exp + 12),           # above v0
            v0.floor() + D(v0.num % (1 << v0.exp) * rng.randint(0, 1023),
                           v0.exp + 10),                          # prefix rungs
            D(v0.floor() - rng.randint(1, 40)) + D(rng.randint(0, 63), 6),  # integer rungs
            x + D(rng.randint(0, 99), rng.randint(0, 4)),         # fixed: y >= x
        ])
        yield x, y
    for _ in range(15):
        yield TOP, D(rng.randint(-500, 500), rng.randint(0, 8))
        yield D(rng.randint(-50, 50), rng.randint(0, 4)), TOP


def test_phi_pow_closed_form_matches_iterated_generators():
    g = f_graph()
    rng = random.Random(16)
    checked = 0
    for x, y in _closed_form_cases(rng):
        up = down = y
        for k in range(1, 65):
            if y is not TOP:
                up, down = h_apply(x, up), h_apply_inv(x, down)
            assert g.phi_pow(x, k, y) == h_pow(x, k, y) == up, (x, k, y)
            assert g.phi_pow(x, -k, y) == h_pow(x, -k, y) == down, (x, -k, y)
            checked += 2
    assert checked >= 3000


def test_phi_pow_far_up_the_ladder():
    g = f_graph()
    assert g.phi_pow(D(0), -1_000_000, D(-1, 1)) == D(-1, 1_000_001)
    assert g.phi_pow(D(0), 1_000_000, D(-1, 1_000_001)) == D(-1, 1)
    # below the base rung of 0 the generator is the unit translation
    assert g.phi_pow(D(0), 1_000_000, D(-1, 1)) == D(-1_000_000)


def test_phi_pow_from_the_bottom_of_a_million_prefix_rungs():
    # v_0 of x is -1 + 0.11...1 with 10^6 one digits; y sits on its lowest
    # prefix rung, so a step up cuts v_0 after 1 and 2 of them
    x, y = D(-1, 1_000_001), D(-3, 2)
    assert h_pow(x, -1, y) == h_apply_inv(x, y) == D(-3, 3)
    assert h_pow(x, 1, y) == h_apply(x, y) == D(-3, 1)
    assert h_pow(x, -2, y) == h_apply_inv(x, D(-3, 3)) == D(-3, 4)


# ----------------------------------------------------------------------
# the lazy graph and its word problem


def test_nf_examples():
    g = f_graph()
    assert element_from_text(g, "0 inf").nf_str() == "inf 1"
    assert (element_from_text(g, "0 inf")
            == element_from_text(g, "inf 1"))
    assert element_from_text(g, "inf 0") != element_from_text(g, "1 inf")
    assert element_from_text(g, "inf inf^-1").is_identity


def test_complete_graph_gives_single_stratum():
    g = f_graph()
    rng = random.Random(5)
    pool = [TOP, D(0), D(1), D(-1, 1), D(3, 2)]
    for _ in range(40):
        word = [(rng.choice(pool), rng.choice([-1, 1]))
                for _ in range(rng.randrange(6))]
        elt = from_syllables(g, word)
        assert len(elt.piling) <= 1


def _witness_grid(pool, elt):
    grid = set()
    for v in pool:
        if v is not TOP:
            grid.add(v)
            grid.add(v - 1)
    if elt.piling:
        U = elt.piling[0]
        top = U[0][0]
        below = U[1][0] if len(U) > 1 else (D(0) if top is TOP else top - 1)
        if top is TOP:
            grid.add(below + 1)
        else:
            grid.add(Dyadic.mid(below, top) if below < top else top - 1)
    return grid


def test_trivial_word_iff_map_fixes_witness_grid():
    g = f_graph()
    rng = random.Random(6)
    pool = [TOP, D(0), D(1), D(-1, 1), D(3, 2), D(-2)]
    trivial_seen = 0
    for i in range(150):
        word = [(rng.choice(pool), rng.choice([-1, 1]))
                for _ in range(rng.randrange(7))]
        if rng.random() < 0.3:
            half = [(v, e) for v, e in word]
            word = half + [(v, -e) for v, e in reversed(half)]
        elt = from_syllables(g, word)
        grid = _witness_grid(pool, elt)
        fixes = all(evaluate_letters(word, t) == t for t in grid)
        assert fixes == elt.is_identity
        trivial_seen += elt.is_identity
    assert trivial_seen > 20


def test_evaluate_letters_matches_composition():
    word = [(D(0), 1), (TOP, -1), (D(1, 1), 1)]
    t = D(-3, 2)
    by_hand = h_apply(D(0), h_apply_inv(TOP, h_apply(D(1, 1), t)))
    assert evaluate_letters(word, t) == by_hand
    # a syllable acts exponent times: the normal form of 0 0 is 0^2
    nf = from_syllables(f_graph(), [(D(0), 1), (D(0), 1)]).nf()
    assert nf == [(D(0), 2)]
    assert evaluate_letters(nf, t) == h_apply(D(0), h_apply(D(0), t)) == D(-5, 1)
    assert evaluate_letters([(D(1, 1), -2)], t) == h_apply_inv(D(1, 1), h_apply_inv(D(1, 1), t))
