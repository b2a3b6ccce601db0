import random

import pytest

from trickle.dyadic import Dyadic
from trickle.families import cactus, fixture, gar3
from trickle.graph import GraphError
from trickle.pilings import format_word, from_syllables, parse_word
from trickle.syllabic import (OrbitBoundExceeded, apply_exchange, apply_merge,
                              exchange_connected, is_syllabically_reduced, syllabic_reduce)

A, B, C = "[1,3]", "[1,2]", "[2,3]"


@pytest.fixture(scope="module")
def j3():
    return cactus(3)


@pytest.fixture(scope="module")
def g3():
    return gar3()


def test_merge(j3, g3):
    assert apply_merge(g3, (("x", 1), ("x", -1)), 0) == ()
    assert apply_merge(j3, ((A, 1), (A, 1)), 0) == ()
    assert apply_merge(g3, (("x", 1), ("x", 2)), 0) == (("x", 3),)
    with pytest.raises(GraphError):
        apply_merge(g3, (("x", 1), ("y", 1)), 0)


def test_exchange(j3, g3):
    assert apply_exchange(g3, (("x", 1), ("y", 1)), 0) == (("z", 1), ("x", 1))
    assert apply_exchange(j3, ((A, 1), (B, 1)), 0) == ((C, 1), (A, 1))
    assert apply_exchange(g3, (("y", 1), ("z", 1)), 0) == (("z", 1), ("y", 1))
    with pytest.raises(GraphError):
        apply_exchange(j3, ((B, 1), (C, 1)), 0)


def test_moves_preserve_the_element(j3, g3):
    rng = random.Random(2)
    for g in (j3, g3):
        for _ in range(80):
            word = _random_word(g, rng, 6)
            elt = from_syllables(g, word)
            for i in range(len(word) - 1):
                x, y = word[i][0], word[i + 1][0]
                if x == y:
                    merged = apply_merge(g, word, i)
                    assert from_syllables(g, merged) == elt
                    assert len(merged) < len(word)
                elif g.edge(x, y):
                    moved = apply_exchange(g, word, i)
                    assert from_syllables(g, moved) == elt
                    assert len(moved) == len(word)
                    assert apply_exchange(g, moved, i) == word  # reversible


def _random_word(g, rng, max_len):
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        v = rng.choice(g.vertices)
        m = g.mu(v)
        a = rng.choice([1] if m == 2 else [-2, -1, 1, 2])
        out.append((v, a))
    return tuple(out)


def test_syllabic_reduce_examples(j3, g3):
    assert syllabic_reduce(g3, (("x", 1), ("y", 1), ("y", -1))) == (("x", 1),)
    assert syllabic_reduce(j3, ((C, 1), (A, 1))) == ((A, 1), (B, 1))
    assert syllabic_reduce(j3, ()) == ()


def test_exponents_are_read_mod_mu():
    # x^0 and x^mu(x) are the identity: no syllable is left of them
    cstar, f = fixture("CSTAR"), fixture("F")
    assert cstar.mu("u") == 3 and cstar.mu("x") == 2
    for g, word, reduced in ((cstar, (("u", 3),), ()),
                             (cstar, (("x", 2),), ()),
                             (cstar, (("x", 0), ("y", 1)), (("y", 1),)),
                             (f, ((Dyadic(0), 0),), ())):
        assert syllabic_reduce(g, word) == reduced
        assert not is_syllabically_reduced(g, word)
    assert syllabic_reduce(cstar, (("u", 4),)) == (("u", 1),)


def test_is_reduced(j3):
    assert is_syllabically_reduced(j3, ((A, 1), (B, 1)))
    assert not is_syllabically_reduced(j3, ((A, 1), (A, 1)))
    assert is_syllabically_reduced(j3, ((B, 1), (C, 1)))


def test_a_non_canonical_exponent_is_not_reduced():
    cstar = fixture("CSTAR")
    assert is_syllabically_reduced(cstar, (("u", 1),))
    assert not is_syllabically_reduced(cstar, (("u", 4),))
    assert not is_syllabically_reduced(cstar, (("u", -2),))


def test_exchange_connected_examples(j3):
    assert exchange_connected(j3, ((A, 1), (B, 1)), ((C, 1), (A, 1)))
    assert not exchange_connected(j3, ((B, 1), (C, 1)), ((C, 1), (B, 1)))
    w = ((A, 1), (B, 1))
    assert exchange_connected(j3, w, w)


def test_exchange_connected_preconditions(j3):
    with pytest.raises(GraphError, match="length"):
        exchange_connected(j3, ((A, 1),), ((A, 1), (B, 1)))
    with pytest.raises(GraphError, match="reduced"):
        exchange_connected(j3, ((A, 1), (A, 1)), ((B, 1), (B, 1)))
    # u^4 is u on CSTAR, but not a reduced word
    with pytest.raises(GraphError, match="reduced"):
        exchange_connected(fixture("CSTAR"), (("u", 4),), (("u", 1),))


def test_orbit_bound(j3):
    # (B, A) is reduced, same length, but in a different exchange orbit;
    # a bound of one visited word is hit before the search can conclude
    with pytest.raises(OrbitBoundExceeded):
        exchange_connected(j3, ((A, 1), (B, 1)), ((B, 1), (A, 1)), bound=1)
    assert not exchange_connected(j3, ((A, 1), (B, 1)), ((B, 1), (A, 1)))


def test_cross_validation_against_pilings(j3, g3):
    # element equality == (reduce, equal lengths, exchange-connected)
    rng = random.Random(9)
    agree = 0
    for g in (j3, g3, cactus(4)):
        for _ in range(150):
            w1 = _random_word(g, rng, 5)
            w2 = _random_word(g, rng, 5)
            if rng.random() < 0.4 and w1:
                w2 = _shuffle_by_relations(g, rng, w1)
            same_elt = from_syllables(g, w1) == from_syllables(g, w2)
            r1, r2 = syllabic_reduce(g, w1), syllabic_reduce(g, w2)
            same_tits = (len(r1) == len(r2)
                         and exchange_connected(g, r1, r2, bound=10 ** 4))
            assert same_elt == same_tits
            agree += 1
    assert agree == 450


def _shuffle_by_relations(g, rng, word):
    word = tuple(word)
    for _ in range(6):
        if len(word) < 2:
            break
        i = rng.randrange(len(word) - 1)
        x, y = word[i][0], word[i + 1][0]
        if x != y and g.edge(x, y):
            word = apply_exchange(g, word, i)
    return word


def test_orbit_words_map_to_one_element(j3):
    rng = random.Random(4)
    for _ in range(40):
        word = syllabic_reduce(j3, _random_word(j3, rng, 5))
        elt = from_syllables(j3, word)
        seen = {word}
        frontier = [word]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(len(w) - 1):
                    if g_edge := j3.edge(w[i][0], w[i + 1][0]):
                        m = apply_exchange(j3, w, i)
                        if m not in seen:
                            seen.add(m)
                            nxt.append(m)
            frontier = nxt
        assert all(from_syllables(j3, w) == elt for w in seen)


def test_parse_and_format(g3):
    word = parse_word(g3, "x^2 y z^-1")
    assert word == [("x", 2), ("y", 1), ("z", -1)]
    assert format_word(g3, word) == "x^2 y z^-1"
