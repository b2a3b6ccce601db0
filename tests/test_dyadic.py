import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trickle.dyadic import MAX_PARSED_EXP, POWER_FORM_EXP, Dyadic, power_of_two_ratio

D = Dyadic

dyadics = st.builds(D, st.integers(-10 ** 6, 10 ** 6), st.integers(0, 20))


def test_canonical_form():
    assert D(4, 2) == D(1)
    assert D(6, 1) == D(3)
    assert D(0, 7) == D(0)
    assert D(2, -1) == D(4)
    assert str(D(3, 2)) == "3/4"
    assert str(D(-8, 2)) == "-2"
    big = D(3 << 20_000, 20_001)
    assert (big.num, big.exp) == (3, 1)


def test_parse():
    assert D.parse("-1/2") == D(-1, 1)
    assert D.parse("3/4") == D(3, 2)
    assert D.parse("5") == D(5)
    assert D.parse("6/4") == D(3, 1)
    with pytest.raises(ValueError):
        D.parse("1/3")
    with pytest.raises(ValueError):
        D.parse("1/0")


def test_parse_power_of_two_denominator():
    assert D.parse("3/2**3") == D(3, 3)
    assert D.parse("-1/2**1000001") == D(-1, 1000001)
    assert D.parse("6/2**0") == D(6)
    assert D.parse("4/2**2") == D(1)
    for bad in ("1/2**-1", f"1/2**{MAX_PARSED_EXP + 1}", "1/2**x", "1/2**"):
        with pytest.raises(ValueError):
            D.parse(bad)


def test_str_writes_2_to_the_e_only_past_the_digit_limit():
    first = POWER_FORM_EXP
    assert 1 << (first - 1) < 10 ** 4300 <= 1 << first   # 2**first has 4301 digits
    for e in range(first - 20, first + 20):
        x = D(-1, e)
        text = str(x)
        assert text == (f"-1/{1 << e}" if e < first else f"-1/2**{e}")
        assert D.parse(text) == x
    assert str(D(-1, 1000001)) == "-1/2**1000001"


def test_str_writes_a_numerator_past_the_digit_limit_in_hex():
    first = POWER_FORM_EXP
    for bits in range(first - 3, first + 4):
        for num in (1 << (bits - 1)) + 1, -(1 << (bits - 1)) - 1:
            for exp in (0, 5, first):
                x = D(num, exp)
                text = str(x)
                assert text.lstrip("-").startswith("0x") == (bits >= first)
                assert D.parse(text) == x
    x = D((1 << MAX_PARSED_EXP) + 1, MAX_PARSED_EXP)
    assert D.parse(str(x)) == x
    assert D.parse("-0x1f/8") == D(-31, 3)


@settings(max_examples=200, deadline=None)
@given(dyadics)
def test_parse_round_trip(x):
    assert D.parse(str(x)) == x


@settings(max_examples=200, deadline=None)
@given(dyadics, dyadics)
def test_field_ops(a, b):
    assert a + b - b == a
    assert (a + b) - a == b
    assert -(-a) == a
    assert Dyadic.mid(a, b).double() == a + b


@settings(max_examples=200, deadline=None)
@given(dyadics, dyadics)
def test_order(a, b):
    # floats are exact at these sizes
    assert (a < b) == (float(a) < float(b))
    if a < b:
        assert a < Dyadic.mid(a, b) < b


def test_floor():
    assert D(3, 1).floor() == 1
    assert D(-3, 1).floor() == -2
    assert D(4).floor() == 4
    assert D(-1, 3).floor() == -1


def test_integer_interop():
    assert D(1, 1) + 1 == D(3, 1)
    assert 1 - D(1, 1) == D(1, 1)
    assert D(1, 1) <= 1
    assert D(5) == 5


def test_power_of_two_ratio():
    assert power_of_two_ratio(D(1), D(1, 2)) == 2
    assert power_of_two_ratio(D(1, 2), D(1)) == -2
    assert power_of_two_ratio(D(3, 1), D(3, 3)) == 2
    assert power_of_two_ratio(D(3), D(1)) is None
    with pytest.raises(ValueError):
        power_of_two_ratio(D(-1), D(1))


def test_immutability():
    x = D(1, 1)
    with pytest.raises(AttributeError):
        x.num = 3
