"""Exact dyadic rationals num / 2**exp, canonical (num odd or exp == 0)."""

from __future__ import annotations

import reprlib

# Largest e accepted in a parsed n/2**e: one such number holds 1.25 MB.
MAX_PARSED_EXP = 10 ** 7
# Least e for which 2**e has more than 4300 decimal digits, CPython's default
# int-to-str limit; from there on a denominator is written 2**e, and a
# numerator of e bits or more in hex, which int() reads in linear time.
POWER_FORM_EXP = (10 ** 4300).bit_length()


class Dyadic:
    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp and not num & 1:
            shift = min(exp, (num & -num).bit_length() - 1)
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, *a):
        raise AttributeError("Dyadic is immutable")

    # -- parsing / rendering ------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        text = text.strip()
        p, slash, q = text.partition("/")
        power = q.startswith("2**")
        try:
            num = int(p, 16 if p.lstrip("+-").startswith("0x") else 10)
            den = int(q[3:] if power else q) if slash else 1
        except ValueError:
            raise ValueError(f"{reprlib.repr(text)} is not a dyadic rational "
                             "like 3, 3/8, 3/2**3 or 0x3/8") from None
        if power:
            if not 0 <= den <= MAX_PARSED_EXP:
                raise ValueError(f"{reprlib.repr(text)}: the exponent of 2 must lie "
                                 f"in [0, {MAX_PARSED_EXP}]")
            return cls(num, den)
        if den <= 0 or den & (den - 1):
            raise ValueError(f"{reprlib.repr(text)}: denominator must be a positive power of two")
        return cls(num, den.bit_length() - 1)

    def __str__(self):
        """n, n/d, or n/2**e where d would have more than 4300 digits; n in
        hex from POWER_FORM_EXP bits on, where it could have more."""
        num = self.num if self.num.bit_length() < POWER_FORM_EXP else hex(self.num)
        if self.exp == 0:
            return str(num)
        if self.exp >= POWER_FORM_EXP:
            return f"{num}/2**{self.exp}"
        return f"{num}/{1 << self.exp}"

    def __repr__(self):
        return f"Dyadic({self})"

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other):
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp), e

    def __add__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        a, b, e = self._aligned(other)
        return Dyadic(a - b, e)

    def __rsub__(self, other):
        return Dyadic(other) - self

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def scaled(self, k: int) -> "Dyadic":
        """self * 2**k, exactly."""
        return Dyadic(self.num, self.exp - k)

    def double(self):
        return self.scaled(1)

    def half(self):
        return self.scaled(-1)

    @staticmethod
    def mid(a: "Dyadic", b: "Dyadic") -> "Dyadic":
        return (a + b).half()

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        elif not isinstance(other, Dyadic):
            return NotImplemented
        a, b, _ = self._aligned(other)
        return (a > b) - (a < b)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        return isinstance(other, Dyadic) and self.num == other.num and self.exp == other.exp

    def __hash__(self):
        return hash((self.num, self.exp))

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    # -- structure -----------------------------------------------------

    @property
    def is_integer(self):
        return self.exp == 0

    def floor(self) -> int:
        return self.num >> self.exp

    def __float__(self):
        return self.num / (1 << self.exp)


def power_of_two_ratio(a: Dyadic, b: Dyadic):
    """k with a == b * 2**k, or None when a/b is not a power of two.

    Both arguments must be positive.
    """
    if a.num <= 0 or b.num <= 0:
        raise ValueError("power_of_two_ratio needs positive arguments")
    if a.num != b.num:
        return None
    return b.exp - a.exp
