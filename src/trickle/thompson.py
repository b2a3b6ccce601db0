"""Thompson's group of dyadic piecewise-linear homeomorphisms as a lazy graph.

The vertex set is the dyadic rationals plus a top element.  Dyadics are
filtered by levels: level 0 is the integers, and each level splits every
gap (u, u') into the points u' - (u' - u) / 2**k, so the level-(p+1)
points in a level-p gap accumulate at its right end.  ``succ`` and
``pred`` walk one step right or left inside a level.

Read in binary, a non-integer x is new at level 1 + (the number of 0s
among its digits after the point).  So ``pred(p, x)`` takes away the
last binary digit of x (1 for an integer), and ``succ(p, x)`` adds
2**-(p + the number of 1s after the point).

Every vertex x determines a homeomorphism of the line: the identity at
and above x, and below x it shifts the ladder v_0 = pred(x), v_{k+1} =
mid(v_k, x), v_{-k} = pred^k(v_0) one rung down, linearly on each rung.
With u the last digit of x, the rungs are x - u / 2**k up to x, below
v_0 = x - u the prefixes of v_0's digits down to floor(v_0), and below
that the integers.  The top vertex acts as the unit translation
t -> t - 1.  Conjugation inside the group matches evaluation, which is
what makes the complete totally ordered graph with phi_x = h_x a valid
star-map structure.

The rung index j names the rung [v_j, v_{j+1}].  With m the number of 1
digits of v_0 after the point, v_j is x - u / 2**j for j >= 0, v_0 cut
after its (m + j)-th 1 digit for -m <= j <= 0, and floor(v_0) + j + m
below that.  The k-th power of the generator sends rung j affinely onto
rung j - k, so ``h_pow`` evaluates any power in closed form; ``h_apply``
and ``h_apply_inv`` take one step and stay as the independent reference.

All arithmetic is exact dyadic; there is no floating point here.
"""

from __future__ import annotations

from .dyadic import Dyadic, power_of_two_ratio
from .graph import INFINITY, GraphError, TrickleGraph


class _Top:
    """The vertex above every dyadic."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


TOP = _Top()


def is_vertex(v) -> bool:
    return v is TOP or isinstance(v, Dyadic)


def parse_vertex(token: str):
    return TOP if token == "inf" else Dyadic.parse(token)


def format_vertex(v) -> str:
    return "inf" if v is TOP else str(v)


# ----------------------------------------------------------------------
# the level filtration, read off the binary digits


def _digit(x: Dyadic) -> Dyadic:
    """The last binary digit of x: 2**-exp, or 1 for an integer."""
    return Dyadic(1, x.exp)


def _ones(x: Dyadic) -> int:
    """How many binary digits of x after the point are 1."""
    return (x.num & ((1 << x.exp) - 1)).bit_count()


def level(x: Dyadic) -> int:
    """Least p with x in the level-p point set."""
    return 0 if x.is_integer else x.exp - _ones(x) + 1


def succ(p: int, x: Dyadic) -> Dyadic:
    """Right neighbour of x inside level p."""
    if level(x) > p:
        raise GraphError(f"{x} is not a level-{p} point")
    return x + Dyadic(1, p + _ones(x))


def pred(p: int, x: Dyadic) -> Dyadic:
    """One step left at level p: x without its last binary digit."""
    if level(x) > p:
        raise GraphError(f"{x} is not a level-{p} point")
    return x - _digit(x)


# ----------------------------------------------------------------------
# the generating homeomorphisms, evaluated at dyadics


def _segment(x: Dyadic, y: Dyadic):
    """Consecutive rungs a <= y < b of the ladder below x, for y < x."""
    v0 = x - _digit(x)
    if y >= v0:
        # rungs x - w for w = u, u/2, ...: w is the least power of two >= x - y
        d = x - y
        w = Dyadic(1, d.exp - (d.num - 1).bit_length())
        return x - w, x - w.half()
    if y.floor() < v0.floor():
        a = Dyadic(y.floor())
        return a, a + 1
    # the rungs in [floor(v0), v0] are the prefixes of v0's binary digits;
    # y has a 0 where it first differs from v0, which has a 1, so y lies
    # between the prefixes that stop just before and just after that digit
    e = max(y.exp, v0.exp)
    n = y.num << (e - y.exp)
    h = ((v0.num << (e - v0.exp)) ^ n).bit_length() - 1
    return Dyadic(n >> (h + 1), e - h - 1), Dyadic((n >> h) + 1, e - h)


def _affine(y: Dyadic, a: Dyadic, b: Dyadic, c: Dyadic, d: Dyadic) -> Dyadic:
    """Image of y under the increasing linear map [a, b] -> [c, d]; rung
    lengths are powers of two, so the slope is a power of two."""
    return c + (y - a).scaled(power_of_two_ratio(d - c, b - a))


def h_apply(x, y: Dyadic) -> Dyadic:
    """Evaluate the generator of x at the dyadic y: identity at and above
    x, one rung down on the ladder below x."""
    if x is TOP:
        return y - 1
    if y >= x:
        return y
    a, b = _segment(x, y)
    # the rung under a: x - 2w above the base rung, a less its last digit below
    under = a.double() - x if a > x - _digit(x) else a - _digit(a)
    return _affine(y, a, b, under, a)


def h_apply_inv(x, y: Dyadic) -> Dyadic:
    """Evaluate the inverse generator of x at the dyadic y."""
    if x is TOP:
        return y + 1
    if y >= x:
        return y
    a, b = _segment(x, y)
    # [a, b] is the image of the rung [b, c] above it
    return _affine(y, a, b, b, _segment(x, b)[1])


def evaluate_letters(letters, t: Dyadic) -> Dyadic:
    """Evaluate a word of (vertex, exponent) syllables, rightmost first,
    at the dyadic t."""
    for v, e in reversed(list(letters)):
        step = h_apply if e > 0 else h_apply_inv
        for _ in range(abs(e)):
            t = step(v, t)
    return t


def _rung(x: Dyadic, j: int) -> Dyadic:
    """The rung point v_j of the ladder below x."""
    u = _digit(x)
    if j >= 0:
        return x - u.scaled(-j)
    v0 = x - u
    m = _ones(v0)
    if j < -m:
        return Dyadic(v0.floor() + j + m)
    # each rung down drops the last 1 digit: cut below the least t that has
    # -j of them under it, found by bisection so the cost is O(bits log bits)
    n, lo, hi = v0.num, 0, v0.exp
    while lo < hi:
        t = (lo + hi) // 2
        if (n & ((1 << t) - 1)).bit_count() < -j:
            lo = t + 1
        else:
            hi = t
    return Dyadic(n >> lo << lo, v0.exp)


def _rung_index(x: Dyadic, a: Dyadic) -> int:
    """j with v_j = a, for a rung point a of the ladder below x: above
    v_0, x - a = u / 2**j; on the prefix rungs, a has m + j 1 digits;
    below floor(v_0), a = floor(v_0) + j + m."""
    v0 = x - _digit(x)
    if a >= v0:
        return (x - a).exp - x.exp
    if a.is_integer:
        return a.floor() - v0.floor() - _ones(v0)
    return _ones(a) - _ones(v0)


def h_pow(x, k: int, y):
    """The generator of x to the power k at y, in closed form: the rung
    of y goes affinely onto the rung k below it.  Its size grows with |k|,
    as the rungs near x have denominators 2**j."""
    if y is TOP:
        return TOP
    if x is TOP:
        return y - k
    if y >= x:
        return y
    a, b = _segment(x, y)
    j = _rung_index(x, a) - k
    return _affine(y, a, b, _rung(x, j), _rung(x, j + 1))


# ----------------------------------------------------------------------
# the lazy graph


def f_graph() -> TrickleGraph:
    """Complete graph on the dyadics plus a top vertex, totally ordered,
    with the generator homeomorphisms as star maps."""
    return TrickleGraph.lazy(
        mu=INFINITY,
        phi_pow=h_pow,
        contains=is_vertex,
        parse_vertex=parse_vertex,
        format_vertex=format_vertex,
        name="thompson-f",
    )
