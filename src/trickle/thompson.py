"""Thompson's group of dyadic piecewise-linear homeomorphisms as a lazy graph.

The vertex set is the dyadic rationals plus a top element.  Dyadics are
filtered by levels: level 0 is the integers, and each level splits every
gap (u, u') into the points u' - (u' - u) / 2**k, so the level-(p+1)
points in a level-p gap accumulate at its right end.  ``succ`` and
``pred`` walk one step right or left inside a level.

Every vertex x determines a homeomorphism of the line: the identity at
and above x, and below x it shifts the ladder v_0 = pred(x), v_{k+1} =
mid(v_k, x), v_{-k} = pred^k(v_0) one rung down, linearly on each rung.
The top vertex acts as the unit translation t -> t - 1.  Conjugation
inside the group matches evaluation, which is what makes the complete
totally ordered graph with phi_x = h_x a valid star-map structure.

All arithmetic is exact dyadic; there is no floating point here.
"""

from __future__ import annotations

from .dyadic import Dyadic, power_of_two_ratio
from .graph import INFINITY, GraphError, TrickleGraph

_WALK_CAP = 10 ** 5


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
# the level filtration


def _descend(lo: Dyadic, hi: Dyadic, x: Dyadic):
    """One level down: the gap of the next level containing x, with
    k >= 1 when x is exactly the k-th subdivision point (then x is new
    at that level)."""
    k = power_of_two_ratio(hi - lo, hi - x)
    if k is not None:
        # x = hi - (hi - lo) / 2**k, a subdivision point of this gap;
        # the next-level gap starting at x ends halfway to hi
        return x, Dyadic.mid(x, hi), k
    span = hi - lo
    d = hi - x
    while span.half() > d:
        span = span.half()
    return hi - span, hi - span.half(), None


def level(x: Dyadic) -> int:
    """Least p with x in the level-p point set."""
    if x.is_integer:
        return 0
    lo = Dyadic(x.floor())
    hi = lo + 1
    p = 0
    while True:
        lo, hi, k = _descend(lo, hi, x)
        p += 1
        if k is not None:
            return p


def _locate(p: int, x: Dyadic):
    """Consecutive level-p points (lo, hi) with lo <= x < hi."""
    lo = Dyadic(x.floor())
    hi = lo + 1
    for _ in range(p):
        if x == lo:
            hi = Dyadic.mid(lo, hi)
        else:
            lo, hi, _ = _descend(lo, hi, x)
    return lo, hi


def succ(p: int, x: Dyadic) -> Dyadic:
    """Right neighbour of x inside level p."""
    if level(x) > p:
        raise GraphError(f"{x} is not a level-{p} point")
    if p == 0:
        return x + 1
    lo, hi = _locate(p - 1, x)
    return Dyadic.mid(x, hi)


def pred(p: int, x: Dyadic) -> Dyadic:
    """One step left at level p.

    A point new at level p steps to the previous subdivision point; a
    point from a coarser level walks left there instead, since finer
    points only accumulate toward it from the left.
    """
    q = level(x)
    if q > p:
        raise GraphError(f"{x} is not a level-{p} point")
    if q == 0:
        return x - 1
    if q < p:
        return pred(p - 1, x)
    _, hi = _locate(p - 1, x)
    return x.double() - hi


# ----------------------------------------------------------------------
# the generating homeomorphisms, evaluated at dyadics


def _segment_image(a: Dyadic, b: Dyadic, c: Dyadic, y: Dyadic) -> Dyadic:
    """Image of y in [b, c] under the linear map [b, c] -> [a, b]."""
    s = power_of_two_ratio(b - a, c - b)
    if s is None:
        raise GraphError("rung lengths are not a power of two apart")
    return a + (y - b).scaled(s)


def _segment_preimage(a: Dyadic, b: Dyadic, c: Dyadic, y: Dyadic) -> Dyadic:
    """Preimage of y in [a, b] under the linear map [b, c] -> [a, b]."""
    s = power_of_two_ratio(c - b, b - a)
    if s is None:
        raise GraphError("rung lengths are not a power of two apart")
    return b + (y - a).scaled(s)


def _ladder(x: Dyadic):
    """p and the base rung v0 = pred(x) at x's own level."""
    p = level(x)
    return p, pred(p, x)


def h_apply(x, y: Dyadic) -> Dyadic:
    """Evaluate the generator of x at the dyadic y.

    Identity at and above x; one rung down on the ladder below x; unit
    translation below the ladder's first integer rung.
    """
    if x is TOP:
        return y - 1
    if y >= x:
        return y
    p, v0 = _ladder(x)
    if y >= v0:
        # climb toward x: the rung above a is mid(a, x)
        a, b = v0, Dyadic.mid(v0, x)
        steps = 0
        while b <= y:
            a, b = b, Dyadic.mid(b, x)
            steps += 1
            if steps > _WALK_CAP:
                raise GraphError("rung walk exceeded its cap")
        below = pred(p, v0) if a == v0 else a.double() - x
        return _segment_image(below, a, b, y)
    # descend below the base rung
    b = v0
    a = pred(p, v0)
    steps = 0
    while y < a:
        if a.is_integer:
            return y - 1
        b = a
        a = pred(p, a)
        steps += 1
        if steps > _WALK_CAP:
            raise GraphError("rung walk exceeded its cap")
    return _segment_image(pred(p, a), a, b, y)


def h_apply_inv(x, y: Dyadic) -> Dyadic:
    """Evaluate the inverse generator of x at the dyadic y."""
    if x is TOP:
        return y + 1
    if y >= x:
        return y
    p, v0 = _ladder(x)
    if y >= v0:
        # y in [a, b) with a >= v0; preimage one rung up, in [b, mid(b, x)]
        a, b = v0, Dyadic.mid(v0, x)
        steps = 0
        while b <= y:
            a, b = b, Dyadic.mid(b, x)
            steps += 1
            if steps > _WALK_CAP:
                raise GraphError("rung walk exceeded its cap")
        return _segment_preimage(a, b, Dyadic.mid(b, x), y)
    # y below the base rung: find consecutive rungs a <= y < b, tracking
    # the rung c above b
    b, c = v0, Dyadic.mid(v0, x)
    a = pred(p, v0)
    steps = 0
    while y < a:
        if a.is_integer and y <= a - 1:
            return y + 1
        b, c = a, b
        a = pred(p, a)
        steps += 1
        if steps > _WALK_CAP:
            raise GraphError("rung walk exceeded its cap")
    return _segment_preimage(a, b, c, y)


def evaluate_letters(letters, t: Dyadic) -> Dyadic:
    """Evaluate a word, rightmost letter first, at the dyadic t."""
    for v, e in reversed(list(letters)):
        t = h_apply(v, t) if e > 0 else h_apply_inv(v, t)
    return t


# ----------------------------------------------------------------------
# the lazy graph


def _phi(x, y):
    if y is TOP:
        return TOP
    return h_apply(x, y)


def _phi_inv(x, y):
    if y is TOP:
        return TOP
    return h_apply_inv(x, y)


def f_graph() -> TrickleGraph:
    """Complete graph on the dyadics plus a top vertex, totally ordered,
    with the generator homeomorphisms as star maps."""
    return TrickleGraph.lazy(
        edge=lambda x, y: x != y,
        less=lambda x, y: x is not TOP and (y is TOP or x < y),
        mu=INFINITY,
        phi=_phi,
        phi_inv=_phi_inv,
        contains=is_vertex,
        parse_vertex=parse_vertex,
        format_vertex=format_vertex,
        name="thompson-f",
    )
