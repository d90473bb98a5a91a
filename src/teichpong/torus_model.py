"""Slopes as curves on the unit-area flat torus, and the thick-part constants.

A point tau of the model plane is read as the lattice Z + tau Z rescaled to
unit area.  A slope (p, q) is the curve in the class of p + q tau; its
"length" is the flat length |p + q tau| / sqrt(Im tau).  Extremal length is
the square of this, which makes the supremum formula for the model distance
hold with the one-half prefactor, and makes the length-ratio bound hold with
a single exponent (strictly sharper than the general two-exponent bound,
both are asserted in tests).

The thick-part constants (systole floor, marking bound, short-curve count
coefficient) are closed forms in the largest admissible trace; see
derive_thick_params.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import hyp2
from .errors import ConstantDerivationError, FViolationError, InvalidInputError
from .hyp2 import Point, Record, Value
from .mcg import min_translation


class Slope(Value):
    """Primitive integer pair in canonical form: q > 0, or (p, q) = (1, 0)."""

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        if math.gcd(abs(p), abs(q)) != 1:
            raise InvalidInputError(f"slope ({p},{q}) is not primitive")
        if not (q > 0 or (q == 0 and p == 1)):
            raise InvalidInputError(f"slope ({p},{q}) is not canonical (need q > 0, or (1,0))")
        Record.__init__(self, p, q)

    @classmethod
    def canonical(cls, p: int, q: int) -> "Slope":
        if (p, q) == (0, 0):
            raise InvalidInputError("zero vector is not a slope")
        g = math.gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return cls(p, q)

    def __str__(self):
        return f"{self.p}/{self.q}"


def curve_length(s: Slope, tau: Point) -> float:
    """Flat length on the unit-area torus: |p + q tau| / sqrt(Im tau)."""
    return abs(s.p + s.q * tau.z) / math.sqrt(tau.y)


def teich_dist(tau1: Point, tau2: Point) -> float:
    """The model distance (the plane metric and the torus metric agree)."""
    return hyp2.dist(tau1, tau2)


#: deepest Farey order kerckhoff_dist accepts; the cost, which grows with
#: log(depth), needs no cap, but `teich --farey-depth` keeps exiting 2 beyond it
MAX_FAREY_DEPTH = 2000
#: the walk from a critical slope stops once the float ratio is this far
#: below the best, relatively (thousands of times a ratio's rounding error),
#: or after this many slopes each way (reached only where the ratio is flat)
_WALK_MARGIN, _WALK_LIMIT = 2.0 ** -40, 1000


def _bracket(t: Fraction, depth: int):
    """The adjacent slopes a/b <= t < c/d of height at most depth (|numerator|
    and denominator <= depth), for t >= 0, as vectors (a, b), (c, d).

    A Stern-Brocot descent from 0/1 and 1/0 that takes each run of steps to one
    side at once, so it needs O(log depth) rounds.  Every fraction strictly
    between two Stern-Brocot neighbours descends from their mediant, so the
    two are adjacent once the mediant's height passes depth.  In [-1, 1]
    these are Farey neighbours of order depth, and beyond it the reciprocals
    of Farey neighbours of 1/t.
    """
    a, b, c, d = 0, 1, 1, 0
    while True:
        gap, room = t * b - a, c - t * d
        # the upper end moves down to (a k + c) / (b k + d) while that stays > t
        k = min((depth - c) // a if a else depth, (depth - d) // b)
        if gap:
            k = min(k, math.ceil(room / gap) - 1)
        if k > 0:
            c, d = a * k + c, b * k + d
            continue
        # the lower end moves up to (a + j c) / (b + j d) while that stays <= t
        j = min((depth - a) // c, (depth - b) // d if d else depth, math.floor(gap / room))
        if j > 0:
            a, b = a + j * c, b + j * d
            continue
        return (a, b), (c, d)


def _next_slope(prev, cur, depth: int):
    """The slope after cur, on the side away from prev, of height at most depth.

    Consecutive primitive vectors of the square |p|, |q| <= depth span
    parallelograms of area one, so the next is k cur - prev with the largest
    k that stays in the square.
    """
    k = min((depth + (u if w > 0 else -u)) // abs(w) for u, w in zip(prev, cur) if w)
    return k * cur[0] - prev[0], k * cur[1] - prev[1]


def _critical_slopes(tau1: Point, tau2: Point):
    """The finite slopes where the extremal-length ratio is stationary, as exact Fractions.

    They are the roots t = p/q of (x1 - x2) t^2 + (n1 - n2) t + (x2 n1 - x1 n2)
    with n = |tau|^2, the negated endpoints of the geodesic through tau1 and
    tau2; a vanishing leading coefficient puts a root at 1/0, which is left
    out.  The coordinates are first divided by the power of two at their
    largest, which is exact and keeps the coefficients in the float range.
    """
    s = math.ldexp(1.0, math.frexp(max(abs(tau1.x), abs(tau2.x), tau1.y, tau2.y))[1] - 1)
    x1, y1, x2, y2 = tau1.x / s, tau1.y / s, tau2.x / s, tau2.y / s
    n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    a, b, c = x1 - x2, n1 - n2, x2 * n1 - x1 * n2
    half = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    return [Fraction(s) * Fraction(p) / Fraction(q) for p, q in ((half, a), (c, half)) if q]


def _ext(p, q, x, y):
    """Extremal length of p/q at x + iy, in floats or exactly in Fractions."""
    u, v = p + q * x, q * y
    return (u * u + v * v) / y


def kerckhoff_dist(tau1: Point, tau2: Point, farey_depth: int) -> float:
    """Half the log of the largest extremal-length ratio over the slopes 1/0
    and p/q with 1 <= q <= farey_depth, |p| <= farey_depth.

    Converges to teich_dist from below as the depth grows; the maximizing
    direction is approximated quadratically well by fractions of bounded
    height, so depth 500 is far inside 1e-6 for moderate distances.

    On the circle of slopes the ratio of the two extremal lengths, both
    positive-definite forms, rises from its least direction to its largest
    and falls back, so over a finite set of slopes it peaks next to a
    critical direction.  The ratio is evaluated at 1/0, at the two slopes of
    the set around each critical slope, and on from them while it stays
    within rounding of the best, so the float maximum is that of the whole
    set.  Where a float ratio leaves the float range, the ratios are
    compared exactly.  Depths outside 1..MAX_FAREY_DEPTH are refused.
    """
    if not 1 <= farey_depth <= MAX_FAREY_DEPTH:
        raise InvalidInputError(f"farey_depth must be in 1..{MAX_FAREY_DEPTH}, got {farey_depth}")

    def ratio(p, q):
        e1 = _ext(p, q, tau1.x, tau1.y)
        return _ext(p, q, tau2.x, tau2.y) / e1 if e1 else math.inf

    brackets = [((farey_depth, 1), (1, 0))]
    for t in _critical_slopes(tau1, tau2):
        (a, b), (c, d) = _bracket(abs(t), farey_depth)
        brackets.append(((a, b), (c, d)) if t >= 0 else ((-c, d), (-a, b)))
    ratios = {v: ratio(*v) for pair in brackets for v in pair}
    best = max(ratios.values())
    for pair in brackets:
        if max(ratios[v] for v in pair) < best * (1.0 - _WALK_MARGIN):
            continue
        for prev, cur in (pair, pair[::-1]):
            for _ in range(_WALK_LIMIT):
                prev, cur = cur, _next_slope(prev, cur, farey_depth)
                r = ratios[cur] = ratio(*cur)
                if not best * (1.0 - _WALK_MARGIN) <= r < math.inf:
                    break
                best = max(best, r)
    if all(0.0 < r < math.inf for r in ratios.values()):
        return 0.5 * math.log(best)
    x1, y1, x2, y2 = map(Fraction, (tau1.x, tau1.y, tau2.x, tau2.y))
    best = max(_ext(p, q, x2, y2) / _ext(p, q, x1, y1) for p, q in ratios)
    return 0.5 * (math.log(best.numerator) - math.log(best.denominator))


def wolpert_check(tau1: Point, tau2: Point, slopes) -> float:
    """Largest length ratio over the given slopes.

    Contract: at most e^{2 d} in general, and in this model at most e^{d}.
    """
    if not slopes:
        raise InvalidInputError("need a non-empty slope list")
    return max(curve_length(s, tau2) / curve_length(s, tau1) for s in slopes)


def short_curves(tau: Point, R: float) -> list[Slope]:
    """All slopes of length <= R, by bounded lattice search, sorted by (q, p)."""
    if R <= 0:
        raise InvalidInputError("R must be positive")
    out = []
    lim = R * math.sqrt(tau.y)
    if 1.0 <= lim + 1e-12:
        out.append(Slope(1, 0))
    qmax = int(lim / tau.y) + 1
    for q in range(1, qmax + 1):
        rem = lim * lim - (q * tau.y) ** 2
        if rem < -1e-12 * max(1.0, lim * lim):
            continue
        half = math.sqrt(max(rem, 0.0))
        lo = math.ceil(-q * tau.x - half - 1e-12)
        hi = math.floor(-q * tau.x + half + 1e-12)
        for p in range(lo, hi + 1):
            if math.gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    out.sort(key=lambda s: (s.q, s.p))
    return out


def _reduce(tau: complex) -> complex:
    """Gauss reduction into |Re| <= 1/2, |tau| >= 1."""
    t = tau
    for _ in range(512):
        t = complex(t.real - round(t.real), t.imag)
        if abs(t) >= 1.0 - 1e-15:
            return t
        t = -1.0 / t
    return t


def systole(tau: Point) -> float:
    """Length of the shortest slope, via lattice reduction."""
    return 1.0 / math.sqrt(_reduce(tau.z).imag)


def marking(tau: Point, F: float):
    """A shortest curve and a shortest transversal, both of length <= F.

    With t = _reduce(tau), the basis (1, t) realises the two successive
    minima 1/sqrt(Im t) <= |t|/sqrt(Im t), and every other slope crosses the
    shortest; so the two shortest slopes are the marking, ties broken by
    (q, p), and the slopes up to the second minimum hold them (the 2^-30
    margin covers the rounding of the lengths).
    """
    t = _reduce(tau.z)
    R = abs(t) / math.sqrt(t.imag) * (1.0 + 2.0 ** -30)
    alpha, beta = sorted(short_curves(tau, R), key=lambda s: (curve_length(s, tau), s.q, s.p))[:2]
    if curve_length(alpha, tau) > F or curve_length(beta, tau) > F:
        raise FViolationError(
            f"marking at {tau} has lengths "
            f"({curve_length(alpha, tau):.6f}, {curve_length(beta, tau):.6f}) > F={F}"
        )
    return alpha, beta


class ThickParams(Value):
    """Derived thick-part constants: systole floor, marking bound, count coefficient."""

    __slots__ = _fields = ("epsilon", "F", "short_curve_coeff")


def short_curve_bound(R: float, params: ThickParams | None = None) -> int:
    """Integer bound ceil(coeff * R^2) on the number of R-short slopes at thick points."""
    if R <= 0:
        raise InvalidInputError("R must be positive")
    if params is None:
        params = default_thick_params()
    return math.ceil(params.short_curve_coeff * R * R)


def derive_thick_params(L: float) -> ThickParams:
    """The systole floor along axes of translation <= L, the marking bound F
    and the short-curve count coefficient, all in closed form and all through
    T = floor(2 cosh L) only; F and the coefficient carry a margin of 0.05.

    The coefficient is the supremum of N / R^2 over every thick lattice
    (covolume 1, systole >= epsilon) and every count radius
    R = 0.5 + 0.02 k (k = 0..225), with N the number of R-short slopes.  N = 1 needs R >= epsilon.  N = 2 needs
    R^2 >= l1 l2 >= 1 (Minkowski).  N = 3 needs R^2 >= 2 / sqrt(3): the three
    slope lines split pi and each pair has |det| >= 1, and the hexagonal
    torus attains it.  For N >= 4, counting the slopes on the lattice lines
    parallel to the systole gives N / R^2 <= 2 when R < 2 / systole, and at
    most 0.29 + pi/2 + 0.58 < 2.44 otherwise.  So the supremum is the larger
    of 1 / r^2 at the least radius r >= epsilon and 3 / r^2 at the least
    r >= sqrt(2 / sqrt(3)), which is 1.08.
    """
    if L < min_translation() - 1e-12:
        raise InvalidInputError(f"L={L} is below the least translation distance")
    margin = 0.05
    trace_bound = math.floor(2.0 * math.cosh(L) + 1e-12)
    if trace_bound < 3:
        raise ConstantDerivationError(f"no hyperbolic classes with translation <= {L}")
    # On the axis of a trace-t class (a, b, c, d) the least squared length
    # of a slope (p, q) is 2 |Q(p, q)| / sqrt(t^2 - 4), where
    # Q = c p^2 + (a - d) p q - b q^2 has no rational root, so |Q| >= 1 on
    # primitive vectors, with equality for (0, -1, 1, t) at (1, 0).  The
    # floor decreases in t, so the largest admissible trace attains it.
    epsilon = math.sqrt(2.0 / math.sqrt(trace_bound * trace_bound - 4))

    # The thick fundamental domain is {|Re| <= 1/2, |tau| >= 1,
    # Im tau <= y_top}; there the shortest slope is 1/0 and the shortest
    # transversal is tau itself, longest at the corners (+-1/2, y_top).
    y_top = 1.0 / (epsilon * epsilon)
    F = (1.0 + margin) * math.sqrt(0.25 / y_top + y_top)

    radii = [0.5 + 0.02 * k for k in range(226)]
    one = next(r for r in radii if r >= epsilon)
    three = next(r for r in radii if r >= math.sqrt(2.0 / math.sqrt(3.0)))
    coeff = (1.0 + margin) * max(1 / (one * one), 3 / (three * three))
    return ThickParams(epsilon, F, coeff)


def default_thick_params() -> ThickParams:
    """Thick parameters at the least admissible translation bound."""
    return derive_thick_params(min_translation())
