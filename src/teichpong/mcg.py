"""Mapping classes of the modular torus as projective integer matrices.

A class is a 2x2 integer matrix of determinant one, identified with its
negative.  Classification, independence, word arithmetic, the trace
recurrence, the ends of the verifier's ping-pong tables, and whether two axes
cross are integer-exact; D and the projection intervals are closed forms in
the integers, rounded only at the end; axes are floats with stated tolerances.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from .errors import (ClassificationError, DichotomyViolationError, InvalidInputError,
                     NotIndependentError)
from .hyp2 import BoundaryPoint, Geodesic, Mobius, Point, Value


class Classification(str, Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    PSEUDO_ANOSOV = "pseudo_anosov"


def _canonical_sign(a, b, c, d):
    """Entries of a determinant-one matrix or their negatives, whichever has its
    first nonzero entry positive (a = 0 forces b != 0)."""
    return (a, b, c, d) if a > 0 or (a == 0 and b > 0) else (-a, -b, -c, -d)


class MappingClass(Value):
    """Integer matrix of determinant one, stored with a canonical sign.

    The first nonzero entry of (a, b, c, d) is made positive, so projective
    equality is plain equality.  Entries are arbitrary-precision.
    """

    __slots__ = _fields = ("a", "b", "c", "d")

    # every product builds a class, so __init__ stores the fields inline and
    # __eq__ and __hash__ are written out: with the shared ones of Record and
    # Value a certify-free family measured 2-15% slower
    def __init__(self, a: int, b: int, c: int, d: int):
        a, b, c, d = (int(a), int(b), int(c), int(d))
        if a * d - b * c != 1:
            raise InvalidInputError(f"determinant must be exactly 1, got {a * d - b * c}")
        a, b, c, d = _canonical_sign(a, b, c, d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    @classmethod
    def identity(cls) -> "MappingClass":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_string(cls, text: str) -> "MappingClass":
        parts = text.split(",")
        if len(parts) != 4:
            raise InvalidInputError(f"expected 'a,b,c,d', got {text!r}")
        try:
            return cls(*(int(p.strip()) for p in parts))
        except ValueError as exc:
            raise InvalidInputError(f"matrix entries must be integers: {text!r}") from exc

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other: "MappingClass") -> "MappingClass":
        return MappingClass(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MappingClass":
        return MappingClass(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "MappingClass":
        if n < 0:
            return self.inverse() ** (-n)
        result = MappingClass.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugated_by(self, g: "MappingClass") -> "MappingClass":
        return g * self * g.inverse()

    def is_projective_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def apply(self, z: Point) -> Point:
        return Mobius(float(self.a), float(self.b), float(self.c), float(self.d)).apply(z)

    def __str__(self):
        return f"{self.a},{self.b},{self.c},{self.d}"


class AxisData(Value):
    """Invariant geodesic of a hyperbolic class with its dynamical data."""

    __slots__ = _fields = ("axis", "repelling", "attracting", "translation", "dilatation")


def classify(m: MappingClass) -> Classification:
    """Trace trichotomy, decided by exact integer comparison with 2."""
    t = abs(m.trace)
    if t > 2:
        return Classification.PSEUDO_ANOSOV
    if t == 2:
        return Classification.PARABOLIC
    return Classification.ELLIPTIC


def _positive_trace(m: MappingClass) -> tuple:
    """m's entries, negated if its trace is negative."""
    a, b, c, d = m.entries()
    return (a, b, c, d) if a + d >= 0 else (-a, -b, -c, -d)


def _require_pa(m: MappingClass):
    if classify(m) is not Classification.PSEUDO_ANOSOV:
        raise ClassificationError(f"matrix {m} has trace {m.trace}, need |trace| > 2")


def axis(m: MappingClass) -> AxisData:
    """Axis endpoints are the roots of c x^2 + (d - a) x - b = 0.

    The attracting endpoint is the eigendirection of the eigenvalue
    exceeding one; the origin is the summit of the semicircle.  Integer
    hyperbolic matrices always have c != 0, so both endpoints are finite
    quadratic irrationals.
    """
    _require_pa(m)
    a, b, c, d = _positive_trace(m)
    huge = (a + d).bit_length() > 511
    try:
        # from t = 2^511 on, t*t - 4 overflows a float and sqrt(t^2 - 4) is t to far under an ulp
        disc = float(a + d) if huge else math.sqrt(float((a + d) * (a + d) - 4))
        x_att = ((a - d) + disc) / (2.0 * c)
        x_rep = ((a - d) - disc) / (2.0 * c)
        if huge:  # one root cancels; take it from the product of the roots, -b/c
            x_att, x_rep = (x_att, -b / (c * x_att)) if a >= d else (-b / (c * x_rep), x_rep)
        lam = disc if huge else (float(a + d) + disc) / 2.0
        summit = (0.5 * (x_att + x_rep), 0.5 * abs(x_att - x_rep))
        if not all(map(math.isfinite, (x_att, x_rep, *summit))):  # e.g. 2c overflows
            raise OverflowError
    except OverflowError as exc:
        raise InvalidInputError("matrix entries are beyond float range") from exc
    attracting = BoundaryPoint.finite(x_att)
    repelling = BoundaryPoint.finite(x_rep)
    geo = Geodesic(repelling, attracting, Point(*summit))
    return AxisData(geo, repelling, attracting, math.log(lam), lam)


def _table_ends(m: MappingClass, u) -> list:
    """The intervals under m's tables Pi(c, S) and Pi(c, -S), exactly, for
    the rational u = tanh S with 0 < u < 1: [(lo, hi) of sign +1, of sign -1].

    With a + d > 0, A = a - d and Delta = (a + d)^2 - 4, the fixed point
    (A + s sqrt(Delta)) / 2c (s = +1 attracts) has as its table the closed
    half-disk over the interval between A/2c + s u sqrt(Delta)/2c and
    A/2c + s sqrt(Delta) / (2c u).  Each end is (alpha, beta, e, Delta)
    for (alpha + beta sqrt(Delta)) / e with integers and e > 0.
    """
    a, b, c, d = _positive_trace(m)
    P, Q = u.numerator, u.denominator
    A, delta, sc = a - d, (a + d) ** 2 - 4, 1 if c > 0 else -1
    out = []
    for s in (1, -1):
        near = (sc * A * Q, sc * s * P, 2 * abs(c) * Q, delta)
        far = (sc * A * P, sc * s * Q, 2 * abs(c) * P, delta)
        # far - near = s (1/u - u) sqrt(Delta) / 2c has the sign of s c
        out.append((near, far) if s * c > 0 else (far, near))
    return out


def _quarter_log_ratio(x: int, y: int, Z: int) -> float:
    """1/4 log|(x + y sqrt Z)/(x - y sqrt Z)| for integers, Z > 0, x^2 != y^2 Z:
    signed by xy, 1/2 log(|x| + |y| sqrt Z) - 1/4 log|x^2 - y^2 Z|, taken over
    max(x^2, y^2 Z) as 1/2 log(1 + sqrt(min/max)) - 1/4 log g, g = |x^2 - y^2 Z|/max.
    The two terms share a sign and each reads one correctly rounded quotient
    of integers, so the value is within a few ulps of its size plus 2^-54."""
    if x == 0 or y == 0:
        return 0.0
    p, q = x * x, y * y * Z
    big = max(p, q)
    g = abs(p - q) / big
    # a g below the normal floats is taken as a difference of integer logs
    log_g = math.log(g) if g > 1e-300 else math.log(abs(p - q)) - math.log(big)
    half = 0.5 * math.log1p(math.sqrt(min(p, q) / big)) - 0.25 * log_g
    return half if (x > 0) == (y > 0) else -half


def projection_interval(target: MappingClass, source: MappingClass) -> tuple:
    """(lo, hi) = t_O -+ w: the parameters of axis(target), where the foot of
    a boundary point x is 1/2 log|(x - rep)/(att - x)|, spanned by the
    projection of source's axis, in closed form from the integers.

    With traces made positive, A = a - d, Delta = (a + d)^2 - 4 and primes
    on the source, t_O = 1/4 log|(u - v sqrt Delta)/(u + v sqrt Delta)| with
    u = c'(A^2 + Delta) - 2cAA' - 4c^2 b' and v = 2(c'A - cA'), since
    (u -+ v sqrt Delta)/4c^2 is c'x^2 - A'x - b' at rep and att; and
    w = 1/4 log|(|k| + sqrt Q)/(|k| - sqrt Q)| for (k, Q) of pair_invariant,
    1/2 asinh(1/sinh 2D) or 1/2 atanh(cos theta).  u^2 - v^2 Delta is
    4c^2 (k^2 - Q), nonzero for independent classes (dependent ones raise
    NotIndependentError), so each end is finite and within
    2^-50 max(1, |lo|, |hi|) of the true one."""
    _require_pa(target)
    _require_pa(source)
    k, Q = pair_invariant(target, source)
    if k * k == Q:
        raise NotIndependentError(f"{target} and {source} share an axis")
    (a, b, c, d), (a2, b2, c2, d2) = _positive_trace(target), _positive_trace(source)
    A, A2, delta = a - d, a2 - d2, (a + d) ** 2 - 4
    u = c2 * (A * A + delta) - 2 * c * A * A2 - 4 * c * c * b2
    t, w = _quarter_log_ratio(u, 2 * (c * A2 - c2 * A), delta), _quarter_log_ratio(abs(k), 1, Q)
    return t - w, t + w


def _sign_of(a: int, b: int, D1: int, c: int, D2: int) -> int:
    """The sign of a + b sqrt(D1) + c sqrt(D2), for D1, D2 > 0, in integers.

    x + y has the sign of x where the signs agree or y is 0, and otherwise
    that sign times the sign of x^2 - y^2.  Once for b sqrt(D1) + c sqrt(D2),
    and once for a + y, with a^2 - y^2 = K - 2bc sqrt(D1 D2).
    """
    def add(sx, sy, gap):
        return sx if sx == sy or not sy else sy if not sx else sx * gap

    def sign(x):
        return (x > 0) - (x < 0)
    b2, c2 = b * b * D1, c * c * D2
    sy = add(sign(b), sign(c), sign(b2 - c2))
    K, L = a * a - b2 - c2, -2 * b * c
    return add(sign(a), sy, add(sign(K), sign(L), sign(K * K - L * L * D1 * D2)))


def _end_order(x, y) -> int:
    """The sign of x - y for two table ends of _table_ends."""
    a1, b1, e1, D1 = x
    a2, b2, e2, D2 = y
    return _sign_of(a1 * e2 - a2 * e1, b1 * e2, D1, -b2 * e1, D2)


def translation_distance(m: MappingClass) -> float:
    """log of the expanding eigenvalue; realized on the axis."""
    _require_pa(m)
    t = abs(m.trace)
    if t.bit_length() > 511:
        # t >= 2^511: t*t - 4 overflows a float; log(lambda) - log(t) < 1/t^2, far under an ulp
        return math.log(t)
    return math.log((t + math.sqrt(float(t * t - 4))) / 2.0)


def min_translation() -> float:
    """Least translation distance over the whole group: log((3 + sqrt 5)/2).

    Hyperbolic integer matrices have |trace| >= 3 and the eigenvalue is
    increasing in |trace|, so the trace-3 classes realize the minimum.
    The nearest float lies above the true value, so the next float down is
    returned: l_min is a lower bound, and N l_min > 2R + 12b then holds for
    the true l_min too.
    """
    return math.nextafter(math.log((3.0 + math.sqrt(5.0)) / 2.0), 0.0)


def _trace_power(t: int, n: int) -> int:
    """tr g^n for n >= 1 and tr g = t, from t_2k = t_k^2 - 2 and
    t_2k+1 = t_k t_k+1 - t, along the bits of n."""
    lo, hi = 2, t  # t_k and t_k+1, from k = 0
    for bit in bin(n)[2:]:
        lo, hi = (lo * hi - t, hi * hi - 2) if bit == "1" else (lo * lo - 2, lo * hi - t)
    return lo


def pair_invariant(m1: MappingClass, m2: MappingClass) -> tuple:
    """(k, Q) with k / sqrt(Q) the cosine of the crossing angle of two axes, or
    cosh 2D signed by orientation for disjoint ones: k = 2 tr(m1 m2) - tr m1 tr m2
    and Q = (tr^2 m1 - 4)(tr^2 m2 - 4), traces made positive.  k^2 - Q is
    4 (tr[m1, m2] - 2): the axes cross iff k^2 < Q, share an endpoint iff k^2 = Q."""
    t1, t2 = m1.trace, m2.trace
    t12 = m1.a * m2.a + m1.b * m2.c + m1.c * m2.b + m1.d * m2.d
    k = (2 * t12 if t1 * t2 > 0 else -2 * t12) - abs(t1 * t2)
    return k, (t1 * t1 - 4) * (t2 * t2 - 4)


def axis_distance(k: int, Q: int) -> float:
    """D of two axes from their pair invariant: 0 unless k^2 > Q, else from
    sinh 2D = sqrt((k^2 - Q) / Q), one rounded quotient; past float range asinh x is log 2x."""
    gap = max(k * k - Q, 0)
    try:
        return 0.5 * math.asinh(math.sqrt(gap / Q))
    except OverflowError:
        return 0.25 * math.log(4 * (gap // Q))


def independent(m1: MappingClass, m2: MappingClass) -> bool:
    """True iff the projective commutator is nontrivial (exact integers).

    It is formed only when k^2 = Q (pair_invariant), that is tr[m1, m2] = 2,
    when the classes share a fixed point.  Commuting hyperbolic classes share both
    axis endpoints; a nontrivial commutator with a common fixed point would break
    the equal-or-disjoint dichotomy and is surfaced as an error.
    """
    _require_pa(m1)
    _require_pa(m2)
    k, Q = pair_invariant(m1, m2)
    if k * k != Q:
        return True
    if (m1 * m2 * m1.inverse() * m2.inverse()).is_projective_identity():
        return False
    raise DichotomyViolationError(f"classes {m1} and {m2} do not commute yet share a "
                                  "boundary fixed point")


def fixed_slope_test(m: MappingClass) -> Optional["Slope"]:
    """Fixed primitive eigenvector for |trace| = 2; None for hyperbolic classes.

    Elliptic classes have no real eigendirection and also return None.  The
    projective identity fixes every slope and is rejected.
    """
    from .torus_model import Slope

    t = m.trace
    if abs(t) != 2:
        return None
    if m.is_projective_identity():
        raise InvalidInputError("the identity class fixes every slope")
    a, b, c, d = m.entries()
    if t == -2:
        a, b, c, d = -a, -b, -c, -d
    p, q = (b, 1 - a) if (b, 1 - a) != (0, 0) else (0, 1)
    g = math.gcd(abs(p), abs(q))
    return Slope.canonical(p // g, q // g)
