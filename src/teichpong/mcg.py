"""Mapping classes of the modular torus as projective integer matrices.

A class is a 2x2 integer matrix of determinant one, identified with its
negative.  Classification, independence, word arithmetic and the ends of
the verifier's ping-pong tables are exact integer computations; axes and
translation distances are floating point with stated tolerances.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from .errors import ClassificationError, DichotomyViolationError, InvalidInputError
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
    a, b, c, d = m.entries()
    if a + d < 0:
        a, b, c, d = -a, -b, -c, -d
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
    a, b, c, d = m.entries()
    if a + d < 0:
        a, b, c, d = -a, -b, -c, -d
    P, Q = u.numerator, u.denominator
    A, delta, sc = a - d, (a + d) ** 2 - 4, 1 if c > 0 else -1
    out = []
    for s in (1, -1):
        near = (sc * A * Q, sc * s * P, 2 * abs(c) * Q, delta)
        far = (sc * A * P, sc * s * Q, 2 * abs(c) * P, delta)
        # far - near = s (1/u - u) sqrt(Delta) / 2c has the sign of s c
        out.append((near, far) if s * c > 0 else (far, near))
    return out


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
    """
    return math.log((3.0 + math.sqrt(5.0)) / 2.0)


def _fixed_quadratic(m: MappingClass):
    # coefficients of c x^2 + (d - a) x - b, sign-invariant as a root set
    return (m.c, m.d - m.a, -m.b)


def _share_fixed_point(m1: MappingClass, m2: MappingClass) -> bool:
    """Exact resultant test: do the fixed-point quadratics share a root?"""
    a1, b1, c1 = _fixed_quadratic(m1)
    a2, b2, c2 = _fixed_quadratic(m2)
    res = (a1 * c2 - a2 * c1) ** 2 - (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1)
    return res == 0


def independent(m1: MappingClass, m2: MappingClass) -> bool:
    """True iff the projective commutator is nontrivial (exact integers).

    Commuting hyperbolic classes share both axis endpoints.  A pair with a
    nontrivial commutator but a common fixed point would break the
    equal-or-disjoint dichotomy and is surfaced as an error.
    """
    _require_pa(m1)
    _require_pa(m2)
    comm = m1 * m2 * m1.inverse() * m2.inverse()
    if comm.is_projective_identity():
        return False
    if _share_fixed_point(m1, m2):
        raise DichotomyViolationError(
            f"classes {m1} and {m2} do not commute yet share a boundary fixed point"
        )
    return True


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
