"""Exact-formula geometry of the model plane.

The model space is the open upper half-plane carrying one half of the
standard curvature -1 metric.  With this normalization the translation
distance of an integer hyperbolic matrix equals the logarithm of its
expanding eigenvalue, and unit-speed geodesics satisfy c(t) = i e^{2t}
on the imaginary axis.

Everything here is a pure function of immutable values; all distances,
feet and parameters come from closed formulas, with log-of-sum forms
(asinh/acosh via math) wherever naive evaluation would cancel.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegenerateInputError, InvalidInputError

if TYPE_CHECKING:
    import numpy as np

#: default tolerance for geometric consistency checks
TOL = 1e-9


class Record:
    """Base of the package's record classes, which declare ``__slots__``.

    A record equals a record of the same class with equal fields, the names
    in its ``_fields``, and reprs as ``Name(field=value, ...)``.  Records
    are mutable and unhashable; see Value.  __init__ stores the fields from
    positional values, then keywords, then ``_defaults``; a class that
    validates its values calls it once they pass.
    """

    __slots__ = ()
    _defaults = {}  #: values of trailing fields that may be omitted, by name

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _arguments(self, args, kwargs) -> list:
        """The field values of a call that is not one positional value per field."""
        names, title = self._fields, type(self).__qualname__
        rest, given = names[len(args):], {**self._defaults, **kwargs}
        if len(args) > len(names) or kwargs.keys() - rest:
            raise TypeError(f"{title}() got {len(args)} positional values and the keywords "
                            f"{sorted(kwargs)}; its fields are {', '.join(names)}, once each")
        for name in rest:
            if name not in given:
                raise TypeError(f"{title}() missing required argument {name!r}")
        return [*args, *(given[name] for name in rest)]

    def _values(self) -> tuple:
        return attrgetter(*self._fields)(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # __init__ takes the fields in order, so copies and pickles rebuild through it
        return type(self), self._values()


class Value(Record):
    """An immutable, hashable record: __init__ sets the fields with
    object.__setattr__, and any later assignment raises AttributeError."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point(Value):
    """A point x + iy of the model plane, y > 0."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidInputError(f"non-finite point ({x}, {y})")
        if y <= 0.0:
            raise InvalidInputError(f"point must have positive height, got y={y}")
        Record.__init__(self, x, y)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


class BoundaryPoint(Value):
    """A boundary value: a finite real number or the distinguished infinity."""

    __slots__ = _fields = ("value", "infinite")

    def __init__(self, value: float = 0.0, infinite: bool = False):
        if not infinite and not math.isfinite(value):
            raise InvalidInputError("finite boundary point must be a finite real")
        Record.__init__(self, value, infinite)

    @classmethod
    def finite(cls, x: float) -> "BoundaryPoint":
        return cls(float(x), False)

    @classmethod
    def infinity(cls) -> "BoundaryPoint":
        return cls(0.0, True)

    def __repr__(self):
        return "oo" if self.infinite else f"{self.value!r}"


def dist(z: Point, w: Point) -> float:
    """Model distance, stable for nearby points: asinh(|z-w| / (2 sqrt(y1 y2))).

    Where |z - w| or y1 y2 leaves the float range, the argument is formed
    exactly in rationals and the distance taken through its logarithm.
    """
    try:
        r = abs(z.z - w.z) / (2.0 * math.sqrt(z.y * w.y))
    except (OverflowError, ZeroDivisionError):
        r = math.inf
    if r < math.inf:
        return math.asinh(r)
    from fractions import Fraction

    x1, y1, x2, y2 = map(Fraction, (z.x, z.y, w.x, w.y))
    r2 = ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (4 * y1 * y2)
    if not r2:
        return 0.0
    log_r = 0.5 * (math.log(r2.numerator) - math.log(r2.denominator))
    # asinh(r) = log(2 r) to double precision once r > 2^27
    return log_r + math.log(2.0) if log_r > 20.0 else math.asinh(math.exp(log_r))


class Mobius(Value):
    """A real unit-determinant fractional-linear map of the half plane."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        det = a * d - b * c
        if not abs(det - 1.0) <= 1e-12:
            # relative to |ad| + |bc|: the chart of a narrow axis has entries
            # whose products round by more than 1e-12
            scale = abs(a * d) + abs(b * c)
            if not (math.isfinite(det) and abs(det - 1.0) <= 1e-12 * scale):
                raise InvalidInputError(f"determinant must be 1, got {det}")
        Record.__init__(self, a, b, c, d)

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_det_positive(cls, a, b, c, d) -> "Mobius":
        """Normalize any positive-determinant real matrix to determinant 1."""
        det = a * d - b * c
        if not det > 0:
            raise InvalidInputError(f"matrix must have positive determinant, got {det}")
        r = math.sqrt(det)
        return cls(a / r, b / r, c / r, d / r)

    def compose(self, other: "Mobius") -> "Mobius":
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def apply_complex(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def apply(self, z: Point) -> Point:
        w = self.apply_complex(z.z)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)) or w.imag <= 0.0:
            raise InvalidInputError(f"image of {z} left the half plane: {w}")
        return Point(w.real, w.imag)

    def apply_boundary(self, xi: BoundaryPoint) -> BoundaryPoint:
        if xi.infinite:
            if self.c == 0.0:
                return BoundaryPoint.infinity()
            return BoundaryPoint.finite(self.a / self.c)
        den = self.c * xi.value + self.d
        if den == 0.0:
            return BoundaryPoint.infinity()
        return BoundaryPoint.finite((self.a * xi.value + self.b) / den)


def _mobius_array(a: float, b: float, c: float, d: float, zs: np.ndarray) -> np.ndarray:
    """(a zs + b) / (c zs + d), the package's one Mobius map on arrays: in place,
    with the bits of Mobius.apply_complex and without numpy's warnings."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num, den = a * zs, c * zs
        num += b
        den += d
        num /= den
    return num


_TIE = 2.0 ** -53  #: half an ulp of the floats in [1, 2)


def _quotient(nr: float, ni: float, dr: float, di: float) -> tuple:
    """numpy's complex division (nr + i ni) / (dr + i di), bit for bit: Smith's
    algorithm by a reciprocal, with x / 0 an inf or a nan."""
    if abs(dr) >= abs(di):
        if not dr:  # and so di is a zero as well
            return nr * math.inf if nr else math.nan, ni * math.inf if ni else math.nan
        rat = di / dr
        scl = 1.0 / (dr + di * rat)
        return (nr + ni * rat) * scl, (ni - nr * rat) * scl
    rat = dr / di if di else math.nan  # di is a zero here only beside a nan dr
    scl = 1.0 / (di + dr * rat)
    return (nr * rat + ni) * scl, (ni * rat - nr) * scl


def _modulus(x: float, y: float) -> float:
    """numpy's |x + iy| on hardware with a fused multiply-add, bit for bit:
    max sqrt(1 + r^2) for r = min / max, with 1 + r^2 rounded once, inf if
    either part is infinite and nan if either is nan.  The float sum
    1 + fl(r^2) is that rounding unless its own rounding error t is a tie,
    +-2^-53: for |t| < 2^-53, t is a multiple of ulp(r^2) and r^2 - fl(r^2)
    at most half of one, so the exact sum rounds the same way.  Ties are
    settled in exact integers."""
    x, y = abs(x), abs(y)
    if x == math.inf or y == math.inf:
        return math.inf
    if x < y:
        x, y = y, x
    elif not x >= y:
        return math.nan
    if not x:
        return 0.0
    r = y / x
    p = r * r
    s = 1.0 + p
    t = p - (s - 1.0)  # exact: s - 1 is, and so is the error of 1 + p
    if t == _TIE or t == -_TIE:
        n, d = r.as_integer_ratio()
        s = (d * d + n * n) / (d * d)
    return x * math.sqrt(s)


def _mobius_points(a: float, b: float, c: float, d: float, zs) -> list:
    """(a z + b) / (c z + d) for each complex z of zs, the scalar twin of
    _mobius_array: the bits it gives the same points, without numpy.

    numpy forms a z + b with a and b taken as complex numbers with zero
    imaginary parts: its real part subtracts 0 Im z and its imaginary part
    adds 0 Re z, then 0.  Those zero terms set the sign of a zero part and
    turn an infinite part into a nan.  CPython's own a * z + b keeps them up
    to 3.13 and drops them from 3.14 on, so the twins write them out."""
    out = []
    for z in zs:
        x, y = z.real, z.imag
        out.append(complex(*_quotient(a * x - 0.0 * y + b, a * y + 0.0 * x + 0.0,
                                      c * x - 0.0 * y + d, c * y + 0.0 * x + 0.0)))
    return out


class ProjectionResult(NamedTuple):
    """Foot of the nearest-point projection together with its parameter."""

    foot: Point
    t: float


class Geodesic(Value):
    """Oriented bi-infinite geodesic with a marked unit-speed origin.

    The parametrization satisfies c(0) = origin and c(t) -> endpoint_pos as
    t -> +oo.  Internally the geodesic stores the chart, which is not a
    field: the unique determinant-1 map u with u(0) = endpoint_neg,
    u(oo) = endpoint_pos and u(i) = origin, so that c(t) = u(i e^{2t}).
    """

    _fields = ("endpoint_neg", "endpoint_pos", "origin")
    __slots__ = _fields + ("chart",)

    def __init__(self, endpoint_neg: BoundaryPoint, endpoint_pos: BoundaryPoint, origin: Point):
        Record.__init__(self, endpoint_neg, endpoint_pos, origin)
        if endpoint_neg == endpoint_pos:
            raise DegenerateInputError("geodesic endpoints must be distinct")
        object.__setattr__(self, "chart", self._build_chart())

    def _build_chart(self) -> Mobius:
        x0, y0 = self.origin.x, self.origin.y
        neg, pos = self.endpoint_neg, self.endpoint_pos
        if neg.infinite and pos.infinite:
            raise DegenerateInputError("geodesic endpoints must be distinct")
        if pos.infinite:
            # upward vertical line over neg.value
            p = neg.value
            if abs(x0 - p) > TOL * max(1.0, abs(p)):
                raise InvalidInputError("origin is not on the geodesic")
            return Mobius.from_det_positive(y0, p, 0.0, 1.0)
        if neg.infinite:
            # downward vertical line over pos.value
            q = pos.value
            if abs(x0 - q) > TOL * max(1.0, abs(q)):
                raise InvalidInputError("origin is not on the geodesic")
            return Mobius.from_det_positive(q, -y0, 1.0, 0.0)
        p, q = neg.value, pos.value
        if p == q:
            raise DegenerateInputError("geodesic endpoints must be distinct")
        center, radius = 0.5 * (p + q), 0.5 * abs(q - p)
        if radius > 1.0:
            # relative to radius^2, in units of the radius, which cannot overflow
            u, v = (x0 - center) / radius, y0 / radius
            off_circle = abs(u * u + v * v - 1.0) > TOL
        else:
            # an origin this far off is off the circle by more than TOL, and
            # squaring its offset could overflow
            off_circle = (abs(x0 - center) > radius + 1.0
                          or abs((x0 - center) ** 2 + y0 * y0 - radius * radius) > TOL)
        if off_circle:
            raise InvalidInputError("origin is not on the geodesic")
        ratio = (q - x0) / (x0 - p)
        if not ratio > 0.0:
            raise InvalidInputError("origin is not between the endpoints")
        s = math.sqrt(ratio)
        sg = 1.0 if q > p else -1.0
        return Mobius.from_det_positive(q, sg * p * s, 1.0, sg * s)

    def point_at(self, t: float) -> Point:
        try:
            height = math.exp(2.0 * t)
        except OverflowError:
            height = math.inf
        if not 0.0 < height < math.inf:
            raise InvalidInputError(f"parameter t={t} is out of range: e^(2t) is not a "
                                    "positive finite float")
        return self.chart.apply(Point(0.0, height))

    def reversed(self) -> "Geodesic":
        return Geodesic(self.endpoint_pos, self.endpoint_neg, self.origin)

    def param_of(self, z: Point) -> float:
        """Projection parameter of z; feet of perpendiculars on c(0,oo) are i|w|."""
        w = self.chart.inverse().apply_complex(z.z)
        return 0.5 * math.log(abs(w))

    def params_of_array(self, zs: np.ndarray) -> np.ndarray:
        """Vectorized projection parameters for an array of complex points.

        Evaluated in place with the same operations as the numpy expression
        ``0.5 * np.log(np.abs(chart.inverse().apply_complex(zs)))``, so each
        parameter has the bits of that expression, which the tests pin.  The
        verifier's sampled checks use it, and its fixed checks the scalar
        twin params_of_points, which differs from it only where math.log
        and numpy's log do.  Neither need have the bits of param_of:
        numpy's complex division and abs are not CPython's, and about half
        of the default box's points differ from param_of by one ulp.  So
        pi_membership, which uses param_of, can disagree with the verifier
        on a point at a table's edge.  Points that collapse onto an ideal
        endpoint in floating point get the limit parameter -inf / +inf,
        which is the correct membership answer.
        """
        import numpy as np

        # chart.inverse() is (d, -b, -c, a); the negated entries are added,
        # as apply_complex adds them, which keeps the sign of a zero part
        m = self.chart
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = np.abs(_mobius_array(m.d, -m.b, -m.c, m.a, zs))
            np.log(out, out=out)
        out *= 0.5
        bad = np.isnan(out)
        if bad.any():
            if not np.isfinite(zs[bad]).all():
                raise InvalidInputError("non-finite input point in projection batch")
            # a finite point hitting the chart pole is the positive endpoint,
            # which is where high powers collapse their images in floats
            out[bad] = np.inf
        return out

    def params_of_points(self, zs) -> list:
        """params_of_array's parameters of the complex points zs, as a list,
        without numpy: the scalar twin of params_of_array, with its refusal
        and its limit +inf.  The division and the modulus have numpy's bits;
        math.log is within an ulp of numpy's log, and differs from it on
        0.03-0.1% of moduli.
        """
        m = self.chart
        a, b, c, d = m.d, -m.b, -m.c, m.a
        out = []
        for z in zs:  # the forms as _mobius_points writes them out
            x, y = z.real, z.imag
            w = _modulus(*_quotient(a * x - 0.0 * y + b, a * y + 0.0 * x + 0.0,
                                    c * x - 0.0 * y + d, c * y + 0.0 * x + 0.0))
            t = 0.5 * math.log(w) if w else -math.inf
            if t != t:
                if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                    raise InvalidInputError("non-finite input point in projection batch")
                t = math.inf
            out.append(t)
        return out

    def boundary_param(self, xi: BoundaryPoint) -> float:
        """Parameter of the foot of the perpendicular dropped from an ideal point.

        Returns -inf / +inf when xi is an endpoint of the geodesic itself.
        """
        w = self.chart.inverse().apply_boundary(xi)
        if w.infinite:
            return math.inf
        if w.value == 0.0:
            return -math.inf
        return 0.5 * math.log(abs(w.value))


def transport(m: Mobius, c: Geodesic) -> Geodesic:
    """Image geodesic with the transported orientation and origin."""
    return Geodesic(
        m.apply_boundary(c.endpoint_neg),
        m.apply_boundary(c.endpoint_pos),
        m.apply(c.origin),
    )


def geodesic_through(z: Point, w: Point) -> Geodesic:
    """The oriented geodesic from z toward w, with origin z."""
    if z == w or abs(z.z - w.z) <= 1e-13 * max(1.0, abs(z.z)):
        raise DegenerateInputError("need two distinct points")
    if abs(z.x - w.x) <= 1e-13 * max(1.0, abs(z.x), abs(w.x)):
        # vertical line
        if w.y > z.y:
            return Geodesic(BoundaryPoint.finite(z.x), BoundaryPoint.infinity(), z)
        return Geodesic(BoundaryPoint.infinity(), BoundaryPoint.finite(z.x), z)
    center = (abs(z.z) ** 2 - abs(w.z) ** 2) / (2.0 * (z.x - w.x))
    radius = abs(z.z - center)
    if w.x > z.x:
        return Geodesic(BoundaryPoint.finite(center - radius), BoundaryPoint.finite(center + radius), z)
    return Geodesic(BoundaryPoint.finite(center + radius), BoundaryPoint.finite(center - radius), z)


def project(c: Geodesic, z: Point) -> ProjectionResult:
    """Nearest point of c to z; single-valued since the plane is uniquely geodesic."""
    t = c.param_of(z)
    return ProjectionResult(c.point_at(t), t)


def dist_to_geodesic(c: Geodesic, z: Point) -> float:
    """Distance from z to the image of c: half asinh(|Re w| / Im w) in the chart.

    Past 2^27 the ratio's asinh is log(2 |Re w|) - log(Im w) to double
    precision, which is taken instead, since the ratio itself may overflow.
    """
    w = c.chart.inverse().apply_complex(z.z)
    if w.imag <= 0.0:
        raise InvalidInputError("point left the half plane under the chart")
    r = abs(w.real) / w.imag
    if r > 2.0 ** 27:
        return 0.5 * (math.log(2.0) + math.log(abs(w.real)) - math.log(w.imag))
    return 0.5 * math.asinh(r)
