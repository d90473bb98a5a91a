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
    """A boundary value: a finite real number or the distinguished infinity.
    An infinite point stores the value 0.0, so all of them are equal."""

    __slots__ = _fields = ("value", "infinite")

    def __init__(self, value: float = 0.0, infinite: bool = False):
        if infinite:
            value = 0.0
        elif not math.isfinite(value):
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
        # relative to |ad| + |bc|: the chart of a narrow axis has entries
        # whose products round by more than 1e-12
        scale = max(1.0, abs(a * d) + abs(b * c))
        if not (math.isfinite(det) and abs(det - 1.0) <= 1e-12 * scale):
            raise InvalidInputError(f"determinant must be 1, got {det}")
        Record.__init__(self, a, b, c, d)

    @classmethod
    def from_det_positive(cls, a, b, c, d) -> "Mobius":
        """Normalize any positive-determinant real matrix to determinant 1."""
        det = a * d - b * c
        if not det > 0:
            raise InvalidInputError(f"matrix must have positive determinant, got {det}")
        r = math.sqrt(det)
        return cls(a / r, b / r, c / r, d / r)

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
        if neg.infinite or pos.infinite:
            # a vertical line over its finite endpoint p, upward or downward
            p = neg.value if pos.infinite else pos.value
            if abs(x0 - p) > TOL * max(1.0, abs(p)):
                raise InvalidInputError("origin is not on the geodesic")
            return Mobius.from_det_positive(*((y0, p, 0.0, 1.0) if pos.infinite
                                              else (p, -y0, 1.0, 0.0)))
        p, q = neg.value, pos.value
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
        ratio = (q - x0) / (x0 - p) if x0 != p else 0.0
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

    def param_of(self, z: Point) -> float:
        """Projection parameter of z; feet of perpendiculars on c(0,oo) are i|w|."""
        w = self.chart.inverse().apply_complex(z.z)
        return 0.5 * math.log(abs(w))

    def params_of_array(self, zs: np.ndarray) -> np.ndarray:
        """Vectorized projection parameters for an array of complex points.

        Evaluated in place with the same operations as the numpy expression
        ``0.5 * np.log(np.abs(chart.inverse().apply_complex(zs)))``, so each
        parameter has the bits of that expression, which the tests pin.  The
        verifier's sampled checks use it.  It need not have the bits of
        param_of: numpy's complex division and abs are not CPython's, and
        about half of the default box's points differ from param_of by one
        ulp.
        Points that collapse onto an ideal endpoint in floating point get
        the limit parameter -inf / +inf, which is the correct membership
        answer.
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
