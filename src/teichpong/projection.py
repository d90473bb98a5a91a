"""Quantitative projection theory between axes.

Two derived constants and the geometry of a pair of axes live here:

* the contraction constant b: a uniform bound on the projected diameter of
  any ball whose radius equals its center's distance to the geodesic; it is
  the closed form asinh(1), with a margin of 0.05;

* the stability constant M(K, kappa): how far a continuous unit-speed
  (K, kappa)-quasi-geodesic can stray from the geodesic joining its
  endpoints;

* the nearest-point configuration of two axes, a closed form in the chart
  of the first, and the fast-divergence thresholds past it, a closed form
  in the traces.

M is a bisection on its max height, each step a concave maximisation per
excursion level; its levels and margin are in its memo key, so results are
reproducible bit for bit.  Monte Carlo validation of the bounds is part
of the test suite.
"""

from __future__ import annotations

import math

from . import cache
from .errors import (ConstantDerivationError, DegenerateInputError,
                     HorizonExceededError, InvalidInputError, NotIndependentError)
from .hyp2 import Geodesic, Value, dist, dist_to_geodesic, project
from .mcg import MappingClass, axis, independent

# The stability search's excursion levels and margin on M; both are in its memo key.
_LEVELS, _MORSE_MARGIN = 96, 0.05
#: bound on the fast-divergence offsets, the margin on the certified ones, and their grid
HORIZON, THRESHOLD_MARGIN, THRESHOLD_STEP = 8.0, 0.10, 0.01
#: most rows divergence_profile builds
MAX_PROFILE_ROWS = 10 ** 6


class ModelConstants(Value):
    """The contraction bound and the slim-triangle constant of the model."""

    __slots__ = _fields = ("b", "delta")


def model_constants() -> ModelConstants:
    """The model constants; the contraction bound comes from the memo."""
    # sharp slim-triangle constant of the plane, halved for the model metric
    delta = 0.5 * math.log(1.0 + math.sqrt(2.0))
    return ModelConstants(b=derive_contraction_b(), delta=delta)


def derive_contraction_b() -> float:
    """The supremum asinh(1) of the touching-ball projection diameter, times 1.05.

    Every configuration reduces to x = e^{i theta} over the imaginary axis by
    the isometries fixing it, where the diameter is asinh|cos theta|.
    """
    return cache.memo("b/v1:sup=asinh(1),margin=0.05", lambda: (1.0 + 0.05) * math.asinh(1.0))


# ---------------------------------------------------------------------------
# Stability constant for quasi-geodesics
# ---------------------------------------------------------------------------

def _level_refutes(K, kappa, h, beta):
    """True if excursion level h is impossible for a max height Delta = h + beta/2.

    An excursion above height h of length T with max height Delta must spend
    a vertical budget of at least beta = 2(Delta - h); its endpoints sit at
    height h on the same side with feet separated by at most
    sigma(T) = sqrt(T^2 - beta^2) / C, C = cosh(2h), which caps their distance
    at the chord asinh(C sinh sigma), while the lower quasi-geodesic inequality
    demands at least T/K - kappa.  The level is refuted when the slack
    g(T) = asinh(C sinh sigma(T)) - T/K + kappa is negative for every T >= beta.

    g is concave.  sigma is concave and increasing, a branch of a hyperbola.
    f(s) = asinh(C sinh s) is increasing, and concave on s >= 0 for C >= 1:
    with u = sinh^2 s, f'(s)^2 = C^2 (1 + u) / (1 + C^2 u), whose derivative in
    u is C^2 (1 - C^2) / (1 + C^2 u)^2 <= 0, so f' falls from C to 1.  A concave
    increasing function of a concave function is concave, and -T/K + kappa
    is linear.

    If C <= K, then g grows without bound, or tends to log C + kappa >= 0 when
    C = K, so the level stands.  Otherwise g has one maximum, at the root of
    g'(T) = T / (r hypot(sech s, C tanh s)) - 1/K with r = sqrt(T^2 - beta^2)
    and s = r/C.  Doubling and then bisection on the sign of g' bracket it in
    [lo, hi] with g'(lo) > 0 >= g'(hi).  A concave function lies below each
    tangent, so g(lo) + g'(lo) (hi - lo) bounds the maximum, and the level is
    refuted when that bound, plus an allowance for rounding, is negative.
    When cosh(2h) overflows, C = inf, where C sinh(r/C) and C tanh(r/C) are r.
    """
    try:
        C = math.cosh(2.0 * h)
    except OverflowError:
        C = math.inf
    if C <= K:
        return False

    def slope(T):
        r = math.sqrt(T - beta) * math.sqrt(T + beta)
        if r == 0.0:
            return math.inf
        if C == math.inf:
            return T / r / math.hypot(1.0, r) - 1.0 / K
        t = math.tanh(r / C)
        return T / r / math.hypot(math.sqrt((1.0 - t) * (1.0 + t)), C * t) - 1.0 / K

    lo, hi = beta, 2.0 * beta
    while slope(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    r = math.sqrt(lo - beta) * math.sqrt(lo + beta)
    try:
        chord = math.asinh(r if C == math.inf else C * math.sinh(r / C))
    except OverflowError:  # no float bound on the chord: the level stands
        return False
    # each term of g is rounded within a few ulps of its size
    allowance = 1e-12 * (1.0 + lo / K + kappa)
    return chord - lo / K + kappa + slope(lo) * (hi - lo) + allowance < 0.0


def _delta_refuted(K, kappa, delta):
    for j in range(1, _LEVELS):
        h = delta * j / _LEVELS
        if _level_refutes(K, kappa, h, 2.0 * (delta - h)):
            return True
    return False


def derive_morse(K: float, kappa: float) -> float:
    """Stability constant for continuous unit-speed (K, kappa)-quasi-geodesics.

    Bisects for the least max height that some excursion level refutes, then
    adds a 5% margin.  Each level is refuted only when an upper bound on the
    maximum of its concave slack is negative (see _level_refutes), so fewer
    levels can only enlarge the answer.  Monotone in K and in kappa.  (1, 0)
    paths are geodesics, so M(1, 0) = 0.
    """
    if not (math.isfinite(K) and math.isfinite(kappa) and K >= 1.0 and kappa >= 0.0):
        raise InvalidInputError(f"need K >= 1 and kappa >= 0, got ({K}, {kappa})")
    if K == 1.0 and kappa == 0.0:
        return 0.0
    K, kappa = float(K), float(kappa)
    key = f"morse/v2:K={K!r},kappa={kappa!r},levels={_LEVELS},margin={_MORSE_MARGIN!r}"

    def compute():
        lo, hi = 0.0, 1.0
        while not _delta_refuted(K, kappa, hi):
            lo, hi = hi, 2.0 * hi
            if hi > 512.0:
                raise ConstantDerivationError(f"no stability bound below 512 for ({K}, {kappa})")
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if _delta_refuted(K, kappa, mid):
                hi = mid
            else:
                lo = mid
        return (1.0 + _MORSE_MARGIN) * hi

    return cache.memo(key, compute)


# ---------------------------------------------------------------------------
# Pair geometry
# ---------------------------------------------------------------------------

class PairGeometry(Value):
    """Nearest-point data for a pair of axes."""

    __slots__ = _fields = ("D", "O", "O_prime", "t_O", "s_O", "crossing")


def _normalized_endpoints(c_target: Geodesic, c_source: Geodesic):
    inv = c_target.chart.inverse()
    vals = []
    for xi in (c_source.endpoint_neg, c_source.endpoint_pos):
        w = inv.apply_boundary(xi)
        vals.append(math.inf if w.infinite else w.value)
    return vals


def common_perpendicular_distance(c1: Geodesic, c2: Geodesic) -> float:
    """Closed-form distance between disjoint geodesics (cross-ratio route).

    In the chart of c1 the other geodesic is the half circle on (p, q) with
    center m and radius r, and sinh of the plane distance is
    sqrt(m^2 - r^2)/r.  Used as an independent oracle for pair_geometry.
    """
    p, q = _normalized_endpoints(c1, c2)
    if not (math.isfinite(p) and math.isfinite(q)):
        raise DegenerateInputError("geodesics share an endpoint")
    if p * q <= 0.0:
        raise InvalidInputError("geodesics cross; the distance is zero")
    m, r = 0.5 * (p + q), 0.5 * abs(q - p)
    return 0.5 * math.asinh(math.sqrt(m * m - r * r) / r)


def _geodesic_pair_geometry(c1: Geodesic, c2: Geodesic) -> PairGeometry:
    # in the chart of c1 the other axis is the half circle on (p, q); it
    # crosses the imaginary axis (pq < 0), or meets its common perpendicular
    # with it (pq > 0), at height sqrt|pq|, so t_O = log|pq| / 4
    p, q = _normalized_endpoints(c1, c2)
    if not (math.isfinite(p) and math.isfinite(q)) or p * q == 0.0:
        raise DegenerateInputError("geodesics share an endpoint")
    t_O = 0.5 * math.log(math.sqrt(abs(p * q)))
    O = c1.point_at(t_O)
    foot, s_O = project(c2, O)
    if p * q < 0.0:
        return PairGeometry(0.0, O, O, t_O, s_O, True)
    return PairGeometry(dist(O, foot), O, foot, t_O, s_O, False)


def pair_geometry(m1: MappingClass, m2: MappingClass) -> PairGeometry:
    """Nearest-point configuration of the two axes: the crossing point, or
    the feet of the common perpendicular for disjoint axes."""
    if not independent(m1, m2):
        raise NotIndependentError(f"{m1} and {m2} share an axis")
    return _geodesic_pair_geometry(axis(m1).axis, axis(m2).axis)


def projection_interval(c_target: Geodesic, c_source: Geodesic):
    """Parameter interval of c_target containing the projection of c_source.

    The projection parameter is monotone along the source, so the interval
    is spanned by the feet 1/2 log|w| of its two ideal endpoints w in the
    chart; w = oo and w = 0 give +inf and -inf, which signal a shared endpoint.
    """
    if (c_target.endpoint_neg == c_source.endpoint_neg and c_target.endpoint_pos == c_source.endpoint_pos) or (
        c_target.endpoint_neg == c_source.endpoint_pos and c_target.endpoint_pos == c_source.endpoint_neg
    ):
        raise DegenerateInputError("projection of a geodesic onto itself is everything")
    ta, tb = (0.5 * math.log(abs(w)) if w else -math.inf
              for w in _normalized_endpoints(c_target, c_source))
    return (min(ta, tb), max(ta, tb))


# ---------------------------------------------------------------------------
# Divergence
# ---------------------------------------------------------------------------

def divergence_profile(m1: MappingClass, m2: MappingClass, t_min: float, t_max: float,
                       step: float) -> list[tuple[float, float, float]]:
    """Rows (t, s_star, d_min) sampling the distance profile between the axes;
    the nearest point of c2 to c1(t) is its projection c2(s_star).  At most
    MAX_PROFILE_ROWS rows; a longer profile is refused before any is built."""
    if not (all(map(math.isfinite, (t_min, t_max, step))) and step > 0 and t_max >= t_min):
        raise InvalidInputError("need finite t_min <= t_max and a finite step > 0")
    steps = (t_max - t_min) / step + 1e-9
    if not steps < MAX_PROFILE_ROWS:
        raise InvalidInputError(f"the profile would have more than {MAX_PROFILE_ROWS} rows")
    if not independent(m1, m2):
        raise NotIndependentError(f"{m1} and {m2} share an axis")
    c1, c2 = axis(m1).axis, axis(m2).axis
    rows = []
    n = math.floor(steps)
    for i in range(n + 1):
        t = t_min + i * step
        z = c1.point_at(t)
        rows.append((t, c2.param_of(z), dist_to_geodesic(c2, z)))
    return rows


def profile_csv(rows) -> str:
    """CSV for a divergence profile: fixed header, 12 significant digits."""
    lines = ["t,s_star,d_min"]
    for t, s, d in rows:
        lines.append(f"{t:.12g},{s:.12g},{d:.12g}")
    return "\n".join(lines) + "\n"


class Thresholds(Value):
    """Certified fast-divergence parameters, in the axes' own parametrizations.

    Beyond the plus (resp. minus) thresholds on both axes simultaneously,
    every pair of points satisfies d(x, y) > max(d(O, x), d(O', y)).  The
    statement these certify is existence-only; rounding the offset up to the
    grid and enlarging it by the margin make the certified values a
    reproducible artifact.
    """

    __slots__ = _fields = ("p_plus", "p_minus", "q_plus", "q_minus")


def _largest_violating_offset(m1: MappingClass, m2: MappingClass) -> float:
    """Supremum of min(a, b) over offsets a, b from the nearest points, on one
    side, with d <= max(a, b); 0 if there are none.

    In the chart of the first axis let the second be the half circle on
    (p, q).  Then k = (p + q)/(q - p) is the cosine of the crossing angle of
    crossing axes and cosh 2D, signed by orientation, for disjoint ones; with
    both traces made positive it is (2 tr AB - tr A tr B) / sqrt((tr^2 A - 4)
    (tr^2 B - 4)), exact until the one rounding of k^2.  In doubled lengths
    cosh 2d = kappa cosh 2a cosh 2b - sigma sinh 2a sinh 2b with
    (kappa, sigma) = (1, k) for crossing axes and (|k|, sign k) for disjoint
    ones.  For a >= b a violation reads tanh b <= k tanh 2a, respectively
    |k| cosh 2b - tanh 2a sinh 2b <= 1, which is weakest as a grows:
    b <= atanh(k), respectively e^{2b} between the roots of
    (k - 1) x^2 - 2x + (k + 1).  So violations need 0 < k <= sqrt 2, and the
    two sides, which flip the signs of both sinh terms, share them.
    """
    t1, t2 = m1.trace, m2.trace
    t12 = m1.a * m2.a + m1.b * m2.c + m1.c * m2.b + m1.d * m2.d
    num = (2 * t12 if t1 * t2 > 0 else -2 * t12) - abs(t1 * t2)
    den = (t1 * t1 - 4) * (t2 * t2 - 4)
    if num <= 0 or num * num > 2 * den:
        return 0.0
    k2 = num * num / den
    if k2 == 1.0:
        # k = 1 is a shared endpoint; independent axes round to it only for huge traces
        return math.inf
    if k2 < 1.0:
        return math.atanh(math.sqrt(k2))
    return 0.5 * math.log((1.0 + math.sqrt(2.0 - k2)) / (math.sqrt(k2) - 1.0))


def fast_divergence_thresholds(m1: MappingClass, m2: MappingClass) -> Thresholds:
    """Thresholds past which the pair diverges faster than either point
    recedes from the nearest-point configuration.

    The largest violating offset is a closed form in the traces
    (_largest_violating_offset) and the same on both sides.
    It is rounded up to the next multiple of THRESHOLD_STEP past it and enlarged
    by THRESHOLD_MARGIN; an offset within two steps of HORIZON is refused.
    """
    pg = pair_geometry(m1, m2)
    sup = _largest_violating_offset(m1, m2)
    delta = math.floor(sup / THRESHOLD_STEP) * THRESHOLD_STEP + THRESHOLD_STEP if sup < HORIZON else math.inf
    if delta > HORIZON - 2.0 * THRESHOLD_STEP:
        raise HorizonExceededError(f"the closed-form violating offset reaches HORIZON = {HORIZON}")
    offset = (1.0 + THRESHOLD_MARGIN) * delta
    return Thresholds(p_plus=pg.t_O + offset, p_minus=pg.t_O - offset,
                      q_plus=pg.s_O + offset, q_minus=pg.s_O - offset)
