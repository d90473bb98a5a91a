"""Half-space tables, disjointness radii, literal power bounds, and the verifier.

Two modes produce a certificate that the N-th powers of a family of
independent hyperbolic classes freely generate:

* certified_search: the radius comes from the computed projection intervals
  and the practical N is small enough to verify by exact matrix powers;

* paper_formula: the literal factorial bound, kept as exact integers that
  are reported by digit count and never exponentiated.

The factorial bookkeeping is reproduced exactly as stated, without trying
to shrink the constant.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (CertificateInvalidError, ConstantDerivationError,
                     InvalidInputError, NotIndependentError)
from .hyp2 import Geodesic, Point, Record, Value, _mobius_array, _mobius_points
from .mcg import MappingClass, axis, independent, min_translation, translation_distance
from .projection import (_geodesic_pair_geometry, derive_morse, model_constants,
                          projection_interval)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BOX = (-10.0, 10.0, 0.05, 10.0)
GRID_STEP = 0.01  #: step of the radius grid
RADIUS_MARGIN = 0.05  #: margin on the certified radius
FACTORIAL_LIMIT = 20_000_000  #: largest short-curve bound B whose factorial paper mode builds
SAMPLE_CHUNK = 8192  #: points per sample block, each block drawn from its own spawned seed
SLACK_FLOOR = 1e-9  #: least slack N Tr - 2S the verifier accepts per generator
#: N Tr past which the N-th power has an entry beyond the float range: its
#: trace is 2 cosh(N Tr), so a diagonal entry is at least e^{N Tr} / 2
FLOAT_POWER_LIMIT = math.log(2.0) + math.log(sys.float_info.max)


class PiSet(Value):
    """Points whose projection parameter on the axis lies beyond sign * R."""

    __slots__ = _fields = ("axis", "R", "sign")

    def __init__(self, axis: Geodesic, R: float, sign: int):
        if not R > 0:
            raise InvalidInputError("PiSet radius must be positive")
        if sign not in (1, -1):
            raise InvalidInputError("sign must be +1 or -1")
        Record.__init__(self, axis, R, sign)


def pi_membership(s: PiSet, x: Point) -> bool:
    t = s.axis.param_of(x)
    return t >= s.R if s.sign > 0 else t <= -s.R


class PaperConstants(Value):
    """The literal constants: translation cap, marking bound, stability
    constant, short-curve count, and the exact factorial-sized radius and power."""

    __slots__ = _fields = ("L", "F", "M", "B", "R_paper", "N_paper")


class PingPongCertificate(Record):
    """A ping-pong certificate for the N-th powers of the generators.

    R is a float in certified mode and an exact int in paper mode; S = R + 6b
    is None in paper mode, where it is not representable as a float.
    intervals maps (i, j) to (lo, hi), the projection of axis j onto axis i,
    and pair_data maps each (i, j) with i < j to its PairGeometry.
    """

    __slots__ = _fields = ("generators", "mode", "b", "l_min", "R", "S", "N", "intervals",
                           "pair_data", "paper", "config", "verification")
    _defaults = {"verification": None}


def _check_family(generators):
    if len(generators) < 2:
        raise InvalidInputError("need at least two generators")
    for i in range(len(generators)):
        for j in range(i + 1, len(generators)):
            if not independent(generators[i], generators[j]):
                raise NotIndependentError(
                    f"generators {i} and {j} share an axis (common power)"
                )


def _interval_map(axes):
    out = {}
    for i, ci in enumerate(axes):
        for j, cj in enumerate(axes):
            if i != j:
                out[(i, j)] = projection_interval(ci, cj)
    return out


def _radius_from_intervals(intervals, b, grid_step, margin):
    need = max(max(abs(lo), abs(hi)) for lo, hi in intervals.values())
    floor = max(0.0, need - 4.0 * b) - 1e-15
    steps = max(0.0, floor) / grid_step
    # least k >= 1 with k * grid_step >= floor; the rounded quotient may be one off
    k = max(1, math.ceil(steps))
    if k > 1 and (k - 1) * grid_step >= floor:
        k -= 1
    elif k * grid_step < floor:
        k += 1
    return (1.0 + margin) * k * grid_step


def certified_radius(generators) -> float:
    """Least radius R on the GRID_STEP grid such that every projection interval
    of one axis on another lies inside (-(R + 4b), R + 4b), times 1 + RADIUS_MARGIN.

    The intervals are taken in each axis's own parametrization (origin at
    the summit); one radius per axis per sign is what the ping-pong lemma
    needs, so R absorbs the worst offset over all pairs.
    """
    _check_family(generators)
    axes = [axis(m).axis for m in generators]
    return _radius_from_intervals(_interval_map(axes), model_constants().b, GRID_STEP, RADIUS_MARGIN)


def power_bound(R, b: float, l_min: float) -> int:
    """Least integer N with N > (2R + 12b) / l_min, computed in exact rationals.

    The certificates pass the group-wide least translation distance as l_min.
    """
    if l_min <= 0:
        raise InvalidInputError("translation floor must be positive")
    r_frac = Fraction(R) if isinstance(R, int) else Fraction(float(R))
    threshold = (2 * r_frac + 12 * Fraction(float(b))) / Fraction(float(l_min))
    return math.floor(threshold) + 1


def paper_radius_bound(B: int, L) -> int:
    """max(B! + 2, (B! + 2) L) as an exact integer-valued bound (ceiling in L)."""
    if B < 1:
        raise InvalidInputError("need B >= 1")
    base = math.factorial(B) + 2
    if isinstance(L, int):
        scaled = base * L
    else:
        scaled = math.ceil(base * Fraction(float(L)))
    return max(base, scaled)


def paper_constants(generators) -> PaperConstants:
    """The literal pipeline: L, F, M, B, then the factorial radius and power.

    B grows with e^{4(M + L)}, so the factorial is only materializable for
    families of small translation distance; past FACTORIAL_LIMIT this raises
    instead of attempting a terabyte integer.
    """
    from .torus_model import derive_thick_params, short_curve_bound

    _check_family(generators)
    L = max(translation_distance(m) for m in generators)
    thick = derive_thick_params(L)
    axes = [axis(m).axis for m in generators]
    d_max = 0.0
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            d_max = max(d_max, _geodesic_pair_geometry(axes[i], axes[j]).D)
    M = derive_morse(2.0, d_max)
    r_short = math.exp(2.0 * (M + L)) * thick.F
    B = short_curve_bound(r_short, thick)
    if B > FACTORIAL_LIMIT:
        raise ConstantDerivationError(
            f"short-curve bound B={B} exceeds the factorial limit {FACTORIAL_LIMIT}; "
            f"the literal radius would have about {B} log10(B) digits"
        )
    R_paper = paper_radius_bound(B, L)
    N_paper = power_bound(R_paper, model_constants().b, min_translation())
    return PaperConstants(L=L, F=thick.F, M=M, B=B, R_paper=R_paper, N_paper=N_paper)


def build_certificate(generators, mode: str = "certified_search", *, seed: int = 0,
                      samples: int = 100_000, box=DEFAULT_BOX) -> PingPongCertificate:
    if mode not in ("certified_search", "paper_formula"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    for name, value in (("seed", seed), ("samples", samples)):
        if not 0 <= value < 2 ** 63:
            raise InvalidInputError(f"--{name} must lie in [0, 2^63), got {value}")
    _check_family(generators)
    consts = model_constants()
    b = consts.b
    axes = [axis(m).axis for m in generators]
    intervals = _interval_map(axes)
    pair_data = {(i, j): _geodesic_pair_geometry(axes[i], axes[j])
                 for i in range(len(axes)) for j in range(i + 1, len(axes))}
    l_min = min_translation()
    config = {
        "seed": seed,
        "samples": samples,
        "box": list(box),
        "grid_step": GRID_STEP,
        "radius_margin": RADIUS_MARGIN,
        "use_input_translation": False,
        "notes": [
            "fast-divergence thresholds are grid-certified artifacts; the underlying statement is existence-only",
            "the marking bound F is derived over the whole thick part, a superset of the bounded-translation axes",
        ],
    }
    if mode == "certified_search":
        R = _radius_from_intervals(intervals, b, GRID_STEP, RADIUS_MARGIN)
        N = power_bound(R, b, l_min)
        return PingPongCertificate(
            generators=list(generators), mode=mode, b=b, l_min=l_min, R=R,
            S=R + 6.0 * b, N=N, intervals=intervals, pair_data=pair_data,
            paper=None, config=config,
        )
    pc = paper_constants(generators)
    return PingPongCertificate(
        generators=list(generators), mode=mode, b=b, l_min=l_min, R=pc.R_paper,
        S=None, N=pc.N_paper, intervals=intervals, pair_data=pair_data, paper=pc,
        config=config,
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _sample_blocks(seed: int, n: int, box):
    """The sample of sample_box_points as complex arrays, one block of at most
    SAMPLE_CHUNK points per seed spawned from `seed`, in sample order.

    The seed and the box are checked at the call; block k is drawn when it
    is consumed, from SeedSequence(seed, spawn_key=(k,)), spawn's k-th child,
    and numpy is first imported for the first block drawn.
    """
    if n < 0 or seed < 0:
        raise InvalidInputError(f"need a sample count and seed >= 0, got n={n}, seed={seed}")
    x_lo, x_hi, y_lo, y_hi = box
    if not (x_lo < x_hi and 0.0 < y_lo < y_hi and math.isfinite(x_hi - x_lo)
            and math.isfinite(y_hi)):
        raise InvalidInputError(f"bad sampling box {box}")
    log_lo, log_hi = math.log(y_lo), math.log(y_hi)

    def draw(k):
        # for finite heights, the bits of x + 1j * y
        import numpy as np

        m = min(SAMPLE_CHUNK, n - k * SAMPLE_CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        zs = np.empty(m, dtype=complex)
        zs.real = rng.uniform(x_lo, x_hi, m)
        zs.imag = np.exp(rng.uniform(log_lo, log_hi, m))
        return zs

    return map(draw, range(max(1, -(-n // SAMPLE_CHUNK))))


def sample_box_points(seed: int, n: int, box=DEFAULT_BOX) -> np.ndarray:
    """Deterministic sample of the half-plane box, uniform in (x, log y).

    Drawn in blocks of SAMPLE_CHUNK points, each from its own seed spawned
    from `seed`; the verifier streams the same blocks without joining them.
    """
    import numpy as np

    return np.concatenate(list(_sample_blocks(seed, n, box)))


def _float_entries(m: MappingClass) -> tuple:
    """The entries of m as floats, for hyp2's Mobius maps rather than a Mobius,
    whose determinant check the float entries of a large power fail."""
    try:
        return tuple(map(float, m.entries()))
    except OverflowError:
        raise InvalidInputError(
            "a matrix entry is beyond the float range of the sampled checks") from None


def _mobius_apply_array(m: MappingClass, zs: np.ndarray) -> np.ndarray:
    """hyp2's Mobius map on arrays for the float entries of m."""
    return _mobius_array(*_float_entries(m), zs)


_U = 2.0 ** -53          #: unit roundoff of float64
_LOG_ERR = 2.0 ** -36    #: error of a float log, 2^9 ulps of the largest |log| a float has
_BOUND_MARGIN = 2.0 ** -20  #: subtracted for the float evaluation of the bound itself
_OPERAND_RANGE = (2.0 ** -299, 2.0 ** 399)  #: moduli of the exact linear forms the bound admits
_W_CAP = 2.0 ** 180      #: the chart moduli the bound uses are capped here


def _box_bounds(box):
    """(edge, y_lo): every point the box's draw makes has |x| <= edge and
    y_lo <= y <= edge, if the box's y_lo is a normal float.  uniform(lo, hi)
    is fl(lo + fl(fl(hi - lo) U)), U in [0, 1): within 2^-51 max(|lo|, |hi|)
    of [lo, hi].  The logs and the uniform between them (|log| < 710) err by
    under 2^-40, and exp by a few ulps of a result within 2^-40 relative of
    normal, so y is within 2^-39 relative of [y_lo, y_hi]; 2^-30 covers both."""
    x_lo, x_hi, y_lo, y_hi = box
    return max(abs(x_lo), abs(x_hi), y_hi) * (1.0 + 2.0 ** -30), y_lo * (1.0 - 2.0 ** -30)


def _scaled(*xs):
    """([n, ...], K) with x = n / 2^K exactly for each of the finite floats xs."""
    ratios = [x.as_integer_ratio() for x in xs]
    K = max(d.bit_length() for _, d in ratios) - 1
    return [n << (K + 1 - d.bit_length()) for n, d in ratios], K


def _quotient_error(num, den, bounds):
    """(rho, Z1) for the quotient of the forms a z + b and c z + d, with
    num = (a, b) and den = (c, d) (their signs do not matter), over the
    bounds, or None.

    Under _inclusion_bound's float model the computed quotient lies within
    rho = 2 (3u hi/lo (a, b) + 3u hi/lo (c, d) + 32u) relative of the exact
    one, whose modulus is at most Z1 = hi(a, b) / lo(c, d).  None where a
    modulus leaves _OPERAND_RANGE or a relative error 3u hi/lo reaches 1/8.
    """
    edge, y_lo = bounds
    Z = edge * math.sqrt(2.0) * (1.0 + 2.0 ** -40)
    low, high = _OPERAND_RANGE
    spreads = []
    for a, b in (num, den):
        # the difference is shrunk first, so its rounding cannot raise it
        lo = max(abs(a) * y_lo, abs(b) * (1.0 - 2.0 ** -50) - abs(a) * Z * (1.0 + 2.0 ** -50))
        hi = abs(a) * Z + abs(b)
        rel = 3.0 * _U * hi / lo if lo > 0.0 else math.inf
        if not (lo >= low and hi <= high and rel <= 0.125):
            return None
        spreads.append((lo, hi, rel))
    (_, hi_num, n), (lo_den, _, d) = spreads
    return 2.0 * (n + d + 32.0 * _U), hi_num / lo_den


def _inclusion_bound(chart, mat, sign: int, bounds, T: float) -> float:
    """A lower bound B on sign * t_img for every point z in the bounds with
    sign * param(z) >= T, or -inf where it cannot be had.

    param(z) is the own-axis parameter params_of_array computes; t_img is
    params_of_array(_mobius_apply_array(mat, z)), both with the reference
    IEEE operations.  B >= S therefore certifies the inclusion of every
    such sample without mapping it.  Write u = 2^-53, (A, B, C, D) for the
    float chart, (p, q, r, s) for the float entries of mat, and for real
    a, b let |az + b| range over [lo(a, b), hi(a, b)] on the bounds, with
    hi = |a| Z + |b|, lo = max(|a| y_lo, |b| - |a| Z), Z = sqrt 2 edge: the
    lower bound holds because -b/a is real, so |az + b| >= |a| Im z.

    Float model, for operand moduli in [2^-500, 2^400], which the checks
    below keep (underflow then costs under 2^-170 relative, inside the
    margins):
      * fl(fl(a z) + b) errs by at most 3u (|a||z| + |b|), so by
        3u hi/lo relative: numpy multiplies a + 0j by z componentwise;
      * numpy's complex division is Smith's algorithm, bit for bit; it errs
        by at most 32u relative in modulus, its analysis gives about 17u;
      * np.abs errs by 16u relative (2.3u seen against 50-digit moduli) and
        np.log by _LOG_ERR absolute (it stays within 1 ulp of libm's log).

    1. Own parameter.  chart^-1(z) = (Dz - B)/(-Cz + A) is computed within
       rho0 = 2 (3u hi/lo (D, B) + 3u hi/lo (C, A) + 32u) of the exact w0
       (_quotient_error), so sign * param(z) >= T gives |w0|^sign >= W0 =
       exp(2T - _LOG_ERR) (1 - 16u)(1 - rho0).
    2. Exact conjugate.  H = adj(chart) fl(P) chart in exact integers (for
       sign -1 its entries reversed, which acts on 1/w) maps w0 to the exact
       w of the image, so |w|^sign >= W = (|a| W0 - |b|) / (|c| W0 + |d|)
       for the entries (a, b, c, d) of H, scaled to the largest 1 and
       rounded outward, with |a| W0 >= 2|b| required.
    3. The image z1 = P(z) is computed within eps1 = 2 (3u hi/lo (p, q) +
       3u hi/lo (r, s) + 32u) relative, and |z1| <= Z1 = hi(p, q) /
       lo(r, s), or near the chart's endpoint |k/c| + Delta / (c (cW - c'))
       for the divisor's coefficients (c, k) and the other's c'.
    4. chart^-1(z1c) divides a "big" linear form (Dz - B for sign +1) by a
       "small" one (-Cz + A; the roles swap for sign -1), each computed
       within E = |c| eps1 Z1 + 3u (|c| Z1 (1 + eps1) + |k|).  With
       Delta = AD - BC exact, the exact small form is Delta / (c w + c'),
       so 1/|small| <= k = (c W + c') / Delta and |big| >= W / k.  While
       |small_c| >= 2^-500, Smith's division gives |q|^sign >= f (1 - 32u)
       with f = (W - E_big k) / (1 + E_small k), monotone in W.  f
       saturates at about Delta / (E_small c^2), which is
       1/2 log(1/(u scale)) in the parameter, not -inf.  Below 2^-500, with
       |big_c| >= 2^-299 required, either the quotient is beyond 2^199 or
       it is infinite or nan, which params_of_array reads as +inf (sign +1;
       for sign -1 it is below 2^-199): sign * t_img >= 68 > B.
    5. B = 1/2 (log f + log(1 - 48u) - _LOG_ERR) - _BOUND_MARGIN, at most
       67.  Every step is monotone in T, W0 and W are capped at _W_CAP, and
       each difference keeps half its leading term, so the float evaluation
       of B errs by less than 2^-40, far inside the margin.

    -inf where the entries do not convert, or a modulus of steps 1 and 3
    leaves _OPERAND_RANGE, or a relative error reaches 1/8.
    """
    try:
        p, q, r, s = (float(v) for v in mat.entries())
    except OverflowError:
        return -math.inf
    A, B, C, D = chart.a, chart.b, chart.c, chart.d
    own, image = _quotient_error((D, B), (C, A), bounds), _quotient_error((p, q), (r, s), bounds)
    if own is None or image is None:
        return -math.inf
    (rho0, _), (eps1, z1_box) = own, image
    low, high = _OPERAND_RANGE

    # entries n / 2^K: delta and H come out times 2^2K and 2^3K; int / int rounds correctly
    (fA, fB, fC, fD, fp, fq, fr, fs), K = _scaled(A, B, C, D, p, q, r, s)
    delta = fA * fD - fB * fC
    if delta <= 0:
        return -math.inf
    m00, m01, m10, m11 = fp * fA + fq * fC, fp * fB + fq * fD, fr * fA + fs * fC, fr * fB + fs * fD
    H = [fD * m00 - fB * m10, fD * m01 - fB * m11, fA * m10 - fC * m00, fA * m11 - fC * m01]
    scale = max(map(abs, H))
    if sign == -1:
        H.reverse()
    h_a = math.nextafter(abs(H[0]) / scale, 0.0)
    h_b, h_c, h_d = (math.nextafter(abs(v) / scale, math.inf) for v in H[1:])
    delta = delta / (1 << 2 * K)
    delta_lo, delta_hi = math.nextafter(delta, 0.0), math.nextafter(delta, math.inf)
    big, small = ((D, B), (C, A)) if sign == 1 else ((C, A), (D, B))
    c_big, c_small, k_small = abs(big[0]), abs(small[0]), abs(small[1])
    shrink = math.log1p(-16.0 * _U) + math.log1p(-rho0) - _LOG_ERR

    W0 = min(_W_CAP, math.exp(min(2.0 * T + shrink, 300.0)))
    if not h_a * W0 >= 2.0 * h_b:
        return -math.inf
    W = min(_W_CAP, (h_a * W0 - h_b) / (h_c * W0 + h_d))
    k = (c_small * W + c_big) / delta_lo
    z1 = z1_box
    if c_small * W > 2.0 * c_big:
        z1 = min(z1, k_small / c_small + delta_hi / (c_small * (c_small * W - c_big)))
    errs = []
    for c, kk in (big, small):
        size = abs(c) * z1 * (1.0 + eps1) + abs(kk)
        errs.append(abs(c) * eps1 * z1 + 3.0 * _U * size)
        if not size + errs[-1] <= high:
            return -math.inf
    e_big, e_small = errs
    if not (W >= 2.0 * e_big * k and W / k - e_big >= low):
        return -math.inf
    f = (W - e_big * k) / (1.0 + e_small * k)
    return min(67.0, 0.5 * (math.log(f) + math.log1p(-48.0 * _U) - _LOG_ERR) - _BOUND_MARGIN)


def _table_empty(chart, sign: int, bounds, S: float) -> bool:
    """True only when no point z in the bounds has param(z) >= S (sign +1)
    or param(z) <= -S (sign -1), for the float param(z) of params_of_array.

    By step 1 of _inclusion_bound, chart^-1(z) is computed within rho0
    relative of the exact w0, neither of its forms vanishes or overflows
    (so param(z) is never nan), np.abs adds 16u and np.log _LOG_ERR, so
    |param(z) - 1/2 log|w0|| <= delta = -1/2 (log(1 - rho0) + log(1 - 16u)
    - _LOG_ERR) + _BOUND_MARGIN; log(1 + x) <= -log(1 - x) covers the upper
    side, and the margin covers the float evaluation of delta and of lam,
    whose cap at e^700 only lowers it.  With (a, b, c, k) = (D, B, C, A)
    for sign +1 and (C, A, D, B) for sign -1, a point of the table has
    |az - b| >= e^{2(S - delta)} |cz - k|, so f = |az - b|^2 - lam |cz - k|^2
    >= 0 for a rational lam <= e^{4(S - delta)}.  With z = x + iy, f =
    alpha (x^2 + y^2) - 2 beta x + gamma for alpha = a^2 - lam c^2, beta =
    ab - lam ck, gamma = b^2 - lam k^2.  For alpha < 0 f is concave and
    falls with y > 0, so its maximum over [-edge, edge] x [y_lo, edge] is at
    y_lo and x = clamp(beta / alpha); otherwise it is at a corner.  The
    table is empty when that maximum, taken in exact integers, is negative.
    """
    forms = (chart.d, chart.b, chart.c, chart.a)
    own = _quotient_error(forms[:2], forms[2:], bounds)
    if own is None:
        return False
    delta = _BOUND_MARGIN - 0.5 * (math.log1p(-own[0]) + math.log1p(-16.0 * _U) - _LOG_ERR)
    lam = math.exp(min(4.0 * (S - delta), 700.0))
    # every input n / 2^K: alpha, beta and gamma come out times 2^3K
    forms = forms if sign == 1 else forms[2:] + forms[:2]
    (a, b, c, k, lam, edge, y_lo), K = _scaled(*forms, lam, *bounds)
    one = 1 << K
    alpha, beta, gamma = (a * a * one - lam * c * c, a * b * one - lam * c * k,
                          b * b * one - lam * k * k)

    def f(x, y, d=1):  # f at (x / (d 2^K), y / 2^K), times 2^5K d^2
        return alpha * (x * x + y * y * d * d) - 2 * beta * x * d * one + gamma * (d * one) ** 2
    if alpha < 0:  # x = beta / alpha = num / den with den > 0, clamped by cross-multiplying
        num, den = -beta * one, -alpha
        peaks = [(edge, y_lo) if num > edge * den else (-edge, y_lo) if num < -edge * den
                 else (num, y_lo, den)]
    else:
        peaks = [(x, y) for x in (-edge, edge) for y in (y_lo, edge)]
    return all(f(*peak) < 0 for peak in peaks)


#: e^{i a} for the planted witnesses' angles a = pi/3, pi/2, 2 pi/3, with numpy's bits
_TURNS = tuple(complex(math.cos(a), math.sin(a))
               for a in (math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0))


def _height(x: float) -> float:
    """e^x, inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _sampled_checks(cert: PingPongCertificate, axes, trs, seed: int, sample_budget: int,
                    box, checks: list) -> None:
    """Inclusion under the exact N-th powers and table disjointness, on the
    box sample streamed one SAMPLE_CHUNK block at a time.

    Each power and each table is decided once per box.  When the box's
    y_lo is a normal float, _box_bounds puts every drawn point inside the
    bounds, so a power that _inclusion_bound at -S certifies maps no
    sample, and an axis whose two powers are so certified and whose two
    tables _table_empty proves to miss the bounds computes no parameter:
    its tables add no hit.  On a subnormal y_lo nothing is decided.  Blocks
    are drawn only while some axis is undecided, and every other power maps
    the samples its check selects; the outcome is that of mapping every
    selected sample.  A power keeps the witness of its first failing sample
    unless some block refuses its entries or one of its images, which wins
    as it does over the whole sample.  The checks are decided after the
    stream in the order of a whole-sample pass: inclusion by generator and
    sign (a generator whose power leaves the float range is refused at its
    turn), then disjointness, which fails where a sample lies in two tables.
    """
    S, N = cert.S, cert.N
    blocks = _sample_blocks(seed, sample_budget, box)
    maps = []  # (i, sign, g_i^(sign N)), in order up to the first refused generator
    refused = None
    for i, (m, tr) in enumerate(zip(cert.generators, trs)):
        if N * tr > FLOAT_POWER_LIMIT:
            # refused before the power, whose entries would have about N Tr / log 2 bits
            refused = InvalidInputError(
                f"the N-th power of generator {i} (N = {N}) has entries beyond "
                f"the float range of the sampled checks")
            break
        power = m ** N
        maps += [(i, 1, power), (i, -1, power.inverse())]
    bounds = _box_bounds(box)
    trusted = box[2] >= sys.float_info.min
    certified = {(i, sign) for i, sign, mat in maps
                 if trusted and _inclusion_bound(axes[i].chart, mat, sign, bounds, -S) >= S}
    live = [i for i, c in enumerate(axes)
            if not all((i, sign) in certified and _table_empty(c.chart, sign, bounds, S)
                       for sign in (1, -1))]
    outcome = {}  # (i, sign) -> its InvalidInputError, or the witness of its first failure
    n = len(axes)
    per_set = [0] * (2 * n)  # hits of the plus, then the minus tables
    most, most_at = 0, None  # most tables one sample lies in, and the first such sample
    for zs in blocks if live else ():
        import numpy as np  # loaded by the block's draw

        params = {i: axes[i].params_of_array(zs) for i in live}
        for i, sign, mat in maps:
            if (i, sign) in certified or isinstance(outcome.get((i, sign)), InvalidInputError):
                continue
            mask = params[i] > -S if sign == 1 else params[i] < S
            if not mask.any():
                continue
            selected = zs if mask.all() else zs[mask]
            try:
                t_img = axes[i].params_of_array(_mobius_apply_array(mat, selected))
            except InvalidInputError as exc:
                outcome[(i, sign)] = exc
                continue
            good = t_img >= S if sign == 1 else t_img <= -S
            if (i, sign) not in outcome and not bool(np.all(good)):
                k = int(np.argmin(good))
                z_bad = selected[k]
                outcome[(i, sign)] = {"point": [float(z_bad.real), float(z_bad.imag)],
                                      "param": float(t_img[k])}
        rows = np.stack(list(params.values()))
        membership = np.stack([rows >= S, rows <= -S])
        for k, hits in enumerate(membership.sum(axis=2).tolist()):
            for i, h in zip(live, hits):
                per_set[k * n + i] += h
        counts = membership.sum(axis=(0, 1))
        if int(counts.max(initial=0)) > most:
            k = int(np.argmax(counts))
            most, most_at = int(counts[k]), [float(zs[k].real), float(zs[k].imag)]

    for i, sign, _ in maps:
        found = outcome.get((i, sign))
        if isinstance(found, InvalidInputError):
            raise found
        if found is not None:
            raise CertificateInvalidError(
                f"power of generator {i} (sign {sign:+d}) failed the inclusion", witness=found)
    if refused is not None:
        raise refused
    checks.append({"name": "inclusion-empirical", "passed": True,
                   "samples": int(sample_budget), "powers": "exact integer matrices"})

    ok = most <= 1
    checks.append({"name": "table-disjointness", "passed": bool(ok), "samples": int(sample_budget),
                   "per_set_hits": per_set})
    if not ok:
        raise CertificateInvalidError("a sample lies in two tables",
                                      witness={"point": most_at})


def verify_pingpong(cert: PingPongCertificate, sample_budget: int = 10_000, *,
                    seed: int | None = None) -> dict:
    """Run the analytic and empirical checks; raises on any failure.

    Samples are drawn from the box the certificate records, under its seed
    unless another is given.

    Analytic: each generator advances its own axis parameter by its
    translation distance, and N of those steps clear both tables (2S) with
    recorded slack.  Empirical (certified mode): exact N-th matrix powers
    map sampled points off the minus table into the plus table, and no
    sample lies in two of the 2n tables.

    The samples are those of sample_box_points, streamed one SAMPLE_CHUNK
    block at a time, so memory stays bounded by a block whatever the
    budget; the verdict and the witness are those of a pass over the whole
    sample.  The fixed checks run on hyp2's scalar kernel, and numpy is
    imported only when a block is drawn.
    """
    seed = cert.config["seed"] if seed is None else seed
    box = tuple(cert.config["box"])
    gens = cert.generators
    checks = []
    report = {"mode": cert.mode, "sample_budget": int(sample_budget), "seed": int(seed),
              "box": list(box), "checks": checks, "passed": False}
    cert.verification = report

    def fail(message, witness=None):
        raise CertificateInvalidError(message, witness=witness)

    # power threshold, decided in exact rationals in both modes
    ok = cert.N >= 1 and (Fraction(cert.N) * Fraction(cert.l_min)
                          > 2 * Fraction(cert.R) + 12 * Fraction(cert.b))
    if cert.mode == "paper_formula":
        checks.append({"name": "power-threshold", "passed": bool(ok),
                       "detail": "exact rational comparison N l_min > 2R + 12b"})
    else:
        checks.append({"name": "power-threshold", "passed": bool(ok),
                       "threshold": (2.0 * cert.R + 12.0 * cert.b) / cert.l_min, "N": cert.N})
    if not ok:
        fail("N does not clear (2R + 12b) / l_min", witness={"N": str(cert.N)})

    trs = [translation_distance(m) for m in gens]
    if cert.mode == "paper_formula":
        # N l_min > 2R + 12b and Tr_i >= l_min give each inclusion exactly
        ok = all(tr >= cert.l_min - 1e-12 for tr in trs)
        checks.append({"name": "translation-inclusion", "passed": bool(ok),
                       "detail": "per generator, N Tr >= N l_min > 2(R + 6b)"})
        if not ok:
            fail("a generator translates less than the stated floor")
        report["passed"] = True
        return report

    axes = [axis(m).axis for m in gens]
    S = cert.S

    slacks = [cert.N * tr - 2.0 * S for tr in trs]
    ok = all(s >= SLACK_FLOOR for s in slacks)
    checks.append({"name": "translation-inclusion", "passed": bool(ok),
                   "slacks": slacks, "required": SLACK_FLOOR})
    if not ok:
        fail("N Tr does not clear both tables", witness={"slacks": slacks})

    # projection equivariance along each generator's own axis; the tolerance
    # tracks the measured float noise of applying the matrix (large-entry
    # generators with tiny axes condition badly, a logic bug would show up
    # at the scale of Tr, orders of magnitude above the noise floor)
    charts = [(c.chart.a, c.chart.b, c.chart.c, c.chart.d) for c in axes]
    grid = [0.5 * k - 3.0 for k in range(13)]  # -3, -2.5, ..., 3
    starts = [complex(0.0, math.exp(2.0 * t)) for t in grid]
    worst = noise = 0.0
    for m, c, chart, tr in zip(gens, axes, charts, trs):
        moved = _mobius_points(*_float_entries(m), _mobius_points(*chart, starts))
        back = _mobius_points(*_float_entries(m.inverse()), moved)
        params = c.params_of_points(back + moved)
        noise = max(noise, *(abs(t - g) for t, g in zip(params, grid)))
        worst = max(worst, *(abs(t - (g + tr)) for t, g in zip(params[len(grid):], grid)))
    tol = max(1e-8, 16.0 * noise)
    ok = worst <= tol
    checks.append({"name": "axis-equivariance", "passed": bool(ok),
                   "max_error": worst, "tolerance": tol, "float_noise": noise})
    if not ok:
        fail("generator does not translate its axis by Tr", witness={"max_error": worst})

    _sampled_checks(cert, axes, trs, seed, sample_budget, box, checks)

    # uniform-box samples rarely reach the tables, so also plant witnesses on
    # and near each table (points over the axis feet at parameter beyond S)
    # and require each to belong to its own table only.  Table t = 2i + k,
    # (i, (1, -1)[k]), holds witnesses t * size to (t + 1) * size of pts.
    # Every axis places every witness before any table is checked, so a
    # non-finite witness (S above about 353, where e^{2(S + 1.5)} overflows)
    # is refused first.  From S near 18 a witness lies within float rounding
    # of its axis's endpoint, so its parameter is noise and can miss its own
    # table: (phi, psi) fails so at S = 20
    w = [_height(k * (S + lift)) * turn for k in (2.0, -2.0)
         for lift in (0.1, 0.5, 1.0, 1.5) for turn in _TURNS]
    size = len(w) // 2
    pts = [z for chart in charts for z in _mobius_points(*chart, w)]
    wp = [c.params_of_points(pts) for c in axes]
    # the tables each witness lies in
    tables = list(map(sum, zip(*([(t >= S) + (t <= -S) for t in row] for row in wp))))
    for t, (i, sign) in enumerate((i, sign) for i in range(len(axes)) for sign in (1, -1)):
        own = slice(t * size, (t + 1) * size)
        if not all(sign * p >= S for p in wp[i][own]):
            fail(f"planted witness missed its own table ({i}, {sign:+d})")
        most = max(tables[own])
        if most > 1:
            z = pts[own][tables[own].index(most)]
            fail("a planted table witness lies in a second table",
                 witness={"point": [z.real, z.imag], "table": [i, sign]})
    checks.append({"name": "table-witness-disjointness", "passed": True,
                   "witnesses_per_table": size})

    # re-validate the stored intervals: the projection is monotone along the
    # source axis, so its closure spans the feet of the source's endpoints
    bound = cert.R + 4.0 * cert.b + 1e-9
    for (i, j), (lo, hi) in cert.intervals.items():
        for t in projection_interval(axes[i], axes[j]):
            if not (lo - 1e-9 <= t <= hi + 1e-9 and abs(t) <= bound):
                fail(f"projection of axis {j} on axis {i} left its interval",
                     witness={"param": t})
    checks.append({"name": "interval-containment", "passed": True,
                   "pairs": len(cert.intervals), "bound": bound})

    report["passed"] = True
    return report
