"""Half-space tables, disjointness radii, literal power bounds, and the verifier.

Two modes produce a certificate that the N-th powers of a family of
independent hyperbolic classes freely generate:

* certified_search: the radius comes from the computed projection intervals,
  and the verifier decides the ping-pong lemma for the practical N exactly,
  in integers;

* paper_formula: the literal factorial bound, kept as exact integers that
  are reported by digit count and never exponentiated.

The factorial bookkeeping is reproduced exactly as stated, without trying
to shrink the constant.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import (CertificateInvalidError, ConstantDerivationError,
                     InvalidInputError, NotIndependentError)
from .hyp2 import Record, Value
from .mcg import (_end_order, _table_ends, axis, independent, min_translation,
                  translation_distance)
from .projection import (_geodesic_pair_geometry, derive_morse, model_constants,
                          projection_interval)

DEFAULT_BOX = (-10.0, 10.0, 0.05, 10.0)
GRID_STEP = 0.01  #: step of the radius grid
RADIUS_MARGIN = 0.05  #: margin on the certified radius
FACTORIAL_LIMIT = 20_000_000  #: largest short-curve bound B whose factorial paper mode builds
#: largest S the verifier decides: the integers of its exact checks grow with S
S_MAX = 4096
#: a rational just below log 2
_LN2_LO = Fraction(6931471805, 10 ** 10)


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


def _check_sampling(seed, samples, box) -> None:
    """Refuse a seed or a sample count outside [0, 2^63), and a box other
    than (x_lo, x_hi, y_lo, y_hi) with x_lo < x_hi, 0 < y_lo < y_hi, a
    finite width and a finite top.  The certificate records all three and
    no check uses them."""
    for name, value in (("seed", seed), ("samples", samples)):
        if not 0 <= value < 2 ** 63:
            raise InvalidInputError(f"--{name} must lie in [0, 2^63), got {value}")
    # a box of another length fails every comparison
    x_lo, x_hi, y_lo, y_hi = box if len(box) == 4 else (math.nan,) * 4
    if not (x_lo < x_hi and 0.0 < y_lo < y_hi and math.isfinite(x_hi - x_lo)
            and math.isfinite(y_hi)):
        raise InvalidInputError(f"bad sampling box {box}")


def _interval_map(axes):
    out = {}
    for i, ci in enumerate(axes):
        for j, cj in enumerate(axes):
            if i != j:
                out[(i, j)] = projection_interval(ci, cj)
    return out


def _radius_from_intervals(intervals, b, grid_step, margin):
    """Least R on the grid with every interval, each in its target axis's own
    parametrization, inside (-(R + 4b), R + 4b), times 1 + margin."""
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


def power_bound(R, b: float, l_min: float) -> int:
    """Least integer N with N > (2R + 12b) / l_min, computed in exact rationals.

    The certificates pass the group-wide least translation distance as l_min.
    """
    if l_min <= 0:
        raise InvalidInputError("translation floor must be positive")
    return math.floor((2 * Fraction(R) + 12 * Fraction(b)) / Fraction(l_min)) + 1


def paper_radius_bound(B: int, L) -> int:
    """max(B! + 2, (B! + 2) L) as an exact integer-valued bound (ceiling in L)."""
    if B < 1:
        raise InvalidInputError("need B >= 1")
    base = math.factorial(B) + 2
    return max(base, math.ceil(base * Fraction(L)))


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
    _check_sampling(seed, samples, box)
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
        "notes": [
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

def _trace_power(t: int, n: int) -> int:
    """tr g^n for n >= 1 and tr g = t, from t_2k = t_k^2 - 2 and
    t_2k+1 = t_k t_k+1 - t, along the bits of n."""
    lo, hi = 2, t  # t_k and t_k+1, from k = 0
    for bit in bin(n)[2:]:
        lo, hi = (lo * hi - t, hi * hi - 2) if bit == "1" else (lo * lo - 2, lo * hi - t)
    return lo


def verify_pingpong(cert: PingPongCertificate, sample_budget: int = 10_000, *,
                    seed: int | None = None) -> dict:
    """Decide the certificate's checks exactly; raises on the first failure.

    The sample budget, the seed (the certificate's unless another is given)
    and the certificate's box are range-checked and recorded in the report,
    but no check draws a sample.

    Power threshold: N l_min > 2R + 12b, in exact rationals in both modes.
    Paper mode then needs Tr_i >= l_min alone.  Certified mode decides the
    two hypotheses of the ping-pong lemma on all of H from one bracket
    E_lo < e^{2S} < E_hi, taken once for 0 < S <= S_MAX:

    * translation inclusion: |tr g_i^n| >= E_hi + 1/E_hi, in integers, at
      n = min(N, N0_i), which gives N Tr_i > 2S, so g_i^N maps the
      complement of its minus table into its plus table;
    * table disjointness: the 2n tables at E_lo, which contain the true
      ones, are pairwise disjoint, decided in integers on the table ends in
      Q(sqrt Delta) of mcg._table_ends.

    Last, every stored interval contains the recomputed projection.  The
    work is bounded by S and the entries, never by N.
    """
    seed = cert.config["seed"] if seed is None else seed
    box = tuple(cert.config["box"])
    _check_sampling(seed, sample_budget, box)
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

    if cert.mode == "paper_formula":
        # N l_min > 2R + 12b and Tr_i >= l_min give each inclusion exactly
        ok = all(translation_distance(m) >= cert.l_min - 1e-12 for m in gens)
        checks.append({"name": "translation-inclusion", "passed": bool(ok),
                       "detail": "per generator, N Tr >= N l_min > 2(R + 6b)"})
        if not ok:
            fail("a generator translates less than the stated floor")
        report["passed"] = True
        return report

    # one bracket: decimal's exp is correctly rounded and e^{2S} is
    # irrational, so E_lo < e^{2S} < E_hi.  An S outside (0, S_MAX], inf
    # and nan included, fails closed before the exp, whose digits grow with S
    S = cert.S
    out_of_range = (f"S is out of range for exact tables: need 0 < S <= {S_MAX} "
                    "and e^{2S} above 1 at 40 digits")
    if not 0.0 < S <= S_MAX:
        fail(out_of_range, witness={"S": S})
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(2.0 * S).exp()
        E_lo, E_hi = Fraction(r.next_minus()), Fraction(r.next_plus())
    if not E_lo > 1:
        fail(out_of_range, witness={"S": S})

    # g^n moves its exact axis parameter by n Tr, and |tr g^n| = lam^n +
    # lam^-n, so |tr g^n| >= E_hi + 1/E_hi (with E_hi = p/q, |t_n| p q >=
    # p^2 + q^2) gives n Tr > 2S.  The test runs at n = min(N, N0), N0 the
    # least n with n l > 2S + 1 for l = (bit_length(t - 1) - 1) log 2 <=
    # log(t - 1) < Tr: a pass at n <= N is a pass at N, and N0 Tr > 2S + 1
    # passes, so the trace has O(S) bits whatever N is
    p, q = E_hi.numerator, E_hi.denominator
    reach, clear = 2 * Fraction(S) + 1, p * p + q * q
    for i, m in enumerate(gens):
        t = abs(m.trace)
        n = min(cert.N, math.floor(reach / (((t - 1).bit_length() - 1) * _LN2_LO)) + 1)
        if _trace_power(t, n) * p * q < clear:
            fail(f"the N-th power of generator {i} does not clear both tables",
                 witness={"generator": i})
    checks.append({"name": "translation-inclusion", "passed": True, "generators": len(gens)})

    # the 2n tables at E_lo contain the true ones, and two half-disks over
    # intervals meeting in at most one point are disjoint in H
    u = (E_lo - 1) / (E_lo + 1)  # tanh S, rounded down
    tables = [(i, sign, ends) for i, m in enumerate(gens)
              for sign, ends in zip((1, -1), _table_ends(m, u))]
    for (i, s, (lo1, hi1)), (j, t, (lo2, hi2)) in itertools.combinations(tables, 2):
        if _end_order(hi1, lo2) > 0 and _end_order(hi2, lo1) > 0:
            fail(f"tables ({i}, {s:+d}) and ({j}, {t:+d}) meet",
                 witness={"tables": [[i, s], [j, t]]})
    checks.append({"name": "table-disjointness-exact", "passed": True, "tables": len(tables)})

    # re-validate the stored intervals: the projection is monotone along the
    # source axis, so its closure spans the feet of the source's endpoints
    axes = [axis(m).axis for m in gens]
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
