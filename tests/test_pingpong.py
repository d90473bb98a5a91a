import itertools
import math
import re
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import L_GEN, PHI, PSI, PSI_CONJUGATES, R_GEN, random_independent_pair
from teichpong.errors import (CertificateInvalidError, ConstantDerivationError,
                              InvalidInputError, NotIndependentError)
from teichpong import pingpong
from teichpong.hyp2 import BoundaryPoint, Geodesic, Mobius, Point
from teichpong.mcg import (MappingClass, _end_order, _sign_of, _table_ends, _trace_power, axis,
                           min_translation, projection_interval, translation_distance)
from teichpong.pingpong import (build_certificate, paper_radius_bound, power_bound,
                                verify_pingpong)
from teichpong.projection import model_constants
from teichpong.serialize import certificate_document

def conjugated(m, k):
    return m.conjugated_by(MappingClass(1, k, 0, 1))


class TestCertifiedRadius:
    """The radius R that build_certificate takes from the projection intervals."""

    def test_standard_pair_small(self):
        b = model_constants().b
        r = build_certificate([PHI, PSI]).R
        assert 0 < r <= b

    def test_intervals_within_bound(self):
        b = model_constants().b
        r = build_certificate([PHI, PSI]).R
        for tgt, src in ((PHI, PSI), (PSI, PHI)):
            lo, hi = projection_interval(tgt, src)
            assert max(abs(lo), abs(hi)) < r + 4 * b
            assert hi - lo <= 2 * (r + 4 * b)

    def test_monotone_under_separation(self):
        values = [build_certificate([PHI, conjugated(PHI, k)]).R for k in (1, 4, 16)]
        assert values[0] >= values[1] >= values[2] > 0

    def test_rejects_dependent(self):
        with pytest.raises(NotIndependentError):
            build_certificate([PHI, PHI ** 3])

    def test_needs_two(self):
        with pytest.raises(InvalidInputError, match="need at least two generators"):
            build_certificate([PHI])


class TestPowerBound:
    def test_reference_arithmetic(self):
        assert power_bound(8, 0.5, l_min=0.96242) == 23

    def test_monotone_in_radius_and_contraction(self):
        base = power_bound(8, 0.5, l_min=0.96242)
        assert power_bound(9, 0.5, l_min=0.96242) >= base
        assert power_bound(8, 0.7, l_min=0.96242) >= base

    def test_exact_on_integer_radius(self):
        n = power_bound(10 ** 30, 0.5, l_min=1.0)
        assert n == 2 * 10 ** 30 + 6 + 1


class TestPaperRadiusBound:
    def test_synthetic_three_one(self):
        assert paper_radius_bound(3, 1) == 8

    def test_synthetic_four_two(self):
        assert paper_radius_bound(4, 2) == 52

    def test_fractional_translation_rounds_up(self):
        # (3! + 2) * 1.3 = 10.4 -> 11
        assert paper_radius_bound(3, 1.3) == 11

    def test_factorial_guard(self, monkeypatch):
        from teichpong import pingpong
        monkeypatch.setattr(pingpong, "FACTORIAL_LIMIT", 10)
        with pytest.raises(ConstantDerivationError):
            pingpong.paper_constants([PHI, PSI])


class TestCertificate:
    def test_certified_roundtrip(self):
        cert = build_certificate([PHI, PSI])
        assert cert.mode == "certified_search"
        assert cert.S == pytest.approx(cert.R + 6 * cert.b, abs=1e-12)
        assert cert.N > (2 * cert.R + 12 * cert.b) / cert.l_min
        report = verify_pingpong(cert, 5000)
        assert report["passed"]
        names = [c["name"] for c in report["checks"]]
        assert names == ["power-threshold", "translation-inclusion", "table-disjointness-exact",
                         "interval-containment"]

    def test_verification_samples_reach_tables(self):
        cert = build_certificate([PHI, PSI])
        verify_pingpong(cert, 5000)
        assert cert.verification["checks"][1:3] == [
            {"name": "translation-inclusion", "passed": True, "generators": 2},
            {"name": "table-disjointness-exact", "passed": True, "tables": 4}]

    def test_nearly_shared_endpoints_need_large_radius(self):
        # conjugating by phi^5 T drags the second axis's endpoints within
        # about e^{-10} of the first axis's attracting end; the projection
        # interval then sticks far out and the certified radius must grow
        # beyond the grid floor, with a correspondingly larger power
        h = (PHI ** 5) * MappingClass(1, 1, 0, 1)
        m2 = PHI.conjugated_by(h)
        cert = build_certificate([PHI, m2], box=(-10, 10, 1e-6, 10))
        assert cert.R > 1.0
        assert cert.N > 12
        report = verify_pingpong(cert, 5000)
        assert report["passed"]
        from teichpong.oracle import free_check
        assert free_check([PHI, m2], cert.N, 5).violations == []

    def test_large_disjointness_monte_carlo(self):
        # a hundred thousand points sampled down to the boundary, never in
        # two of the four tables at the certified radius plus slack
        cert = build_certificate([PHI, PSI])
        S = cert.S
        zs = reference_sample(17, 100_000, box=(-10.0, 10.0, 1e-6, 10.0))
        axes = [axis(m).axis for m in cert.generators]
        params = np.stack([reference_params(c, zs) for c in axes])
        membership = np.concatenate([params >= S, params <= -S])
        assert int(membership.sum(axis=0).max()) <= 1

    @pytest.mark.parametrize("field", ["seed", "samples"])
    @pytest.mark.parametrize("value", [-1, 2 ** 63, 10 ** 20])
    def test_seed_and_samples_range(self, field, value):
        with pytest.raises(InvalidInputError, match=f"--{field} must lie in"):
            build_certificate([PHI, PSI], **{field: value})
        build_certificate([PHI, PSI], **{field: 2 ** 63 - 1})

    @pytest.mark.parametrize("mode", ["certified_search", "paper_formula"])
    @pytest.mark.parametrize("box", [(1.0, 0.0, 0.05, 10.0), (-10.0, 10.0, 0.0, 10.0),
                                     (-10.0, 10.0, 0.05)], ids=["x-reversed", "y-zero", "three"])
    def test_bad_box_refused(self, box, mode):
        with pytest.raises(InvalidInputError, match="bad sampling box"):
            build_certificate([PHI, PSI], mode, box=box)

    def test_zero_power_fails(self):
        cert = build_certificate([PHI, PSI])
        cert.N = 0
        with pytest.raises(CertificateInvalidError):
            verify_pingpong(cert, 100)

    def test_dependent_pair_rejected_upstream(self):
        with pytest.raises(NotIndependentError):
            build_certificate([PHI, PHI ** 2])

    def test_three_generators(self):
        gens = [PHI, PSI, conjugated(PHI, 2)]
        cert = build_certificate(gens)
        report = verify_pingpong(cert, 3000)
        assert report["passed"]
        assert len(cert.intervals) == 6

    def test_deterministic_documents(self):
        a = build_certificate([PHI, PSI])
        verify_pingpong(a, 2000)
        b = build_certificate([PHI, PSI])
        verify_pingpong(b, 2000)
        assert certificate_document(a) == certificate_document(b)

    def test_random_pairs_verify(self, rng):
        for _ in range(3):
            m1, m2 = random_independent_pair(rng)
            cert = build_certificate([m1, m2])
            report = verify_pingpong(cert, 2000)
            assert report["passed"]

    def test_paper_mode_analytic_verification(self):
        # synthetic paper-shaped certificate with hand-sized exact integers:
        # 23 * l_min = 22.13... > 2*8 + 12*0.5 = 22
        from teichpong.pingpong import PingPongCertificate
        cert = build_certificate([PHI, PSI])
        paper_like = PingPongCertificate(
            generators=cert.generators, mode="paper_formula", b=0.5,
            l_min=min_translation(), R=8, S=None, N=23,
            intervals=cert.intervals, pair_data=cert.pair_data,
            paper=None, config=dict(cert.config),
        )
        report = verify_pingpong(paper_like, 100)
        assert report["passed"]
        assert [c["name"] for c in report["checks"]] == [
            "power-threshold", "translation-inclusion"]
        paper_like.N = 22  # 22 * l_min = 21.17 < 22, must be rejected
        with pytest.raises(CertificateInvalidError):
            verify_pingpong(paper_like, 100)


class TestSampling:
    """The float reference's box draw, and the box rule the verifier shares
    with the builder."""

    def test_deterministic(self):
        a = reference_sample(7, 1000, pingpong.DEFAULT_BOX)
        b = reference_sample(7, 1000, pingpong.DEFAULT_BOX)
        assert np.array_equal(a, b)
        first, second = build_certificate([PHI, PSI]), build_certificate([PHI, PSI])
        assert verify_pingpong(first, 1000) == verify_pingpong(second, 1000)

    def test_box_respected(self):
        z = reference_sample(1, 5000, (-2, 3, 0.1, 4))
        assert z.real.min() >= -2 and z.real.max() <= 3
        assert z.imag.min() >= 0.1 and z.imag.max() <= 4

    def test_bad_box(self):
        with pytest.raises(InvalidInputError, match="bad sampling box"):
            pingpong._check_sampling(0, 10, (1, -1, 0.1, 1))


def _loop_grid_count(target, grid_step):
    """Reference: the step-by-step search for the least grid count k >= 1."""
    k = 1
    while k * grid_step < target - 1e-15:
        k += 1
    return k


class TestRadiusGridCount:
    @staticmethod
    def grid_count(target, grid_step):
        from teichpong.pingpong import _radius_from_intervals
        # with b = 0 and no margin the radius is exactly k * grid_step
        return _radius_from_intervals({(0, 1): (-target, target)}, 0.0, grid_step, 0.0)

    def test_matches_step_loop_near_grid_multiples(self):
        for grid_step in (0.001, 0.003, 0.007, 0.01, 0.05, 0.1, 1.0 / 3.0):
            for k in list(range(40)) + list(range(995, 1010)):
                for offset in (0.0, 5e-16, -5e-16, 1e-15, -1e-15, 2e-15, -2e-15):
                    target = max(0.0, k * grid_step + offset)
                    expected = _loop_grid_count(target, grid_step) * grid_step
                    assert self.grid_count(target, grid_step) == expected, (grid_step, k, offset)

    def test_quotient_rounding_case(self):
        # a bare ceil of the quotient gives 1004 here; the loop gives 1003
        assert _loop_grid_count(1.0030000000000012, 0.001) == 1003
        assert self.grid_count(1.0030000000000012, 0.001) == 1003 * 0.001


class TestExactInclusion:
    """Inclusion decided on the integer trace of g^n, with its work bounded by S."""

    def test_trace_recurrence(self):
        for m in (PHI, PSI.inverse(), L_GEN ** 1000 * R_GEN, MappingClass(1, 2, -3, -5)):
            for n in range(1, 40):
                assert _trace_power(abs(m.trace), n) == abs((m ** n).trace), (m, n)

    def test_failure_names_the_generator(self):
        # S raised without N: 12 Tr = 11.55 falls short of 2S = 20
        cert = build_certificate([PHI, PSI])
        cert.S = 10.0
        with pytest.raises(CertificateInvalidError) as info:
            verify_pingpong(cert)
        assert (str(info.value), info.value.witness) == (
            "the N-th power of generator 0 does not clear both tables", {"generator": 0})

    def test_decides_n_tr_against_2s(self):
        # on either side of 2S = n Tr_min, far outside the float error of n Tr
        import random
        for seed in range(40):
            gens = positive_word_family(random.Random(seed), 3 if seed % 4 == 3 else 2)
            trs = [translation_distance(m) for m in gens]
            first = trs.index(min(trs))
            for n in (1, 2, 7, 12, 200):
                cert = build_certificate(gens)
                cert.N, cert.R, cert.b = n, 0.0, 0.0
                for scale, fails in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
                    cert.S = scale * n * min(trs) / 2.0
                    try:
                        verify_pingpong(cert, 0)
                        failure = None
                    except CertificateInvalidError as exc:
                        failure = exc.witness
                    assert (failure == {"generator": first}) == fails, (gens, n, scale)

    def test_huge_power_verifies_fast(self):
        # the trace is taken at n = min(N, N0), so N = 10^400 costs what N0
        # costs; N Tr once went through a float and raised OverflowError
        cert = build_certificate([PHI, PSI])
        cert.N = 10 ** 400
        start = time.perf_counter()
        assert verify_pingpong(cert)["passed"]
        assert time.perf_counter() - start < 1.0

    def test_largest_s_verifies(self):
        cert = build_certificate([PHI, PSI])
        cert.S, cert.N = float(pingpong.S_MAX), 10 ** 400
        assert verify_pingpong(cert)["passed"]


class TestFormerFalseFailures:
    """Valid families the float checks once rejected (ROADMAP item 1)."""

    def test_large_entry(self):
        # a large_entry family of certify_families (seed 11, cycle 133): the
        # float axis chart of L^283946 R failed the axis-equivariance check
        cert = build_certificate([L_GEN ** 283946 * R_GEN, R_GEN ** 3 * L_GEN ** 2])
        assert verify_pingpong(cert, 1000)["passed"]

    def test_large_entries_to_1e30(self):
        # the sampled checks refused L^k R from k = 10^20 (its power's entries
        # left the float range); the builder writes S = 5.5632, N = 12 for all
        for j in range(1, 31):
            cert = build_certificate([L_GEN ** 10 ** j * R_GEN, R_GEN ** 3 * L_GEN ** 2])
            assert verify_pingpong(cert, 100_000)["passed"], j

    def test_trace_3_class_at_the_wide_box(self):
        # the sampled inclusion failed it on float noise (see TestMonteCarloCrossCheck)
        cert = build_certificate([PHI, PSI_CONJUGATE], box=WIDE_BOX)
        assert verify_pingpong(cert, 100_000)["passed"]

    def test_large_radius(self):
        # N Tr = 48.1 clears 2S = 40; planted witnesses beyond parameter 20
        # lay within float rounding of their axis's endpoint and missed their
        # own table (0, +1)
        cert = build_certificate([PHI, PSI])
        cert.S, cert.R, cert.N = 20.0, 20.0 - 6.0 * cert.b, 50
        assert verify_pingpong(cert, 0)["passed"]


def float_first_meeting(gens, S, tol=1e-9):
    """Float Apollonius reference for the exact disjointness check: the first
    pair of the 2n tables, in (i, sign) order, whose intervals on the real
    line overlap, None if none do, or "unsure" where an overlap within tol
    of zero comes first."""
    u = math.tanh(S)
    tables = []
    for i, m in enumerate(gens):
        a, b, c, d = m.entries()
        if a + d < 0:
            a, b, c, d = -a, -b, -c, -d
        mid, half = (a - d) / (2.0 * c), math.sqrt((a + d) ** 2 - 4) / (2.0 * c)
        for sign in (1, -1):
            ends = sorted((mid + sign * u * half, mid + sign * half / u))
            tables.append(([i, sign], ends))
    for (key1, (lo1, hi1)), (key2, (lo2, hi2)) in itertools.combinations(tables, 2):
        overlap = min(hi1, hi2) - max(lo1, lo2)
        if abs(overlap) <= tol * max(1.0, abs(lo1), abs(hi1), abs(lo2), abs(hi2)):
            return "unsure"
        if overlap > 0.0:
            return [key1, key2]
    return None


class TestExactDisjointness:
    """The exact table-disjointness check, decided in integers in Q(sqrt Delta)."""

    @staticmethod
    def outcome(gens, S, samples=0):
        cert = build_certificate(gens)
        cert.S = S
        try:
            verify_pingpong(cert, samples)
        except CertificateInvalidError as exc:
            return str(exc), exc.witness
        return "passed"

    def test_false_accept_rejected(self):
        # two pairs of tables overlap by 0.0017 on the real line, in lenses
        # under 0.001 high that no sample of the default box reaches
        assert self.outcome([PHI, PSI], 0.7714702, 100_000) == (
            "tables (0, +1) and (1, +1) meet", {"tables": [[0, 1], [1, 1]]})

    def test_tangency_pins(self):
        # the least disjoint S for (phi, psi) is 0.7722425
        assert self.outcome([PHI, PSI], 0.7722415) == (
            "tables (0, +1) and (1, +1) meet", {"tables": [[0, 1], [1, 1]]})
        assert self.outcome([PHI, PSI], 0.7722430) == "passed"

    @pytest.mark.parametrize("S", [0.0, -1.0, 1e-50, 5e-324, 4096.5, 1.05e6, 1.05e9,
                                   math.inf, math.nan])
    def test_fails_closed(self, S):
        # S <= 0, e^{2S} rounded down at 40 digits no larger than 1, or S
        # beyond S_MAX, refused before the exp, whose digits grow with S:
        # unbounded, S = 1.05e6 ran past 60 s and 1.05e9 raised decimal.Overflow
        start = time.perf_counter()
        assert self.outcome([PHI, PSI], S) == (
            "S is out of range for exact tables: need 0 < S <= 4096 and e^{2S} above 1 at "
            "40 digits", {"S": S})
        assert time.perf_counter() - start < 1.0

    def test_power_at_float_limit_verifies(self):
        # N Tr = 709.3 clears 2S = 709; its planted witnesses once left the
        # float range and were refused as invalid input, and the sampled
        # checks refused its power's images
        import warnings
        cert = build_certificate([PHI, PSI])
        cert.N, cert.S = 737, 354.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_pingpong(cert, 0)["passed"]

    def test_agrees_with_float_apollonius(self):
        # seeded families, one in five a triple, at the certified S and at S/4
        import random
        counts = {"passed": 0, "failed": 0, "unsure": 0}
        for seed in range(300):
            gens = positive_word_family(random.Random(5000 + seed), 3 if seed % 5 == 4 else 2)
            S = build_certificate(gens).S
            for s in (S, S / 4.0):
                expected = float_first_meeting(gens, s)
                if expected == "unsure":
                    counts["unsure"] += 1
                    continue
                got = self.outcome(gens, s)
                if expected is None:
                    assert got == "passed", (gens, s)
                    counts["passed"] += 1
                else:
                    assert got[1] == {"tables": expected}, (gens, s)
                    counts["failed"] += 1
        assert counts == {"passed": 423, "failed": 177, "unsure": 0}


#: points per block of the reference sample, each block drawn from its own spawned seed
SAMPLE_CHUNK = 8192
#: N Tr past which the N-th power has an entry beyond the float range: its
#: trace is 2 cosh(N Tr), so a diagonal entry is at least e^{N Tr} / 2
FLOAT_POWER_LIMIT = math.log(2.0) + math.log(sys.float_info.max)


def reference_sample(seed, n, box):
    """The box sample drawn block by block as x + 1j * y."""
    x_lo, x_hi, y_lo, y_hi = box
    sizes = [min(SAMPLE_CHUNK, n - k) for k in range(0, n, SAMPLE_CHUNK)] or [0]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    log_lo, log_hi = math.log(y_lo), math.log(y_hi)
    with np.errstate(over="ignore"):
        return np.concatenate([
            rng.uniform(x_lo, x_hi, m) + 1j * np.exp(rng.uniform(log_lo, log_hi, m))
            for rng, m in zip(map(np.random.default_rng, children), sizes)])


def reference_params(c, zs):
    """Projection parameters as 0.5 log|chart^-1(z)| through the complex map,
    with the limit +inf for finite points whose parameter is nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * np.log(np.abs(c.chart.inverse().apply_complex(zs)))
    bad = np.isnan(out)
    if bad.any():
        if not np.isfinite(zs[bad]).all():
            raise InvalidInputError("non-finite input point in projection batch")
        out[bad] = np.inf
    return out


def reference_mobius(m, zs):
    """(a zs + b) / (c zs + d) for the float entries of m."""
    try:
        a, b, c, d = (float(v) for v in m.entries())
    except OverflowError:
        raise InvalidInputError(
            "a matrix entry is beyond the float range of the sampled checks") from None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return (a * zs + b) / (c * zs + d)


def whole_array_sampled_checks(cert, sample_budget, box, seed=0):
    """The float Monte Carlo the verifier once ran: sampled inclusion under
    the exact N-th powers and sampled table disjointness, as one pass over
    the whole sample, kept as complex points, through the reference draw,
    projection parameters and Mobius maps above."""
    S = cert.S
    zs = reference_sample(seed, sample_budget, box)
    axes = [axis(m).axis for m in cert.generators]
    params = np.stack([reference_params(c, zs) for c in axes])
    for i, (m, c) in enumerate(zip(cert.generators, axes)):
        if cert.N * translation_distance(m) > FLOAT_POWER_LIMIT:
            raise InvalidInputError(
                f"the N-th power of generator {i} (N = {cert.N}) has entries beyond "
                f"the float range of the sampled checks")
        power = m ** cert.N
        for sign, mat in ((1, power), (-1, power.inverse())):
            mask = params[i] > -S if sign == 1 else params[i] < S
            if not mask.any():
                continue
            t_img = reference_params(c, reference_mobius(mat, zs[mask]))
            good = t_img >= S if sign == 1 else t_img <= -S
            if not bool(np.all(good)):
                k = int(np.argmin(good))
                z_bad = zs[mask][k]
                raise CertificateInvalidError(
                    f"power of generator {i} (sign {sign:+d}) failed the inclusion",
                    witness={"point": [float(z_bad.real), float(z_bad.imag)],
                             "param": float(t_img[k])})
    counts = np.concatenate([params >= S, params <= -S]).sum(axis=0)
    if int(counts.max(initial=0)) > 1:
        k = int(np.argmax(counts))
        raise CertificateInvalidError("a sample lies in two tables",
                                      witness={"point": [float(zs[k].real), float(zs[k].imag)]})


WIDE_BOX = (-10.0, 10.0, 1e-6, 10.0)
#: a trace -3 class that fails the float sampled inclusion at WIDE_BOX; not psi conjugated
#: by phi^8 L, which is phi (L psi L^-1 = phi), and of unrecorded origin
PSI_CONJUGATE = MappingClass(5100816, -8253295, 3152479, -5100819)


def positive_word_family(rng, n, max_trace=30):
    """n pairwise independent positive words in the two Dehn twists, each of
    2-4 syllables with |trace| <= max_trace, drawn as perfbench draws them."""
    from teichpong.mcg import independent

    def word():
        while True:
            m = MappingClass(1, 0, 0, 1)
            for k in range(rng.randint(2, 4)):
                m = m * (L_GEN if k % 2 == 0 else R_GEN) ** rng.randint(1, 3)
            if abs(m.trace) <= max_trace:
                return m

    while True:
        fam = [word() for _ in range(n)]
        if all(independent(fam[i], fam[j]) for i in range(n) for j in range(i + 1, n)):
            return fam


def bracket(S):
    """The verifier's bracket E_lo < e^{2S} < E_hi, as Fractions."""
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(2.0 * S).exp()
        return Fraction(r.next_minus()), Fraction(r.next_plus())


def in_table(m, sign, E, X, Y):
    """Whether the rational point X + iY lies in the closed table (m, sign)
    at e^{2S} = E, decided exactly."""
    (a1, b1, e1, D), (a2, b2, e2, _) = _table_ends(m, (E - 1) / (E + 1))[0 if sign == 1 else 1]
    # the half-disk over the ends l and h is (X - l)(X - h) + Y^2 <= 0, which
    # is P + Q sqrt(D) <= 0 with l = (a1 + b1 sqrt D)/e1 and h = (a2 + b2 sqrt D)/e2
    P = (X * X - X * (Fraction(a1, e1) + Fraction(a2, e2)) + Y * Y
         + Fraction(a1 * a2 + b1 * b2 * D, e1 * e2))
    Q = Fraction(a1 * b2 + a2 * b1, e1 * e2) - X * (Fraction(b1, e1) + Fraction(b2, e2))
    return _sign_of(P, Q, D, 0, 1) <= 0


def image_in_table(m, sign, N, S, point):
    """Whether the image of point under g^(sign N), in exact rationals, lies
    in the closed table (m, sign) at E_hi > e^{2S}, which the table at S
    contains."""
    power = m ** N if sign == 1 else (m ** N).inverse()
    a, b, c, d = power.entries()
    x, y = map(Fraction, point)
    den = (c * x + d) ** 2 + (c * y) ** 2
    X, Y = ((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den
    return in_table(m, sign, bracket(S)[1], X, Y)


def float_outcome(cert, samples, box=None):
    """None where the float reference passes, else the class, message and
    witness of its error."""
    try:
        whole_array_sampled_checks(cert, samples, box or tuple(cert.config["box"]),
                                   cert.config["seed"])
    except (CertificateInvalidError, InvalidInputError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


def assert_float_noise(cert, outcome):
    """The float reference's failure is an inclusion failure whose witness's
    image, taken exactly, lies in the plus table: float noise.  Returns the
    generator's index."""
    found = re.fullmatch(r"power of generator (\d+) \(sign ([+-]1)\) failed the inclusion",
                         outcome[1])
    assert outcome[0] is CertificateInvalidError and found, outcome
    i, sign = int(found[1]), int(found[2])
    assert image_in_table(cert.generators[i], sign, cert.N, cert.S, outcome[2]["point"]), outcome
    return i


def assert_float_agrees(cert, samples, box=None):
    """The float reference passes where the exact verifier passes, up to
    float noise.  Returns the index of the generator whose float inclusion
    failed on noise, or None."""
    assert verify_pingpong(cert, samples)["passed"]
    outcome = float_outcome(cert, samples, box)
    return None if outcome is None else assert_float_noise(cert, outcome)


class TestMonteCarloCrossCheck:
    """The float Monte Carlo, kept in the tests as a cross-check of the exact verdicts."""

    @staticmethod
    def families():
        """Acceptance criterion 1's 20 pairs and the outcome digest's corpus."""
        import outcome_digest
        rng = np.random.default_rng(2024)
        pairs = [list(random_independent_pair(rng, max_trace=30)) for _ in range(20)]
        return pairs + outcome_digest.corpus(MappingClass)

    def test_float_reference_passes_where_exact_passes(self):
        # a float failure is allowed only where its witness's image, taken
        # exactly, lies in the plus table: then the failure is float noise
        noise = []
        for gens in self.families():
            for box in (pingpong.DEFAULT_BOX, WIDE_BOX):
                cert = build_certificate(gens, box=box)
                i = assert_float_agrees(cert, 20_000, box)
                if i is not None:
                    noise.append((gens[i], box))
        # the trace -3 class fails in floats at the wide box (ROADMAP item 1)
        assert (PSI_CONJUGATE, WIDE_BOX) in noise

    def test_exact_image_membership(self):
        # the float witness of the trace -3 class at the wide box lies near
        # parameter 0, so its image under g^22 has parameter near 22 Tr = 21.17
        point = [1.6662428350713014, 0.002496617881310062]
        assert image_in_table(PSI_CONJUGATE, 1, 22, 21.15, point)
        assert not image_in_table(PSI_CONJUGATE, 1, 22, 21.2, point)


#: heights from the least subnormal to the largest float
EDGE_BOX = (-10.0, 10.0, 5e-324, sys.float_info.max)
VERTICAL = Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.infinity(), Point(0.0, 1.0))


def verify_outcome(cert, samples):
    """The certificate document after verification, or the error's class,
    message and witness."""
    try:
        verify_pingpong(cert, samples)
    except (CertificateInvalidError, InvalidInputError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return certificate_document(cert)


def formed_powers(monkeypatch):
    """The exponents of every MappingClass power formed, and the points of
    every float Mobius map taken, from here on."""
    calls = []
    power, apply_complex = MappingClass.__pow__, Mobius.apply_complex

    def counted_power(m, n):
        calls.append(n)
        return power(m, n)

    def counted_apply(f, z):
        calls.append(z)
        return apply_complex(f, z)
    monkeypatch.setattr(MappingClass, "__pow__", counted_power)
    monkeypatch.setattr(Mobius, "apply_complex", counted_apply)
    return calls


class TestStreamedVerifier:
    """The exact verifier against the whole-sample float pass it replaced:
    the float pass agrees wherever it can decide, up to float noise."""

    @pytest.mark.parametrize("box", [pingpong.DEFAULT_BOX, WIDE_BOX], ids=["default", "wide"])
    def test_seeded_pairs(self, box):
        import random
        for seed in range(10):
            gens = positive_word_family(random.Random(seed), 2)
            assert assert_float_agrees(build_certificate(gens, box=box), 100_000) is None, seed

    def test_triples(self):
        import random
        for seed in range(3):
            gens = positive_word_family(random.Random(100 + seed), 3)
            assert assert_float_agrees(build_certificate(gens), 100_000) is None, seed

    @pytest.mark.parametrize("k", [10, 1000, 10 ** 5, 3 * 10 ** 5])
    def test_large_entries(self, k):
        cert = build_certificate([L_GEN ** k * R_GEN, R_GEN ** 3 * L_GEN ** 2])
        assert assert_float_agrees(cert, 100_000) is None

    def test_partial_and_empty_blocks(self):
        for samples in (0, 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1):
            cert = build_certificate([PHI, PSI])
            assert assert_float_agrees(cert, samples) is None, samples
            assert cert.verification["sample_budget"] == samples

    @pytest.mark.parametrize("box", [(-1e200, 1e200, 0.05, 1e200), (-10.0, 10.0, 1e-300, 1e300)],
                             ids=["wide-x", "wide-y"])
    def test_boxes_near_float_range(self, box):
        assert assert_float_agrees(build_certificate([PHI, PSI], box=box), 20_000) is None

    def test_power_near_float_limit(self):
        # N Tr = 709.3: the power's float images overflow and the float pass
        # refuses them; the exact verifier decides the certificate
        cert = build_certificate([PHI, PSI])
        cert.N = 737
        assert verify_pingpong(cert, 20_000)["passed"]
        assert float_outcome(cert, 20_000) == (
            InvalidInputError, "non-finite input point in projection batch", None)

    @pytest.mark.parametrize("conjugate, box", [
        (PSI_CONJUGATE, WIDE_BOX),
        # psi conjugated by phi^10 L^3: the float image parameter of its
        # witness is 8.398, short of S = 12.90, yet the exact image lies in
        # the plus table
        (MappingClass(627359044, -1015088255, 387729211, -627359041), pingpong.DEFAULT_BOX),
    ], ids=["trace-3-class", "phi10-L3"])
    def test_inclusion_witness(self, conjugate, box):
        cert = build_certificate([PHI, conjugate], box=box)
        assert assert_float_agrees(cert, 100_000) == 1
        assert float_outcome(cert, 100_000)[1] == (
            "power of generator 1 (sign +1) failed the inclusion")

    # L^k R with k = 7036818 has N Tr = 709.5 at N = 45: its power's float
    # images overflow.  With k = 50992965, N Tr = 709.9 at N = 40: its
    # power's entries leave the float range although N Tr is under the limit
    @pytest.mark.parametrize("k, n_power, refusal", [
        (7036818, 45, "non-finite input point in projection batch"),
        (50992965, 40, "a matrix entry is beyond the float range of the sampled checks"),
    ], ids=["images", "entries"])
    @pytest.mark.parametrize("overflow_first", [False, True],
                             ids=["failure-first", "refusal-first"])
    def test_inclusion_failure_beside_overflowing_power(self, k, n_power, refusal,
                                                        overflow_first):
        # the psi conjugate fails its float inclusion on noise; whichever
        # generator comes first decides the float verdict, and the exact
        # verifier passes both orders
        big = L_GEN ** k * R_GEN
        gens = [big, PHI, PSI_CONJUGATE] if overflow_first else [PHI, PSI_CONJUGATE, big]
        cert = build_certificate(gens, box=WIDE_BOX)
        cert.N = n_power
        assert verify_pingpong(cert, 100_000)["passed"]
        outcome = float_outcome(cert, 100_000)
        if overflow_first:
            assert outcome == (InvalidInputError, refusal, None)
        else:
            assert assert_float_noise(cert, outcome) == 1

    @pytest.mark.parametrize("far_first", [False, True])
    def test_failure_and_non_finite_image_of_one_power(self, far_first, monkeypatch):
        # the psi conjugate's float inclusion witness alone fails on noise;
        # beside a far point whose float image is nan, the float pass refuses
        # the input whichever comes first.  The exact verifier passes
        witness = np.array([1.6662428350713014 + 0.002496617881310062j])
        far = np.array([1e300 + 1j])
        cert = build_certificate([PHI, PSI_CONJUGATE], box=WIDE_BOX)
        assert verify_pingpong(cert, 2)["passed"]
        this = sys.modules[__name__]
        monkeypatch.setattr(this, "reference_sample", lambda seed, n, box: witness)
        assert assert_float_noise(cert, float_outcome(cert, 1)) == 1
        points = np.concatenate([far, witness] if far_first else [witness, far])
        monkeypatch.setattr(this, "reference_sample", lambda seed, n, box: points)
        assert float_outcome(cert, 2) == (
            InvalidInputError, "non-finite input point in projection batch", None)

    def test_witness_in_a_partly_selected_block(self, monkeypatch):
        # the first point lies in the psi conjugate's minus table, so its
        # plus power maps only the second, the float inclusion witness
        cert = build_certificate([PHI, PSI_CONJUGATE], box=WIDE_BOX)
        minus = axis(PSI_CONJUGATE).axis.point_at(-cert.S - 1.0).z
        block = np.array([minus, 1.6662428350713014 + 0.002496617881310062j])
        monkeypatch.setattr(sys.modules[__name__], "reference_sample", lambda seed, n, box: block)
        outcome = float_outcome(cert, 2)
        assert outcome[2]["point"] == [1.6662428350713014, 0.002496617881310062]
        assert assert_float_noise(cert, outcome) == 1
        assert verify_pingpong(cert, 2)["passed"]

    def test_entries_converted_only_for_sampled_points(self):
        # the third power's entries leave the float range: the float pass
        # converts them only once a sample needs them, and the exact
        # verifier never converts them
        cert = build_certificate([PHI, PSI, L_GEN ** 50992965 * R_GEN], box=WIDE_BOX)
        cert.N = 40
        assert verify_pingpong(cert, 1)["passed"]
        assert float_outcome(cert, 0) is None
        assert float_outcome(cert, 1) == (
            InvalidInputError, "a matrix entry is beyond the float range of the sampled checks",
            None)

    def test_box_at_float_range_edge(self):
        # the float images of the highest samples overflow
        cert = build_certificate([PHI, PSI], box=EDGE_BOX)
        assert verify_pingpong(cert, 20_000)["passed"]
        assert float_outcome(cert, 20_000) == (
            InvalidInputError, "non-finite input point in projection batch", None)

    def test_disjointness_witness(self):
        # the float witness lies in both minus tables, exactly
        cert = build_certificate([PHI, PSI])
        cert.S = 0.5
        assert verify_outcome(cert, 100_000) == (
            CertificateInvalidError, "tables (0, +1) and (1, +1) meet",
            {"tables": [[0, 1], [1, 1]]})
        kind, message, witness = float_outcome(cert, 100_000)
        assert (kind, message) == (CertificateInvalidError, "a sample lies in two tables")
        assert all(image_in_table(m, -1, 0, cert.S, witness["point"]) for m in (PHI, PSI))

    def test_refusal_after_earlier_generator(self):
        # N Tr is about 67 for phi and 806 for L^100000 R: the float pass
        # checks phi's inclusion in full, then refuses the second power
        cert = build_certificate([PHI, L_GEN ** (10 ** 5) * R_GEN])
        cert.N = 70
        assert verify_pingpong(cert, 100_000)["passed"]
        assert float_outcome(cert, 100_000) == (
            InvalidInputError, "the N-th power of generator 1 (N = 70) has entries beyond "
            "the float range of the sampled checks", None)

    @pytest.mark.parametrize("box", [pingpong.DEFAULT_BOX, WIDE_BOX], ids=["default", "wide"])
    def test_conjugate_sweep(self, box):
        # psi conjugated by phi^a L^b, the family of the phi^10 L^3 witness
        for conjugate in PSI_CONJUGATES:
            assert_float_agrees(build_certificate([PHI, conjugate], box=box), 20_000)

    def test_memory_stays_within_blocks(self):
        # the whole-sample pass peaked at about 10 MiB on 100k samples; the
        # exact verifier draws nothing
        cert = build_certificate([PHI, PSI])
        verify_pingpong(cert, 1000)
        tracemalloc.start()
        try:
            verify_pingpong(cert, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


def threshold_corpus():
    """Families for the inclusion threshold: seeded pairs and triples, L^k R
    beside R^3 L^2 for k = 10 to 10^7, and the psi conjugates."""
    import random
    fams = [positive_word_family(random.Random(seed), 2) for seed in range(20)]
    fams += [positive_word_family(random.Random(100 + seed), 3) for seed in range(3)]
    fams += [[L_GEN ** k * R_GEN, R_GEN ** 3 * L_GEN ** 2]
             for k in (10, 1000, 10 ** 5, 3 * 10 ** 5, 10 ** 6, 10 ** 7)]
    return fams + [[PHI, c] for c in PSI_CONJUGATES]


def inclusion_power(t, N, S):
    """The verifier's n = min(N, N0) for |tr g| = t."""
    return min(N, math.floor((2 * Fraction(S) + 1)
                             / (((t - 1).bit_length() - 1) * pingpong._LN2_LO)) + 1)


def clears(t, n, E):
    """The verifier's integer inclusion test |tr g^n| >= E + 1/E."""
    p, q = E.numerator, E.denominator
    return _trace_power(t, n) * p * q >= p * p + q * q


def translation_decimal(t):
    """Tr = log of the expanding eigenvalue of trace t, at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        t = Decimal(t)
        return ((t + (t * t - 4).sqrt()) / 2).ln()


class TestInclusionThreshold:
    """The power n = min(N, N0) at which the verifier tests inclusion."""

    BOXES = [pingpong.DEFAULT_BOX, WIDE_BOX, EDGE_BOX, (-10.0, 10.0, 1e-300, 1e300)]

    def test_bound_is_conservative(self):
        # N0 Tr clears 2S + 1, a pass at n <= N is a pass at N since |tr g^n|
        # grows with n, and a pass at n means n Tr > 2S at 60 digits
        checked = 0
        for gens in threshold_corpus():
            cert = build_certificate(gens)
            S, (_, E_hi) = cert.S, bracket(cert.S)
            for m in gens:
                t, Tr = abs(m.trace), translation_decimal(abs(m.trace))
                N0 = inclusion_power(t, 10 ** 9, S)
                assert N0 * Tr > 2 * Decimal(S) + 1 and clears(t, N0, E_hi), (gens, m)
                traces = [_trace_power(t, n) for n in range(1, N0 + 2)]
                assert traces == sorted(traces), m
                for n in range(1, N0 + 1):
                    if clears(t, n, E_hi):
                        assert n * Tr > 2 * Decimal(S), (m, n)
                        checked += 1
        assert checked > 500

    def test_no_images_on_the_default_box(self, monkeypatch):
        # verification forms no power of a generator and maps no point
        import random
        families = [[PHI, PSI]] + [positive_word_family(random.Random(seed), 2)
                                   for seed in range(10)]
        certs = [build_certificate(gens) for gens in families]
        calls = formed_powers(monkeypatch)
        for cert in certs:
            assert verify_pingpong(cert, 100_000)["passed"], cert.generators
        assert calls == []

    def test_block_outside_the_box_maps_every_selected_sample(self, monkeypatch):
        # on a subnormal floor the float image of a point far above the box
        # overflows and is refused; the exact verifier maps no point
        cert = build_certificate([PHI, PSI], box=(-10.0, 10.0, 1e-320, 10.0))
        far = np.array([1.0 + 1e307j])
        monkeypatch.setattr(sys.modules[__name__], "reference_sample", lambda seed, n, box: far)
        assert float_outcome(cert, 1) == (
            InvalidInputError, "non-finite input point in projection batch", None)
        calls = formed_powers(monkeypatch)
        assert verify_pingpong(cert, 1)["passed"] and calls == []

    def test_one_trust_rule(self):
        # one rule on every box: the checks are those of the default box
        # and budget, on a wide box and on a subnormal floor alike
        import random
        families = [[PHI, PSI]] + [positive_word_family(random.Random(seed), 2)
                                   for seed in range(10)]
        for gens in families:
            checks = verify_pingpong(build_certificate(gens), 0)["checks"]
            for box in (WIDE_BOX, (-0.1, 0.1, 1e-320, 0.1)):
                report = verify_pingpong(build_certificate(gens, box=box), 20_000)
                assert report["checks"] == checks and report["box"] == list(box), (gens, box)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("gens, n_power, box, refusal", [
        ([PHI, PSI], 737, pingpong.DEFAULT_BOX, "non-finite input point in projection batch"),
        ([PHI, PSI, L_GEN ** 50992965 * R_GEN], 40, WIDE_BOX,
         "a matrix entry is beyond the float range of the sampled checks"),
        ([PHI, PSI], None, EDGE_BOX, "non-finite input point in projection batch"),
        ([PHI, PSI], None, (-10.0, 10.0, 1.0, 1e306), "non-finite input point in projection batch"),
    ], ids=["N737", "entries-beyond-float", "edge-box", "1-1e306"])
    def test_fallback_maps_every_selected_sample(self, gens, n_power, box, refusal, monkeypatch):
        # where the float pass must map every selected sample and refuses
        # one, the exact verifier decides without a power or an image
        cert = build_certificate(gens, box=box)
        cert.N = n_power or cert.N
        assert float_outcome(cert, 20_000) == (InvalidInputError, refusal, None)
        calls = formed_powers(monkeypatch)
        assert verify_pingpong(cert, 20_000)["passed"] and calls == []


def exact_tables(gens, E):
    """The verifier's 2n tables at e^{2S} = E: (i, sign, (lo, hi))."""
    u = (E - 1) / (E + 1)
    return [(i, sign, ends) for i, m in enumerate(gens)
            for sign, ends in zip((1, -1), _table_ends(m, u))]


def end_decimal(end):
    """A table end (alpha + beta sqrt(Delta)) / e at 200 digits."""
    alpha, beta, e, D = end
    with localcontext() as ctx:
        ctx.prec = 200
        return (Decimal(alpha) + Decimal(beta) * Decimal(D).sqrt()) / Decimal(e)


class TestTableBound:
    """The verifier's exact tables against the float table parameters."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("box", TestInclusionThreshold.BOXES)
    def test_bound_is_conservative(self, box):
        # a sample whose float parameter clears S by 1e-6 lies in the exact
        # table at E_hi, which the verifier's at E_lo contains; one short of
        # S by 1e-6 lies outside the table at E_lo.  The samples nearest
        # the threshold on either side are decided exactly.  No sample of the
        # default box reaches a table
        zs = reference_sample(0, 4000, box)
        inside = outside = 0
        for gens in threshold_corpus():
            S = build_certificate(gens, box=box).S
            E_lo, E_hi = bracket(S)
            for m in gens:
                c = axis(m).axis
                for sign in (1, -1):
                    with np.errstate(over="ignore"):
                        t = sign * reference_params(c, zs)
                    order = np.argsort(np.abs(t - S))
                    for k in order[:20]:
                        if not math.isfinite(t[k]) or abs(t[k] - S) <= 1e-6:
                            continue
                        X, Y = Fraction(zs[k].real), Fraction(zs[k].imag)
                        if t[k] > S:
                            assert in_table(m, sign, E_hi, X, Y), (gens, m, sign, zs[k])
                            inside += 1
                        else:
                            assert not in_table(m, sign, E_lo, X, Y), (gens, m, sign, zs[k])
                            outside += 1
        assert outside > 0 and (inside > 0) == (box != pingpong.DEFAULT_BOX)

    @pytest.mark.parametrize("box", [pingpong.DEFAULT_BOX, WIDE_BOX], ids=["default", "wide"])
    def test_bound_is_conservative_at_its_threshold(self, box):
        # S0, bisected to adjacent floats, is the least S at which the exact
        # tables are disjoint; the float Apollonius reference finds the
        # tables disjoint just above S0 and meeting just below it
        import random
        found = 0
        for seed in range(30):
            gens = positive_word_family(random.Random(seed), 2 + seed % 2)
            cert = build_certificate(gens, box=box)
            cert.N = 10 ** 400

            def disjoint(S):
                cert.S = S
                try:
                    return verify_pingpong(cert, 0)["passed"]
                except CertificateInvalidError:
                    return False
            lo, hi = 1e-3, float(pingpong.S_MAX)
            if disjoint(lo):
                continue
            while math.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if disjoint(mid) else (mid, hi)
            assert float_first_meeting(gens, hi * (1 + 1e-7)) is None, gens
            assert float_first_meeting(gens, lo * (1 - 1e-7)) not in (None, "unsure"), gens
            found += 1
        assert found > 20

    def test_no_table_parameters_on_the_default_box(self, monkeypatch):
        # the tables are decided on their ends: verification takes no
        # float parameter of any point, and maps none
        import random
        certs = [build_certificate(gens) for gens in
                 [[PHI, PSI]] + [positive_word_family(random.Random(seed), 2)
                                 for seed in range(10)]]
        params = []
        param_of = Geodesic.param_of
        monkeypatch.setattr(Geodesic, "param_of", lambda c, z: params.append(z) or param_of(c, z))
        calls = formed_powers(monkeypatch)
        for cert in certs:
            report = verify_pingpong(cert, 100_000)
            assert [c["name"] for c in report["checks"]] == [
                "power-threshold", "translation-inclusion", "table-disjointness-exact",
                "interval-containment"]
        assert params == [] and calls == []

    def test_wide_box_samples_reach_the_tables(self):
        # the float samples of the wide box reach the tables, which the
        # exact check finds disjoint all the same
        import random
        hits = 0
        zs = reference_sample(0, 100_000, WIDE_BOX)
        for seed in range(10):
            cert = build_certificate(positive_word_family(random.Random(seed), 2), box=WIDE_BOX)
            assert verify_pingpong(cert, 100_000)["passed"]
            params = np.stack([reference_params(axis(m).axis, zs) for m in cert.generators])
            hits += int(np.count_nonzero(params >= cert.S) + np.count_nonzero(params <= -cert.S))
        assert hits > 0


class TestIntegerBounds:
    """The verifier's integer decisions against Fraction and Decimal references."""

    @pytest.mark.parametrize("box", TestInclusionThreshold.BOXES)
    def test_same_as_fractions(self, box):
        # the box is recorded only, so every box must give these decisions
        decided = 0
        for gens in threshold_corpus():
            cert = build_certificate(gens, box=box)
            S, (E_lo, E_hi) = cert.S, bracket(cert.S)
            for n in (1, 3, cert.N):
                for m in gens:
                    exact = Fraction(abs((m ** n).trace)) >= E_hi + 1 / E_hi
                    assert clears(abs(m.trace), n, E_hi) == exact, (gens, n, m)
                    decided += exact
            for s in (0.5, 3.0, S, 30.0):
                tables = exact_tables(gens, bracket(s)[0])
                for (_, _, (lo1, hi1)), (_, _, (lo2, hi2)) in itertools.combinations(tables, 2):
                    for x, y in ((hi1, lo2), (hi2, lo1)):
                        gap = end_decimal(x) - end_decimal(y)
                        assert _end_order(x, y) == (gap > 0) - (gap < 0), (gens, s, x, y)
                        decided += 1
        assert decided > 1000


class TestDecidedBox:
    """Every box is decided exactly: the sample budget, seed and box are
    recorded, and refused by one range rule in the verifier as in the
    builder, but no sample is drawn."""

    def test_no_block_on_the_default_box(self):
        # the budget changes nothing but its record, on any box
        import random
        for gens in [[PHI, PSI]] + [positive_word_family(random.Random(seed), 2)
                                    for seed in range(10)]:
            for box in (pingpong.DEFAULT_BOX, WIDE_BOX):
                none = verify_pingpong(build_certificate(gens, box=box), 0)
                full = verify_pingpong(build_certificate(gens, box=box), 100_000)
                assert full["passed"] and full["sample_budget"] == 100_000
                assert full["checks"] == none["checks"], (gens, box)

    def test_subnormal_floor_streams(self):
        # a subnormal floor once streamed every block; it is now recorded
        # like any other box
        box = (-0.1, 0.1, 1e-320, 0.1)
        report = verify_pingpong(build_certificate([PHI, PSI], box=box), 20_000)
        assert report["passed"] and report["box"] == list(box)
        assert report["checks"] == verify_pingpong(build_certificate([PHI, PSI]), 0)["checks"]

    @pytest.mark.parametrize("box, seed, samples, message", [
        ((1.0, -1.0, 0.1, 1.0), 0, 10, "bad sampling box"),
        (pingpong.DEFAULT_BOX, -1, 10, "--seed must lie in"),
        (pingpong.DEFAULT_BOX, 0, -1, "--samples must lie in"),
        ((-10.0, 10.0, 0.05), 0, 10, "bad sampling box"),
        (pingpong.DEFAULT_BOX, 0, 2 ** 64, "--samples must lie in"),
        (pingpong.DEFAULT_BOX, 2 ** 70, 10, "--seed must lie in"),
    ])
    def test_refusals_kept(self, box, seed, samples, message):
        cert = build_certificate([PHI, PSI])
        cert.config["box"] = list(box)
        with pytest.raises(InvalidInputError, match=message):
            verify_pingpong(cert, samples, seed=seed)

    def test_largest_sample_count(self):
        cert = build_certificate([PHI, PSI])
        start = time.perf_counter()
        report = verify_pingpong(cert, 2 ** 63 - 1, seed=2 ** 63 - 1)
        assert time.perf_counter() - start < 1.0
        assert report["passed"] and report["sample_budget"] == report["seed"] == 2 ** 63 - 1


class TestInPlacePrimitives:
    """The float reference's parameters and images against hyp2's scalar
    maps, which compute them in another order."""

    AXES = [axis(PHI).axis, axis(PSI).axis, axis(L_GEN ** 1000 * R_GEN).axis, VERTICAL,
            Geodesic(BoundaryPoint.infinity(), BoundaryPoint.finite(0.0), Point(0.0, 2.0)),
            Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.finite(3.0), Point(1.5, 1.5))]

    @staticmethod
    def points():
        """Samples of the default, wide and edge boxes."""
        return np.concatenate([reference_sample(3, 2000, pingpong.DEFAULT_BOX),
                               reference_sample(4, 2000, WIDE_BOX),
                               reference_sample(5, 500, EDGE_BOX)])

    @staticmethod
    def check_params(c, zs):
        ref = reference_params(c, zs)
        for z, r in zip(zs, ref):
            assert math.isclose(c.param_of(Point(z.real, z.imag)), r,
                                rel_tol=1e-12, abs_tol=1e-12), (c, z)

    @pytest.mark.parametrize("k", range(6))
    def test_params(self, k):
        self.check_params(self.AXES[k], self.points())

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("m", [PHI, PSI.inverse(), L_GEN ** 1000 * R_GEN, PHI ** 12,
                                   PHI ** 737, (L_GEN ** 50992965 * R_GEN) ** 40],
                             ids=["phi", "psi-inv", "L1000R", "phi^12", "phi^737",
                                  "L^50992965R^40"])
    def test_mobius_and_params_of_images(self, m):
        zs = self.points()
        try:
            images = reference_mobius(m, zs)
        except InvalidInputError as exc:
            assert str(exc) == "a matrix entry is beyond the float range of the sampled checks"
            with pytest.raises(OverflowError):
                float(max(m.entries()))
            return
        kept = []
        for z, w in zip(zs, images):
            try:
                image = m.apply(Point(z.real, z.imag)).z
            except InvalidInputError:
                # a non-finite image, one rounded off the half plane, or
                # entries whose float determinant overflows
                assert not (np.isfinite(w) and w.imag > 0.0) or m == PHI ** 737, (m, z)
                continue
            assert abs(image - w) <= 1e-12 * abs(w), (m, z)
            kept.append(w)
        if m == PHI ** 737:
            assert not np.isfinite(images).all() and kept == []
            return
        for geodesic in self.AXES:
            self.check_params(geodesic, np.array(kept[::7]))


class TestFixedCheckFailures:
    """Each fixed check of the verifier fails with its own message and witness."""

    @staticmethod
    def outcome(cert):
        with pytest.raises((CertificateInvalidError, InvalidInputError)) as info:
            verify_pingpong(cert, 0)
        return type(info.value), str(info.value), getattr(info.value, "witness", None)

    def test_tables_meet(self):
        # the first meeting pair in (i, sign) order, here two minus tables
        cert = build_certificate([PHI, PSI, L_GEN ** 2 * R_GEN ** 3])
        cert.S = 1.0
        assert self.outcome(cert) == (CertificateInvalidError, "tables (0, -1) and (2, -1) meet",
                                      {"tables": [[0, -1], [2, -1]]})
        assert float_first_meeting(cert.generators, 1.0) == [[0, -1], [2, -1]]

    def test_interval_left(self):
        cert = build_certificate([PHI, PSI])
        for key in [(0, 1), (1, 0)]:
            lo, hi = cert.intervals[key]
            cert.intervals[key] = (lo + 0.5, hi + 0.5)
        # (0, 1) is the first failing pair in the order of cert.intervals
        assert self.outcome(cert) == (
            CertificateInvalidError, "projection of axis 1 on axis 0 left its interval",
            {"param": -0.5871795028097744})

    def test_interval_beyond_the_radius(self):
        # the stored intervals are the recomputed ones, but with R = 0 the
        # lower end 4.71 (4.7061505728458635... at 50 digits) lies beyond
        # R + 4b = 3.70
        m2 = PHI.conjugated_by((PHI ** 5) * MappingClass(1, 1, 0, 1))
        cert = build_certificate([PHI, m2], box=(-10, 10, 1e-6, 10))
        cert.R = 0.0
        assert self.outcome(cert) == (
            CertificateInvalidError, "projection of axis 1 on axis 0 left its interval",
            {"param": 4.706150572845864})
        assert cert.intervals[(0, 1)][0] == 4.706150572845864
