import itertools
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import L_GEN, PHI, PSI, R_GEN, random_independent_pair
from teichpong.errors import (CertificateInvalidError, ConstantDerivationError,
                              InvalidInputError, NotIndependentError)
from teichpong.hyp2 import BoundaryPoint, Geodesic, Point
from teichpong import pingpong
from teichpong.mcg import MappingClass, axis, min_translation, translation_distance
from teichpong.pingpong import (build_certificate, paper_radius_bound, power_bound,
                                sample_box_points, verify_pingpong)
from teichpong.projection import model_constants, projection_interval
from teichpong.serialize import certificate_document

VERTICAL = Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.infinity(), Point(0.0, 1.0))


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
        c1, c2 = axis(PHI).axis, axis(PSI).axis
        for tgt, src in ((c1, c2), (c2, c1)):
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
        assert "table-disjointness" in names and "inclusion-empirical" in names

    def test_verification_samples_reach_tables(self):
        cert = build_certificate([PHI, PSI])
        verify_pingpong(cert, 5000)
        exact = [c for c in cert.verification["checks"] if c["name"] == "table-disjointness-exact"]
        assert exact == [{"name": "table-disjointness-exact", "passed": True, "tables": 4}]

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
        zs = sample_box_points(17, 100_000, box=(-10.0, 10.0, 1e-6, 10.0))
        axes = [axis(m).axis for m in cert.generators]
        params = np.stack([c.params_of_array(zs) for c in axes])
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
    def test_deterministic(self):
        a = sample_box_points(7, 1000)
        b = sample_box_points(7, 1000)
        assert np.array_equal(a, b)

    def test_box_respected(self):
        z = sample_box_points(1, 5000, box=(-2, 3, 0.1, 4))
        assert z.real.min() >= -2 and z.real.max() <= 3
        assert z.imag.min() >= 0.1 and z.imag.max() <= 4

    def test_bad_box(self):
        with pytest.raises(InvalidInputError):
            sample_box_points(0, 10, box=(1, -1, 0.1, 1))


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


class TestPowerBeyondFloatRange:
    def test_refused_before_the_power(self):
        # N Tr far past 710: the power's entries would leave the float range,
        # and forming it at N = 10**9 would not end
        cert = build_certificate([PHI, PSI], samples=10)
        cert.N = 10 ** 9
        with pytest.raises(InvalidInputError, match="the N-th power of generator 0"):
            verify_pingpong(cert, 10)


class TestFormerFalseFailures:
    """Valid families the float fixed checks once rejected (ROADMAP item 1)."""

    def test_large_entry(self):
        # a large_entry family of certify_families (seed 11, cycle 133): the
        # float axis chart of L^283946 R failed the axis-equivariance check
        cert = build_certificate([L_GEN ** 283946 * R_GEN, R_GEN ** 3 * L_GEN ** 2])
        assert verify_pingpong(cert, 1000)["passed"]

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

    @pytest.mark.parametrize("S", [0.0, -1.0, 1e-50, 5e-324])
    def test_fails_closed(self, S):
        # S <= 0, or e^{2S} rounded down at 40 digits no larger than 1
        assert self.outcome([PHI, PSI], S) == (
            "S is too small for exact tables: e^{2S} is not above 1 at 40 digits", {"S": S})

    def test_power_at_float_limit_verifies(self):
        # N Tr = 709.3 clears 2S = 709; its planted witnesses once left the
        # float range and were refused as invalid input
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


def reference_sample(seed, n, box):
    """The box sample drawn block by block as x + 1j * y."""
    x_lo, x_hi, y_lo, y_hi = box
    sizes = [min(pingpong.SAMPLE_CHUNK, n - k) for k in range(0, n, pingpong.SAMPLE_CHUNK)] or [0]
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


def float_image(m, zs):
    """The sampled inclusion's image of zs: _mobius_array on m's float entries."""
    return pingpong._mobius_array(*pingpong._float_entries(m), zs)


def reference_mobius(m, zs):
    """(a zs + b) / (c zs + d) for the float entries of m."""
    try:
        a, b, c, d = (float(v) for v in m.entries())
    except OverflowError:
        raise InvalidInputError(
            "a matrix entry is beyond the float range of the sampled checks") from None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return (a * zs + b) / (c * zs + d)


def whole_array_sampled_checks(cert, axes, trs, seed, sample_budget, box, checks):
    """Reference: the sampled inclusion and disjointness checks as one pass over
    the whole sample, kept as complex points, through the reference draw,
    projection parameters and Mobius maps above."""
    S = cert.S
    zs = reference_sample(seed, sample_budget, box)
    params = np.stack([reference_params(c, zs) for c in axes])
    for i, (m, c, tr) in enumerate(zip(cert.generators, axes, trs)):
        if cert.N * tr > pingpong.FLOAT_POWER_LIMIT:
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
    checks.append({"name": "inclusion-empirical", "passed": True,
                   "samples": int(sample_budget), "powers": "exact integer matrices"})
    membership = np.concatenate([params >= S, params <= -S])
    counts = membership.sum(axis=0)
    per_set = [int(v) for v in membership.sum(axis=1)]
    ok = int(counts.max(initial=0)) <= 1
    checks.append({"name": "table-disjointness", "passed": bool(ok),
                   "samples": int(sample_budget), "per_set_hits": per_set})
    if not ok:
        k = int(np.argmax(counts))
        raise CertificateInvalidError("a sample lies in two tables",
                                      witness={"point": [float(zs[k].real), float(zs[k].imag)]})


WIDE_BOX = (-10.0, 10.0, 1e-6, 10.0)
EDGE_BOX = (-10.0, 10.0, 5e-324, sys.float_info.max)
#: a trace -3 class that fails the sampled inclusion at WIDE_BOX; not psi conjugated
#: by phi^8 L, which is phi (L psi L^-1 = phi), and of unrecorded origin
PSI_CONJUGATE = MappingClass(5100816, -8253295, 3152479, -5100819)
#: psi conjugated by phi^a L^b, a <= 10, b <= 3, where independent of phi
PSI_CONJUGATES = [c for c in (PSI.conjugated_by(PHI ** a * L_GEN ** b)
                              for a in range(11) for b in range(4))
                  if c != PHI]


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


def verify_outcome(cert, samples):
    """The certificate document after verification, or the error's class,
    message and witness."""
    try:
        verify_pingpong(cert, samples)
    except (CertificateInvalidError, InvalidInputError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return certificate_document(cert)


class TestStreamedVerifier:
    """The block-by-block verifier against the whole-sample pass it replaced."""

    @staticmethod
    def both(monkeypatch, make_cert, samples=100_000):
        streamed = verify_outcome(make_cert(), samples)
        with monkeypatch.context() as mp:
            mp.setattr(pingpong, "_sampled_checks", whole_array_sampled_checks)
            whole = verify_outcome(make_cert(), samples)
        return streamed, whole

    @pytest.mark.parametrize("box", [pingpong.DEFAULT_BOX, WIDE_BOX], ids=["default", "wide"])
    def test_seeded_pairs(self, box, monkeypatch):
        import random
        for seed in range(10):
            gens = positive_word_family(random.Random(seed), 2)
            streamed, whole = self.both(monkeypatch, lambda: build_certificate(gens, box=box))
            assert isinstance(streamed, str) and streamed == whole, seed

    def test_triples(self, monkeypatch):
        import random
        for seed in range(3):
            gens = positive_word_family(random.Random(100 + seed), 3)
            streamed, whole = self.both(monkeypatch, lambda: build_certificate(gens))
            assert isinstance(streamed, str) and streamed == whole, seed

    @pytest.mark.parametrize("k", [10, 1000, 10 ** 5, 3 * 10 ** 5])
    def test_large_entries(self, k, monkeypatch):
        gens = [L_GEN ** k * R_GEN, R_GEN ** 3 * L_GEN ** 2]
        streamed, whole = self.both(monkeypatch, lambda: build_certificate(gens))
        assert isinstance(streamed, str) and streamed == whole

    def test_partial_and_empty_blocks(self, monkeypatch):
        for samples in (0, 1, pingpong.SAMPLE_CHUNK, pingpong.SAMPLE_CHUNK + 1):
            streamed, whole = self.both(monkeypatch, lambda: build_certificate([PHI, PSI]),
                                        samples)
            assert isinstance(streamed, str) and streamed == whole, samples

    @pytest.mark.parametrize("box", [(-1e200, 1e200, 0.05, 1e200), (-10.0, 10.0, 1e-300, 1e300)],
                             ids=["wide-x", "wide-y"])
    def test_boxes_near_float_range(self, box, monkeypatch):
        streamed, whole = self.both(monkeypatch, lambda: build_certificate([PHI, PSI], box=box),
                                    20_000)
        assert isinstance(streamed, str) and streamed == whole

    def test_power_near_float_limit(self, monkeypatch):
        # N Tr = 709.3: the power's images overflow and are refused
        def near_limit():
            cert = build_certificate([PHI, PSI])
            cert.N = 737
            return cert
        streamed, whole = self.both(monkeypatch, near_limit, 20_000)
        assert streamed == whole == (InvalidInputError,
                                     "non-finite input point in projection batch", None)

    @pytest.mark.parametrize("conjugate, box", [
        (PSI_CONJUGATE, WIDE_BOX),
        # psi conjugated by phi^10 L^3: a rounding-sensitive failure, whose
        # first failing sample moves under any other evaluation of the images
        # (its image parameter is 8.398, short of S = 12.90)
        (MappingClass(627359044, -1015088255, 387729211, -627359041), pingpong.DEFAULT_BOX),
    ], ids=["trace-3-class", "phi10-L3"])
    def test_inclusion_witness(self, conjugate, box, monkeypatch):
        streamed, whole = self.both(monkeypatch, lambda: build_certificate([PHI, conjugate],
                                                                           box=box))
        assert streamed[:2] == (CertificateInvalidError,
                                "power of generator 1 (sign +1) failed the inclusion")
        assert streamed == whole

    # L^k R with k = 7036818 has N Tr = 709.5 at N = 45: its power's images
    # overflow.  With k = 50992965, N Tr = 709.9 at N = 40: its power's entries
    # leave the float range although N Tr is under FLOAT_POWER_LIMIT.
    @pytest.mark.parametrize("k, n_power, refusal", [
        (7036818, 45, "non-finite input point in projection batch"),
        (50992965, 40, "a matrix entry is beyond the float range of the sampled checks"),
    ], ids=["images", "entries"])
    @pytest.mark.parametrize("overflow_first", [False, True],
                             ids=["failure-first", "refusal-first"])
    def test_inclusion_failure_beside_overflowing_power(self, k, n_power, refusal,
                                                        overflow_first, monkeypatch):
        # the psi conjugate fails its inclusion; whichever generator comes
        # first decides the verdict
        big = L_GEN ** k * R_GEN
        gens = [big, PHI, PSI_CONJUGATE] if overflow_first else [PHI, PSI_CONJUGATE, big]

        def make():
            cert = build_certificate(gens, box=WIDE_BOX)
            cert.N = n_power
            return cert
        streamed, whole = self.both(monkeypatch, make)
        assert streamed == whole
        if overflow_first:
            assert streamed == (InvalidInputError, refusal, None)
        else:
            assert streamed[:2] == (CertificateInvalidError,
                                    "power of generator 1 (sign +1) failed the inclusion")

    @pytest.mark.parametrize("far_first", [False, True])
    def test_failure_and_non_finite_image_of_one_power(self, far_first, monkeypatch):
        # two one-point blocks for the psi conjugate's power: its inclusion
        # witness, and a far point whose image is nan; the nan refuses the
        # input whichever block comes first
        witness = np.array([1.6662428350713014 + 0.002496617881310062j])
        far = np.array([1e300 + 1j])
        blocks = [far, witness] if far_first else [witness, far]

        def make():
            return build_certificate([PHI, PSI_CONJUGATE], box=WIDE_BOX)
        this = sys.modules[__name__]
        monkeypatch.setattr(pingpong, "_sample_blocks", lambda seed, n, box: iter([witness]))
        monkeypatch.setattr(this, "reference_sample", lambda seed, n, box: witness)
        assert self.both(monkeypatch, make, 1)[0][:2] == (
            CertificateInvalidError, "power of generator 1 (sign +1) failed the inclusion")
        monkeypatch.setattr(pingpong, "_sample_blocks", lambda seed, n, box: iter(blocks))
        monkeypatch.setattr(this, "reference_sample",
                            lambda seed, n, box: np.concatenate(blocks))
        streamed, whole = self.both(monkeypatch, make, 2)
        assert streamed == whole == (InvalidInputError,
                                     "non-finite input point in projection batch", None)

    def test_witness_in_a_partly_selected_block(self, monkeypatch):
        # the block's first point lies in the psi conjugate's minus table, so
        # its plus power maps only the second, the inclusion witness
        def make():
            return build_certificate([PHI, PSI_CONJUGATE], box=WIDE_BOX)
        minus = axis(PSI_CONJUGATE).axis.point_at(-make().S - 1.0).z
        block = np.array([minus, 1.6662428350713014 + 0.002496617881310062j])
        monkeypatch.setattr(pingpong, "_sample_blocks", lambda seed, n, box: iter([block]))
        monkeypatch.setattr(sys.modules[__name__], "reference_sample", lambda seed, n, box: block)
        streamed, whole = self.both(monkeypatch, make, 2)
        assert streamed[:2] == (CertificateInvalidError,
                                "power of generator 1 (sign +1) failed the inclusion")
        assert streamed[2]["point"] == [1.6662428350713014, 0.002496617881310062]
        assert streamed == whole

    def test_entries_converted_only_for_sampled_points(self, monkeypatch):
        # the third power's entries leave the float range; with no sample
        # they are never converted and the certificate passes
        def make():
            cert = build_certificate([PHI, PSI, L_GEN ** 50992965 * R_GEN], box=WIDE_BOX)
            cert.N = 40
            return cert
        streamed, whole = self.both(monkeypatch, make, 0)
        assert isinstance(streamed, str) and streamed == whole
        streamed, whole = self.both(monkeypatch, make, 1)
        assert streamed == whole == (
            InvalidInputError, "a matrix entry is beyond the float range of the sampled checks",
            None)

    def test_box_at_float_range_edge(self, monkeypatch):
        # heights from the least subnormal to the largest float
        def make():
            return build_certificate([PHI, PSI], box=EDGE_BOX)
        streamed, whole = self.both(monkeypatch, make, 20_000)
        # the images of the highest samples overflow
        assert streamed == whole == (InvalidInputError,
                                     "non-finite input point in projection batch", None)

    def test_overflowing_height_refused_either_way(self, monkeypatch):
        # where exp overflows, x + 1j * inf is nan + inf j, while the draw
        # writes x + inf j; both are refused as non-finite input
        x, y = np.array([0.5, -3.0]), np.array([2.0, np.inf])
        drawn = np.empty(2, dtype=complex)
        drawn.real, drawn.imag = x, y
        with np.errstate(invalid="ignore"):
            reference = x + 1j * y
        assert np.isnan(reference[1].real) and drawn[1] == complex(-3.0, np.inf)
        this = sys.modules[__name__]
        monkeypatch.setattr(pingpong, "_sample_blocks", lambda seed, n, box: iter([drawn]))
        monkeypatch.setattr(this, "reference_sample", lambda seed, n, box: reference)
        streamed, whole = self.both(
            monkeypatch, lambda: build_certificate([PHI, PSI], box=WIDE_BOX), 2)
        assert streamed == whole == (InvalidInputError,
                                     "non-finite input point in projection batch", None)

    def test_disjointness_witness(self, monkeypatch):
        def lowered():
            cert = build_certificate([PHI, PSI])
            cert.S = 0.5
            return cert
        streamed, whole = self.both(monkeypatch, lowered)
        assert streamed[:2] == (CertificateInvalidError, "a sample lies in two tables")
        assert streamed == whole

    def test_refusal_after_earlier_generator(self, monkeypatch):
        # N Tr is about 67 for phi and 806 for L^100000 R: phi's inclusion is
        # checked in full, then the second power is refused
        def raised():
            cert = build_certificate([PHI, L_GEN ** (10 ** 5) * R_GEN])
            cert.N = 70
            return cert
        streamed, whole = self.both(monkeypatch, raised)
        assert streamed[:2] == (InvalidInputError,
                                "the N-th power of generator 1 (N = 70) has entries beyond "
                                "the float range of the sampled checks")
        assert streamed == whole

    @pytest.mark.parametrize("box", [pingpong.DEFAULT_BOX, WIDE_BOX], ids=["default", "wide"])
    def test_conjugate_sweep(self, box, monkeypatch):
        # psi conjugated by phi^a L^b, the family of the phi^10 L^3 witness
        for conjugate in PSI_CONJUGATES:
            streamed, whole = self.both(
                monkeypatch, lambda: build_certificate([PHI, conjugate], box=box), 20_000)
            assert streamed == whole, conjugate

    def test_memory_stays_within_blocks(self):
        # the whole-sample pass peaked at about 10 MiB on 100k samples
        cert = build_certificate([PHI, PSI])
        verify_pingpong(cert, 1000)
        tracemalloc.start()
        try:
            verify_pingpong(cert, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def threshold_corpus():
    """Families for the inclusion threshold: seeded pairs and triples, L^k R
    beside R^3 L^2 for k = 10 to 10^7, and the psi conjugates."""
    import random
    fams = [positive_word_family(random.Random(seed), 2) for seed in range(20)]
    fams += [positive_word_family(random.Random(100 + seed), 3) for seed in range(3)]
    fams += [[L_GEN ** k * R_GEN, R_GEN ** 3 * L_GEN ** 2]
             for k in (10, 1000, 10 ** 5, 3 * 10 ** 5, 10 ** 6, 10 ** 7)]
    return fams + [[PHI, c] for c in PSI_CONJUGATES]


def powers(cert):
    """(axis, sign, power) for each generator whose power the verifier forms."""
    for m in cert.generators:
        if cert.N * translation_distance(m) <= pingpong.FLOAT_POWER_LIMIT:
            power = m ** cert.N
            yield axis(m).axis, 1, power
            yield axis(m).axis, -1, power.inverse()


class TestInclusionThreshold:
    """The per-power bound that spares the sampled inclusion its images."""

    BOXES = [pingpong.DEFAULT_BOX, WIDE_BOX, EDGE_BOX, (-10.0, 10.0, 1e-300, 1e300)]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_bound_is_conservative(self):
        # the bound at each sample's own parameter is at most its reference
        # image parameter, and a power certified at -S has every selected
        # sample on the right side of S
        certified = 0
        for gens in threshold_corpus():
            for box in self.BOXES:
                cert = build_certificate(gens, box=box)
                bounds = pingpong._box_bounds(box)
                zs = sample_box_points(0, 4000, box)
                edge, y_lo = bounds
                assert np.all(np.abs(zs.real) <= edge)
                assert np.all((zs.imag >= y_lo) & (zs.imag <= edge))
                for c, sign, mat in powers(cert):
                    err = pingpong._param_error(c.chart, bounds)
                    if pingpong._inclusion_bound(c.chart, err, mat, sign, bounds, 60.0) == -np.inf:
                        continue  # not covered, even far along the axis
                    own = sign * c.params_of_array(zs)
                    chosen = own > -cert.S
                    if not chosen.any():
                        continue
                    t_img = sign * reference_params(c, reference_mobius(mat, zs[chosen]))
                    t_own = own[chosen]
                    for k in [*range(0, len(t_own), 97), int(np.argmin(t_img))]:
                        bound = pingpong._inclusion_bound(c.chart, err, mat, sign, bounds,
                                                          float(t_own[k]))
                        assert bound <= t_img[k], (gens, box, sign, k)
                    if pingpong._inclusion_bound(c.chart, err, mat, sign, bounds,
                                                 -cert.S) >= cert.S:
                        assert np.all(t_img >= cert.S), (gens, box, sign)
                        certified += len(t_own)
        assert certified > 10 ** 6

    @staticmethod
    def image_calls(monkeypatch, cert, samples):
        """Sizes of the arrays _sampled_checks maps, and which of its powers
        the bound at -S certifies."""
        calls = []
        apply = pingpong._mobius_array

        def counted(a, b, c, d, zs):
            calls.append(len(zs))
            return apply(a, b, c, d, zs)
        axes = [axis(m).axis for m in cert.generators]
        trs = [translation_distance(m) for m in cert.generators]
        with monkeypatch.context() as mp:
            mp.setattr(pingpong, "_mobius_array", counted)
            try:
                pingpong._sampled_checks(cert, axes, trs, 0, samples, tuple(cert.config["box"]),
                                         [])
            except (CertificateInvalidError, InvalidInputError):
                pass
        bounds = pingpong._box_bounds(tuple(cert.config["box"]))
        return calls, [pingpong._inclusion_bound(c.chart, pingpong._param_error(c.chart, bounds),
                                                 mat, sign, bounds, -cert.S) >= cert.S
                       for c, sign, mat in powers(cert)]

    def test_no_images_on_the_default_box(self, monkeypatch):
        import random
        families = [[PHI, PSI]] + [positive_word_family(random.Random(seed), 2)
                                   for seed in range(10)]
        for gens in families:
            cert = build_certificate(gens)
            calls, certified = self.image_calls(monkeypatch, cert, 100_000)
            assert calls == [] and certified == [True] * 4, gens

    def test_block_outside_the_box_maps_every_selected_sample(self, monkeypatch):
        # nothing is trusted on a subnormal floor: the image of a point far
        # above the box overflows and is refused, as in the whole-sample pass
        far = np.array([1.0 + 1e307j])
        monkeypatch.setattr(pingpong, "_sample_blocks", lambda seed, n, box: iter([far]))
        monkeypatch.setattr(sys.modules[__name__], "reference_sample", lambda seed, n, box: far)
        streamed, whole = TestStreamedVerifier.both(
            monkeypatch, lambda: build_certificate([PHI, PSI], box=(-10.0, 10.0, 1e-320, 10.0)), 1)
        assert streamed == whole == (InvalidInputError,
                                     "non-finite input point in projection batch", None)

    def test_one_trust_rule(self, monkeypatch):
        # on WIDE_BOX both powers are certified but no table is decided: every
        # block is drawn and no sample is mapped
        import random
        drawn = TestDecidedBox.drawn_blocks(monkeypatch)
        families = [[PHI, PSI]] + [positive_word_family(random.Random(seed), 2)
                                   for seed in range(10)]
        for gens in families:
            calls, certified = self.image_calls(monkeypatch, build_certificate(gens, box=WIDE_BOX),
                                                20_000)
            assert calls == [] and certified == [True] * 4, gens
        assert drawn == [8192, 8192, 3616] * len(families)
        # on a subnormal floor nothing is trusted: every selected sample is mapped
        box = (-0.1, 0.1, 1e-320, 0.1)
        cert = build_certificate([PHI, PSI], box=box)
        calls, certified = self.image_calls(monkeypatch, cert, 20_000)
        zs = sample_box_points(0, 20_000, box)
        selected = [np.count_nonzero(sign * c.params_of_array(zs) > -cert.S)
                    for c, sign, _ in powers(cert)]
        assert all(certified) and sum(calls) == sum(selected) > 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("gens, n_power, box", [
        ([PHI, PSI], 737, pingpong.DEFAULT_BOX),
        ([PHI, PSI, L_GEN ** 50992965 * R_GEN], 40, WIDE_BOX),
        ([PHI, PSI], None, EDGE_BOX),
        ([PHI, PSI], None, (-10.0, 10.0, 1.0, 1e306)),
    ], ids=["N737", "entries-beyond-float", "edge-box", "1-1e306"])
    def test_fallback_maps_every_selected_sample(self, gens, n_power, box, monkeypatch):
        cert = build_certificate(gens, box=box)
        cert.N = n_power or cert.N
        calls, certified = self.image_calls(monkeypatch, cert, 20_000)
        assert calls and not certified[-1]
        if n_power is None or n_power == 737:
            assert not any(certified)


def table_peaks(c, sign, bounds, S):
    """The corners of the bounds' rectangle, and the maximiser (clamp(beta/alpha),
    y_lo) of _table_empty's quadratic at lam = e^{4S} with its float neighbours
    in x, as complex points."""
    edge, y_lo = bounds
    m = c.chart
    a, b, cc, k = (m.d, m.b, m.c, m.a) if sign == 1 else (m.c, m.a, m.d, m.b)
    lam = math.exp(min(4.0 * S, 700.0))
    alpha, beta = a * a - lam * cc * cc, a * b - lam * cc * k
    peaks = [complex(x, y) for x in (-edge, edge) for y in (y_lo, edge)]
    if alpha != 0.0:
        x = min(edge, max(-edge, beta / alpha))
        xs = [x, *(x + d * np.spacing(x) for d in range(-8, 9) if d)]
        peaks += [complex(x, y_lo) for x in xs if abs(x) <= edge]
    return np.array(peaks)


def table_hits(c, sign, points, S):
    """The points whose reference parameter lies in the table (c, sign) at S."""
    t = sign * reference_params(c, points)
    return points[t >= S]


class TestTableBound:
    """The per-table bound that spares the box samples their table parameters."""

    @staticmethod
    def tables(box):
        """(gens, S, axis, sign) for each table of threshold_corpus() at the box."""
        for gens in threshold_corpus():
            S = build_certificate(gens, box=box).S
            for m in gens:
                for sign in (1, -1):
                    yield gens, S, axis(m).axis, sign

    @pytest.mark.parametrize("box", TestInclusionThreshold.BOXES)
    def test_bound_is_conservative(self, box):
        bounds = pingpong._box_bounds(box)
        zs = sample_box_points(0, 4000, box)
        empty = 0
        for gens, S, c, sign in self.tables(box):
            if pingpong._table_empty(c.chart, pingpong._param_error(c.chart, bounds), sign, bounds, S):
                empty += 1
                points = np.concatenate([zs, table_peaks(c, sign, bounds, S)])
                assert len(table_hits(c, sign, points, S)) == 0, (gens, sign)
        if box == pingpong.DEFAULT_BOX:
            assert empty == 2 * sum(len(gens) for gens in threshold_corpus())

    @pytest.mark.parametrize("box", [pingpong.DEFAULT_BOX, WIDE_BOX], ids=["default", "wide"])
    def test_bound_is_conservative_at_its_threshold(self, box):
        # S0, bisected to adjacent floats, is the least S the bound certifies.
        # The box's points of largest parameter must still miss the table at
        # S0; with delta dropped, or lam above e^{4(S - delta)}, S0 comes
        # within the parameter's rounding of theirs and some land in it
        bounds = pingpong._box_bounds(box)
        empty = 0
        for gens, _, c, sign in self.tables(box):
            lo, hi = 0.0, 150.0
            err = pingpong._param_error(c.chart, bounds)
            if pingpong._table_empty(c.chart, err, sign, bounds, lo) or not pingpong._table_empty(
                    c.chart, err, sign, bounds, hi):
                continue
            while np.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = ((lo, mid) if pingpong._table_empty(c.chart, err, sign, bounds, mid)
                          else (mid, hi))
            empty += 1
            assert len(table_hits(c, sign, table_peaks(c, sign, bounds, hi), hi)) == 0, (gens, sign)
        assert empty > 100

    def test_no_table_parameters_on_the_default_box(self, monkeypatch):
        import random
        calls = []
        params_of_array = Geodesic.params_of_array

        def counted(c, zs):
            calls.append(len(zs))
            return params_of_array(c, zs)
        for gens in [[PHI, PSI]] + [positive_word_family(random.Random(seed), 2)
                                    for seed in range(10)]:
            cert = build_certificate(gens)
            axes = [axis(m).axis for m in gens]
            trs = [translation_distance(m) for m in gens]
            with monkeypatch.context() as mp:
                mp.setattr(Geodesic, "params_of_array", counted)
                pingpong._sampled_checks(cert, axes, trs, 0, 100_000, pingpong.DEFAULT_BOX, [])
            assert calls == [], gens

    def test_wide_box_samples_reach_the_tables(self):
        # none of these tables is certified empty at S, so every block
        # computes its parameters
        import random
        hits = []
        for seed in range(10):
            cert = build_certificate(positive_word_family(random.Random(seed), 2), box=WIDE_BOX)
            verify_pingpong(cert, 100_000)
            check, = (c for c in cert.verification["checks"] if c["name"] == "table-disjointness")
            hits += check["per_set_hits"]
        assert sum(hits) > 0


def reference_inclusion_bound(chart, mat, sign, bounds, T):
    """_inclusion_bound with its exact steps in Fractions, as first written."""
    U, LOG_ERR, W_CAP = pingpong._U, pingpong._LOG_ERR, pingpong._W_CAP
    try:
        p, q, r, s = (float(v) for v in mat.entries())
    except OverflowError:
        return -math.inf
    A, B, C, D = chart.a, chart.b, chart.c, chart.d
    own = pingpong._quotient_error((D, B), (C, A), bounds)
    image = pingpong._quotient_error((p, q), (r, s), bounds)
    if own is None or image is None:
        return -math.inf
    rho0, _ = own
    eps1, z1_box = image
    low, high = pingpong._OPERAND_RANGE

    fA, fB, fC, fD, fp, fq, fr, fs = (Fraction(v) for v in (A, B, C, D, p, q, r, s))
    delta = fA * fD - fB * fC
    if delta <= 0:
        return -math.inf
    m00, m01, m10, m11 = fp * fA + fq * fC, fp * fB + fq * fD, fr * fA + fs * fC, fr * fB + fs * fD
    H = [fD * m00 - fB * m10, fD * m01 - fB * m11, fA * m10 - fC * m00, fA * m11 - fC * m01]
    scale = max(map(abs, H))
    if sign == -1:
        H.reverse()
    h_a = math.nextafter(float(abs(H[0]) / scale), 0.0)
    h_b, h_c, h_d = (math.nextafter(float(abs(v) / scale), math.inf) for v in H[1:])
    delta_lo, delta_hi = math.nextafter(float(delta), 0.0), math.nextafter(float(delta), math.inf)
    big, small = ((D, B), (C, A)) if sign == 1 else ((C, A), (D, B))
    c_big, c_small, k_small = abs(big[0]), abs(small[0]), abs(small[1])
    shrink = math.log1p(-16.0 * U) + math.log1p(-rho0) - LOG_ERR

    W0 = min(W_CAP, math.exp(min(2.0 * T + shrink, 300.0)))
    if not h_a * W0 >= 2.0 * h_b:
        return -math.inf
    W = min(W_CAP, (h_a * W0 - h_b) / (h_c * W0 + h_d))
    k = (c_small * W + c_big) / delta_lo
    z1 = z1_box
    if c_small * W > 2.0 * c_big:
        z1 = min(z1, k_small / c_small + delta_hi / (c_small * (c_small * W - c_big)))
    errs = []
    for c, kk in (big, small):
        size = abs(c) * z1 * (1.0 + eps1) + abs(kk)
        errs.append(abs(c) * eps1 * z1 + 3.0 * U * size)
        if not size + errs[-1] <= high:
            return -math.inf
    e_big, e_small = errs
    if not (W >= 2.0 * e_big * k and W / k - e_big >= low):
        return -math.inf
    f = (W - e_big * k) / (1.0 + e_small * k)
    return min(67.0, 0.5 * (math.log(f) + math.log1p(-48.0 * U) - LOG_ERR)
               - pingpong._BOUND_MARGIN)


def reference_table_empty(chart, sign, bounds, S):
    """_table_empty with its quadratic in Fractions, as first written."""
    D, B, C, A = chart.d, chart.b, chart.c, chart.a
    own = pingpong._quotient_error((D, B), (C, A), bounds)
    if own is None:
        return False
    delta = pingpong._BOUND_MARGIN - 0.5 * (math.log1p(-own[0]) + math.log1p(-16.0 * pingpong._U)
                                            - pingpong._LOG_ERR)
    lam = Fraction(math.exp(min(4.0 * (S - delta), 700.0)))
    a, b, c, k = map(Fraction, (D, B, C, A) if sign == 1 else (C, A, D, B))
    alpha, beta, gamma = a * a - lam * c * c, a * b - lam * c * k, b * b - lam * k * k
    edge, y_lo = map(Fraction, bounds)
    if alpha < 0:
        peaks = [(min(edge, max(-edge, beta / alpha)), y_lo)]
    else:
        peaks = [(x, y) for x in (-edge, edge) for y in (y_lo, edge)]
    return all(alpha * (x * x + y * y) - 2 * beta * x + gamma < 0 for x, y in peaks)


class TestIntegerBounds:
    """The two bounds in scaled integers against their Fraction references."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("box", TestInclusionThreshold.BOXES)
    def test_same_as_fractions(self, box):
        bounds = pingpong._box_bounds(box)
        decided = 0
        for gens in threshold_corpus():
            cert = build_certificate(gens, box=box)
            S = cert.S
            for n in (1, 3, cert.N):
                cert.N = n
                for c, sign, mat in powers(cert):
                    err = pingpong._param_error(c.chart, bounds)
                    for T in (-S, 0.0, S, 60.0):
                        new = pingpong._inclusion_bound(c.chart, err, mat, sign, bounds, T)
                        assert new == reference_inclusion_bound(c.chart, mat, sign, bounds, T), (
                            gens, n, sign, T)
                        decided += new >= S
            for m in gens:
                c = axis(m).axis
                err = pingpong._param_error(c.chart, bounds)
                for sign in (1, -1):
                    for s in (0.5, 3.0, S, 30.0):
                        new = pingpong._table_empty(c.chart, err, sign, bounds, s)
                        assert new == reference_table_empty(c.chart, sign, bounds, s), (
                            gens, sign, s)
                        decided += new
        if box == pingpong.DEFAULT_BOX:
            assert decided > 1000


class TestDecidedBox:
    """A box whose powers and tables are all decided draws no sample."""

    @staticmethod
    def drawn_blocks(monkeypatch, limit=None):
        """Sizes of the blocks _sampled_checks draws, of at most `limit`
        blocks passed on; the call itself still checks its arguments."""
        drawn = []
        sample_blocks = pingpong._sample_blocks

        def counted(seed, n, box):
            blocks = (drawn.append(len(zs)) or zs for zs in sample_blocks(seed, n, box))
            return itertools.islice(blocks, limit)
        monkeypatch.setattr(pingpong, "_sample_blocks", counted)
        return drawn

    def test_no_block_on_the_default_box(self, monkeypatch):
        import random
        drawn = self.drawn_blocks(monkeypatch)
        for gens in [[PHI, PSI]] + [positive_word_family(random.Random(seed), 2)
                                    for seed in range(10)]:
            assert verify_pingpong(build_certificate(gens), 100_000)["passed"]
        assert drawn == []
        # a partly decided box streams every block
        verify_pingpong(build_certificate([PHI, PSI], box=WIDE_BOX), 20_000)
        assert drawn == [8192, 8192, 3616]

    def test_subnormal_floor_streams(self, monkeypatch):
        # every power and table is decided on this box, but exp's subnormal
        # results may leave it by more than 2^-30, so every block is drawn
        box = (-0.1, 0.1, 1e-320, 0.1)
        cert = build_certificate([PHI, PSI], box=box)
        bounds = pingpong._box_bounds(box)
        err = {c: pingpong._param_error(c.chart, bounds) for c, _, _ in powers(cert)}
        assert all(pingpong._inclusion_bound(c.chart, err[c], mat, sign, bounds, -cert.S) >= cert.S
                   and pingpong._table_empty(c.chart, err[c], sign, bounds, cert.S)
                   for c, sign, mat in powers(cert))
        drawn = self.drawn_blocks(monkeypatch)
        assert verify_pingpong(cert, 20_000)["passed"]
        assert drawn == [8192, 8192, 3616]

    @pytest.mark.parametrize("box, seed, samples, message", [
        ((1.0, -1.0, 0.1, 1.0), 0, 10, "bad sampling box"),
        (pingpong.DEFAULT_BOX, -1, 10, "need a sample count and seed >= 0"),
        (pingpong.DEFAULT_BOX, 0, -1, "need a sample count and seed >= 0"),
        ((-10.0, 10.0, 0.05), 0, 10, "bad sampling box"),
    ])
    def test_refusals_kept(self, box, seed, samples, message):
        cert = build_certificate([PHI, PSI])
        cert.config["box"] = list(box)
        with pytest.raises(InvalidInputError, match=message):
            verify_pingpong(cert, samples, seed=seed)

    def test_lazy_block_seeds(self):
        start = time.perf_counter()
        first = next(pingpong._sample_blocks(0, 2 ** 63 - 1, pingpong.DEFAULT_BOX))
        assert time.perf_counter() - start < 0.5
        assert same_bits(first, sample_box_points(0, pingpong.SAMPLE_CHUNK))

    def test_largest_sample_count(self, monkeypatch):
        # one block at most is passed on, so a draw cannot start 2^50 of them
        drawn = self.drawn_blocks(monkeypatch, limit=1)
        cert = build_certificate([PHI, PSI])
        start = time.perf_counter()
        assert verify_pingpong(cert, 2 ** 63 - 1)["passed"]
        assert time.perf_counter() - start < 1.0 and drawn == []


def same_bits(new, ref):
    """Equal arrays, nan where nan, with equal sign bits in both parts."""
    return (new.dtype == ref.dtype and np.array_equal(new, ref, equal_nan=True)
            and all(np.array_equal(np.signbit(part(new)), np.signbit(part(ref)))
                    for part in (np.real, np.imag)))


def outcome_of(f, *args):
    """The array f returns, or the message of the InvalidInputError it raises."""
    try:
        return f(*args)
    except InvalidInputError as exc:
        return str(exc)


def assert_same_outcome(new, ref):
    if isinstance(ref, str):
        assert new == ref
    else:
        assert not isinstance(new, str) and same_bits(new, ref)


SPECIAL_POINTS = np.array(
    [complex(x, y) for x in (0.0, -0.0, 1.5, -2.0) for y in (0.0, -0.0, 0.75, -0.75)]
    + [complex(x, y) for x in (np.inf, -np.inf, np.nan, 1.0) for y in (1.0, np.inf, np.nan)]
    + [complex(np.nan, np.inf), complex(-np.inf, -np.inf), complex(1e308, 1e308),
       complex(5e-324, 5e-324), complex(-5e-324, 1e-300)])


class TestInPlacePrimitives:
    """params_of_array and float_image against the complex expressions
    they evaluate in place, bit for bit."""

    AXES = [axis(PHI).axis, axis(PSI).axis, axis(L_GEN ** 1000 * R_GEN).axis, VERTICAL,
            Geodesic(BoundaryPoint.infinity(), BoundaryPoint.finite(0.0), Point(0.0, 2.0)),
            Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.finite(3.0), Point(1.5, 1.5))]

    @staticmethod
    def points(c):
        """Finite samples, the special points, and the chart's pole, where
        the inverse chart divides by zero."""
        m = c.chart
        pole = [] if m.c == 0.0 else [complex(m.a / m.c, 0.0), complex(m.a / m.c, -0.0)]
        return np.concatenate([sample_box_points(3, 2000), sample_box_points(4, 2000, WIDE_BOX),
                               sample_box_points(5, 500, EDGE_BOX), SPECIAL_POINTS,
                               np.array(pole, dtype=complex)])

    def check_params(self, c, zs):
        assert_same_outcome(outcome_of(c.params_of_array, zs), outcome_of(reference_params, c, zs))
        for z in zs:
            one = np.array([z])
            assert_same_outcome(outcome_of(c.params_of_array, one),
                                outcome_of(reference_params, c, one))

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    @pytest.mark.parametrize("k", range(6))
    def test_params(self, k):
        c = self.AXES[k]
        zs = self.points(c)
        self.check_params(c, zs)
        finite = zs[np.isfinite(zs)]
        assert same_bits(c.params_of_array(finite), reference_params(c, finite))

    @pytest.mark.parametrize("m", [PHI, PSI.inverse(), L_GEN ** 1000 * R_GEN, PHI ** 12,
                                   PHI ** 737, (L_GEN ** 50992965 * R_GEN) ** 40],
                             ids=["phi", "psi-inv", "L1000R", "phi^12", "phi^737",
                                  "L^50992965R^40"])
    def test_mobius_and_params_of_images(self, m):
        zs = np.concatenate([self.points(c) for c in self.AXES[:2]])
        try:
            _, _, c, d = (float(v) for v in m.entries())
        except OverflowError:
            pass
        else:
            # the map's own pole
            zs = np.append(zs, [complex(-d / c, 0.0), complex(-d / c, -0.0)])
        images = outcome_of(float_image, m, zs)
        assert_same_outcome(images, outcome_of(reference_mobius, m, zs))
        if isinstance(images, str):
            assert images == "a matrix entry is beyond the float range of the sampled checks"
            return
        if m == PHI ** 737:
            assert not np.isfinite(images).all()
        for geodesic in self.AXES:
            self.check_params(geodesic, images[::7])

    def test_draw_matches_reference(self):
        for seed, n, box in [(0, 20_000, pingpong.DEFAULT_BOX), (9, 8193, WIDE_BOX),
                             (2, 20_000, EDGE_BOX), (1, 1000, (-1e200, 1e200, 1e-300, 1e300))]:
            assert same_bits(sample_box_points(seed, n, box), reference_sample(seed, n, box))


class TestArrayKernel:
    """hyp2's one Mobius map on arrays, quiet near the float range, and the
    own-chart error that the sampled checks' two bounds share."""

    @pytest.mark.parametrize("m", [MappingClass(1, 0, 1000, 1) * PHI, R_GEN ** 1000 * L_GEN],
                             ids=["R^1000-phi", "R^1000L"])
    @pytest.mark.parametrize("z", [1e308 + 1e308j, 1.7e308 + 1j])
    def test_no_overflow_warning(self, m, z):
        import warnings
        c, zs = axis(m).axis, np.array([z])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = reference_params(c, zs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(c.params_of_array(zs), ref)

    def test_own_chart_error_once_per_axis(self, monkeypatch):
        # _quotient_error runs once on each axis's own chart, for both
        # bounds, and once on each of the 2n powers: 3n calls
        calls = []
        quotient_error = pingpong._quotient_error

        def counted(num, den, bounds):
            calls.append(num)
            return quotient_error(num, den, bounds)
        monkeypatch.setattr(pingpong, "_quotient_error", counted)
        for gens, n_calls in [([PHI, PSI], 6), ([PHI, PSI, L_GEN ** 2 * R_GEN ** 3], 9)]:
            calls.clear()
            assert verify_pingpong(build_certificate(gens), 100_000)["passed"]
            assert len(calls) == n_calls, gens


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
        # lower end 4.71 lies beyond R + 4b = 3.70
        m2 = PHI.conjugated_by((PHI ** 5) * MappingClass(1, 1, 0, 1))
        cert = build_certificate([PHI, m2], box=(-10, 10, 1e-6, 10))
        cert.R = 0.0
        assert self.outcome(cert) == (
            CertificateInvalidError, "projection of axis 1 on axis 0 left its interval",
            {"param": 4.706150572845396})
        assert cert.intervals[(0, 1)][0] == 4.706150572845396
