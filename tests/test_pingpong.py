import numpy as np
import pytest

from conftest import PHI, PSI, random_independent_pair
from teichpong.errors import (CertificateInvalidError, ConstantDerivationError,
                              InvalidInputError, NotIndependentError)
from teichpong.hyp2 import BoundaryPoint, Geodesic, Point
from teichpong.mcg import MappingClass, axis, min_translation
from teichpong.pingpong import (PiSet, build_certificate, certified_radius,
                                paper_radius_bound, pi_membership, power_bound,
                                sample_box_points, verify_pingpong)
from teichpong.projection import model_constants, projection_interval
from teichpong.serialize import certificate_document

VERTICAL = Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.infinity(), Point(0.0, 1.0))


def conjugated(m, k):
    return m.conjugated_by(MappingClass(1, k, 0, 1))


class TestPiMembership:
    def test_beyond_radius(self):
        s = PiSet(VERTICAL, 1.0, 1)
        assert pi_membership(s, VERTICAL.point_at(2.0))

    def test_origin_in_neither(self):
        z = VERTICAL.point_at(0.0)
        assert not pi_membership(PiSet(VERTICAL, 1.0, 1), z)
        assert not pi_membership(PiSet(VERTICAL, 1.0, -1), z)

    def test_off_axis_point(self):
        # the projection parameter of 3 + 4i is log(5)/2, above 0.7
        s = PiSet(VERTICAL, 0.7, 1)
        assert pi_membership(s, Point(3, 4))

    def test_radius_positive(self):
        with pytest.raises(InvalidInputError):
            PiSet(VERTICAL, 0.0, 1)


class TestCertifiedRadius:
    def test_standard_pair_small(self):
        b = model_constants().b
        r = certified_radius([PHI, PSI])
        assert 0 < r <= b

    def test_intervals_within_bound(self):
        b = model_constants().b
        r = certified_radius([PHI, PSI])
        c1, c2 = axis(PHI).axis, axis(PSI).axis
        for tgt, src in ((c1, c2), (c2, c1)):
            lo, hi = projection_interval(tgt, src)
            assert max(abs(lo), abs(hi)) < r + 4 * b
            assert hi - lo <= 2 * (r + 4 * b)

    def test_monotone_under_separation(self):
        values = [certified_radius([PHI, conjugated(PHI, k)]) for k in (1, 4, 16)]
        assert values[0] >= values[1] >= values[2] > 0

    def test_rejects_dependent(self):
        with pytest.raises(NotIndependentError):
            certified_radius([PHI, PHI ** 3])

    def test_needs_two(self):
        with pytest.raises(InvalidInputError):
            certified_radius([PHI])


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
        witness = [c for c in cert.verification["checks"]
                   if c["name"] == "table-witness-disjointness"]
        assert witness and witness[0]["passed"]

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
