import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import PHI, PSI, random_pseudo_anosov
from teichpong.errors import ClassificationError, InvalidInputError
from teichpong.hyp2 import BoundaryPoint, Point, dist, project
from teichpong.mcg import (Classification, MappingClass, axis, classify,
                           fixed_slope_test, independent, min_translation,
                           translation_distance)
from teichpong.torus_model import Slope

GOLDEN = (1 + math.sqrt(5)) / 2


class TestMappingClass:
    def test_determinant_enforced(self):
        with pytest.raises(InvalidInputError):
            MappingClass(1, 0, 0, 2)

    def test_canonical_sign(self):
        assert MappingClass(-2, -1, -1, -1) == MappingClass(2, 1, 1, 1)
        assert MappingClass(0, -1, 1, 0) == MappingClass(0, 1, -1, 0)

    def test_arbitrary_precision(self):
        big = MappingClass(1, 10 ** 40, 0, 1)
        assert (big * big).b == 2 * 10 ** 40

    def test_pow_and_inverse(self):
        m = PHI
        assert (m ** 3) == m * m * m
        assert (m ** -2) == (m.inverse()) ** 2
        assert (m * m.inverse()).is_projective_identity()

    def test_parse(self):
        assert MappingClass.from_string("2,1,1,1") == PHI
        with pytest.raises(InvalidInputError):
            MappingClass.from_string("2,1,1")
        with pytest.raises(InvalidInputError):
            MappingClass.from_string("a,b,c,d")


class TestClassify:
    def test_trace_three(self):
        assert classify(PHI) is Classification.PSEUDO_ANOSOV

    def test_parabolic(self):
        assert classify(MappingClass(1, 1, 0, 1)) is Classification.PARABOLIC

    def test_elliptic(self):
        assert classify(MappingClass(0, -1, 1, 0)) is Classification.ELLIPTIC

    def test_sign_flip_invariance(self):
        assert classify(MappingClass(-1, -1, -1, -2)) is Classification.PSEUDO_ANOSOV


class TestAxis:
    def test_golden_endpoints(self):
        ax = axis(PHI)
        assert ax.attracting.value == pytest.approx(GOLDEN, abs=1e-12)
        assert ax.repelling.value == pytest.approx(1 - GOLDEN, abs=1e-12)
        # attracting endpoint carries the expanding eigenvalue: |c x + d| > 1
        assert abs(1 * ax.attracting.value + 1) > 1
        assert abs(1 * ax.repelling.value + 1) < 1

    def test_psi_endpoints(self):
        ax = axis(PSI)
        assert sorted([ax.attracting.value, ax.repelling.value]) == pytest.approx(
            [(-1 - math.sqrt(5)) / 2, (-1 + math.sqrt(5)) / 2], abs=1e-12
        )

    def test_inverse_swaps_ends(self):
        ax = axis(PHI)
        ax_inv = axis(PHI.inverse())
        assert ax_inv.attracting.value == pytest.approx(ax.repelling.value, abs=1e-12)
        assert ax_inv.repelling.value == pytest.approx(ax.attracting.value, abs=1e-12)

    def test_rejects_parabolic(self):
        with pytest.raises(ClassificationError):
            axis(MappingClass(1, 1, 0, 1))

    def test_endpoints_solve_fixed_quadratic(self, rng):
        for _ in range(25):
            m = random_pseudo_anosov(rng)
            ax = axis(m)
            for x in (ax.attracting.value, ax.repelling.value):
                assert m.c * x * x + (m.d - m.a) * x - m.b == pytest.approx(0.0, abs=1e-6 * max(1, abs(m.c)))

    def test_translation_realized_on_axis(self, rng):
        for _ in range(20):
            m = random_pseudo_anosov(rng)
            ax = axis(m)
            tr = translation_distance(m)
            for t in (-1.0, 0.0, 0.6):
                z = ax.axis.point_at(t)
                assert dist(z, m.apply(z)) == pytest.approx(tr, abs=1e-9)

    def test_off_axis_displacement_is_larger(self, rng):
        for _ in range(20):
            m = random_pseudo_anosov(rng)
            tr = translation_distance(m)
            z = Point(float(rng.uniform(-3, 3)), float(np.exp(rng.uniform(-1, 2))))
            assert dist(z, m.apply(z)) >= tr - 1e-9

    def test_translates_own_axis_by_tr(self, rng):
        for _ in range(15):
            m = random_pseudo_anosov(rng)
            ax = axis(m)
            tr = translation_distance(m)
            for t in (-0.8, 0.3):
                moved = m.apply(ax.axis.point_at(t))
                assert project(ax.axis, moved).t == pytest.approx(t + tr, abs=1e-9)

    @pytest.mark.parametrize("t", [3, 10 ** 6, 2 ** 100, 2 ** 510],
                             ids=["3", "10^6", "2^100", "2^510"])
    def test_bits_kept_below_the_huge_trace_bound(self, t):
        disc = math.sqrt(float(t * t - 4))
        ax = axis(MappingClass(t, -1, 1, 0))
        assert ax.attracting.value == (t + disc) / 2.0
        assert ax.repelling.value == (t - disc) / 2.0
        assert ax.dilatation == (float(t) + disc) / 2.0

    @pytest.mark.parametrize("t", [2 ** 511, 10 ** 155, 10 ** 300],
                             ids=["2^511", "10^155", "10^300"])
    @pytest.mark.parametrize("flip", [False, True], ids=["a>d", "a<d"])
    def test_huge_trace_endpoints(self, t, flip):
        # the roots of x^2 - t x + 1 are t - 1/t - ... and 1/t + 1/t^3 + ...
        m = MappingClass(0, 1, -1, t) if flip else MappingClass(t, -1, 1, 0)
        ax = axis(m)
        big = Fraction(t) - Fraction(1, t) - Fraction(1, t ** 3)
        small = Fraction(1, t) + Fraction(1, t ** 3)
        ends = (ax.repelling.value, ax.attracting.value) if flip else (
            ax.attracting.value, ax.repelling.value)
        for got, want in zip(ends, (big, small)):
            assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 12) * want

    @pytest.mark.parametrize("t", [2 ** 511, 10 ** 155, 10 ** 300],
                             ids=["2^511", "10^155", "10^300"])
    def test_huge_trace_chart(self, t):
        ax = axis(MappingClass(t, -1, 1, 0))
        chart = ax.axis.chart
        assert chart.apply_boundary(BoundaryPoint.finite(0.0)).value == pytest.approx(
            ax.repelling.value, rel=1e-12)
        assert chart.apply_boundary(BoundaryPoint.infinity()).value == pytest.approx(
            ax.attracting.value, rel=1e-12)
        summit = chart.apply(Point(0.0, 1.0))
        assert (summit.x, summit.y) == pytest.approx(
            (ax.axis.origin.x, ax.axis.origin.y), rel=1e-12)

    def test_entries_beyond_float_range(self):
        with pytest.raises(InvalidInputError):
            axis(MappingClass(10 ** 400, -1, 1, 0))

    def test_root_beyond_float_range(self):
        # every entry converts, but 2c and then both roots overflow at 10^308
        with pytest.raises(InvalidInputError, match="^matrix entries are beyond float range$"):
            axis(MappingClass(10 ** 308 + 1, 1, 10 ** 308, 1))
        ax = axis(MappingClass(10 ** 307 + 1, 1, 10 ** 307, 1))
        assert (ax.repelling.value, ax.attracting.value) == pytest.approx((-1e-307, 1.0))


class TestTranslationDistance:
    def test_trace_three_value(self):
        assert translation_distance(PHI) == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-14)

    def test_square_doubles(self, rng):
        for _ in range(100):
            m = random_pseudo_anosov(rng)
            assert translation_distance(m * m) == pytest.approx(2 * translation_distance(m), abs=1e-10)

    def test_conjugation_invariant(self, rng):
        g = MappingClass(1, 1, 0, 1)
        for _ in range(100):
            m = random_pseudo_anosov(rng)
            assert translation_distance(m.conjugated_by(g)) == pytest.approx(
                translation_distance(m), abs=1e-10
            )

    @pytest.mark.parametrize("t", [3, 10 ** 6, 2 ** 100, 2 ** 510],
                             ids=["3", "10^6", "2^100", "2^510"])
    def test_bits_kept_below_the_huge_trace_bound(self, t):
        old = math.log((t + math.sqrt(float(t * t - 4))) / 2.0)
        assert translation_distance(MappingClass(t, -1, 1, 0)) == old

    @pytest.mark.parametrize("t", [2 ** 511, 10 ** 155, 10 ** 400],
                             ids=["2^511", "10^155", "10^400"])
    def test_huge_trace(self, t):
        assert translation_distance(MappingClass(t, -1, 1, 0)) == math.log(t)


class TestMinTranslation:
    def test_value(self):
        assert min_translation() == pytest.approx(0.9624236501192069, abs=1e-12)

    def test_trace_three_witness(self):
        assert translation_distance(PHI) == pytest.approx(min_translation(), abs=1e-14)

    def test_lower_bounds_random_sample(self, rng):
        for _ in range(100):
            m = random_pseudo_anosov(rng, max_trace=200)
            assert translation_distance(m) >= min_translation() - 1e-12


class TestIndependent:
    def test_common_power(self):
        assert independent(PHI, PHI ** 2) is False

    def test_standard_pair(self):
        assert independent(PHI, PSI) is True

    def test_conjugate_pair(self):
        g = MappingClass(1, 1, 0, 1)
        assert independent(PHI, PHI.conjugated_by(g)) is True

    def test_rejects_parabolic(self):
        with pytest.raises(ClassificationError):
            independent(PHI, MappingClass(1, 1, 0, 1))

    def test_dependent_pairs_share_both_endpoints(self, rng):
        for _ in range(20):
            m = random_pseudo_anosov(rng)
            k = int(rng.integers(2, 4))
            assert independent(m, m ** k) is False
            a1, a2 = axis(m), axis(m ** k)
            assert a1.attracting.value == pytest.approx(a2.attracting.value, abs=1e-9)
            assert a1.repelling.value == pytest.approx(a2.repelling.value, abs=1e-9)


class TestFixedSlope:
    def test_horizontal_twist(self):
        assert fixed_slope_test(MappingClass(1, 1, 0, 1)) == Slope(1, 0)

    def test_vertical_twist(self):
        assert fixed_slope_test(MappingClass(1, 0, 2, 1)) == Slope(0, 1)

    def test_hyperbolic_has_none(self):
        # the eigendirection has irrational slope, so no curve is fixed
        assert fixed_slope_test(PHI) is None

    def test_elliptic_has_none(self):
        assert fixed_slope_test(MappingClass(0, -1, 1, 0)) is None

    def test_identity_rejected(self):
        with pytest.raises(InvalidInputError):
            fixed_slope_test(MappingClass.identity())

    def test_negative_trace_parabolic(self):
        m = MappingClass(-1, -1, 0, -1)  # canonical sign makes this trace -2... or +2
        slope = fixed_slope_test(m)
        assert slope == Slope(1, 0)
