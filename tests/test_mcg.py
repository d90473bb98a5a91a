import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (L_GEN, PHI, PSI, PSI_CONJUGATES, R_GEN, random_pseudo_anosov,
                      reference_axis_distance, reference_projection_interval, within_ulps)
from teichpong.errors import ClassificationError, InvalidInputError, NotIndependentError
from teichpong.hyp2 import BoundaryPoint, Point, dist
from teichpong.mcg import (Classification, MappingClass, _quarter_log_ratio, axis,
                           axis_distance, classify, fixed_slope_test, independent,
                           min_translation, pair_invariant, projection_interval,
                           translation_distance)
from teichpong.projection import common_perpendicular_distance
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
                assert ax.axis.param_of(moved) == pytest.approx(t + tr, abs=1e-9)

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

    def test_rounds_down(self):
        # the float just below log((3 + sqrt 5)/2), so N l_min > 2R + 12b
        # holds for the true l_min
        with localcontext() as ctx:
            ctx.prec = 60
            true = ((3 + Decimal(5).sqrt()) / 2).ln()
        assert Decimal(min_translation()) < true < Decimal(math.nextafter(min_translation(), 2.0))

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


def _entries_product(x, y):
    """The 2x2 product of entry tuples, with no canonical sign."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def commutator_trace(m1, m2):
    """tr[m1, m2], which does not depend on the signs of m1 and m2."""
    a, b = m1.entries(), m2.entries()
    a_inv, b_inv = (a[3], -a[1], -a[2], a[0]), (b[3], -b[1], -b[2], b[0])
    c = _entries_product(_entries_product(a, b), _entries_product(a_inv, b_inv))
    return c[0] + c[3]


def share_fixed_point(m1, m2):
    """The resultant of the fixed-point quadratics c x^2 + (d - a) x - b
    vanishes iff they share a root."""
    a1, b1, c1 = m1.c, m1.d - m1.a, -m1.b
    a2, b2, c2 = m2.c, m2.d - m2.a, -m2.b
    return (a1 * c2 - a2 * c1) ** 2 == (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1)


class TestIndependenceFromTheInvariant:
    """independent forms the commutator only when k^2 = Q, which is exact by
    k^2 - Q = 4 (tr[m1, m2] - 2)."""

    def pairs(self, rng):
        pairs = [(random_pseudo_anosov(rng), random_pseudo_anosov(rng)) for _ in range(200)]
        for _ in range(20):
            m = random_pseudo_anosov(rng)
            pairs += [(m ** i, m ** j) for i in (-2, 1, 3) for j in (-1, 2)]
        odd = MappingClass(1, 2, -3, -5)  # trace -4
        return pairs + [(odd, PHI), (odd, odd ** 2), (odd.inverse(), odd ** 3), (PHI, PSI)]

    def test_identity(self, rng):
        for m1, m2 in self.pairs(rng):
            k, Q = pair_invariant(m1, m2)
            assert k * k - Q == 4 * (commutator_trace(m1, m2) - 2), (m1, m2)

    def test_matches_the_resultant(self, rng):
        dependent = 0
        for m1, m2 in self.pairs(rng):
            assert independent(m1, m2) is not share_fixed_point(m1, m2), (m1, m2)
            dependent += not independent(m1, m2)
        assert dependent >= 120


def perfbench_families(count, n=2):
    """perfbench's seeded random_family families of n classes, seeds 0 to count - 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import random_family
    finally:
        del sys.path[0]
    return [[MappingClass(*m) for m in random_family(random.Random(seed), n)]
            for seed in range(count)]


class TestPairInvariant:
    """Crossing and D from the integer pair invariant, against the float
    chart of the first axis and a 50-digit reference."""

    def test_agrees_with_the_chart(self):
        disjoint = 0
        for m1, m2 in perfbench_families(300) + [[PHI, c] for c in PSI_CONJUGATES]:
            k, Q = pair_invariant(m1, m2)
            D = axis_distance(k, Q)
            c1, c2 = axis(m1).axis, axis(m2).axis
            inv = c1.chart.inverse()
            p, q = (inv.apply_boundary(x).value for x in (c2.endpoint_neg, c2.endpoint_pos))
            assert (k * k < Q) == (p * q < 0.0), (m1, m2)
            if k * k < Q:
                assert D == 0.0
                continue
            disjoint += 1
            assert D == pytest.approx(common_perpendicular_distance(c1, c2), rel=1e-9), (m1, m2)
            assert within_ulps(D, reference_axis_distance(k, Q)), (m1, m2)
        assert disjoint >= 100

    def test_huge_conjugate(self):
        # entries near 10^400: the chart is beyond float range, and k^2 / Q overflows
        k, Q = pair_invariant(PHI, PSI.conjugated_by(L_GEN ** 10 ** 200))
        D = axis_distance(k, Q)
        assert D == pytest.approx(460.4054468231520, abs=1e-12)
        assert within_ulps(D, reference_axis_distance(k, Q))


def closed_form_integers(target, source):
    """(u, v, Delta, c) of projection_interval's docstring, traces made positive."""
    (a, b, c, d), (a2, b2, c2, d2) = ([e if m.trace > 0 else -e for e in m.entries()]
                                      for m in (target, source))
    A, A2, delta = a - d, a2 - d2, (a + d) ** 2 - 4
    return c2 * (A * A + delta) - 2 * c * A * A2 - 4 * c * c * b2, 2 * (c2 * A - c * A2), delta, c


class TestProjectionIntervalClosedForm:
    """mcg.projection_interval against a decimal reference, its integer
    identity, and dependent input."""

    @staticmethod
    def ordered_pairs():
        families = perfbench_families(60) + perfbench_families(20, 3)
        pairs = [(f[i], f[j]) for f in families for i in range(len(f)) for j in range(len(f))
                 if i != j]
        narrow = [L_GEN ** k * R_GEN for k in (10 ** 5, 3 * 10 ** 5, 10 ** 6)]
        narrow.append(PSI.conjugated_by(PHI ** 300))
        return pairs + [p for m in narrow for p in ((PHI, m), (m, PHI), (PSI, m), (m, PSI))]

    def test_matches_the_decimal_reference(self):
        # the docstring's bound: each end within 2^-50 max(1, |lo|, |hi|)
        for target, source in self.ordered_pairs():
            ends = projection_interval(target, source)
            bound = Decimal(2.0 ** -50 * max(1.0, *map(abs, ends)))
            for end, true in zip(ends, reference_projection_interval(target, source)):
                assert abs(Decimal(end) - true) <= bound, (target, source, end, true)

    def test_integer_identity(self, rng):
        # u^2 - v^2 Delta = 4 c^2 (k^2 - Q), on seeded pairs of either trace sign
        odd = MappingClass(1, 2, -3, -5)  # trace -4
        pairs = [(random_pseudo_anosov(rng), random_pseudo_anosov(rng)) for _ in range(600)]
        for m1, m2 in pairs + [(odd, PHI), (PSI, odd), (odd.inverse(), PSI)]:
            u, v, delta, c = closed_form_integers(m1, m2)
            k, Q = pair_invariant(m1, m2)
            assert u * u - v * v * delta == 4 * c * c * (k * k - Q), (m1, m2)

    @pytest.mark.parametrize("source", [PHI, PHI ** 2, PHI.inverse() ** 3],
                             ids=["phi", "phi^2", "phi^-3"])
    def test_dependent_input(self, source):
        with pytest.raises(NotIndependentError) as exc:
            projection_interval(PHI, source)
        assert type(exc.value) is NotIndependentError

    @pytest.mark.parametrize("n", [1, 10, 600])
    def test_pell_units(self, n):
        # x + y sqrt 2 = (3 + 2 sqrt 2)^n has x^2 - 2y^2 = 1, so the ratio is
        # (x + y sqrt 2)^2 and its quarter log is n/2 log(3 + 2 sqrt 2); at
        # n = 600, 1/x^2 is below the floats
        x, y = 1, 0
        for _ in range(n):
            x, y = 3 * x + 4 * y, 2 * x + 3 * y
        with localcontext() as ctx:
            ctx.prec = 60
            true = n * (3 + 2 * Decimal(2).sqrt()).ln() / 2
        for sx, sy, sign in ((x, y, 1), (-x, -y, 1), (x, -y, -1)):
            value = _quarter_log_ratio(sx, sy, 2)
            assert abs(Decimal(value) - sign * true) <= Decimal(2.0 ** -50) * true


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
