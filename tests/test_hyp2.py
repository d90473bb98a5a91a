import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import geodesic_through, transport
from teichpong.errors import DegenerateInputError, InvalidInputError
from teichpong.hyp2 import BoundaryPoint, Geodesic, Mobius, Point, dist, dist_to_geodesic
from teichpong.mcg import MappingClass, axis


def vertical_axis(y0=1.0):
    return Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.infinity(), Point(0.0, y0))


points = st.builds(
    Point,
    st.floats(-30.0, 30.0),
    st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
)


@st.composite
def mobius_maps(draw):
    # the product of a shear, a scaling and a shear, always determinant one:
    # (1 x; 0 1)(r 0; 0 1/r)(1 0; c 1)
    x = draw(st.floats(-3.0, 3.0))
    log_s = draw(st.floats(-1.5, 1.5))
    c = draw(st.floats(-2.0, 2.0))
    r = math.exp(0.5 * log_s)
    return Mobius(r + x * c / r, x / r, c / r, 1.0 / r)


class TestDist:
    def test_vertical_pair(self):
        assert dist(Point(0, 1), Point(0, 2)) == pytest.approx(0.5 * math.log(2), abs=1e-15)

    def test_identity_case(self):
        assert dist(Point(3, 0.7), Point(3, 0.7)) == 0.0

    def test_horizontal_pair(self):
        # oracle: half of arccosh(1 + |z-w|^2 / (2 y1 y2))
        expected = 0.5 * math.acosh(1.0 + 1.0 / 2.0)
        assert dist(Point(0, 1), Point(1, 1)) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("z, w, expected", [
        # |z - w| / (2 sqrt(y1 y2)) = 1 / y: the heights' product underflows
        ((1.0, 5e-324), (-1.0, 5e-324), math.log(2.0) - math.log(5e-324)),
        # |z - w| = 1.5e308 sqrt(2) overflows
        ((1e308, 1.5e308), (-0.5e308, 1.0),
         math.log(1.5e308) + 0.5 * math.log(2.0) - 0.5 * math.log(1.5e308)),
        # x1 - x2 = 3.4e308 is inf in floats; |z - w| = sqrt(5) 1.7e308
        ((1.7e308, 1.7e308), (-1.7e308, 5e-324),
         0.5 * (math.log(1.7e308) + math.log(5.0) - math.log(5e-324))),
    ], ids=["heights-underflow", "offset-overflows", "difference-overflows"])
    def test_beyond_float_range(self, z, w, expected):
        assert dist(Point(*z), Point(*w)) == pytest.approx(expected, rel=1e-14)
        assert dist(Point(0.0, 5e-324), Point(0.0, 5e-324)) == 0.0

    def test_rejects_bad_points(self):
        with pytest.raises(InvalidInputError):
            Point(0.0, 0.0)
        with pytest.raises(InvalidInputError):
            Point(math.inf, 1.0)

    @given(points, points, mobius_maps())
    @settings(max_examples=200, deadline=None)
    def test_isometry_invariance(self, z, w, m):
        assert dist(m.apply(z), m.apply(w)) == pytest.approx(dist(z, w), abs=1e-10)

    @given(points, points, points)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10


class TestMobius:
    def test_identity(self):
        assert Mobius(1.0, 0.0, 0.0, 1.0).apply(Point(0.3, 0.8)) == Point(0.3, 0.8)

    def test_integer_action(self):
        # oracle: (2i + 1) / (i + 1) by complex division
        expected = (2j + 1) / (1j + 1)
        got = Mobius(2, 1, 1, 1).apply(Point(0, 1))
        assert got.z == pytest.approx(expected, abs=1e-15)

    def test_diagonal_scaling(self):
        r = math.sqrt(2.0)
        m = Mobius(r, 0.0, 0.0, 1.0 / r)
        z = Point(0.3, 0.8)
        assert m.apply(z).z == pytest.approx(2.0 * z.z, abs=1e-14)

    def test_determinant_enforced(self):
        with pytest.raises(InvalidInputError):
            Mobius(2.0, 0.0, 0.0, 1.0)

    def test_determinant_tolerance_scales_with_entries(self):
        # the chart of the axis of 108579,-175681,67105,-108576, whose
        # endpoints are 3e-5 apart: ad and bc near 5e4 round by about 1e-11
        m = Mobius(280.3008200329428, 280.2950475199352, 173.23472032424095, 173.23472032539533)
        assert abs(m.a * m.d - m.b * m.c - 1.0) > 1e-12
        for bad in ((2, 0, 0, 1), (1e5, 0.0, 0.0, 1.0001e-5), (math.inf, 0.0, 0.0, 1.0)):
            with pytest.raises(InvalidInputError):
                Mobius(*bad)

    def test_compose_inverse(self):
        m = Mobius.from_det_positive(2.0, 1.0, 1.0, 1.0)
        for z in (Point(0.0, 1.0), Point(-3.0, 0.25), Point(7.0, 40.0)):
            assert m.apply(m.inverse().apply(z)).z == pytest.approx(z.z, rel=1e-12)
            assert m.inverse().apply(m.apply(z)).z == pytest.approx(z.z, rel=1e-12)


class TestGeodesicThrough:
    def test_vertical(self):
        c = geodesic_through(Point(0, 1), Point(0, 2))
        assert c.endpoint_neg == BoundaryPoint.finite(0.0)
        assert c.endpoint_pos.infinite

    def test_circle(self):
        # oracle: the circle centered on the real axis through both points
        z, w = Point(0, 1), Point(1, 1)
        center = (abs(z.z) ** 2 - abs(w.z) ** 2) / (2 * (z.x - w.x))
        radius = abs(z.z - center)
        c = geodesic_through(z, w)
        assert c.endpoint_neg.value == pytest.approx(center - radius, abs=1e-12)
        assert c.endpoint_pos.value == pytest.approx(center + radius, abs=1e-12)
        assert c.endpoint_pos.value == pytest.approx(0.5 + math.sqrt(5) / 2, abs=1e-12)

    def test_mirror_symmetry(self):
        c1 = geodesic_through(Point(0, 1), Point(1, 1))
        c2 = geodesic_through(Point(0, 1), Point(-1, 1))
        assert c1.endpoint_pos.value == pytest.approx(-c2.endpoint_pos.value, abs=1e-12)
        assert c1.endpoint_neg.value == pytest.approx(-c2.endpoint_neg.value, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            geodesic_through(Point(0, 1), Point(0, 1))
        with pytest.raises(DegenerateInputError):
            geodesic_through(Point(0, 1), Point(1e-14, 1))

    def test_tolerances_scale_with_the_points(self):
        # the points are 0.347 apart in the model metric however small they are
        z, w = Point(0, 1e-20), Point(0, 2e-20)
        c = geodesic_through(z, w)
        assert c.endpoint_neg == BoundaryPoint.finite(0.0) and c.endpoint_pos.infinite
        assert dist(z, w) == pytest.approx(0.5 * math.log(2))
        # 5e-14 across is no vertical line at heights of 1e-12
        w = Point(5e-14, 2e-12)
        c = geodesic_through(Point(0, 1e-12), w)
        assert not c.endpoint_pos.infinite and dist_to_geodesic(c, w) < 1e-12

    def test_origin_must_lie_on_geodesic(self):
        with pytest.raises(InvalidInputError):
            Geodesic(BoundaryPoint.finite(-1.0), BoundaryPoint.finite(1.0), Point(0.5, 1.0))


class TestChartCheck:
    """The origin must lie on the half circle, relative to its radius squared."""

    @pytest.mark.parametrize("r", [1e10, 1e155, 1e300])
    def test_off_circle_rejected_at_any_radius(self, r):
        with pytest.raises(InvalidInputError):
            Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.finite(r), Point(0.5 * r, 1.0))

    @pytest.mark.parametrize("r", [1e10, 1e155, 1e300])
    def test_summit_accepted_at_any_radius(self, r):
        c = Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.finite(r), Point(0.5 * r, 0.5 * r))
        assert c.chart.apply_boundary(BoundaryPoint.infinity()).value == pytest.approx(r)

    def test_offset_beyond_float_squares(self):
        # (x0 - center)^2 overflows; within radius^2 * TOL of the circle
        c = Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.finite(1e160), Point(1e100, 1.0))
        assert c.chart.apply_boundary(BoundaryPoint.finite(0.0)).value == 0.0
        assert c.chart.apply_boundary(BoundaryPoint.infinity()).value == pytest.approx(1e160)

    def test_small_radius_unchanged(self):
        assert Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.finite(2.0), Point(1.0, 1.0))
        with pytest.raises(InvalidInputError):
            Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.finite(2.0), Point(1.0, 1.0 + 1e-6))
        with pytest.raises(InvalidInputError):
            Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.finite(1.0), Point(0.5, 0.6))


    @pytest.mark.parametrize("x0", [1e200, -1e200, 3.0])
    def test_far_origin_small_radius(self, x0):
        # (x0 - center)^2 once raised OverflowError for a radius <= 1
        with pytest.raises(InvalidInputError, match="origin is not on the geodesic"):
            Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.finite(1.0), Point(x0, 1.0))

    @pytest.mark.parametrize("y0", [1e-12, 1e-5])
    @pytest.mark.parametrize("p, q", [(0.0, 1.0), (1.0, 0.0)])
    def test_origin_over_an_endpoint(self, p, q, y0):
        # within TOL of the circle, but right above an endpoint (x0 - p once divided by zero)
        for x0 in (p, q):
            with pytest.raises(InvalidInputError, match="origin is not between the endpoints"):
                Geodesic(BoundaryPoint.finite(p), BoundaryPoint.finite(q), Point(x0, y0))


class TestPointAt:
    def test_origin(self):
        assert vertical_axis().point_at(0.0).z == pytest.approx(1j, abs=1e-15)

    def test_exponential_climb(self):
        got = vertical_axis().point_at(0.5 * math.log(2))
        assert got.z == pytest.approx(2j, abs=1e-14)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_unit_speed(self, s, t):
        c = geodesic_through(Point(0, 1), Point(1, 1))
        assert dist(c.point_at(s), c.point_at(t)) == pytest.approx(abs(s - t), abs=1e-9)

    @given(mobius_maps(), st.floats(-2, 2))
    @settings(max_examples=150, deadline=None)
    def test_mobius_transport(self, m, t):
        c = geodesic_through(Point(0, 1), Point(1, 1))
        moved = transport(m, c)
        assert moved.point_at(t).z == pytest.approx(m.apply(c.point_at(t)).z, abs=1e-8)

    def test_reversal_negates_parameters(self):
        c = geodesic_through(Point(0, 1), Point(1, 1))
        r = Geodesic(c.endpoint_pos, c.endpoint_neg, c.origin)
        for t in (-1.3, 0.0, 0.4):
            assert r.point_at(t).z == pytest.approx(c.point_at(-t).z, abs=1e-10)

    def test_downward_vertical(self):
        c = geodesic_through(Point(0, 2), Point(0, 1))
        assert c.endpoint_neg.infinite
        assert c.endpoint_pos.value == pytest.approx(0.0)
        assert c.point_at(0.5 * math.log(2)).z == pytest.approx(1j, abs=1e-14)
        assert c.param_of(Point(3, 4)) == pytest.approx(
            -0.5 * math.log(5) + 0.5 * math.log(2), abs=1e-12)


class TestProject:
    """The nearest point of c to z is c.point_at(c.param_of(z))."""

    def test_vertical_foot(self):
        c = vertical_axis()
        t = c.param_of(Point(3, 4))
        assert c.point_at(t).z == pytest.approx(5j, abs=1e-12)
        assert t == pytest.approx(0.5 * math.log(5), abs=1e-12)

    def test_point_on_geodesic(self):
        c = geodesic_through(Point(0, 1), Point(1, 1))
        z = c.point_at(0.7)
        assert c.param_of(z) == pytest.approx(0.7, abs=1e-12)
        assert dist(c.point_at(c.param_of(z)), z) < 1e-9

    def test_foot_minimizes_numerically(self):
        # independent oracle: dense minimization over the parameter
        c = vertical_axis()
        z = Point(3, 4)
        t = c.param_of(z)
        ts = np.linspace(t - 2, t + 2, 4001)
        best = min(dist(z, c.point_at(s)) for s in ts)
        assert dist(z, c.point_at(t)) <= best + 1e-9

    @given(mobius_maps(), points)
    @settings(max_examples=150, deadline=None)
    def test_equivariance(self, m, z):
        c = geodesic_through(Point(0, 1), Point(1, 1))
        t_before = c.param_of(z)
        t_after = transport(m, c).param_of(m.apply(z))
        assert t_after == pytest.approx(t_before, abs=1e-9)

    @given(points, points)
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_lipschitz(self, z, w):
        c = geodesic_through(Point(0, 1), Point(1, 1))
        tz = c.param_of(z)
        fz, fw = c.point_at(tz), c.point_at(c.param_of(w))
        assert c.param_of(fz) == pytest.approx(tz, abs=1e-9)
        assert dist(fz, fw) <= dist(z, w) + 1e-9


class TestDistToGeodesic:
    def test_unit_offset(self):
        expected = 0.5 * math.asinh(1.0)
        assert dist_to_geodesic(vertical_axis(), Point(1, 1)) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.5 * math.log(1 + math.sqrt(2)), abs=1e-15)

    def test_zero_on_geodesic(self):
        assert dist_to_geodesic(vertical_axis(), Point(0, 7)) == pytest.approx(0.0, abs=1e-12)

    @given(mobius_maps(), points)
    @settings(max_examples=150, deadline=None)
    def test_mobius_invariance(self, m, z):
        c = geodesic_through(Point(0, 1), Point(1, 1))
        before = dist_to_geodesic(c, z)
        after = dist_to_geodesic(transport(m, c), m.apply(z))
        assert after == pytest.approx(before, abs=1e-9)

    @pytest.mark.parametrize("x", [2.0 ** 27, math.nextafter(2.0 ** 27, math.inf), 1e300])
    def test_far_from_a_vertical_axis(self, x):
        # past |Re w| / Im w = 2^27 the distance is a difference of logarithms
        expected = 0.5 * math.asinh(x)
        assert dist_to_geodesic(vertical_axis(), Point(x, 1.0)) == pytest.approx(expected,
                                                                                  rel=1e-15)

    def test_ratio_beyond_float_range(self):
        # |Re w| / Im w = 1e600 overflows
        expected = 0.5 * (math.log(2.0) + 600.0 * math.log(10.0))
        assert dist_to_geodesic(vertical_axis(), Point(1e300, 1e-300)) == pytest.approx(
            expected, rel=1e-15)

    # the standard pair's axes: from about t = -359, |Re w| / Im w overflows
    @pytest.mark.parametrize("t, expected", [(-360.0, 359.647822312), (-359.0, 358.647822312),
                                             (-355.0, 354.647822312)])
    def test_far_along_another_axis(self, t, expected):
        c1, c2 = axis(MappingClass(2, 1, 1, 1)).axis, axis(MappingClass(1, 1, 1, 2)).axis
        assert dist_to_geodesic(c2, c1.point_at(t)) == pytest.approx(expected, abs=1e-9)

    def test_matches_projection_distance(self):
        c = geodesic_through(Point(0, 1), Point(1, 1))
        z = Point(-2, 0.5)
        foot = c.point_at(c.param_of(z))
        assert dist_to_geodesic(c, z) == pytest.approx(dist(z, foot), abs=1e-12)
