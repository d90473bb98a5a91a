import math

import numpy as np
import pytest

from conftest import PHI, PSI, geodesic_through, random_independent_pair
from teichpong.errors import (ConstantDerivationError, HorizonExceededError,
                              InvalidInputError, NotIndependentError)
from teichpong.hyp2 import BoundaryPoint, Geodesic, Point, dist, dist_to_geodesic
from teichpong.mcg import MappingClass, axis, pair_invariant, projection_interval
from teichpong.projection import (HORIZON, THRESHOLD_MARGIN, Thresholds,
                                  _level_refutes, common_perpendicular_distance,
                                  derive_contraction_b, derive_morse,
                                  divergence_profile,
                                  fast_divergence_thresholds, model_constants,
                                  pair_geometry, profile_csv)

VERTICAL = Geodesic(BoundaryPoint.finite(0.0), BoundaryPoint.infinity(), Point(0.0, 1.0))


def touching_ball_projection_diameter(c: Geodesic, x: Point) -> float:
    """Diameter of the projection onto c of the ball around x of radius d(x, c).

    In the chart the ball is a Euclidean disk tangent to the axis; its
    projection spans parameters [log(|C| - r)/2, log(|C| + r)/2] where C and
    r are the Euclidean center and radius, which collapses to
    asinh(|cos arg w|) for the normalized point w.
    """
    w = c.chart.inverse().apply_complex(x.z)
    return math.asinh(abs(w.real) / abs(w))


def conjugated(m, k):
    g = MappingClass(1, k, 0, 1)
    return m.conjugated_by(g)


class TestContraction:
    def test_on_axis_diameter_zero(self):
        assert touching_ball_projection_diameter(VERTICAL, Point(0.0, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_dense_ball_boundary(self):
        # sample the boundary circle of the ball B(x, d(x, axis)) densely and
        # take each point's projection parameter; their spread must match the closed form
        x = Point(math.cos(math.pi / 4), math.sin(math.pi / 4))
        radius = dist_to_geodesic(VERTICAL, x)
        # Euclidean data of the metric ball (radius doubles in the plane metric)
        center_y = x.y * math.cosh(2 * radius)
        r_eucl = x.y * math.sinh(2 * radius)
        angles = np.linspace(0, 2 * math.pi, 20000, endpoint=False)
        params = [
            VERTICAL.param_of(Point(x.x + r_eucl * math.cos(a), center_y + r_eucl * math.sin(a)))
            for a in angles
        ]
        sampled = max(params) - min(params)
        closed = touching_ball_projection_diameter(VERTICAL, x)
        assert closed == pytest.approx(math.asinh(math.cos(math.pi / 4)), abs=1e-12)
        assert sampled == pytest.approx(closed, abs=1e-6)

    def test_derived_bound_covers_random_configurations(self, rng):
        b = derive_contraction_b()
        for _ in range(2000):
            p, q = np.tan(rng.uniform(-1.5, 1.5, 2))
            if abs(p - q) < 1e-3:
                continue
            c = Geodesic(BoundaryPoint.finite(p), BoundaryPoint.finite(q),
                         Point(0.5 * (p + q), 0.5 * abs(q - p)))
            z = Point(float(rng.uniform(-10, 10)), float(np.exp(rng.uniform(math.log(0.05), math.log(10)))))
            assert touching_ball_projection_diameter(c, z) <= b

    def test_margin_over_supremum(self):
        # the supremum of the family is asinh(1); the derived value sits above it
        b = derive_contraction_b()
        assert math.asinh(1.0) < b < 1.1 * math.asinh(1.0)

    def test_constants_singleton(self):
        c1, c2 = model_constants(), model_constants()
        assert c1 == c2
        assert c1.delta == pytest.approx(0.5 * math.log(1 + math.sqrt(2)), abs=1e-15)


def _arclength_concat(points_lists):
    """Concatenate sampled legs into (points, params) with arclength params."""
    pts, params = [], []
    total = 0.0
    prev = None
    for leg in points_lists:
        for z in leg:
            if prev is not None:
                total += dist(prev, z)
            if prev is None or dist(prev, z) > 0:
                pts.append(z)
                params.append(total)
                prev = z
    return pts, params


def _is_quasi_geodesic(pts, params, K, kappa, n_checks=50):
    idx = np.linspace(0, len(pts) - 1, n_checks).astype(int)
    for i in idx:
        for j in idx:
            if j <= i:
                continue
            d = dist(pts[i], pts[j])
            gap = params[j] - params[i]
            if d < gap / K - kappa - 1e-9 or d > K * gap + kappa + 1e-9:
                return False
    return True


def _sampled_refutes(K, kappa, h, beta):
    """Reference: the earlier sampled decision for an excursion level, without
    its 0.05 safety gap.  It takes the maximum of the slack over 4,000
    lengths T, spaced quadratically from the cusp at T = beta, with the chord
    written as half arccosh(C^2 cosh 2 sigma - (C^2 - 1)), C = cosh 2h."""
    sech2h = 1.0 / math.cosh(2.0 * h)
    if sech2h >= 1.0 / K:
        return False
    c2 = math.cosh(2.0 * h) ** 2
    t_far = (0.5 * math.log(2.0 * c2) + kappa + 1.0) / (1.0 / K - sech2h) + beta + 1.0
    u = np.linspace(0.0, 1.0, 4000)
    T = beta + (t_far - beta) * u * u
    sig = sech2h * np.sqrt(np.maximum(T * T - beta * beta, 0.0))
    small = sig <= 12.0
    chord = sig + 0.5 * math.log(c2)
    arg = c2 * np.cosh(2.0 * sig[small]) - (c2 - 1.0)
    chord[small] = 0.5 * np.arccosh(np.maximum(arg, 1.0))
    return float(np.max(chord - T / K + kappa)) < 0.0


#: excursion levels (K, kappa, h, beta) with K <= 5 and h <= 8
LEVEL_GRID = [(K, kappa, 0.25 * i, beta)
              for K in (1.25, 2.0, 3.0, 5.0) for kappa in (0.0, 0.7, 3.0)
              for i in range(1, 33) for beta in (0.05, 0.5, 2.0, 8.0, 32.0)]


class TestLevelDecision:
    def test_refutes_wherever_the_sampler_does(self):
        refuted = {level for level in LEVEL_GRID if _level_refutes(*level)}
        assert len(refuted) > len(LEVEL_GRID) // 5
        assert [level for level in LEVEL_GRID
                if level not in refuted and _sampled_refutes(*level)] == []

    def test_dense_slack_is_negative_where_refuted(self):
        for K, kappa, h, beta in LEVEL_GRID:
            if not _level_refutes(K, kappa, h, beta):
                continue
            C = math.cosh(2.0 * h)
            T = beta + np.geomspace(1e-9, 1e7, 4001)
            with np.errstate(over="ignore", invalid="ignore"):
                g = np.arcsinh(C * np.sinh(np.sqrt(T * T - beta * beta) / C)) - T / K + kappa
            assert np.all(g[np.isfinite(g)] < 0.0), (K, kappa, h, beta)

    def test_chord_identity(self):
        C = np.cosh(2.0 * np.linspace(0.0, 4.0, 41))[:, None]
        sig = np.linspace(0.0, 12.0, 1201)[None, :]
        np.testing.assert_allclose(np.arcsinh(C * np.sinh(sig)),
                                   0.5 * np.arccosh(C * C * np.cosh(2.0 * sig) - (C * C - 1.0)),
                                   rtol=1e-12, atol=1e-12)

    def test_large_K_level_with_positive_slack_stands(self):
        # at Delta = 16, level 76 (h ~ 12.67, beta ~ 6.67) has slack +3.60 near
        # T ~ 50.9, which the cancelling chord formula refuted
        delta = 16.0
        h = delta * 76 / 96
        assert not _level_refutes(50.0, 0.0, h, 2.0 * (delta - h))
        assert derive_morse(50.0, 0.0) > delta

    def test_levels_past_the_float_range_of_cosh(self):
        # cosh(2h) overflows from h ~ 355; the chord falls as C grows, so a
        # level refuted at h = 350 stays refuted at h = 400
        for K, kappa, beta in {(K, kappa, beta) for K, kappa, _, beta in LEVEL_GRID}:
            if _level_refutes(K, kappa, 350.0, beta):
                assert _level_refutes(K, kappa, 400.0, beta), (K, kappa, beta)
        assert _level_refutes(2.0, 0.0, 400.0, 8.0)
        # Delta > 200 reaches those levels
        assert math.isfinite(derive_morse(2.0, 200.0))

    @pytest.mark.parametrize("K, kappa", [(1.0, 5e-324), (1e300, 0.0), (2.0, 1e300)])
    def test_extreme_inputs_end_in_a_value_or_derivation_error(self, K, kappa):
        try:
            M = derive_morse(K, kappa)
        except ConstantDerivationError:
            return
        assert math.isfinite(M) and M > 0.0


class TestMorse:
    def test_geodesics_are_stable(self):
        assert derive_morse(1.0, 0.0) == 0.0

    def test_monotone(self):
        assert derive_morse(2.0, 1.0) <= derive_morse(2.0, 2.0)
        assert derive_morse(1.5, 0.0) <= derive_morse(2.0, 0.0)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInputError):
            derive_morse(0.5, 0.0)
        with pytest.raises(InvalidInputError):
            derive_morse(2.0, -1.0)
        for K, kappa in ((math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan), (2.0, math.inf)):
            with pytest.raises(InvalidInputError):
                derive_morse(K, kappa)

    def test_hypercycle_family_bounds_from_below(self):
        # constant-height paths (Euclidean rays with |Re z| / Im z = sinh(2h))
        # are unit-speed (2, 0)-quasi-geodesics up to h = arccosh(2)/2 ~ 0.659
        # and stray about h from the geodesic joining their endpoints, so
        # they pin the constant from below
        h = 0.60
        slope = math.sinh(2 * h)
        feet = np.linspace(-4.0, 4.0, 400)
        pts = [Point(math.exp(2 * x) * slope, math.exp(2 * x)) for x in feet]
        params = [0.0]
        for prev, cur in zip(pts, pts[1:]):
            params.append(params[-1] + dist(prev, cur))
        assert _is_quasi_geodesic(pts, params, 2.0, 0.0)
        M = derive_morse(2.0, 0.0)
        assert M >= h
        endpoint_geo = geodesic_through(pts[0], pts[-1])
        stray = max(dist_to_geodesic(endpoint_geo, z) for z in pts)
        assert 0.5 * h <= stray <= M

    def test_sampled_concatenations_stay_inside(self):
        # three-leg paths (bridge, axis segment, return geodesic) that happen
        # to be genuine (2, D)-quasi-geodesics must stay within M of the
        # geodesic joining their endpoints
        c1, c2 = axis(PHI).axis, axis(PSI).axis
        pg = pair_geometry(PHI, PSI)
        M = derive_morse(2.0, pg.D)
        checked = 0
        for sy in np.linspace(0.4, 5.0, 8):
            for tx in np.linspace(0.4, 5.0, 8):
                x = c1.point_at(pg.t_O + tx)
                y = c2.point_at(pg.s_O + sy)
                leg_axis = [c2.point_at(pg.s_O + u * sy) for u in np.linspace(0, 1, 160)]
                back = geodesic_through(y, x)
                t_end = back.param_of(x)
                leg_back = [back.point_at(u * t_end) for u in np.linspace(0, 1, 160)]
                pts, params = _arclength_concat([leg_axis, leg_back])
                if not _is_quasi_geodesic(pts, params, 2.0, pg.D):
                    continue
                checked += 1
                endpoint_geo = geodesic_through(pts[0], x)
                stray = max(dist_to_geodesic(endpoint_geo, z) for z in pts)
                assert stray <= M
        assert checked >= 5


class TestPairGeometry:
    def test_standard_pair_crosses_at_i(self):
        pg = pair_geometry(PHI, PSI)
        assert pg.crossing
        assert pg.D == pytest.approx(0.0, abs=1e-12)
        assert pg.O.z == pytest.approx(1j, abs=1e-9)
        assert pg.O_prime.z == pytest.approx(1j, abs=1e-9)

    def test_symmetry(self):
        m2 = conjugated(PHI, 4)
        a = pair_geometry(PHI, m2)
        b = pair_geometry(m2, PHI)
        assert a.D == pytest.approx(b.D, abs=1e-9)

    def test_disjoint_matches_closed_form(self):
        m2 = conjugated(PHI, 4)
        pg = pair_geometry(PHI, m2)
        assert not pg.crossing
        oracle = common_perpendicular_distance(axis(PHI).axis, axis(m2).axis)
        assert pg.D == pytest.approx(oracle, abs=1e-9)
        assert dist(pg.O, pg.O_prime) == pytest.approx(pg.D, abs=1e-8)

    def test_feet_lie_on_axes(self):
        m2 = conjugated(PHI, 4)
        pg = pair_geometry(PHI, m2)
        assert dist_to_geodesic(axis(PHI).axis, pg.O) < 1e-9
        assert dist_to_geodesic(axis(m2).axis, pg.O_prime) < 1e-9

    def test_rejects_common_power(self):
        with pytest.raises(NotIndependentError):
            pair_geometry(PHI, PHI ** 2)


class TestProjectionInterval:
    """mcg.projection_interval, the closed form, against the float charts."""

    def test_perpendicular_crossing_is_a_point(self):
        # k = 0: the axes of phi and (1, 4, 4, 17) cross at right angles
        m2 = MappingClass(1, 4, 4, 17)
        assert pair_invariant(PHI, m2)[0] == 0
        lo, hi = projection_interval(PHI, m2)
        assert lo == hi
        c1, c2 = axis(PHI).axis, axis(m2).axis
        for s in (-3.0, 0.0, 3.0):
            assert c1.param_of(c2.point_at(s)) == pytest.approx(lo, abs=1e-9)

    def test_sampled_projections_inside(self):
        # sampled source points project inside the interval, and its ends are
        # approached from inside
        for m1, m2 in ((PHI, PSI), (PSI, PHI), (PHI, conjugated(PHI, 4)), (PSI, PHI ** 3 * PSI)):
            c1, c2 = axis(m1).axis, axis(m2).axis
            lo, hi = projection_interval(m1, m2)
            params = [c1.param_of(c2.point_at(float(s))) for s in np.linspace(-8, 8, 1000)]
            assert all(lo - 1e-9 <= t <= hi + 1e-9 for t in params)
            assert min(params) == pytest.approx(lo, abs=1e-6)
            assert max(params) == pytest.approx(hi, abs=1e-6)

    def test_identical_rejected(self):
        with pytest.raises(NotIndependentError):
            projection_interval(PHI, PHI)

    def test_shared_endpoint_unbounded(self):
        # psi conjugated by phi^k has an axis whose ends tend to phi's
        # attracting end: its interval is the k = 0 one moved by k Tr(phi),
        # finite for every k and unbounded in k
        tr = math.log((3 + math.sqrt(5)) / 2)
        lo0, hi0 = projection_interval(PHI, PSI)
        for k in (1, 10, 100, 300):
            lo, hi = projection_interval(PHI, PSI.conjugated_by(PHI ** k))
            assert lo == pytest.approx(lo0 + k * tr, abs=1e-12 * k)
            assert hi == pytest.approx(hi0 + k * tr, abs=1e-12 * k)

    def test_both_directions_bounded_for_axes(self, rng):
        for _ in range(50):
            m1, m2 = random_independent_pair(rng)
            for a, b in (projection_interval(m1, m2), projection_interval(m2, m1)):
                assert math.isfinite(a) and math.isfinite(b) and a <= b


class TestDivergenceProfile:
    def test_crossing_point_has_zero_minimum(self):
        pg = pair_geometry(PHI, PSI)
        rows = divergence_profile(PHI, PSI, pg.t_O, pg.t_O, 1.0)
        assert len(rows) == 1
        assert rows[0][2] == pytest.approx(0.0, abs=1e-6)

    def test_minimizer_matches_projection(self):
        c2 = axis(PSI).axis
        rows = divergence_profile(PHI, PSI, -2.0, 2.0, 0.5)
        c1 = axis(PHI).axis
        for t, s_star, d_min in rows:
            z = c1.point_at(t)
            assert s_star == pytest.approx(c2.param_of(z), abs=1e-6)
            assert d_min == pytest.approx(dist_to_geodesic(c2, z), abs=1e-9)

    def test_properness(self):
        rows = divergence_profile(PHI, PSI, -12.0, 12.0, 0.25)
        d = {round(t, 6): dm for t, _, dm in rows}
        ts = sorted(d)
        # eventually nondecreasing in |t| and exceeding 5
        assert max(d.values()) > 5.0
        tail = [d[t] for t in ts if t > 6]
        assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))

    def test_swap_symmetry(self):
        # the sampled distances are symmetric in the two roles, and the two
        # profiles agree at the mutual nearest-point parameters
        c1, c2 = axis(PHI).axis, axis(PSI).axis
        rows = divergence_profile(PHI, PSI, -1.0, 1.0, 0.5)
        for t, s_star, d_min in rows:
            assert dist(c2.point_at(s_star), c1.point_at(t)) == pytest.approx(d_min, abs=1e-9)
        pg = pair_geometry(PHI, PSI)
        fwd = divergence_profile(PHI, PSI, pg.t_O, pg.t_O, 1.0)[0][2]
        bwd = divergence_profile(PSI, PHI, pg.s_O, pg.s_O, 1.0)[0][2]
        assert fwd == pytest.approx(bwd, abs=1e-6)

    def test_csv_format(self):
        rows = divergence_profile(PHI, PSI, 0.0, 0.5, 0.25)
        text = profile_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "t,s_star,d_min"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_rejects_dependent(self):
        with pytest.raises(NotIndependentError):
            divergence_profile(PHI, PHI ** 2, 0, 1, 0.5)

    @pytest.mark.parametrize("t_min, t_max, step", [
        (0.0, 1.0, math.nan), (0.0, 1.0, math.inf), (-math.inf, 1.0, 0.5),
        (0.0, math.inf, 0.5), (math.nan, 1.0, 0.5), (-1e308, 1e308, 1.0),
    ])
    def test_rejects_non_finite(self, t_min, t_max, step):
        with pytest.raises(InvalidInputError):
            divergence_profile(PHI, PSI, t_min, t_max, step)

    def test_row_cap(self, monkeypatch):
        from teichpong import projection
        monkeypatch.setattr(projection, "MAX_PROFILE_ROWS", 10)
        assert len(divergence_profile(PHI, PSI, 0.0, 0.9, 0.1)) == 10
        with pytest.raises(InvalidInputError):
            divergence_profile(PHI, PSI, 0.0, 1.0, 0.1)


def _grid_thresholds(m1, m2, grid_step=0.01):
    """Reference: the grid search over every pair of offsets up to HORIZON on
    each side, or None where violations reach the horizon."""
    pg = pair_geometry(m1, m2)
    c1, c2 = axis(m1).axis, axis(m2).axis
    offsets = np.arange(1, int(round(HORIZON / grid_step)) + 1) * grid_step
    deltas = {}
    for side in (1, -1):
        z1 = c1.chart.apply_complex(1j * np.exp(2.0 * (pg.t_O + side * offsets)))
        z2 = c2.chart.apply_complex(1j * np.exp(2.0 * (pg.s_O + side * offsets)))
        dd = np.arcsinh(np.abs(z1[:, None] - z2[None, :])
                        / (2.0 * np.sqrt(z1.imag[:, None] * z2.imag[None, :])))
        viol = dd <= np.maximum(offsets[:, None], offsets[None, :])
        delta = grid_step
        if viol.any():
            ii, jj = np.nonzero(viol)
            delta = float(np.max(np.minimum(offsets[ii], offsets[jj]))) + grid_step
        if delta > HORIZON - 2.0 * grid_step:
            return None
        deltas[side] = delta
    grow = 1.0 + THRESHOLD_MARGIN
    return Thresholds(p_plus=pg.t_O + grow * deltas[1], p_minus=pg.t_O - grow * deltas[-1],
                      q_plus=pg.s_O + grow * deltas[1], q_minus=pg.s_O - grow * deltas[-1])


class TestFastDivergence:
    def test_closed_form_matches_grid(self):
        # 600 seeded pairs of positive twist words with traces up to 200
        rng = np.random.default_rng(2006)
        for _ in range(600):
            m1, m2 = random_independent_pair(rng, max_trace=200)
            expected = _grid_thresholds(m1, m2)
            if expected is None:
                with pytest.raises(HorizonExceededError):
                    fast_divergence_thresholds(m1, m2)
            else:
                assert fast_divergence_thresholds(m1, m2) == expected, (m1, m2)

    def test_standard_pair_certified(self):
        th = fast_divergence_thresholds(PHI, PSI)
        pg = pair_geometry(PHI, PSI)
        assert th.p_minus < pg.t_O < th.p_plus
        assert th.q_minus < pg.s_O < th.q_plus
        # inequality on ten thousand random parameter pairs beyond the
        # thresholds, both sides
        c1, c2 = axis(PHI).axis, axis(PSI).axis
        rng = np.random.default_rng(5)
        for sign, p_thr, q_thr in ((1, th.p_plus, th.q_plus), (-1, th.p_minus, th.q_minus)):
            for _ in range(5000):
                dt = float(rng.uniform(0.0, 6.0))
                ds = float(rng.uniform(0.0, 6.0))
                t = p_thr + sign * dt
                s = q_thr + sign * ds
                x, y = c1.point_at(t), c2.point_at(s)
                lhs = dist(x, y)
                rhs = max(abs(t - pg.t_O), abs(s - pg.s_O))
                assert lhs > rhs

    def test_narrow_conjugates_keep_the_offset(self):
        # phi^-k maps the pair (phi, phi conjugated by phi^k g) onto
        # (phi, g phi g^-1), so the offset cannot depend on k, though from
        # k = 16 the second axis's endpoints are closer than float resolution
        for g, delta in ((MappingClass(1, 1, 0, 1), 0.70), (MappingClass(1, 0, 1, 1), 0.70),
                         (MappingClass(1, 2, 0, 1), 0.01)):
            for k in range(19):
                m2 = PHI.conjugated_by(PHI ** k * g)
                for th in (fast_divergence_thresholds(PHI, m2), fast_divergence_thresholds(m2, PHI)):
                    grown = (1.0 + THRESHOLD_MARGIN) * delta
                    assert th.p_plus - th.p_minus == pytest.approx(2.0 * grown, abs=1e-9), (g, k)
                    assert th.q_plus - th.q_minus == pytest.approx(2.0 * grown, abs=1e-9), (g, k)

    def test_thresholds_strictly_positive_offsets(self):
        # at the nearest-point configuration itself the inequality fails
        # (0 > 0 is false for a crossing pair), so the offsets are positive
        pg = pair_geometry(PHI, PSI)
        th = fast_divergence_thresholds(PHI, PSI)
        assert th.p_plus > pg.t_O + 0.009
        assert th.p_minus < pg.t_O - 0.009

    def test_offsets_shrink_as_axes_separate(self):
        # far-apart axes diverge immediately, so the certified offsets
        # contract toward the grid floor as the conjugation distance grows
        offsets = []
        for k in (1, 4, 16):
            m2 = conjugated(PHI, k)
            pg = pair_geometry(PHI, m2)
            th = fast_divergence_thresholds(PHI, m2)
            offsets.append(th.p_plus - pg.t_O)
        assert offsets[0] >= offsets[1] >= offsets[2] > 0

    def test_horizon_exceeded_reported(self, monkeypatch):
        from teichpong import projection
        monkeypatch.setattr(projection, "HORIZON", 0.5)
        with pytest.raises(HorizonExceededError):
            fast_divergence_thresholds(PHI, PSI)

    @pytest.mark.parametrize("t", [10 ** 5, 10 ** 12], ids=["10^5", "10^12"])
    def test_nearly_tangent_axes_exceed_the_horizon(self, t):
        # the axes (1/t, t) and (1/t + 1, t + 1) cross at an angle near 0;
        # at 10^12 the cosine rounds to 1
        m1 = MappingClass(t, -1, 1, 0)
        with pytest.raises(HorizonExceededError):
            fast_divergence_thresholds(m1, m1.conjugated_by(MappingClass(1, 1, 0, 1)))

    def test_random_pairs_certify(self, rng):
        for _ in range(3):
            m1, m2 = random_independent_pair(rng)
            th = fast_divergence_thresholds(m1, m2)
            assert isinstance(th, Thresholds)
            assert math.isfinite(th.p_plus) and math.isfinite(th.q_minus)


class TestMutualFeet:
    def test_feet_project_onto_each_other(self):
        # O' is the projection of O onto c2 and O the projection of O' onto c1
        c1 = axis(PHI).axis
        for m2 in [PSI] + [conjugated(PHI, k) for k in range(1, 40)]:
            c2 = axis(m2).axis
            pg = pair_geometry(PHI, m2)
            assert abs(c1.param_of(pg.O_prime) - pg.t_O) <= 1e-12
            assert abs(c2.param_of(pg.O) - pg.s_O) <= 1e-12
