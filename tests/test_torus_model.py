import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from conftest import PHI, random_pseudo_anosov, random_thick_point
from teichpong.errors import FViolationError, InvalidInputError
from teichpong.hyp2 import Point
from teichpong.mcg import MappingClass, axis, min_translation, translation_distance
from teichpong.torus_model import (Slope, ThickParams, _bracket, _next_slope, curve_length,
                                   default_thick_params, derive_thick_params,
                                   kerckhoff_dist, marking, short_curve_bound,
                                   short_curves, systole, teich_dist, wolpert_check)

I_PT = Point(0.0, 1.0)
HEX_PT = Point(0.5, math.sqrt(3) / 2)


def transform_slope(m: MappingClass, s: Slope) -> Slope:
    """Action on slopes, normalized so that lengths are equivariant:

    curve_length(transform_slope(m.inverse(), s), tau)
        == curve_length(s, m applied to tau).
    """
    a, b, c, d = m.entries()
    return Slope.canonical(a * s.p - b * s.q, -c * s.p + d * s.q)


class TestSlope:
    def test_canonical_enforced(self):
        with pytest.raises(InvalidInputError):
            Slope(2, 4)
        with pytest.raises(InvalidInputError):
            Slope(1, -2)
        with pytest.raises(InvalidInputError):
            Slope(-1, 0)

    def test_canonicalize(self):
        assert Slope.canonical(-2, -4) == Slope(1, 2)
        assert Slope.canonical(-3, 0) == Slope(1, 0)

    def test_print(self):
        assert str(Slope(1, 0)) == "1/0" and str(Slope(-3, 5)) == "-3/5"


class TestCurveLength:
    def test_square_torus_horizontal(self):
        assert curve_length(Slope(1, 0), I_PT) == pytest.approx(1.0, abs=1e-15)

    def test_vertical_stretch(self):
        assert curve_length(Slope(0, 1), Point(0, 2)) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_diagonal(self):
        assert curve_length(Slope(1, 1), I_PT) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_equivariance(self, rng):
        for _ in range(60):
            m = random_pseudo_anosov(rng)
            tau = random_thick_point(rng)
            s = Slope.canonical(int(rng.integers(-5, 6)), int(rng.integers(1, 6)))
            lhs = curve_length(transform_slope(m.inverse(), s), tau)
            rhs = curve_length(s, m.apply(tau))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDistances:
    def test_vertical_stretch_distance(self):
        assert teich_dist(I_PT, Point(0, 2)) == pytest.approx(0.5 * math.log(2), abs=1e-15)

    def test_zero(self):
        assert teich_dist(I_PT, I_PT) == 0.0

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = random_thick_point(rng), random_thick_point(rng)
            assert teich_dist(a, b) == pytest.approx(teich_dist(b, a), abs=1e-14)

    def test_kerckhoff_depth_one_exact(self):
        assert kerckhoff_dist(I_PT, Point(0, 2), 1) == pytest.approx(0.5 * math.log(2), abs=1e-15)

    def test_kerckhoff_monotone_in_depth(self, rng):
        for _ in range(15):
            a, b = random_thick_point(rng), random_thick_point(rng)
            k1 = kerckhoff_dist(a, b, 1)
            k10 = kerckhoff_dist(a, b, 10)
            td = teich_dist(a, b)
            assert k1 <= k10 + 1e-12
            assert k10 <= td + 1e-12

    def test_kerckhoff_depth_validation(self):
        with pytest.raises(InvalidInputError):
            kerckhoff_dist(I_PT, I_PT, 0)


def _slope_table_loop(depth):
    """The slope table as a plain loop: the reference for the vectorized one."""
    ps, qs = [1], [0]
    for q in range(1, depth + 1):
        for p in range(-depth, depth + 1):
            if math.gcd(abs(p), q) == 1:
                ps.append(p)
                qs.append(q)
    return np.array(ps, dtype=float), np.array(qs, dtype=float)


def _slope_table(depth):
    """The slopes 1/0 and (p, q) with 1 <= q <= depth, |p| <= depth, gcd 1, by rows of q."""
    p = np.arange(-depth, depth + 1)
    rows = [p[np.gcd(p, q) == 1] for q in range(1, depth + 1)]
    qs = np.repeat(np.arange(depth + 1.0), [1] + [len(r) for r in rows])
    return np.concatenate([[1]] + rows, dtype=float), qs


def _table_ratio(table, tau1, tau2):
    """The largest extremal-length ratio over the whole table, in its float expression."""
    ps, qs = table

    def ext(tau):
        return ((ps + qs * tau.x) ** 2 + (qs * tau.y) ** 2) / tau.y

    return float(np.max(ext(tau2) / ext(tau1)))


def _seeded_pairs(seed, n):
    """Pairs drawn like the benchmark's, from a wider box, and within 1e-9..1e-2 of each other."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        if k % 3 == 0:
            a = Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 2.5)))
            b = Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 2.5)))
        elif k % 3 == 1:
            a = Point(float(rng.uniform(-5, 5)), float(np.exp(rng.uniform(-4, 3))))
            b = Point(float(rng.uniform(-5, 5)), float(np.exp(rng.uniform(-4, 3))))
        else:
            a = Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 2.5)))
            eps = 10.0 ** rng.uniform(-9, -2)
            b = Point(a.x + eps * float(rng.normal()), a.y * (1 + eps * float(rng.normal())))
        yield a, b


def _check_against_table(depth, n_pairs, seed):
    """kerckhoff_dist takes the table's maximum, bit for bit, on pairs at distance
    >= 1e-4; closer pairs may miss a float-noise peak of the table by at most
    4 ulps of the ratio, and never exceed it.  Returns the number of far pairs."""
    table = _slope_table(depth)
    far = 0
    for tau1, tau2 in _seeded_pairs(seed, n_pairs):
        ratio = _table_ratio(table, tau1, tau2)
        got = kerckhoff_dist(tau1, tau2, depth)
        if teich_dist(tau1, tau2) >= 1e-4:
            assert got == 0.5 * math.log(ratio), (tau1, tau2)
            far += 1
        else:
            assert 0.5 * math.log(ratio - 4 * math.ulp(ratio)) <= got <= 0.5 * math.log(ratio)
    return far


class TestSlopeTable:
    @pytest.mark.parametrize("depth", [*range(1, 61), 500])
    def test_matches_the_loop(self, depth):
        ps, qs = _slope_table(depth)
        ref_ps, ref_qs = _slope_table_loop(depth)
        assert ps.dtype == ref_ps.dtype and qs.dtype == ref_qs.dtype
        assert np.array_equal(ps, ref_ps)
        assert np.array_equal(qs, ref_qs)
        # kerckhoff_dist evaluates only the Farey neighbours of the critical slopes
        assert _check_against_table(depth, 60 if depth <= 60 else 240, seed=depth) >= 40

    def test_depth_2000(self):
        assert _check_against_table(2000, 45, seed=2000) >= 30
        # d = 1.5e-4: the Farey neighbours of the critical slope alone miss a
        # slope further out whose float ratio rounds one ulp higher
        tau1 = Point(0.3593277702397276, 0.9389039260440046)
        tau2 = Point(0.3590975254561485, 0.9387511518790737)
        ratio = _table_ratio(_slope_table(2000), tau1, tau2)
        assert kerckhoff_dist(tau1, tau2, 2000) == 0.5 * math.log(ratio)


class TestSlopeWalk:
    @pytest.mark.parametrize("depth", [1, 2, 3, 7, 12])
    def test_walk_visits_the_table_in_order(self, depth):
        ps, qs = _slope_table_loop(depth)
        table = {(int(p), int(q)) for p, q in zip(ps, qs)}
        prev, cur, seen = (depth, 1), (1, 0), []
        for _ in range(len(table)):
            prev, cur = cur, _next_slope(prev, cur, depth)
            assert prev[0] * cur[1] - prev[1] * cur[0] == -1
            seen.append(Slope.canonical(*cur))
        assert seen[-1] == Slope(1, 0)
        assert {(s.p, s.q) for s in seen} == table

    @pytest.mark.parametrize("depth", [1, 2, 5, 60, 2000])
    def test_bracket_is_adjacent(self, depth):
        rng = np.random.default_rng(depth)
        points = [Fraction(0), Fraction(depth), Fraction(depth + 1), Fraction(1, depth)]
        points += [Fraction(float(rng.exponential(3.0))) for _ in range(40)]
        points += [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(20)]
        for t in points:
            (a, b), (c, d) = _bracket(t, depth)
            assert Fraction(a, b) <= t and (d == 0 or t < Fraction(c, d))
            assert max(a, b, c, d) <= depth and b * c - a * d == 1
            # every fraction between descends from the mediant, which is too high
            assert max(a + c, b + d) > depth


class TestKerckhoffBeyondFloatRange:
    @staticmethod
    def _exact(tau1, tau2, depth):
        x1, y1, x2, y2 = map(Fraction, (tau1.x, tau1.y, tau2.x, tau2.y))
        ps, qs = _slope_table_loop(depth)

        def ext(p, q, x, y):
            return ((p + q * x) ** 2 + (q * y) ** 2) / y

        ratio = max(ext(int(p), int(q), x2, y2) / ext(int(p), int(q), x1, y1)
                    for p, q in zip(ps, qs))
        return 0.5 * (math.log(ratio.numerator) - math.log(ratio.denominator))

    @pytest.mark.parametrize("tau1, tau2", [
        ((1e200, 1.0), (0.0, 1.0)), ((0.0, 1.0), (1e200, 1.0)),
        ((1e-300, 1e-300), (0.0, 1.0)), ((0.0, 1e-200), (0.0, 1e200)),
        ((1.0, 5e-324), (-1.0, 5e-324)), ((1.7e308, 1.7e308), (-1.7e308, 5e-324)),
    ])
    def test_matches_exact_rationals(self, tau1, tau2):
        tau1, tau2 = Point(*tau1), Point(*tau2)
        for depth in (1, 7):
            ref = self._exact(tau1, tau2, depth)
            assert kerckhoff_dist(tau1, tau2, depth) == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestWolpert:
    def test_equal_points(self):
        assert wolpert_check(I_PT, I_PT, [Slope(1, 0), Slope(0, 1)]) == pytest.approx(1.0)

    def test_vertical_stretch(self):
        ratio = wolpert_check(I_PT, Point(0, 2), [Slope(1, 0), Slope(0, 1)])
        d = teich_dist(I_PT, Point(0, 2))
        assert ratio == pytest.approx(math.sqrt(2), abs=1e-14)
        assert ratio <= math.exp(2 * d) + 1e-12
        assert ratio == pytest.approx(math.exp(d), abs=1e-12)

    def test_empty_slopes_rejected(self):
        with pytest.raises(InvalidInputError):
            wolpert_check(I_PT, I_PT, [])


class TestShortCurves:
    def test_square_torus_unit(self):
        assert short_curves(I_PT, 1.0) == [Slope(1, 0), Slope(0, 1)]

    def test_below_systole(self):
        assert short_curves(I_PT, 0.5) == []

    def test_radius_three_halves(self):
        got = set(short_curves(I_PT, 1.5))
        assert got == {Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-1, 1)}

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            tau = random_thick_point(rng)
            r = float(rng.uniform(0.8, 4.0))
            got = set(short_curves(tau, r))
            lim = r * math.sqrt(tau.y)
            brute = set()
            rng_bound = int(lim / min(tau.y, 1.0)) + 2
            for p in range(-rng_bound - 5, rng_bound + 6):
                for q in range(0, rng_bound + 2):
                    if (p, q) == (0, 0) or math.gcd(abs(p), q) != 1:
                        continue
                    if q == 0 and p != 1:
                        continue
                    if abs(p + q * tau.z) <= lim + 1e-12:
                        brute.add(Slope(p, q))
            assert got == brute


class TestShortCurveBound:
    def test_unit_bound_at_least_two(self):
        assert short_curve_bound(1.0) >= 2

    def test_monotone(self):
        params = default_thick_params()
        values = [short_curve_bound(r, params) for r in (1, 2, 5, 10, 50)]
        assert values == sorted(values)

    def test_dominates_counts_on_thick_points(self, rng):
        params = default_thick_params()
        for _ in range(40):
            tau = random_thick_point(rng)
            if systole(tau) < params.epsilon:
                continue
            r = float(rng.uniform(0.6, 6.0))
            assert len(short_curves(tau, r)) <= short_curve_bound(r, params)

    def test_quadratic_growth(self):
        params = default_thick_params()
        ratios = [short_curve_bound(r, params) / r ** 2 for r in (5, 10, 20, 50)]
        assert max(ratios) <= params.short_curve_coeff + 1.0


class TestSystole:
    def test_square(self):
        assert systole(I_PT) == pytest.approx(1.0, abs=1e-12)

    def test_hexagonal(self):
        assert systole(HEX_PT) == pytest.approx(math.sqrt(2 / math.sqrt(3)), abs=1e-12)

    def test_tall_torus_thin(self):
        y = 49.0
        assert systole(Point(0.3, y)) == pytest.approx(1 / math.sqrt(y), abs=1e-12)
        assert systole(Point(0.3, y)) < 0.5

    def test_invariance_under_action(self, rng):
        for _ in range(40):
            m = random_pseudo_anosov(rng)
            tau = random_thick_point(rng)
            assert systole(m.apply(tau)) == pytest.approx(systole(tau), abs=1e-9)


class TestMarking:
    def test_square_torus(self):
        alpha, beta = marking(I_PT, 1.2)
        assert (alpha, beta) == (Slope(1, 0), Slope(0, 1))
        assert abs(alpha.p * beta.q - alpha.q * beta.p) == 1  # they cross once
        assert curve_length(alpha, I_PT) == pytest.approx(1.0)
        assert curve_length(beta, I_PT) == pytest.approx(1.0)

    def test_hexagonal_torus(self):
        alpha, beta = marking(HEX_PT, 1.2)
        la, lb = curve_length(alpha, HEX_PT), curve_length(beta, HEX_PT)
        assert la == pytest.approx(lb, abs=1e-12)
        assert abs(alpha.p * beta.q - alpha.q * beta.p) == 1  # they cross once

    def test_f_violation(self):
        with pytest.raises(FViolationError):
            marking(I_PT, 0.9)

    def test_matches_doubling_search(self):
        # the reference searches short_curves from R = max(2.5, 2 / systole),
        # doubling R until a slope crosses the shortest one
        def doubling_search(tau):
            R = max(2.5, 2.0 / systole(tau))
            for _ in range(8):
                cands = sorted(short_curves(tau, R), key=lambda s: (curve_length(s, tau), s.q, s.p))
                for beta in cands[1:]:
                    if abs(cands[0].p * beta.q - cands[0].q * beta.p) >= 1:  # they cross
                        return cands[0], beta
                R *= 2.0
            raise AssertionError(f"no transversal pair near {tau}")

        rng = np.random.default_rng(29)
        taus = [I_PT, Point(-0.5, math.sqrt(3) / 2), HEX_PT, Point(0.5, 0.5), Point(0.0, 2.0)]
        taus += [Point(x, y) for x, y in zip(rng.uniform(-5, 5, 400),
                                             10.0 ** rng.uniform(-3, 3, 400))]
        for tau in taus:
            assert marking(tau, math.inf) == doubling_search(tau), tau


class TestThickParams:
    def test_least_translation_bound_uses_trace_three(self):
        params = derive_thick_params(min_translation())
        # only trace-3 classes qualify, so the floor is that class's axis systole
        ax = axis(PHI).axis
        samples = [systole(ax.point_at(t * min_translation() / 200)) for t in range(200)]
        assert params.epsilon <= min(samples) + 1e-9
        assert params.epsilon >= 0.9 * min(samples)

    def test_epsilon_below_axis_systoles(self, rng):
        params = derive_thick_params(1.0)
        for _ in range(5):
            m = random_pseudo_anosov(rng, max_trace=3)
            ax = axis(m).axis
            for t in rng.uniform(-2, 2, 20):
                assert systole(ax.point_at(float(t))) >= params.epsilon - 1e-9

    def test_f_above_hexagonal_witness(self):
        params = default_thick_params()
        assert params.F >= math.sqrt(2 / math.sqrt(3)) - 1e-9

    def test_rejects_tiny_bound(self):
        with pytest.raises(InvalidInputError):
            derive_thick_params(0.5)


def _sampled_axis_min_systole(m, samples=256):
    """The systole floor along one axis by sampling plus a golden polish."""
    geo = axis(m).axis
    period = translation_distance(m)
    ts = [i * period / samples for i in range(samples)]
    vals = [systole(geo.point_at(t)) for t in ts]
    k = min(range(samples), key=lambda i: vals[i])
    lo, hi = ts[k] - period / samples, ts[k] + period / samples
    for _ in range(64):
        m1 = lo + 0.381966011 * (hi - lo)
        m2 = hi - 0.381966011 * (hi - lo)
        if systole(geo.point_at(m1)) < systole(geo.point_at(m2)):
            hi = m2
        else:
            lo = m1
    return min(min(vals), systole(geo.point_at(0.5 * (lo + hi))))


def _trace_representatives(t):
    """Matrices of trace t meeting every conjugacy class (duplicates allowed):
    each class has a representative with |c|, |d - a| <= sqrt(t^2 - 4)."""
    win = math.isqrt(t * t - 4) + 1
    for c in range(-win, win + 1):
        if c == 0:
            continue
        for a in range((t - win) // 2 - 1, (t + win) // 2 + 2):
            d = t - a
            if abs(d - a) <= win and (a * d - 1) % c == 0:
                yield MappingClass(a, (a * d - 1) // c, c, d)


def _thick_grid(epsilon, grid=48):
    """The thick points of the count-coefficient grid the reference search visits."""
    cgrid = max(grid // 2, 8)
    y_bot, y_top = math.sqrt(3.0) / 2.0, 1.0 / (epsilon * epsilon)
    for i in range(cgrid + 1):
        for j in range(cgrid + 1):
            tau = Point(-0.5 + i / cgrid, y_bot + (y_top - y_bot) * j / cgrid)
            if abs(tau.z) >= 1.0 and systole(tau) >= epsilon:
                yield tau


def _grid_thick_params(L):
    """The thick-part constants with the count coefficient found by searching
    the thick grid against the count radii: the reference for the closed form."""
    t = math.floor(2.0 * math.cosh(L) + 1e-12)
    eps = math.sqrt(2.0 / math.sqrt(t * t - 4))
    y_top = 1.0 / (eps * eps)
    r_values = [0.5 + 0.02 * k for k in range(226)]
    coeff = 0.0
    for tau in _thick_grid(eps):
        lengths = sorted(curve_length(s, tau) for s in short_curves(tau, r_values[-1]))
        coeff = max(coeff, *(bisect_right(lengths, R) / (R * R) for R in r_values))
    return ThickParams(eps, 1.05 * math.sqrt(0.25 / y_top + y_top), 1.05 * coeff)


class TestThickClosedForms:
    @pytest.mark.parametrize("t", range(3, 21))
    def test_equals_the_grid_search(self, t):
        L = math.acosh(t / 2)
        assert derive_thick_params(L) == _grid_thick_params(L)

    @pytest.mark.parametrize("t, coeff", [(3, 2.700617283950617), (5, 2.700617283950617),
                                          (6, 2.9166666666666665), (7, 3.3482142857142856),
                                          (8, 3.883136094674556), (9, 4.2), (10 ** 5, 4.2)])
    def test_coefficient_by_trace(self, t, coeff):
        assert derive_thick_params(math.acosh(t / 2)).short_curve_coeff == coeff
        # L enters only through the trace bound floor(2 cosh L)
        assert derive_thick_params(math.acosh((t + 0.9) / 2)) == \
            derive_thick_params(math.acosh(t / 2))

    @pytest.mark.parametrize("t", [3, 6, 9, 20])
    def test_random_thick_points_stay_below(self, t):
        params = derive_thick_params(math.acosh(t / 2))
        y_top = 1.0 / params.epsilon ** 2
        rng = np.random.default_rng(t)
        r_values = [0.5 + 0.02 * k for k in range(226)]
        for _ in range(200):
            tau = Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, y_top)))
            if abs(tau.z) < 1.0 or systole(tau) < params.epsilon:
                continue
            lengths = sorted(curve_length(s, tau) for s in short_curves(tau, r_values[-1]))
            for R in r_values:
                assert bisect_right(lengths, R) / (R * R) * 1.05 <= params.short_curve_coeff


    def test_epsilon_matches_sampled_axes(self):
        floor = math.inf
        for t in range(3, 9):
            floor = min(floor, min(_sampled_axis_min_systole(m) for m in _trace_representatives(t)))
            eps = derive_thick_params(math.acosh(t / 2)).epsilon
            assert eps == pytest.approx(floor, rel=1e-14, abs=0)

    @pytest.mark.parametrize("t", range(3, 13))
    def test_f_covers_the_top_corner(self, t):
        params = derive_thick_params(math.acosh(t / 2))
        corner = Point(-0.5, (1 - 1e-12) / params.epsilon ** 2)
        marking(corner, params.F / 1.05)

    @pytest.mark.parametrize("t", [3, 9])
    def test_bisect_counts_match_short_curves(self, t):
        eps = derive_thick_params(math.acosh(t / 2)).epsilon
        r_values = [0.5 + 0.02 * k for k in range(226)]
        for tau in _thick_grid(eps):
            lengths = sorted(curve_length(s, tau) for s in short_curves(tau, r_values[-1]))
            for R in r_values:
                assert bisect_right(lengths, R) == len(short_curves(tau, R))
