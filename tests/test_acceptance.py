"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and budgets are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from conftest import PHI, PSI, random_independent_pair, random_thick_point
from teichpong.hyp2 import Point
from teichpong.mcg import MappingClass, axis, min_translation, translation_distance
from teichpong.oracle import count_reduced_words, free_check
from teichpong.pingpong import (build_certificate, paper_constants,
                                paper_radius_bound, power_bound, verify_pingpong)
from teichpong.projection import (THRESHOLD_STEP, derive_contraction_b, divergence_profile,
                                  fast_divergence_thresholds, pair_geometry,
                                  profile_csv)
from teichpong.serialize import (certificate_document, digit_count,
                                 word_report_document)
from teichpong.torus_model import (Slope, kerckhoff_dist, short_curve_bound,
                                   short_curves, teich_dist, wolpert_check)


def _report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{label} failed: {detail}"


def test_criterion_1_oracle_agreement():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    pairs = [random_independent_pair(rng, max_trace=30) for _ in range(20)]
    for m1, m2 in pairs:
        cert = build_certificate([m1, m2])
        report = verify_pingpong(cert, 10_000)
        assert report["passed"]
        words = free_check([m1, m2], cert.N, 6)
        assert words.violations == [] and not words.incomplete
    elapsed = time.perf_counter() - start
    _report("1 oracle agreement (20 pairs, verify + word oracle)",
            elapsed <= 120.0, f"{elapsed:.1f}s for 20 pairs")


def test_criterion_2_literal_formula_fidelity():
    assert paper_radius_bound(3, 1) == 8
    assert paper_radius_bound(4, 2) == 52
    assert power_bound(8, 0.5, l_min=0.96242) == 23

    cert = build_certificate([PHI, PSI])
    pc = paper_constants([PHI, PSI])
    base = math.factorial(pc.B) + 2
    assert pc.R_paper == max(base, math.ceil(base * __import__("fractions").Fraction(pc.L)))
    lhs = pc.N_paper * __import__("fractions").Fraction(min_translation())
    rhs = 2 * __import__("fractions").Fraction(pc.R_paper) + 12 * __import__("fractions").Fraction(derive_contraction_b())
    assert lhs > rhs
    assert (pc.N_paper - 1) * __import__("fractions").Fraction(min_translation()) <= rhs
    assert pc.R_paper >= cert.R
    _report("2 literal formula fidelity",
            True,
            f"B={pc.B}, R_paper has {digit_count(pc.R_paper)} digits, "
            f"N_paper has {digit_count(pc.N_paper)} digits, R_cert={cert.R}")


def test_criterion_3_projection_contraction():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    n = 100_000
    b = derive_contraction_b()
    p = np.tan(rng.uniform(-1.5, 1.5, n))
    q = np.tan(rng.uniform(-1.5, 1.5, n))
    keep = np.abs(p - q) > 1e-6
    p, q = p[keep], q[keep]
    m = p.size
    x = rng.uniform(-10, 10, 2 * m)
    y = np.exp(rng.uniform(math.log(0.05), math.log(10.0), 2 * m))
    z = (x + 1j * y).reshape(2, m)

    # ball-reaching-the-geodesic projection diameter, closed form after
    # endpoint normalization (the ratio is chart-scaling invariant)
    w = (z[0] - p) / (q - z[0])
    diam = np.arcsinh(np.abs(w.real) / np.abs(w))
    violations = int((diam > b).sum())

    # two-point projection spread against distance plus 4b
    w2 = (z[1] - p) / (q - z[1])
    t1 = 0.5 * np.log(np.abs(w))
    t2 = 0.5 * np.log(np.abs(w2))
    d = np.arcsinh(np.abs(z[0] - z[1]) / (2.0 * np.sqrt(z[0].imag * z[1].imag)))
    violations += int((np.abs(t1 - t2) > d + 4 * b).sum())
    elapsed = time.perf_counter() - start
    _report("3 projection contraction (1e5 configurations)",
            violations == 0 and elapsed <= 30.0,
            f"violations={violations}, {elapsed:.1f}s, b={b:.6f}")


def test_criterion_4_metric_cross_check():
    exact = kerckhoff_dist(Point(0, 1), Point(0, 2), 1)
    assert exact == pytest.approx(0.5 * math.log(2.0), abs=5e-17)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        a, b = random_thick_point(rng), random_thick_point(rng)
        gap = abs(kerckhoff_dist(a, b, 500) - teich_dist(a, b))
        worst = max(worst, gap)
    _report("4 metric cross-check (depth 500 on 100 thick pairs)",
            worst <= 1e-6, f"worst gap {worst:.2e}")


def test_criterion_5_wolpert_bound():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        a, b = random_thick_point(rng), random_thick_point(rng)
        s = Slope.canonical(int(rng.integers(-7, 8)), int(rng.integers(1, 8)))
        ratio = wolpert_check(a, b, [s])
        d = teich_dist(a, b)
        ok &= ratio <= math.exp(2 * d) + 1e-12
        ok &= ratio <= math.exp(d) + 1e-12
    _report("5 length-ratio bound (1000 draws, both exponents)", ok)


def test_criterion_6_properness_and_fast_divergence():
    assert THRESHOLD_STEP == 0.01
    rng = np.random.default_rng(6)
    families = [(PHI, PSI)] + [random_independent_pair(rng) for _ in range(5)]
    for m1, m2 in families:
        c1, c2 = axis(m1).axis, axis(m2).axis
        ts = np.arange(0.0, 20.0, 0.1)
        for sign in (1, -1):
            pts = [c1.point_at(float(sign * t)) for t in ts]
            from teichpong.hyp2 import dist_to_geodesic
            dmin = np.array([dist_to_geodesic(c2, z) for z in pts])
            suffix = np.minimum.accumulate(dmin[::-1])[::-1]
            for delta in (1.0, 2.0, 5.0):
                hits = np.nonzero(suffix >= delta)[0]
                assert hits.size, f"no properness horizon for delta={delta}"
        th = fast_divergence_thresholds(m1, m2)
        pg = pair_geometry(m1, m2)
        # zero violations beyond the certified thresholds on a fresh grid
        for sign, p_thr, q_thr in ((1, th.p_plus, th.q_plus), (-1, th.p_minus, th.q_minus)):
            dts = np.arange(0.0, 4.0, 0.05)
            t_vals = p_thr + sign * dts
            s_vals = q_thr + sign * dts
            za = np.array([c1.point_at(float(t)) .z for t in t_vals])
            zb = np.array([c2.point_at(float(s)).z for s in s_vals])
            dd = np.arcsinh(np.abs(za[:, None] - zb[None, :]) /
                            (2.0 * np.sqrt(za.imag[:, None] * zb.imag[None, :])))
            lhs_bound = np.maximum(np.abs(t_vals - pg.t_O)[:, None],
                                   np.abs(s_vals - pg.s_O)[None, :])
            assert bool((dd > lhs_bound).all())
    _report("6 properness and fast divergence (6 pairs, 0.01 grid)", True)


def test_criterion_7_short_curves():
    tau = Point(0.0, 1.0)
    ratios = []
    for r in (1.0, 1.5, 5.0, 10.0, 50.0):
        got = short_curves(tau, r)
        brute = []
        bound = int(r) + 1
        for pp in range(-bound, bound + 1):
            for qq in range(0, bound + 1):
                if (pp, qq) == (0, 0) or math.gcd(abs(pp), qq) != 1:
                    continue
                if qq == 0 and pp != 1:
                    continue
                if abs(pp + qq * 1j) <= r + 1e-12:
                    brute.append(Slope(pp, qq))
        assert sorted(got, key=lambda s: (s.q, s.p)) == sorted(brute, key=lambda s: (s.q, s.p))
        assert len(got) <= short_curve_bound(r)
        ratios.append(len(got) / r ** 2)
    _report("7 short-curve counts vs brute force (R up to 50)",
            max(ratios) <= 3.0, f"count/R^2 range [{min(ratios):.2f}, {max(ratios):.2f}]")


def test_criterion_8_group_theory_exacts():
    rng = np.random.default_rng(8)
    g = MappingClass(1, 1, 0, 1)
    for _ in range(100):
        m1, _ = random_independent_pair(rng)
        assert translation_distance(m1 * m1) == pytest.approx(
            2 * translation_distance(m1), abs=1e-10)
        assert translation_distance(m1.conjugated_by(g)) == pytest.approx(
            translation_distance(m1), abs=1e-10)

    sanov = free_check([MappingClass(1, 2, 0, 1), MappingClass(1, 0, 2, 1)], 1, 8)
    assert sanov.violations == []
    assert sanov.words_checked == sum(count_reduced_words(2, k) for k in range(1, 9))

    rot = free_check([MappingClass(0, -1, 1, 0)], 1, 2)
    assert any(len(v["word"].split()) == 2 for v in rot.violations)

    commuting = free_check([PHI ** 2, PHI ** 3], 1, 4)
    assert any(v["word"] == "g1 g2 g1^-1 g2^-1" for v in commuting.violations)
    _report("8 group-theory exacts", True)


def test_criterion_9_determinism():
    docs = []
    for _ in range(2):
        cert = build_certificate([PHI, PSI], seed=11)
        verify_pingpong(cert, 5000, seed=11)
        docs.append(certificate_document(cert))
    same_cert = docs[0] == docs[1]

    csvs = [profile_csv(divergence_profile(PHI, PSI, -2.0, 2.0, 0.1)) for _ in range(2)]
    same_csv = csvs[0] == csvs[1]

    reports = [word_report_document(free_check([PHI, PSI], 12, 5)) for _ in range(2)]
    same_report = reports[0] == reports[1]
    _report("9 determinism (certificate, csv, word report)",
            same_cert and same_csv and same_report)
