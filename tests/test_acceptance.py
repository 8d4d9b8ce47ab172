"""End-to-end acceptance suite: one test per shipping criterion.

Each test prints a single `ACCEPTANCE n: PASS` line on success (visible with
`pytest -s`); a failing criterion shows up as a regular pytest failure whose
message carries the offending instance.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from suppest.data import (
    DistributionSpec,
    Fingerprint,
    bundled_corpus_path,
    child_seed,
    fingerprint,
    histogram_from_tokens,
    make_distribution,
    sample_fingerprint,
    tokenize_text,
)
from suppest.estimators import (
    EstimatorSpec,
    IntervalCollapseError,
    apply_poly_estimator,
    degree_for,
    estimate,
    good_turing,
    naive_count,
    rwc_coefficients,
    wy_coefficients,
)
from suppest.harness import evaluate_risk, grid_convergence_study
from suppest.poly import Polynomial, g_values, objective_values, shifted_cheb_coeffs
from suppest.sip import SipProblem, build_grid, localized_interval, solve
from _rational import apply_estimator_exact, good_turing_exact, shifted_cheb_exact
from _risk import worst_case


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS", flush=True)


def test_criterion_1_coefficient_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20240101)
    checked = 0
    for _ in range(50):
        lo = Fraction(int(rng.integers(1, 1999)), 100)
        hi = Fraction(int(rng.integers(int(lo * 100) + 1, 2001)), 100)
        assert 0 < lo < hi <= 20
        for degree in range(1, 13):
            got = shifted_cheb_coeffs(degree, float(lo), float(hi)).coeffs
            want = shifted_cheb_exact(degree, lo, hi)
            for g, w in zip(got, want):
                w = float(w)
                err = abs(g - w) / max(abs(w), 1e-300)
                assert err <= 1e-9, (
                    f"L={degree} [{lo},{hi}]: coeff {g} vs oracle {w}, rel {err:.2e}"
                )
            checked += 1
    assert checked == 600
    assert time.time() - start < 5.0
    _report(1, "coefficient oracle equivalence")


def test_criterion_2_localization():
    start = time.time()
    rng = np.random.default_rng(2)
    k = 1e4
    degree = degree_for(k)
    hi = 6.5 * degree
    for n in (k, 5 * k):
        dense = np.linspace(n / k, n, 100_000)
        inside = dense <= hi
        beyond = np.linspace(hi, n, 52)[1:-1]
        eps = 1e-5
        for _ in range(200):
            p = Polynomial((-1.0, *rng.uniform(-2, 2, degree)))
            g = objective_values(p, dense, 1.0 / k)[2]
            full_max = float(g.max())
            local_max = float(g[inside].max())
            assert full_max <= local_max * (1 + 1e-10), (
                f"n={n}: max over [n/k, n] {full_max} exceeds localized {local_max}"
            )
            g_hi = objective_values(p, beyond + eps, 1.0 / k)[2]
            g_lo = objective_values(p, beyond - eps, 1.0 / k)[2]
            # strict decrease wherever g is representable; past lam ~ 700 the
            # objective underflows to exactly 0 and the difference is 0 - 0
            representable = g_lo > np.finfo(float).tiny
            assert np.all(g_hi[representable] < g_lo[representable]), (
                f"n={n}: dg/dlam >= 0 beyond 6.5L"
            )
    assert time.time() - start < 30.0
    _report(2, "objective localization")


def test_criterion_3_solver_certificate():
    k = n = 1e6
    degree = degree_for(k)
    assert degree == 7
    problem = SipProblem(degree, build_grid(*localized_interval(n, k, degree), 1000), 1.0 / k)
    r0 = solve(problem, tol=1e-8)
    assert r0.duality_gap <= 1e-8
    # uniqueness: tighter solves from two initializations agree per coordinate
    r1 = solve(problem, tol=1e-9)
    r2 = solve(problem, tol=1e-9, warm=dataclasses.replace(r0, dual_weights=np.exp(-0.05 * np.arange(1000.0))))
    assert max(r1.duality_gap, r2.duality_gap) <= 1e-9
    for c1, c2 in zip(r1.coeffs.coeffs, r2.coeffs.coeffs):
        assert abs(c1 - c2) < 1e-5, f"initialization changed coefficients: {c1} vs {c2}"
    _report(3, "solver duality-gap certificate and uniqueness")


def test_criterion_4_discretization_rate():
    start = time.time()
    spec = EstimatorSpec("rwc", tol=1e-10)
    report = grid_convergence_study(1e4, 1e4, [11, 21, 41, 81, 161, 5121], spec)
    tds = [r.t_d for r in report.rows]
    for a, b in zip(tds, tds[1:]):
        assert a <= b + 2 * spec.tol, f"t_d not nondecreasing: {tds}"
    assert report.rate_exponent is not None
    assert 1.5 <= report.rate_exponent <= 2.5, f"rate exponent {report.rate_exponent}"
    assert time.time() - start < 120.0
    _report(4, f"discretization rate (exponent {report.rate_exponent:.3f})")


def test_criterion_5_minimax_dominance():
    spec = EstimatorSpec("rwc")
    skipped = 0
    for k in (1e3, 1e4, 1e6):
        for n in (0.5 * k, k, 5 * k):
            degree = degree_for(k)
            grid = build_grid(*localized_interval(n, k, degree), spec.s)
            try:
                wy, _ = wy_coefficients(k, n, EstimatorSpec("wy"))
            except IntervalCollapseError:
                skipped += 1
                continue
            rwc = rwc_coefficients(k, n, spec).coeffs
            max_rwc = float(objective_values(rwc, grid, 1.0 / k)[2].max())
            max_wy = float(objective_values(wy, grid, 1.0 / k)[2].max())
            assert max_rwc <= max_wy + 2 * spec.tol, (
                f"k={k} n={n}: {max_rwc} > {max_wy} + 2 tol"
            )
    assert skipped <= 3
    _report(5, "worst-case objective dominance over the unregularized baseline")


def test_criterion_6_risk_regression():
    start = time.time()
    suite = [
        make_distribution("uniform", 1e-4),
        make_distribution("zipf", 1e-4, alpha=1.5),
        make_distribution("zipf", 1e-4, alpha=1.0),
        make_distribution("zipf", 1e-4, alpha=0.5),
        make_distribution("zipf", 1e-4, alpha=0.25),
        make_distribution("benford", 1e-4),
    ]
    specs = [EstimatorSpec(kind) for kind in ("rwc", "rwc-s", "wy", "gt", "naive")]
    report = evaluate_risk(specs, suite, [1.0], trials=100, seed=20240101)
    rwc, wy = worst_case(report, "rwc", "k2"), worst_case(report, "wy", "k2")
    assert rwc < wy, f"rwc worst-case {rwc} not below wy {wy}"
    rwcs = worst_case(report, "rwc-s", "s2")
    gt, naive = worst_case(report, "gt", "s2"), worst_case(report, "naive", "s2")
    assert rwcs < gt, f"rwc-s worst-case {rwcs} not below gt {gt}"
    assert rwcs < naive, f"rwc-s worst-case {rwcs} not below naive {naive}"
    assert time.time() - start < 600.0
    _report(6, "directional risk regression on the six-distribution suite")


def test_criterion_7_text_experiment():
    start = time.time()
    tokens = tokenize_text(bundled_corpus_path().read_bytes().decode("utf-8"))
    assert len(tokens) >= 30_000
    hist = histogram_from_tokens(tokens)
    truth = len(hist)  # brute-force distinct count
    n = sum(hist.values())
    counts = np.array(sorted(hist.values(), reverse=True), dtype=float)
    empirical = DistributionSpec("empirical", truth, counts / n)
    spec = EstimatorSpec("rwc-s")
    values, naives = [], []
    for t in range(100):
        fp = sample_fingerprint(empirical, n, child_seed(20240101, 99, 0, t))
        naives.append(naive_count(fp))
        values.append(estimate(spec, fp, empirical.k).value)
    mean_rwcs = float(np.mean(values))
    mean_naive = float(np.mean(naives))
    assert abs(mean_rwcs - truth) < abs(mean_naive - truth), (
        f"rwc-s mean {mean_rwcs} not closer to truth {truth} than naive {mean_naive}"
    )
    assert abs(mean_rwcs - truth) / truth <= 0.15, (
        f"rwc-s mean {mean_rwcs} off truth {truth} by more than 15%"
    )
    assert time.time() - start < 300.0
    _report(7, f"text experiment (truth {truth}, rwc-s mean {mean_rwcs:.1f})")


# 20 fixed fingerprints (with sample size n = sum j h_j) whose Good-Turing
# value is exactly representable, so the float path must match the rational
# oracle bit for bit
_FIXED_FINGERPRINTS = [
    {1: 18, 2: 12, 5: 9},
    {2: 7, 3: 1},
    {5: 10, 2: 10, 7: 12},
    {6: 13},
    {3: 16, 2: 9},
    {5: 1},
    {5: 7, 7: 14, 8: 14},
    {7: 8, 4: 10, 2: 9},
    {2: 2},
    {5: 11, 8: 5, 7: 7, 4: 3},
    {4: 9, 6: 6, 7: 12, 8: 14},
    {4: 2, 3: 8, 1: 9},
    {2: 6, 3: 10},
    {1: 10, 8: 11, 3: 1, 7: 11},
    {6: 14, 2: 20, 8: 3},
    {4: 5, 8: 9, 3: 13},
    {6: 1, 5: 12},
    {8: 6},
    {6: 4, 3: 15, 5: 7},
    {4: 2, 1: 6, 7: 20, 6: 5},
]


def test_criterion_8_formula_exactness():
    assert len(_FIXED_FINGERPRINTS) == 20
    rng = np.random.default_rng(8)
    for h in _FIXED_FINGERPRINTS:
        fp = Fingerprint(h)
        n = fp.n
        assert naive_count(fp) == float(sum(h.values()))
        assert good_turing(fp) == float(good_turing_exact(h, n)), f"fingerprint {h}"
        # independent recomputation of the polynomial estimator
        coeffs = (-1.0, *np.round(rng.uniform(-2, 2, 3), 6))
        got = apply_poly_estimator(fp, Polynomial(coeffs))
        want = float(apply_estimator_exact(h, [Fraction(c) for c in coeffs]))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    _report(8, "counting / coverage / estimator formula exactness")


def test_criterion_9_mrs_diagnostic():
    failures = []
    for degree in (3, 5, 7):
        k = n = math.exp((degree + 0.5) / 0.558)
        assert degree_for(k) == degree
        lo, hi = localized_interval(n, k, degree)
        result = solve(SipProblem(degree, build_grid(lo, hi, 1000), 0.0), tol=1e-9)
        dense = np.linspace(n / k, n, 100_000)
        bias = np.abs(objective_values(result.coeffs, dense, 0.0)[1])
        lam_star = float(dense[int(np.argmax(bias))])
        bound = n / k + math.pi * degree / 2 + (hi - lo) / 999
        if lam_star > bound:
            failures.append((degree, k, n, lam_star, bound))
    if failures:
        detail = "; ".join(
            f"L={d} k={k:.4g} n={n:.4g}: argmax {a:.4f} outside bound {b:.4f}"
            for d, k, n, a, b in failures
        )
        pytest.fail(f"weighted-bias argmax escaped the shrunk interval: {detail}")
    _report(9, "unregularized bias argmax localization diagnostic")
