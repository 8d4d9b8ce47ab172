import math
from fractions import Fraction

import numpy as np
import pytest

from suppest import sip
from suppest.estimators import EstimatorSpec, degree_for, rwc_coefficients, rwcs_coefficients
from suppest.poly import objective_values
from suppest.sip import (
    MAX_ITER,
    GridSpec,
    IntervalSpec,
    InvalidGridError,
    NonConvergenceError,
    RankDeficiencyError,
    SipProblem,
    _QuadData,
    build_grid,
    certify,
    localized_interval,
    solve,
)
from _rational import dual_value_exact


class TestLocalizedInterval:
    def test_standard_instance(self):
        iv = localized_interval(1e6, 1e6, 7)
        assert iv.lo == 1.0
        assert iv.hi == 45.5
        assert not iv.degenerate

    def test_collapses_past_threshold(self):
        iv = localized_interval(50_000.0, 1000.0, 7)
        assert iv.degenerate
        assert iv.lo == iv.hi == 50.0

    def test_boundary_equality_degenerate(self):
        # n/k exactly 6.5 L: zero-length interval resolved as a single point
        iv = localized_interval(45.5, 1.0, 7)
        assert iv.degenerate
        assert iv.lo == 45.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            localized_interval(0.0, 10.0, 3)

    def test_degree_zero_is_point(self):
        # 6.5 * 0 <= n/k: the pure-counting estimator is fitted at n/k alone
        iv = localized_interval(30.0, 10.0, 0)
        assert iv.degenerate
        assert iv.lo == iv.hi == 3.0


class TestBuildGrid:
    def test_standard(self):
        grid = build_grid(IntervalSpec(1.0, 45.5), 1000)
        assert grid.s == 1000
        assert grid.points[0] == 1.0
        assert grid.points[-1] == 45.5
        assert grid.d == pytest.approx(44.5 / 999, rel=1e-15)
        assert np.all(np.diff(grid.points) > 0)

    def test_two_points(self):
        grid = build_grid(IntervalSpec(1.0, 45.5), 2)
        assert list(grid.points) == [1.0, 45.5]

    def test_degenerate(self):
        # a point interval is its single point, whatever s is
        for s in (1, 3, 1000):
            grid = build_grid(IntervalSpec(50.0, 50.0), s)
            assert grid.s == 1
            assert list(grid.points) == [50.0]
            assert grid.d == 0.0

    def test_too_few_points(self):
        with pytest.raises(InvalidGridError):
            build_grid(IntervalSpec(1.0, 45.5), 1)


def _standard_problem(s=1000, reg=1e-6, degree=7):
    grid = build_grid(IntervalSpec(1.0, 6.5 * degree), s)
    return SipProblem(degree, grid, reg)


class TestSolve:
    def test_degree_zero_closed_form(self):
        grid = build_grid(IntervalSpec(2.0, 10.0), 5)
        res = solve(SipProblem(0, grid, 0.3))
        lam = 2.0
        assert res.coeffs.coeffs == (-1.0,)
        assert res.t_d == pytest.approx(
            0.3 * math.exp(-lam) + math.exp(-2 * lam), rel=1e-14
        )
        assert res.duality_gap == 0.0

    def test_degree_one_single_point(self):
        grid = build_grid(IntervalSpec(1.0, 1.0), 1)
        res = solve(SipProblem(1, grid, 0.1), tol=1e-12)
        assert res.coeffs.coeffs[1] == pytest.approx(1.0 / (math.e / 10 + 1), abs=1e-9)

    def test_certificate_on_standard_instance(self):
        res = solve(_standard_problem(), tol=1e-8)
        assert res.duality_gap <= 1e-8
        # primal feasibility: grid max within t_d + gap
        gmax = float(
            objective_values(res.coeffs, np.linspace(1.0, 45.5, 1000), 1e-6)[2].max()
        )
        assert gmax <= res.t_d + res.duality_gap + 1e-15
        assert res.dual_weights.min() >= 0.0
        assert res.dual_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniqueness_across_initializations(self):
        problem = _standard_problem()
        r1 = solve(problem, tol=1e-9)
        w0 = np.exp(-0.1 * np.arange(1000.0))
        r2 = solve(problem, tol=1e-9, init_weights=w0)
        for c1, c2 in zip(r1.coeffs.coeffs, r2.coeffs.coeffs):
            assert abs(c1 - c2) < 1e-5

    def test_monotone_refinement(self):
        tds = []
        for s in (11, 21, 41):
            res = solve(_standard_problem(s=s), tol=1e-10)
            tds.append(res.t_d)
        assert tds[0] <= tds[1] + 2e-10
        assert tds[1] <= tds[2] + 2e-10

    def test_unregularized_needs_enough_points(self):
        grid = build_grid(IntervalSpec(1.0, 20.0), 4)
        with pytest.raises(ValueError):
            SipProblem(3, grid, 0.0)

    def test_unregularized_solvable(self):
        grid = build_grid(IntervalSpec(1.0, 19.5), 200)
        res = solve(SipProblem(3, grid, 0.0), tol=1e-9)
        assert res.duality_gap <= 1e-9

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            solve(_standard_problem(), tol=0.0)

    def test_bad_init_weights(self):
        with pytest.raises(ValueError):
            solve(_standard_problem(), init_weights=np.ones(3))

    def test_result_carries_problem(self, monkeypatch):
        degree_zero = SipProblem(0, build_grid(IntervalSpec(2.0, 10.0), 5), 0.3)
        for p in (_standard_problem(s=11), degree_zero):
            assert solve(p).problem is p
        p = _standard_problem(s=11)
        monkeypatch.setattr(sip, "MAX_ITER", 0)
        with pytest.raises(NonConvergenceError) as info:
            solve(p)
        assert info.value.best.problem is p


class TestCertify:
    def test_degree_zero_exact(self):
        grid = build_grid(IntervalSpec(2.0, 10.0), 5)
        problem = SipProblem(0, grid, 0.3)
        res = solve(problem)
        assert certify(res, 10) == pytest.approx(res.t_d, rel=1e-14)

    def test_degenerate_point(self):
        grid = build_grid(IntervalSpec(3.0, 3.0), 1)
        problem = SipProblem(2, grid, 0.05)
        res = solve(problem, tol=1e-10)
        assert certify(res, 10) == pytest.approx(res.t_d, rel=1e-9)

    def test_slack_small_on_fine_grid(self):
        problem = _standard_problem()
        res = solve(problem, tol=1e-8)
        fine = certify(res, 10)
        assert fine >= res.t_d - 1e-8
        assert fine - res.t_d < 1e-6

    def test_oversample_validation(self):
        problem = _standard_problem()
        res = solve(problem, tol=1e-8)
        with pytest.raises(ValueError):
            certify(res, 1)


class TestLocalizationProperty:
    def test_random_vectors_small_sample(self):
        # spot check; the full 200-vector version runs in the acceptance suite
        rng = np.random.default_rng(11)
        k, n, degree = 1e4, 1e4, 5
        hi = 6.5 * degree
        dense = np.linspace(n / k, n, 20_001)
        inside = dense[dense <= hi]
        for _ in range(20):
            coeffs = (-1.0, *rng.uniform(-2, 2, degree))
            from suppest.poly import Polynomial

            g = objective_values(Polynomial(coeffs), dense, 1.0 / k)[2]
            g_in = objective_values(Polynomial(coeffs), inside, 1.0 / k)[2]
            assert g.max() <= g_in.max() * (1 + 1e-10)


def _weighted_solve(kind, k, n_over_k):
    """(result, problem) for an rwc or rwc-s cell; rwc-s takes the expected
    naive count k (1 - exp(-n/k)) as its count, at least 1."""
    n = k * n_over_k
    spec = EstimatorSpec(kind)
    if kind == "rwc":
        result, reg = rwc_coefficients(k, n, spec), 1.0 / k
    else:
        s_count = max(1, round(-k * math.expm1(-n_over_k)))
        result, reg = rwcs_coefficients(k, n, s_count, spec), 1.0 / s_count
    degree = degree_for(k)
    interval = localized_interval(n, k, degree)
    grid = build_grid(interval, spec.s)
    return result, SipProblem(degree, grid, reg)


DOMAIN = [(k, r) for k in (1e2, 1e4, 1e6, 1e9, 1e12) for r in (1e-6, 1e-3, 0.1, 1.0, 10.0)]
DOMAIN += [(1e15, 1.0), (1e15, 10.0)]


class TestSupportedDomain:
    @pytest.mark.parametrize("k,n_over_k", DOMAIN)
    def test_certifies_inside(self, k, n_over_k):
        for kind in ("rwc", "rwc-s"):
            result, problem = _weighted_solve(kind, k, n_over_k)
            assert result.duality_gap <= 1e-8, (kind, result.duality_gap)
            assert 0 <= result.iterations <= MAX_ITER
            grid_max = objective_values(result.coeffs, problem.grid.points, problem.reg_weight)[2].max()
            assert result.t_d == float(grid_max)

    @pytest.mark.parametrize("k", [1e18, 1e20])
    def test_typed_failure_outside(self, k):
        for kind in ("rwc", "rwc-s"):
            with pytest.raises((NonConvergenceError, RankDeficiencyError)):
                _weighted_solve(kind, k, 1.0)

    def test_underflow_at_large_n_over_k(self):
        # the grid is the point n/k = 800, where exp(-800) underflows to 0;
        # the zero column must raise, not be divided by (warnings are errors)
        with pytest.raises(RankDeficiencyError, match="underflow"):
            rwc_coefficients(1000, 8e5, EstimatorSpec("rwc"))


class TestExactCertificate:
    @pytest.mark.parametrize(
        "kind,k,n_over_k",
        [("rwc", 1e12, 1e-3), ("rwc-s", 1e9, 0.1), ("rwc", 1e6, 1.0)],
    )
    def test_gap_against_rational_dual_value(self, kind, k, n_over_k):
        # q(dual_weights) recomputed over exact rationals from the solver's own
        # float64 per-point data bounds the optimum from below, so t_d - q is
        # the true gap of the returned coefficients on the grid
        result, problem = _weighted_solve(kind, k, n_over_k)
        data = _QuadData(problem)
        q_exact = dual_value_exact(
            data.V.tolist(), data.v0.tolist(), data.M.tolist(), data.m0.tolist(),
            result.dual_weights.tolist(),
        )
        true_gap = Fraction(result.t_d) - q_exact
        assert true_gap <= Fraction(1e-8)
        assert abs(float(true_gap) - result.duality_gap) <= 1e-11
