import dataclasses
import inspect
import math
import re
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from suppest import _blas, sip
from suppest.estimators import EstimatorSpec, degree_for, rwc_coefficients, rwcs_coefficients
from suppest.poly import objective_values
from suppest.sip import (
    TOL,
    NonConvergenceError,
    RankDeficiencyError,
    SipProblem,
    _dual_solve,
    _newton_factor,
    _QuadData,
    build_grid,
    localized_interval,
    solve,
)
from _decimal60 import one_rate_exact
from _domain import ROWS, Certifies, Raises, cells, rows_at
from _rational import dual_value_exact


class TestLocalizedInterval:
    def test_standard_instance(self):
        assert localized_interval(1e6, 1e6, 7) == (1.0, 45.5)

    def test_collapses_past_threshold(self):
        assert localized_interval(50_000.0, 1000.0, 7) == (50.0, 50.0)

    def test_boundary_equality_degenerate(self):
        # n/k exactly 6.5 L: zero-length interval resolved as a single point
        assert localized_interval(45.5, 1.0, 7) == (45.5, 45.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            localized_interval(0.0, 10.0, 3)

    def test_degree_zero_is_point(self):
        # 6.5 * 0 <= n/k: the pure-counting estimator is fitted at n/k alone
        assert localized_interval(30.0, 10.0, 0) == (3.0, 3.0)


class TestBuildGrid:
    def test_standard(self):
        points = build_grid(1.0, 45.5, 1000)
        assert len(points) == 1000
        assert points[0] == 1.0
        assert points[-1] == 45.5
        assert np.all(np.diff(points) > 0)

    def test_two_points(self):
        assert list(build_grid(1.0, 45.5, 2)) == [1.0, 45.5]

    def test_degenerate(self):
        # a point interval is its single point, whatever s is
        for s in (1, 3, 1000):
            assert list(build_grid(50.0, 50.0, s)) == [50.0]

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="need at least 2 grid points, got 1"):
            build_grid(1.0, 45.5, 1)

    @pytest.mark.parametrize("lo,hi", [(2.0, 1.0), (0.0, 1.0)])
    def test_bad_interval(self, lo, hi):
        with pytest.raises(ValueError, match="need 0 < lo <= hi"):
            build_grid(lo, hi, 5)


def _standard_problem(s=1000, reg=1e-6, degree=7):
    return SipProblem(degree, build_grid(1.0, 6.5 * degree, s), reg)


class TestSipProblem:
    @pytest.mark.parametrize(
        "degree, reg_weight, message",
        [(-1, 1e-6, "degree must be >= 0"), (3, -1.0, "reg_weight must be >= 0")],
    )
    def test_rejects(self, degree, reg_weight, message):
        with pytest.raises(ValueError, match=message):
            SipProblem(degree, build_grid(1.0, 19.5, 50), reg_weight)


class TestSolve:
    def test_degree_zero_closed_form(self):
        grid = build_grid(2.0, 10.0, 5)
        res = solve(SipProblem(0, grid, 0.3))
        lam = 2.0
        assert res.coeffs.coeffs == (-1.0,)
        assert res.t_d == pytest.approx(
            0.3 * math.exp(-lam) + math.exp(-2 * lam), rel=1e-14
        )
        assert res.duality_gap == 0.0

    def test_degree_one_single_point(self):
        grid = build_grid(1.0, 1.0, 1)
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
        r2 = solve(problem, tol=1e-9, warm=dataclasses.replace(r1, dual_weights=w0))
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
        grid = build_grid(1.0, 20.0, 4)
        with pytest.raises(ValueError):
            SipProblem(3, grid, 0.0)

    def test_unregularized_solvable(self):
        grid = build_grid(1.0, 19.5, 200)
        res = solve(SipProblem(3, grid, 0.0), tol=1e-9)
        assert res.duality_gap <= 1e-9

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            solve(_standard_problem(), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tol(self, tol):
        # tol = inf would certify any start point and nan none
        with pytest.raises(ValueError, match="tol must be finite"):
            solve(_standard_problem(s=11), tol=tol)

    def test_bad_init_weights(self):
        # duals over another grid size, or negative ones, are no start
        with pytest.raises(ValueError):
            solve(_standard_problem(), warm=solve(_standard_problem(s=3)))
        warm = solve(_standard_problem(s=11))
        with pytest.raises(ValueError):
            solve(_standard_problem(s=11), warm=dataclasses.replace(warm, dual_weights=-warm.dual_weights))

    @staticmethod
    def _same_solve(a, b):
        return (
            a.coeffs == b.coeffs and (a.t_d, a.duality_gap, a.iterations) == (b.t_d, b.duality_gap, b.iterations)
            and np.array_equal(a.dual_weights, b.dual_weights)
        )

    def test_warm_lends_its_grid_tables(self):
        # along an RWC-S chain only the variance weight changes: the tables are
        # lent from solve to solve, with the bits of tables built afresh
        result = solve(_standard_problem(reg=1e-6))
        tables = result.grid_tables
        for reg, points in ((2e-6, result.problem.points), (3e-6, result.problem.points.copy())):
            problem = SipProblem(7, points, reg)
            assert np.array_equal(_QuadData(problem, tables).M, _QuadData(problem).M)
            fresh = solve(problem, warm=dataclasses.replace(solve(problem), dual_weights=result.dual_weights))
            result = solve(problem, warm=result)
            assert result.grid_tables is tables and tables.m is not None
            assert fresh.grid_tables is not tables
            assert self._same_solve(result, fresh)
            assert result.duality_gap <= TOL

    def test_warm_on_another_degree_or_grid_lends_no_tables(self):
        first = solve(_standard_problem(s=200))
        points = first.problem.points
        for problem in (
            SipProblem(6, points, 1e-6),  # the same grid, another degree
            SipProblem(7, build_grid(1.5, 6.5 * 7, 200), 1e-6),  # another grid of the same size
        ):
            warm = solve(problem, warm=first)
            assert warm.grid_tables is not first.grid_tables
            assert warm.grid_tables.fits(problem)
            fresh = solve(problem, warm=dataclasses.replace(solve(problem), dual_weights=first.dual_weights))
            assert self._same_solve(warm, fresh)
        with pytest.raises(ValueError):  # a grid of another size
            solve(_standard_problem(s=201), warm=first)

    def test_certified_guess_returns_at_once(self):
        # the duals of a tighter solve certify at b*(w) without an iteration
        problem = _standard_problem(reg=1e-6)
        guess = 2.0 * solve(problem, tol=1e-13).dual_weights  # scaled to the simplex by solve
        result = solve(problem, guess=guess)
        assert result.iterations == 0 and result.duality_gap <= TOL
        assert result.t_d == float(objective_values(result.coeffs, problem.points, problem.reg_weight)[2].max())
        assert np.array_equal(result.dual_weights, guess / guess.sum())
        assert result.grid_tables.fits(problem)

    def test_secant_guess_certifies(self):
        # the secant through two neighbouring variance weights, as a risk sweep guesses
        first = solve(_standard_problem(reg=1e-6))
        second = solve(_standard_problem(reg=1.01e-6), warm=first)
        guess = (second.dual_weights + (second.dual_weights - first.dual_weights)).clip(0.0)
        problem = _standard_problem(reg=1.02e-6)
        result = solve(problem, warm=second, guess=guess)
        assert result.iterations == 0 and result.duality_gap <= TOL
        assert abs(result.t_d - solve(problem).t_d) <= TOL

    @pytest.mark.parametrize("hot", [0, 500, 999])
    def test_failed_guess_changes_no_bit(self, hot):
        # a one-hot guess fails the certificate; the solve then runs as without it
        problem = _standard_problem(reg=1e-6)
        guess = np.zeros(1000)
        guess[hot] = 1.0
        warm = solve(_standard_problem(reg=2e-6))
        for start in (None, warm):
            result = solve(problem, warm=start, guess=guess)
            assert result.iterations > 0
            assert self._same_solve(result, solve(problem, warm=start))

    def test_rank_deficient_guess_fails(self):
        # unregularized, b*(w) of a guess on fewer than L + 1 rates is not determined
        problem = SipProblem(3, build_grid(1.0, 19.5, 200), 0.0)
        guess = np.zeros(200)
        guess[:2] = 0.5
        with pytest.raises(RankDeficiencyError):
            _dual_solve(_QuadData(problem), guess)
        assert self._same_solve(solve(problem, tol=1e-9, guess=guess), solve(problem, tol=1e-9))

    @pytest.mark.parametrize(
        "guess", [np.full(11, 0.1), -np.full(12, 1.0 / 12), np.zeros(12), np.full(12, math.nan), [1.0]],
    )
    def test_bad_guess(self, guess):
        # as for warm: another grid size, negative, all-zero or non-finite weights
        with pytest.raises(ValueError, match="the guess must be a nonnegative vector over the grid"):
            solve(_standard_problem(s=12), guess=guess)

    def test_result_carries_problem(self, monkeypatch):
        degree_zero = SipProblem(0, build_grid(2.0, 10.0, 5), 0.3)
        for p in (_standard_problem(s=11), degree_zero):
            assert solve(p).problem is p
        p = _standard_problem(s=11)
        monkeypatch.setattr(sip, "MAX_ITER", 0)
        with pytest.raises(NonConvergenceError) as info:
            solve(p)
        assert info.value.best.problem is p

    def test_newton_factor_reuses_dual_r(self):
        # rwc at k = 1e12, n = 1e11: R^T R equals the Newton matrix assembled term by term
        k, n = 1e12, 1e11
        degree = degree_for(k)
        problem = SipProblem(degree, build_grid(*localized_interval(n, k, degree), 1000), 1.0 / k)
        data = _QuadData(problem)
        rng = np.random.default_rng(3)
        z = rng.uniform(0.5, 2.0, 1000) / 300.0
        slack = rng.uniform(0.1, 1.0, 1000)
        _, r = _dual_solve(data, z / z.sum())
        b = np.linalg.solve(r[:degree, :degree], r[:degree, degree])
        _, res = data.values(b)
        grad, r_fac = _newton_factor(data, b, res, z / slack, z.sum(), r)
        # V, M and grad are stored one row per coefficient, (L, s)
        a = np.hstack([grad.T, -np.ones((1000, 1))])
        explicit = (a * (z / slack)[:, None]).T @ a
        explicit[:degree, :degree] += 2.0 * ((data.V * z) @ data.V.T + np.diag(data.M @ z))
        err = np.linalg.norm(r_fac.T @ r_fac - explicit) / np.linalg.norm(explicit)
        assert err <= 1e-10


# the smallest subnormal double
_TINY = Decimal(2) ** -1074


class TestOneRate:
    """The closed form of `solve` where one rate binds, against 60 digits."""

    @pytest.mark.parametrize(
        "lam,reg,degree",
        [(20.0, 1e-2, 2), (100.0, 1e-4, 5), (600.0, 1e-15, 19), (720.0, 1e-6, 7), (740.0, 1e-3, 3), (800.0, 1e-3, 3),
         (1000.0, 1e-15, 19)],
    )
    def test_matches_decimal_reference(self, lam, reg, degree):
        result = solve(SipProblem(degree, np.array([lam]), reg))
        exact, q = one_rate_exact(lam, reg, degree)
        for a, ref in zip(result.coeffs.coeffs[1:], exact, strict=True):
            if ref < _TINY / 2:  # below the subnormal range
                assert a == 0.0, (a, ref)
            else:  # a subnormal has one more unit of rounding
                assert abs(Decimal(a) - ref) <= Decimal(1e-12) * ref + _TINY, (a, ref)
        # no primal value below the minimum, up to the rounding of t_d's float
        # evaluation (about (L + 1) eps), and the lower bound is the minimum
        assert q <= Decimal(result.t_d) * (1 + Decimal(1e-14)) + _TINY
        assert abs(Decimal(result.t_d - result.duality_gap) - q) <= Decimal(1e-12) * q + _TINY
        assert result.iterations == 0 and result.dual_weights.tolist() == [1.0]

    @pytest.mark.parametrize("lam,reg,degree", [(20.0, 1e-2, 2), (100.0, 1e-4, 5)])
    def test_reference_is_the_rational_dual_value(self, lam, reg, degree):
        # the closed form against the normal equations of the solver's own
        # one-point tables, solved over exact rationals
        data = _QuadData(SipProblem(degree, np.array([lam]), reg))
        q_rational = dual_value_exact(data.V.T.tolist(), data.v0.tolist(), data.M.T.tolist(), data.m0.tolist(), [1.0])
        _, q = one_rate_exact(lam, reg, degree)
        assert abs(Decimal(q_rational.numerator) / q_rational.denominator - q) <= Decimal(1e-12) * q

    def test_degree_zero_unregularized(self):
        # w = 0 is legal on a grid of two or more points: h = exp(-lam)^2, largest at lam = 2
        res = solve(SipProblem(0, build_grid(2.0, 10.0, 5), 0.0))
        assert res.t_d == math.exp(-2.0) ** 2
        assert (res.duality_gap, res.iterations, res.dual_weights.tolist()) == (0.0, 0, [1.0, 0, 0, 0, 0])

    @pytest.mark.parametrize("degree,points", [(0, build_grid(2.0, 10.0, 5)), (3, np.array([50.0]))])
    def test_warm_checked_then_ignored(self, degree, points):
        problem = SipProblem(degree, points, 1e-3)
        cold = solve(problem)
        with pytest.raises(ValueError):
            solve(problem, warm=solve(_standard_problem(s=3)))
        other = dataclasses.replace(cold, dual_weights=np.arange(1.0, len(points) + 1))
        assert TestSolve._same_solve(solve(problem, warm=other), cold)

    @pytest.mark.parametrize("degree,points", [(0, build_grid(2.0, 10.0, 5)), (3, np.array([50.0]))])
    def test_guess_ignored(self, degree, points):
        # the closed form, whatever the guess: one over this grid or over another size
        problem = SipProblem(degree, points, 1e-3)
        cold = solve(problem)
        for guess in (np.full(len(points), 1.0 / len(points)), np.full(1000, 1e-3)):
            assert TestSolve._same_solve(solve(problem, guess=guess), cold)


@pytest.fixture
def blas_threads():
    """(get, set) thread-count functions of the loaded OpenBLAS; the count the
    test found is set again after it."""
    funcs = _blas._openblas_threads()
    if funcs is None:
        pytest.skip("no OpenBLAS is loaded, so solve leaves the BLAS threads alone")
    found = funcs[0]()
    yield funcs
    funcs[1](found)


def _count_inside(monkeypatch, get):
    """Record the BLAS thread count at every dual solve."""
    seen = []
    dual_solve = sip._dual_solve

    def recording(*args):
        seen.append(get())
        return dual_solve(*args)

    monkeypatch.setattr(sip, "_dual_solve", recording)
    return seen


class TestOneBlasThread:
    def test_count_restored_after_return_and_raise(self, blas_threads, monkeypatch):
        get, _ = blas_threads
        found = get()
        seen = _count_inside(monkeypatch, get)
        solve(_standard_problem(s=101))
        assert get() == found
        # the (rwc, k = 1e20, n/k = 1) row of tests/_domain.py: the first dual solve raises
        with pytest.raises(RankDeficiencyError):
            rwc_coefficients(1e20, 1e20, EstimatorSpec("rwc"))
        assert get() == found
        monkeypatch.setattr(sip, "MAX_ITER", 0)
        with pytest.raises(NonConvergenceError):
            solve(_standard_problem(s=101))
        assert get() == found
        assert seen and set(seen) == {1}

    def test_guess_solved_on_one_thread(self, blas_threads, monkeypatch):
        # the dual solve of a guess, certified or not, runs inside the same scope
        get, set_ = blas_threads
        set_(3)
        problem = _standard_problem(s=101)
        certifying = solve(problem, tol=1e-13).dual_weights
        seen = _count_inside(monkeypatch, get)
        assert solve(problem, guess=certifying).iterations == 0
        assert seen == [1]
        one_hot = np.zeros(101)
        one_hot[0] = 1.0
        assert solve(problem, guess=one_hot).iterations > 0
        assert len(seen) > 2 and set(seen) == {1}
        assert get() == 3

    def test_result_independent_of_thread_count(self, blas_threads):
        # rwc at k = n = 1e12: L = 15, whose QRs OpenBLAS would split over threads
        get, set_ = blas_threads
        degree = degree_for(1e12)
        problem = SipProblem(degree, build_grid(*localized_interval(1e12, 1e12, degree), 1000), 1e-12)
        results = []
        for threads in (3, 1):
            set_(threads)
            results.append(solve(problem))
            assert get() == threads
        many, one = results
        assert many.coeffs == one.coeffs
        assert (many.t_d, many.duality_gap, many.iterations) == (one.t_d, one.duality_gap, one.iterations)
        assert many.dual_weights.tobytes() == one.dual_weights.tobytes()

    def test_concurrent_solves_restore_count(self, blas_threads, monkeypatch):
        # overlapping solves share one scope: the count is 1 while any of them
        # runs and the one found after the last has left
        get, set_ = blas_threads
        set_(3)
        seen = _count_inside(monkeypatch, get)
        errors = []

        def work():
            try:
                for _ in range(4):
                    solve(_standard_problem(s=101))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert get() == 3
        assert len(seen) >= 32 and set(seen) == {1}


def _oversampled_max(res, oversample=10):
    """Max of the objective on an `oversample`-times finer grid of the solved
    problem; its excess over t_d estimates the discretization slack."""
    problem = res.problem
    points = problem.points
    fine = build_grid(points[0], points[-1], (len(points) - 1) * oversample + 1)
    return float(objective_values(res.coeffs, fine, problem.reg_weight)[2].max())


class TestCertify:
    def test_degree_zero_exact(self):
        grid = build_grid(2.0, 10.0, 5)
        problem = SipProblem(0, grid, 0.3)
        res = solve(problem)
        assert _oversampled_max(res) == pytest.approx(res.t_d, rel=1e-14)

    def test_degenerate_point(self):
        grid = build_grid(3.0, 3.0, 1)
        problem = SipProblem(2, grid, 0.05)
        res = solve(problem, tol=1e-10)
        assert _oversampled_max(res) == pytest.approx(res.t_d, rel=1e-9)

    def test_slack_small_on_fine_grid(self):
        problem = _standard_problem()
        res = solve(problem, tol=1e-8)
        fine = _oversampled_max(res)
        assert fine >= res.t_d - 1e-8
        assert fine - res.t_d < 1e-6


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
    return result, SipProblem(degree, build_grid(*localized_interval(n, k, degree), spec.s), reg)


_NUM = r"(\d+(?:\.\d+)?(?:e-?\d+)?)"


def _certifying(rows):
    return [row for row in rows if isinstance(row.outcome, Certifies)]


def _box_claim(estimators, k_lo, k_hi, r_lo, r_hi, except_estimator, except_r, except_k, except_error):
    """The estimators certify on the box of k and n/k, except `except_estimator`
    at n/k <= except_r from k = except_k, where it raises `except_error`."""
    estimators = estimators.split(" and ")
    box = [
        row for row in ROWS
        if row.estimator in estimators and k_lo <= row.k <= k_hi and r_lo <= row.n_over_k <= r_hi
    ]
    excepted = [
        row for row in box
        if row.estimator == except_estimator and row.n_over_k <= except_r and row.k >= except_k
    ]
    assert except_r in {row.n_over_k for row in excepted} and except_k in {row.k for row in excepted}
    assert all(isinstance(row.outcome, Raises) for row in excepted)
    assert {row.outcome.error.__name__ for row in excepted} == {except_error}
    assert _certifying(box) == [row for row in box if row not in excepted]
    for estimator in estimators:
        certified = _certifying(row for row in box if row.estimator == estimator)
        assert {k_lo, k_hi} <= {row.k for row in certified}
        assert {r_lo, r_hi} <= {row.n_over_k for row in certified}
    # no row certifies below the box
    assert k_lo == min(row.k for row in _certifying(ROWS))
    assert r_lo == min(row.n_over_k for row in _certifying(ROWS))


def _rank_claim(k_a, estimator_a, k_b, estimator_b, n_over_k):
    """At n/k each estimator raises RankDeficiencyError from its k on, and
    certifies below it."""
    for k, estimator in ((k_a, estimator_a), (k_b, estimator_b)):
        rows = [row for row in ROWS if row.estimator == estimator and row.n_over_k == n_over_k]
        assert k in {row.k for row in rows}
        for row in rows:
            if row.k < k:
                assert isinstance(row.outcome, Certifies), row
            else:
                assert isinstance(row.outcome, Raises) and row.outcome.error is RankDeficiencyError, row


def _budget_claim(bound):
    assert bound == max(row.outcome.max_iter for row in _certifying(ROWS))


# each claim a summary makes of the table: its pattern and the check of its numbers
_CLAIMS = [
    (
        rf"(rwc and rwc-s|rwc|rwc-s) certify for k = {_NUM} to {_NUM} at n/k = {_NUM} to {_NUM}, "
        rf"except (rwc|rwc-s) at n/k <= {_NUM} from k = {_NUM} \((\w+)\)",
        _box_claim,
    ),
    (rf"from k = {_NUM} \((rwc|rwc-s)\) and {_NUM} \((rwc|rwc-s)\) at n/k = {_NUM}", _rank_claim),
    (rf"largest iteration bound \({_NUM}\)", _budget_claim),
]


def _summaries():
    """The one-line summaries of the supported domain: in the solve docstring,
    the README, the RankDeficiencyError docstring and the MAX_ITER comment."""
    sentence = r"The supported domain.*?\.(?=\s|$)"
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    comment = re.search(r"((?:# .*\n)+)MAX_ITER =", inspect.getsource(sip)).group(1).replace("#", "")
    texts = {
        "solve": re.search(sentence, " ".join(sip.solve.__doc__.split())).group(),
        "README": re.search(sentence, " ".join(readme.split())).group(),
        "RankDeficiencyError": sip.RankDeficiencyError.__doc__,
        "MAX_ITER": comment,
    }
    return {name: " ".join(text.split()) for name, text in texts.items()}


class TestSupportedDomain:
    """Generated from the table of the supported domain in _domain.py."""

    @pytest.mark.parametrize("k,n_over_k", cells(Certifies))
    def test_certifies_inside(self, k, n_over_k):
        for row in rows_at(k, n_over_k, Certifies):
            result, problem = _weighted_solve(row.estimator, k, n_over_k)
            assert result.duality_gap <= 1e-8, (row, result.duality_gap)
            # each row's own bound, so a rise in iterations cannot hide behind
            # a cheaper iteration
            assert 0 <= result.iterations <= row.outcome.max_iter, (row, result.iterations)
            grid_max = objective_values(result.coeffs, problem.points, problem.reg_weight)[2].max()
            assert result.t_d == float(grid_max)

    @pytest.mark.parametrize("k,n_over_k", cells(Raises))
    def test_typed_failure_outside(self, k, n_over_k):
        # an underflowed column must raise, not be divided by (warnings are errors)
        for row in rows_at(k, n_over_k, Raises):
            with pytest.raises(row.outcome.error, match=row.outcome.fragment):
                _weighted_solve(row.estimator, k, n_over_k)

    def test_iteration_bounds_below_budget(self):
        assert max(row.outcome.max_iter for row in _certifying(ROWS)) < sip.MAX_ITER

    @pytest.mark.parametrize("name", list(_summaries()))
    def test_summary_matches_table(self, name):
        # every number of the summary belongs to a claim, and every claim holds
        text = _summaries()[name]
        claimed = []
        for pattern, check in _CLAIMS:
            for match in re.finditer(pattern, text):
                check(*(float(g) if re.fullmatch(_NUM, g) else g for g in match.groups()))
                claimed.append(match.span())
        assert claimed, text
        for number in re.finditer(rf"(?<![\w.]){_NUM}", text):
            assert any(lo <= number.start() < hi for lo, hi in claimed), (number.group(), text)


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
            data.V.T.tolist(), data.v0.tolist(), data.M.T.tolist(), data.m0.tolist(),
            result.dual_weights.tolist(),
        )
        true_gap = Fraction(result.t_d) - q_exact
        assert true_gap <= Fraction(1e-8)
        assert abs(float(true_gap) - result.duality_gap) <= 1e-11
