import math

import numpy as np
import pytest

from suppest import estimators, harness
from suppest.data import child_seed, make_distribution, sample_fingerprint
from suppest.estimators import (
    EstimateResult,
    EstimatorSpec,
    apply_poly_estimator,
    degree_for,
    estimate,
    naive_count,
    rwc_coefficients,
    rwcs_coefficients,
    wy_coefficients,
)
from suppest.harness import evaluate_risk, grid_convergence_study
from suppest.cli import main
from suppest.poly import Polynomial, objective_values
from suppest.sip import build_grid, localized_interval
from _risk import worst_case


class TestEvaluateRisk:
    def test_single_trial_mse(self):
        dist = make_distribution("uniform", 1e-2)
        spec = EstimatorSpec("naive")
        report = evaluate_risk([spec], [dist], [0.5], trials=1, seed=3)
        fp = sample_fingerprint(dist, 50, child_seed(3, 0, 0, 0))
        expected = estimate(spec, fp, dist.k).value
        row = report.rows[0]
        assert row.n == 50
        assert row.mean == expected
        assert row.mse == (expected - dist.support) ** 2
        assert row.nmse_k2 == row.mse / dist.k**2

    def test_naive_consistent_when_saturated(self):
        dist = make_distribution("uniform", 0.1)
        report = evaluate_risk([EstimatorSpec("naive")], [dist], [200.0], trials=5, seed=0)
        assert report.rows[0].mse == 0.0

    def test_s2_normalization(self):
        # zipf(1) has k = 101 and S = 26, so the two normalizations differ
        dist = make_distribution("zipf", 1e-2, alpha=1.0)
        report = evaluate_risk([EstimatorSpec("naive")], [dist], [1.0], trials=3, seed=1)
        row = report.rows[0]
        assert row.mse > 0
        assert row.nmse_k2 == row.mse / dist.k**2
        assert row.nmse_s2 == row.mse / dist.support**2
        assert worst_case(report, "naive", "k2") == row.nmse_k2
        assert worst_case(report, "naive", "s2") == row.nmse_s2

    def test_rwcs_warm_chain_certifies(self, monkeypatch):
        dist = make_distribution("zipf", 1e-3, alpha=0.5)
        n, k = 200, dist.k
        spec = EstimatorSpec("rwc-s", s=200)
        fps = [sample_fingerprint(dist, n, child_seed(5, 0, 0, t)) for t in range(8)]
        calls = []

        def recording(k_, n_, s_count, spec_, warm=None, guess=None):
            result = rwcs_coefficients(k_, n_, s_count, spec_, warm=warm, guess=guess)
            calls.append((s_count, warm is not None, result.coeffs))
            return result

        monkeypatch.setattr(harness.est_mod, "rwcs_coefficients", recording)
        values = [r.value for r in estimators.estimates(spec, fps, k, {})]
        monkeypatch.undo()
        counts = [naive_count(fp) for fp in fps]
        # each distinct count solved once, ascending, warm after the first
        assert [c for c, _, _ in calls] == sorted(set(counts))
        assert len(calls) >= 3
        assert [warm for _, warm, _ in calls] == [False] + [True] * (len(calls) - 1)

        grid = build_grid(*localized_interval(n, k, degree_for(k, spec.c0)), spec.s)
        coeffs = {s_c: p for s_c, _, p in calls}
        for fp, s_c, value in zip(fps, counts, values):
            assert value == apply_poly_estimator(fp, coeffs[s_c])
        for s_c, p in coeffs.items():
            cold = rwcs_coefficients(k, n, s_c, spec)
            warm_max = float(objective_values(p, grid, 1.0 / s_c)[2].max())
            # both solves certify a gap <= tol on the same program
            assert abs(warm_max - cold.t_d) <= spec.tol

    def test_guessed_solves_certify(self, monkeypatch):
        # each rwc and rwc-s solve of a sweep first tries the secant through the
        # spec's last two solves: some guesses certify at once, the rest iterate,
        # and every polynomial is certified against a cold solve of its problem
        dists = [make_distribution("zipf", 1e-3, alpha=0.5), make_distribution("uniform", 1e-3)]
        specs = [EstimatorSpec("rwc", s=200), EstimatorSpec("rwc-s", s=200)]
        solves = []
        original = estimators.solve

        def recording(problem, tol, warm=None, guess=None):
            result = original(problem, tol, warm=warm, guess=guess)
            solves.append((result, guess))
            return result

        monkeypatch.setattr(harness.est_mod, "solve", recording)
        report = evaluate_risk(specs, dists, [0.5, 1.0], trials=8, seed=3)
        monkeypatch.undo()
        assert all(row.error == "" for row in report.rows)
        guessed = [(result, guess) for result, guess in solves if guess is not None]
        certified = [result for result, guess in guessed if result.iterations == 0]
        assert certified and len(certified) < len(guessed)
        for result, guess in guessed:
            if result.iterations == 0:
                assert np.array_equal(result.dual_weights, guess / guess.sum())
        assert {r.problem.reg_weight for r, _ in solves} >= {1.0 / d.k for d in dists}
        tol = specs[0].tol
        for result, _ in solves:
            problem = result.problem
            grid_max = float(objective_values(result.coeffs, problem.points, problem.reg_weight)[2].max())
            assert abs(grid_max - original(problem, tol).t_d) <= tol

    def test_cell_fingerprints_are_the_per_trial_samples(self, monkeypatch):
        # one sampling table per (distribution, n) cell draws what sample_fingerprint draws per trial
        suite = [("uniform", None), ("zipf", 1.5), ("zipf", 1.0), ("zipf", 0.5), ("zipf", 0.25), ("benford", None)]
        dists = [make_distribution(kind, 1e-3, alpha=alpha) for kind, alpha in suite]
        fracs = [1e-3, 1.0, 10.0]
        seen = []

        def recording(spec, fps, k, cache):
            seen.append((k, fps))
            return [EstimateResult(0.0)] * len(fps)

        monkeypatch.setattr(harness.est_mod, "estimates", recording)
        evaluate_risk([EstimatorSpec("naive")], dists, fracs, trials=3, seed=8)
        assert len(seen) == len(dists) * len(fracs)
        cells = [(di, ni) for di in range(len(dists)) for ni in range(len(fracs))]
        for (di, ni), (k, fps) in zip(cells, seen):
            dist, n = dists[di], round(fracs[ni] * dists[di].k)
            assert k == dists[di].k
            assert fps == [sample_fingerprint(dist, n, child_seed(8, di, ni, t)) for t in range(3)]

    def test_wy_solved_once_per_cell(self, monkeypatch):
        calls = []

        def counted(k, n, spec):
            calls.append((k, n))
            return wy_coefficients(k, n, spec)

        monkeypatch.setattr(harness.est_mod, "wy_coefficients", counted)
        dist = make_distribution("uniform", 1e-3)
        report = evaluate_risk([EstimatorSpec("wy")], [dist], [0.5, 1.0], trials=5, seed=2)
        assert calls == [(dist.k, 500), (dist.k, 1000)]
        for row in report.rows:
            fps = [sample_fingerprint(dist, row.n, child_seed(2, 0, [500, 1000].index(row.n), t)) for t in range(5)]
            values = [estimate(EstimatorSpec("wy"), fp, dist.k).value for fp in fps]
            assert row.mean == float(np.mean(values))

    def test_gt_cell_mixing_zero_coverage_and_regular_trials(self):
        # uniform k = 100 at n = 12: about half the samples are all singletons
        dist = make_distribution("uniform", 1e-2)
        fps = [sample_fingerprint(dist, 12, child_seed(4, 0, 0, t)) for t in range(10)]
        zero = [fp.h.get(1, 0) == fp.n for fp in fps]
        assert any(zero) and not all(zero)
        spec = EstimatorSpec("gt", fallback_to_naive=True)
        row = evaluate_risk([spec], [dist], [0.12], trials=10, seed=4).rows[0]
        assert row.error == ""
        assert row.mean == float(np.mean([estimate(spec, fp, dist.k).value for fp in fps]))
        row = evaluate_risk([EstimatorSpec("gt")], [dist], [0.12], trials=10, seed=4).rows[0]
        assert row.error.startswith("CoverageZeroError")
        assert math.isnan(row.mean)

    def test_rwc_and_wy_solved_once_across_equal_cells(self, monkeypatch):
        calls = []
        for name in ("rwc_coefficients", "wy_coefficients"):
            original = getattr(estimators, name)

            def counted(k, n, spec, *start, original=original, name=name):
                calls.append((name, k, n))
                return original(k, n, spec)

            monkeypatch.setattr(harness.est_mod, name, counted)
        dist = make_distribution("uniform", 1e-3)
        specs = [EstimatorSpec("rwc", s=200), EstimatorSpec("wy")]
        report = evaluate_risk(specs, [dist, dist], [0.5], trials=3, seed=1)
        assert sorted(calls) == [("rwc_coefficients", dist.k, 500), ("wy_coefficients", dist.k, 500)]
        assert all(row.error == "" for row in report.rows)

    @pytest.mark.parametrize("kind", ["naive", "gt", "wy", "rwc"])
    def test_sweep_values_are_the_per_fingerprint_estimates(self, monkeypatch, kind):
        dist = make_distribution("zipf", 1e-3, alpha=1.0)
        spec = EstimatorSpec(kind, s=200)
        seen = []
        original = estimators.estimates

        def recording(spec_, fps, k, cache):
            results = original(spec_, fps, k, cache)
            seen.append((fps, [r.value for r in results]))
            return results

        monkeypatch.setattr(harness.est_mod, "estimates", recording)
        evaluate_risk([spec], [dist], [0.1, 1.0], trials=4, seed=6)
        monkeypatch.undo()
        assert len(seen) == 2
        for fps, values in seen:
            assert values == [estimate(spec, fp, dist.k).value for fp in fps]

    def test_fraction_mode(self):
        dist = make_distribution("uniform", 1e-2)
        report = evaluate_risk([EstimatorSpec("naive")], [dist, dist], [0.5, 2.0], trials=1, seed=0)
        assert [r.n for r in report.rows] == [50, 50, 200, 200]

    def test_error_rows_marked(self):
        # all-singleton samples break Good-Turing; the sweep must survive
        dist = make_distribution("uniform", 1e-6)
        report = evaluate_risk([EstimatorSpec("gt")], [dist], [3e-6], trials=2, seed=0)
        row = report.rows[0]
        assert row.error != ""
        assert math.isnan(row.mse)
        assert row.n == 3
        with pytest.raises(ValueError):
            worst_case(report, "gt", "k2")

    def test_solver_bug_propagates(self, monkeypatch):
        # only typed numerical and input failures become error rows
        def broken(*args, **kwargs):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(harness.est_mod, "solve", broken)
        dist = make_distribution("uniform", 1e-2)
        with pytest.raises(RuntimeError, match="solver bug"):
            evaluate_risk([EstimatorSpec("rwc", s=50)], [dist], [0.5], trials=1, seed=0)

    def test_input_validation(self):
        dist = make_distribution("uniform", 1e-2)
        with pytest.raises(ValueError):
            evaluate_risk([EstimatorSpec("naive")], [dist], [0.1], trials=0, seed=0)
        report = evaluate_risk([EstimatorSpec("naive")], [dist], [0.1], trials=1, seed=0)
        with pytest.raises(ValueError):
            worst_case(report, "naive", "s3")

    def test_cache_key_includes_grid_size(self, monkeypatch):
        # a coarse-grid spec must not reuse the default spec's coefficients
        grid_sizes = []

        def counted(k, n, spec, *start):
            result = rwc_coefficients(k, n, spec)
            grid_sizes.append(len(result.problem.points))
            return result

        monkeypatch.setattr(harness.est_mod, "rwc_coefficients", counted)
        dist = make_distribution("uniform", 1e-3)
        report = evaluate_risk([EstimatorSpec("rwc"), EstimatorSpec("rwc", s=50)], [dist], [1.0], trials=2, seed=0)
        assert sorted(grid_sizes) == [50, 1000]
        assert all(row.error == "" for row in report.rows)

    def test_wy_fallback_to_naive(self):
        # n/k = 5 > c1 ln k: the WY interval collapses and the spec falls back
        dist = make_distribution("uniform", 1e-2)
        specs = [EstimatorSpec("wy", fallback_to_naive=True), EstimatorSpec("naive")]
        report = evaluate_risk(specs, [dist], [5.0], trials=3, seed=0)
        naive, wy = report.rows
        assert (naive.estimator, wy.estimator) == ("naive", "wy")
        assert wy.error == ""
        assert wy.mean == naive.mean


class TestBiasCurve:
    """The bias curve is `objective_values` over the points of `build_grid`."""

    def test_bias_zero_at_root(self):
        lams = build_grid(1.0, 2.0, 11)
        _, bias, _ = objective_values(Polynomial((-1.0, 1.0)), lams, 0.1)
        assert bias[0] == pytest.approx(0.0, abs=1e-15)
        for lam, b in zip(lams, bias):
            assert b == pytest.approx(math.exp(-lam) * (lam - 1.0), rel=1e-12, abs=1e-15)

    def test_two_points(self):
        lams = build_grid(1.0, 3.0, 2)
        assert list(lams) == [1.0, 3.0]
        assert all(len(v) == 2 for v in objective_values(Polynomial((-1.0,)), lams, 0.1))

    def test_degenerate_interval(self):
        lams = build_grid(2.0, 2.0, 5)
        assert list(lams) == [2.0]
        assert all(len(v) == 1 for v in objective_values(Polynomial((-1.0,)), lams, 0.1))

    def test_csv_header(self, capsys):
        code = main(["bias-curve", "--k", "1e4", "--n", "1e4", "--points", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "lambda,bias,variance_term,g"
        assert len(lines) == 4


class TestGridConvergenceStudy:
    def test_monotone_and_rate(self):
        spec = EstimatorSpec("rwc", tol=1e-10)
        report = grid_convergence_study(1e4, 1e4, [11, 21, 41, 81], spec)
        tds = [r.t_d for r in report.rows]
        for a, b in zip(tds, tds[1:]):
            assert a <= b + 2e-10
        assert report.t_ref == tds[-1]
        assert report.rate_exponent is not None

    def test_single_grid_no_exponent(self):
        spec = EstimatorSpec("rwc", tol=1e-9)
        report = grid_convergence_study(1e4, 1e4, [11], spec)
        assert len(report.rows) == 1
        assert report.rate_exponent is None

    def test_empty_s_list(self):
        with pytest.raises(ValueError, match="s_list must not be empty"):
            grid_convergence_study(1e4, 1e4, [], EstimatorSpec("rwc"))

    def test_solves_the_estimator_problem(self):
        # each row is the problem rwc_coefficients solves at that grid size,
        # so a degree-0 cell is its single point n/k with spacing 0
        report = grid_convergence_study(4, 4, [11, 21], EstimatorSpec("rwc"))
        t_d = rwc_coefficients(4, 4, EstimatorSpec("rwc")).t_d
        assert [(r.s, r.d, r.t_d) for r in report.rows] == [(11, 0.0, t_d), (21, 0.0, t_d)]
        assert report.rate_exponent is None

    def test_spacing_of_the_solved_grid(self):
        # rwc at k = n = 1e4 solves on [1, 6.5 * 5 = 32.5]; d is that span over s - 1
        report = grid_convergence_study(1e4, 1e4, [11, 21, 41], EstimatorSpec("rwc"))
        assert [(r.s, r.d) for r in report.rows] == [(s, (32.5 - 1.0) / (s - 1)) for s in (11, 21, 41)]
