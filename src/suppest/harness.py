"""Experiment engine: risk sweeps, grid-convergence studies, bias curves.

Runs are driven entirely by (specs, distributions, n grid, trials, seed) and
produce deterministic reports: per-trial samples are drawn from splittable
child seeds keyed by (distribution, n, trial), cells run serially in a fixed
order, and within a cell the distinct RWC-S counts are solved in sorted order,
each warm-started from the previous solve.  The warm start makes the stored
coefficients depend on that order (within the solver tolerance), which is
why the order is fixed.  Wall-clock runtimes are recorded but kept out of the
CSV so repeated runs are byte-identical.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import estimators as est_mod
from .poly import Polynomial, objective_values
from .sip import (
    IntervalSpec,
    NonConvergenceError,
    RankDeficiencyError,
    SipProblem,
    build_grid,
    localized_interval,
    solve,
)


def _fmt(x: float) -> str:
    return format(x, ".17g")


@dataclass(frozen=True)
class RiskRow:
    estimator: str
    distribution: str
    n: int
    trials: int
    mean: float
    std: float
    mse: float
    normalization: str
    normalized_mse: float
    seed: int
    runtime: float
    error: str = ""


RISK_COLUMNS = (
    "estimator",
    "distribution",
    "n",
    "trials",
    "mean",
    "std",
    "mse",
    "normalization",
    "normalized_mse",
    "seed",
)


@dataclass(frozen=True)
class RiskReport:
    rows: tuple[RiskRow, ...]

    def worst_case(self, estimator: str) -> float:
        """Max normalized MSE over the distribution suite for one estimator."""
        values = [r.normalized_mse for r in self.rows if r.estimator == estimator and not r.error]
        if not values:
            raise ValueError(f"no successful rows for estimator {estimator!r}")
        return max(values)

    def to_csv(self, include_runtime: bool = False) -> str:
        cols = RISK_COLUMNS + (("runtime",) if include_runtime else ()) + ("error",)
        out = io.StringIO()
        out.write(",".join(cols) + "\n")
        for r in self.rows:
            cells = [
                r.estimator,
                r.distribution,
                str(r.n),
                str(r.trials),
                _fmt(r.mean),
                _fmt(r.std),
                _fmt(r.mse),
                r.normalization,
                _fmt(r.normalized_mse),
                str(r.seed),
            ]
            if include_runtime:
                cells.append(_fmt(r.runtime))
            cells.append(r.error)
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    def to_json_dict(self) -> list[dict]:
        return [
            {
                "estimator": r.estimator,
                "distribution": r.distribution,
                "n": r.n,
                "trials": r.trials,
                "mean": r.mean,
                "std": r.std,
                "mse": r.mse,
                "normalization": r.normalization,
                "normalized_mse": r.normalized_mse,
                "seed": r.seed,
                "runtime": r.runtime,
                "error": r.error,
            }
            for r in self.rows
        ]


@dataclass(frozen=True)
class ConvergenceRow:
    s: int
    d: float
    t_d: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    t_ref: float
    rate_exponent: float | None

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("s,d,t_d\n")
        for r in self.rows:
            out.write(f"{r.s},{_fmt(r.d)},{_fmt(r.t_d)}\n")
        return out.getvalue()


def _poly_cache_key(kind: str, k: float, n: int, spec: est_mod.EstimatorSpec, extra=None):
    return (kind, k, n, spec.c0, spec.c1, spec.s, spec.tol, extra)


def _cell_estimates(spec, dist, n, fps, cache) -> list[float]:
    """Estimates for every trial fingerprint; RWC/WY coefficients are data
    independent and solved once, RWC-S solves once per distinct S_c."""
    k = dist.k
    kind = spec.kind
    if kind in ("naive", "gt"):
        return [est_mod.estimate(spec, fp, n, k).value for fp in fps]
    if kind == "wy":
        key = _poly_cache_key(kind, k, n, spec)
        if key not in cache:
            cache[key] = est_mod.wy_coefficients(k, n, spec.c0, spec.c1)
        p = cache[key]
        return [est_mod.apply_poly_estimator(fp, p) for fp in fps]
    if kind == "rwc":
        key = _poly_cache_key(kind, k, n, spec)
        if key not in cache:
            cache[key] = est_mod.rwc_coefficients(k, n, spec).coeffs
        p = cache[key]
        return [est_mod.apply_poly_estimator(fp, p) for fp in fps]
    # rwc-s: the regularizer depends on the per-trial naive count.  Nearby
    # counts give nearly the same minimax, so the uncached ones are solved in
    # ascending order, each starting from the previous solve's dual weights.
    counts = [est_mod.naive_count(fp) for fp in fps]
    coeffs, weights = {}, None
    for s_c in sorted(set(counts)):
        key = _poly_cache_key(kind, k, n, spec, extra=s_c)
        if key not in cache:
            result = est_mod.rwcs_coefficients(k, n, s_c, spec, init_weights=weights)
            cache[key] = result.coeffs
            weights = result.dual_weights
        coeffs[s_c] = cache[key]
    return [est_mod.apply_poly_estimator(fp, coeffs[s_c]) for fp, s_c in zip(fps, counts)]


def evaluate_risk(
    specs,
    dists,
    n_grid,
    trials: int,
    seed: int,
    normalization: str = "k2",
    n_mode: str = "absolute",
) -> RiskReport:
    """Monte-Carlo risk sweep over (estimator x distribution x n) cells.

    `n_mode="fraction"` reads each n_grid entry as a fraction of the
    distribution's class parameter k.  MSE is the population mean of squared
    errors against the true support, normalized by k^2 or S^2.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if normalization not in ("k2", "s2"):
        raise ValueError("normalization must be 'k2' or 's2'")
    dists = list(dists)
    specs = list(specs)
    cells = [
        (di, ni, int(round(nv * dists[di].k)) if n_mode == "fraction" else int(nv))
        for di in range(len(dists))
        for ni, nv in enumerate(n_grid)
    ]

    cache: dict = {}
    rows = []
    for di, ni, n in cells:
        dist = dists[di]
        fps = [
            data_mod.sample_fingerprint(dist, n, data_mod.child_seed(seed, di, ni, t))
            for t in range(trials)
        ]
        denom = dist.k**2 if normalization == "k2" else float(dist.support) ** 2
        for spec in specs:
            start = time.perf_counter()
            try:
                values = np.array(_cell_estimates(spec, dist, n, fps, cache))
            except (NonConvergenceError, RankDeficiencyError, ValueError) as exc:
                # a typed numerical or input failure marks the row and the sweep
                # goes on; any other exception is a bug and propagates
                rows.append(
                    RiskRow(
                        spec.kind, dist.label, n, trials,
                        math.nan, math.nan, math.nan, normalization, math.nan,
                        seed, time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            errors = values - dist.support
            mse = float(np.mean(errors**2))
            rows.append(
                RiskRow(
                    spec.kind, dist.label, n, trials,
                    float(values.mean()), float(values.std()), mse,
                    normalization, mse / denom, seed,
                    time.perf_counter() - start,
                )
            )

    rows.sort(key=lambda r: (r.estimator, r.distribution, r.n))
    return RiskReport(tuple(rows))


def grid_convergence_study(
    k: float, n: float, s_list, spec: est_mod.EstimatorSpec
) -> ConvergenceReport:
    """Solve the RWC instance on nested grids and fit the convergence rate.

    The finest grid supplies the reference optimum and is excluded from the
    log-log regression of (t_ref - t_d) against the spacing d.
    """
    s_list = sorted(int(s) for s in s_list)
    degree = est_mod.degree_for(k, spec.c0)
    interval = localized_interval(n, k, max(degree, 1))
    rows = []
    for s in s_list:
        grid = build_grid(interval, 1 if interval.degenerate else s)
        result = solve(SipProblem(degree, grid, 1.0 / k), tol=spec.tol, max_iter=spec.max_iter)
        rows.append(ConvergenceRow(s, grid.d, result.t_d))
    t_ref = rows[-1].t_d
    exponent = None
    if len(rows) >= 3:
        pts = [(r.d, t_ref - r.t_d) for r in rows[:-1] if t_ref - r.t_d > 0 and r.d > 0]
        if len(pts) >= 2:
            log_d = np.log([p[0] for p in pts])
            log_gap = np.log([p[1] for p in pts])
            exponent = float(np.polyfit(log_d, log_gap, 1)[0])
    return ConvergenceReport(tuple(rows), t_ref, exponent)


def bias_curve(p: Polynomial, interval: IntervalSpec, points: int, reg_weight: float = 0.0):
    """Dense table of (lambda, bias, variance_term, g) for plotting exports."""
    if interval.degenerate:
        lams = np.array([interval.lo])
    else:
        if points < 2:
            raise ValueError("points must be >= 2")
        lams = np.linspace(interval.lo, interval.hi, points)
    var, bias, g = objective_values(p, lams, reg_weight)
    return [
        {"lambda": float(l), "bias": float(b), "variance_term": float(v), "g": float(gg)}
        for l, b, v, gg in zip(lams, bias, var, g)
    ]


def bias_curve_to_csv(rows) -> str:
    out = io.StringIO()
    out.write("lambda,bias,variance_term,g\n")
    for r in rows:
        out.write(
            f"{_fmt(r['lambda'])},{_fmt(r['bias'])},{_fmt(r['variance_term'])},{_fmt(r['g'])}\n"
        )
    return out.getvalue()
