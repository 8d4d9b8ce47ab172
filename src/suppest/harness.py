"""Experiment engine: risk sweeps and grid-convergence studies.

Runs are driven entirely by (specs, distributions, n fractions, trials,
seed) and produce deterministic reports: per-trial samples are drawn from
splittable child seeds keyed by (distribution, n, trial), one sampling table
per (distribution, n) cell (`data.sample_fingerprints`), and cells run
serially in a fixed order.  Each cell's trials are estimated together by
`estimators.estimates`, which solves each coefficient set once and fixes the
order of the RWC-S warm chain.  Through the sweep's one cache it also carries
each spec's last two RWC or RWC-S solves from cell to cell, and each solve
first tries the secant through them, so the rwc and rwc-s statistics depend
on the cell order, within the solver's certificate.  Reports are plain
values with no wall-clock times, so repeated runs give equal reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod
from . import estimators as est_mod
from .sip import NonConvergenceError, RankDeficiencyError


@dataclass(frozen=True)
class RiskRow:
    estimator: str
    distribution: str
    n: int
    trials: int
    mean: float
    std: float
    mse: float
    nmse_k2: float  # mse / k^2, the scale RWC is compared with WY on
    nmse_s2: float  # mse / S^2, the scale RWC-S is compared with GT and naive on
    seed: int
    error: str = ""


@dataclass(frozen=True)
class RiskReport:
    rows: tuple[RiskRow, ...]


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


def evaluate_risk(specs, dists, n_fracs, trials: int, seed: int) -> RiskReport:
    """Monte-Carlo risk sweep over (estimator x distribution x n) cells.

    Each n_fracs entry is a sample size as a fraction of the distribution's
    class parameter k.  MSE is the mean of squared errors against the true
    support S; every row carries it normalized both by k^2 and by S^2.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cache: dict = {}
    rows = []
    for di, dist in enumerate(dists):
        for ni, frac in enumerate(n_fracs):
            n = frac * dist.k
            if not math.isfinite(n):
                raise ValueError(f"sample size n = {n:.6g} is too large to draw")
            n = int(round(n))
            seeds = [data_mod.child_seed(seed, di, ni, t) for t in range(trials)]
            fps = data_mod.sample_fingerprints(dist, n, seeds)
            for spec in specs:
                error = ""
                try:
                    values = np.array([r.value for r in est_mod.estimates(spec, fps, dist.k, cache)])
                except (NonConvergenceError, RankDeficiencyError, ValueError) as exc:
                    # a typed numerical or input failure marks the row with NaN
                    # statistics and the sweep goes on; any other exception is
                    # a bug and propagates
                    values = np.full(trials, math.nan)
                    error = f"{type(exc).__name__}: {exc}"
                mse = float(np.mean((values - dist.support) ** 2))
                rows.append(
                    RiskRow(
                        spec.kind, dist.label, n, trials, float(values.mean()), float(values.std()),
                        mse, mse / dist.k**2, mse / float(dist.support) ** 2, seed, error,
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
    if not s_list:
        raise ValueError("s_list must not be empty")
    rows = []
    for s in s_list:
        result = est_mod.rwc_coefficients(k, n, replace(spec, s=s))
        points = result.problem.points
        # the spacing of the solved grid; a point problem has one rate and spacing 0
        d = (points[-1] - points[0]) / (len(points) - 1) if len(points) > 1 else 0.0
        rows.append(ConvergenceRow(s, float(d), result.t_d))
    t_ref = rows[-1].t_d
    exponent = None
    if len(rows) >= 3:
        pts = [(r.d, t_ref - r.t_d) for r in rows[:-1] if t_ref - r.t_d > 0 and r.d > 0]
        if len(pts) >= 2:
            log_d = np.log([p[0] for p in pts])
            log_gap = np.log([p[1] for p in pts])
            exponent = float(np.polyfit(log_d, log_gap, 1)[0])
    return ConvergenceReport(tuple(rows), t_ref, exponent)

