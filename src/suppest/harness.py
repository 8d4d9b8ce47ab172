"""Experiment engine: risk sweeps and grid-convergence studies.

Runs are driven entirely by (specs, distributions, n fractions, trials,
seed) and produce deterministic reports: per-trial samples are drawn from
splittable child seeds keyed by (distribution, n, trial), cells run serially
in a fixed order, and within a cell the distinct RWC-S counts are solved in
sorted order, each warm-started from the previous solve.  The warm start makes
the stored coefficients depend on that order (within the solver tolerance),
which is why the order is fixed.  Reports carry no wall-clock times, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import data as data_mod
from . import estimators as est_mod
from .sip import NonConvergenceError, RankDeficiencyError


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
    nmse_k2: float  # mse / k^2, the scale RWC is compared with WY on
    nmse_s2: float  # mse / S^2, the scale RWC-S is compared with GT and naive on
    seed: int
    error: str = ""


@dataclass(frozen=True)
class RiskReport:
    rows: tuple[RiskRow, ...]

    def worst_case(self, estimator: str, normalization: str) -> float:
        """Max MSE / k^2 (normalization "k2") or MSE / S^2 ("s2") over the
        distribution suite for one estimator."""
        if normalization not in ("k2", "s2"):
            raise ValueError("normalization must be 'k2' or 's2'")
        values = [
            getattr(r, f"nmse_{normalization}")
            for r in self.rows
            if r.estimator == estimator and not r.error
        ]
        if not values:
            raise ValueError(f"no successful rows for estimator {estimator!r}")
        return max(values)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(f.name for f in fields(RiskRow)) + "\n")
        for r in self.rows:
            cells = (getattr(r, f.name) for f in fields(RiskRow))
            out.write(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in cells) + "\n")
        return out.getvalue()

    def to_json_dict(self) -> list[dict]:
        """Rows as dicts; a non-finite float, such as a failed row's NaN, becomes None (JSON null)."""
        return [
            {key: None if isinstance(v, float) and not math.isfinite(v) else v for key, v in asdict(r).items()}
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


def _cell_estimates(spec, dist, n, fps, cache) -> list[float]:
    """Estimates for every trial fingerprint.

    RWC coefficients are data independent and RWC-S ones depend on the trial
    only through its naive count S_c, so both are solved once per distinct
    S_c (None for RWC) and cached under (spec, k, n, S_c).  Nearby counts give
    nearly the same minimax, so the uncached ones are solved in ascending
    order, each starting from the previous solve's dual weights.
    """
    k = dist.k
    if spec.kind not in ("rwc", "rwc-s"):
        return [est_mod.estimate(spec, fp, k).value for fp in fps]
    counts = [est_mod.naive_count(fp) if spec.kind == "rwc-s" else None for fp in fps]
    weights = None
    for s_c in sorted(set(counts)):
        key = (spec, k, n, s_c)
        if key not in cache:
            if s_c is None:
                result = est_mod.rwc_coefficients(k, n, spec)
            else:
                result = est_mod.rwcs_coefficients(k, n, s_c, spec, init_weights=weights)
            cache[key] = result.coeffs
            weights = result.dual_weights
    return [
        est_mod.apply_poly_estimator(fp, cache[spec, k, n, s_c]) for fp, s_c in zip(fps, counts)
    ]


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
            n = int(round(frac * dist.k))
            fps = [
                data_mod.sample_fingerprint(dist, n, data_mod.child_seed(seed, di, ni, t))
                for t in range(trials)
            ]
            for spec in specs:
                error = ""
                try:
                    values = np.array(_cell_estimates(spec, dist, n, fps, cache))
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
        rows.append(ConvergenceRow(s, result.problem.grid.d, result.t_d))
    t_ref = rows[-1].t_d
    exponent = None
    if len(rows) >= 3:
        pts = [(r.d, t_ref - r.t_d) for r in rows[:-1] if t_ref - r.t_d > 0 and r.d > 0]
        if len(pts) >= 2:
            log_d = np.log([p[0] for p in pts])
            log_gap = np.log([p[1] for p in pts])
            exponent = float(np.polyfit(log_d, log_gap, 1)[0])
    return ConvergenceReport(tuple(rows), t_ref, exponent)

