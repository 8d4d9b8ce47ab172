"""Support estimators: RWC, RWC-S, the WY Chebyshev baseline, Good-Turing
and naive counting.

Polynomial-class estimators all have the form S_hat = sum_j h_j * g(j) with
g(j) = a_j * j! + 1 for counts j <= L and 1 beyond, differing only in how the
coefficients a are chosen.  WY takes the shifted Chebyshev coefficients on
[n/k, c1 ln k]; RWC solves the regularized weighted minimax with variance
weight 1/k; RWC-S re-weights by 1 over the naive count from the same sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Fingerprint
from .poly import Polynomial, g_values, shifted_cheb_coeffs
from .sip import TOL, SipProblem, SolveResult, build_grid, localized_interval, solve

KINDS = ("rwc", "rwc-s", "wy", "gt", "naive")


class IntervalCollapseError(ValueError):
    """WY interval [n/k, c1 ln k] is empty; fall back to naive counting."""


class CoverageZeroError(ValueError):
    """All observed symbols are singletons, so the Good-Turing coverage is 0."""


@dataclass(frozen=True)
class EstimatorSpec:
    kind: str
    c0: float = 0.558
    c1: float = 0.5
    s: int = 1000
    tol: float = TOL
    fallback_to_naive: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}, expected one of {KINDS}")
        if self.c0 <= 0 or self.c1 <= 0:
            raise ValueError("c0 and c1 must be positive")
        if self.s < 2:
            raise ValueError("grid size s must be >= 2")


@dataclass(frozen=True)
class EstimateResult:
    value: float
    diagnostics: dict = field(default_factory=dict)


def degree_for(k: float, c0: float = EstimatorSpec.c0) -> int:
    """L = floor(c0 * ln k); natural logarithm throughout."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return int(math.floor(c0 * math.log(k)))


def wy_coefficients(k: float, n: float, c0: float = EstimatorSpec.c0, c1: float = EstimatorSpec.c1) -> Polynomial:
    """Shifted Chebyshev coefficients on [n/k, c1 ln k] with L = floor(c0 ln k)."""
    degree = degree_for(k, c0)
    lo = n / k
    hi = c1 * math.log(k)
    if hi <= lo:
        raise IntervalCollapseError(
            f"approximation interval collapsed: n/k = {lo:.6g} >= c1 ln k = {hi:.6g}"
        )
    if degree < 1:
        raise ValueError(f"k={k} too small: c0 ln k must be >= 1")
    return shifted_cheb_coeffs(degree, lo, hi)


def _solve_weighted(
    k: float, n: float, count: float, spec: EstimatorSpec, init_weights: np.ndarray | None = None
) -> SolveResult:
    """Solve with variance weight 1 / count, after degree_for has rejected k < 2."""
    degree = degree_for(k, spec.c0)
    problem = SipProblem(degree, build_grid(localized_interval(n, k, degree), spec.s), 1.0 / count)
    return solve(problem, tol=spec.tol, init_weights=init_weights)


def rwc_coefficients(k: float, n: float, spec: EstimatorSpec) -> SolveResult:
    """Solve the discretized minimax with variance weight 1/k."""
    return _solve_weighted(k, n, k, spec)


def rwcs_coefficients(
    k: float, n: float, s_count: float, spec: EstimatorSpec, init_weights: np.ndarray | None = None
) -> SolveResult:
    """RWC variant with variance weight 1 over the naive counting estimate.

    `init_weights` warm-starts the solver from the dual weights of an earlier
    solve on the same (k, n, spec) grid, such as a neighbouring count; the
    result is certified to the same tolerance either way.
    """
    if s_count < 1:
        raise ValueError(f"counting estimate must be >= 1, got {s_count}")
    return _solve_weighted(k, n, s_count, spec, init_weights)


def apply_poly_estimator(fp: Fingerprint, p: Polynomial) -> float:
    """S_hat = sum_j h_j * g(j); unseen symbols contribute 0 since g(0) = 0."""
    per_count, tail = g_values(p)
    degree = p.degree
    total = 0.0
    for j, hj in fp.h.items():
        total += hj * (per_count[j] if j <= degree else tail)
    return total


def naive_count(fp: Fingerprint) -> float:
    """Number of distinct observed symbols."""
    return float(fp.distinct)


def good_turing(fp: Fingerprint) -> float:
    """Naive count divided by the estimated coverage 1 - h1/n."""
    n = fp.n
    if n < 1:
        raise ValueError("n must be >= 1")
    h1 = fp.h.get(1, 0)
    if h1 >= n:
        raise CoverageZeroError("all observed symbols are singletons (h1 = n)")
    return naive_count(fp) / (1.0 - h1 / n)


def estimate(spec: EstimatorSpec, fp: Fingerprint, k: float) -> EstimateResult:
    """Dispatch to the requested estimator and apply it to the fingerprint;
    the sample size n is fp.n."""
    n = fp.n
    if spec.kind == "naive":
        return EstimateResult(naive_count(fp))
    try:
        if spec.kind == "gt":
            return EstimateResult(good_turing(fp))
        if spec.kind == "wy":
            return EstimateResult(apply_poly_estimator(fp, wy_coefficients(k, n, spec.c0, spec.c1)))
    except (CoverageZeroError, IntervalCollapseError):
        if spec.fallback_to_naive:
            return EstimateResult(naive_count(fp), diagnostics={"fallback": "naive"})
        raise
    if spec.kind == "rwc":
        result = rwc_coefficients(k, n, spec)
    else:  # rwc-s
        s_c = naive_count(fp)
        result = rwcs_coefficients(k, n, s_c, spec)
    diagnostics = {
        "degree": result.coeffs.degree,
        "t_d": result.t_d,
        "duality_gap": result.duality_gap,
        "iterations": result.iterations,
    }
    if spec.kind == "rwc-s":
        diagnostics["s_count"] = s_c
    return EstimateResult(apply_poly_estimator(fp, result.coeffs), diagnostics)
