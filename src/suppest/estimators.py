"""Support estimators: RWC, RWC-S, the WY Chebyshev baseline, Good-Turing
and naive counting.

Polynomial-class estimators all have the form S_hat = sum_j h_j * g(j) with
g(j) = a_j * j! + 1 for counts j <= L and 1 beyond, differing only in how the
coefficients a are chosen, which `coefficients` does for all three.  WY takes
the shifted Chebyshev coefficients on [n/k, c1 ln k]; RWC solves the
regularized weighted minimax with variance weight 1/k; RWC-S re-weights by 1
over the naive count from the same sample.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

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
        if not (math.isfinite(self.c0) and math.isfinite(self.c1)):
            raise ValueError("c0 and c1 must be finite")
        if not isinstance(self.s, numbers.Integral):
            raise ValueError(f"grid size s must be an integer, got {self.s!r}")
        if self.s < 2:
            raise ValueError("grid size s must be >= 2")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not math.isfinite(self.tol):
            raise ValueError("tol must be finite")


@dataclass(frozen=True)
class EstimateResult:
    value: float
    diagnostics: dict = field(default_factory=dict)


def degree_for(k: float, c0: float = EstimatorSpec.c0) -> int:
    """L = floor(c0 * ln k); natural logarithm throughout."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    return int(math.floor(c0 * math.log(k)))


def wy_coefficients(k: float, n: float, spec: EstimatorSpec) -> tuple[Polynomial, tuple[float, float]]:
    """Shifted Chebyshev coefficients with L = floor(c0 ln k) on the interval
    [n/k, c1 ln k], and that interval as (lo, hi)."""
    degree = degree_for(k, spec.c0)
    lo = n / k
    hi = spec.c1 * math.log(k)
    if hi <= lo:
        raise IntervalCollapseError(
            f"approximation interval collapsed: n/k = {lo:.6g} >= c1 ln k = {hi:.6g}"
        )
    if degree < 1:
        raise ValueError(f"k={k} too small: c0 ln k must be >= 1")
    return shifted_cheb_coeffs(degree, lo, hi), (lo, hi)


def _solve_weighted(k: float, n: float, count: float, spec: EstimatorSpec, warm, guess) -> SolveResult:
    """Solve with variance weight 1 / count, after degree_for has rejected k < 2."""
    degree = degree_for(k, spec.c0)
    problem = SipProblem(degree, build_grid(*localized_interval(n, k, degree), spec.s), 1.0 / count)
    return solve(problem, tol=spec.tol, warm=warm, guess=guess)


def rwc_coefficients(
    k: float, n: float, spec: EstimatorSpec, warm: SolveResult | None = None, guess=None
) -> SolveResult:
    """Solve the discretized minimax with variance weight 1/k; `warm` and
    `guess` as for `rwcs_coefficients`."""
    return _solve_weighted(k, n, k, spec, warm, guess)


def rwcs_coefficients(
    k: float, n: float, s_count: float, spec: EstimatorSpec, warm: SolveResult | None = None, guess=None
) -> SolveResult:
    """RWC variant with variance weight 1 over the naive counting estimate.

    `warm`, an earlier solve on a grid of the same size (such as a
    neighbouring count's on the same (k, n, spec) grid), and `guess`, dual
    weights over the grid to try first, start the solver (see `sip.solve`);
    the result is certified to the same tolerance either way.
    """
    if not s_count >= 1:
        raise ValueError(f"counting estimate must be >= 1, got {s_count}")
    if not math.isfinite(s_count):  # it would solve at variance weight 0
        raise ValueError(f"counting estimate must be finite, got {s_count}")
    return _solve_weighted(k, n, s_count, spec, warm, guess)


def coefficients(
    spec: EstimatorSpec, k: float, n: float, s_count: float | None = None, warm: SolveResult | None = None, guess=None
) -> tuple[Polynomial, tuple[float, float], SolveResult | None]:
    """The polynomial of a polynomial-class estimator at (k, n), the interval
    (lo, hi) it approximates on, and the solve behind it (None for WY).

    RWC-S reads `s_count`, its naive counting estimate; `warm` and `guess`
    start an RWC or RWC-S solve as for `rwcs_coefficients`.
    """
    if spec.kind == "wy":
        p, interval = wy_coefficients(k, n, spec)
        return p, interval, None
    if spec.kind == "rwc":
        result = rwc_coefficients(k, n, spec, warm, guess)
    elif spec.kind == "rwc-s":
        if s_count is None:
            raise ValueError("rwc-s needs s_count, the naive counting estimate")
        result = rwcs_coefficients(k, n, s_count, spec, warm, guess)
    else:
        raise ValueError(f"{spec.kind} is not a polynomial estimator")
    points = result.problem.points
    return result.coeffs, (points[0], points[-1]), result


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


def _naive_fallback(spec: EstimatorSpec, fps, exc: ValueError) -> list[EstimateResult]:
    """Naive counts in place of an estimator that failed with `exc`, or `exc`
    again when the spec does not fall back."""
    if not spec.fallback_to_naive:
        raise exc
    return [EstimateResult(naive_count(fp), {"fallback": "naive"}) for fp in fps]


def estimate(spec: EstimatorSpec, fp: Fingerprint, k: float) -> EstimateResult:
    """Apply the requested estimator to one fingerprint; the sample size n is fp.n."""
    return estimates(spec, [fp], k, {})[0]


def estimates(spec: EstimatorSpec, fps, k: float, cache: dict) -> list[EstimateResult]:
    """Apply the requested estimator to fingerprints that share one sample size n.

    WY and RWC coefficients are data independent and RWC-S ones depend on a
    fingerprint only through its naive count S_c, so each is solved once per
    distinct S_c (None for WY and RWC) and kept in `cache` under (spec, k, n, S_c).
    The uncached RWC-S counts are solved in ascending order, each warm-started
    from the previous solve.  Under `spec`, `cache` also keeps the variance
    weights and dual weights of the last two RWC or RWC-S solves of the spec,
    in this call or an earlier one; each solve first tries the secant through
    them (`_secant`).  The coefficients depend on the order of the solves
    (within the solver tolerance), which is why it is fixed.  A count solved
    in this call shares one diagnostics dict among its results; one found in
    `cache` has none.
    """
    if spec.kind == "naive":
        return [EstimateResult(naive_count(fp)) for fp in fps]
    if spec.kind == "gt":
        results = []
        for fp in fps:
            try:
                results.append(EstimateResult(good_turing(fp)))
            except CoverageZeroError as exc:
                results += _naive_fallback(spec, [fp], exc)
        return results
    if not fps:
        return []
    n = fps[0].n
    counts = [naive_count(fp) if spec.kind == "rwc-s" else None for fp in fps]
    diagnostics = {}
    record = cache.setdefault(spec, [])
    warm = None
    for s_c in sorted(set(counts)):
        if (spec, k, n, s_c) in cache:
            continue
        guess = _secant(record, k if s_c is None else s_c, spec.s)
        try:
            p, _, warm = coefficients(spec, k, n, s_c, warm, guess)
        except IntervalCollapseError as exc:
            return _naive_fallback(spec, fps, exc)
        cache[spec, k, n, s_c] = p
        if warm is None:  # WY, which solves nothing
            continue
        record[:] = [*record[-1:], (warm.problem.reg_weight, warm.dual_weights)]
        diagnostics[s_c] = {
            "degree": warm.coeffs.degree,
            "t_d": warm.t_d,
            "duality_gap": warm.duality_gap,
            "iterations": warm.iterations,
        }
        if s_c is not None:
            diagnostics[s_c]["s_count"] = s_c
    return [
        EstimateResult(apply_poly_estimator(fp, cache[spec, k, n, s_c]), diagnostics.get(s_c, {}))
        for fp, s_c in zip(fps, counts)
    ]


def _secant(record: list, count: float, s: int):
    """Dual weights at variance weight 1 / count on the secant through the
    two (variance weight, dual weights) pairs of `record`, clipped at 0, or
    None unless the pairs are at two weights on grids of s rates (and the
    count is positive; the solve rejects the others).  The pairs' weights
    sum to 1, so the clipped secant sums to at least 1.  The optimal duals
    move smoothly with the weight, so between neighbouring weights the
    secant often certifies at once."""
    if len(record) < 2 or not count > 0:
        return None
    (r1, w1), (r2, w2) = record
    if r1 == r2 or len(w1) != s or len(w2) != s:
        return None
    guess = (w2 - w1) * ((1.0 / count - r2) / (r2 - r1))
    guess += w2
    return guess.clip(0.0, None, out=guess)
