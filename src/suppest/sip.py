"""Discretized semi-infinite program for the minimax coefficient problem.

The continuous problem is min over a (a_0 = -1) of the sup over an interval of
rates of g(a, lambda).  We localize the interval, replace it with a uniform
grid, and solve the resulting finite minimax

    min_a  max_i  h_i(a),   h_i(a) = a^T (M(lam_i) + Lam_i Lam_i^T) a

by entropic mirror ascent on the dual simplex weights with an exact inner
minimization (a dense positive-definite solve in the L free coordinates),
periodically accelerated by a Newton step on the active set.  Every iterate
yields a primal/dual pair and hence a true duality-gap certificate: for any
simplex weights w, q(w) = min_a sum_i w_i h_i(a) lower-bounds the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial, objective_values

# Beyond lambda = 6.5 * L the objective decreases in lambda for every
# degree-L coefficient vector, so the optimization interval can stop there.
LOCALIZATION_FACTOR = 6.5


class InvalidGridError(ValueError):
    pass


class RankDeficiencyError(RuntimeError):
    """Aggregate matrix is not numerically positive definite.

    Unregularized problems hit this on too coarse a grid; regularized ones
    when the variance weight is too small to lift it, as at k = 1e20.
    """


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted; `best` carries the best certified iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class IntervalSpec:
    lo: float
    hi: float
    degenerate: bool = False

    def __post_init__(self):
        if not (0.0 < self.lo <= self.hi):
            raise ValueError(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")
        if self.degenerate and self.lo != self.hi:
            raise ValueError("degenerate interval must have lo == hi")


@dataclass(frozen=True, eq=False)
class GridSpec:
    interval: IntervalSpec
    s: int
    points: np.ndarray
    d: float


@dataclass(frozen=True, eq=False)
class SipProblem:
    degree: int
    grid: GridSpec
    reg_weight: float

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.reg_weight < 0.0:
            raise ValueError("reg_weight must be >= 0")
        if self.reg_weight == 0.0 and self.grid.s < self.degree + 2:
            raise ValueError(
                f"unregularized problem needs s >= L + 2 grid points, got s={self.grid.s}"
            )


@dataclass(frozen=True, eq=False)
class SolveResult:
    coeffs: Polynomial
    t_d: float
    duality_gap: float
    iterations: int
    dual_weights: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "coeffs": [format(c, ".17g") for c in self.coeffs.coeffs],
            "t_d": format(self.t_d, ".17g"),
            "duality_gap": format(self.duality_gap, ".17g"),
            "iterations": self.iterations,
        }


def localized_interval(n: float, k: float, degree: int) -> IntervalSpec:
    """Interval [n/k, 6.5 L], collapsing to the single point n/k past 6.5 L."""
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    lo = n / k
    hi = LOCALIZATION_FACTOR * degree
    if lo < hi:
        return IntervalSpec(lo, hi)
    return IntervalSpec(lo, lo, degenerate=True)


def mrs_interval(n: float, k: float, degree: int) -> IntervalSpec:
    """Interval [n/k, n/k + pi L / 2] from the Mhaskar-Rakhmanov-Saff number.

    Valid localization for the unregularized (pure bias) problem only.
    """
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    lo = n / k
    return IntervalSpec(lo, lo + math.pi * degree / 2.0)


def build_grid(interval: IntervalSpec, s: int) -> GridSpec:
    """Uniform grid including both endpoints (boundary inclusion is required
    for the discretization-rate guarantees to apply)."""
    if interval.degenerate:
        if s != 1:
            raise InvalidGridError("degenerate interval takes exactly one grid point")
        return GridSpec(interval, 1, np.array([interval.lo]), 0.0)
    if s < 2:
        raise InvalidGridError(f"need s >= 2 grid points, got {s}")
    points = np.linspace(interval.lo, interval.hi, s)
    d = (interval.hi - interval.lo) / (s - 1)
    return GridSpec(interval, s, points, d)


class _QuadData:
    """Per-grid-point quadratic forms of the free coordinates b = a_1..a_L.

    Internally the variables are rescaled, b_l -> b_l * mu^l with mu half the
    right endpoint, which keeps the Vandermonde-like blocks well conditioned.
    h_i(b) = b^T Q_i b - 2 c_i^T b + r_i in the scaled variables.
    """

    def __init__(self, problem: SipProblem):
        lams = problem.grid.points
        degree = problem.degree
        self.degree = degree
        self.s = len(lams)
        self.mu = max(problem.grid.interval.hi / 2.0, problem.grid.interval.lo)
        ells = np.arange(degree + 1)
        log_lam = np.log(lams)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, degree + 1))))) if degree else np.array([0.0])
        log_mu = math.log(self.mu)
        # scaled exp(-lam) * (lam/mu)^l
        v = np.exp(np.outer(log_lam - log_mu, ells) - lams[:, None])
        # scaled variance diagonal: reg * exp(-lam) * lam^l l! / mu^(2l)
        m = problem.reg_weight * np.exp(
            np.outer(log_lam - 2.0 * log_mu, ells) + log_fact - lams[:, None]
        )
        self.r = m[:, 0] + v[:, 0] ** 2
        if degree == 0:
            self.Q = np.zeros((len(lams), 0, 0))
            self.c = np.zeros((len(lams), 0))
        else:
            vb = v[:, 1:]
            self.Q = vb[:, :, None] * vb[:, None, :]
            idx = np.arange(degree)
            self.Q[:, idx, idx] += m[:, 1:]
            self.c = v[:, 0:1] * vb

    def aggregate(self, w: np.ndarray):
        qbar = np.tensordot(w, self.Q, axes=1)
        cbar = w @ self.c
        rbar = float(w @ self.r)
        return qbar, cbar, rbar

    def h_all(self, b: np.ndarray) -> np.ndarray:
        if self.degree == 0:
            return self.r.copy()
        qb = self.Q @ b
        return qb @ b - 2.0 * (self.c @ b) + self.r

    def h_all_at(self, b: np.ndarray, idx: np.ndarray) -> np.ndarray:
        if self.degree == 0:
            return self.r[idx].copy()
        qb = self.Q[idx] @ b
        return qb @ b - 2.0 * (self.c[idx] @ b) + self.r[idx]

    def unscale(self, b: np.ndarray) -> Polynomial:
        coeffs = np.empty(self.degree + 1)
        coeffs[0] = -1.0
        if self.degree:
            coeffs[1:] = b / self.mu ** np.arange(1, self.degree + 1)
        return Polynomial(tuple(coeffs))


def _dual_solve(data: _QuadData, w: np.ndarray):
    """Exact inner minimization: b*(w) and the dual value q(w)."""
    qbar, cbar, rbar = data.aggregate(w)
    if data.degree == 0:
        return np.zeros(0), rbar
    try:
        ch = np.linalg.cholesky(qbar)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            "aggregate matrix is not numerically positive definite; "
            "increase the grid size or use a smaller k"
        ) from None
    y = np.linalg.solve(ch, cbar)
    b = np.linalg.solve(ch.T, y)
    return b, rbar - float(cbar @ b)


def _peak_indices(h: np.ndarray, limit: int) -> np.ndarray:
    """Local maxima of the constraint values (endpoints included), strongest
    first; these are the candidate active points of the minimax."""
    if len(h) <= 2:
        return np.argsort(h)[::-1]
    interior = np.flatnonzero((h[1:-1] >= h[:-2]) & (h[1:-1] >= h[2:])) + 1
    peaks = np.unique(np.concatenate(([0, len(h) - 1], interior)))
    order = np.argsort(h[peaks])[::-1]
    return peaks[order][:limit]


def _face_newton(data, cand, ws, tol, max_rounds=60):
    """Maximize the dual restricted to the face spanned by `cand`.

    Newton on the stationarity system (equal h_i across the support plus the
    simplex constraint), globalized by a backtracking line search on the dual
    value; quadratically convergent near the face optimum.  Returns
    (w_full, rounds) for the best weights found, or (None, rounds).
    """
    s = data.s
    cand = np.asarray(cand, dtype=int)
    ws = np.maximum(np.asarray(ws, dtype=float), 1e-16)
    ws = ws / ws.sum()

    def full(weights, idx):
        w = np.zeros(s)
        w[idx] = weights
        return w

    try:
        _, q = _dual_solve(data, full(ws, cand))
    except RankDeficiencyError:
        return None, 1
    rounds = 1
    for _ in range(max_rounds):
        wfull = full(ws, cand)
        try:
            b, q = _dual_solve(data, wfull)
        except RankDeficiencyError:
            return None, rounds
        hs = data.h_all_at(b, cand)
        t_est = float(ws @ hs)
        resid = float(np.max(np.abs(hs - t_est)))
        if resid <= max(1e-16 * max(abs(t_est), 1.0), 1e-3 * tol):
            return wfull, rounds
        # prune candidates pinned at zero that want to stay below the max
        keep = (ws > 1e-14) | (hs >= t_est - 1e-12 * max(abs(t_est), 1.0))
        if not keep.all() and keep.sum() >= 1:
            cand, ws = cand[keep], ws[keep]
            ws = ws / ws.sum()
            continue
        m = len(cand)
        if m == 1:
            return wfull, rounds
        # Jacobian of h_i(b*(w)) wrt w_j is -2 g_i^T Qbar^{-1} g_j
        qbar, _, _ = data.aggregate(wfull)
        g = data.Q[cand] @ b - data.c[cand]
        try:
            x = np.linalg.solve(qbar, g.T)
        except np.linalg.LinAlgError:
            return None, rounds
        jac = -2.0 * g @ x
        # Levenberg-style damping: escalates when near-coincident candidates
        # make the Newton system ill conditioned
        damping = 0.0
        damping_unit = max(float(np.abs(jac).max()), 1e-300)
        accepted = False
        for _ in range(10):
            kkt = np.zeros((m + 1, m + 1))
            kkt[:m, :m] = jac - damping * np.eye(m)
            kkt[:m, m] = -1.0
            kkt[m, :m] = 1.0
            rhs = np.concatenate([t_est - hs, [0.0]])
            try:
                dw = np.linalg.solve(kkt, rhs)[:m]
            except np.linalg.LinAlgError:
                dw = None
            if dw is not None and np.all(np.isfinite(dw)):
                alpha = 1.0
                scale = max(abs(q), 1.0)
                for _ in range(40):
                    trial = np.maximum(ws + alpha * dw, 0.0)
                    total = trial.sum()
                    if total > 0:
                        trial = trial / total
                        rounds += 1
                        try:
                            b_try, q_try = _dual_solve(data, full(trial, cand))
                        except RankDeficiencyError:
                            q_try = -np.inf
                        # take the step on clear dual progress, or near the
                        # optimum (dual increments below double precision) on
                        # residual progress, which is what the primal needs
                        if q_try > q + 1e-15 * scale:
                            ws = trial
                            accepted = True
                            break
                        if q_try >= q - 1e-14 * scale:
                            hs_try = data.h_all_at(b_try, cand)
                            t_try = float(trial @ hs_try)
                            if float(np.max(np.abs(hs_try - t_try))) < 0.9 * resid:
                                ws = trial
                                accepted = True
                                break
                    alpha *= 0.5
            if accepted:
                break
            damping = damping_unit * 1e-8 if damping == 0.0 else damping * 100.0
        if not accepted:
            return full(ws, cand), rounds
    return full(ws, cand), rounds


def solve(
    problem: SipProblem,
    tol: float = 1e-8,
    max_iter: int = 200_000,
    init_weights: np.ndarray | None = None,
) -> SolveResult:
    """Minimize the grid maximum of g with a certified duality gap <= tol.

    `init_weights` seeds the dual simplex iterate (uniform when omitted); the
    optimum is unique, so different initializations agree to solver accuracy.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    data = _QuadData(problem)
    s = problem.grid.s
    unreg = problem.reg_weight == 0.0

    if init_weights is None:
        w = np.full(s, 1.0 / s)
    else:
        w = np.asarray(init_weights, dtype=float)
        if w.shape != (s,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("init_weights must be a nonnegative vector over the grid")
        w = w / w.sum()
        if unreg:
            # keep enough support for the rank-L aggregate to stay invertible
            w = 0.999 * w + 0.001 / s

    if problem.degree == 0:
        # no free variables: the maximum sits at a single grid point
        i = int(np.argmax(data.r))
        dual = np.zeros(s)
        dual[i] = 1.0
        return SolveResult(Polynomial((-1.0,)), float(data.r[i]), 0.0, 0, dual)

    def evaluate(wvec):
        b, q = _dual_solve(data, wvec)
        h = data.h_all(b)
        return b, q, h, float(h.max())

    b, q, h, primal = evaluate(w)
    best = (primal - q, b, w.copy(), primal)
    eta = 1.0 / max(primal - float(h.min()), 1e-300)
    iterations = 0
    stalled = 0

    while iterations < max_iter and best[0] > tol:
        # exchange step: Newton ascent of the dual on the face spanned by the
        # current support plus the peaks of the constraint values
        support = np.argsort(w)[::-1][: problem.degree + 1]
        support = support[w[support] > 1e-9]
        cand = np.unique(np.concatenate([_peak_indices(h, problem.degree + 1), support]))
        wn, rounds = _face_newton(data, cand, np.maximum(w[cand], 1e-12), tol)
        iterations += rounds
        improved = False
        if wn is not None:
            if unreg:
                # keep full support so the aggregate matrix stays invertible
                wn = (1.0 - 1e-12) * wn + 1e-12 / s
            try:
                bn, qn, hn, pn = evaluate(wn)
            except RankDeficiencyError:
                bn = None
            if bn is not None:
                if pn - qn < best[0]:
                    best = (pn - qn, bn, wn.copy(), pn)
                if qn > q:
                    w, b, q, h, primal = wn, bn, qn, hn, pn
                    improved = True
        if best[0] <= tol:
            break
        stalled = 0 if improved else stalled + 1
        if stalled > 40:
            break
        # a few entropic mirror ascent steps to move the active face
        for _ in range(5):
            if best[0] <= tol or iterations >= max_iter:
                break
            iterations += 1
            stepped = False
            for _ in range(60):
                wn = w * np.exp(np.clip(eta * (h - primal), -700.0, 0.0))
                if unreg:
                    wn = np.maximum(wn, 1e-250)
                total = wn.sum()
                if not np.isfinite(total) or total <= 0:
                    eta *= 0.5
                    continue
                wn /= total
                try:
                    bn, qn, hn, pn = evaluate(wn)
                except RankDeficiencyError:
                    eta *= 0.5
                    continue
                if pn - qn < best[0]:
                    best = (pn - qn, bn, wn.copy(), pn)
                if qn >= q - 1e-18 * max(abs(q), 1.0):
                    w, b, q, h, primal = wn, bn, qn, hn, pn
                    eta *= 1.2
                    stepped = True
                    break
                eta *= 0.5
            if not stepped:
                break

    gap, b_best, w_best, _ = best
    coeffs = data.unscale(b_best)
    # report the primal value through the same evaluation path callers use
    t_d = float(objective_values(coeffs, problem.grid.points, problem.reg_weight)[2].max())
    gap = max(t_d - (_dual_solve(data, w_best)[1]), 0.0)
    result = SolveResult(coeffs, t_d, gap, iterations, w_best)
    if gap > tol:
        raise NonConvergenceError(
            f"duality gap {gap:.3e} above tolerance {tol:.3e} after {iterations} iterations",
            best=result,
        )
    return result


def certify(result: SolveResult, problem: SipProblem, oversample: int) -> float:
    """Max of the objective on an `oversample`-times finer grid (discretization
    slack diagnostic: the excess over t_d estimates the grid truncation)."""
    if oversample < 2:
        raise ValueError("oversample must be >= 2")
    interval = problem.grid.interval
    if interval.degenerate:
        fine = problem.grid.points
    else:
        fine = np.linspace(interval.lo, interval.hi, (problem.grid.s - 1) * oversample + 1)
    return float(objective_values(result.coeffs, fine, problem.reg_weight)[2].max())
