"""Discretized semi-infinite program for the minimax coefficient problem.

The continuous problem is min over a (a_0 = -1) of the sup over an interval of
rates of g(a, lambda).  We localize the interval, replace it with a uniform
grid, and solve the resulting finite minimax in the free coordinates
b = a_1..a_L,

    min_{b, t}  t   subject to   h_i(b) <= t,
    h_i(b) = (V_i b - v0_i)^2 + M_i . b^2 + m0_i   (squared bias + variance),

a convex program with L + 1 variables, by a Mehrotra predictor-corrector
primal-dual interior-point method.  Each Newton system is (L+1) x (L+1),
assembled in O(s L^2).  Every iterate yields a primal/dual pair and hence a
true duality-gap certificate: for any simplex weights w,
q(w) = min_b sum_i w_i h_i(b) lower-bounds the optimum, and it is evaluated
through a Householder QR least-squares residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial, _log_factorials, g_values, objective_values

# Beyond lambda = 6.5 * L the objective decreases in lambda for every
# degree-L coefficient vector, so the optimization interval can stop there.
LOCALIZATION_FACTOR = 6.5

# Interior-point iteration budget: four times the most (25) that any cell of
# the supported domain needs.
MAX_ITER = 100

# Certified duality-gap tolerance of a solve.
TOL = 1e-8


class InvalidGridError(ValueError):
    pass


class RankDeficiencyError(RuntimeError):
    """Aggregate matrix is not numerically positive definite.

    The aggregate matrix sum_i w_i (V_i V_i^T + diag M_i) of the dual weights,
    equilibrated on its diagonal, must admit a Cholesky factorization, or
    the minimizer b*(w) is not determined in double precision.  Unregularized
    problems hit this on too coarse a grid; regularized ones from about
    k = 1e17 (L >= 21), where the monomial columns become numerically
    dependent and the variance weight 1/k is too small to lift them.
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

    def __post_init__(self):
        if not (0.0 < self.lo <= self.hi):
            raise ValueError(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def degenerate(self) -> bool:
        """A point interval, discretized by its single point."""
        return self.lo == self.hi


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
    problem: SipProblem
    coeffs: Polynomial
    t_d: float
    duality_gap: float
    iterations: int
    dual_weights: np.ndarray

    def to_json_dict(self) -> dict:
        """The solved problem and its certified solution, floats as %.17g."""
        interval = self.problem.grid.interval
        per_count, tail = g_values(self.coeffs)
        return {
            "degree": self.problem.degree,
            "reg_weight": format(self.problem.reg_weight, ".17g"),
            "interval": [format(interval.lo, ".17g"), format(interval.hi, ".17g")],
            "grid_points": self.problem.grid.s,
            "g_values": [format(g, ".17g") for g in per_count],
            "g_tail": format(tail, ".17g"),
            "coeffs": [format(c, ".17g") for c in self.coeffs.coeffs],
            "t_d": format(self.t_d, ".17g"),
            "duality_gap": format(self.duality_gap, ".17g"),
            "iterations": self.iterations,
        }


def localized_interval(n: float, k: float, degree: int) -> IntervalSpec:
    """Interval [n/k, 6.5 L], collapsing to the single point n/k past 6.5 L
    (so always for L = 0)."""
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lo = n / k
    hi = LOCALIZATION_FACTOR * degree
    if lo < hi:
        return IntervalSpec(lo, hi)
    return IntervalSpec(lo, lo)


def build_grid(interval: IntervalSpec, s: int) -> GridSpec:
    """Uniform grid including both endpoints (boundary inclusion is required
    for the discretization-rate guarantees to apply); a point interval is its
    single point, whatever s is."""
    if interval.degenerate:
        return GridSpec(interval, 1, np.array([interval.lo]), 0.0)
    if s < 2:
        raise InvalidGridError(f"need at least 2 grid points, got {s}")
    points = np.linspace(interval.lo, interval.hi, s)
    d = (interval.hi - interval.lo) / (s - 1)
    return GridSpec(interval, s, points, d)


class _QuadData:
    """Per-grid-point data of the constraint functions of b = a_1..a_L.

    h_i(b) = (V_i b - v0_i)^2 + M_i . b^2 + m0_i: the squared bias plus the
    variance term at rate lam_i.  The variables are rescaled, b_l -> b_l mu^l
    with mu half the right endpoint, which keeps the Vandermonde-like columns
    of V well conditioned.
    """

    def __init__(self, problem: SipProblem):
        lams = problem.grid.points
        degree = problem.degree
        self.degree = degree
        self.mu = max(problem.grid.interval.hi / 2.0, problem.grid.interval.lo)
        ells = np.arange(degree + 1)
        log_lam = np.log(lams)
        log_mu = math.log(self.mu)
        # scaled exp(-lam) * (lam/mu)^l
        v = np.exp(np.outer(log_lam - log_mu, ells) - lams[:, None])
        # scaled variance diagonal: reg * exp(-lam) * lam^l l! / mu^(2l)
        m = problem.reg_weight * np.exp(
            np.outer(log_lam - 2.0 * log_mu, ells) + _log_factorials(degree) - lams[:, None]
        )
        self.v0, self.V = v[:, 0], v[:, 1:]
        self.m0, self.M = m[:, 0], m[:, 1:]

    def values(self, b: np.ndarray):
        """Constraint values h and bias residuals V b - v0 at b."""
        res = self.V @ b - self.v0
        return res * res + self.M @ (b * b) + self.m0, res

    def unscale(self, b: np.ndarray) -> Polynomial:
        return Polynomial((-1.0, *(b / self.mu ** np.arange(1, self.degree + 1))))


def _dual_solve(data: _QuadData, w: np.ndarray):
    """Exact inner minimization: b*(w) and the dual value q(w).

    q(w) - w.m0 is the least-squares residual of A b ~ y with
    A = [sqrt(w) V; diag(sqrt(M^T w))] and y = [sqrt(w) v0; 0].  A Householder
    QR of [A y] leaves the residual norm in its last diagonal entry, without
    forming the normal equations (which lose digits at large L) and without
    a rank truncation (which would overstate q).  The aggregate matrix A^T A,
    equilibrated on its diagonal, must still admit a Cholesky factorization:
    otherwise b*(w) is not determined in double precision.
    """
    degree = data.degree
    s = len(w)
    sw = np.sqrt(w)
    aug = np.zeros((s + degree, degree + 1))
    aug[:s, :degree] = sw[:, None] * data.V
    aug[:s, degree] = sw * data.v0
    aug[np.arange(s, s + degree), np.arange(degree)] = np.sqrt(w @ data.M)
    r = np.linalg.qr(aug, mode="r")
    r_a = r[:degree, :degree]
    norms = np.linalg.norm(r_a, axis=0)
    if not norms.all():
        raise RankDeficiencyError(
            "the objective underflows at every grid rate and determines no coefficient; "
            "n/k is too large (the edge is about 650 at k = 1e15 and 730 at k = 1e2)"
        )
    scaled = r_a / norms
    try:
        np.linalg.cholesky(scaled.T @ scaled)
        b = np.linalg.solve(r_a, r[:degree, degree])
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            "aggregate matrix is not numerically positive definite; "
            "increase the grid size or use a smaller k"
        ) from None
    return b, float(r[degree, degree] ** 2 + w @ data.m0)


def _newton_factor(data: _QuadData, b, res, z, slack):
    """Gradients of the h_i at b and R with R^T R the Newton matrix in (b, t).

    The matrix is 2 sum_i z_i (V_i V_i^T + diag M_i) + sum_i (z_i/slack_i)
    a_i a_i^T with a_i = (grad h_i, -1), i.e. B^T B for the stacked rows of
    B below; a QR of B gives its factor without squaring its condition.
    """
    degree = data.degree
    s = len(z)
    grad = 2.0 * (res[:, None] * data.V + data.M * b)
    sd = np.sqrt(z / slack)
    rows = np.zeros((2 * s + degree, degree + 1))
    rows[:s, :degree] = np.sqrt(2.0 * z)[:, None] * data.V
    rows[np.arange(s, s + degree), np.arange(degree)] = np.sqrt(2.0 * (z @ data.M))
    rows[s + degree :, :degree] = sd[:, None] * grad
    rows[s + degree :, degree] = -sd
    return grad, np.linalg.qr(rows, mode="r")


def _result(data: _QuadData, problem: SipProblem, b, w, q, iterations) -> SolveResult:
    coeffs = data.unscale(b)
    # report the primal value through the same evaluation path callers use
    t_d = float(objective_values(coeffs, problem.grid.points, problem.reg_weight)[2].max())
    return SolveResult(problem, coeffs, t_d, max(t_d - q, 0.0), iterations, w)


def solve(problem: SipProblem, tol: float = TOL, init_weights: np.ndarray | None = None) -> SolveResult:
    """Minimize the grid maximum of g with a certified duality gap <= tol.

    Mehrotra predictor-corrector on min t s.t. h_i(b) + slack_i = t, slack,
    z >= 0, for at most MAX_ITER iterations.  Every iterate's duals, scaled
    to the simplex, give an exact lower bound q(w), so the result's
    duality_gap = t_d - q(w) is a true certificate.  `init_weights` seeds the
    duals (uniform when omitted); the optimum is unique, so different
    initializations agree to solver accuracy.

    Supported domain (default grid s = 1000, tol = 1e-8, c0 = 0.558): every
    k in {1e2, 1e4, 1e6, 1e9, 1e12} with n/k in {1e-6, 1e-3, 0.1, 1, 10}, and
    k = 1e15 with n/k in {1, 10}, certifies for the rwc and rwc-s weights.
    From k = 1e15 an rwc cell with n/k <= 1e-3 can end in NonConvergenceError,
    because the grid maximum of the monomial coefficients is only resolved to
    about tol there; from k = 1e17 (L >= 21) the equilibrated aggregate matrix
    is numerically singular and the call raises RankDeficiencyError.  So does
    every k once n/k passes about 650 (k = 1e15) to 730 (k = 1e2): the grid is
    the point n/k, where exp(-n/k) is so small that a column of the aggregate
    matrix underflows to 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    data = _QuadData(problem)
    s = problem.grid.s

    if init_weights is None:
        w = np.full(s, 1.0 / s)
    else:
        w = np.asarray(init_weights, dtype=float)
        if w.shape != (s,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("init_weights must be a nonnegative vector over the grid")
        # the interior-point duals must start strictly positive
        w = 0.999 * (w / w.sum()) + 0.001 / s

    if problem.degree == 0:
        # no free variables: the maximum sits at a single grid point
        h = data.m0 + data.v0**2
        i = int(np.argmax(h))
        dual = np.zeros(s)
        dual[i] = 1.0
        return SolveResult(problem, Polynomial((-1.0,)), float(h[i]), 0.0, 0, dual)

    degree = problem.degree
    b, q = _dual_solve(data, w)
    h, res = data.values(b)
    z = w
    t = 2.0 * float(h.max()) - q  # max h plus the gap of the start
    slack = t - h
    best = None
    iterations = 0
    while True:
        gap = float(h.max()) - q
        if gap <= tol:
            result = _result(data, problem, b, w, q, iterations)
            if result.duality_gap <= tol:
                return result
        if best is None or gap < best[0]:
            best = (gap, b, w, q)
        if iterations == MAX_ITER:
            break
        iterations += 1

        grad, r_fac = _newton_factor(data, b, res, z, slack)
        d = z / slack
        r_x = np.append(z @ grad, 1.0 - z.sum())  # stationarity in (b, t)
        r_p = h - t + slack  # primal residual

        def newton(r_c):
            """Step for the complementarity target slack_i dz_i + z_i dslack_i = r_c_i."""
            e = d * r_p + r_c / slack
            rhs = -(r_x + np.append(e @ grad, -e.sum()))
            # R is nonsingular: its b columns contain sqrt(2 z) V, whose full
            # rank _dual_solve has just checked, and the t column is -sqrt(d)
            dx = np.linalg.solve(r_fac, np.linalg.solve(r_fac.T, rhs))
            dz = d * (grad @ dx[:degree] - dx[degree]) + e
            return dx, dz, (r_c - slack * dz) / z

        def max_step(dz, dslack):
            """Largest step in (0, 1] keeping z and slack nonnegative."""
            return 1.0 / max(1.0, float(np.max(-dz / z)), float(np.max(-dslack / slack)))

        mu = float(z @ slack) / s
        dx, dz, dslack = newton(-z * slack)  # predictor: affine scaling
        alpha = max_step(dz, dslack)
        mu_aff = float((z + alpha * dz) @ (slack + alpha * dslack)) / s
        sigma = (mu_aff / mu) ** 3
        dx, dz, dslack = newton(sigma * mu - z * slack - dz * dslack)  # corrector
        alpha = 0.99 * max_step(dz, dslack)
        b = b + alpha * dx[:degree]
        t += alpha * dx[degree]
        z = z + alpha * dz
        slack = slack + alpha * dslack
        h, res = data.values(b)
        w = z / z.sum()
        q = _dual_solve(data, w)[1]

    _, b, w, q = best
    result = _result(data, problem, b, w, q, iterations)
    raise NonConvergenceError(
        f"duality gap {result.duality_gap:.3e} above tolerance {tol:.3e} after {iterations} iterations",
        best=result,
    )


def certify(result: SolveResult, oversample: int) -> float:
    """Max of the objective on an `oversample`-times finer grid of the solved
    problem (discretization slack diagnostic: the excess over t_d estimates
    the grid truncation)."""
    if oversample < 2:
        raise ValueError("oversample must be >= 2")
    problem = result.problem
    fine = build_grid(problem.grid.interval, (problem.grid.s - 1) * oversample + 1)
    return float(objective_values(result.coeffs, fine.points, problem.reg_weight)[2].max())
