"""Discretized semi-infinite program for the minimax coefficient problem.

The continuous problem is min over a (a_0 = -1) of the sup over an interval of
rates of g(a, lambda).  We localize the interval, replace it with a uniform
grid, and solve the resulting finite minimax in the free coordinates
b = a_1..a_L,

    min_{b, t}  t   subject to   h_i(b) <= t,
    h_i(b) = (V_i b - v0_i)^2 + M_i . b^2 + m0_i   (squared bias + variance),

a convex program with L + 1 variables, by a Mehrotra predictor-corrector
primal-dual interior-point method.  Every iterate yields a primal/dual pair
and hence a true duality-gap certificate: for any simplex weights w,
q(w) = min_b sum_i w_i h_i(b) lower-bounds the optimum, and it is evaluated
through a Householder QR least-squares residual.  The minimizer b*(w) itself
is solved for only at the start point and at a guess of the duals (see
`solve`); later iterates move the primal b.
Each Newton system is (L+1) x (L+1) and is factored by one QR of s + L rows
in O(s L^2): its quadratic block is 2 sum(z) times the aggregate matrix of
the dual solve at w = z / sum(z), whose R factor that solve has just
computed.  One inverse of the Newton triangle serves both the predictor and
the corrector.

At s = 1000 an iteration costs numpy call overhead and memory traffic more
than arithmetic.  So the per-point data is stored (L, s), one contiguous row
per coefficient, and both QR inputs are allocated once per solve and filled
as C-ordered transposes: the Fortran-ordered matrices LAPACK reads without
numpy's reordering copy.

`solve` runs on one BLAS thread and restores the process's thread count when
it returns or raises.  Its QRs are too small for a second thread to pay for
the hand-off: one of 1015 x 16 (L = 15) took 135 us on two OpenBLAS threads
and 60 us on one (2-core x86-64).  OpenBLAS starts to thread them at about
L = 9.  A solve at L = 15 took 27% less time on one thread at s = 1000 and
16% less at s = 1e4; two threads win, by about 12%, only at s = 1e5, a grid
no command builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .poly import Polynomial, _log_factorials, objective_values

# Beyond lambda = 6.5 * L the objective decreases in lambda for every
# degree-L coefficient vector, so the optimization interval can stop there.
LOCALIZATION_FACTOR = 6.5

# Interior-point iteration budget: above the largest iteration bound (30) of
# the certifying rows in tests/_domain.py, the table of the supported domain.
MAX_ITER = 100

# Certified duality-gap tolerance of a solve.
TOL = 1e-8


class RankDeficiencyError(RuntimeError):
    """Aggregate matrix is not numerically positive definite, so b*(w) is not
    determined in double precision: on too coarse an unregularized grid, from
    k = 3e16 (rwc) and 1e18 (rwc-s) at n/k = 1 (tests/_domain.py), and when
    the objective underflows for a degree too high for its interval."""


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted; `best` carries the best certified iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True, eq=False)
class SipProblem:
    """Degree L, the ascending grid of Poisson rates and the variance weight."""

    degree: int
    points: np.ndarray
    reg_weight: float

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.reg_weight < 0.0:
            raise ValueError("reg_weight must be >= 0")
        if self.reg_weight == 0.0 and len(self.points) < self.degree + 2:
            raise ValueError(
                f"unregularized problem needs s >= L + 2 grid points, got s={len(self.points)}"
            )


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A solve's coefficients and certificate.  `grid_tables` are the
    weight-free tables of the problem's degree and grid, which a solve warm
    started from this result reuses when its degree and grid are the same."""

    problem: SipProblem
    coeffs: Polynomial
    t_d: float
    duality_gap: float
    iterations: int
    dual_weights: np.ndarray
    grid_tables: _GridTables = field(repr=False)


def localized_interval(n: float, k: float, degree: int) -> tuple[float, float]:
    """Interval (lo, hi) = (n/k, 6.5 L), collapsing to the single point n/k
    past 6.5 L (so always for L = 0)."""
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lo = n / k
    return lo, max(lo, LOCALIZATION_FACTOR * degree)


def build_grid(lo: float, hi: float, s: int) -> np.ndarray:
    """s uniform rates on [lo, hi], both ends included (boundary inclusion is
    required for the discretization-rate guarantees to apply); a point
    interval is its single point, whatever s is."""
    if not 0.0 < lo <= hi:
        raise ValueError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return np.array([lo])
    if s < 2:
        raise ValueError(f"need at least 2 grid points, got {s}")
    return np.linspace(lo, hi, s)


class _GridTables:
    """Weight-free per-grid-point tables of a degree and grid.

    The variables are rescaled, b_l -> b_l mu^l with mu half the right
    endpoint, which keeps the Vandermonde-like rows well conditioned.  Row l
    of `v` is exp(-lam) (lam/mu)^l, of the bias, and row l of `m` is
    exp(-lam) lam^l l! / mu^(2l), the variance term at weight 1.  A variance
    weight only scales `m`, so the solves of an RWC-S warm chain, which share
    the degree and the grid, share one set of tables.  The index arrays that
    depend on the degree and grid size alone are kept here too.  `m` is None
    until the tables are reused (see `variance`); nothing else is written
    after construction, and two solves that race to set `m` set equal
    arrays, so concurrent solves may share the tables.
    """

    def __init__(self, degree: int, points: np.ndarray):
        self.degree, self.points = degree, points
        self.mu = max(points[-1] / 2.0, points[0])
        self.v = np.exp(np.outer(np.arange(degree + 1), np.log(points) - math.log(self.mu)) - points)
        self.m = None
        s = len(points)
        self.diag = (np.arange(degree), np.arange(s, s + degree))  # sqrt(M w) in the QR input of _dual_solve
        self.upper = np.triu(np.ones((degree + 1, degree + 1), dtype=bool))  # the mask of _triangle

    def variance(self, reg_weight: float, keep: bool) -> np.ndarray:
        """The variance rows at weight reg_weight: reg_weight * m, with the
        same bits whether m is kept or built afresh.

        Until a call with `keep` (a solve on lent tables) stores `m`, each
        call builds it and scales it in place: a solve whose tables are never
        lent then holds one grid-sized array fewer, which at L = 19 is
        160 kB of peak memory.
        """
        m = self.m
        if m is None:
            log_lam = np.log(self.points)
            m = np.exp(
                np.outer(np.arange(self.degree + 1), log_lam - 2.0 * math.log(self.mu))
                + _log_factorials(self.degree)[:, None]
                - self.points
            )
            if not keep:
                m *= reg_weight
                return m
            self.m = m
        return reg_weight * m

    def fits(self, problem: SipProblem) -> bool:
        """Whether these are the tables of the problem's degree and grid."""
        return self.degree == problem.degree and np.array_equal(self.points, problem.points)


class _QuadData:
    """Per-grid-point data of the constraint functions of b = a_1..a_L.

    h_i(b) = (b . V_i - v0_i)^2 + b^2 . M_i + m0_i: the squared bias plus the
    variance term at rate lam_i, in the scaled variables of `_GridTables`:
    V and v0 are the rows of its v, and M and m0 those of its m times the
    variance weight (tables built afresh when none are lent).  V and M are
    stored (L, s), one contiguous row per coefficient, so every product with
    them runs along the grid.  It also holds the transposed QR inputs of
    `_dual_solve` and `_newton_factor`, allocated per solve: their zero
    blocks stay zero while each iteration fills the rest.
    """

    def __init__(self, problem: SipProblem, tables: _GridTables | None = None):
        degree = problem.degree
        self.degree = degree
        self.tables = _GridTables(degree, problem.points) if tables is None else tables
        self.lo, self.hi = problem.points[0], problem.points[-1]
        self.v0, self.V = self.tables.v[0], self.tables.v[1:]
        m = self.tables.variance(problem.reg_weight, keep=tables is not None)
        self.m0, self.M = m[0], m[1:]
        s = len(problem.points)
        self.aug_t = np.zeros((degree + 1, s + degree))
        self.rows_t = np.zeros((degree + 1, s + degree))

    def values(self, b: np.ndarray):
        """Constraint values h and bias residuals b . V - v0 at b."""
        res = b @ self.V - self.v0
        return res * res + (b * b) @ self.M + self.m0, res

    def unscale(self, b: np.ndarray) -> Polynomial:
        return Polynomial((-1.0, *(b / self.tables.mu ** np.arange(1, self.degree + 1))))


def _dual_solve(data: _QuadData, w: np.ndarray):
    """Exact inner minimization: the dual value q(w) and the triangle that fixes b*(w).

    q(w) - w.m0 is the least-squares residual of A b ~ y with
    A = [sqrt(w) V^T; diag(sqrt(M w))] and y = [sqrt(w) v0; 0].  A Householder
    QR of [A y] leaves the residual norm in its last diagonal entry, without
    forming the normal equations (which lose digits at large L) and without
    a rank truncation (which would overstate q).  The aggregate matrix A^T A,
    equilibrated on its diagonal, must still admit a Cholesky factorization:
    otherwise b*(w) is not determined in double precision.  [A y] is filled
    as its transpose in C order, which is the Fortran-ordered matrix LAPACK
    takes without a copy.  Returns q(w) and the (L+1) x (L+1) triangle R of
    [A y]: its leading L x L block is the R of A, for the next Newton step,
    and b*(w) solves R[:L, :L] b = R[:L, L], which `solve` does only at its
    start point and at a guess.
    """
    degree = data.degree
    s = len(w)
    sw = np.sqrt(w)
    aug_t = data.aug_t
    np.multiply(data.V, sw, out=aug_t[:degree, :s])
    np.multiply(data.v0, sw, out=aug_t[degree, :s])
    aug_t[data.tables.diag] = np.sqrt(data.M @ w)
    r = _triangle(data, aug_t)
    r_a = r[:degree, :degree]
    norms = np.linalg.norm(r_a, axis=0)
    if not norms.all():
        raise RankDeficiencyError(_underflow_message(data, np.flatnonzero(norms == 0.0) + 1))
    scaled = r_a / norms
    try:
        np.linalg.cholesky(scaled.T @ scaled)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            "aggregate matrix is not numerically positive definite; "
            "increase the grid size or use a smaller k"
        ) from None
    return float(r[degree, degree] ** 2 + data.m0 @ w), r


def _triangle(data: _QuadData, filled_t: np.ndarray) -> np.ndarray:
    """The (L+1) x (L+1) R of a QR of filled_t.T.  LAPACK's raw output holds R
    in its upper triangle and the Householder vectors below it.  mode="r"
    zeroes them through np.triu, which builds its mask anew at every call;
    here the mask is built once per grid tables.  R is copied out, so the raw
    (L+1) x (s+L) output is freed at once."""
    raw = np.linalg.qr(filled_t.T, mode="raw")[0]  # the transpose of LAPACK's array
    return np.where(data.tables.upper, raw[:, : data.degree + 1].T, 0.0)


def _underflow_message(data: _QuadData, zero: np.ndarray) -> str:
    """Names the coefficients a_j (j in `zero`) whose objective terms underflow
    at every grid rate, the degree and the interval, and the cause."""
    which = f"a_{zero[0]}" if len(zero) == 1 else f"a_{zero[0]} to a_{zero[-1]} ({len(zero)} coefficients)"
    return (
        f"the objective underflows at every grid rate for {which} of the degree-{data.degree} "
        f"polynomial on [{data.lo:.6g}, {data.hi:.6g}], which leaves them "
        f"undetermined; degree {data.degree} is too high for this interval (lower c0)"
    )


def _newton_factor(data: _QuadData, b, res, d, z_sum, r_dual):
    """Gradients of the h_i at b, as an (L, s) array, and R with R^T R the
    Newton matrix in (b, t).

    The matrix is 2 sum_i z_i (V_i V_i^T + diag M_i) + sum_i (z_i/slack_i)
    a_i a_i^T with a_i = (grad h_i, -1).  Its first term is 2 sum(z) A^T A for
    the A of `_dual_solve` at w = z / sum(z), whose R is the leading L x L
    block r_a of that solve's triangle `r_dual`; so it is B^T B for
    B = [sqrt(2 sum z) r_a, 0; sqrt(z/slack) a_i^T], and a QR of these s + L
    rows gives its factor without squaring its condition.  B is filled as its
    transpose, as in `_dual_solve`.  `d` is z / slack.
    """
    degree = data.degree
    # in place: one (L, s) temporary fewer at the solve's memory peak
    grad = res * data.V
    grad += b[:, None] * data.M
    grad *= 2.0
    sd = np.sqrt(d)
    rows_t = data.rows_t
    r_a = r_dual[:degree, :degree]
    np.multiply(r_a.T, math.sqrt(2.0 * z_sum), out=rows_t[:degree, :degree])
    np.multiply(grad, sd, out=rows_t[:degree, degree:])
    np.negative(sd, out=rows_t[degree, degree:])
    return grad, _triangle(data, rows_t)


def _result(data: _QuadData, problem: SipProblem, coeffs: Polynomial, w, q, iterations) -> SolveResult:
    # report the primal value through the same evaluation path callers use
    t_d = float(objective_values(coeffs, problem.points, problem.reg_weight)[2].max())
    return SolveResult(problem, coeffs, t_d, max(t_d - q, 0.0), iterations, w, data.tables)


def solve(
    problem: SipProblem, tol: float = TOL, warm: SolveResult | None = None, guess: np.ndarray | None = None
) -> SolveResult:
    """Minimize the grid maximum of g with a certified duality gap <= tol.

    Mehrotra predictor-corrector on min t s.t. h_i(b) + slack_i = t, slack,
    z >= 0, for at most MAX_ITER iterations.  Every iterate's duals, scaled
    to the simplex, give an exact lower bound q(w), so the result's
    duality_gap = t_d - q(w) is a true certificate.  The duals start uniform,
    or from the dual weights of `warm`, an earlier result on a grid of the
    same size; the optimum is unique, so different starts agree to solver
    accuracy.  When `warm` also has this problem's degree and grid, as along
    an RWC-S chain where only the variance weight changes, its grid tables
    are reused, with the same bits as built afresh.  Where one rate binds, at
    degree 0 or on a one-point grid, the solve is a closed form instead, and
    `guess` is ignored.

    `guess`, dual weights over the grid (scaled to the simplex here), is
    tried before iterating: when max h - q <= tol at b*(guess) and the
    result's duality_gap <= tol, the tests of the iteration, the solve
    returns it in 0 iterations with dual_weights = the scaled guess.
    Otherwise, also when b*(guess) fails the rank test, the solve runs from
    `warm` or the uniform start with the same bits as without a guess.  A
    risk sweep guesses the secant through its last two solves
    (`estimators.estimates`).

    The supported domain, with the default grid, tol and c0, is the table in
    tests/_domain.py: rwc and rwc-s certify for k = 1e2 to 1e15 at n/k = 1e-6
    to 1e6, except rwc at n/k <= 1e-3 from k = 1e15 (NonConvergenceError), and
    RankDeficiencyError comes from k = 3e16 (rwc) and 1e18 (rwc-s) at n/k = 1.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    s = len(problem.points)

    if warm is None:
        tables = None
        w = np.full(s, 1.0 / s)
    else:
        tables = warm.grid_tables
        w = _simplex(warm.dual_weights, s, "the warm start's dual weights")
        # the interior-point duals must start strictly positive
        w = 0.999 * w + 0.001 / s
    if tables is not None and not tables.fits(problem):
        tables = None
    data = _QuadData(problem, tables)

    if problem.degree == 0 or s == 1:
        # one rate binds: the grid maximum at degree 0, which has no free
        # coefficient, or the only rate.  There the problem is a ridge
        # regression on one point, solved by a_l = 1 / (l! D) with
        # D = w e^lam + sum_{l=1..L} lam^l / l! for the variance weight w,
        # and its minimum is q = w e^-lam (1 + 1/D); in the log domain no
        # term overflows
        h = data.m0 + data.v0**2
        i = int(np.argmax(h))
        lam, reg, coeffs, q = problem.points[i], problem.reg_weight, (-1.0,), float(h[i])
        if problem.degree:  # then reg > 0, as a one-point grid needs
            log_fact = _log_factorials(problem.degree)[1:]
            log_terms = np.arange(1, problem.degree + 1) * math.log(lam) - log_fact  # log lam^l / l!
            log_d = np.logaddexp(math.log(reg) + lam, np.logaddexp.reduce(log_terms))
            coeffs = (-1.0, *np.exp(-log_fact - log_d))
            q = reg * math.exp(-lam) * (1.0 + math.exp(-log_d))
        dual = np.zeros(s)
        dual[i] = 1.0
        return _result(data, problem, Polynomial(coeffs), dual, q, 0)

    with one_blas_thread:
        if guess is not None:
            result = _certified(data, problem, tol, _simplex(guess, s, "the guess"))
            if result is not None:
                return result
        return _interior_point(data, problem, tol, w)


def _simplex(weights, s: int, what: str) -> np.ndarray:
    """Nonnegative weights over a grid of s rates, scaled to sum to 1."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (s,) or not (np.isfinite(w).all() and (w >= 0).all()) or w.sum() <= 0:
        raise ValueError(f"{what} must be a nonnegative vector over the grid")
    return w / w.sum()


def _certified(data: _QuadData, problem: SipProblem, tol: float, w: np.ndarray) -> SolveResult | None:
    """The result at b*(w) in 0 iterations if it passes both stopping tests of
    `_interior_point`, else None; a w whose b*(w) is not determined fails."""
    degree = problem.degree
    try:
        q, r = _dual_solve(data, w)
    except RankDeficiencyError:
        return None
    b = np.linalg.solve(r[:degree, :degree], r[:degree, degree])
    if float(data.values(b)[0].max()) - q > tol:
        return None
    result = _result(data, problem, data.unscale(b), w, q, 0)
    return result if result.duality_gap <= tol else None


def _interior_point(data: _QuadData, problem: SipProblem, tol: float, w: np.ndarray) -> SolveResult:
    """The iteration of `solve` from the start duals w, for degree >= 1 on a
    grid of two or more rates."""
    degree = problem.degree
    s = len(w)
    q, r = _dual_solve(data, w)
    # the start is the only iterate at b*(w); later b are the primal iterates.
    # R is nonsingular: _dual_solve has just checked its full rank
    b = np.linalg.solve(r[:degree, :degree], r[:degree, degree])
    h, res = data.values(b)
    z = w
    z_sum = z.sum()
    t = 2.0 * float(h.max()) - q  # max h plus the gap of the start
    slack = t - h
    r_x = np.empty(degree + 1)  # stationarity in (b, t)
    rhs = np.empty(degree + 1)
    best = None
    iterations = 0
    while True:
        gap = float(h.max()) - q
        if gap <= tol:
            result = _result(data, problem, data.unscale(b), w, q, iterations)
            if result.duality_gap <= tol:
                return result
        if best is None or gap < best[0]:
            best = (gap, b, w, q)
        if iterations == MAX_ITER:
            break
        iterations += 1

        d = z / slack
        grad, r_fac = _newton_factor(data, b, res, d, z_sum, r)
        # R is nonsingular: its b columns contain the R of _dual_solve, which
        # has just checked its full rank, and the t column is -sqrt(d).  One
        # inverse serves both the predictor and the corrector.
        r_inv = np.linalg.inv(r_fac)
        np.matmul(grad, z, out=r_x[:degree])
        r_x[degree] = 1.0 - z_sum
        d_r_p = d * (h - t + slack)  # d times the primal residual
        z_slack = z * slack

        def newton(r_c):
            """Step for the complementarity target slack_i dz_i + z_i dslack_i = r_c_i."""
            e = d_r_p + r_c / slack
            np.matmul(grad, e, out=rhs[:degree])
            rhs[degree] = -e.sum()
            np.add(r_x, rhs, out=rhs)
            np.negative(rhs, out=rhs)
            dx = r_inv @ (rhs @ r_inv)
            dz = d * (dx[:degree] @ grad - dx[degree]) + e
            return dx, dz, (r_c - slack * dz) / z

        def max_step(dz, dslack):
            """Largest step in (0, 1] keeping z and slack nonnegative."""
            return 1.0 / max(1.0, float((-dz / z).max()), float((-dslack / slack).max()))

        # a dot product, not z_slack.sum(): the pairwise sum rounds otherwise
        mu = float(z @ slack) / s
        dx, dz, dslack = newton(-z_slack)  # predictor: affine scaling
        alpha = max_step(dz, dslack)
        mu_aff = float((z + alpha * dz) @ (slack + alpha * dslack)) / s
        sigma = (mu_aff / mu) ** 3
        dx, dz, dslack = newton(sigma * mu - z_slack - dz * dslack)  # corrector
        alpha = 0.99 * max_step(dz, dslack)
        b = b + alpha * dx[:degree]
        t += alpha * dx[degree]
        z = z + alpha * dz
        slack = slack + alpha * dslack
        h, res = data.values(b)
        z_sum = z.sum()
        w = z / z_sum
        q, r = _dual_solve(data, w)

    _, b, w, q = best
    result = _result(data, problem, data.unscale(b), w, q, iterations)
    raise NonConvergenceError(
        f"duality gap {result.duality_gap:.3e} above tolerance {tol:.3e} after {iterations} iterations",
        best=result,
    )
