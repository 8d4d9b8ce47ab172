"""The supported domain of `sip.solve`, one row per case: the only place it is
stated.

A row (estimator, k, n/k, outcome) says what `rwc_coefficients` or
`rwcs_coefficients` does at n = k * n/k with the default grid, tol and c0
(rwc-s takes the expected naive count k (1 - exp(-n/k)), at least 1, as its
count).  The outcome is `Certifies(n)`, a duality gap <= tol in at most n
iterations, or `Raises(error, fragment)`, that error with `fragment` in its
message.  `TestSupportedDomain` in test_sip.py runs every row and checks the
one-line summaries in `sip` and the README against the rows, so moving an
edge is a one-row edit here.
"""

from __future__ import annotations

from dataclasses import dataclass

from suppest.sip import NonConvergenceError, RankDeficiencyError


@dataclass(frozen=True)
class Certifies:
    max_iter: int


@dataclass(frozen=True)
class Raises:
    error: type
    fragment: str


@dataclass(frozen=True)
class Row:
    estimator: str
    k: float
    n_over_k: float
    outcome: Certifies | Raises


_INSIDE = Certifies(25)
_NOT_PD = Raises(RankDeficiencyError, "positive definite")
_NO_CERTIFICATE = Raises(NonConvergenceError, "above tolerance")

ROWS = [
    Row(estimator, k, n_over_k, _INSIDE)
    for k, n_over_k in [(k, r) for k in (1e2, 1e4, 1e6, 1e9, 1e12) for r in (1e-6, 1e-3, 0.1, 1.0, 10.0)]
    + [(1e15, 1.0), (1e15, 10.0)]
    for estimator in ("rwc", "rwc-s")
] + [
    # The precision floor from k = 1e15 (L = 19): the iteration evaluates h
    # through `_QuadData.values` on scaled monomial rows, whose rounding makes
    # its own h noisier than tol, so rwc at n/k <= 1e-3 spends the whole
    # budget (about 80 ms a row).  The certificate itself, `objective_values`
    # by Horner's rule, is accurate to about 1.5e-10 there.  rwc-s certifies.
    Row("rwc", 1e15, 1e-6, _NO_CERTIFICATE),
    Row("rwc", 1e15, 1e-3, _NO_CERTIFICATE),
    Row("rwc", 1e16, 1e-3, _NO_CERTIFICATE),
    Row("rwc", 1e15, 0.1, _INSIDE),  # 15 iterations
    Row("rwc-s", 1e15, 1e-6, Certifies(30)),  # 28 iterations, the most of any row
    Row("rwc-s", 1e15, 1e-3, _INSIDE),  # 20
    Row("rwc-s", 1e15, 0.1, _INSIDE),  # 16
    Row("rwc-s", 1e16, 1e-3, _INSIDE),  # 19
    # Rank deficiency: from L = 21 the monomial columns are numerically
    # dependent, and the equilibrated aggregate matrix fails its Cholesky
    # factorization unless n/k or the variance weight lifts it.
    Row("rwc", 3e16, 0.1, _INSIDE),  # 16 iterations
    Row("rwc", 3e16, 1.0, _NOT_PD),
    Row("rwc-s", 3e16, 1.0, _INSIDE),  # 0 iterations
    Row("rwc", 1e17, 1.0, _NOT_PD),
    Row("rwc-s", 1e17, 1.0, _INSIDE),  # 0 iterations
    *(Row(estimator, k, 1.0, _NOT_PD) for k in (1e18, 1e20) for estimator in ("rwc", "rwc-s")),
    # Past 6.5 L the grid is the point n/k, and `solve` takes the one-rate
    # closed form there, in 0 iterations.  It works in the log domain, so the
    # underflow of the interior-point tables, which would leave every
    # coefficient undetermined from about n/k = 728 (k = 1e2) to 628
    # (k = 1e15), is no edge.
    Row("rwc", 1e2, 720.0, Certifies(0)),
    Row("rwc", 1e2, 740.0, Certifies(0)),
    Row("rwc", 1e3, 800.0, Certifies(0)),  # `suppest coeffs --k 1000 --n 8e5` in CI
    Row("rwc", 1e15, 600.0, Certifies(0)),
    Row("rwc", 1e15, 640.0, Certifies(0)),
    *(
        Row(estimator, k, n_over_k, Certifies(0))
        for k in (1e2, 1e4, 1e6, 1e9, 1e12, 1e15)
        for n_over_k in (1e3, 1e6)
        for estimator in ("rwc", "rwc-s")
    ),
]


def cells(outcome: type) -> list[tuple[float, float]]:
    """The (k, n/k) cells that hold a row with an outcome of this type, in
    table order."""
    return list(dict.fromkeys((row.k, row.n_over_k) for row in ROWS if isinstance(row.outcome, outcome)))


def rows_at(k: float, n_over_k: float, outcome: type) -> list[Row]:
    """The rows of one cell with an outcome of this type."""
    return [row for row in ROWS if (row.k, row.n_over_k) == (k, n_over_k) and isinstance(row.outcome, outcome)]
