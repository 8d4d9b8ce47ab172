"""Chebyshev polynomial machinery and the bias/variance objective.

Everything here is pure: coefficient vectors go in, numbers come out.  The
central object is the per-count estimator polynomial a_0..a_L with a_0 = -1,
and the objective

    g(a, lambda) = w * sum_l exp(-lambda) a_l^2 lambda^l l!
                   + (exp(-lambda) * P(lambda, a))^2

whose max over an interval of Poisson rates the solver minimizes.  The
variance sum is evaluated by Horner's rule and, past the rates where
exp(-lambda) underflows, multiplied by it in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidIntervalError(ValueError):
    """Raised when a shifted-Chebyshev interval has zero length or is reversed."""


class InvalidEstimatorError(ValueError):
    """Raised when a polynomial is used as an estimator but a_0 != -1."""


@dataclass(frozen=True)
class Polynomial:
    """Monomial-basis coefficients a_0..a_L, lowest degree first."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        # from a list, not a generator: tuple() grows a generator's tuple by
        # resizing it, and over many solves in one process that made the
        # resident memory creep (about 3 KB per 32 solves)
        coeffs = tuple([float(c) for c in self.coeffs])
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def shifted_cheb_coeffs(degree: int, lo: float, hi: float) -> Polynomial:
    """Monomial coefficients of -T_L((2x-hi-lo)/(hi-lo)) / T_L((-hi-lo)/(hi-lo)).

    The recurrence runs in coefficient space on the affine-composed argument.
    On the WY intervals [n/k, 0.5 ln k] of the supported domain (L <= 19, n/k
    from 1e-6 to 0.9 of the right end) every coefficient is within a relative
    1e-13 of the exact rational one.  Evaluating the monomial form is what
    loses accuracy: its Horner sum cancels, so |T_L| read back on [1, 3]
    exceeds 1 by 1.5e-9 at L = 8 and by more than 1 at L = 17.  The constant
    coefficient is pinned to -1 exactly.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if not (0.0 < lo < hi):
        raise InvalidIntervalError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    beta = 2.0 / (hi - lo)
    alpha = -(hi + lo) / (hi - lo)
    # T_j of the affine map, as monomial coefficient arrays.
    prev = np.array([1.0])
    cur = np.array([alpha, beta])
    for _ in range(degree - 1):
        # 2*(alpha + beta*x)*cur - prev
        nxt = np.zeros(len(cur) + 1)
        nxt[: len(cur)] += 2.0 * alpha * cur
        nxt[1:] += 2.0 * beta * cur
        nxt[: len(prev)] -= prev
        prev, cur = cur, nxt
    denom = cur[0]  # T_L at x = 0; argument < -1 for 0 < lo < hi, never zero
    coeffs = -cur / denom
    coeffs[0] = -1.0
    return Polynomial(tuple(coeffs))


def _log_factorials(degree: int) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, degree + 1)))))


def _horner(coeffs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sum_l coeffs[l] lams^l by Horner's rule, in place from the top coefficient."""
    total = np.full_like(lams, coeffs[-1])
    for c in coeffs[-2::-1]:
        total *= lams
        total += c
    return total


def objective_values(
    p: Polynomial, lams: np.ndarray, reg_weight: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (variance_term, bias, g) over an array of positive rates."""
    lams = np.asarray(lams, dtype=float)
    if np.any(lams <= 0.0):
        raise ValueError("all rates must be positive")
    if not reg_weight >= 0.0:
        raise ValueError(f"reg_weight must be >= 0, got {reg_weight}")
    coeffs = np.asarray(p.coeffs)
    factorials = np.arange(float(len(coeffs)))
    factorials[0] = 1.0
    # sum_l a_l^2 l! lam^l by Horner's rule: its terms are nonnegative, so the
    # sum has no cancellation and a relative error of about (L+1) eps
    total = _horner(coeffs * coeffs * np.cumprod(factorials, out=factorials), lams)
    # past lam = 708 exp(-lam) is subnormal, and past 745 it is 0 while the sum
    # is not; there the product is formed in the log domain (log 0 is -inf)
    decay = np.exp(-lams)
    var = decay * total
    far = lams > 700.0
    if far.any():
        with np.errstate(divide="ignore"):
            var[far] = np.exp(np.log(total[far]) - lams[far])
    var *= reg_weight
    bias = decay * _horner(coeffs, lams)
    return var, bias, var + bias * bias


def g_values(p: Polynomial) -> tuple[tuple[float, ...], float]:
    """Per-count estimator values g(j) = a_j * j! + 1 for j <= L, and the tail 1.

    g(0) = 0 exactly because a_0 = -1.
    """
    if p.coeffs[0] != -1.0:
        raise InvalidEstimatorError(f"estimator polynomial needs a_0 = -1, got {p.coeffs[0]}")
    fact = 1.0
    values = [0.0]
    for j in range(1, len(p.coeffs)):
        fact *= j
        values.append(p.coeffs[j] * fact + 1.0)
    return tuple(values), 1.0
