import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suppest.poly import (
    InvalidEstimatorError,
    InvalidIntervalError,
    Polynomial,
    g_values,
    objective_values,
    shifted_cheb_coeffs,
)
from _rational import poly_eval_exact, shifted_cheb_exact, variance_sum_exact


def _poly_at(p, lams):
    """P(lam) through the vectorized path: objective_values' bias is exp(-lam) P(lam)."""
    lams = np.asarray(lams, dtype=float)
    return objective_values(p, lams, 0.0)[1] * np.exp(lams)


def _cheb_t(degree, xs):
    """T_degree(x) from shifted_cheb_coeffs on [1, 3], where x = lam - 2.

    The normalized polynomial is P(lam) = -T_L(x) / T_L(x(0)) and T_L(1) = 1,
    so T_L(x) = P(lam) / P(3).
    """
    p = shifted_cheb_coeffs(degree, 1.0, 3.0)
    lams = np.asarray(xs, dtype=float) + 2.0
    return _poly_at(p, lams) / _poly_at(p, [3.0])[0]


class TestChebT:
    def test_degree_zero(self):
        # -T_0 / T_0(x(0)) is the pure-counting constant -1: bias -exp(-lam)
        lams = np.array([0.5, 1.0, 7.0])
        assert np.array_equal(objective_values(Polynomial((-1.0,)), lams, 0.0)[1], -np.exp(-lams))

    def test_degree_two(self):
        assert _cheb_t(2, [0.5])[0] == pytest.approx(-0.5, rel=1e-14)

    def test_degree_three_outside(self):
        assert _cheb_t(3, [2.0])[0] == pytest.approx(26.0, abs=1e-12)

    def test_bounded_on_unit_interval(self):
        # monomial coefficients on [1, 3] cancel in the Horner sum beyond
        # degree 7 (|T_8| already reads 1 + 1.5e-9), so the bound stops there
        xs = np.linspace(-1.0, 1.0, 201)
        for degree in range(1, 8):
            assert np.all(np.abs(_cheb_t(degree, xs)) <= 1.0 + 1e-12)

    def test_negative_degree_rejected(self):
        for degree in (-1, 0):
            with pytest.raises(ValueError):
                shifted_cheb_coeffs(degree, 1.0, 3.0)


class TestShiftedChebCoeffs:
    def test_degree_one(self):
        p = shifted_cheb_coeffs(1, 1.0, 3.0)
        assert p.coeffs == pytest.approx((-1.0, 0.5), abs=1e-14)

    def test_degree_two(self):
        p = shifted_cheb_coeffs(2, 1.0, 3.0)
        assert p.coeffs == pytest.approx((-1.0, 8 / 7, -2 / 7), rel=1e-14)

    def test_constant_pinned(self):
        for degree in (1, 3, 7, 12):
            p = shifted_cheb_coeffs(degree, 0.3, 11.0)
            assert p.coeffs[0] == -1.0
            assert _poly_at(p, [1e-300])[0] == -1.0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            shifted_cheb_coeffs(2, 3.0, 3.0)
        with pytest.raises(InvalidIntervalError):
            shifted_cheb_coeffs(2, 3.0, 1.0)

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lo = Fraction(int(rng.integers(1, 1000)), 100)
            hi = lo + Fraction(int(rng.integers(1, 1000)), 100)
            degree = int(rng.integers(1, 9))
            got = shifted_cheb_coeffs(degree, float(lo), float(hi)).coeffs
            want = shifted_cheb_exact(degree, lo, hi)
            for g, w in zip(got, want):
                assert g == pytest.approx(float(w), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("degree", range(1, 20))
    def test_coefficients_accurate_on_wy_domain(self, degree):
        # the WY interval [n/k, 0.5 ln k] at the middle k of degree L = floor(0.558 ln k)
        hi = 0.5 * (degree + 0.5) / 0.558
        for lo in (1e-6, 1e-3, 0.1, 1.0, 0.9 * hi):
            if lo >= hi:
                continue
            got = shifted_cheb_coeffs(degree, lo, hi).coeffs
            want = shifted_cheb_exact(degree, Fraction(lo), Fraction(hi))
            for g, w in zip(got, want):
                assert abs(Fraction(g) - w) <= abs(w) * Fraction(1, 10**13), (lo, g, w)


class TestPolyEval:
    def test_constant_term(self):
        assert _poly_at(Polynomial((-1.0, 0.5)), [1e-300])[0] == -1.0

    def test_linear(self):
        assert _poly_at(Polynomial((-1.0, 0.5)), [4.0])[0] == pytest.approx(1.0, rel=1e-15)

    def test_quadratic(self):
        p = Polynomial((-1.0, 8 / 7, -2 / 7))
        assert _poly_at(p, [2.0])[0] == pytest.approx(1 / 7, rel=1e-14)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.floats(1e-3, 3),
    )
    def test_matches_rational_horner(self, coeffs, x):
        got = _poly_at(Polynomial(tuple(coeffs)), [x])[0]
        want = float(poly_eval_exact([Fraction(c) for c in coeffs], Fraction(x)))
        # Horner's rounding error is relative to sum |a_l| x^l, not to |P(x)|
        scale = sum(abs(c) * x**l for l, c in enumerate(coeffs))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * max(scale, 1.0))


class TestObjectiveG:
    def test_pure_counting_value(self):
        var, bias, g = objective_values(Polynomial((-1.0,)), np.array([1.0]), 0.1)
        assert var[0] == pytest.approx(0.1 * math.exp(-1.0), rel=1e-14)
        assert bias[0] == pytest.approx(-math.exp(-1.0), rel=1e-14)
        assert g[0] == pytest.approx(0.172123, abs=1e-6)

    def test_zero_bias_at_root(self):
        lams = np.linspace(1.0, 2.0, 11)
        var, bias, g = objective_values(Polynomial((-1.0, 1.0)), lams, 0.0)
        assert bias[0] == 0.0
        assert g[0] == 0.0
        for lam, b in zip(lams, bias):
            assert b == pytest.approx(math.exp(-lam) * (lam - 1.0), rel=1e-12, abs=1e-15)

    def test_large_rate_no_overflow(self):
        var, bias, g = objective_values(Polynomial((-1.0,)), np.array([700.0]), 5.0)
        assert math.isfinite(g[0]) and 0.0 <= g[0] < 1e-290

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            objective_values(Polynomial((-1.0,)), np.array([0.0]), 0.1)
        with pytest.raises(ValueError):
            objective_values(Polynomial((-1.0,)), np.array([1.0]), -0.1)

    @given(
        st.lists(st.floats(-2, 2), min_size=1, max_size=6),
        st.floats(0.01, 50.0),
        st.floats(0.0, 1.0),
    )
    def test_decomposition_identity(self, tail, lam, w):
        p = Polynomial((-1.0, *tail))
        var, bias, g = objective_values(p, np.array([lam]), w)
        assert var[0] >= 0.0
        assert g[0] == pytest.approx(var[0] + bias[0] * bias[0], rel=1e-15, abs=1e-300)

    def test_vectorized_matches_scalar(self):
        # reference: the rational parts exactly, times the float exp(-lam)
        p = Polynomial((-1.0, 0.7, -0.2, 0.01))
        lams = np.linspace(0.5, 40.0, 57)
        var_v, bias_v, g_v = objective_values(p, lams, 1e-4)
        exact = [Fraction(c) for c in p.coeffs]
        for i, lam in enumerate(lams):
            decay = math.exp(-lam)
            var = 1e-4 * decay * float(variance_sum_exact(exact, Fraction(lam)))
            bias = decay * float(poly_eval_exact(exact, Fraction(lam)))
            assert var_v[i] == pytest.approx(var, rel=1e-12)
            assert bias_v[i] == pytest.approx(bias, rel=1e-12, abs=1e-300)
            assert g_v[i] == pytest.approx(var + bias * bias, rel=1e-12, abs=1e-300)

    def test_variance_matches_rational_across_underflow(self):
        # degree 21 past lam = 745, where exp(-lam) is 0 in float64 but the
        # variance term is still a normal number (about 1e-267 at lam = 800)
        rng = np.random.default_rng(5)
        p = Polynomial((-1.0, *rng.uniform(-1, 1, 21)))
        lams = np.array([0.5, 10.0, 150.0, 699.0, 701.0, 745.5, 800.0])
        var = objective_values(p, lams, 0.25)[0]
        exact = [Fraction(c) for c in p.coeffs]
        for lam, got in zip(lams, var):
            total = variance_sum_exact(exact, Fraction(lam))
            with localcontext() as ctx:
                ctx.prec = 40
                decay = (-Decimal(lam)).exp()
                want = float(Decimal(0.25) * decay * Decimal(total.numerator) / Decimal(total.denominator))
            assert got > 0.0
            assert got == pytest.approx(want, rel=1e-12)

    def test_vectorized_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            objective_values(Polynomial((-1.0,)), np.array([1.0, 0.0]), 0.1)


class TestGValues:
    def test_quadratic_example(self):
        values, tail = g_values(Polynomial((-1.0, 8 / 7, -2 / 7)))
        assert values[0] == 0.0
        assert values[1] == pytest.approx(15 / 7, rel=1e-14)
        assert values[2] == pytest.approx(3 / 7, rel=1e-14)
        assert tail == 1.0

    def test_pure_counting(self):
        values, tail = g_values(Polynomial((-1.0,)))
        assert values == (0.0,)
        assert tail == 1.0

    def test_requires_estimator_form(self):
        with pytest.raises(InvalidEstimatorError):
            g_values(Polynomial((0.5, 1.0)))

    @given(st.lists(st.floats(-2, 2), min_size=0, max_size=7))
    def test_round_trip(self, tail_coeffs):
        p = Polynomial((-1.0, *tail_coeffs))
        values, _ = g_values(p)
        fact = 1.0
        for j in range(1, p.degree + 1):
            fact *= j
            assert (values[j] - 1.0) / fact == pytest.approx(
                p.coeffs[j], rel=1e-12, abs=1e-12
            )


class TestPolynomialType:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(())

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((-1.0, math.inf))

    def test_degree(self):
        assert Polynomial((-1.0, 1.0, 2.0)).degree == 2
