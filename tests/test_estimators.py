import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suppest.data import Fingerprint
from suppest.estimators import (
    CoverageZeroError,
    EstimatorSpec,
    IntervalCollapseError,
    apply_poly_estimator,
    degree_for,
    estimate,
    good_turing,
    naive_count,
    rwc_coefficients,
    rwcs_coefficients,
    wy_coefficients,
)
from suppest.poly import Polynomial

FAST = EstimatorSpec("rwc", s=200, tol=1e-8)

fingerprints = st.dictionaries(
    st.integers(1, 12), st.integers(1, 50), min_size=0, max_size=8
).map(Fingerprint)


class TestDegreeFor:
    def test_paper_scale(self):
        assert degree_for(1e6) == 7
        assert degree_for(1e4) == 5

    def test_small_k(self):
        assert degree_for(2) == 0
        with pytest.raises(ValueError):
            degree_for(1)


class TestWyCoefficients:
    def test_standard_instance(self):
        p = wy_coefficients(1e6, 1e6)
        assert p.degree == 7
        assert p.coeffs[0] == -1.0

    def test_tiny_k_boundary(self):
        # k = n = 8: interval [1, 0.5 ln 8 ~ 1.0397] barely survives, L = 1
        p = wy_coefficients(8, 8)
        assert p.degree == 1
        assert p.coeffs[1] == pytest.approx(2.0 / (1.0 + 0.5 * math.log(8)), rel=1e-12)

    def test_interval_collapse(self):
        with pytest.raises(IntervalCollapseError):
            wy_coefficients(100.0, 1000.0)


class TestRwcCoefficients:
    def test_standard_instance(self):
        res = rwc_coefficients(1e4, 1e4, FAST)
        assert res.coeffs.degree == 5
        assert res.coeffs.coeffs[0] == -1.0
        assert res.duality_gap <= FAST.tol

    def test_degenerate_degree_zero(self):
        res = rwc_coefficients(4, 4, FAST)
        assert res.coeffs.coeffs == (-1.0,)

    def test_grid_max_within_contract(self):
        from suppest.poly import objective_values
        from suppest.sip import build_grid, localized_interval

        res = rwc_coefficients(1e4, 1e4, FAST)
        grid = build_grid(localized_interval(1e4, 1e4, 5), FAST.s)
        gmax = float(objective_values(res.coeffs, grid.points, 1e-4)[2].max())
        assert gmax <= res.t_d + FAST.tol


class TestRwcsCoefficients:
    def test_matches_rwc_when_count_equals_k(self):
        r1 = rwc_coefficients(1e4, 1e4, FAST)
        r2 = rwcs_coefficients(1e4, 1e4, 1e4, FAST)
        assert r1.coeffs.coeffs == pytest.approx(r2.coeffs.coeffs, abs=1e-6)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            rwcs_coefficients(1e4, 1e4, 0.0, FAST)


class TestApplyPolyEstimator:
    def test_worked_example(self):
        fp = Fingerprint({1: 2, 2: 1, 3: 1})
        p = Polynomial((-1.0, 8 / 7, -2 / 7))
        assert apply_poly_estimator(fp, p) == pytest.approx(40 / 7, rel=1e-14)

    def test_empty_fingerprint(self):
        assert apply_poly_estimator(Fingerprint({}), Polynomial((-1.0, 0.5))) == 0.0

    def test_all_counts_beyond_degree(self):
        fp = Fingerprint({5: 3, 9: 2})
        assert apply_poly_estimator(fp, Polynomial((-1.0, 0.5))) == 5.0

    @given(fingerprints, fingerprints)
    def test_linear_in_fingerprint(self, fa, fb):
        p = Polynomial((-1.0, 0.9, -0.3))
        merged = dict(fa.h)
        for j, hj in fb.h.items():
            merged[j] = merged.get(j, 0) + hj
        total = apply_poly_estimator(Fingerprint(merged), p)
        assert total == pytest.approx(
            apply_poly_estimator(fa, p) + apply_poly_estimator(fb, p),
            rel=1e-12,
            abs=1e-9,
        )


class TestCountingAndGoodTuring:
    def test_naive_examples(self):
        assert naive_count(Fingerprint({1: 2, 2: 1, 3: 1})) == 4.0
        assert naive_count(Fingerprint({})) == 0.0
        assert naive_count(Fingerprint({5: 3})) == 3.0

    def test_good_turing_example(self):
        assert good_turing(Fingerprint({1: 2, 2: 1, 3: 2})) == pytest.approx(6.25)

    def test_full_coverage(self):
        fp = Fingerprint({2: 3, 4: 1})
        assert good_turing(fp) == naive_count(fp)

    def test_all_singletons(self):
        with pytest.raises(CoverageZeroError):
            good_turing(Fingerprint({1: 5}))

    @given(fingerprints.filter(lambda f: f.n >= 1 and f.h.get(1, 0) < f.n))
    def test_dominates_naive(self, fp):
        gt = good_turing(fp)
        assert gt >= naive_count(fp) - 1e-12
        if fp.h.get(1, 0) == 0:
            assert gt == naive_count(fp)


class TestEstimateDispatch:
    def test_naive(self):
        fp = Fingerprint({1: 2, 2: 1})
        assert estimate(EstimatorSpec("naive"), fp, 100.0).value == 3.0

    def test_good_turing_no_singletons(self):
        fp = Fingerprint({2: 4})
        assert estimate(EstimatorSpec("gt"), fp, 100.0).value == 4.0

    def test_gt_fallback(self):
        fp = Fingerprint({1: 5})
        with pytest.raises(CoverageZeroError):
            estimate(EstimatorSpec("gt"), fp, 100.0)
        res = estimate(EstimatorSpec("gt", fallback_to_naive=True), fp, 100.0)
        assert res.value == 5.0
        assert res.diagnostics["fallback"] == "naive"

    def test_wy_fallback(self):
        # n = 1000 against k = 100: n/k = 10 is past c1 ln k
        fp = Fingerprint({500: 2})
        with pytest.raises(IntervalCollapseError):
            estimate(EstimatorSpec("wy"), fp, 100.0)
        res = estimate(EstimatorSpec("wy", fallback_to_naive=True), fp, 100.0)
        assert res.value == 2.0

    def test_rwcs_uses_per_sample_count(self):
        fp = Fingerprint({1: 3, 2: 1})
        spec = EstimatorSpec("rwc-s", s=200)
        res = estimate(spec, fp, 1e4)
        assert res.diagnostics["s_count"] == 4.0
        direct = rwcs_coefficients(1e4, 5, 4.0, spec)
        assert res.value == pytest.approx(apply_poly_estimator(fp, direct.coeffs))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EstimatorSpec("bogus")

    def test_all_values_finite(self):
        fp = Fingerprint({1: 40, 2: 12, 3: 4, 7: 1})
        for kind in ("rwc", "rwc-s", "wy", "gt", "naive"):
            spec = EstimatorSpec(kind, s=200)
            value = estimate(spec, fp, 2000.0).value
            assert np.isfinite(value)
