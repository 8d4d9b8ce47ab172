"""Support-size estimation via regularized weighted Chebyshev approximation."""

from .data import (
    DistributionSpec,
    Fingerprint,
    Histogram,
    fingerprint,
    histogram_from_counts_file,
    histogram_from_tokens,
    make_distribution,
    sample,
    sample_fingerprint,
    tokenize_text,
)
from .estimators import (
    EstimateResult,
    EstimatorSpec,
    apply_poly_estimator,
    degree_for,
    estimate,
    good_turing,
    naive_count,
    rwc_coefficients,
    rwcs_coefficients,
    wy_coefficients,
)
from .poly import (
    Polynomial,
    g_values,
    objective_values,
    shifted_cheb_coeffs,
)
from .sip import (
    GridSpec,
    IntervalSpec,
    SipProblem,
    SolveResult,
    build_grid,
    certify,
    localized_interval,
    solve,
)

__version__ = "0.1.0"
