"""Summaries of risk-sweep reports that the tests compare estimators by."""


def worst_case(report, estimator: str, normalization: str) -> float:
    """Max MSE / k^2 (normalization "k2") or MSE / S^2 ("s2") over the
    distribution suite of a `RiskReport` for one estimator."""
    if normalization not in ("k2", "s2"):
        raise ValueError("normalization must be 'k2' or 's2'")
    values = [getattr(r, f"nmse_{normalization}") for r in report.rows if r.estimator == estimator and not r.error]
    if not values:
        raise ValueError(f"no successful rows for estimator {estimator!r}")
    return max(values)
