"""In-memory spans around the public functions of each suppest module.

Each traced function is replaced in every suppest module namespace that holds
it, so the wrapper is found wherever a caller looks the name up (for example
``suppest.estimators.solve`` and ``suppest.harness.est_mod.rwcs_coefficients``,
which is the estimators module itself).  Spans record name, parent span,
start and end; layer metrics are derived from them after each pass.
"""

from __future__ import annotations

import functools
import statistics
import time

# (module, attribute) pairs wrapped during a traced pass.  ``cli.main`` is the
# root span of every CLI call; the rest are the layer boundaries below it.
TRACED = (
    ("cli", "main"),
    ("data", "tokenize_text"),
    ("data", "histogram_from_tokens"),
    ("data", "fingerprint"),
    ("data", "sample_fingerprint"),
    ("estimators", "estimate"),
    ("estimators", "rwc_coefficients"),
    ("estimators", "rwcs_coefficients"),
    ("estimators", "wy_coefficients"),
    ("estimators", "apply_poly_estimator"),
    ("harness", "evaluate_risk"),
    ("poly", "objective_values"),
    ("sip", "solve"),
)

_HARNESS_SOLVES = {
    "estimators.rwc_coefficients",
    "estimators.rwcs_coefficients",
    "estimators.wy_coefficients",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "iterations", "failed")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.iterations = 0
        self.failed = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs wrappers for the duration of a ``with`` block."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        is_solve = name == "sip.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.failed = True
                best = getattr(exc, "best", None)
                if is_solve and best is not None:
                    span.iterations = best.iterations
                raise
            else:
                if is_solve:
                    span.iterations = result.iterations
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        for mod_name, attr in TRACED:
            original = getattr(self.modules[mod_name], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for module in self.modules.values():
                keys = [key for key, value in vars(module).items() if value is original]
                for key in keys:
                    self._patched.append((module, key, original))
                    setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc_info):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        return False

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[Span], input_bytes: int, rwcs_trial_estimates: int) -> dict:
    """Per-pass layer numbers from one pass's spans.

    ``rwcs_trial_estimates`` is the base of the harness cache-hit ratio: the
    number of RWC-S estimates the sweep makes (trials x distributions x n).
    """
    total: dict = {}
    calls: dict = {}
    child_s = [0.0] * len(spans)
    harness_sampling = harness_solving = 0.0
    harness_rwcs_solves = 0
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.parent < 0:
            continue
        child_s[span.parent] += span.seconds
        if spans[span.parent].name == "harness.evaluate_risk":
            if span.name == "data.sample_fingerprint":
                harness_sampling += span.seconds
            elif span.name in _HARNESS_SOLVES:
                harness_solving += span.seconds
                harness_rwcs_solves += span.name == "estimators.rwcs_coefficients"

    def self_s(name):
        return sum((s.seconds - child_s[i] for i, s in enumerate(spans) if s.name == name), 0.0)

    solves = [s for s in spans if s.name == "sip.solve"]
    data_s = sum(
        total.get(n, 0.0)
        for n in ("data.tokenize_text", "data.histogram_from_tokens", "data.fingerprint")
    )
    return {
        "data.tokenize_text.s": total.get("data.tokenize_text", 0.0),
        "data.histogram_from_tokens.s": total.get("data.histogram_from_tokens", 0.0),
        "data.fingerprint.s": total.get("data.fingerprint", 0.0),
        "data.input_mb_per_s": input_bytes / 1e6 / data_s if data_s > 0 else 0.0,
        "data.sample_fingerprint.calls": calls.get("data.sample_fingerprint", 0),
        "data.sample_fingerprint.s": total.get("data.sample_fingerprint", 0.0),
        "sip.solve.calls": len(solves),
        "sip.solve.s": sum(s.seconds for s in solves),
        "sip.solve.p50_ms": 1e3 * statistics.median(s.seconds for s in solves) if solves else 0.0,
        "sip.solve.iterations": sum(s.iterations for s in solves),
        "sip.solve.failed": sum(s.failed for s in solves),
        "estimators.rwcs_coefficients.calls": calls.get("estimators.rwcs_coefficients", 0),
        "estimators.apply_poly_estimator.s": total.get("estimators.apply_poly_estimator", 0.0),
        "harness.cache_hit_ratio": (
            1.0 - harness_rwcs_solves / rwcs_trial_estimates if rwcs_trial_estimates else 0.0
        ),
        "harness.sampling_s": harness_sampling,
        "harness.solving_s": harness_solving,
        "harness.self_s": self_s("harness.evaluate_risk"),
        "poly.objective_values.calls": calls.get("poly.objective_values", 0),
        "poly.objective_values.s": total.get("poly.objective_values", 0.0),
        "cli.self_s": self_s("cli.main"),
    }
