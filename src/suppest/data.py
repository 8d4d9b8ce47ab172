"""Sample ingestion, fingerprints, and seeded synthetic distributions.

Symbols only ever matter through their counts, so the histogram is reduced to
its fingerprint (counts of counts) as early as possible.  Synthetic sampling
uses a counter-based PRNG (Philox) keyed through SeedSequence so that every
(seed, n, distribution) triple reproduces bit-for-bit on any platform, and
per-trial child seeds are derived splittably from the master seed.
"""

from __future__ import annotations

import importlib.resources
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

_TOKEN_RE = re.compile(r"(?:[^\W_]|')+", re.UNICODE)


class IngestionError(ValueError):
    pass


class Histogram:
    """Symbol -> positive count mapping."""

    def __init__(self, counts: dict):
        for sym, c in counts.items():
            if c < 1 or c != int(c):
                raise ValueError(f"count for {sym!r} must be a positive integer, got {c}")
        self.counts = {sym: int(c) for sym, c in counts.items()}

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def __len__(self):
        return len(self.counts)

    def __eq__(self, other):
        return isinstance(other, Histogram) and self.counts == other.counts


@dataclass(frozen=True)
class Fingerprint:
    """Sparse counts-of-counts: h[j] symbols were observed exactly j times."""

    h: dict

    def __post_init__(self):
        for j, hj in self.h.items():
            if j < 1 or hj < 1:
                raise ValueError(f"fingerprint entries must be positive, got h[{j}] = {hj}")

    @property
    def n(self) -> int:
        return sum(j * hj for j, hj in self.h.items())

    @property
    def distinct(self) -> int:
        return sum(self.h.values())


def tokenize_text(data) -> list[str]:
    """Lowercase and split on anything that is not alphanumeric or apostrophe."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestionError(f"invalid UTF-8 at byte offset {exc.start}") from exc
    else:
        text = data
    return _TOKEN_RE.findall(text.lower())


def histogram_from_tokens(tokens) -> Histogram:
    return Histogram(dict(Counter(tokens)))


def histogram_from_counts_file(source) -> Histogram:
    """Parse `symbol<TAB>count` lines (or bare counts, one symbol per line)."""
    if isinstance(source, (str,)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    counts = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if "\t" in line:
            sym, _, count_str = line.partition("\t")
        else:
            sym, count_str = f"line{lineno}", line
        try:
            count = int(count_str.strip())
        except ValueError:
            raise IngestionError(f"line {lineno}: malformed count {count_str.strip()!r}") from None
        if count <= 0:
            raise IngestionError(f"line {lineno}: count must be positive, got {count}")
        counts[sym] = counts.get(sym, 0) + count
    return Histogram(counts)


def fingerprint(hist: Histogram) -> Fingerprint:
    return Fingerprint(dict(Counter(hist.counts.values())))


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Synthetic ground truth: known support size and probability vector."""

    kind: str
    support: int
    probs: np.ndarray
    alpha: float | None = None

    @property
    def min_mass(self) -> float:
        return float(self.probs.min())

    @property
    def k(self) -> float:
        """Reciprocal lower bound on the minimum mass (the class parameter)."""
        return float(math.ceil(1.0 / self.min_mass))

    @property
    def label(self) -> str:
        if self.kind == "zipf":
            return f"zipf({self.alpha:g})"
        return self.kind


def _zipf_min_mass(support: int, alpha: float) -> float:
    weights = np.arange(1, support + 1, dtype=float) ** (-alpha)
    return float(weights[-1] / weights.sum())


def _benford_min_mass(support: int) -> float:
    return math.log1p(1.0 / support) / math.log(support + 1)


def make_distribution(kind: str, target_min_mass: float, alpha: float | None = None) -> DistributionSpec:
    """Build the distribution whose smallest mass is the largest value not
    exceeding the target (uniform rounds 1/target to the nearest integer)."""
    if not (0.0 < target_min_mass < 1.0):
        raise ValueError("target_min_mass must lie in (0, 1)")
    if kind == "uniform":
        support = max(int(round(1.0 / target_min_mass)), 1)
        probs = np.full(support, 1.0 / support)
        return DistributionSpec(kind, support, probs)
    if kind == "zipf":
        if alpha is None or alpha <= 0:
            raise ValueError("zipf needs a positive alpha")
        min_mass = lambda s: _zipf_min_mass(s, alpha)
    elif kind == "benford":
        min_mass = _benford_min_mass
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    lo, hi = 1, 2
    while min_mass(hi) > target_min_mass:
        lo, hi = hi, hi * 2
        if hi > 10**9:
            raise ValueError("infeasible target_min_mass")
    # smallest support with min mass <= target (min mass decreases with support)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if min_mass(mid) <= target_min_mass:
            hi = mid
        else:
            lo = mid
    support = hi
    if kind == "zipf":
        weights = np.arange(1, support + 1, dtype=float) ** (-alpha)
    else:
        edges = np.log(np.arange(1, support + 2, dtype=float))
        weights = np.diff(edges)
    probs = weights / weights.sum()
    return DistributionSpec(kind, support, probs, alpha=alpha)


def child_seed(master: int, *path: int) -> np.random.SeedSequence:
    """Splittable per-trial seed: identical for a given (master, path) on every
    platform, independent of evaluation order."""
    return np.random.SeedSequence(entropy=master, spawn_key=tuple(path))


def _generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample_counts(dist: DistributionSpec, n: int, seed) -> np.ndarray:
    """Per-symbol counts of n i.i.d. draws, by inverse CDF over the cumulative
    weights; deterministic given (seed, n, dist)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.zeros(dist.support, dtype=np.int64)
    rng = _generator(seed)
    cum = np.cumsum(dist.probs)
    cum[-1] = 1.0
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    return np.bincount(idx, minlength=dist.support)


def sample(dist: DistributionSpec, n: int, seed) -> Histogram:
    counts = sample_counts(dist, n, seed)
    nz = np.flatnonzero(counts)
    return Histogram({int(i): int(counts[i]) for i in nz})


def sample_fingerprint(dist: DistributionSpec, n: int, seed) -> Fingerprint:
    """Fingerprint of a sample without materializing the symbol histogram."""
    counts = sample_counts(dist, n, seed)
    counts = counts[counts > 0]
    freq = np.bincount(counts)
    return Fingerprint({int(j): int(freq[j]) for j in np.flatnonzero(freq)})


def bundled_corpus_path():
    """Path of the bundled sample corpus used by the text experiment."""
    return importlib.resources.files("suppest") / "corpus" / "sample_corpus.txt"
