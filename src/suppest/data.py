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

# Tokens are runs of letters, digits and apostrophes.  `_` matches \w, so
# tokenize_text turns it into a space first; no character lowercases to one
# that contains `_`.
_TOKEN_RE = re.compile(r"[\w']+")

# Bytes read from a file at a time by the streaming readers.  The numpy
# arrays of an ASCII block take several times its size.
_BLOCK_BYTES = 1 << 18

class IngestionError(ValueError):
    pass


@dataclass(frozen=True)
class Fingerprint:
    """Sparse counts-of-counts: h[j] symbols were observed exactly j times.

    Each count j must be a positive integer (an integral float becomes an int
    key) and each h[j] positive.  `h` is kept in ascending order of j.
    """

    h: dict

    def __post_init__(self):
        for j, hj in self.h.items():
            if not (j >= 1 and j % 1 == 0 and hj >= 1):
                raise ValueError(f"fingerprint entries must be positive with integer counts, got h[{j}] = {hj}")
        # ascending count order, so that sums over h do not depend on the order the caller built it in
        object.__setattr__(self, "h", {int(j): hj for j, hj in sorted(self.h.items())})

    @property
    def n(self) -> int:
        return sum(j * hj for j, hj in self.h.items())

    @property
    def distinct(self) -> int:
        return sum(self.h.values())


def tokenize_text(text: str) -> list[str]:
    """Lowercase and split on anything that is not alphanumeric or apostrophe."""
    return _TOKEN_RE.findall(text.lower().replace("_", " "))


def _decode(offset: int, raw: bytes) -> str:
    """Decode UTF-8 bytes that start at byte `offset` of their file."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"invalid UTF-8 at byte offset {offset + exc.start}") from exc


def _blocks(fh, seps: bytes):
    """Read a binary file as (offset, raw) pieces, each cut after its last byte in `seps`.

    `offset` is the file position of raw's first byte.  Every piece but the
    last ends with a byte of `seps`; a run longer than a block with none of
    them is carried whole into the next piece.  `seps` are ASCII, which never
    occurs inside a UTF-8 multibyte sequence, so each piece decodes on its own
    exactly as it does within the whole file.
    """
    offset = 0
    pieces = []
    while raw := fh.read(_BLOCK_BYTES):
        cut = max(map(raw.rfind, seps)) + 1
        if cut:
            pieces.append(raw[:cut])
            piece = b"".join(pieces)
            yield offset, piece
            offset += len(piece)
            pieces = [raw[cut:]]
        else:
            pieces.append(raw)
    piece = b"".join(pieces)
    if piece:
        yield offset, piece


def text_fingerprint(fh) -> Fingerprint:
    """Fingerprint of the tokens of a UTF-8 text read from a binary file: the
    counts of both parts of `_text.text_counts`, which states the memory bound."""
    from . import _text  # compiled on first use, so that other commands skip it

    key_counts, other = _text.text_counts(fh)
    return _fingerprint_of(np.concatenate([key_counts.counts, np.fromiter(other.values(), np.int64, len(other))]))


def histogram_from_tokens(tokens) -> Counter:
    return Counter(tokens)


def histogram_from_counts_file(path) -> dict:
    """Symbol -> count from a UTF-8 file of `symbol<TAB>count` lines (or bare
    counts, one symbol per line), split as by `str.splitlines`.

    A bare count on line N is keyed by the int N, which no str symbol equals.
    """
    counts = {}
    with open(path, "rb") as fh:
        lines = (line for offset, raw in _blocks(fh, b"\n") for line in _decode(offset, raw).splitlines())
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            if "\t" in line:
                sym, _, count_str = line.partition("\t")
            else:
                sym, count_str = lineno, line
            try:
                count = int(count_str.strip())
            except ValueError:
                raise IngestionError(f"line {lineno}: malformed count {count_str.strip()!r}") from None
            if count <= 0:
                raise IngestionError(f"line {lineno}: count must be positive, got {count}")
            counts[sym] = counts.get(sym, 0) + count
    return counts


def fingerprint(counts) -> Fingerprint:
    """Counts of counts of a symbol -> count mapping."""
    return Fingerprint(dict(Counter(counts.values())))


def _fingerprint_of(counts) -> Fingerprint:
    """Counts of counts of an int array of positive counts, in memory of the
    array's size: the counts above counts.size are fewer than
    sum(counts) / counts.size, and only those are not counted by np.bincount."""
    small = counts <= counts.size
    freq = np.bincount(counts[small])
    h = {int(j): int(freq[j]) for j in np.flatnonzero(freq)}
    h.update(Counter(counts[~small].tolist()))
    return Fingerprint(h)


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


# Largest support of a synthetic distribution, 2**29 symbols: its probability
# vector alone takes 4 GiB.  Checked before anything support-sized is allocated.
MAX_SUPPORT = 2**29


def _too_large(target_min_mass: float) -> str:
    return f"min mass {target_min_mass:.6g} needs more than {MAX_SUPPORT} symbols, the largest support allowed"


def make_distribution(kind: str, target_min_mass: float, alpha: float | None = None) -> DistributionSpec:
    """Build the distribution whose smallest mass is the largest value not
    exceeding the target (uniform rounds 1/target to the nearest integer)."""
    if not (0.0 < target_min_mass < 1.0):
        raise ValueError("target_min_mass must lie in (0, 1)")
    if kind == "uniform":
        support = max(int(round(1.0 / target_min_mass)), 1)
        if support > MAX_SUPPORT:
            raise ValueError(_too_large(target_min_mass))
        probs = np.full(support, 1.0 / support)
        return DistributionSpec(kind, support, probs)
    if kind == "zipf":
        if alpha is None or not alpha > 0:
            raise ValueError("zipf needs a positive alpha")
        weights = lambda size: np.arange(1, size + 1, dtype=float) ** (-alpha)
    elif kind == "benford":
        weights = lambda size: np.diff(np.log(np.arange(1, size + 2, dtype=float)))
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    # support s takes the first s weights, and their smallest share w_s / (w_1 + ... + w_s)
    # falls as s grows; scan sizes 2, 4, ..., MAX_SUPPORT for the first s where it is <= the target
    for e in range(1, MAX_SUPPORT.bit_length()):
        w = weights(2**e)
        below = w <= target_min_mass * np.cumsum(w)
        if below.any():
            break
    else:
        raise ValueError(_too_large(target_min_mass))
    w = w[: int(np.argmax(below)) + 1]
    probs = w / w.sum()
    if probs[-1] < np.finfo(float).tiny:
        # 1 / min mass, the class parameter k, would not be a finite float
        raise ValueError(f"zipf exponent {alpha:g} is too large: the smallest mass underflows")
    return DistributionSpec(kind, len(w), probs, alpha=alpha)


def child_seed(master: int, *path: int) -> np.random.SeedSequence:
    """Splittable per-trial seed: identical for a given (master, path) on every
    platform, independent of evaluation order."""
    return np.random.SeedSequence(entropy=master, spawn_key=tuple(path))


def _sample_indices(dist: DistributionSpec, n: int, seeds):
    """The symbol index of each of n i.i.d. draws, one array per seed, by
    inverse CDF over the cumulative weights cum; deterministic given
    (seed, n, dist).

    A draw u goes to symbol #{i : cum[i] <= u}: symbol i gets the u with
    cum[i-1] <= u < cum[i], and a tie u == cum[i] goes to symbol i + 1.  The
    unit interval is cut into `cells` equal cells, a power of two not below
    min(n, support), so u * cells and j / cells are exact and u lies in cell
    trunc(u * cells).  A table of the number of cum values below each cell
    gives every draw a lower bound of its symbol; one whole-array step up cum
    settles most of the rest, and a binary search the draws still short.  The
    table only bounds each index from below, so the draws do not depend on
    the cell count.  cum and the table are built once for all the seeds (an
    O(support) cumsum and fewer than 2n + 1 binary searches, at the first
    seed) and die with the generator; each seed then makes at most n binary
    searches and holds about three n-sized arrays at once.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    cum = np.cumsum(dist.probs)
    cum[-1] = 1.0
    cells = 1 << (max(min(n, dist.support), 1) - 1).bit_length()
    table = None
    for seed in seeds:
        rng = np.random.Generator(np.random.Philox(seed))
        try:
            u = rng.random(n)
            if table is None:
                table = np.searchsorted(cum, np.arange(cells) / cells)
            idx = table[(u * cells).astype(np.intp)]
            idx += cum[idx] <= u
            short = np.flatnonzero(cum[idx] <= u)
            idx[short] = np.searchsorted(cum, u[short], side="right")
        except (ValueError, MemoryError) as exc:  # numpy's "Maximum allowed dimension exceeded", or no memory
            raise ValueError(f"sample size n = {n:.6g} is too large to draw") from exc
        del u, short  # only idx stays alive while the caller uses it
        yield idx


def sample_counts(dist: DistributionSpec, n: int, seed) -> np.ndarray:
    """Per-symbol counts of n i.i.d. draws (see `_sample_indices`)."""
    (idx,) = _sample_indices(dist, n, [seed])
    return np.bincount(idx, minlength=dist.support)


def sample_fingerprints(dist: DistributionSpec, n: int, seeds) -> list[Fingerprint]:
    """Fingerprints of one n-draw sample per seed, without materializing the
    symbol histograms.  The sampling table is paid once for all the seeds."""
    fps = []
    for idx in _sample_indices(dist, n, seeds):
        freq = np.bincount(np.bincount(idx))  # freq[j]: symbols drawn j times, j = 0 included
        fps.append(Fingerprint({int(j): int(freq[j]) for j in np.flatnonzero(freq[1:]) + 1}))
    return fps


def sample_fingerprint(dist: DistributionSpec, n: int, seed) -> Fingerprint:
    """Fingerprint of one sample (see `sample_fingerprints`)."""
    return sample_fingerprints(dist, n, [seed])[0]


def bundled_corpus_path():
    """Path of the bundled sample corpus used by the text experiment."""
    return importlib.resources.files("suppest") / "corpus" / "sample_corpus.txt"
