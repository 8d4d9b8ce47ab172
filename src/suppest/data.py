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

# ASCII whitespace: text blocks are cut after it.
_WHITESPACE = b" \t\n\r\x0b\x0c"

# The bytes of ASCII tokens.
_KEY_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789'"

# On ASCII bytes, lowercasing and tokenizing in one table: A-Z maps to a-z,
# [a-z0-9'] is kept and every other byte becomes a space.
_ASCII_FOLD = bytes(c if c in _KEY_ALPHABET else 32 for c in bytes(range(256)).lower())

# An ASCII token of at most _KEY_BYTES bytes is counted as a uint64 key: the
# bijective base-38 numeral of its bytes, each byte folded and then read as
# the digit _KEY_DIGIT[byte] (1-37; 0 outside tokens).  No digit is 0, so
# distinct tokens have distinct keys, and the largest key, 38**12 - 1, is
# below 2**64.
_KEY_BYTES = 12
_KEY_DIGIT = bytes(_KEY_ALPHABET.find(c) + 1 for c in _ASCII_FOLD)
# Digit -> byte, 0 -> space.
_KEY_CHARS = (b" " + _KEY_ALPHABET).ljust(256)

# Keys turned back into str tokens at a time.
_DECODE_KEYS = 1 << 14


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


class _KeyCounts:
    """Counts of uint64 keys: a sorted vocabulary and the per-block counts not
    yet merged into it.  They are merged once they hold more keys than the
    vocabulary, so memory stays within a few times the vocabulary plus one
    block, and a merge sorts at most about twice the keys added since the
    last one."""

    def __init__(self):
        self.keys = np.zeros(0, np.uint64)
        self.counts = np.zeros(0, np.int64)
        self.pending = []
        self.pending_keys = 0

    def add(self, keys):
        keys, counts = np.unique(keys, return_counts=True)
        self.pending.append((keys, counts))
        self.pending_keys += keys.size
        if self.pending_keys > self.keys.size:
            self.merge()

    def merge(self):
        if not self.pending_keys:
            return
        keys = np.concatenate([self.keys, *(k for k, _ in self.pending)])
        counts = np.concatenate([self.counts, *(c for _, c in self.pending)])
        order = keys.argsort(kind="stable")  # a merge of sorted runs
        keys, counts = keys[order], counts[order]
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        self.keys, self.counts = keys[first], np.add.reduceat(counts, first)
        self.pending, self.pending_keys = [], 0


def _count_ascii(raw: bytes, key_counts: _KeyCounts, other: Counter):
    """Count the tokens of an ASCII block: those of at most _KEY_BYTES bytes
    as keys into `key_counts`, longer ones as str into `other`."""
    digits = np.frombuffer(raw.translate(_KEY_DIGIT), np.uint8)
    in_token = np.zeros(digits.size + 2, bool)
    np.not_equal(digits, 0, out=in_token[1:-1])
    edges = np.flatnonzero(in_token[1:] != in_token[:-1])
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    short = lengths <= _KEY_BYTES
    if not short.all():
        # blank all but the long tokens and split: the block is runs of
        # gap, token, gap, ..., token, gap bytes
        in_long = np.zeros(edges.size + 1, bool)
        in_long[1::2] = ~short
        in_long = np.repeat(in_long, np.diff(edges, prepend=0, append=digits.size))
        other.update((digits * in_long).tobytes().translate(_KEY_CHARS).decode("ascii").split())
        starts, lengths = starts[short], lengths[short]
    # Horner's rule over byte positions; the tokens are taken longest first,
    # so those with a byte at position i are a prefix
    order = (_KEY_BYTES - lengths).astype(np.uint8).argsort(kind="stable")
    starts = starts[order]
    longer_than = starts.size - np.cumsum(np.bincount(lengths, minlength=_KEY_BYTES))
    keys = np.zeros(starts.size, np.uint64)
    for i, running in enumerate(longer_than[: int(lengths.max(initial=0))].tolist()):
        head = keys[:running]
        head *= 38
        head += digits[starts[:running] + i]
    key_counts.add(keys)


def _tokens_of_keys(keys) -> list[str]:
    """The str token of each key, in order."""
    rows = np.zeros((keys.size, _KEY_BYTES + 1), np.uint8)  # digits; the last column separates tokens
    rest = keys.copy()
    # the last digit of a bijective numeral r > 0 is (r - 1) % 38 + 1, and the
    # rest (r - 1) // 38; a key whose digits have run out stays 0
    for col in range(_KEY_BYTES - 1, -1, -1):
        live = rest != 0
        rest -= live
        rows[:, col] = (rest % 38 + 1) * live
        rest //= 38
    return rows.tobytes().translate(_KEY_CHARS).decode("ascii").split()


def histogram_from_text(fh) -> Counter:
    """Token -> count of the tokens of a UTF-8 text read from a binary file.

    The file is read in blocks cut after ASCII whitespace, which no token and
    no lowercasing context crosses (Greek final sigma looks back across "."
    and "'", never across whitespace).  An ASCII block is tokenized by a
    bytes translation and counted in numpy, a token as an exact uint64 key
    (see _KEY_DIGIT) or, past _KEY_BYTES bytes, as a str; any other block is
    tokenized by `tokenize_text`.  The keys become str tokens once, at the
    end, so the result's order is not the order of first appearance.
    Memory is bounded by the vocabulary plus one block plus the longest run
    without whitespace, whatever the file size.
    """
    key_counts, other = _KeyCounts(), Counter()
    for offset, raw in _blocks(fh, _WHITESPACE):
        if raw.isascii():
            _count_ascii(raw, key_counts, other)
        else:
            other.update(tokenize_text(_decode(offset, raw)))
    key_counts.merge()
    counts = Counter()
    for lo in range(0, key_counts.keys.size, _DECODE_KEYS):
        hi = lo + _DECODE_KEYS
        # the tokens of distinct keys are distinct: set, not add
        dict.update(counts, zip(_tokens_of_keys(key_counts.keys[lo:hi]), key_counts.counts[lo:hi].tolist()))
    counts.update(other)
    return counts


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
        if alpha is None or not alpha > 0:
            raise ValueError("zipf needs a positive alpha")
        weights = lambda size: np.arange(1, size + 1, dtype=float) ** (-alpha)
    elif kind == "benford":
        weights = lambda size: np.diff(np.log(np.arange(1, size + 2, dtype=float)))
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    # support s takes the first s weights, and their smallest share w_s / (w_1 + ... + w_s)
    # falls as s grows; scan sizes 2, 4, ..., 2**29 (supports up to 10**9) for the first s
    # where it is <= the target
    for e in range(1, 30):
        w = weights(2**e)
        below = w <= target_min_mass * np.cumsum(w)
        if below.any():
            break
    else:
        raise ValueError("infeasible target_min_mass")
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


def sample_counts(dist: DistributionSpec, n: int, seed) -> np.ndarray:
    """Per-symbol counts of n i.i.d. draws, by inverse CDF over the cumulative
    weights cum; deterministic given (seed, n, dist).

    A draw u goes to symbol #{i : cum[i] <= u}: symbol i gets the u with
    cum[i-1] <= u < cum[i], and a tie u == cum[i] goes to symbol i + 1.  The
    unit interval is cut into `cells` equal cells, a power of two not below
    min(n, support), so u * cells and j / cells are exact and u lies in cell
    trunc(u * cells).  A table of the number of cum values below each cell
    gives every draw a lower bound of its symbol; one whole-array step up cum
    settles most of the rest, and a binary search the draws still short.
    Besides the O(support) of cum, the call makes fewer than 3n + 1 binary
    searches (fewer than 2n + 1 for the table, at most n for short draws) and
    holds about three n-sized arrays at once.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.Generator(np.random.Philox(seed))
    cum = np.cumsum(dist.probs)
    cum[-1] = 1.0
    try:
        u = rng.random(n)
        cells = 1 << (max(min(n, dist.support), 1) - 1).bit_length()
        idx = np.searchsorted(cum, np.arange(cells) / cells)[(u * cells).astype(np.intp)]
        idx += cum[idx] <= u
        short = np.flatnonzero(cum[idx] <= u)
        idx[short] = np.searchsorted(cum, u[short], side="right")
    except (ValueError, MemoryError) as exc:  # numpy's "Maximum allowed dimension exceeded", or no memory
        raise ValueError(f"sample size n = {n:.6g} is too large to draw") from exc
    return np.bincount(idx, minlength=dist.support)


def sample_fingerprint(dist: DistributionSpec, n: int, seed) -> Fingerprint:
    """Fingerprint of a sample without materializing the symbol histogram."""
    counts = sample_counts(dist, n, seed)
    counts = counts[counts > 0]
    freq = np.bincount(counts)
    return Fingerprint({int(j): int(freq[j]) for j in np.flatnonzero(freq)})


def bundled_corpus_path():
    """Path of the bundled sample corpus used by the text experiment."""
    return importlib.resources.files("suppest") / "corpus" / "sample_corpus.txt"
