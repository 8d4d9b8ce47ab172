"""Counting the tokens of a UTF-8 text file in blocks, ASCII blocks in numpy
on a pool of threads: the engine of `data.text_fingerprint`.

Only it imports this module, when first called, so that commands which
read no text neither compile it nor load the thread pool.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import data

# ASCII whitespace: text blocks are cut after it.
_WHITESPACE = b" \t\n\r\x0b\x0c"

# The bytes of ASCII tokens.
_KEY_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789'"

# On ASCII bytes, lowercasing and tokenizing in one table: A-Z maps to a-z,
# [a-z0-9'] is kept and every other byte becomes a space, as in
# `data.tokenize_text`.
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

# Threads that count ASCII blocks, at most.
_MAX_WORKERS = 4


class _KeyCounts:
    """Counts of uint64 keys: a sorted vocabulary and the runs of counts not
    yet merged into it.  They are merged once they hold more keys than the
    vocabulary, so memory stays within a few times the vocabulary plus one
    block, and a merge sorts at most about twice the keys added since the
    last one."""

    def __init__(self):
        self.keys = np.zeros(0, np.uint64)
        self.counts = np.zeros(0, np.int64)
        self.pending = []
        self.pending_keys = 0

    def add(self, keys, counts):
        """Add sorted distinct keys with their counts."""
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


def _token_edges(digits):
    """The int32 byte positions where the tokens of a digit array (see
    _KEY_DIGIT) start and end, alternately: a block is far below 2**31 bytes."""
    in_token = np.zeros(digits.size + 2, bool)
    np.not_equal(digits, 0, out=in_token[1:-1])
    return np.flatnonzero(in_token[1:] != in_token[:-1]).astype(np.int32)


def _keys(digits, starts, lengths):
    """The uint64 keys of tokens of at most _KEY_BYTES digits, and the order
    of the tokens they belong to: keys[i] is the key of token order[i]."""
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
    return keys, order


def _count_ascii(raw: bytes):
    """Count the tokens of an ASCII block: the sorted distinct keys of those
    of at most _KEY_BYTES bytes with their counts, and the digits of the
    longer tokens, each followed by its gap (None if there are none).  Numpy
    and bytes work only, which can run off the calling thread."""
    digits = np.frombuffer(raw.translate(_KEY_DIGIT), np.uint8)
    edges = _token_edges(digits)
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    short = lengths <= _KEY_BYTES
    long_digits = None
    if not short.all():
        # the block is runs of gap, token, gap, ..., token, gap bytes
        keep = np.zeros(edges.size + 1, bool)
        keep[1::2] = keep[2::2] = ~short
        long_digits = digits[np.repeat(keep, np.diff(edges, prepend=0, append=digits.size))].tobytes()
        starts, lengths = starts[short], lengths[short]
    keys, _ = _keys(digits, starts, lengths)
    return np.unique(keys, return_counts=True), long_digits


def text_counts(fh) -> tuple[_KeyCounts, Counter]:
    """The token counts of a UTF-8 text read from a binary file, in two parts
    that share no token: every ASCII token of at most _KEY_BYTES bytes as a
    uint64 key (see _KEY_DIGIT), and every other token as a str.

    The file is read in blocks cut after ASCII whitespace, which no token and
    no lowercasing context crosses (Greek final sigma looks back across "."
    and "'", never across whitespace).  An ASCII block is tokenized by a bytes
    translation and counted in numpy on a pool of threads, one per CPU the
    process may run on up to _MAX_WORKERS; at most workers + 1 blocks are in
    flight, and their counts are added in file order on the calling thread.
    All str work stays on the calling thread: the tokens past _KEY_BYTES
    bytes, and every block with a non-ASCII byte, which `data.tokenize_text`
    splits.  The short ASCII tokens of those blocks become keys once, over
    the distinct tokens, at the end.  Memory is bounded by the vocabulary plus
    workers + 1 blocks plus the longest run without whitespace, whatever the
    file size.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, _MAX_WORKERS)
    key_counts, other = _KeyCounts(), Counter()
    in_flight = deque()

    def add(block):
        (keys, counts), long_digits = block.result()
        key_counts.add(keys, counts)
        if long_digits is not None:
            other.update(long_digits.translate(_KEY_CHARS).decode("ascii").split())

    with ThreadPoolExecutor(workers) as pool:
        for offset, raw in data._blocks(fh, _WHITESPACE):
            if raw.isascii():
                in_flight.append(pool.submit(_count_ascii, raw))
                if len(in_flight) > workers:
                    add(in_flight.popleft())
            else:
                other.update(data.tokenize_text(data._decode(offset, raw)))
        while in_flight:
            add(in_flight.popleft())
    short = [token for token in other if len(token) <= _KEY_BYTES and token.isascii()]
    if short:
        digits = np.frombuffer(" ".join(short).encode().translate(_KEY_DIGIT), np.uint8)
        edges = _token_edges(digits)
        keys, order = _keys(digits, edges[::2], edges[1::2] - edges[::2])
        counts = np.array([other.pop(token) for token in short], np.int64)[order]
        by_key = keys.argsort()
        key_counts.add(keys[by_key], counts[by_key])
    key_counts.merge()
    return key_counts, other

