"""Counting the tokens of a UTF-8 text file in blocks, ASCII blocks in numpy
on a pool of threads: the engine of `data.text_fingerprint`.

Only it imports this module, when first called, so that commands which
read no text neither compile it nor load the thread pool.
"""

from __future__ import annotations

import os
import threading
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

# An ASCII token of at most _KEY_BYTES bytes is counted as a uint64 key, made
# of its bytes each folded and then read as the digit _KEY_DIGIT[byte] (1-37;
# 0 outside tokens).  A token of at most 8 bytes is the little-endian number
# of its digit bytes, below 2**63.  A longer one is its bijective base-38
# numeral, below 38**12 < 2**63, with bit 63 set.  No digit is 0, so distinct
# tokens have distinct keys.
_KEY_BYTES = 12
_KEY_DIGIT = bytes(_KEY_ALPHABET.find(c) + 1 for c in _ASCII_FOLD)
# Digit -> byte, 0 -> space.
_KEY_CHARS = (b" " + _KEY_ALPHABET).ljust(256)
# Token length -> the mask of its digit bytes in an 8-byte read (all 8 past 8).
_LOW_BYTES = np.array([(1 << 8 * min(n, 8)) - 1 for n in range(_KEY_BYTES + 1)], np.uint64)
_NUMERAL_TAG = np.uint64(1 << 63)

# Threads that count ASCII blocks, at most.
_MAX_WORKERS = 4


class _KeyCounts:
    """Counts of uint64 keys: a sorted vocabulary with its counts, and the
    keys added since it was last brought up to date, with repeats.  Any
    thread may add keys.  Once the added keys outnumber the vocabulary, the
    thread that added the last of them sorts, counts and merges them into
    it, unless another thread is merging: then they wait for a later add.
    Each key is sorted once."""

    def __init__(self):
        self.keys = np.zeros(0, np.uint64)
        self.counts = np.zeros(0, np.int64)
        self.pending = []
        self.merging = threading.Lock()

    def add(self, keys):
        """Add keys in any order, with repeats."""
        self.pending.append(keys)
        if sum(map(len, self.pending)) > self.keys.size and self.merging.acquire(blocking=False):
            try:
                self.merge()
            finally:
                self.merging.release()

    def merge(self):
        """Count the keys added so far into the vocabulary: by one thread at
        a time, while others may still add."""
        taken = len(self.pending)
        keys = np.concatenate(self.pending[:taken]) if taken else self.keys[:0]
        del self.pending[:taken]
        if not keys.size:
            return
        keys.sort()
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        self.update(keys[first], np.diff(first, append=keys.size))

    def update(self, keys, counts):
        """Merge sorted distinct keys with their counts into the vocabulary."""
        if not self.keys.size:
            self.keys, self.counts = keys, counts
            return
        at = np.searchsorted(self.keys, keys)
        new = self.keys.take(at, mode="clip") != keys
        if new.any():
            self.keys = np.insert(self.keys, at[new], keys[new])
            self.counts = np.insert(self.counts, at[new], 0)
            # each key moves up by the number of new keys below it
            at += np.cumsum(new) - new
        self.counts[at] += counts


def _digits(raw: bytes):
    """The digit array (see _KEY_DIGIT) of ASCII bytes, followed by 8 zero
    digits, so that an 8-byte read at any token start stays inside it."""
    return np.frombuffer(raw.translate(_KEY_DIGIT) + bytes(8), np.uint8)


def _token_edges(digits):
    """The int32 byte positions where the tokens of a digit array start and
    end, alternately: a block is far below 2**31 bytes."""
    in_token = np.zeros(digits.size + 2, bool)
    np.not_equal(digits, 0, out=in_token[1:-1])
    return np.flatnonzero(in_token[1:] != in_token[:-1]).astype(np.int32)


def _keys(digits, starts, lengths):
    """The uint64 keys of the tokens of at most _KEY_BYTES digits that start
    at `starts` in a _digits array, in the order of `starts`."""
    # one unaligned little-endian read of the 8 bytes at each start
    keys = np.ndarray(digits.size - 7, "<u8", digits, strides=(1,)).take(starts)
    keys &= _LOW_BYTES.take(lengths)
    numeral = np.flatnonzero(lengths > 8)
    if numeral.size:
        # Horner's rule over these tokens longest first, so that those with a
        # digit at position i are a prefix; the first 8 digits are the bytes
        # of their little-endian read, in order
        numeral = numeral[(_KEY_BYTES - lengths[numeral]).astype(np.uint8).argsort(kind="stable")]
        starts, lengths = starts[numeral], lengths[numeral]
        read = keys[numeral].view(np.uint8).reshape(-1, 8)
        tail = np.zeros(numeral.size, np.uint64)
        for i in range(_KEY_BYTES):
            head = tail[: np.count_nonzero(lengths > i)]
            head *= 38
            head += read[:, i] if i < 8 else digits[i:].take(starts[: head.size])
        keys[numeral] = tail | _NUMERAL_TAG
    return keys


def _count_ascii(raw: bytes):
    """The tokens of an ASCII block: the keys of those of at most _KEY_BYTES
    bytes, in file order with repeats, and the digits of the longer tokens,
    each followed by its gap (None if there are none).  Numpy and bytes work
    only, which can run off the calling thread."""
    digits = _digits(raw)
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
    return _keys(digits, starts, lengths), long_digits


def text_counts(fh) -> tuple[_KeyCounts, Counter]:
    """The token counts of a UTF-8 text read from a binary file, in two parts
    that share no token: every ASCII token of at most _KEY_BYTES bytes as a
    uint64 key (see _KEY_DIGIT), and every other token as a str.

    The file is read in blocks cut after ASCII whitespace, which no token and
    no lowercasing context crosses (Greek final sigma looks back across "."
    and "'", never across whitespace).  An ASCII block is tokenized by a bytes
    translation and its keys are computed in numpy on a pool of threads, one
    per CPU the process may run on up to _MAX_WORKERS, with at most
    workers + 1 blocks in flight.  The pool threads add their blocks' keys to
    one _KeyCounts, where they also merge them.  A merging thread holds back
    its block's result, which the calling thread waits for before it has
    more than workers blocks past it in flight, so the keys added during one
    merge are those of at most 2 * workers blocks.  All str work stays on the
    calling thread: the tokens past _KEY_BYTES bytes, and every block with a
    non-ASCII byte, which `data.tokenize_text` splits.  The short ASCII
    tokens of those blocks become keys once, over the distinct tokens, at
    the end.  Memory is bounded by a few times the vocabulary, plus a few
    blocks per thread, plus the longest run without whitespace, whatever the
    file size.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, _MAX_WORKERS)
    key_counts, other = _KeyCounts(), Counter()
    in_flight = deque()

    def count(raw):
        keys, long_digits = _count_ascii(raw)
        key_counts.add(keys)
        return long_digits

    def add_long(block):
        long_digits = block.result()
        if long_digits is not None:
            other.update(long_digits.translate(_KEY_CHARS).decode("ascii").split())

    with ThreadPoolExecutor(workers) as pool:
        for offset, raw in data._blocks(fh, _WHITESPACE):
            if raw.isascii():
                in_flight.append(pool.submit(count, raw))
                if len(in_flight) > workers:
                    add_long(in_flight.popleft())
            else:
                other.update(data.tokenize_text(data._decode(offset, raw)))
        while in_flight:
            add_long(in_flight.popleft())
    key_counts.merge()
    short = [token for token in other if len(token) <= _KEY_BYTES and token.isascii()]
    if short:
        digits = _digits(" ".join(short).encode())
        edges = _token_edges(digits)
        keys = _keys(digits, edges[::2], edges[1::2] - edges[::2])
        by_key = keys.argsort()
        key_counts.update(keys[by_key], np.array([other.pop(token) for token in short], np.int64)[by_key])
    return key_counts, other
