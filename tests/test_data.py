import io
import math
import re
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suppest import _text as text_mod
from suppest import data as data_mod
from suppest.data import (
    MAX_SUPPORT,
    DistributionSpec,
    Fingerprint,
    IngestionError,
    bundled_corpus_path,
    child_seed,
    fingerprint,
    histogram_from_counts_file,
    histogram_from_tokens,
    make_distribution,
    sample_counts,
    sample_fingerprint,
    sample_fingerprints,
    text_fingerprint,
    tokenize_text,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize_text("To be, or not to be") == ["to", "be", "or", "not", "to", "be"]

    def test_empty(self):
        assert tokenize_text("") == []

    def test_apostrophe_kept(self):
        assert tokenize_text("Don't don't") == ["don't", "don't"]


def whole_text_counts(text: str) -> Counter:
    """Oracle: the whole-text tokenization the streaming reader must match."""
    return Counter(re.findall(r"(?:[^\W_]|')+", text.lower()))


KEY_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789'"


def reference_key(token: str):
    """The uint64 key of an ASCII token of at most 12 bytes, written out here
    so that the tests do not read _text._keys; None for every other token.
    Each byte is read as the digit KEY_ALPHABET.index(byte) + 1.  A token of
    at most 8 bytes is the little-endian number of its digit bytes, and a
    longer one its bijective base-38 numeral with bit 63 set."""
    raw = token.encode()
    if len(raw) > 12 or not raw.isascii():
        return None
    digits = [KEY_ALPHABET.index(b) + 1 for b in raw]
    if len(digits) <= 8:
        return int.from_bytes(bytes(digits), "little")
    key = 0
    for digit in digits:
        key = 38 * key + digit
    return key | 1 << 63


def split_counts(counts) -> tuple[dict, Counter]:
    """A token -> count oracle split as _text.text_counts splits it:
    {key: count} of the tokens with a reference_key, and a Counter of the rest."""
    keyed, other = {}, Counter()
    for token, count in counts.items():
        key = reference_key(token)
        if key is None:
            other[token] = count
        else:
            keyed[key] = count
    return keyed, other


def text_parts(fh) -> tuple[dict, Counter]:
    """The two parts of _text.text_counts: {key: count} and the str Counter."""
    key_counts, other = text_mod.text_counts(fh)
    keys = key_counts.keys.tolist()
    assert keys == sorted(set(keys))  # one count per key
    return dict(zip(keys, key_counts.counts.tolist())), other


def stream_parts(raw: bytes, block: int) -> tuple[dict, Counter]:
    """text_parts read in `block`-byte reads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, "_BLOCK_BYTES", block)
        return text_parts(io.BytesIO(raw))


def stream_fingerprint(raw: bytes, block: int) -> Fingerprint:
    """text_fingerprint read in `block`-byte reads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, "_BLOCK_BYTES", block)
        return text_fingerprint(io.BytesIO(raw))


def assert_raises_at(raw: bytes, block: int, offset: int):
    """text_fingerprint rejects `raw`, naming the byte offset."""
    with pytest.raises(IngestionError, match=rf"invalid UTF-8 at byte offset {offset}$"):
        stream_fingerprint(raw, block)


# words on each side of the 8/9 and 12/13-byte edges of the keys: all-'9',
# all-"'" and mixed case
EDGE_WORDS = [c * n for n in (8, 9, 12, 13) for c in "9'"] + ["AbC9'dEfGhIjK"[:n] for n in (8, 9, 12, 13)]

# letters that fold and lowercase in context, separators, and non-BMP characters
TEXT_ALPHABET = "aZé'Σς Α._-:`^\n\r\t\x0b\x0c𝔸İ9"


class TestHistogramFromText:
    """text_fingerprint, the one text reader, and the two parts of
    _text.text_counts it is built from, checked token by token."""

    @pytest.mark.parametrize(
        "text",
        [
            "café naïve\nété déjà\n",  # multi-byte characters split across blocks
            "don't won't\nrock'n'roll 'tis\n",  # apostrophe tokens split across blocks
            # "ΑΣ.Α" lowercases to "ασ.α" but "ΑΣ" alone to "ας": a block cut
            # after "." or "'" would change the tokens
            "x\nΑΣ.Α ΑΣ\nΣΑΣ'Α\n",
            "To be,\r\nor not\r\nto be\r\n",  # CRLF line ends
            "no newline at all, " * 20,  # cut at the spaces
            "é" * 5000,  # no whitespace at all: one token carried across every read
            "ab" * 3000,  # the same in ASCII
            # ASCII and non-ASCII blocks; "Σ" lowercases to "ς" after "A." and to "σ" alone
            "plain words here A.Σ Σ.A\n\x0bmore\x0cwords 𝔸ΣΑ ascii only\ttail",
            "",
            "snake_case __x__ 𝔸𝔹 İstanbul\n\n\n",
            # the 12-byte edge of the uint64 keys, and the largest keys
            "abcdefghijkl ABCDEFGHIJKLM abcdefghijkl\nabcdefghijklm 0123456789'a\n",
            "'" * 12 + " 999999999999 " + "'" * 12 + "\n" + "'" * 13 + " 9999999999999\n",
            # the same words in non-ASCII and in ASCII blocks
            "word Internationalization é\nword\ninternationalization word\n",
            # long tokens only
            "Internationalization incomprehensibilities\nextraordinarily 1234567890123\n",
            # the same edge words in ASCII blocks, then in a non-ASCII block with
            # no whitespace, whose short ASCII tokens become keys at the end
            " ".join(EDGE_WORDS) + "\n" + "é," + ",".join(EDGE_WORDS) + "\n",
        ],
    )
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 7, 16])
    def test_matches_whole_text(self, text, block):
        expected = whole_text_counts(text)
        assert stream_parts(text.encode(), block) == split_counts(expected)
        assert stream_fingerprint(text.encode(), block) == fingerprint(expected)

    def test_invalid_utf8(self):
        with pytest.raises(IngestionError, match="byte offset 3$"):
            text_fingerprint(io.BytesIO(b"ok \xff\xfe"))

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 6, 64])
    def test_invalid_byte_after_split_character(self, block):
        assert_raises_at(b"abc\xc3\xa9\xffz", block, 5)

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_truncated_character_at_end(self, block):
        assert_raises_at(b"ab\xc3", block, 2)

    @pytest.mark.parametrize("block", [16, 64, 1 << 18])
    def test_first_of_two_invalid_bytes(self, block):
        # ASCII blocks in flight on the pool, then two bad blocks several blocks apart
        raw = b"ascii words " * 400 + b"\xff" + b"more words " * 400 + b"\xfe tail\n"
        assert_raises_at(raw, block, 4800)

    def test_bundled_corpus(self):
        raw = bundled_corpus_path().read_bytes()
        assert stream_parts(raw, 4096) == split_counts(histogram_from_tokens(tokenize_text(raw.decode("utf-8"))))

    @given(
        st.one_of(
            st.text(alphabet=TEXT_ALPHABET, max_size=80),
            # tokens around the 8/9 and 12/13-byte edges of the keys, among the same characters
            st.lists(
                st.one_of(st.text(alphabet="aZ9'", min_size=7, max_size=14), st.text(alphabet=TEXT_ALPHABET, max_size=6)),
                max_size=8,
            ).map(" ".join),
        ),
        st.integers(1, 64),
        st.one_of(st.none(), st.tuples(st.integers(0, 200), st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xe2\x82"]))),
    )
    def test_blocks_match_whole_text(self, text, block, bad):
        raw = text.encode()
        if bad is not None:
            at = min(bad[0], len(raw))
            raw = raw[:at] + bad[1] + raw[at:]
        try:
            expected = whole_text_counts(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            assert_raises_at(raw, block, exc.start)
        else:
            assert stream_parts(raw, block) == split_counts(expected)
            assert stream_fingerprint(raw, block) == fingerprint(expected)

    def test_ascii_fold_matches_tokenize(self):
        """The ASCII table gives tokenize_text's tokens for every code point."""
        mismatched = []
        for c in range(128):
            text = "a" + chr(c) + "B"
            fast = text.encode().translate(text_mod._ASCII_FOLD).decode("ascii").split()
            if fast != tokenize_text(text):
                mismatched.append(c)
        assert not mismatched

    def test_memory_bounded_by_vocabulary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_mod, "_BLOCK_BYTES", 512)
        vocab = [f"word{i}" for i in range(300)]
        for end in ("\n", " "):  # lines, and a text with no newline at all
            one = "".join(" ".join(vocab[(7 * j + i) % 300] for i in range(12)) + end for j in range(100))
            for read, oracle in ((text_fingerprint, fingerprint), (text_parts, split_counts)):
                peaks = {}
                for copies in (1, 8):
                    path = tmp_path / f"text{copies}.txt"
                    path.write_text(one * copies)
                    with open(path, "rb") as fh:
                        read(fh)  # warm up regex and codec caches
                    with open(path, "rb") as fh:
                        tracemalloc.start()
                        try:
                            result = read(fh)
                            peaks[copies] = tracemalloc.get_traced_memory()[1]
                        finally:
                            tracemalloc.stop()
                    expected = whole_text_counts(one * copies)
                    assert len(expected) == 300 and sum(expected.values()) == 1200 * copies
                    assert result == oracle(expected)
                assert peaks[8] <= 1.5 * peaks[1], (read.__name__, end, peaks)

    @pytest.mark.parametrize("workers", [1, 8])
    def test_many_workers_match_whole_text(self, monkeypatch, workers):
        # one thread adding and merging alone, and threads adding while another
        # merges: more threads than cores, switching threads often
        monkeypatch.setattr(text_mod, "_MAX_WORKERS", workers)
        monkeypatch.setattr(text_mod.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(text_mod.os, "cpu_count", lambda: 8)
        text = ("plain words here " * 5 + "Internationalization naïve Σ\n" + "ascii only line\n" * 3) * 60
        expected = whole_text_counts(text)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert stream_fingerprint(text.encode(), 64) == fingerprint(expected)
            assert stream_parts(text.encode(), 64) == split_counts(expected)
        finally:
            sys.setswitchinterval(interval)

    def test_pool_threads_end_with_the_call(self, monkeypatch):
        monkeypatch.setattr(data_mod, "_BLOCK_BYTES", 64)
        before = threading.active_count()
        text = b"ascii words only " * 200
        assert text_fingerprint(io.BytesIO(text)) == fingerprint(whole_text_counts(text.decode()))
        assert threading.active_count() == before
        with pytest.raises(IngestionError, match="byte offset 1700$"):
            text_fingerprint(io.BytesIO(text[:1700] + b"\xff" + text))
        assert threading.active_count() == before


def counts_from_lines(tmp_path, lines) -> dict:
    """histogram_from_counts_file of a file holding `lines`."""
    path = tmp_path / "counts.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return histogram_from_counts_file(path)


class TestHistogram:
    def test_counts_file(self, tmp_path):
        assert counts_from_lines(tmp_path, ["a\t2", "b\t1"]) == {"a": 2, "b": 1}

    def test_bare_counts(self, tmp_path):
        assert counts_from_lines(tmp_path, ["3", "1"]) == {1: 3, 2: 1}

    def test_bare_count_distinct_from_named_symbol(self, tmp_path):
        # the bare count on line 1 is not the symbol spelled "line1"
        assert len(counts_from_lines(tmp_path, ["7", "line1\t5"])) == 2

    def test_empty_file(self, tmp_path):
        assert len(counts_from_lines(tmp_path, [])) == 0

    def test_zero_count_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="line 1"):
            counts_from_lines(tmp_path, ["a\t0"])

    def test_malformed_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="line 2"):
            counts_from_lines(tmp_path, ["a\t2", "b\tx"])

    def test_counts_path_streams_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_mod, "_BLOCK_BYTES", 3)
        path = tmp_path / "counts.tsv"
        path.write_bytes("3\r\n\u00e9 b\t2\r\n\r\n 5\x0b4 \n".encode())
        # str.splitlines lines: "\x0b" ends a line, "\r\n" is one line end
        assert histogram_from_counts_file(path) == {1: 3, "é b": 2, 4: 5, 5: 4}
        path.write_bytes(b"1\r\n2\r\n\r\nx\r\n")
        with pytest.raises(IngestionError, match="line 4: malformed"):
            histogram_from_counts_file(path)

    def test_counts_path_invalid_utf8(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_mod, "_BLOCK_BYTES", 2)
        path = tmp_path / "counts.tsv"
        path.write_bytes(b"a\t1\n\xff\t2\n")
        with pytest.raises(IngestionError, match=r"invalid UTF-8 at byte offset 4$"):
            histogram_from_counts_file(path)

    def test_from_tokens(self):
        assert histogram_from_tokens(["a", "b", "a"]) == {"a": 2, "b": 1}


class TestFingerprint:
    def test_example(self):
        fp = fingerprint({"a": 2, "b": 1, "c": 2})
        assert fp.h == {1: 1, 2: 2}
        assert fp.n == 5
        assert fp.distinct == 3

    def test_empty(self):
        fp = fingerprint({})
        assert fp.h == {}
        assert fp.n == 0

    def test_single_symbol(self):
        assert fingerprint({"x": 7}).h == {7: 1}

    def test_counts_above_array_size(self):
        # a bincount up to the largest count would take 8 TB
        assert data_mod._fingerprint_of(np.array([10**12, 1, 3, 1, 10**12])).h == {1: 2, 3: 1, 10**12: 2}

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            Fingerprint({0: 2})

    @pytest.mark.parametrize("count", [0, -1, 1.5, math.nan, math.inf])
    def test_invalid_count_rejected(self, count):
        with pytest.raises(ValueError, match="integer counts"):
            fingerprint({"a": count})

    def test_ascending_count_order(self):
        assert list(Fingerprint({7: 1, 2.0: 3, 1: 2}).h.items()) == [(1, 2), (2, 3), (7, 1)]

    def test_integral_float_count(self):
        h = fingerprint({"a": 2.0}).h
        assert h == {2: 1} and type(next(iter(h))) is int

    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.integers(1, 30), max_size=20))
    def test_preserves_n_and_count(self, counts):
        fp = fingerprint(counts)
        assert fp.n == sum(counts.values())
        assert fp.distinct == len(counts)


class TestMakeDistribution:
    def test_uniform(self):
        d = make_distribution("uniform", 1e-4)
        assert d.support == 10_000
        assert d.min_mass == pytest.approx(1e-4, rel=1e-12)
        assert d.k == 10_000.0

    def test_zipf_integer_search(self):
        def min_mass(m, alpha):
            w = np.arange(1, m + 1, dtype=float) ** -alpha
            return w[-1] / w.sum()

        for alpha in (0.25, 0.5, 1.0, 1.5):
            for target in (1e-2, 1e-3, 1e-4):
                s = make_distribution("zipf", target, alpha=alpha).support
                assert min_mass(s, alpha) <= target < min_mass(s - 1, alpha), (alpha, target)

    def test_benford_crossing(self):
        mass = lambda m: math.log1p(1.0 / m) / math.log(m + 1)
        for target in (1e-2, 1e-3, 1e-4):
            s = make_distribution("benford", target).support
            assert mass(s) <= target < mass(s - 1), target

    def test_probabilities_normalized(self):
        for kind, alpha in (("uniform", None), ("zipf", 0.5), ("benford", None)):
            d = make_distribution(kind, 1e-3, alpha=alpha)
            assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert d.probs.min() > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_distribution("uniform", 0.0)
        with pytest.raises(ValueError):
            make_distribution("zipf", 1e-3)
        with pytest.raises(ValueError):
            make_distribution("cauchy", 1e-3)
        with pytest.raises(ValueError, match="positive alpha"):
            make_distribution("zipf", 1e-3, alpha=math.nan)
        # 2**-alpha underflows: symbol 2 would have mass 0
        for alpha in (2000.0, math.inf):
            with pytest.raises(ValueError, match=f"zipf exponent {alpha:g} is too large"):
                make_distribution("zipf", 1e-3, alpha=alpha)

    def test_support_limit_checked_before_allocation(self):
        # 1e15 symbols would be a 7 PiB probability vector, which numpy refuses at once
        assert MAX_SUPPORT == 2**29
        with pytest.raises(ValueError, match="min mass 1e-15 needs more than 536870912 symbols"):
            make_distribution("uniform", 1e-15)


def search_counts(d, n, seed):
    """The oracle: bin each draw u by searchsorted(cum, u, side="right")."""
    cum = np.cumsum(d.probs)
    cum[-1] = 1.0
    u = np.random.Generator(np.random.Philox(seed)).random(n)
    return np.bincount(np.searchsorted(cum, u, side="right"), minlength=d.support)


class TestSampling:
    def test_zero_draws(self):
        d = make_distribution("uniform", 0.2)
        counts = sample_counts(d, 0, 1)
        assert counts.shape == (d.support,)
        assert not counts.any()

    def test_determinism(self):
        d = make_distribution("zipf", 1e-3, alpha=1.0)
        a = sample_counts(d, 500, 42)
        b = sample_counts(d, 500, 42)
        assert np.array_equal(a, b)
        c = sample_counts(d, 500, 43)
        assert not np.array_equal(a, c)

    def test_child_seed_reproducible(self):
        d = make_distribution("uniform", 1e-2)
        s1 = child_seed(7, 0, 1, 2)
        s2 = child_seed(7, 0, 1, 2)
        assert np.array_equal(sample_counts(d, 200, s1), sample_counts(d, 200, s2))
        assert not np.array_equal(sample_counts(d, 200, child_seed(7, 0, 1, 3)), sample_counts(d, 200, s1))

    @pytest.mark.parametrize(
        "kind, alpha", [("uniform", None), ("zipf", 1.5), ("zipf", 1.0), ("zipf", 0.5), ("zipf", 0.25), ("benford", None)]
    )
    def test_matches_search_of_unsorted_draws(self, kind, alpha):
        d = make_distribution(kind, 1e-3, alpha=alpha)
        # n = k / 10 leaves several cum values in some cells of the search table
        for trial, n in enumerate([int(d.k) // 10, int(d.k), int(d.k), 10 * int(d.k)]):
            seed = child_seed(11, trial)
            assert np.array_equal(sample_counts(d, n, seed), search_counts(d, n, seed))

    def test_matches_search_in_crowded_cells(self):
        # zipf(3) at k = 1e9 and n = k / 1e6: the top cell holds hundreds of cum values
        d = make_distribution("zipf", 1e-9, alpha=3.0)
        for trial in range(3):
            seed = child_seed(12, trial)
            assert np.array_equal(sample_counts(d, 1000, seed), search_counts(d, 1000, seed))

    def test_tie_rule(self, monkeypatch):
        # a draw equal to cum[i] belongs to symbol i + 1, and its predecessor to symbol i
        d = make_distribution("benford", 0.05)
        cum = np.cumsum(d.probs)
        cum[-1] = 1.0
        u = np.concatenate([[0.0], cum[:-1], np.nextafter(cum, 0.0)])
        np.random.default_rng(0).shuffle(u)
        oracle = np.bincount(np.searchsorted(cum, u, side="right"), minlength=d.support)

        class Draws:
            def __init__(self, bit_generator):
                pass

            def random(self, n):
                assert n == len(u)
                return u.copy()

        monkeypatch.setattr(np.random, "Generator", Draws)
        counts = sample_counts(d, len(u), 0)
        assert np.array_equal(counts, oracle)
        assert (counts == 2).all()

    def test_uniform_concentration(self):
        d = make_distribution("uniform", 0.2)
        counts = sample_counts(d, 1_000_000, 1)
        assert (counts > 0).all()
        sigma = math.sqrt(1_000_000 * 0.2 * 0.8)
        assert np.abs(counts - 200_000).max() < 5 * sigma

    def test_chi_square_sanity(self):
        # S <= 100, n = 1e6: statistic below the 1e-6 tail quantile
        from scipy import stats

        d = make_distribution("zipf", 5e-3, alpha=0.7)
        assert d.support <= 100
        counts = sample_counts(d, 1_000_000, 3)
        expected = d.probs * 1_000_000
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(1 - 1e-6, d.support - 1)

    @pytest.mark.parametrize(
        "kind, alpha", [("uniform", None), ("zipf", 1.5), ("zipf", 1.0), ("zipf", 0.5), ("zipf", 0.25), ("benford", None)]
    )
    def test_one_table_for_many_seeds(self, kind, alpha):
        # the table built at the first seed draws every later seed's sample as a sample of its own
        d = make_distribution(kind, 1e-3, alpha=alpha)
        for n in (int(d.k) // 1000, int(d.k), 10 * int(d.k)):
            seeds = [child_seed(13, n, t) for t in range(3)]
            oracle = [fingerprint({i: int(c) for i, c in enumerate(search_counts(d, n, s)) if c}) for s in seeds]
            assert sample_fingerprints(d, n, seeds) == oracle
            assert [sample_fingerprint(d, n, s) for s in seeds] == oracle

    def test_no_seeds(self):
        assert sample_fingerprints(make_distribution("uniform", 0.2), 10, []) == []

    def test_fingerprint_shortcut_matches(self):
        d = make_distribution("zipf", 1e-3, alpha=1.0)
        seed = child_seed(5, 0)
        counts = sample_counts(d, 300, seed)
        assert sample_fingerprint(d, 300, seed) == fingerprint({i: int(c) for i, c in enumerate(counts) if c})

    def test_negative_n(self):
        d = make_distribution("uniform", 0.2)
        with pytest.raises(ValueError):
            sample_counts(d, -1, 0)


class TestBundledCorpus:
    def test_present_and_large(self):
        tokens = tokenize_text(bundled_corpus_path().read_bytes().decode("utf-8"))
        assert len(tokens) >= 30_000
