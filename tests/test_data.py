import io
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suppest import data as data_mod
from suppest.data import (
    DistributionSpec,
    Fingerprint,
    IngestionError,
    bundled_corpus_path,
    child_seed,
    fingerprint,
    histogram_from_counts_file,
    histogram_from_text,
    histogram_from_tokens,
    make_distribution,
    sample,
    sample_counts,
    sample_fingerprint,
    tokenize_text,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize_text("To be, or not to be") == ["to", "be", "or", "not", "to", "be"]

    def test_empty(self):
        assert tokenize_text("") == []

    def test_apostrophe_kept(self):
        assert tokenize_text("Don't don't") == ["don't", "don't"]

    def test_invalid_utf8(self):
        with pytest.raises(IngestionError, match="byte offset 3$"):
            histogram_from_text(io.BytesIO(b"ok \xff\xfe"))


def whole_text_counts(text: str) -> Counter:
    """Oracle: the whole-text tokenization the streaming reader must match."""
    return Counter(re.findall(r"(?:[^\W_]|')+", text.lower()))


def stream_counts(raw: bytes, block: int) -> dict:
    """Counts of histogram_from_text read in `block`-byte reads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, "_BLOCK_BYTES", block)
        return histogram_from_text(io.BytesIO(raw))


class TestHistogramFromText:
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
        ],
    )
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 7, 16])
    def test_matches_whole_text(self, text, block):
        assert list(stream_counts(text.encode(), block).items()) == list(whole_text_counts(text).items())

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 6, 64])
    def test_invalid_byte_after_split_character(self, block):
        with pytest.raises(IngestionError, match=r"invalid UTF-8 at byte offset 5$"):
            stream_counts(b"abc\xc3\xa9\xffz", block)

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_truncated_character_at_end(self, block):
        with pytest.raises(IngestionError, match=r"byte offset 2$"):
            stream_counts(b"ab\xc3", block)

    def test_bundled_corpus(self):
        raw = bundled_corpus_path().read_bytes()
        assert stream_counts(raw, 4096) == histogram_from_tokens(tokenize_text(raw.decode("utf-8")))

    @given(
        st.text(alphabet="aZé'Σς Α._-:`^\n\r\t\x0b\x0c𝔸İ9", max_size=80),
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
            with pytest.raises(IngestionError, match=rf"byte offset {exc.start}$"):
                stream_counts(raw, block)
        else:
            assert list(stream_counts(raw, block).items()) == list(expected.items())

    def test_ascii_fold_matches_tokenize(self):
        """The ASCII table gives tokenize_text's tokens for every code point."""
        mismatched = []
        for c in range(128):
            text = "a" + chr(c) + "B"
            fast = text.encode().translate(data_mod._ASCII_FOLD).decode("ascii").split()
            if fast != tokenize_text(text):
                mismatched.append(c)
        assert not mismatched

    def test_memory_bounded_by_vocabulary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_mod, "_BLOCK_BYTES", 512)
        vocab = [f"word{i}" for i in range(300)]
        for end in ("\n", " "):  # lines, and a text with no newline at all
            one = "".join(" ".join(vocab[(7 * j + i) % 300] for i in range(12)) + end for j in range(100))
            peaks = {}
            for copies in (1, 8):
                path = tmp_path / f"text{copies}.txt"
                path.write_text(one * copies)
                with open(path, "rb") as fh:
                    histogram_from_text(fh)  # warm up regex and codec caches
                with open(path, "rb") as fh:
                    tracemalloc.start()
                    try:
                        hist = histogram_from_text(fh)
                        peaks[copies] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                assert len(hist) == 300 and sum(hist.values()) == 1200 * copies
            assert peaks[8] <= 1.5 * peaks[1], (end, peaks)


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

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            Fingerprint({0: 2})

    @pytest.mark.parametrize("count", [0, -1, 1.5, math.nan, math.inf])
    def test_invalid_count_rejected(self, count):
        with pytest.raises(ValueError, match="integer counts"):
            fingerprint({"a": count})

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


class TestSampling:
    def test_zero_draws(self):
        d = make_distribution("uniform", 0.2)
        assert len(sample(d, 0, 1)) == 0

    def test_determinism(self):
        d = make_distribution("zipf", 1e-3, alpha=1.0)
        a = sample(d, 500, 42)
        b = sample(d, 500, 42)
        assert a == b
        c = sample(d, 500, 43)
        assert a != c

    def test_child_seed_reproducible(self):
        d = make_distribution("uniform", 1e-2)
        s1 = child_seed(7, 0, 1, 2)
        s2 = child_seed(7, 0, 1, 2)
        assert sample(d, 200, s1) == sample(d, 200, s2)
        assert sample(d, 200, child_seed(7, 0, 1, 3)) != sample(d, 200, s1)

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

    def test_fingerprint_shortcut_matches(self):
        d = make_distribution("zipf", 1e-3, alpha=1.0)
        seed = child_seed(5, 0)
        assert sample_fingerprint(d, 300, seed) == fingerprint(sample(d, 300, seed))

    def test_negative_n(self):
        d = make_distribution("uniform", 0.2)
        with pytest.raises(ValueError):
            sample(d, -1, 0)


class TestBundledCorpus:
    def test_present_and_large(self):
        tokens = tokenize_text(bundled_corpus_path().read_bytes().decode("utf-8"))
        assert len(tokens) >= 30_000
