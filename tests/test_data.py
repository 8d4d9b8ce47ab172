import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suppest.data import (
    DistributionSpec,
    Fingerprint,
    Histogram,
    IngestionError,
    bundled_corpus_path,
    child_seed,
    fingerprint,
    histogram_from_counts_file,
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

    def test_bytes_input(self):
        assert tokenize_text(b"a b") == ["a", "b"]

    def test_invalid_utf8(self):
        with pytest.raises(IngestionError, match="byte offset"):
            tokenize_text(b"ok \xff\xfe")


class TestHistogram:
    def test_counts_file(self):
        h = histogram_from_counts_file(["a\t2", "b\t1"])
        assert h.counts == {"a": 2, "b": 1}
        assert h.n == 3

    def test_bare_counts(self):
        h = histogram_from_counts_file(["3", "1"])
        assert sorted(h.counts.values()) == [1, 3]

    def test_empty_file(self):
        assert len(histogram_from_counts_file([])) == 0

    def test_zero_count_rejected(self):
        with pytest.raises(IngestionError, match="line 1"):
            histogram_from_counts_file(["a\t0"])

    def test_malformed_rejected(self):
        with pytest.raises(IngestionError, match="line 2"):
            histogram_from_counts_file(["a\t2", "b\tx"])

    def test_from_tokens(self):
        h = histogram_from_tokens(["a", "b", "a"])
        assert h.counts == {"a": 2, "b": 1}


class TestFingerprint:
    def test_example(self):
        fp = fingerprint(Histogram({"a": 2, "b": 1, "c": 2}))
        assert fp.h == {1: 1, 2: 2}
        assert fp.n == 5
        assert fp.distinct == 3

    def test_empty(self):
        fp = fingerprint(Histogram({}))
        assert fp.h == {}
        assert fp.n == 0

    def test_single_symbol(self):
        assert fingerprint(Histogram({"x": 7})).h == {7: 1}

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            Fingerprint({0: 2})

    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.integers(1, 30), max_size=20))
    def test_preserves_n_and_count(self, counts):
        hist = Histogram(counts)
        fp = fingerprint(hist)
        assert fp.n == hist.n
        assert fp.distinct == len(hist)


class TestMakeDistribution:
    def test_uniform(self):
        d = make_distribution("uniform", 1e-4)
        assert d.support == 10_000
        assert d.min_mass == pytest.approx(1e-4, rel=1e-12)
        assert d.k == 10_000.0

    def test_zipf_integer_search(self):
        d = make_distribution("zipf", 1e-4, alpha=1.0)
        s = d.support
        w = np.arange(1, s + 1, dtype=float) ** -1.0
        assert w[-1] / w.sum() <= 1e-4
        w_prev = np.arange(1, s, dtype=float) ** -1.0
        assert w_prev[-1] / w_prev.sum() > 1e-4

    def test_benford_crossing(self):
        d = make_distribution("benford", 1e-4)
        s = d.support
        mass = lambda m: math.log1p(1.0 / m) / math.log(m + 1)
        assert mass(s) <= 1e-4 < mass(s - 1)

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
        tokens = tokenize_text(bundled_corpus_path().read_bytes())
        assert len(tokens) >= 30_000
