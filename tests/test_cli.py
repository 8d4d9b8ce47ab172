import json
import math

import pytest

from suppest import data as data_mod
from suppest.cli import main
from suppest.estimators import EstimatorSpec, estimate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_counts_naive(self, capsys, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("a\t2\nb\t1\n")
        code, out, _ = run(capsys, "estimate", str(path), "--counts", "--estimator", "naive")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["value"] == 2.0
        assert rec["k_assumed_equal_n"] is True
        assert rec["k"] == 3.0

    def test_gt_all_singletons_fails(self, capsys, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("a\t1\nb\t1\n")
        code, _, err = run(capsys, "estimate", str(path), "--counts", "--estimator", "gt")
        assert code == 2
        assert "singleton" in err

    def test_gt_fallback(self, capsys, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("a\t1\nb\t1\n")
        code, out, _ = run(
            capsys, "estimate", str(path), "--counts", "--estimator", "gt", "--fallback"
        )
        assert code == 0
        assert json.loads(out)[0]["value"] == 2.0

    def test_text_input_csv_format(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("To be, or not to be")
        code, out, _ = run(
            capsys, "estimate", str(path), "--estimator", "naive", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("estimator,value")
        assert lines[1].startswith("naive,4")

    @pytest.mark.parametrize("estimator", ["rwc-s", "naive"])
    @pytest.mark.parametrize("content", ["", " ,. --\n\n"])
    def test_text_without_tokens_rejected(self, capsys, tmp_path, content, estimator):
        path = tmp_path / "t.txt"
        path.write_text(content)
        code, out, err = run(capsys, "estimate", str(path), "--estimator", estimator)
        assert code == 1
        assert out == ""
        assert "input has no tokens" in err

    @pytest.mark.parametrize("estimator", ["rwc-s", "naive"])
    @pytest.mark.parametrize("content", ["", "\n \n\t\n"])
    def test_counts_without_counts_rejected(self, capsys, tmp_path, content, estimator):
        path = tmp_path / "counts.tsv"
        path.write_text(content)
        code, out, err = run(capsys, "estimate", str(path), "--counts", "--estimator", estimator)
        assert code == 1
        assert out == ""
        assert "no counts" in err

    def test_counts_invalid_utf8(self, capsys, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_bytes(b"a\t1\n\xff\t2\n")
        code, _, err = run(capsys, "estimate", str(path), "--counts", "--estimator", "naive")
        assert code == 1
        assert "invalid UTF-8 at byte offset 4" in err

    # reads of 63..66 bytes end before ".", after ".", inside "Σ" and after it
    @pytest.mark.parametrize("block", [63, 64, 65, 66])
    def test_mixed_text_matches_whole_text(self, capsys, tmp_path, monkeypatch, block):
        # "Σ" after "A." lowercases to "ς" and alone to "σ"
        whole = "w " * 31 + "A.Σ σ Σ\n" + "ascii words only here\n" * 5 + "ΑΣ.Α 𝔸 Σ. εσ\nthe end"
        path = tmp_path / "t.txt"
        path.write_text(whole)
        monkeypatch.setattr(data_mod, "_BLOCK_BYTES", block)
        code, out, _ = run(capsys, "estimate", str(path), "--estimator", "rwc-s,naive")
        assert code == 0
        fp = data_mod.fingerprint(data_mod.histogram_from_tokens(data_mod.tokenize_text(whole)))
        expected = [estimate(EstimatorSpec(kind), fp, fp.n).value for kind in ("rwc-s", "naive")]
        assert [rec["value"] for rec in json.loads(out)] == expected

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "estimate", "/nonexistent/xyz")
        assert code == 1

    @pytest.mark.parametrize("k, code", [("-3", 1), ("2", 1), ("3", 0)])
    def test_k_below_distinct_rejected(self, capsys, tmp_path, k, code):
        # k bounds 1/min-mass, which is at least the 3 distinct symbols seen
        path = tmp_path / "counts.tsv"
        path.write_text("a\t1\nb\t1\nc\t2\n")
        argv = ("estimate", str(path), "--counts", "--k", k, "--estimator", "naive,gt", "--clamp", "--format", "csv")
        got, out, err = run(capsys, *argv)
        assert got == code
        if code:
            assert out == ""
            assert err == f"suppest: error: --k {k} is below the 3 distinct symbols observed\n"

    def test_clamp(self, capsys, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("a\t1\nb\t1\nc\t2\n")
        code, out, _ = run(
            capsys, "estimate", str(path), "--counts", "--estimator", "gt", "--clamp",
        )
        assert code == 0
        assert json.loads(out)[0]["value"] <= 4.0


class TestCoeffs:
    def test_wy_standard(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--k", "1e6", "--n", "1e6", "--estimator", "wy")
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 7
        assert float(payload["interval"][0]) == 1.0
        assert float(payload["interval"][1]) == pytest.approx(0.5 * math.log(1e6))

    def test_wy_collapse_exit_1(self, capsys):
        code, _, err = run(capsys, "coeffs", "--k", "2", "--n", "100", "--estimator", "wy")
        assert code == 1
        assert "collaps" in err

    def test_rwc_gap_recorded(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--k", "1e4", "--n", "1e4", "--estimator", "rwc", "--s", "200"
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["duality_gap"]) <= 1e-8
        assert float(payload["coeffs"][0]) == -1.0

    RECORD_KEYS = [
        "estimator", "degree", "reg_weight", "interval", "grid_points", "g_values",
        "g_tail", "coeffs", "t_d", "duality_gap", "iterations",
    ]

    @pytest.mark.parametrize(
        "argv,degree,reg_weight,interval,grid_points",
        [
            # L = floor(0.558 ln 4) = 0: the pure-counting point problem at n/k
            (("--k", "4", "--n", "4"), 0, "0.25", ["1", "1"], 1),
            # n/k = 50 is past 6.5 L = 19.5: the interval collapses to its left end
            (("--k", "1e3", "--n", "5e4"), 3, "0.001", ["50", "50"], 1),
            (
                ("--k", "1e6", "--n", "1e6", "--estimator", "rwc-s", "--s-count", "600000", "--s", "200"),
                7, "1.6666666666666667e-06", ["1", "45.5"], 200,
            ),
        ],
    )
    def test_record(self, capsys, argv, degree, reg_weight, interval, grid_points):
        code, out, _ = run(capsys, "coeffs", *argv)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == self.RECORD_KEYS
        assert payload["degree"] == degree
        assert payload["reg_weight"] == reg_weight
        assert payload["interval"] == interval
        assert payload["grid_points"] == grid_points
        assert len(payload["coeffs"]) == len(payload["g_values"]) == degree + 1

    def test_rwcs_needs_count(self, capsys):
        code, _, err = run(capsys, "coeffs", "--k", "1e4", "--n", "1e4", "--estimator", "rwc-s")
        assert code == 1

    def test_not_positive_definite_exit_2(self, capsys):
        # the aggregate matrix loses positive definiteness at k = 1e20: a
        # numerical failure, not an input error
        code, _, err = run(capsys, "coeffs", "--k", "1e20", "--n", "1e20")
        assert code == 2
        assert "numerical failure" in err
        assert "positive definite" in err

    def test_underflow_exit_2(self, capsys):
        # n/k = 800: exp(-n/k) underflows at the single grid point
        code, out, err = run(capsys, "coeffs", "--k", "1000", "--n", "8e5")
        assert code == 2
        assert out == ""
        assert "Warning" not in err
        assert "underflow" in err and "n/k is too large" in err

    def test_outside_supported_domain_exit_2(self, capsys):
        code, out, err = run(capsys, "coeffs", "--k", "1e18", "--n", "1e18")
        assert code == 2
        assert out == ""
        assert "numerical failure" in err


class TestSimulate:
    ARGS = (
        "simulate", "--dist", "uniform", "--min-mass", "1e-2", "--trials", "2",
        "--seed", "7", "--estimators", "naive,gt",
    )

    def test_deterministic_bytes(self, capsys):
        for fmt in ("csv", "json"):
            code, out1, _ = run(capsys, *self.ARGS, "--format", fmt)
            assert code == 0
            code, out2, _ = run(capsys, *self.ARGS, "--format", fmt)
            assert out1 == out2, fmt

    def test_s2_normalization_column(self, capsys):
        # zipf(1) at min-mass 1e-2 has k = 101 and S = 26: one run, both scales
        code, out, _ = run(capsys, *self.ARGS, "--dist", "zipf:1")
        assert code == 0
        header = out.splitlines()[0].split(",")
        row = out.splitlines()[1].split(",")
        mse = float(row[header.index("mse")])
        assert mse > 0
        assert float(row[header.index("nmse_k2")]) == pytest.approx(mse / 101.0**2)
        assert float(row[header.index("nmse_s2")]) == pytest.approx(mse / 26.0**2)

    def test_bad_distribution(self, capsys):
        code, _, err = run(capsys, "simulate", "--dist", "cauchy", "--trials", "1")
        assert code == 1

    def test_failed_row_json_is_valid(self, capsys):
        # a trial that draws both symbols once has Good-Turing coverage 0
        code, out, _ = run(
            capsys, "simulate", "--dist", "uniform", "--min-mass", "0.5", "--trials", "2",
            "--estimators", "gt", "--format", "json",
        )
        assert code == 2

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        (row,) = json.loads(out, parse_constant=reject)
        assert row["error"].startswith("CoverageZeroError")
        assert [row[key] for key in ("mean", "std", "mse", "nmse_k2", "nmse_s2")] == [None] * 5


class TestConverge:
    def test_monotone_column(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--k", "1e4", "--n", "1e4", "--s-list", "11,21,41",
            "--tol", "1e-9",
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:] if not l.startswith("#")]
        tds = [float(r[2]) for r in rows]
        assert tds == sorted(tds)
        assert "rate_exponent=" in out

    def test_single_grid_no_exponent(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--k", "1e4", "--n", "1e4", "--s-list", "11", "--tol", "1e-9"
        )
        assert code == 0
        assert "rate_exponent=NA" in out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # the study solves rwc problems only, which never read c1
            (("converge", "--k", "1e4", "--n", "1e4", "--s-list", "11", "--c1", "0.7"), "--c1"),
            # it solves each --s-list size, so nothing would read --s
            (("converge", "--k", "1e4", "--n", "1e4", "--s-list", "11", "--s", "7"), "--s"),
            # the iteration budget is the constant sip.MAX_ITER
            (("coeffs", "--k", "1e4", "--n", "1e4", "--max-iter", "5"), "--max-iter"),
        ],
    )
    def test_no_c1_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {flag} " in err


class TestBiasCurve:
    def test_wy_curve(self, capsys):
        code, out, _ = run(
            capsys, "bias-curve", "--k", "1e4", "--n", "1e4", "--estimator", "wy",
            "--points", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,bias,variance_term,g"
        assert len(lines) == 6
        lams = [float(line.split(",")[0]) for line in lines[1:]]
        assert lams[0] == 1.0 and lams[-1] == 0.5 * math.log(1e4)  # WY's own [n/k, c1 ln k]

    def test_point_problem(self, capsys):
        """Degree 0 solves the single point n/k, and that is what is plotted."""
        code, out, _ = run(capsys, "bias-curve", "--k", "4", "--n", "4", "--points", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 1.0

    def test_too_few_points(self, capsys):
        code, out, err = run(capsys, "bias-curve", "--k", "1e4", "--n", "1e4", "--points", "1")
        assert code == 1
        assert out == ""
        assert err == "suppest: error: need at least 2 grid points, got 1\n"


class TestParsing:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "estimate", "x", "--bogus")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["coeffs", "--k", "inf", "--n", "1"], "--k"),
            (["coeffs", "--k", "1e4", "--n", "1e4", "--c0", "inf"], "--c0"),
            (["estimate", "TEXT", "--k", "inf", "--estimator", "wy"], "--k"),
            (["simulate", "--n-frac", "inf"], "--n-frac"),
            (["coeffs", "--k", "1e4", "--n", "1e4", "--tol", "nan"], "--tol"),
            (["coeffs", "--k", "1e4", "--n", "1e4", "--n", "inf"], "--n"),
            (["coeffs", "--k", "1e4", "--n", "1e4", "--estimator", "rwc-s", "--s-count", "inf"], "--s-count"),
        ],
    )
    def test_non_finite_number_rejected(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "t.txt"
        path.write_text("to be or not to be")
        code, out, err = run(capsys, *[str(path) if a == "TEXT" else a for a in argv])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err and "Warning" not in err
        assert err.splitlines()[-1].startswith(f"suppest {argv[0]}: error: argument {flag}: expected a finite number")

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_help_exit_0(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: suppest")
        assert err == ""

    SIMULATE = ("simulate", "--trials", "2", "--estimators", "naive", "--dist")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("coeffs", "--k", "0", "--n", "1"), "k must be >= 2"),
            (("bias-curve", "--k", "0", "--n", "5"), "k must be >= 2"),
            ((*SIMULATE, "zipf:inf"), "zipf exponent must be a finite number, got 'zipf:inf'"),
            ((*SIMULATE, "zipf:nan"), "zipf exponent must be a finite number, got 'zipf:nan'"),
            ((*SIMULATE, "zipf:2000"), "zipf exponent 2000 is too large: the smallest mass underflows"),
            # about 1e301 draws, past numpy's largest array dimension
            ((*SIMULATE, "zipf:1000"), "sample size n = 1.07151e+301 is too large to draw"),
            # 1e16 draws, a 71 PiB array, far more memory than a machine has: the allocation fails at once
            ((*SIMULATE, "uniform", "--n-frac", "1e12"), "sample size n = 1e+16 is too large to draw"),
        ],
    )
    def test_input_error_is_one_line(self, capsys, argv, message):
        # each of these used to end in a ZeroDivisionError traceback, or in
        # a message about converting NaN to an integer
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"suppest: error: {message}\n"
