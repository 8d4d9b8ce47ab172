import json
import math

import pytest

from suppest.cli import main


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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "estimate", "/nonexistent/xyz")
        assert code == 1

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


class TestParsing:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "estimate", "x", "--bogus")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1
