import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from suppest import data as data_mod
from suppest.cli import _print_csv, main
from suppest.estimators import EstimatorSpec, estimate, rwc_coefficients
from suppest.harness import evaluate_risk, grid_convergence_study
from suppest.poly import objective_values
from suppest.sip import build_grid


def g17(x):
    """The %.17g text of a float, written out here so the tests do not read cli.fmt."""
    return format(x, ".17g")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_thread_pool_out():
    # only text ingestion imports the counting engine and the pool: each adds
    # to the peak memory of every command
    src = str(Path(data_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, suppest.cli; print([m in sys.modules for m in ('suppest.data', 'suppest._text', 'concurrent.futures')])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[True, False, False]\n"


def test_print_csv_quotes_as_csv_module(capsys):
    rows = [(1, 0.1, "plain"), (2, math.nan, "a, b"), (3, -0.0, 'say "hi"'), (4, 1e300, "two\nlines")]
    _print_csv(("n", "x", "text"), rows)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("n", "x", "text"))
    writer.writerows((n, g17(x), text) for n, x, text in rows)
    assert capsys.readouterr().out == expected.getvalue()


def test_closed_stdout_pipe_exits_0_quietly(capsys, monkeypatch):
    # `suppest coeffs ... | head -1`: the reader has closed the pipe before
    # the output is flushed; the rest goes to the null device, with no message
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    stdout = open(write_fd, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(["coeffs", "--k", "1e4", "--n", "1e4", "--estimator", "wy"])
        assert os.path.samestat(os.fstat(write_fd), os.stat(os.devnull))
    finally:
        stdout.close()
    assert code == 0
    assert capsys.readouterr().err == ""


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

    def test_csv_bytes(self, capsys, tmp_path):
        text = "To be, or not to be"
        path = tmp_path / "t.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "estimate", str(path), "--estimator", "naive,gt", "--format", "csv")
        assert code == 0
        fp = data_mod.fingerprint(data_mod.histogram_from_tokens(data_mod.tokenize_text(text)))
        naive, gt = (estimate(EstimatorSpec(kind), fp, fp.n).value for kind in ("naive", "gt"))
        assert (fp.n, naive) == (6, 4.0)
        # an int prints bare, a float as %.17g and a bool as True/False
        assert out == (
            "estimator,value,n,k,k_assumed_equal_n\n"
            "naive,4,6,6,True\n"
            f"gt,{g17(gt)},6,6,True\n"
        )

    def test_line_order_does_not_change_output(self, capsys, tmp_path):
        # the fingerprint is summed in count order, not in the order words first appear
        lines = data_mod.bundled_corpus_path().read_text(encoding="utf-8").splitlines()
        outs = []
        for name, ordered in (("forward.txt", lines), ("reversed.txt", lines[::-1])):
            path = tmp_path / name
            path.write_text("".join(line + "\n" for line in ordered), encoding="utf-8")
            code, out, _ = run(capsys, "estimate", str(path), "--estimator", "rwc,rwc-s,wy,gt,naive")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

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

    def test_counts_past_underflow_edge(self, capsys, tmp_path):
        # n/k = 900.005: the rwc and rwc-s grids are that one rate
        path = tmp_path / "counts.tsv"
        path.write_text("a\t900000\nb\t5\n")
        code, out, err = run(capsys, "estimate", str(path), "--counts", "--k", "1000", "--estimator", "rwc,rwc-s")
        assert code == 0 and err == ""
        assert [rec["value"] for rec in json.loads(out)] == [2.0, 2.0]

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

    def test_wy_interval_from_estimator(self, capsys):
        """coeffs prints, and bias-curve plots, the interval wy_coefficients approximated on."""
        argv = ("--k", "1e4", "--n", "1e4", "--estimator", "wy", "--c1", "0.7")
        code, out, _ = run(capsys, "coeffs", *argv)
        assert code == 0
        assert json.loads(out)["interval"] == ["1", "6.4472382603833278"]
        code, out, _ = run(capsys, "bias-curve", *argv, "--points", "5")
        assert code == 0
        assert out.strip().splitlines()[-1].split(",")[0] == "6.4472382603833278"

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

    @pytest.mark.parametrize("argv", [(), ("--estimator", "rwc-s", "--s-count", "6321"), ("--estimator", "wy")])
    def test_key_order(self, capsys, argv):
        # wy solves nothing: its record is the rwc record without the solver's keys
        code, out, _ = run(capsys, "coeffs", "--k", "1e4", "--n", "1e4", "--s", "200", *argv)
        assert code == 0
        solver_keys = {"reg_weight", "grid_points", "t_d", "duality_gap", "iterations"}
        expected = [key for key in self.RECORD_KEYS if "wy" not in argv or key not in solver_keys]
        assert list(json.loads(out)) == expected

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

    def test_one_rate_past_underflow_exit_0(self, capsys):
        # n/k = 800 is past 6.5 L: the grid is the point n/k, where exp(-n/k)
        # underflows, and the closed form gives coefficients below the
        # subnormal range, so exactly 0, and g = 1 on every count
        code, out, err = run(capsys, "coeffs", "--k", "1000", "--n", "8e5")
        assert code == 0
        assert "Warning" not in err
        payload = json.loads(out)
        assert payload["grid_points"] == 1
        assert payload["g_values"][1:] == ["1"] * payload["degree"]
        assert (payload["duality_gap"], payload["iterations"]) == ("0", 0)

    def test_degree_underflow_exit_2(self, capsys):
        # n/k = 1, but c0 = 100 gives L = 921 on [1, 5986.5], whose high-degree
        # terms underflow at every grid rate: the message names those
        # coefficients, the degree and the interval, not n/k
        code, out, err = run(capsys, "coeffs", "--k", "1e4", "--n", "1e4", "--c0", "100")
        assert code == 2
        assert out == ""
        assert "Warning" not in err
        assert "underflow" in err and "to a_921" in err
        assert "degree-921" in err and "[1, 5986.5]" in err
        assert "n/k is too large" not in err

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

    def test_csv_deterministic_run_to_run(self, capsys):
        # zipf(1), zipf(0.25) and benford all have k = 101, so at n = k their
        # rwc-s cells share cache entries solved along one warm-started chain
        dists = [
            data_mod.make_distribution("zipf", 1e-2, alpha=1.0),
            data_mod.make_distribution("zipf", 1e-2, alpha=0.25),
            data_mod.make_distribution("benford", 1e-2),
        ]
        assert len({d.k for d in dists}) == 1
        argv = (
            "simulate", "--dist", "zipf:1,zipf:0.25,benford", "--min-mass", "1e-2", "--n-frac", "0.5,1",
            "--trials", "6", "--seed", "9", "--estimators", "rwc-s,naive,gt",
        )
        code, a, _ = run(capsys, *argv)
        assert code == 0
        assert not any(row["error"] for row in csv.DictReader(a.splitlines()))
        code, b, _ = run(capsys, *argv)
        assert code == 0
        assert a == b

    def test_in_process_calls_match_a_fresh_process(self, capsys):
        # per-cell sampling tables, warm-chain grid tables and WY polynomials
        # leave nothing behind that changes the next call's bytes
        argv = ["simulate", "--min-mass", "1e-3", "--n-frac", "0.001,1", "--trials", "3", "--seed", "4"]
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert code == 0
        src = str(Path(data_mod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = f"import sys; from suppest.cli import main; sys.exit(main({argv!r}))"
        fresh = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert first == second == fresh.stdout

    def test_one_rate_cells_past_underflow_edge(self, capsys):
        # k = 1000 and n = 8e5: every solve is the one rate n/k = 800
        argv = ("--dist", "uniform", "--min-mass", "1e-3", "--n-frac", "800", "--trials", "2", "--estimators", "rwc,rwc-s,naive")
        code, out, _ = run(capsys, "simulate", *argv)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert sorted(row["estimator"] for row in rows) == ["naive", "rwc", "rwc-s"]
        assert all(row["error"] == "" for row in rows)

    def test_runtime_kept_out_of_csv(self, capsys):
        # no wall-clock field in either format: both are pure functions of the inputs
        argv = ("simulate", "--dist", "uniform", "--min-mass", "1e-2", "--n-frac", "0.1", "--trials", "1",
                "--seed", "0", "--estimators", "naive")
        _, out, _ = run(capsys, *argv)
        header = out.splitlines()[0].split(",")
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert header == list(json.loads(out)[0])
        assert "runtime" not in header

    def test_failed_row_csv_bytes(self, capsys):
        # all-singleton samples break Good-Turing: its statistics print nan
        argv = ("--dist", "uniform", "--min-mass", "1e-6", "--n-frac", "3e-6", "--trials", "2", "--estimators", "gt,naive")
        code, out, _ = run(capsys, "simulate", *argv)
        assert code == 0
        report = evaluate_risk(
            [EstimatorSpec(kind) for kind in ("gt", "naive")],
            [data_mod.make_distribution("uniform", 1e-6)], [3e-6], trials=2, seed=0,
        )
        gt, naive = report.rows
        assert math.isnan(gt.mse) and "," not in gt.error
        stats = ",".join(g17(x) for x in (naive.mean, naive.std, naive.mse, naive.nmse_k2, naive.nmse_s2))
        assert out == (
            "estimator,distribution,n,trials,mean,std,mse,nmse_k2,nmse_s2,seed,error\n"
            f"gt,uniform,3,2,nan,nan,nan,nan,nan,0,{gt.error}\n"
            f"naive,uniform,3,2,{stats},0,\n"
        )

    def test_error_with_comma_is_quoted(self, capsys):
        # n = 0: the rwc-s and wy messages hold commas, which must stay inside the error field
        argv = ("--dist", "uniform", "--min-mass", "1e-2", "--n-frac", "0", "--trials", "2", "--estimators", "rwc-s,wy,naive")
        code, out, _ = run(capsys, "simulate", *argv)
        assert code == 0
        report = evaluate_risk(
            [EstimatorSpec(kind) for kind in ("rwc-s", "wy", "naive")],
            [data_mod.make_distribution("uniform", 1e-2)], [0.0], trials=2, seed=0,
        )
        rows = list(csv.reader(out.splitlines()))
        assert all(len(row) == 11 for row in rows)
        assert [row[-1] for row in rows[1:]] == [r.error for r in report.rows]
        assert sum("," in r.error for r in report.rows) == 2


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

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "converge", "--k", "1e4", "--n", "1e4", "--s-list", "11,21", "--tol", "1e-9")
        assert code == 0
        lines = [line for line in out.strip().splitlines() if not line.startswith("#")]
        assert lines[0] == "s,d,t_d"
        assert len(lines) == 3

    def test_point_problem_bytes(self, capsys):
        # degree 0: every grid size solves the point n/k = 1, so d prints 0
        code, out, _ = run(capsys, "converge", "--k", "4", "--n", "4", "--s-list", "11,21")
        assert code == 0
        report = grid_convergence_study(4, 4, [11, 21], EstimatorSpec("rwc"))
        t_d = g17(report.t_ref)
        assert out == f"s,d,t_d\n11,0,{t_d}\n21,0,{t_d}\n# t_ref={t_d} rate_exponent=NA\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # the study solves rwc problems only, which never read c1
            (("converge", "--k", "1e4", "--n", "1e4", "--s-list", "11", "--c1", "0.7"), "--c1"),
            # it solves each --s-list size, so nothing would read --s
            (("converge", "--k", "1e4", "--n", "1e4", "--s-list", "11", "--s", "7"), "--s"),
            # the iteration budget is the constant sip.MAX_ITER
            (("coeffs", "--k", "1e4", "--n", "1e4", "--max-iter", "5"), "--max-iter"),
            # the g column always uses the rwc weight 1/k
            (("bias-curve", "--k", "1e4", "--n", "1e4", "--reg-weight", "0"), "--reg-weight"),
        ],
    )
    def test_no_c1_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {flag} " in err


class TestAbbreviations:
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--est", "naive", "--trials", "2", "--min-mass", "0.01"),
            ("estimate", "CORPUS", "--estim", "naive"),
            ("coeffs", "--k", "1e4", "--n", "1e4", "--est", "wy"),
            ("converge", "--k", "1e4", "--n", "1e4", "--s-l", "11"),
            ("bias-curve", "--k", "1e4", "--n", "1e4", "--points", "5", "--est", "wy"),
        ],
    )
    def test_abbreviated_flag_rejected(self, capsys, argv):
        argv = [str(data_mod.bundled_corpus_path()) if a == "CORPUS" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: " in err
        # the full spelling runs
        full = {"--est": "--estimators" if argv[0] == "simulate" else "--estimator", "--estim": "--estimator", "--s-l": "--s-list"}
        assert run(capsys, *[full.get(a, a) for a in argv])[0] == 0


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

    def test_point_problem_bytes(self, capsys):
        code, out, _ = run(capsys, "bias-curve", "--k", "4", "--n", "4", "--points", "5")
        assert code == 0
        p = rwc_coefficients(4, 4, EstimatorSpec("rwc")).coeffs
        (var,), (bias,), (g,) = objective_values(p, build_grid(1.0, 1.0, 5), 1.0 / 4)
        assert out == f"lambda,bias,variance_term,g\n1,{g17(bias)},{g17(var)},{g17(g)}\n"

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
            # not a number at all
            (["coeffs", "--k", "abc", "--n", "1"], "--k"),
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
            # wy builds its EstimatorSpec like every estimator, so it rejects s < 2 as bias-curve does
            (("coeffs", "--k", "1e4", "--n", "1e4", "--estimator", "wy", "--s", "1"), "grid size s must be >= 2"),
            # the spec checks tol, also for estimators that never solve
            (("coeffs", "--estimator", "wy", "--k", "1e4", "--n", "1e4", "--tol", "-1"), "tol must be positive"),
            (("simulate", "--trials", "1", "--estimators", "naive,gt", "--tol", "0"), "tol must be positive"),
            (("coeffs", "--k", "1e4", "--n", "1e4", "--s-count", "5"), "--s-count is read only by --estimator rwc-s, not rwc"),
            (("coeffs", "--k", "1e4", "--n", "1e4", "--estimator", "wy", "--s-count", "5"), "--s-count is read only by --estimator rwc-s, not wy"),
            # wy's degree floor(c0 ln k) must be at least 1
            (("coeffs", "--estimator", "wy", "--k", "4", "--n", "1"), "k=4.0 too small: c0 ln k must be >= 1"),
            (("coeffs", "--k", "1e4", "--n", "1e4", "--c0", "0"), "c0 and c1 must be positive"),
            # n = 1e306 k is past the float range
            ((*SIMULATE, "uniform", "--n-frac", "1e306"), "sample size n = inf is too large to draw"),
            # a support of 1e15 symbols, a 7 PiB probability vector: refused before it is allocated
            (
                (*SIMULATE, "uniform", "--min-mass", "1e-15"),
                "min mass 1e-15 needs more than 536870912 symbols, the largest support allowed",
            ),
        ],
    )
    def test_input_error_is_one_line(self, capsys, argv, message):
        # most of these used to end in a ZeroDivisionError traceback, or in
        # a message about converting NaN to an integer
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"suppest: error: {message}\n"
