"""Benchmark of the suppest command line on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the workload's inputs from
``--seed``, starts ``bench/worker.py`` in a process of its own to time passes
of in-process ``suppest.cli.main`` calls for about ``--seconds`` seconds,
checks the outputs, and prints a detail record and then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see ``bench/README.md``).  Scratch files go to ``.bench_build/bench``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_build" / "bench"

TOL = 1e-8  # solver tolerance passed to every solving call (the CLI default)
SETUP_PROBES = 5  # fresh processes that time set-up, besides the worker itself
WORKER_TIMEOUT_S = 150

# text-estimate: Zipf(1.1) over a 300k-word vocabulary, about 20 MB of text
# with 6.8M tokens and 245k distinct words.
VOCAB = 300_000
TOKENS = 6_800_000
ZIPF_EXPONENT = 1.1
WORDS_PER_LINE = 16
CHUNK = 1 << 20  # tokens generated at a time; a multiple of WORDS_PER_LINE

# risk-sweep: the six-distribution suite, all five estimators, n = k.
SUITE = (("uniform", None), ("zipf", 1.5), ("zipf", 1.0), ("zipf", 0.5), ("zipf", 0.25), ("benford", None))
ESTIMATORS = ("rwc", "rwc-s", "wy", "gt", "naive")
MIN_MASS = 1e-4
TRIALS = 30

# solve-atlas: k x n/k cells plus (k = 1e15, n = k), each solved for rwc and rwc-s.
ATLAS_K_EXPONENTS = (2, 4, 6, 9, 12)
ATLAS_N_OVER_K = (1e-3, 0.1, 1.0)
ATLAS_T_D_RTOL = 1e-12


def word(rank: int) -> bytes:
    """Bijective base-26 lowercase word for a 0-based rank: a, ..., z, aa, ..."""
    letters = []
    rank += 1
    while rank:
        rank, r = divmod(rank - 1, 26)
        letters.append(97 + r)
    return bytes(reversed(letters))


def write_zipf_text(path: Path, seed: int) -> tuple[int, int]:
    """Write the seeded text; return (bytes written, distinct words)."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(np.arange(1, VOCAB + 1, dtype=float) ** -ZIPF_EXPONENT)
    cdf /= cdf[-1]
    vocab = [word(r) for r in range(VOCAB)]
    seen = np.zeros(VOCAB, dtype=bool)
    with open(path, "wb") as fh:
        for start in range(0, TOKENS, CHUNK):
            ranks = np.searchsorted(cdf, rng.random(min(CHUNK, TOKENS - start)), side="right")
            seen[ranks] = True
            words = [vocab[r] for r in ranks.tolist()]
            lines = (b" ".join(words[i : i + WORDS_PER_LINE]) for i in range(0, len(words), WORDS_PER_LINE))
            fh.write(b"\n".join(lines) + b"\n")
    return path.stat().st_size, int(seen.sum())


def suite_label(kind: str, alpha) -> str:
    return f"zipf({alpha:g})" if kind == "zipf" else kind


def atlas_cells() -> list[tuple[float, float]]:
    cells = [
        (float(10**e), max(1.0, float(10**e) * r)) for e in ATLAS_K_EXPONENTS for r in ATLAS_N_OVER_K
    ]
    return cells + [(1e15, 1e15)]


def build_job(workload: str, seed: int, seconds: int, trace: bool, text_path: Path) -> tuple[dict, dict]:
    """The worker's job and the facts the checks compare its outputs with."""
    job = {
        "seconds": seconds,
        "trace": trace,
        "distributions": [],
        "input_bytes": 0,
        "rwcs_trial_estimates": 0,
    }
    expect: dict = {}
    if workload == "text-estimate":
        size, distinct = write_zipf_text(text_path, seed)
        job["calls"] = [
            ["estimate", str(text_path), "--estimator", "rwc-s,naive", "--format", "json", "--tol", repr(TOL)]
        ]
        job["input_bytes"] = size
        expect.update(distinct=distinct, input_bytes=size)
    elif workload == "risk-sweep":
        dist_arg = ",".join(kind if alpha is None else f"zipf:{alpha:g}" for kind, alpha in SUITE)
        job["calls"] = [
            [
                "simulate", "--dist", dist_arg, "--estimators", ",".join(ESTIMATORS),
                "--min-mass", repr(MIN_MASS), "--n-frac", "1", "--trials", str(TRIALS),
                "--seed", str(seed), "--tol", repr(TOL), "--format", "csv",
            ]
        ]
        job["distributions"] = [[kind, MIN_MASS, alpha] for kind, alpha in SUITE]
        job["rwcs_trial_estimates"] = TRIALS * len(SUITE)
        expect["rows"] = {(e, suite_label(kind, alpha)) for e in ESTIMATORS for kind, alpha in SUITE}
    elif workload == "solve-atlas":
        calls, cells = [], []
        for k, n in atlas_cells():
            s_count = round(-k * math.expm1(-n / k))
            for estimator in ("rwc", "rwc-s"):
                argv = ["coeffs", "--k", repr(k), "--n", repr(n), "--estimator", estimator, "--tol", repr(TOL)]
                if estimator == "rwc-s":
                    argv += ["--s-count", str(s_count)]
                calls.append(argv)
                cells.append({"k": k, "n": n, "estimator": estimator})
        job["calls"] = calls
        expect["cells"] = cells
    else:
        raise ValueError(f"unknown workload {workload!r}")
    job["order"] = list(range(len(job["calls"])))
    random.Random(seed).shuffle(job["order"])
    return job, expect


def check_text(first: list[dict], expect: dict, problems: list[str]) -> tuple[int, int, dict]:
    """Operations are estimator values; the call fails or succeeds as a whole."""
    (call,) = first
    detail = {"code": call["code"], "distinct": expect["distinct"], "input_bytes": expect["input_bytes"]}
    if call["code"] != 0:
        return 2, 2, {**detail, "stderr": call["stderr"]}
    records = {r["estimator"]: r for r in json.loads(call["stdout"])}
    naive = records.get("naive", {}).get("value")
    if naive != expect["distinct"]:
        problems.append(f"naive value {naive} != distinct count {expect['distinct']} of the generated tokens")
    diag = records.get("rwc-s", {}).get("diagnostics", {})
    gap = diag.get("duality_gap")
    if gap is None or not gap <= TOL:
        problems.append(f"rwc-s duality_gap {gap} not <= tol {TOL}")
    return 2, 0, {**detail, "values": {e: r["value"] for e, r in records.items()}, "rwcs_diagnostics": diag}


def check_risk(first: list[dict], expect: dict, problems: list[str]) -> tuple[int, int, dict]:
    """Operations are (estimator, distribution) rows; a row fails with a non-empty error."""
    (call,) = first
    rows = list(csv.DictReader(io.StringIO(call["stdout"])))
    pairs = [(r["estimator"], r["distribution"]) for r in rows]
    if len(pairs) != len(expect["rows"]) or set(pairs) != expect["rows"]:
        problems.append(f"report has rows {sorted(pairs)}, expected one per (estimator, distribution)")
    errors = {f"{e}/{d}": r["error"] for (e, d), r in zip(pairs, rows) if r["error"]}
    failed = len(errors) if rows else len(expect["rows"])
    return len(expect["rows"]), failed, {"code": call["code"], "row_errors": errors}


def check_atlas(first: list[dict], expect: dict, problems: list[str]) -> tuple[int, int, dict]:
    """Operations are cells.  Exit 2 is a typed numerical failure; exit 1 on an
    in-range cell is a raw error reported as an input error (misclassified)."""
    sys.path.insert(0, str(SRC))
    from suppest.poly import Polynomial, objective_values

    failed, outcomes = 0, []
    for cell, call in zip(expect["cells"], first):
        code = call["code"]
        row = {**cell, "seconds": call["seconds"]}
        if code == 0:
            out = json.loads(call["stdout"])
            gap, t_d = float(out["duality_gap"]), float(out["t_d"])
            lo, hi = (float(x) for x in out["interval"])
            lams = np.linspace(lo, hi, int(out["grid_points"]))
            coeffs = Polynomial(tuple(float(c) for c in out["coeffs"]))
            grid_max = float(objective_values(coeffs, lams, float(out["reg_weight"]))[2].max())
            label = f"{cell['estimator']} k={cell['k']:g} n={cell['n']:g}"
            if not gap <= TOL:
                problems.append(f"{label}: certified with duality_gap {gap} > tol {TOL}")
            if not abs(grid_max - t_d) <= ATLAS_T_D_RTOL * abs(t_d):
                problems.append(f"{label}: t_d {t_d!r} != grid max of objective_values {grid_max!r}")
            row.update(outcome="certified", gap=gap, iterations=out["iterations"], degree=out["degree"])
        else:
            failed += 1
            outcome = {2: "nonconverged", 1: "misclassified"}.get(code, f"failed:{code}")
            row.update(outcome=outcome, message=call["stderr"].strip())
        outcomes.append(row)
    return len(first), failed, {"cells": outcomes}


CHECKS = {"text-estimate": check_text, "risk-sweep": check_risk, "solve-atlas": check_atlas}


def run_worker(args: list[str], env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "suppest" / "__init__.py").is_file():
        print(f"bench: no suppest sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    stem = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    text_path, job_path = stem.with_suffix(".txt"), stem.with_suffix(".json")
    env = {k: v for k, v in os.environ.items() if k != "SUPPEST_THREADS"}
    try:
        job, expect = build_job(args.workload, args.seed, args.seconds, bool(args.trace), text_path)
        job_path.write_text(json.dumps(job))
        probes = [] if args.trace else [run_worker(["--setup-only", str(job_path)], env) for _ in range(SETUP_PROBES)]
        result = run_worker([str(job_path)], env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        text_path.unlink(missing_ok=True)
        job_path.unlink(missing_ok=True)

    problems: list[str] = []
    passes = result["passes"]
    digests = {p["sha256"] for p in passes}
    if len(digests) != 1:
        problems.append(f"stdout differs between passes: {sorted(digests)}")
    if any(p["codes"] != passes[0]["codes"] for p in passes):
        problems.append("exit codes differ between passes")
    ops_per_pass, failed_per_pass, detail = CHECKS[args.workload](passes[0].pop("results"), expect, problems)
    attempted, failed = ops_per_pass * len(passes), failed_per_pass * len(passes)

    plain = [p for p in passes if not p["traced"]]
    pass_s = statistics.median(p["wall_s"] for p in plain)
    setups = probes + [result]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in result["per_layer"].items()}
        traced_s = statistics.median(p["wall_s"] for p in passes if p["traced"])
        metrics["trace.overhead_s"] = {"value": traced_s - pass_s, "unit": "s"}
    else:
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in setups), "unit": "s"},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "stdout_sha256": passes[0]["sha256"],
        "problems": problems,
        "passes": [{k: v for k, v in p.items() if k != "codes"} for p in passes],
        "setup_s": [p["setup_s"] for p in setups],
        "env": result["env"],
        **detail,
    }
    print(json.dumps(record))
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    """Units of the per-layer metrics, which their names end with."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".calls", ".iterations", ".failed")):
        return "count"
    if name.endswith("_ratio"):
        return "frac"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
