"""Timed passes of one workload, run in a process of their own.

Usage: ``python3 bench/worker.py JOB.json`` runs the job's passes and prints
one JSON result; ``python3 bench/worker.py --setup-only JOB.json`` only
imports suppest and makes the job's program-side set-up calls, and prints
the seconds that took.  ``bench/run.py`` writes the job file and starts this
script, so the peak RSS read here belongs to the workload's passes alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics

SRC = Path(__file__).resolve().parent.parent / "src"


def set_up(job: dict) -> tuple[dict, float]:
    """Import suppest and make the job's set-up calls; return modules and seconds."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from suppest import cli, data, estimators, harness, poly, sip

    for kind, min_mass, alpha in job["distributions"]:
        data.make_distribution(kind, min_mass, alpha=alpha)
    seconds = time.perf_counter() - start
    modules = {
        "cli": cli,
        "data": data,
        "estimators": estimators,
        "harness": harness,
        "poly": poly,
        "sip": sip,
    }
    return modules, seconds


def call_cli(cli, argv: list[str]) -> dict:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the CLI let an exception escape: a crash
            code = f"crash:{type(exc).__name__}"
            print(f"{type(exc).__name__}: {exc}", file=err)
    seconds = time.perf_counter() - start
    return {"code": code, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_pass(cli, job: dict) -> dict:
    """Make the job's CLI calls in its execution order; results are kept in
    the job's canonical order."""
    results = [None] * len(job["calls"])
    for i in job["order"]:
        results[i] = call_cli(cli, job["calls"][i])
    return {
        "wall_s": sum(r["seconds"] for r in results),
        "sha256": hashlib.sha256("".join(r["stdout"] for r in results).encode()).hexdigest(),
        "codes": [r["code"] for r in results],
        "results": results,
    }


# (thread count, build string) functions of numpy's bundled OpenBLAS and of a
# system OpenBLAS.
_OPENBLAS_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_info() -> dict:
    """numpy and OpenBLAS versions and the BLAS thread count in use."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _OPENBLAS_FUNCTIONS:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                getattr(lib, threads_name).restype = ctypes.c_int
                getattr(lib, config_name).restype = ctypes.c_char_p
                info["blas_threads"] = getattr(lib, threads_name)()
                info["blas_config"] = getattr(lib, config_name)().decode()
                return info
    return info


def main(argv: list[str]) -> int:
    setup_only = argv[:1] == ["--setup-only"]
    with open(argv[-1]) as fh:
        job = json.load(fh)
    modules, setup_s = set_up(job)
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cli = modules["cli"]
    tracer = Tracer(modules) if job["trace"] else None
    passes, layers = [], []
    start = time.perf_counter()
    # At least two passes, so that output determinism is checked; more while
    # another pass of median length still fits in the measured seconds.
    while len(passes) < 2 or (
        time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes) <= job["seconds"]
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            with tracer:
                record = run_pass(cli, job)
            layers.append(layer_metrics(tracer.take(), job["input_bytes"], job["rwcs_trial_estimates"]))
        else:
            record = run_pass(cli, job)
        record["traced"] = traced
        if passes:
            del record["results"]  # only the first pass's outputs are checked in full
        passes.append(record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **blas_info(),
        },
    }
    if tracer is not None:
        result["per_layer"] = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
