"""Command-line surface: estimate, coeffs, simulate, converge, bias-curve.

Every command is a pure function of its flags, input files and seed; repeated
runs print byte-identical output.  This is the one module that formats
output: floats print as %.17g (`fmt`) and every CSV goes through
`_print_csv`.  Exit codes: 0 success (also when the reader of stdout closes
it early), 1 input/validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields

from . import data as data_mod
from . import estimators as est_mod
from . import harness as harness_mod
from .estimators import CoverageZeroError, EstimatorSpec
from .poly import g_values, objective_values
from .sip import NonConvergenceError, RankDeficiencyError, build_grid

DEFAULT_SUITE = ("uniform", "zipf:1.5", "zipf:1", "zipf:0.5", "zipf:0.25", "benford")


def fmt(x: float) -> str:
    """A float as %.17g text, which reads back as the same double; every report prints floats so."""
    return format(x, ".17g")


def _print_csv(header, rows) -> None:
    """Print a header line and one line per row: floats through `fmt`, other
    cells through `str`.  A field holding a comma, a quote or a line break is
    quoted with its quotes doubled, as the csv module writes and reads it."""
    # not through the csv module: importing it adds about 64 kB to the peak
    # memory of every process
    for row in [header, *rows]:
        cells = [fmt(c) if isinstance(c, float) else str(c) for c in row]
        quoted = ['"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"\r\n') else c for c in cells]
        print(",".join(quoted))


def _finite(text: str) -> float:
    """Type of every float flag: NaN and infinities are input errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _parse_dist(token: str) -> tuple:
    if token == "uniform" or token == "benford":
        return (token, None)
    if token.startswith("zipf:"):
        alpha = float(token.split(":", 1)[1])
        if not math.isfinite(alpha):
            raise ValueError(f"zipf exponent must be a finite number, got {token!r}")
        return ("zipf", alpha)
    raise ValueError(f"unknown distribution {token!r} (use uniform, benford, or zipf:<alpha>)")


def _add_solver_flags(p, grid=True):
    """The EstimatorSpec settings as flags; `converge` picks its own grids and solves rwc only."""
    p.add_argument("--c0", type=_finite, default=EstimatorSpec.c0, help="degree constant, L = floor(c0 ln k) (default %(default)s)")
    if grid:
        p.add_argument("--c1", type=_finite, default=EstimatorSpec.c1, help="WY interval constant (default %(default)s)")
        p.add_argument("--s", type=int, default=EstimatorSpec.s, help="grid points for the discretized program (default %(default)s)")
    p.add_argument("--tol", type=_finite, default=EstimatorSpec.tol, help="solver duality-gap tolerance (default %(default)s)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call of a process: argparse
    leaves reference cycles (a help formatter per argument), so a parser
    built per call stays in memory until a full collection, and repeated
    in-process calls grow memory."""
    parser = argparse.ArgumentParser(prog="suppest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a mistyped or removed flag must not select another one
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("estimate", help="estimate support size from a text or counts file")
    p.add_argument("input", help="input file (UTF-8 text, or counts with --counts)")
    p.add_argument("--counts", action="store_true", help="input is a symbol<TAB>count file")
    p.add_argument("--estimator", default="rwc-s", help="comma-separated estimators: rwc,rwc-s,wy,gt,naive (default rwc-s)")
    p.add_argument("--k", type=_finite, default=None, help="upper bound on 1/min-mass (default: total sample size n)")
    p.add_argument("--clamp", action="store_true", help="clamp estimates into [naive count, k]")
    p.add_argument("--fallback", dest="fallback_to_naive", action="store_true", help="fall back to naive counting on WY collapse / GT zero coverage")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_solver_flags(p)

    p = add_parser("coeffs", help="dump estimator coefficients for a (k, n) pair")
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--n", type=_finite, required=True)
    p.add_argument("--estimator", choices=("rwc", "rwc-s", "wy"), default="rwc")
    p.add_argument("--s-count", type=_finite, default=None, help="counting estimate for the rwc-s regularizer")
    _add_solver_flags(p)

    p = add_parser("simulate", help="risk sweep over synthetic distributions")
    p.add_argument("--dist", default=",".join(DEFAULT_SUITE), help="comma list: uniform, benford, zipf:<alpha> (default: the six-distribution suite)")
    p.add_argument("--min-mass", type=_finite, default=1e-4, help="target minimum probability mass (default 1e-4)")
    p.add_argument("--n-frac", type=lambda text: [_finite(x) for x in text.split(",")], default="1.0", help="comma list of sample sizes as fractions of k (default 1.0)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimators", default="rwc,rwc-s,wy,gt,naive")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_solver_flags(p)

    p = add_parser("converge", help="grid-refinement convergence study")
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--n", type=_finite, required=True)
    p.add_argument("--s-list", default="11,21,41,81,161,5121", help="comma list of grid sizes, finest is the reference")
    _add_solver_flags(p, grid=False)

    p = add_parser("bias-curve", help="export bias/variance/objective along the interval")
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--n", type=_finite, required=True)
    p.add_argument("--estimator", choices=("rwc", "wy"), default="rwc")
    p.add_argument("--points", type=int, default=1000)
    _add_solver_flags(p)

    return parser


def _spec_from_args(args, kind: str) -> EstimatorSpec:
    """The spec of `kind` with each field the command has a flag for; the rest keep their defaults."""
    given = vars(args)
    return EstimatorSpec(kind, **{f.name: given[f.name] for f in fields(EstimatorSpec) if f.name in given})


def _cmd_estimate(args) -> int:
    if args.counts:
        fp = data_mod.fingerprint(data_mod.histogram_from_counts_file(args.input))
    else:
        with open(args.input, "rb") as fh:
            fp = data_mod.text_fingerprint(fh)
    if not fp.h:
        raise data_mod.IngestionError("no counts" if args.counts else "input has no tokens")
    k_assumed = args.k is None
    if not k_assumed and args.k < fp.distinct:
        # k bounds 1/min-mass, which is at least the support
        raise ValueError(f"--k {args.k:g} is below the {fp.distinct} distinct symbols observed")
    k = float(fp.n) if k_assumed else args.k
    records = []
    for kind in args.estimator.split(","):
        spec = _spec_from_args(args, kind.strip())
        result = est_mod.estimate(spec, fp, k)
        value = result.value
        if args.clamp:
            value = min(max(value, est_mod.naive_count(fp)), k)
        records.append(
            {
                "estimator": spec.kind,
                "value": value,
                "n": fp.n,
                "k": k,
                "k_assumed_equal_n": k_assumed,
                **({"diagnostics": result.diagnostics} if result.diagnostics else {}),
            }
        )
    if args.format == "json":
        print(json.dumps(records, indent=2, default=float))
    else:
        columns = ("estimator", "value", "n", "k", "k_assumed_equal_n")
        _print_csv(columns, ([r[c] for c in columns] for r in records))
    return 0


def _cmd_coeffs(args) -> int:
    if args.s_count is not None and args.estimator != "rwc-s":
        raise ValueError(f"--s-count is read only by --estimator rwc-s, not {args.estimator}")
    spec = _spec_from_args(args, args.estimator)
    if args.s_count is None and args.estimator == "rwc-s":
        raise ValueError("rwc-s needs --s-count (the naive counting estimate)")
    p, (lo, hi), result = est_mod.coefficients(spec, args.k, args.n, args.s_count)
    per_count, tail = g_values(p)
    # the solver's keys are None for wy, which solves nothing, and are dropped
    payload = {
        "estimator": spec.kind,
        "degree": p.degree,
        "reg_weight": None,
        "interval": [fmt(lo), fmt(hi)],
        "grid_points": None,
        "g_values": [fmt(g) for g in per_count],
        "g_tail": fmt(tail),
        "coeffs": [fmt(c) for c in p.coeffs],
    }
    if result is not None:
        payload.update(
            reg_weight=fmt(result.problem.reg_weight),
            grid_points=len(result.problem.points),
            t_d=fmt(result.t_d),
            duality_gap=fmt(result.duality_gap),
            iterations=result.iterations,
        )
    print(json.dumps({key: v for key, v in payload.items() if v is not None}, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    dists = []
    for token in args.dist.split(","):
        kind, alpha = _parse_dist(token.strip())
        dists.append(data_mod.make_distribution(kind, args.min_mass, alpha=alpha))
    specs = [_spec_from_args(args, kind.strip()) for kind in args.estimators.split(",")]
    report = harness_mod.evaluate_risk(specs, dists, args.n_frac, trials=args.trials, seed=args.seed)
    if args.format == "csv":
        _print_csv([f.name for f in fields(harness_mod.RiskRow)], map(astuple, report.rows))
    else:
        # a non-finite float, such as a failed row's NaN, prints as null
        records = [
            {key: None if isinstance(v, float) and not math.isfinite(v) else v for key, v in asdict(r).items()}
            for r in report.rows
        ]
        print(json.dumps(records, indent=2, allow_nan=False))
    return 0 if any(not r.error for r in report.rows) else 2


def _cmd_converge(args) -> int:
    spec = _spec_from_args(args, "rwc")
    s_list = [int(x) for x in args.s_list.split(",")]
    report = harness_mod.grid_convergence_study(args.k, args.n, s_list, spec)
    _print_csv(("s", "d", "t_d"), ((r.s, r.d, r.t_d) for r in report.rows))
    exponent = "NA" if report.rate_exponent is None else fmt(report.rate_exponent)
    print(f"# t_ref={fmt(report.t_ref)} rate_exponent={exponent}")
    return 0


def _cmd_bias_curve(args) -> int:
    """The g column uses variance weight 1/k, the weight rwc solves with."""
    p, (lo, hi), _ = est_mod.coefficients(_spec_from_args(args, args.estimator), args.k, args.n)
    lams = build_grid(lo, hi, args.points)
    var, bias, g = objective_values(p, lams, 1.0 / args.k)
    _print_csv(("lambda", "bias", "variance_term", "g"), zip(lams, bias, var, g))
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "coeffs": _cmd_coeffs,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "bias-curve": _cmd_bias_curve,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has stopped reading (`suppest ... | head -1`): what is
        # still buffered goes to the null device, so that the flush at exit
        # cannot fail again, and the command succeeds as far as it was read
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (CoverageZeroError, NonConvergenceError, RankDeficiencyError) as exc:
        print(f"suppest: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"suppest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
