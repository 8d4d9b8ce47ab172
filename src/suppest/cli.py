"""Command-line surface: estimate, coeffs, simulate, converge, bias-curve.

Every command is a pure function of its flags, input files and seed; repeated
runs print byte-identical output.  Exit codes: 0 success, 1 input/validation
failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from . import data as data_mod
from . import estimators as est_mod
from . import harness as harness_mod
from .estimators import CoverageZeroError, EstimatorSpec
from .poly import g_values, objective_values
from .sip import IntervalSpec, NonConvergenceError, RankDeficiencyError, build_grid

DEFAULT_SUITE = ("uniform", "zipf:1.5", "zipf:1", "zipf:0.5", "zipf:0.25", "benford")


def _finite(text: str) -> float:
    """Type of every float flag: NaN and infinities are input errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _fmt(x: float) -> str:
    return format(x, ".17g")


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="suppest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate support size from a text or counts file")
    p.add_argument("input", help="input file (UTF-8 text, or counts with --counts)")
    p.add_argument("--counts", action="store_true", help="input is a symbol<TAB>count file")
    p.add_argument("--estimator", default="rwc-s", help="comma-separated estimators: rwc,rwc-s,wy,gt,naive (default rwc-s)")
    p.add_argument("--k", type=_finite, default=None, help="upper bound on 1/min-mass (default: total sample size n)")
    p.add_argument("--clamp", action="store_true", help="clamp estimates into [naive count, k]")
    p.add_argument("--fallback", dest="fallback_to_naive", action="store_true", help="fall back to naive counting on WY collapse / GT zero coverage")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_solver_flags(p)

    p = sub.add_parser("coeffs", help="dump estimator coefficients for a (k, n) pair")
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--n", type=_finite, required=True)
    p.add_argument("--estimator", choices=("rwc", "rwc-s", "wy"), default="rwc")
    p.add_argument("--s-count", type=_finite, default=None, help="counting estimate for the rwc-s regularizer")
    _add_solver_flags(p)

    p = sub.add_parser("simulate", help="risk sweep over synthetic distributions")
    p.add_argument("--dist", default=",".join(DEFAULT_SUITE), help="comma list: uniform, benford, zipf:<alpha> (default: the six-distribution suite)")
    p.add_argument("--min-mass", type=_finite, default=1e-4, help="target minimum probability mass (default 1e-4)")
    p.add_argument("--n-frac", type=lambda text: [_finite(x) for x in text.split(",")], default="1.0", help="comma list of sample sizes as fractions of k (default 1.0)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimators", default="rwc,rwc-s,wy,gt,naive")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_solver_flags(p)

    # no abbreviations, or --s would be taken for --s-list
    p = sub.add_parser("converge", help="grid-refinement convergence study", allow_abbrev=False)
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--n", type=_finite, required=True)
    p.add_argument("--s-list", default="11,21,41,81,161,5121", help="comma list of grid sizes, finest is the reference")
    _add_solver_flags(p, grid=False)

    p = sub.add_parser("bias-curve", help="export bias/variance/objective along the interval")
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--n", type=_finite, required=True)
    p.add_argument("--estimator", choices=("rwc", "wy"), default="rwc")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--reg-weight", type=_finite, default=None, help="variance weight for the g column (default 1/k)")
    _add_solver_flags(p)

    return parser


def _spec_from_args(args, kind: str) -> EstimatorSpec:
    """The spec of `kind` with each field the command has a flag for; the rest keep their defaults."""
    given = vars(args)
    return EstimatorSpec(kind, **{f.name: given[f.name] for f in fields(EstimatorSpec) if f.name in given})


def _cmd_estimate(args) -> int:
    if args.counts:
        counts = data_mod.histogram_from_counts_file(args.input)
    else:
        with open(args.input, "rb") as fh:
            counts = data_mod.histogram_from_text(fh)
    if not counts:
        raise data_mod.IngestionError("no counts" if args.counts else "input has no tokens")
    fp = data_mod.fingerprint(counts)
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
        print("estimator,value,n,k,k_assumed_equal_n")
        for r in records:
            print(f"{r['estimator']},{_fmt(r['value'])},{r['n']},{_fmt(r['k'])},{r['k_assumed_equal_n']}")
    return 0


def _cmd_coeffs(args) -> int:
    if args.estimator == "wy":
        p = est_mod.wy_coefficients(args.k, args.n, args.c0, args.c1)
        per_count, tail = g_values(p)
        payload = {
            "estimator": "wy",
            "degree": p.degree,
            "interval": [_fmt(args.n / args.k), _fmt(args.c1 * math.log(args.k))],
            "coeffs": [_fmt(c) for c in p.coeffs],
            "g_values": [_fmt(g) for g in per_count],
            "g_tail": _fmt(tail),
        }
    else:
        spec = _spec_from_args(args, args.estimator)
        if args.estimator == "rwc":
            result = est_mod.rwc_coefficients(args.k, args.n, spec)
        else:
            if args.s_count is None:
                raise ValueError("rwc-s needs --s-count (the naive counting estimate)")
            result = est_mod.rwcs_coefficients(args.k, args.n, args.s_count, spec)
        payload = {"estimator": args.estimator, **result.to_json_dict()}
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    dists = []
    for token in args.dist.split(","):
        kind, alpha = _parse_dist(token.strip())
        dists.append(data_mod.make_distribution(kind, args.min_mass, alpha=alpha))
    specs = [_spec_from_args(args, kind.strip()) for kind in args.estimators.split(",")]
    report = harness_mod.evaluate_risk(specs, dists, args.n_frac, trials=args.trials, seed=args.seed)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(json.dumps(report.to_json_dict(), indent=2, allow_nan=False))
    return 0 if any(not r.error for r in report.rows) else 2


def _cmd_converge(args) -> int:
    spec = _spec_from_args(args, "rwc")
    s_list = [int(x) for x in args.s_list.split(",")]
    report = harness_mod.grid_convergence_study(args.k, args.n, s_list, spec)
    sys.stdout.write(report.to_csv())
    exponent = "NA" if report.rate_exponent is None else _fmt(report.rate_exponent)
    print(f"# t_ref={_fmt(report.t_ref)} rate_exponent={exponent}")
    return 0


def _cmd_bias_curve(args) -> int:
    spec = _spec_from_args(args, args.estimator)
    if args.estimator == "wy":
        p = est_mod.wy_coefficients(args.k, args.n, args.c0, args.c1)
        interval = IntervalSpec(args.n / args.k, args.c1 * math.log(args.k))
    else:
        result = est_mod.rwc_coefficients(args.k, args.n, spec)
        p, interval = result.coeffs, result.problem.grid.interval
    reg = 1.0 / args.k if args.reg_weight is None else args.reg_weight
    lams = build_grid(interval, args.points).points
    var, bias, g = objective_values(p, lams, reg)
    print("lambda,bias,variance_term,g")
    for row in zip(lams, bias, var, g):
        print(",".join(map(_fmt, row)))
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
        return _COMMANDS[args.command](args)
    except (CoverageZeroError, NonConvergenceError, RankDeficiencyError) as exc:
        print(f"suppest: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"suppest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
