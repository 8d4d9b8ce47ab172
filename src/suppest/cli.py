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

from . import data as data_mod
from . import estimators as est_mod
from . import harness as harness_mod
from .estimators import CoverageZeroError, IntervalCollapseError
from .sip import MAX_ITER, NonConvergenceError, RankDeficiencyError, localized_interval

DEFAULT_SUITE = ("uniform", "zipf:1.5", "zipf:1", "zipf:0.5", "zipf:0.25", "benford")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._print_and_code(message))

    def _print_and_code(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _parse_dist(token: str) -> data_mod.DistributionSpec | tuple:
    if token == "uniform" or token == "benford":
        return (token, None)
    if token.startswith("zipf:"):
        return ("zipf", float(token.split(":", 1)[1]))
    raise ValueError(f"unknown distribution {token!r} (use uniform, benford, or zipf:<alpha>)")


def _add_solver_flags(p):
    p.add_argument("--c0", type=float, default=0.558, help="degree constant, L = floor(c0 ln k) (default 0.558)")
    p.add_argument("--c1", type=float, default=0.5, help="WY interval constant (default 0.5)")
    p.add_argument("--s", type=int, default=1000, help="grid points for the discretized program (default 1000)")
    p.add_argument("--tol", type=float, default=1e-8, help="solver duality-gap tolerance (default 1e-8)")
    p.add_argument("--max-iter", type=int, default=MAX_ITER, help=f"solver interior-point iteration budget (default {MAX_ITER})")


def _build_parser() -> _Parser:
    parser = _Parser(prog="suppest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate support size from a text or counts file")
    p.add_argument("input", help="input file (UTF-8 text, or counts with --counts)")
    p.add_argument("--counts", action="store_true", help="input is a symbol<TAB>count file")
    p.add_argument("--estimator", default="rwc-s", help="comma-separated estimators: rwc,rwc-s,wy,gt,naive (default rwc-s)")
    p.add_argument("--k", type=float, default=None, help="upper bound on 1/min-mass (default: total sample size n)")
    p.add_argument("--clamp", action="store_true", help="clamp estimates into [naive count, k]")
    p.add_argument("--fallback", action="store_true", help="fall back to naive counting on WY collapse / GT zero coverage")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_solver_flags(p)

    p = sub.add_parser("coeffs", help="dump estimator coefficients for a (k, n) pair")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--estimator", choices=("rwc", "rwc-s", "wy"), default="rwc")
    p.add_argument("--s-count", type=float, default=None, help="counting estimate for the rwc-s regularizer")
    _add_solver_flags(p)

    p = sub.add_parser("simulate", help="risk sweep over synthetic distributions")
    p.add_argument("--dist", default=",".join(DEFAULT_SUITE), help="comma list: uniform, benford, zipf:<alpha> (default: the six-distribution suite)")
    p.add_argument("--min-mass", type=float, default=1e-4, help="target minimum probability mass (default 1e-4)")
    p.add_argument("--n-frac", default="1.0", help="comma list of sample sizes as fractions of k (default 1.0)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimators", default="rwc,rwc-s,wy,gt,naive")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_solver_flags(p)

    p = sub.add_parser("converge", help="grid-refinement convergence study")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--s-list", default="11,21,41,81,161,5121", help="comma list of grid sizes, finest is the reference")
    _add_solver_flags(p)

    p = sub.add_parser("bias-curve", help="export bias/variance/objective along the interval")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--estimator", choices=("rwc", "wy"), default="rwc")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--reg-weight", type=float, default=None, help="variance weight for the g column (default 1/k)")
    _add_solver_flags(p)

    return parser


def _spec_from_args(args, kind: str) -> est_mod.EstimatorSpec:
    return est_mod.EstimatorSpec(
        kind=kind,
        c0=args.c0,
        c1=args.c1,
        s=args.s,
        tol=args.tol,
        max_iter=args.max_iter,
        fallback_to_naive=getattr(args, "fallback", False),
    )


def _cmd_estimate(args) -> int:
    with open(args.input, "rb") as fh:
        raw = fh.read()
    if args.counts:
        hist = data_mod.histogram_from_counts_file(raw.decode("utf-8").splitlines())
    else:
        hist = data_mod.histogram_from_tokens(data_mod.tokenize_text(raw))
    fp = data_mod.fingerprint(hist)
    n = fp.n
    k_assumed = args.k is None
    k = float(n) if k_assumed else args.k
    records = []
    for kind in args.estimator.split(","):
        spec = _spec_from_args(args, kind.strip())
        result = est_mod.estimate(spec, fp, n, k)
        value = result.value
        if args.clamp:
            value = min(max(value, est_mod.naive_count(fp)), k)
        records.append(
            {
                "estimator": spec.kind,
                "value": value,
                "n": n,
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
    from .poly import g_values

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
            reg = 1.0 / args.k
        else:
            if args.s_count is None:
                raise ValueError("rwc-s needs --s-count (the naive counting estimate)")
            result = est_mod.rwcs_coefficients(args.k, args.n, args.s_count, spec)
            reg = 1.0 / args.s_count
        degree = result.coeffs.degree
        per_count, tail = g_values(result.coeffs)
        interval = (
            localized_interval(args.n, args.k, degree)
            if degree >= 1
            else None
        )
        payload = {
            "estimator": args.estimator,
            "degree": degree,
            "reg_weight": _fmt(reg),
            "interval": [_fmt(interval.lo), _fmt(interval.hi)] if interval else [_fmt(args.n / args.k)] * 2,
            "grid_points": args.s if interval and not interval.degenerate else 1,
            "g_values": [_fmt(g) for g in per_count],
            "g_tail": _fmt(tail),
            **result.to_json_dict(),
        }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    dists = []
    for token in args.dist.split(","):
        kind, alpha = _parse_dist(token.strip())
        dists.append(data_mod.make_distribution(kind, args.min_mass, alpha=alpha))
    specs = [_spec_from_args(args, kind.strip()) for kind in args.estimators.split(",")]
    n_fracs = [float(x) for x in args.n_frac.split(",")]
    report = harness_mod.evaluate_risk(specs, dists, n_fracs, trials=args.trials, seed=args.seed)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if any(not r.error for r in report.rows) else 2


def _cmd_converge(args) -> int:
    spec = _spec_from_args(args, "rwc")
    s_list = [int(x) for x in args.s_list.split(",")]
    report = harness_mod.grid_convergence_study(args.k, args.n, s_list, spec)
    sys.stdout.write(report.to_csv())
    if report.rate_exponent is not None:
        print(f"# t_ref={_fmt(report.t_ref)} rate_exponent={_fmt(report.rate_exponent)}")
    else:
        print(f"# t_ref={_fmt(report.t_ref)} rate_exponent=NA")
    return 0


def _cmd_bias_curve(args) -> int:
    spec = _spec_from_args(args, args.estimator)
    if args.estimator == "wy":
        p = est_mod.wy_coefficients(args.k, args.n, args.c0, args.c1)
    else:
        p = est_mod.rwc_coefficients(args.k, args.n, spec).coeffs
    degree = max(p.degree, 1)
    interval = localized_interval(args.n, args.k, degree)
    reg = 1.0 / args.k if args.reg_weight is None else args.reg_weight
    rows = harness_mod.bias_curve(p, interval, args.points, reg_weight=reg)
    sys.stdout.write(harness_mod.bias_curve_to_csv(rows))
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
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (CoverageZeroError, NonConvergenceError, RankDeficiencyError) as exc:
        print(f"suppest: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (IntervalCollapseError, data_mod.IngestionError, ValueError, OSError) as exc:
        print(f"suppest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
