"""Command-line surface.

Subcommands::

    correlate           estimator family on two CSV columns
    test                z test (exact-null and normal-approx p values)
    matrix              rank correlation matrix over all CSV columns
    enumerate           exact net-concordance distribution over {1..n}^n
    simulate            deterministic Monte Carlo table reproduction
    nulls               finite-sample null table for a given n
    consistency-report  closed forms vs fitted curves vs tables vs oracles

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .consistency import consistency_report
from .consistency import render_text as _render_consistency
from .dataio import load_csv
from .enum_oracle import MAX_ENUM_N, exact_distance_distribution
from .errors import DataError, DegenerateError, NumericError
from .multivar import (
    CORRELATION_METHODS,
    correlation_matrix,
    is_positive_definite,
    min_eigenvalue,
)
from .null_models import EXACT_LIMIT, null_table, z_kemeny, z_kendall_b, z_spearman
from .rank_core import _tau_b, arcsine_r, pair_stats, spearman_rho
from .simulate import EXPERIMENTS, _classical_spearman, default_config, run_simulation
from .simulate import render_text as _render_simulation

__all__ = ["build_parser", "main", "entry"]


class UsageError(Exception):
    """Bad command line; exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of sys.exit(2) on bad usage."""

    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(f"{self.prog}: error: {message}")


def _pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.std() == 0.0 or y.std() == 0.0:
        raise DegenerateError("constant column has no correlation")
    return float(np.corrcoef(x, y)[0, 1])


# each estimator reads (x, y, cc): the two counting ones take the command's
# single pair count instead of counting the pairs again
_ESTIMATORS = {
    "pearson": lambda x, y, cc: _pearson(x, y),
    "spearman": lambda x, y, cc: _classical_spearman(x, y),
    "kemeny-rho": lambda x, y, cc: spearman_rho(x, y),
    "kemeny-tau": lambda x, y, cc: cc.net_concordance / cc.pair_count,
    "kendall-b": lambda x, y, cc: _tau_b(cc),
    "arcsine-r": lambda x, y, cc: arcsine_r(x, y),
}


def _tie_summary(cc) -> dict:
    return {
        "pairs": cc.pair_count,
        "concordant": cc.concordant,
        "discordant": cc.discordant,
        "tied_x_only": cc.tied_x,
        "tied_y_only": cc.tied_y,
        "tied_both": cc.tied_both,
    }


def _load_xy(args):
    data = load_csv(args.csv)
    x_name = args.x if args.x is not None else data.columns[0]
    y_name = args.y if args.y is not None else data.columns[1]
    return data.column(x_name), data.column(y_name), x_name, y_name


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict, render) -> None:
    if args.json:
        _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _write(args, render(payload))


# --------------------------------------------------------------------------
# correlate

def _render_correlate(payload: dict) -> str:
    lines = [
        f"n = {payload['n']}  columns: {payload['columns'][0]} vs "
        f"{payload['columns'][1]}"
    ]
    for name, value in payload["estimates"].items():
        lines.append(f"  {name:<10s} {value:+.6f}")
    t = payload["ties"]
    lines.append(
        f"  pairs {t['pairs']}: concordant {t['concordant']}, discordant "
        f"{t['discordant']}, tied x-only {t['tied_x_only']}, y-only "
        f"{t['tied_y_only']}, both {t['tied_both']}"
    )
    return "\n".join(lines) + "\n"


def _cmd_correlate(args) -> None:
    x, y, x_name, y_name = _load_xy(args)
    methods = list(_ESTIMATORS) if args.method == "all" else [args.method]
    cc = pair_stats(x, y)
    estimates = {name: float(_ESTIMATORS[name](x, y, cc)) for name in methods}
    payload = {
        "columns": [x_name, y_name],
        "n": cc.n,
        "estimates": estimates,
        "ties": _tie_summary(cc),
    }
    _emit(args, payload, _render_correlate)


# --------------------------------------------------------------------------
# test

def _no_exact_null(method: str, n: int) -> str:
    """Why ``test`` printed no exact-null p for this method and n."""
    if method == "kendall-b":
        return "no exact null"
    if method == "spearman":
        return f"n = {n} outside the tabulated 3..19"
    if n > EXACT_LIMIT:
        return f"n = {n} > exact limit {EXACT_LIMIT}; --null exact builds it"
    return "no lattice null below n = 3"


def _render_test(payload: dict) -> str:
    def fmt(p):
        return "n/a" if p is None else f"{p:.6g}"

    exact = fmt(payload["p_exact_null"])
    if payload["p_exact_null"] is None:
        exact += f" ({_no_exact_null(payload['method'], payload['n'])})"
    lines = [
        f"{payload['method']} test  columns: {payload['columns'][0]} vs "
        f"{payload['columns'][1]}  n = {payload['n']}",
        f"  estimate      {payload['estimate']:+.6f}",
        f"  z             {payload['z']:+.6f}  ({payload['null']} null)",
        f"  p two-sided   {fmt(payload['p_two_sided'])}   one-sided "
        f"{fmt(payload['p_one_sided'])}",
        f"  p exact-null  {exact}   normal-approx "
        f"{fmt(payload['p_normal'])}",
    ]
    t = payload["ties"]
    lines.append(
        f"  pairs {t['pairs']}: tied x-only {t['tied_x_only']}, y-only "
        f"{t['tied_y_only']}, both {t['tied_both']}"
    )
    return "\n".join(lines) + "\n"


def _cmd_test(args) -> None:
    x, y, x_name, y_name = _load_xy(args)
    cc = pair_stats(x, y)
    if args.method == "kendall-b":
        result = normal = z_kendall_b(x, y)
        estimate = _tau_b(cc)
        exact = None
    else:
        if args.method == "kemeny":
            run = functools.partial(z_kemeny, x, y, scale=args.scale)
            estimate = cc.net_concordance / cc.pair_count
        else:
            run = functools.partial(z_spearman, x, y, as_ratio=args.ratio)
            estimate = spearman_rho(x, y)
        result = run(null=args.null)
        # "auto" picks the exact null wherever one is defined and affordable
        # (kemeny: 3 <= n <= null_models.EXACT_LIMIT), so it alone decides the
        # exact column; past the limit only --null exact builds a lattice
        best = run(null="auto") if args.null == "normal" else result
        exact = best if best.null != "normal" else None
        normal = result if result.null == "normal" else run(null="normal")
    payload = {
        "columns": [x_name, y_name],
        "n": cc.n,
        "method": args.method,
        "estimate": float(estimate),
        "z": result.statistic,
        "null": result.null,
        "p_two_sided": result.p_two_sided,
        "p_one_sided": result.p_one_sided,
        "p_exact_null": None if exact is None else exact.p_two_sided,
        "p_normal": normal.p_two_sided,
        "ties": _tie_summary(cc),
        "details": result.details,
    }
    _emit(args, payload, _render_test)


# --------------------------------------------------------------------------
# matrix

def _render_matrix(payload: dict) -> str:
    names = payload["columns"]
    width = max(8, max(len(c) for c in names) + 1)
    lines = [f"{payload['method']} correlation matrix  (p = {len(names)})"]
    lines.append(" " * width + "".join(f"{c:>{width}s}" for c in names))
    for name, row in zip(names, payload["matrix"]):
        lines.append(
            f"{name:>{width}s}" + "".join(f"{v:>{width}.4f}" for v in row)
        )
    lines.append(
        f"min eigenvalue {payload['min_eigenvalue']:.6g}  "
        f"positive definite: {payload['positive_definite']}"
    )
    return "\n".join(lines) + "\n"


def _cmd_matrix(args) -> None:
    data = load_csv(args.csv)
    method = args.method.replace("-", "_")
    result = correlation_matrix(data, method)
    payload = {
        "columns": list(result.columns),
        "method": args.method,
        "matrix": result.matrix.tolist(),
        "sigmas": result.sigmas.tolist(),
        "min_eigenvalue": min_eigenvalue(result),
        "positive_definite": is_positive_definite(result),
    }
    _emit(args, payload, _render_matrix)


# --------------------------------------------------------------------------
# enumerate

def _render_enumerate(payload: dict) -> str:
    lines = [
        f"net concordance over {{1..{payload['n']}}}^{payload['n']}  "
        f"({payload['universe']} vectors)",
        f"  variance        {payload['variance']}  = {payload['variance_float']:.6f}",
        f"  std kurtosis    {payload['std_kurtosis_float']:.6f}",
        f"  excess kurtosis {payload['excess_kurtosis_float']:.6f}",
    ]
    total = payload["universe"]
    for s, count in zip(payload["support"], payload["counts"]):
        lines.append(f"  s = {s:+4d}  {count:>12d}  {count / total:.6f}")
    return "\n".join(lines) + "\n"


def _cmd_enumerate(args) -> None:
    dist = exact_distance_distribution(args.n)
    payload = {
        "n": dist.n,
        "universe": dist.total,
        "support": list(dist.support),
        "counts": list(dist.counts),
        "mean": str(dist.mean),
        "variance": str(dist.variance),
        "variance_float": float(dist.variance),
        "std_kurtosis": str(dist.std_kurtosis),
        "std_kurtosis_float": float(dist.std_kurtosis),
        "excess_kurtosis_float": float(dist.excess_kurtosis),
    }
    _emit(args, payload, _render_enumerate)


# --------------------------------------------------------------------------
# simulate

def _cmd_simulate(args) -> None:
    if args.seed is None:
        raise UsageError("kemeny-stat simulate: error: --seed is required "
                         "(no wall-clock default)")
    overrides = {}
    if args.reps is not None:
        overrides["replications"] = args.reps
    if args.n is not None:
        overrides["n_values"] = tuple(args.n)
    if args.population is not None:
        overrides["population"] = args.population
    if args.rho is not None:
        overrides["rho"] = args.rho
    if args.levels is not None:
        overrides["levels"] = args.levels
    if args.resample_file is not None:
        overrides["resample_file"] = args.resample_file
    if args.workers is not None:
        overrides["workers"] = args.workers
    try:
        config = default_config(args.experiment, seed=args.seed, **overrides)
    except (DataError, NumericError):
        raise
    except ValueError as exc:
        raise UsageError(f"kemeny-stat simulate: error: {exc}") from exc
    report = run_simulation(config)
    _write(args, report.to_json() if args.json else _render_simulation(report))


# --------------------------------------------------------------------------
# nulls

def _render_nulls(payload: dict) -> str:
    lines = [
        f"null table  n = {payload['n']}  (pair scale m = {payload['pair_count']})",
        f"  alpha           {payload['alpha']:.6f}",
        f"  q               {payload['q']:.6f}",
        f"  support         [{payload['support_min']}, {payload['support_max']}]",
        f"  variance        {payload['variance']:.6f}",
        f"  sd              {payload['sd']:.6f}",
        f"  std kurtosis    {payload['std_kurtosis']:.6f}",
        f"  excess kurtosis {payload['excess_kurtosis']:.6f}",
        f"  cutoff ({payload['level']:.0%} two-sided, standardized)  "
        f"{payload['cutoff']:.4f}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_nulls(args) -> None:
    table = null_table(args.n)
    if args.json:
        # the table's own serialization round-trips through from_json
        _write(args, table.to_json() + "\n")
        return
    payload = {
        "n": table.n,
        "pair_count": table.pair_count,
        "alpha": table.alpha,
        "q": table.q,
        "support_min": int(table.support[0]),
        "support_max": int(table.support[-1]),
        "variance": table.variance,
        "sd": table.variance ** 0.5,
        "std_kurtosis": table.std_kurtosis,
        "excess_kurtosis": table.excess_kurtosis,
        "level": args.level,
        "cutoff": table.standardized_cutoff(args.level),
    }
    _write(args, _render_nulls(payload))


# --------------------------------------------------------------------------
# consistency-report

def _cmd_consistency(args) -> None:
    report = consistency_report(max_oracle_n=args.oracle_n)
    _emit(args, report, _render_consistency)


# --------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    common.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
    common.add_argument("--seed", type=int, metavar="INT",
                        help="RNG seed (required by simulate)")
    common.add_argument("--reps", type=int, metavar="INT",
                        help="replication count override")
    common.add_argument("--workers", type=int, metavar="INT",
                        help="worker process count")

    columns = argparse.ArgumentParser(add_help=False)
    columns.add_argument("csv", help="CSV file with a header row")
    columns.add_argument("--x", metavar="COL",
                         help="first column name (default: first column)")
    columns.add_argument("--y", metavar="COL",
                         help="second column name (default: second column)")

    parser = _Parser(
        prog="kemeny-stat",
        description="Tied-data rank correlation, finite-sample nulls, "
        "enumeration oracles, and simulation tables.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("correlate", parents=[common, columns],
                       help="estimator family on two columns")
    p.add_argument("--method", default="all",
                   choices=["all", *_ESTIMATORS],
                   help="one estimator, or all six (default)")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("test", parents=[common, columns],
                       help="z test with exact-null and normal p values")
    p.add_argument("--method", default="kemeny",
                   choices=["kemeny", "kendall-b", "spearman"])
    p.add_argument("--scale", default="population",
                   choices=["population", "sample"],
                   help="z display scale for the kemeny method")
    p.add_argument("--null", default="auto",
                   choices=["auto", "exact", "normal"])
    p.add_argument("--ratio", action="store_true",
                   help="report the spearman statistic as rho/sqrt(n-1)")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("matrix", parents=[common],
                       help="rank correlation matrix over all columns")
    p.add_argument("csv", help="CSV file with a header row")
    p.add_argument("--method", default="kemeny-tau",
                   choices=[m.replace("_", "-") for m in CORRELATION_METHODS])
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("enumerate", parents=[common],
                       help="exact net-concordance distribution over {1..n}^n")
    p.add_argument("n", type=int, help=f"vector length, 2..{MAX_ENUM_N}")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("simulate", parents=[common],
                       help="deterministic Monte Carlo table reproduction")
    p.add_argument("--experiment", required=True, choices=list(EXPERIMENTS))
    p.add_argument("--n", type=int, nargs="+", metavar="INT",
                   help="vector lengths override")
    p.add_argument("--population",
                   choices=["bivariate_normal", "discretized_normal",
                            "resample"])
    p.add_argument("--rho", type=float, metavar="R",
                   help="population correlation override")
    p.add_argument("--levels", type=int, metavar="INT",
                   help="discretization level count")
    p.add_argument("--resample-file", metavar="PATH",
                   help="CSV to resample rows from")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("nulls", parents=[common],
                       help="finite-sample null table for one n")
    p.add_argument("n", type=int, help="vector length (>= 3)")
    p.add_argument("--level", type=float, default=0.05,
                   help="two-sided cutoff level (default 0.05)")
    p.set_defaults(func=_cmd_nulls)

    p = sub.add_parser("consistency-report", parents=[common],
                       help="closed forms vs fitted curves vs tables vs oracles")
    p.add_argument("--oracle-n", type=int, default=6, metavar="INT",
                   help=f"largest enumerated n, 2..{MAX_ENUM_N} (default 6)")
    p.set_defaults(func=_cmd_consistency)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"kemeny-stat: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
