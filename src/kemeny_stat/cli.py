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

A command loads only the modules it runs: each ``_cmd_*`` imports what it
calls, and each subcommand's parser adds its arguments (and imports the
choice tables they list) the first time it parses, so ``--version``,
``--help`` and ``enumerate`` never load numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import DataError, NumericError

__all__ = ["build_parser", "main", "entry"]


class UsageError(Exception):
    """Bad command line; exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of sys.exit(2) on bad usage."""

    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(f"{self.prog}: error: {message}")


class _Command(_Parser):
    """A subcommand's parser; ``arguments(parser)`` adds its arguments the
    first time it parses, which is also when its ``--help`` is printed."""

    def __init__(self, *, arguments, **kwargs):
        super().__init__(**kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            arguments, self._arguments = self._arguments, None
            arguments(self)
        return super().parse_known_args(args, namespace)


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
    from .dataio import load_csv
    from .rank_core import ScoreVector

    data = load_csv(args.csv)
    if args.y is None and data.p < 2:
        raise DataError(
            f"{args.csv} has one column, {data.columns[0]!r}; name the second with --y"
        )
    x_name = args.x if args.x is not None else data.columns[0]
    y_name = args.y if args.y is not None else data.columns[1]
    x, y = ScoreVector(data.column(x_name)), ScoreVector(data.column(y_name))
    return x, y, x_name, y_name


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


def _correlate_arguments(p) -> None:
    from .rank_core import ESTIMATORS

    p.add_argument("--method", default="all",
                   choices=["all", *ESTIMATORS],
                   help="one estimator, or all six (default)")


def _cmd_correlate(args) -> None:
    from .rank_core import ESTIMATORS, pair_stats

    x, y, x_name, y_name = _load_xy(args)
    methods = list(ESTIMATORS) if args.method == "all" else [args.method]
    cc = pair_stats(x, y)
    estimates = {name: float(ESTIMATORS[name](x, y)) for name in methods}
    payload = {
        "columns": [x_name, y_name],
        "n": cc.n,
        "estimates": estimates,
        "ties": _tie_summary(cc),
    }
    _emit(args, payload, _render_correlate)


# --------------------------------------------------------------------------
# test

def _render_test(payload: dict, skipped: str | None) -> str:
    def fmt(p):
        return "n/a" if p is None else f"{p:.6g}"

    exact = fmt(payload["p_exact_null"])
    if payload["p_exact_null"] is None:
        exact += f" ({skipped})"
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


def _test_arguments(p) -> None:
    p.add_argument("--method", default="kemeny",
                   choices=["kemeny", "kendall-b", "spearman"])
    p.add_argument("--scale", default="population",
                   choices=["population", "sample"],
                   help="z display scale for the kemeny method")
    p.add_argument("--null", default="auto",
                   choices=["auto", "exact", "normal"])
    p.add_argument("--ratio", action="store_true",
                   help="report the spearman statistic as rho/sqrt(n-1)")


def _cmd_test(args) -> None:
    from .null_models import _exact_null, z_kemeny, z_kendall_b, z_spearman
    from .rank_core import ESTIMATORS, pair_stats

    x, y, x_name, y_name = _load_xy(args)
    cc = pair_stats(x, y)
    # each method's z test, and the ESTIMATORS entry it reports as the estimate
    run, estimator = {
        "kemeny": (lambda null: z_kemeny(x, y, null=null, scale=args.scale), "kemeny-tau"),
        "spearman": (lambda null: z_spearman(x, y, null=null, as_ratio=args.ratio), "kemeny-rho"),
        "kendall-b": (lambda null: z_kendall_b(x, y, null=null), "kendall-b"),
    }[args.method]
    result = run(null=args.null)
    estimate = ESTIMATORS[estimator](x, y)
    # "auto" picks the exact null wherever null_models._exact_null gives no
    # reason to skip it, so it alone decides the exact column; past the
    # exact limit only --null exact builds a lattice
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
    _emit(args, payload, lambda p: _render_test(p, _exact_null(result.method, cc.n)[1]))


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


def _matrix_arguments(p) -> None:
    from .multivar import CORRELATION_METHODS

    p.add_argument("csv", help="CSV file with a header row")
    p.add_argument("--method", default="kemeny-tau",
                   choices=[m.replace("_", "-") for m in CORRELATION_METHODS])


def _cmd_matrix(args) -> None:
    from .dataio import load_csv
    from .multivar import correlation_matrix, is_positive_definite, min_eigenvalue

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


def _enumerate_arguments(p) -> None:
    from .enum_oracle import MAX_ENUM_N

    p.add_argument("n", type=int, help=f"vector length, 2..{MAX_ENUM_N}")


def _cmd_enumerate(args) -> None:
    from .enum_oracle import exact_distance_distribution

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

def _simulate_arguments(p) -> None:
    from .simulate import _POPULATIONS, EXPERIMENTS

    p.add_argument("--seed", type=int, metavar="INT",
                   help="RNG seed (required by simulate)")
    # each override's dest is the SimulationConfig field it sets
    p.add_argument("--reps", dest="replications", type=int, metavar="INT",
                   help="replication count override")
    p.add_argument("--workers", type=int, metavar="INT",
                   help="worker process count")
    p.add_argument("--experiment", required=True, choices=list(EXPERIMENTS))
    p.add_argument("--n", dest="n_values", type=int, nargs="+", metavar="INT",
                   help="vector lengths override")
    p.add_argument("--population", choices=list(_POPULATIONS))
    p.add_argument("--rho", type=float, metavar="R",
                   help="population correlation override")
    p.add_argument("--levels", type=int, metavar="INT",
                   help="discretization level count")
    p.add_argument("--resample-file", metavar="PATH",
                   help="CSV to resample rows from")


def _cmd_simulate(args) -> None:
    from dataclasses import fields

    from .simulate import SimulationConfig, default_config, render_text, run_simulation

    if args.seed is None:
        raise UsageError("kemeny-stat simulate: error: --seed is required "
                         "(no wall-clock default)")
    names = {f.name for f in fields(SimulationConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    try:
        config = default_config(**given)
    except (DataError, NumericError):
        raise
    except ValueError as exc:
        raise UsageError(f"kemeny-stat simulate: error: {exc}") from exc
    report = run_simulation(config)
    _write(args, report.to_json() if args.json else render_text(report))


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


def _nulls_arguments(p) -> None:
    p.add_argument("n", type=int, help="vector length (>= 3)")
    p.add_argument("--level", type=float, default=0.05,
                   help="two-sided cutoff level (default 0.05)")


def _cmd_nulls(args) -> None:
    from .null_models import null_table

    table = null_table(args.n)
    # before the JSON branch, so that both modes refuse a level outside (0, 1)
    cutoff = table.standardized_cutoff(args.level)
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
        "cutoff": cutoff,
    }
    _write(args, _render_nulls(payload))


# --------------------------------------------------------------------------
# consistency-report

def _consistency_arguments(p) -> None:
    from .enum_oracle import MAX_ENUM_N

    p.add_argument("--oracle-n", type=int, default=6, metavar="INT",
                   help=f"largest enumerated n, 2..{MAX_ENUM_N} (default 6)")


def _cmd_consistency(args) -> None:
    from .consistency import consistency_report, render_text

    report = consistency_report(max_oracle_n=args.oracle_n)
    _emit(args, report, render_text)


# --------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    common.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")

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
                                metavar="command", parser_class=_Command)
    for name, parents, arguments, run, help_text in (
        ("correlate", [common, columns], _correlate_arguments, _cmd_correlate,
         "estimator family on two columns"),
        ("test", [common, columns], _test_arguments, _cmd_test,
         "z test with exact-null and normal p values"),
        ("matrix", [common], _matrix_arguments, _cmd_matrix,
         "rank correlation matrix over all columns"),
        ("enumerate", [common], _enumerate_arguments, _cmd_enumerate,
         "exact net-concordance distribution over {1..n}^n"),
        ("simulate", [common], _simulate_arguments, _cmd_simulate,
         "deterministic Monte Carlo table reproduction"),
        ("nulls", [common], _nulls_arguments, _cmd_nulls,
         "finite-sample null table for one n"),
        ("consistency-report", [common], _consistency_arguments, _cmd_consistency,
         "closed forms vs fitted curves vs tables vs oracles"),
    ):
        sub.add_parser(name, parents=parents, help=help_text,
                       arguments=arguments).set_defaults(func=run)

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
