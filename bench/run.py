"""kemeny-stat benchmark: one workload, one seed, one timed closed loop.

Run from the root of a checkout::

    python3 bench/run.py --workload sim-small-n --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's ``src`` (subprocesses get it on
``PYTHONPATH``), so every commit measures its own code.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run.  The line before it records
the environment, the tail percentile and the failures.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# One thread (never more than nproc): the loop has one client, and a fixed
# thread count keeps BLAS reduction order, hence outputs, independent of the
# machine.  BLAS reads these once, when numpy is first imported.
THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import numpy as np  # noqa: E402

sys.path.insert(0, BENCH)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
TAIL_BEYOND = 10
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Per-layer metrics read per traced op: (span, quantities).
PER_OP = (
    ("rank_core.ScoreVector", ("calls", "busy_s")),
    ("rank_core.pair_stats", ("calls", "busy_s")),
    ("rank_core.rank_vector", ("calls", "busy_s")),
    ("rank_core.tie_block_sizes", ("calls", "busy_s")),
    ("null_models.population_variance", ("calls", "busy_s")),
    ("null_models.z_kemeny", ("busy_s", "self_s")),
    ("null_models.z_kendall_b", ("busy_s",)),
    ("null_models.z_spearman", ("busy_s",)),
    ("multivar.DataMatrix", ("busy_s",)),
    ("multivar.correlation_matrix", ("calls", "busy_s", "self_s", "estimator_calls")),
    ("dataio.load_csv", ("busy_s",)),
    ("enum_oracle.exact_distance_distribution", ("busy_s",)),
    ("consistency.consistency_report", ("busy_s", "self_s")),
    ("simulate.run_simulation", ("busy_s", "self_s")),
    ("cli.main", ("busy_s", "self_s")),
)
PER_OP_UNITS = {"calls": "count/op", "estimator_calls": "count/op", "busy_s": "s/op", "self_s": "s/op"}


def import_package():
    """Import kemeny_stat from this checkout's src, never from elsewhere."""
    init = os.path.join(SRC, "kemeny_stat", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: no package source at {init}; run from a checkout's root")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import kemeny_stat
    import kemeny_stat.cli  # noqa: F401  (not imported by the package itself)
    elapsed = time.perf_counter() - start
    if os.path.realpath(kemeny_stat.__file__) != os.path.realpath(init):
        sys.exit(f"bench: imported kemeny_stat from {kemeny_stat.__file__}, not {init}")
    return kemeny_stat, elapsed


def environment(ks) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    package = os.path.dirname(ks.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def closed_loop(op, seconds: float, cycle: int = 1, min_cycles: int = 1) -> tuple[list, float]:
    """Run op(0), op(1), ... back to back until ``seconds`` have passed.

    Stops only at the end of a whole cycle of ``cycle`` ops, and not before
    ``min_cycles`` cycles, so every run sees the workload's op mix exactly.
    Returns ``[(index, latency_s, output, error)]`` and the elapsed time.
    """
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index % cycle or index < min_cycles * cycle or time.perf_counter() < deadline:
        began = time.perf_counter()
        try:
            output, error = op(index), None
        except Exception as exc:  # a failed op is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append((index, time.perf_counter() - began, output, error))
        index += 1
    return records, time.perf_counter() - start


def failures(workload, records) -> dict[int, str]:
    failed = {i: error for i, _, _, error in records if error is not None}
    outputs = {i: output for i, _, output, error in records if error is None}
    if outputs:
        try:
            checked = workload.check(outputs)
        except Exception as exc:  # a check that cannot run fails every op it covers
            checked = {i: f"check raised {type(exc).__name__}: {exc}" for i in outputs}
        failed.update(checked)
    return failed


def latency_metrics(records, failed) -> tuple[dict, dict]:
    """Median, and the highest ladder percentile with 10 samples beyond it.

    A fixed ladder keeps the percentile the same while the op count moves
    within a band, so a faster commit is not read at a higher percentile.
    """
    latencies = sorted(lat for i, lat, _, _ in records if i not in failed)
    count = len(latencies)
    if not latencies:
        return {"op_p50_ms": 0.0, "op_tail_ms": 0.0}, {"percentile": None, "samples": 0}
    for percentile in PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * count))  # nearest rank
        if count - rank >= TAIL_BEYOND:
            break
    else:  # too few samples for any percentile: the maximum stands in
        percentile, rank = 100.0, count
    tail = {"percentile": percentile, "samples": count, "beyond": count - rank}
    return (
        {"op_p50_ms": 1000.0 * statistics.median(latencies),
         "op_tail_ms": 1000.0 * latencies[rank - 1]},
        tail,
    )


def end_to_end(workload, seconds: float, setup_s: float) -> tuple[dict, dict]:
    records, elapsed = closed_loop(workload.op, seconds, workload.cycle, workload.min_cycles)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-mixed" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    failed = failures(workload, records)
    attempted = len(records)
    latency, tail = latency_metrics(records, failed)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((attempted - len(failed)) / elapsed, "1/s"),
        "op_p50_ms": (latency["op_p50_ms"], "ms"),
        "op_tail_ms": (latency["op_tail_ms"], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_op_ratio": ((attempted - len(failed)) / attempted, "ratio"),
    }
    detail = {"op_tail": tail, "elapsed_s": elapsed, "attempted": attempted, "failures": failed}
    return metrics, detail


def fresh_import_s(reps: int = 3) -> float:
    """Median time to import ``kemeny_stat.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import kemeny_stat.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(reps)
    ]
    return statistics.median(times)


def paired_loop(workload, tracer, seconds: float) -> list:
    """Run each op untraced and traced back to back, alternating which goes first.

    Returns ``[(index, {traced: (latency_s, output, error)})]``.  Pairing the
    two runs of an op keeps machine drift and warm-up out of their ratio.
    """
    records = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        runs = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.op = index
                tracer.install()
            began = time.perf_counter()
            try:
                output, error = workload.inproc_op(index), None
            except Exception as exc:  # a failed op is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                latency = time.perf_counter() - began
                if traced:
                    tracer.uninstall()
            runs[traced] = (latency, output, error)
        records.append((index, runs))
        index += 1
    return records


def per_layer(workload, ks, seconds: float, run_dir: str) -> tuple[dict, dict]:
    """In-process ops, each run untraced and traced; layer metrics from the spans."""
    startup = {}
    if workload.name == "cli-mixed":
        # wall time of each distinct command as a subprocess, for cli.startup_s
        for i in range(len(workload.CYCLE)):
            if i not in workload.HEAVY:
                began = time.perf_counter()
                startup[i] = (workload.op(i), time.perf_counter() - began)
    tracer = Tracer(ks)
    pairs = paired_loop(workload, tracer, seconds)
    plain = [(i, *runs[False]) for i, runs in pairs]
    traced = [(i, *runs[True]) for i, runs in pairs]
    failed = failures(workload, plain)
    plain_out = {i: workload.canon(out) for i, _, out, err in plain if err is None}
    for i, _, out, err in traced:
        if err is not None:
            failed[f"traced {i}"] = err
        elif i in plain_out and workload.canon(out) != plain_out[i]:
            failed[f"traced {i}"] = "traced output differs from untraced"
    for i, (out, wall) in startup.items():
        if i in plain_out and workload.canon(out) != plain_out[i]:
            failed[f"subprocess {i}"] = "subprocess output differs from in-process"

    stats = tracer.summary()
    ops = max(1, len(traced))
    pairs_analysed = sum(workload.column_pairs(i) for i, _, _, _ in traced)
    per_kind = {}
    calls = tracer.calls_by_op("rank_core.pair_stats")
    for i, _, _, _ in traced:
        entry = per_kind.setdefault(workload.kind(i), [0, 0])
        entry[0] += calls.get(i, 0)
        entry[1] += workload.column_pairs(i)
    startup_s = 0.0
    if startup:
        plain_lat = {}
        for i, lat, _, _ in plain:
            plain_lat.setdefault(i % len(workload.CYCLE), lat)
        gaps = [wall - plain_lat[i] for i, (_, wall) in startup.items() if i in plain_lat]
        startup_s = statistics.median(gaps) if gaps else 0.0

    def rate(amount, busy):
        return amount / busy if busy > 0 else 0.0

    pair = stats["rank_core.pair_stats"]
    table = stats["null_models.null_table"]
    csv = stats["dataio.load_csv"]
    enum = stats["enum_oracle.exact_distance_distribution"]
    sim = stats["simulate.run_simulation"]
    m = {
        f"{span}.{quantity}": (stats[span][quantity] / ops, PER_OP_UNITS[quantity])
        for span, quantities in PER_OP for quantity in quantities
    }
    m.update({
        "rank_core.pair_stats.pairs_per_s": (rate(pair["extra"], pair["busy_s"]), "1/s"),
        "rank_core.pair_stats.calls_per_column_pair": (
            pair["calls"] / pairs_analysed if pairs_analysed else 0.0, "ratio"),
        "null_models.null_table.builds": (table["extra_calls"] / ops, "count/op"),
        "null_models.null_table.hits": ((table["calls"] - table["extra_calls"]) / ops, "count/op"),
        "null_models.null_table.build_s": (table["extra_busy_s"] / ops, "s/op"),
        "null_models.null_table.support_entries": (table["extra_max"], "count"),
        "null_models.null_table.bytes_computed": (16 * table["extra_max"], "B"),
        "dataio.load_csv.mb_per_s": (rate(csv["extra"] / 1e6, csv["extra_busy_s"]), "MB/s"),
        "enum_oracle.exact_distance_distribution.vectors_per_s": (
            rate(enum["extra"], enum["busy_s"]), "1/s"),
        "simulate.run_simulation.reps_per_s": (rate(sim["extra"], sim["busy_s"]), "1/s"),
        "cli.import_s": (fresh_import_s(), "s"),
        "cli.startup_s": (startup_s, "s"),
        # traced / untraced ops_per_s over the same ops
        "trace.overhead_ratio": (
            sum(lat for _, lat, _, _ in plain) / sum(lat for _, lat, _, _ in traced), "ratio"),
    })
    spans_path = os.path.join(run_dir, "spans.jsonl")
    tracer.write(spans_path)
    detail = {
        "attempted": len(plain) + len(traced),
        "failures": failed,
        "ops": len(pairs),
        "spans": {"count": len(tracer.spans), "path": os.path.relpath(spans_path, ROOT)},
        "pair_stats_calls_per_column_pair_by_kind": {
            kind: (c / p if p else None) for kind, (c, p) in sorted(per_kind.items())
        },
        "layers": {
            name: {k: v for k, v in entry.items() if v}
            for name, entry in sorted(stats.items()) if entry["calls"]
        },
    }
    return m, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ks, import_s = import_package()
    run_dir = os.path.join(BENCH, "_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](ks, args.seed, os.path.join(run_dir, "inputs"))
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            began = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - began)
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            metrics, detail = per_layer(workload, ks, args.seconds, run_dir)
        else:
            metrics, detail = end_to_end(workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(os.path.join(run_dir, "inputs"), ignore_errors=True)
        with contextlib.suppress(OSError):  # keep only a traced run's spans
            os.rmdir(run_dir)
    failed = len(detail["failures"])
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(ks),
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "failed": failed,
        "failed_op_ratio": failed / max(1, detail["attempted"]),
        "failures": {str(k): v for k, v in list(detail["failures"].items())[:20]},
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": detail["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
