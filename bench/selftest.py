"""Self-test of the benchmark's traced run.  From the root of a checkout::

    python3 bench/selftest.py

For each workload it runs the same ops untraced and traced, in process, and
checks that

1. every wrapped function that the workload's rows of the layer table name
   records at least one call;
2. traced and untraced outputs are identical, and the untraced ones pass the
   workload's output checks;
3. after ``uninstall`` no ``kemeny_stat`` name is still bound to a wrapper.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # pins the thread variables before numpy loads
from tracing import Tracer
from workloads import WORKLOADS

EXPECTED = {
    "sim-small-n": (
        "rank_core.ScoreVector",
        "rank_core.pair_stats",
        "null_models.population_variance",
        "simulate.run_simulation",
    ),
    "matrix-ordinal": (
        "rank_core.pair_stats",
        "rank_core.rank_vector",
        "rank_core.tie_block_sizes",
        "null_models.z_kemeny",
        "null_models.z_kendall_b",
        "multivar.DataMatrix",
        "multivar.correlation_matrix",
    ),
    "cli-mixed": (
        "rank_core.pair_stats",
        "null_models.null_table",
        "null_models.z_kemeny",
        "null_models.z_spearman",
        "dataio.load_csv",
        "enum_oracle.exact_distance_distribution",
        "consistency.consistency_report",
        "cli.main",
    ),
}
OPS = {"sim-small-n": 2, "matrix-ordinal": 2, "cli-mixed": len(WORKLOADS["cli-mixed"].CYCLE)}


def check_workload(ks, name: str, workdir: str) -> list[str]:
    problems = []
    workload = WORKLOADS[name](ks, 7, workdir)
    workload.setup()
    indices = range(OPS[name])
    plain = {i: workload.inproc_op(i) for i in indices}
    tracer = Tracer(ks)
    tracer.install()
    try:
        traced = {}
        for i in indices:
            tracer.op = i
            traced[i] = workload.inproc_op(i)
    finally:
        tracer.uninstall()
    stats = tracer.summary()
    for function in EXPECTED[name]:
        if stats.get(function, {}).get("calls", 0) < 1:
            problems.append(f"{name}: {function} recorded no call")
    if name == "matrix-ordinal" and stats["multivar.correlation_matrix"]["estimator_calls"] < 1:
        problems.append(f"{name}: no estimator call seen under correlation_matrix")
    for i in indices:
        if workload.canon(plain[i]) != workload.canon(traced[i]):
            problems.append(f"{name}: op {i} traced output differs from untraced")
    for i, reason in workload.check(plain).items():
        problems.append(f"{name}: op {i} failed its output check: {reason}")
    problems += [f"{name}: {where} still wrapped" for where in tracer.leftovers()]
    return problems


def main() -> int:
    ks, _ = run.import_package()
    workdir = os.path.join(run.BENCH, "_out", "selftest")
    problems = []
    try:
        for name in WORKLOADS:
            found = check_workload(ks, name, os.path.join(workdir, name))
            print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
