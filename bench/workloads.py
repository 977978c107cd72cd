"""The three benchmark workloads: inputs from a seed, one op, output checks.

Every workload is a closed loop with one client.  ``op(i)`` performs the
workload's job on the inputs of op ``i``; ``inproc_op(i)`` is the same job
run inside this process (what the traced run calls).  ``check`` runs after
the timed phase and returns ``{op index: reason}`` for every op whose output
disagrees with an independent route or with an earlier identical op.
Checks avoid values that a planned correctness fix may change, such as
lattice p-values and ``table1`` moments.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([abs(seed), tag])


def likert(rng: np.random.Generator, n: int, p: int, levels: int = 5) -> np.ndarray:
    """n x p ordinal items in 1..levels from a one-factor latent model."""
    loadings = rng.uniform(0.4, 0.8, size=p)
    factor = rng.standard_normal((n, 1))
    noise = rng.standard_normal((n, p))
    latent = loadings * factor + np.sqrt(1.0 - loadings**2) * noise
    cuts = np.quantile(rng.standard_normal(4096), np.arange(1, levels) / levels)
    return (np.searchsorted(cuts, latent) + 1).astype(float)


def net_concordance(x: np.ndarray, y: np.ndarray) -> int:
    """C - D by an independent route: scipy's tau-b times its tie denominator."""
    from scipy.stats import kendalltau

    n = x.size
    m = n * (n - 1) // 2

    def tied(v):
        _, counts = np.unique(v, return_counts=True)
        return int(np.sum(counts * (counts - 1) // 2))

    tau = kendalltau(x, y).statistic
    return round(tau * math.sqrt((m - tied(x)) * (m - tied(y))))


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    from scipy.stats import spearmanr

    return float(spearmanr(x, y).statistic)


def _by_repeat(outputs: dict, key, canon, first_check) -> dict[int, str]:
    """Check the first op of each key independently, the rest by identity."""
    failed: dict[int, str] = {}
    first: dict = {}
    for i in sorted(outputs):
        k = key(i)
        text = canon(outputs[i])
        if k not in first:
            first[k] = text
            reason = first_check(i, outputs[i])
            if reason:
                failed[i] = reason
        elif text != first[k]:
            failed[i] = f"output differs from op {k} repeat"
    return failed


class SimSmallN:
    """One op is one study round of ``run_simulation`` at the paper's small n."""

    name = "sim-small-n"
    experiments = ("table3", "table_correlations", "table1", "null_calibration")
    replications = 28
    cycle, min_cycles = 1, 1

    def __init__(self, ks, seed: int, workdir: str) -> None:
        self.ks = ks
        self.seed = seed

    def setup(self) -> None:
        # three rounds, so one set-up spans more than one short phase of a noisy host
        for i in range(3):
            self.op(i)

    def _seed(self, i: int) -> int:
        return abs(self.seed) * 1_000_000 + i

    def op(self, i: int):
        ks = self.ks
        return [
            ks.run_simulation(ks.default_config(e, seed=self._seed(i), replications=self.replications))
            for e in self.experiments
        ]

    inproc_op = op

    def kind(self, i: int) -> str:
        return "study-round"

    def column_pairs(self, i: int) -> int:
        ks = self.ks
        return sum(
            self.replications * len(ks.default_config(e, seed=0).n_values)
            for e in self.experiments
        )

    @staticmethod
    def canon(output) -> str:
        return "".join(report.to_json() for report in output)

    def check(self, outputs: dict) -> dict[int, str]:
        failed = {}
        for i, reports in outputs.items():
            for experiment, report in zip(self.experiments, reports):
                config = report.payload["config"]
                if config["experiment"] != experiment or config["seed"] != self._seed(i):
                    failed[i] = f"{experiment}: report config does not echo the request"
                if experiment == "table_correlations":
                    for block in report.results:
                        rows = {row["estimator"]: row for row in block["rows"]}
                        for field in ("mean", "sd", "median", "range", "skew", "excess_kurtosis"):
                            a, b = rows["spearman"][field], rows["kemeny_rho"][field]
                            if abs(a - b) > 1e-12:
                                failed[i] = f"n={block['n']} spearman {field} {a} != kemeny_rho {b}"
        for i in {min(outputs), max(outputs)}:
            if self.canon(self.op(i)) != self.canon(outputs[i]):
                failed[i] = "repeated seed gives a different report"
        return failed


class MatrixOrdinal:
    """One op analyses one Likert dataset in full, in process."""

    name = "matrix-ordinal"
    rows, items, pool = 2000, 6, 4
    cycle, min_cycles = 1, 1
    methods = ("kemeny_tau", "kendall_b", "spearman")

    def __init__(self, ks, seed: int, workdir: str) -> None:
        self.ks = ks
        self.seed = seed
        self.columns = tuple(f"q{j + 1}" for j in range(self.items))

    def setup(self) -> None:
        self.datasets = [
            likert(_rng(self.seed, d), self.rows, self.items) for d in range(self.pool)
        ]
        self.op(0)

    def op(self, i: int):
        ks = self.ks
        data = ks.DataMatrix(self.datasets[i % self.pool], self.columns)
        matrices = {m: ks.correlation_matrix(data, m) for m in self.methods}
        x, y = data.values[:, 0], data.values[:, 1]
        return matrices, ks.z_kemeny(x, y), ks.z_kendall_b(x, y)

    inproc_op = op

    def kind(self, i: int) -> str:
        return "dataset"

    def column_pairs(self, i: int) -> int:
        return self.items * (self.items - 1) // 2

    @staticmethod
    def canon(output) -> str:
        matrices, zk, zb = output
        return json.dumps({
            "matrices": {m: r.matrix.tolist() for m, r in matrices.items()},
            "sigmas": {m: r.sigmas.tolist() for m, r in matrices.items()},
            "z_kemeny": zk.as_dict(),
            "z_kendall_b": zb.as_dict(),
        }, sort_keys=True)

    def _check_dataset(self, i: int, output) -> str | None:
        from scipy.stats import kendalltau

        ks = self.ks
        matrices, zk, zb = output
        raw = self.datasets[i % self.pool]
        n = raw.shape[0]
        m = n * (n - 1) // 2
        for method, result in matrices.items():
            mat = result.matrix
            if not np.array_equal(mat, mat.T) or not np.all(np.diag(mat) == 1.0):
                return f"{method} matrix is not symmetric with a unit diagonal"
        sub = _rng(self.seed, 1000 + i).choice(n, size=500, replace=False)
        for a in range(self.items):
            for b in range(a + 1, self.items):
                x, y = raw[:, a], raw[:, b]
                s = net_concordance(x, y)
                expected = {
                    "kemeny_tau": s / m,
                    "kendall_b": kendalltau(x, y).statistic,
                    "spearman": spearman(x, y),
                }
                for method, value in expected.items():
                    got = matrices[method].matrix[a, b]
                    if not _close(got, value):
                        return f"{method}[{a},{b}] = {got}, independent route {value}"
                merge = ks.pair_stats(x[sub], y[sub])
                quadratic = ks.pair_stats(x[sub], y[sub], method="quadratic")
                if merge != quadratic:
                    return f"pair_stats merge {merge} != quadratic {quadratic}"
        s01 = net_concordance(raw[:, 0], raw[:, 1])
        z = s01 / math.sqrt(float(ks.population_variance(n)))
        if zk.null != "normal" or not _close(zk.statistic, z):
            return f"z_kemeny {zk.statistic} ({zk.null}) != S/sigma0 {z} (normal)"
        if zb.details["net_concordance"] != s01:
            return f"z_kendall_b net concordance {zb.details['net_concordance']} != {s01}"
        return None

    def check(self, outputs: dict) -> dict[int, str]:
        return _by_repeat(outputs, lambda i: i % self.pool, self.canon, self._check_dataset)


def _write_csv(path: str, data: np.ndarray, names, fmt: str) -> None:
    np.savetxt(path, data, fmt=fmt, delimiter=",", header=",".join(names), comments="")


class CliMixed:
    """One op is one ``python -m kemeny_stat`` command over a CSV written in setup.

    The cycle below runs in a fixed order so every seed sees the same mix:
    twelve survey-size commands and three heavy ones (correlate on 10^5
    tie-free rows, matrix on 5000 x 8 items, enumerate 8), spread so that
    any stretch of the cycle holds about one heavy op in five.
    """

    name = "cli-mixed"
    CYCLE = (
        ("correlate", "big.csv", ()),
        ("test-kemeny", "s300.csv", ("--x", "a", "--y", "b")),
        ("test-spearman", "s300.csv", ("--x", "a", "--y", "b")),
        ("test-kemeny", "s2000.csv", ("--x", "a", "--y", "b")),
        ("correlate", "s300.csv", ("--x", "a", "--y", "b")),
        ("matrix", "items300.csv", ()),
        ("test-kemeny", "s2000.csv", ("--x", "a", "--y", "c")),
        ("nulls", None, ("300",)),
        ("enumerate", None, ("8",)),
        ("test-kemeny", "s300.csv", ("--x", "a", "--y", "c")),
        ("consistency-report", None, ()),
        ("test-spearman", "s2000.csv", ("--x", "a", "--y", "b")),
        ("test-kemeny", "s2000.csv", ("--x", "b", "--y", "c")),
        ("matrix", "items5000.csv", ()),
        ("test-spearman", "s300.csv", ("--x", "b", "--y", "c")),
    )
    HEAVY = {0, 8, 13}
    # With three to six cycles in a run, the p75 tail falls among the three
    # `test` ops at n = 2000 that each cycle holds.
    cycle, min_cycles = len(CYCLE), 3

    def __init__(self, ks, seed: int, workdir: str) -> None:
        self.ks = ks
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(ks.__file__))
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.caches = (ks.null_models.null_table, ks.null_models.spearman_null)

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        rng = _rng(self.seed, 0)
        big = rng.standard_normal((100_000, 2))
        big[:, 1] = 0.3 * big[:, 0] + math.sqrt(1 - 0.09) * big[:, 1]
        self.data = {
            "s300.csv": (likert(rng, 300, 3), ("a", "b", "c"), "%d"),
            "s2000.csv": (likert(rng, 2000, 3), ("a", "b", "c"), "%d"),
            "items300.csv": (likert(rng, 300, 6), tuple(f"q{j + 1}" for j in range(6)), "%d"),
            "items5000.csv": (likert(rng, 5000, 8), tuple(f"q{j + 1}" for j in range(8)), "%d"),
            "big.csv": (big, ("x", "y"), "%.17g"),
        }
        for name, (values, names, fmt) in self.data.items():
            _write_csv(os.path.join(self.workdir, name), values, names, fmt)
        self.op(7)  # nulls 300: warms the interpreter and bytecode caches

    def argv(self, i: int) -> list[str]:
        kind, csv, rest = self.CYCLE[i % len(self.CYCLE)]
        command, _, method = kind.partition("-")
        if kind == "consistency-report":
            command, method = kind, ""
        argv = [command]
        if csv is not None:
            argv.append(os.path.join(self.workdir, csv))
        argv += list(rest)
        if method:
            argv += ["--method", method]
        if command != "nulls":
            argv.append("--json")
        return argv

    def kind(self, i: int) -> str:
        kind, csv, _ = self.CYCLE[i % len(self.CYCLE)]
        return kind if csv is None else f"{kind}:{csv}"

    def column_pairs(self, i: int) -> int:
        kind, csv, _ = self.CYCLE[i % len(self.CYCLE)]
        if csv is None:
            return 0
        if kind == "matrix":
            p = len(self.data[csv][1])
            return p * (p - 1) // 2
        return 1

    def op(self, i: int):
        proc = subprocess.run(
            [sys.executable, "-m", "kemeny_stat", *self.argv(i)],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def inproc_op(self, i: int):
        """The same command through ``cli.main`` in process, from empty caches."""
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ks.cli.main(self.argv(i))
        return code, out.getvalue()

    @staticmethod
    def canon(output) -> str:
        return f"{output[0]}\n{output[1]}"

    def _column(self, csv: str, name: str) -> np.ndarray:
        values, names, _ = self.data[csv]
        return values[:, names.index(name)]

    def _check_first(self, i: int, output) -> str | None:
        ks = self.ks
        code, text = output
        if code != 0:
            return f"exit code {code}"
        kind, csv, rest = self.CYCLE[i % len(self.CYCLE)]
        if kind == "nulls":
            variance = float(text.split("variance")[1].split()[0])
            if not _close(variance, float(ks.population_variance(300)), 1e-6):
                return f"nulls 300 variance {variance} != population_variance(300)"
            return None
        payload = json.loads(text)
        if kind == "enumerate":
            if sum(payload["counts"]) != 8**8 or payload["counts"] != payload["counts"][::-1]:
                return "enumerate 8 counts do not sum to 8^8 symmetrically"
            if payload["variance"] != str(ks.population_variance(8)):
                return f"enumerate 8 variance {payload['variance']} != closed form"
            return None
        if kind == "consistency-report":
            expected = json.dumps(ks.consistency_report(), indent=2, sort_keys=True) + "\n"
            return None if text == expected else "consistency report differs from the library's"
        if kind == "matrix":
            values, names, _ = self.data[csv]
            mat = np.asarray(payload["matrix"])
            if not np.array_equal(mat, mat.T) or not np.all(np.diag(mat) == 1.0):
                return "matrix is not symmetric with a unit diagonal"
            n = values.shape[0]
            for a in range(len(names)):
                for b in range(a + 1, len(names)):
                    tau = net_concordance(values[:, a], values[:, b]) / (n * (n - 1) // 2)
                    if not _close(mat[a, b], tau):
                        return f"matrix[{a},{b}] = {mat[a, b]}, independent route {tau}"
            return None
        x = self._column(csv, rest[rest.index("--x") + 1] if "--x" in rest else "x")
        y = self._column(csv, rest[rest.index("--y") + 1] if "--y" in rest else "y")
        n = x.size
        m = n * (n - 1) // 2
        ties = payload["ties"]
        if csv == "big.csv" and ties["tied_x_only"] + ties["tied_y_only"] + ties["tied_both"]:
            return f"the 10^5-row input is not tie-free: {ties}"
        s = ties["concordant"] - ties["discordant"]
        if s != net_concordance(x, y) or sum(v for k, v in ties.items() if k != "pairs") != m:
            return f"pair counts {ties} disagree with the independent route"
        rho = spearman(x, y)
        if kind == "test-kemeny":
            z = s / math.sqrt(float(ks.population_variance(n)))
            if not _close(payload["z"], z, 1e-12) or not _close(payload["estimate"], s / m):
                return f"test z {payload['z']} != (C - D)/sqrt(population_variance) {z}"
        elif kind == "test-spearman":
            if not _close(payload["estimate"], rho) or not _close(payload["z"], rho * math.sqrt(n - 1)):
                return f"spearman estimate {payload['estimate']} != scipy {rho}"
        else:
            from scipy.stats import kendalltau, pearsonr

            est = payload["estimates"]
            expected = {
                "pearson": float(pearsonr(x, y).statistic),
                "spearman": rho,
                "kemeny-rho": rho,
                "kemeny-tau": s / m,
                "kendall-b": float(kendalltau(x, y).statistic),
                "arcsine-r": 2.0 / math.pi * math.asin(rho),
            }
            for name, value in expected.items():
                if not _close(est[name], value):
                    return f"correlate {name} {est[name]} != independent route {value}"
        return None

    def check(self, outputs: dict) -> dict[int, str]:
        failed = _by_repeat(outputs, lambda i: i % len(self.CYCLE), self.canon, self._check_first)
        for n in (300, 2000):
            variance = self.ks.null_table(n).variance
            if not _close(variance, float(self.ks.population_variance(n))):
                failed[min(outputs)] = f"null_table({n}).variance {variance} != population_variance"
        self.caches[0].cache_clear()
        return failed


WORKLOADS = {w.name: w for w in (SimSmallN, MatrixOrdinal, CliMixed)}
