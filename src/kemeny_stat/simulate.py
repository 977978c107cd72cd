"""Deterministic Monte Carlo harness for the reference experiments.

Each replication draws its own RNG stream from (seed, n, replication
index), so results are identical for any worker count and the JSON report
regenerates byte-for-byte from the same config.  Experiments mirror the
tabulated studies at desk scale: the correlation-spread table, the null
distance table, the tied z comparison, the continuous midrank z table, and
the null calibration run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import statistics
from dataclasses import dataclass
import numpy as np

from . import __version__ as _version
from .errors import DataError
from .null_models import _kendall_b_variance, population_variance
from .rank_core import ESTIMATORS, ScoreVector, pair_stats, spearman_rho
from .reference import (
    CORRELATION_SPREADS,
    NULL_DISTANCE_SUMMARIES,
    SPEARMAN_Z_SUMMARIES,
    TIED_Z_SUMMARIES,
    TWO_SIDED_CUTOFF_N15,
)

__all__ = [
    "ESTIMATORS",
    "EXPERIMENTS",
    "SimulationConfig",
    "SimulationReport",
    "default_config",
    "run_simulation",
    "render_text",
]

EXPERIMENTS = (
    "table_correlations",
    "table1",
    "table3",
    "table5",
    "null_calibration",
)

_POPULATIONS = ("bivariate_normal", "discretized_normal", "resample")

_CONVENTION = "skew and excess kurtosis use population-moment (biased) estimators"


@dataclass(frozen=True)
class SimulationConfig:
    """Full parameterisation of one experiment run.

    ``levels = None`` under ``discretized_normal`` means "as many levels as
    observations", i.e. each margin is an i.i.d. uniform draw on {1..n}.
    ``workers`` never affects results and is excluded from the canonical
    form and the config hash.
    """

    experiment: str
    n_values: tuple[int, ...]
    replications: int
    seed: int
    population: str = "discretized_normal"
    rho: float = 0.0
    levels: int | None = None
    resample_file: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.population not in _POPULATIONS:
            raise ValueError(
                f"unknown population {self.population!r}; choose from {_POPULATIONS}"
            )
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError("n_values must be a nonempty list of sizes >= 2")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed is None:
            raise ValueError("seed is mandatory; there is no wall-clock default")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("population rho must lie in (-1, 1)")
        if self.levels is not None and self.levels < 2:
            raise ValueError("levels must be >= 2 when given")
        if self.population == "resample" and not self.resample_file:
            raise ValueError("resample population needs a file")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def canonical_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "n_values": list(self.n_values),
            "replications": int(self.replications),
            "seed": int(self.seed),
            "population": self.population,
            "rho": float(self.rho),
            "levels": None if self.levels is None else int(self.levels),
            "resample_file": self.resample_file,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def default_config(experiment: str, seed: int, **overrides) -> SimulationConfig:
    """Desk-scale defaults for each experiment (full-scale via overrides)."""
    presets: dict[str, dict] = {
        "table_correlations": dict(
            n_values=(30,), replications=2000, population="discretized_normal",
            rho=0.0, levels=None,
        ),
        "table1": dict(
            n_values=(3, 4, 5, 6, 7, 8), replications=2000,
            population="discretized_normal", rho=0.0, levels=None,
        ),
        "table3": dict(
            n_values=(15, 25, 100, 250), replications=2000,
            population="discretized_normal", rho=-0.3857, levels=4,
        ),
        "table5": dict(
            n_values=(100,), replications=2000,
            population="bivariate_normal", rho=-0.38569,
        ),
        "null_calibration": dict(
            n_values=(15,), replications=2000,
            population="discretized_normal", rho=0.0, levels=6,
        ),
    }
    if experiment not in presets:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}"
        )
    params = dict(presets[experiment])
    params.update(overrides)
    return SimulationConfig(experiment=experiment, seed=seed, **params)


_NORMAL = statistics.NormalDist()


@functools.lru_cache(maxsize=64)
def _bin_edges(k: int) -> tuple[float, ...]:
    """Equal-probability bin edges of the standard normal margin."""
    return tuple(_NORMAL.inv_cdf(j / k) for j in range(1, k))


def _draw_pair(
    rng: np.random.Generator,
    n: int,
    population: str,
    rho: float,
    levels: int | None,
    resample: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    if population == "resample":
        idx = rng.integers(0, resample.shape[0], size=n)
        return resample[idx, 0], resample[idx, 1]
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    x = z1
    y = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
    if population == "bivariate_normal":
        return x, y
    k = n if levels is None else levels
    edges = np.asarray(_bin_edges(k))
    return (
        np.searchsorted(edges, x).astype(float),
        np.searchsorted(edges, y).astype(float),
    )


def _replicate(
    experiment: str,
    n: int,
    rep: int,
    seed: int,
    population: str,
    rho: float,
    levels: int | None,
    resample: np.ndarray | None,
) -> tuple[float, ...]:
    """One replication; returns the estimator tuple for this experiment."""
    for attempt in range(64):
        rng = np.random.default_rng((seed, n, rep, attempt))
        x, y = map(ScoreVector, _draw_pair(rng, n, population, rho, levels, resample))
        if x.ranks[1].size < 2 or y.ranks[1].size < 2:
            continue  # degenerate draw; deterministic retry stream
        if experiment == "table_correlations":
            return tuple(float(f(x, y)) for f in ESTIMATORS.values())
        if experiment == "table5":
            return (spearman_rho(x, y) * math.sqrt(n - 1.0),)
        s = pair_stats(x, y).net_concordance
        if experiment == "table1":
            return (float(s),)
        sigma0 = math.sqrt(float(population_variance(n)))
        if experiment == "null_calibration":
            return (s / sigma0,)
        if experiment == "table3":
            return (s / math.sqrt(_kendall_b_variance(x, y)), s / sigma0)
        raise ValueError(f"unknown experiment {experiment!r}")
    raise DataError(
        f"population keeps producing constant columns at n={n}; "
        "widen the level count"
    )


_ROW_LABELS: dict[str, tuple[str, ...]] = {
    "table_correlations": tuple(name.replace("-", "_") for name in ESTIMATORS),
    "table1": ("net_concordance",),
    "table3": ("z_kendall_b", "z_kemeny"),
    "table5": ("z_spearman",),
    "null_calibration": ("z_kemeny",),
}


def _summary(values: np.ndarray) -> dict:
    mean = float(values.mean())
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return {
        "mean": mean,
        "sd": sd,
        "median": float(np.median(values)),
        "range": float(values.max() - values.min()),
        "skew": m3 / m2**1.5 if m2 > 0 else 0.0,
        "excess_kurtosis": m4 / m2**2 - 3.0 if m2 > 0 else 0.0,
    }


def _reference_for(experiment: str, n: int, label: str) -> dict | None:
    if experiment == "table_correlations":
        entry = CORRELATION_SPREADS.get(n, {}).get(label)
        if entry:
            return {"mean": entry[0], "sd": entry[1]}
    elif experiment == "table1":
        entry = NULL_DISTANCE_SUMMARIES.get(n)
        if entry:
            return {"mean": entry[0], "sd": entry[1], "excess_kurtosis": entry[2]}
    elif experiment == "table3":
        key = "kendall_b" if label == "z_kendall_b" else "kemeny"
        entry = TIED_Z_SUMMARIES[key].get(n)
        if entry:
            return {"mean": entry[0], "sd": entry[1]}
    elif experiment == "table5":
        entry = SPEARMAN_Z_SUMMARIES.get(n)
        if entry:
            return {"mean": entry[0], "sd": entry[1]}
    return None


@dataclass(frozen=True)
class SimulationReport:
    """Canonical, regeneration-stable record of one simulation run."""

    payload: dict

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    @property
    def results(self) -> list[dict]:
        return self.payload["results"]

    def rows(self, n: int) -> dict[str, dict]:
        for block in self.results:
            if block["n"] == n:
                return {row["estimator"]: row for row in block["rows"]}
        raise KeyError(f"no results for n={n}")


def _extras(experiment: str, n: int, columns: dict[str, np.ndarray]) -> dict:
    if experiment == "null_calibration":
        z = np.abs(columns["z_kemeny"])
        return {
            "abs_z_95_quantile": float(np.quantile(z, 0.95)),
            "tail_rate_above_1p85": float(np.mean(z > TWO_SIDED_CUTOFF_N15)),
        }
    if experiment == "table3":
        mk = abs(float(columns["z_kendall_b"].mean()))
        mq = abs(float(columns["z_kemeny"].mean()))
        return {"mean_ratio_kendall_over_kemeny": mk / mq if mq > 0 else math.inf}
    return {}


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Execute every (n, replication) cell and aggregate summary rows."""
    resample = None
    if config.population == "resample":
        from .dataio import load_csv

        matrix = load_csv(config.resample_file)
        if matrix.p < 2:
            raise DataError("resample file needs at least two columns")
        resample = matrix.values[:, :2]
    labels = _ROW_LABELS[config.experiment]
    results = []
    for n in config.n_values:
        task = functools.partial(
            _replicate,
            config.experiment,
            n,
            seed=config.seed,
            population=config.population,
            rho=config.rho,
            levels=config.levels,
            resample=resample,
        )
        reps = range(config.replications)
        if config.workers == 1:
            drawn = [task(r) for r in reps]
        else:
            # imported here: the pool pulls in multiprocessing (~0.8 MB RSS),
            # which single-worker runs and the other commands never use
            from concurrent.futures import ProcessPoolExecutor

            chunk = max(1, config.replications // (config.workers * 8))
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                drawn = list(pool.map(task, reps, chunksize=chunk))
        table = np.asarray(drawn, dtype=float)
        columns = {label: table[:, i] for i, label in enumerate(labels)}
        rows = []
        for label in labels:
            row = {"estimator": label}
            row.update(_summary(columns[label]))
            row["reference"] = _reference_for(config.experiment, n, label)
            rows.append(row)
        results.append(
            {"n": int(n), "rows": rows, "extras": _extras(config.experiment, n, columns)}
        )
    payload = {
        "artifact_version": _version,
        "config": config.canonical_dict(),
        "config_hash": config.config_hash(),
        "convention": _CONVENTION,
        "replications": int(config.replications),
        "results": results,
        "seed": int(config.seed),
    }
    return SimulationReport(payload=payload)


def render_text(report: SimulationReport) -> str:
    """Human-readable table mirroring the summary-row column layout."""
    p = report.payload
    cfg = p["config"]
    lines = [
        f"experiment: {cfg['experiment']}   seed: {p['seed']}   "
        f"replications: {p['replications']}   config: {p['config_hash']}",
        f"population: {cfg['population']} (rho={cfg['rho']}, levels={cfg['levels']})",
        f"note: {p['convention']}",
    ]
    header = (
        f"{'n':>6} {'estimator':<16} {'mean':>10} {'sd':>9} {'median':>10} "
        f"{'range':>9} {'skew':>8} {'ex.kurt':>8}  reference(mean, sd)"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for block in p["results"]:
        for row in block["rows"]:
            ref = row.get("reference")
            ref_txt = ""
            if ref:
                ref_txt = f"({ref['mean']:.4f}, {ref['sd']:.4f})"
            lines.append(
                f"{block['n']:>6} {row['estimator']:<16} {row['mean']:>10.5f} "
                f"{row['sd']:>9.5f} {row['median']:>10.5f} {row['range']:>9.4f} "
                f"{row['skew']:>8.4f} {row['excess_kurtosis']:>8.4f}  {ref_txt}"
            )
        for key, value in sorted(block["extras"].items()):
            lines.append(f"{'':>6} {key}: {value:.6f}")
    return "\n".join(lines) + "\n"
