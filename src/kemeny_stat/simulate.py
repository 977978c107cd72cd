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
import os
import statistics
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__ as _version
from .errors import DataError
from .null_models import z_kemeny, z_kendall_b, z_spearman
from .rank_core import ESTIMATORS, ScoreVector, _constant, pair_stats
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


class _Experiment(NamedTuple):
    """A row of :data:`_EXPERIMENTS`: the desk-scale config fields that differ
    from the :class:`SimulationConfig` defaults; each row label, in order, with
    its tabulated (mean, sd[, excess kurtosis]) by n; the row statistics of one
    draw (x, y); and the per-n extras read from the rows' columns.
    """

    preset: dict
    references: dict[str, dict[int, tuple[float, ...]]]
    stats: Callable[[ScoreVector, ScoreVector], tuple[float, ...]]
    extras: Callable[[dict[str, np.ndarray]], dict] | None = None


def _calibration_extras(columns: dict[str, np.ndarray]) -> dict:
    z = np.abs(columns["z_kemeny"])
    return {
        "abs_z_95_quantile": float(np.quantile(z, 0.95)),
        "tail_rate_above_1p85": float(np.mean(z > TWO_SIDED_CUTOFF_N15)),
    }


def _ratio_extras(columns: dict[str, np.ndarray]) -> dict:
    mk = abs(float(columns["z_kendall_b"].mean()))
    mq = abs(float(columns["z_kemeny"].mean()))
    # None (JSON null) where the kemeny mean is 0 and the ratio is undefined
    return {"mean_ratio_kendall_over_kemeny": mk / mq if mq > 0 else None}


# the z statistics do not depend on the null; "normal" keeps the lattice out
# of the replicate loop
_EXPERIMENTS: dict[str, _Experiment] = {
    "table_correlations": _Experiment(
        preset=dict(n_values=(30,)),
        references={
            label: {n: spreads[label] for n, spreads in CORRELATION_SPREADS.items()}
            for label in (name.replace("-", "_") for name in ESTIMATORS)
        },
        stats=lambda x, y: tuple(float(f(x, y)) for f in ESTIMATORS.values()),
    ),
    "table1": _Experiment(
        preset=dict(n_values=(3, 4, 5, 6, 7, 8)),
        references={"net_concordance": NULL_DISTANCE_SUMMARIES},
        stats=lambda x, y: (float(pair_stats(x, y).net_concordance),),
    ),
    "table3": _Experiment(
        preset=dict(n_values=(15, 25, 100, 250), rho=-0.3857, levels=4),
        references={
            "z_kendall_b": TIED_Z_SUMMARIES["kendall_b"],
            "z_kemeny": TIED_Z_SUMMARIES["kemeny"],
        },
        stats=lambda x, y: (
            z_kendall_b(x, y, null="normal").statistic,
            z_kemeny(x, y, null="normal").statistic,
        ),
        extras=_ratio_extras,
    ),
    "table5": _Experiment(
        preset=dict(n_values=(100,), population="bivariate_normal", rho=-0.38569),
        references={"z_spearman": SPEARMAN_Z_SUMMARIES},
        stats=lambda x, y: (z_spearman(x, y, null="normal").statistic,),
    ),
    "null_calibration": _Experiment(
        preset=dict(n_values=(15,), levels=6),
        references={"z_kemeny": {}},
        stats=lambda x, y: (z_kemeny(x, y, null="normal").statistic,),
        extras=_calibration_extras,
    ),
}

EXPERIMENTS = tuple(_EXPERIMENTS)

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
        _experiment(self.experiment)
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


def _experiment(name: str) -> _Experiment:
    """The row of experiment ``name``; the one check of an experiment name."""
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    return _EXPERIMENTS[name]


def default_config(experiment: str, seed: int, **overrides) -> SimulationConfig:
    """Desk-scale defaults for each experiment (full-scale via overrides)."""
    params = {"replications": 2000, **_experiment(experiment).preset, **overrides}
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
    """One replication; returns the row statistics of this experiment."""
    # looked up here, by name: the row's lambdas do not pickle to a worker
    stats = _EXPERIMENTS[experiment].stats
    for attempt in range(64):
        rng = np.random.default_rng((seed, n, rep, attempt))
        x, y = map(ScoreVector, _draw_pair(rng, n, population, rho, levels, resample))
        if _constant(x) or _constant(y):
            continue  # degenerate draw; deterministic retry stream
        return stats(x, y)
    raise DataError(
        f"population keeps producing constant columns at n={n}; "
        "widen the level count"
    )


def _summary(values: np.ndarray) -> dict:
    # equal floats need not average to themselves, nor have an m2 of 0
    spread = values.max() > values.min()
    mean = float(values.mean()) if spread else float(values[0])
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    sd = float(values.std(ddof=1)) if spread else 0.0
    shaped = spread and m2 > 0
    return {
        "mean": mean,
        "sd": sd,
        "median": float(np.median(values)),
        "range": float(values.max() - values.min()),
        "skew": m3 / m2**1.5 if shaped else 0.0,
        "excess_kurtosis": m4 / m2**2 - 3.0 if shaped else 0.0,
    }


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


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Execute every (n, replication) cell and aggregate summary rows."""
    experiment = _EXPERIMENTS[config.experiment]
    resample = None
    if config.population == "resample":
        from .dataio import load_csv

        matrix = load_csv(config.resample_file)
        if matrix.p < 2:
            raise DataError("resample file needs at least two columns")
        resample = matrix.values[:, :2]
        # refused before any replicate runs: a draw holding +-inf would fail
        # the whole run at the pearson row, losing the rank rows with it
        if "pearson" in experiment.references and not np.isfinite(resample).all():
            raise DataError(
                f"{config.resample_file}: the pearson row of {config.experiment} "
                "needs finite values, but the first two columns hold +-inf"
            )
    task = functools.partial(
        _replicate,
        config.experiment,
        seed=config.seed,
        population=config.population,
        rho=config.rho,
        levels=config.levels,
        resample=resample,
    )
    cells = [(n, rep) for n in config.n_values for rep in range(config.replications)]
    # a fork pool starts all its processes on its first task: cap it
    workers = min(config.workers, len(cells), os.cpu_count() or 1)
    if workers == 1:
        drawn = [task(n, rep) for n, rep in cells]
    else:
        # imported here: the pool pulls in multiprocessing (~0.8 MB RSS),
        # which single-worker runs and the other commands never use
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(cells) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            drawn = list(pool.map(task, *zip(*cells), chunksize=chunk))
    tables = np.split(np.asarray(drawn, dtype=float), len(config.n_values))
    results = []
    for n, table in zip(config.n_values, tables):
        columns = dict(zip(experiment.references, table.T))
        rows = []
        for label, by_n in experiment.references.items():
            entry = by_n.get(n)
            reference = dict(zip(("mean", "sd", "excess_kurtosis"), entry)) if entry else None
            rows.append({"estimator": label, **_summary(columns[label]), "reference": reference})
        extras = experiment.extras(columns) if experiment.extras else {}
        results.append({"n": int(n), "rows": rows, "extras": extras})
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
            shown = "n/a" if value is None else f"{value:.6f}"
            lines.append(f"{'':>6} {key}: {shown}")
    return "\n".join(lines) + "\n"
