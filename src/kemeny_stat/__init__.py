"""Kemeny-metric rank statistics.

A library and CLI for tied-data rank correlation built on the Kemeny pair
metric: the tau / Spearman / Kendall-b estimator family, finite-sample
beta-binomial null models and z tests, exact small-n enumeration oracles over
the tied-vector universe {1..n}^n, multivariate rank-correlation machinery,
and a reproducible simulation harness with a formula-vs-oracle consistency
report.

Submodules load on first use (PEP 562): ``import kemeny_stat`` loads none of
them, and ``kemeny_stat.null_table`` imports ``null_models`` the first time it
is read.  A resolved name is looked up in its home module on every access and
never stored here, so rebinding the home module's attribute (a tracer's
wrapper, a test's monkeypatch) is seen through the package too.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each submodule and the public names the package takes from it.
_EXPORTS = {
    "errors": (
        "KemenyStatError",
        "DataError",
        "NumericError",
        "DomainError",
        "DegenerateError",
        "DecompositionError",
    ),
    "rank_core": (
        "ScoreVector",
        "ConcordanceCounts",
        "pair_stats",
        "kemeny_distance_affine",
        "kemeny_distance_exact",
        "kemeny_tau",
        "kemeny_variance",
        "rank_vector",
        "spearman_rho",
        "arcsine_r",
        "kendall_tau_b",
        "greiner_sin",
    ),
    "null_models": (
        "population_variance",
        "alpha_of_n",
        "alpha_from_kurtosis",
        "q_from_moments",
        "NullTable",
        "null_table",
        "spearman_null",
        "TestResult",
        "z_kemeny",
        "z_kendall_b",
        "z_spearman",
    ),
    "consistency": ("variance_poly", "kurtosis_poly", "consistency_report"),
    "multivar": (
        "DataMatrix",
        "CORRELATION_METHODS",
        "RankCorrMatrix",
        "correlation_matrix",
        "min_eigenvalue",
        "is_positive_definite",
        "loglik_kernel",
        "tetrachoric_from_table",
    ),
    "dataio": ("load_csv",),
    "simulate": (
        "EXPERIMENTS",
        "SimulationConfig",
        "SimulationReport",
        "default_config",
        "run_simulation",
    ),
    "enum_oracle": (),
    "reference": (),
    "cli": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        return getattr(import_module(f"{__name__}.{home}"), name)
    if name in _EXPORTS:
        # importing binds the submodule here, so this runs once per submodule
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
