"""Multivariate rank-correlation machinery.

Builds pairwise rank-correlation matrices over data columns, scales them to
rank covariances with the per-column pair-score spreads, and provides the
Gaussian log-likelihood kernel used to compare candidate covariance models
against the observed one.  Also hosts the smaller cross-scale converters
(polychoric-style loadings, the tetrachoric cosine rule) and a dependence
functional for the bivariate case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError, DecompositionError, DomainError
from .rank_core import (
    _refuse_pairwise,
    arcsine_r,
    as_score_vector,
    kemeny_tau,
    kemeny_variance,
    kendall_tau_b,
    spearman_rho,
)

__all__ = [
    "DataMatrix",
    "RankCorrMatrix",
    "CORRELATION_METHODS",
    "correlation_matrix",
    "scale_to_covariance",
    "min_eigenvalue",
    "is_positive_definite",
    "loglik_kernel",
    "full_log_likelihood",
    "LoadingsSolution",
    "polychoric_loadings",
    "tetrachoric_from_table",
    "HoeffdingResult",
    "hoeffding_h",
]


class DataMatrix:
    """An n x p column-named data table with validated float entries.

    Rows are observations, columns are variables.  Infinities are legal
    scores (the pair metric only compares), NaNs are not.
    """

    __slots__ = ("values", "columns")

    def __init__(self, values, columns: Sequence[str] | None = None) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2:
            raise DataError(f"data matrix must be 2-d, got shape {arr.shape}")
        n, p = arr.shape
        if n < 2:
            raise DataError("need at least two rows")
        if p < 1:
            raise DataError("need at least one column")
        if np.isnan(arr).any():
            bad = int(np.argwhere(np.isnan(arr))[0][0])
            raise DataError(f"NaN entry in row {bad}")
        if columns is None:
            columns = tuple(f"c{i}" for i in range(p))
        else:
            columns = tuple(str(c) for c in columns)
            if len(columns) != p:
                raise DataError(
                    f"{len(columns)} column names for {p} columns"
                )
            if len(set(columns)) != p:
                raise DataError("duplicate column names")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError("DataMatrix is immutable")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise DataError(
                f"no column {name!r}; available: {', '.join(self.columns)}"
            ) from None
        return self.values[:, idx]

    def select(self, names: Sequence[str]) -> "DataMatrix":
        cols = [self.column(n) for n in names]
        return DataMatrix(np.column_stack(cols), names)


CORRELATION_METHODS: dict[str, Callable] = {
    "kemeny_tau": kemeny_tau,
    "spearman": spearman_rho,
    "arcsine_r": arcsine_r,
    "kendall_b": kendall_tau_b,
}


@dataclass(frozen=True)
class RankCorrMatrix:
    """A p x p correlation matrix with the per-column pair-score spreads.

    ``sigmas[i]`` is the square root of the untied-pair count of column i,
    the natural scale of the pair-score inner product.
    """

    matrix: np.ndarray
    method: str
    columns: tuple
    sigmas: np.ndarray

    @property
    def p(self) -> int:
        return self.matrix.shape[0]


def correlation_matrix(data: DataMatrix, method: str = "kemeny_tau") -> RankCorrMatrix:
    """All pairwise correlations of the columns under the chosen estimator."""
    if method not in CORRELATION_METHODS:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(CORRELATION_METHODS)}"
        )
    estimator = CORRELATION_METHODS[method]
    p = data.p
    out = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            out[i, j] = out[j, i] = estimator(data.values[:, i], data.values[:, j])
    sigmas = np.sqrt([kemeny_variance(data.values[:, i]) for i in range(p)])
    return RankCorrMatrix(
        matrix=out, method=method, columns=tuple(data.columns), sigmas=sigmas
    )


def scale_to_covariance(corr: RankCorrMatrix) -> np.ndarray:
    """Rank covariance D Xi D with D = diag of the pair-score spreads."""
    d = corr.sigmas
    return d[:, None] * corr.matrix * d[None, :]


def _check_square_symmetric(mat: np.ndarray) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {arr.shape}")
    if not np.allclose(arr, arr.T, atol=1e-12, rtol=0.0):
        raise DomainError("matrix is not symmetric")
    return arr


def min_eigenvalue(mat: np.ndarray | RankCorrMatrix) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    if isinstance(mat, RankCorrMatrix):
        mat = mat.matrix
    arr = _check_square_symmetric(mat)
    return float(np.linalg.eigvalsh(arr)[0])


def is_positive_definite(mat: np.ndarray | RankCorrMatrix, tol: float = 1e-10) -> bool:
    return min_eigenvalue(mat) > tol


def loglik_kernel(sigma: np.ndarray, sample_cov: np.ndarray) -> float:
    """Gaussian likelihood kernel K = -log|Sigma| - tr(Sigma^-1 S).

    Maximised over Sigma exactly at Sigma = S.  Raises DecompositionError
    when the candidate is not positive definite.
    """
    sig = _check_square_symmetric(sigma)
    s = _check_square_symmetric(sample_cov)
    if sig.shape != s.shape:
        raise DomainError("candidate and sample matrices differ in size")
    try:
        chol = np.linalg.cholesky(sig)
    except np.linalg.LinAlgError:
        raise DecompositionError("candidate covariance is not positive definite") from None
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    trace = float(np.trace(np.linalg.solve(sig, s)))
    return -logdet - trace


def full_log_likelihood(sigma: np.ndarray, sample_cov: np.ndarray, n: int) -> float:
    """Gaussian log-likelihood of n observations given their sample covariance."""
    p = np.asarray(sigma).shape[0]
    return -0.5 * p * n * math.log(2.0 * math.pi) + 0.5 * n * loglik_kernel(sigma, sample_cov)


@dataclass(frozen=True)
class LoadingsSolution:
    """One-factor loadings reproducing a single correlation exactly."""

    loading_x: float
    loading_y: float
    error_variance: float

    @property
    def reproduced(self) -> float:
        return self.loading_x * self.loading_y


def polychoric_loadings(rho: float) -> LoadingsSolution:
    """Split a correlation into equal-magnitude one-factor loadings.

    loading_x = sqrt(|rho|), loading_y = sign(rho) sqrt(|rho|), so the
    product returns rho and each variable keeps error variance 1 - |rho|.
    """
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    root = math.sqrt(abs(rho))
    return LoadingsSolution(
        loading_x=root,
        loading_y=math.copysign(root, rho) if rho != 0 else 0.0,
        error_variance=1.0 - abs(rho),
    )


def tetrachoric_from_table(a: float, b: float, c: float, d: float) -> float:
    """Tetrachoric-style correlation from a 2x2 contingency table.

    ``a, d`` are the concordant cells, ``b, c`` the discordant ones:
    cos(pi / (1 + sqrt(ad / bc))) in the interior, with the empty-cell
    boundaries pinned to +/-1 (both discordant cells empty -> +1, both
    concordant empty -> -1, one concordant empty -> -1, one discordant
    empty -> +1).
    """
    cells = (a, b, c, d)
    if any(v < 0 for v in cells):
        raise DataError("table cells must be nonnegative")
    if sum(cells) == 0:
        raise DataError("empty contingency table")
    if b == 0 and c == 0:
        return 1.0
    if a == 0 and d == 0:
        return -1.0
    if a * d == 0:
        return -1.0
    if b * c == 0:
        return 1.0
    return math.cos(math.pi / (1.0 + math.sqrt((a * d) / (b * c))))


@dataclass(frozen=True)
class HoeffdingResult:
    """Dependence functional value with an optional permutation p-value."""

    statistic: float
    p_value: float | None
    permutations: int


def hoeffding_h(
    x: Iterable[float],
    y: Iterable[float],
    *,
    permutations: int = 0,
    seed: int = 0,
) -> HoeffdingResult:
    """Mean squared gap between the joint and product midrank empirical CDFs.

    With h(t) = (sign(t) + 1)/2 scoring each ordered comparison, computes
    H = (1/n) sum_i (F12(i) - F1(i) F2(i))^2, which is zero for any
    factorising dependence structure (including a constant margin) and
    invariant under strictly increasing maps of either margin.  A positive
    ``permutations`` count adds a one-sided permutation p-value with
    add-one smoothing.
    """
    def cdf_kernel(values) -> np.ndarray:
        v = as_score_vector(values).values
        _refuse_pairwise(v.size, "hoeffding_h")
        # compare instead of subtracting so equal infinities score 1/2
        sign = (v[:, None] > v[None, :]).astype(float)
        sign -= (v[:, None] < v[None, :]).astype(float)
        return 0.5 * (sign + 1.0)

    hx = cdf_kernel(x)
    hy = cdf_kernel(y)
    n = hx.shape[0]
    if hy.shape[0] != n:
        raise DataError(f"length mismatch: {n} vs {hy.shape[0]}")

    def statistic(perm: np.ndarray | None) -> float:
        hyp = hy if perm is None else hy[np.ix_(perm, perm)]
        f1 = hx.mean(axis=1)
        f2 = hyp.mean(axis=1)
        f12 = (hx * hyp).mean(axis=1)
        gap = f12 - f1 * f2
        return float(np.mean(gap * gap))

    observed = statistic(None)
    if permutations <= 0:
        return HoeffdingResult(statistic=observed, p_value=None, permutations=0)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        perm = rng.permutation(n)
        if statistic(perm) >= observed:
            hits += 1
    p = (1.0 + hits) / (1.0 + permutations)
    return HoeffdingResult(statistic=observed, p_value=p, permutations=permutations)
