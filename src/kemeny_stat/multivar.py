"""Multivariate rank-correlation machinery.

Builds pairwise rank-correlation matrices over data columns, with the
per-column pair-score spreads, and provides the Gaussian log-likelihood
kernel used to compare candidate covariance models against the observed one.
Also hosts the tetrachoric cosine rule for a 2x2 table.  Every route here is
O(n log n) per column pair; the one n x n route left in the package is the
``pair_stats(method="quadratic")`` oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DecompositionError, DomainError
from .rank_core import (
    ScoreVector,
    arcsine_r,
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
    "min_eigenvalue",
    "is_positive_definite",
    "loglik_kernel",
    "tetrachoric_from_table",
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

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which is the
        # only way to set the slots
        return DataMatrix, (self.values, self.columns)

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
    # one ScoreVector per column, so each column is ranked once for all pairs
    cols = [ScoreVector(data.values[:, i]) for i in range(p)]
    out = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            out[i, j] = out[j, i] = estimator(cols[i], cols[j])
    sigmas = np.sqrt([kemeny_variance(c) for c in cols])
    return RankCorrMatrix(
        matrix=out, method=method, columns=tuple(data.columns), sigmas=sigmas
    )


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
