"""Finite-sample null distributions and z tests for the rank statistics.

The centred concordance count S = C - D of two independent columns drawn
uniformly from the tied permutation population has mean zero, the exact
variance given by :func:`population_variance`, and a symmetric platykurtic
shape that a two-parameter power kernel (q^2 - s^2)^alpha captures on the
integer lattice |s| <= m.  This module builds that lattice null, the
matching continuous kernel for the midrank correlation, and the z tests
that consume them.  Everything here is closed-form or quadrature; the
enumeration cross-checks live in tests and in the consistency report.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable

import numpy as np

from .errors import DegenerateError, DomainError
from .rank_core import ScoreVector, as_score_vector, pair_stats, spearman_rho, tie_block_sizes
from .reference import SPEARMAN_STD_KURTOSIS_BY_N

__all__ = [
    "population_variance",
    "variance_poly",
    "kurtosis_poly",
    "alpha_of_n",
    "alpha_from_kurtosis",
    "implied_std_kurtosis",
    "q_from_moments",
    "beta_binomial_variance",
    "RiffledMoments",
    "riffled_moments",
    "riffled_variance_mixture",
    "power_kernel_std_kurtosis",
    "power_kernel_fourth_moment",
    "spearman_kurtosis_poly",
    "NullTable",
    "null_table",
    "SpearmanNull",
    "spearman_null",
    "TestResult",
    "z_kemeny",
    "z_kendall_b",
    "z_spearman",
    "EXACT_LIMIT",
    "NULL_TABLE_MAX_ENTRIES",
]

#: Largest n at which the kemeny z test reads its p-value from the lattice
#: null by default; past it the table grows as n^2 and the normal null is used.
EXACT_LIMIT: int = 350

#: Largest lattice :func:`null_table` builds, in support entries.  The build
#: peaks at about 42 B per entry, so this is about 350 MB, reached near n = 2900.
NULL_TABLE_MAX_ENTRIES: int = 1 << 23

#: Midpoints of the quadrature grid in :func:`spearman_null`.
SPEARMAN_GRID_POINTS: int = 8192


def population_variance(n: int) -> Fraction:
    """Exact variance of S = C - D over the full tied population of size n.

    (n-1)^2 (n+4)(2n-1) / (18 n), an exact rational.  Matches the
    enumeration oracle for every n small enough to enumerate.
    """
    n = int(n)
    if n < 2:
        raise DomainError("population variance needs n >= 2")
    return Fraction((n - 1) ** 2 * (n + 4) * (2 * n - 1), 18 * n)


def variance_poly(n: int | float) -> float:
    """Cubic fit to the null variance, valid for n >= 9 only."""
    if n < 9:
        raise DomainError("variance polynomial is fitted for n >= 9")
    return 11.82 - 2.31825 * n + 0.207355 * n**2 + 0.110824 * n**3


def kurtosis_poly(n: int | float) -> float:
    """Exponential fit to the (negative) excess kurtosis, for n >= 9 only."""
    if n < 9:
        raise DomainError("kurtosis fit is valid for n >= 9")
    return -math.exp(0.0002939 * n**2 - 0.05537 * n - 1.149)


def alpha_of_n(n: int) -> Fraction:
    """Shape parameter of the lattice null at sample size n, exact.

    (n-1)(9n^3 - 4n^2 - 14n + 8) / (2(n-2)(4n^2 + 9n - 4)).  This is the
    unique symmetric beta-binomial shape on n^2 - n trials whose variance
    reproduces :func:`population_variance`; see
    :func:`beta_binomial_variance`.
    """
    n = int(n)
    if n < 3:
        raise DomainError("shape parameter is undefined for n < 3")
    num = (n - 1) * (9 * n**3 - 4 * n**2 - 14 * n + 8)
    den = 2 * (n - 2) * (4 * n**2 + 9 * n - 4)
    return Fraction(num, den)


def alpha_from_kurtosis(kurt: float) -> float:
    """Invert the shape/kurtosis link: alpha = (9 - 5k) / (2(k - 3)).

    ``kurt`` is the standardised kurtosis mu4 / mu2^2 and must lie in
    (1, 3): at 3 the kernel degenerates to a Gaussian limit, at or below 1
    the exponent reaches -1 and the kernel stops being normalisable.
    """
    if not 1.0 < kurt < 3.0:
        raise DomainError("standardised kurtosis must lie in (1, 3)")
    return (9.0 - 5.0 * kurt) / (2.0 * (kurt - 3.0))


def implied_std_kurtosis(alpha: float) -> float:
    """Standardised kurtosis of the power kernel with exponent alpha."""
    if 2.0 * alpha + 5.0 <= 0:
        raise DomainError("exponent must exceed -5/2")
    return 3.0 * (2.0 * alpha + 3.0) / (2.0 * alpha + 5.0)


def q_from_moments(mu2: float, mu4: float) -> float:
    """Support half-width q = sqrt(2) sqrt(mu2 mu4 / (3 mu2^2 - mu4)).

    ``mu4`` is the raw fourth moment.  Requires 0 < mu4 < 3 mu2^2 (strict
    sub-Gaussianity); at the Gaussian boundary the width diverges.
    """
    if mu2 <= 0 or mu4 <= 0:
        raise DomainError("moments must be positive")
    gap = 3.0 * mu2 * mu2 - mu4
    if gap <= 0:
        raise DomainError("fourth moment must stay below the Gaussian bound 3 mu2^2")
    return math.sqrt(2.0) * math.sqrt(mu2 * mu4 / gap)


def beta_binomial_variance(trials: int, shape: Fraction | float) -> Fraction:
    """Variance of a symmetric beta-binomial(N, a, a): N(N + 2a) / (4(2a + 1))."""
    n_tr = Fraction(trials)
    a = Fraction(shape) if not isinstance(shape, Fraction) else shape
    return n_tr * (n_tr + 2 * a) / (4 * (2 * a + 1))


@dataclass(frozen=True)
class RiffledMoments:
    """Central moments of the two-component tied/untied distance mixture."""

    mu2: float
    mu3: float
    mu4: float


def riffled_moments(m: int, alpha1: float, alpha2: float, weight: float = 0.5) -> RiffledMoments:
    """Central moments of the riffled mixture on support [0, 2m].

    ``m`` is the pair count n(n-1)/2, ``alpha1``/``alpha2`` the shapes of
    the even/odd components and ``weight`` the mixing weight.  Transcribed
    form; the consistency report compares it against the enumeration
    moments and the closed-form variance, and the disagreements it finds
    are tabulated there rather than patched here.
    """
    if weight < 0 or weight > 1:
        raise DomainError("mixture weight must lie in [0, 1]")
    a1, a2, w = float(alpha1), float(alpha2), float(weight)
    mu2 = (
        1.0
        / ((1.0 + 2.0 * a1) * (1.0 + 2.0 * a2))
        * (
            1.0
            - 2.0 * m
            + m**2
            - w
            + 2.0 * m * w
            + 2.0 * a2 * (-1.0 + m + w - m * w + m**2 * w)
            - 2.0
            * a1
            * (
                -1.0
                + m * (2.0 - 3.0 * w)
                + m**2 * (w - 1.0)
                + w
                - 2.0 * a2 * (w + m - 1.0)
            )
        )
    )
    mu4 = (
        5.0
        - 8.0 * m
        + 3.0 * m**2
        - 5.0 * w
        + 6.0 * m * w
        + (m - 1.0) * m * w * (2.0 + 3.0 * (m - 1.0)) / (2.0 + 4.0 * a1)
        - 3.0 * m * w * (m - 3.0) * (m - 2.0) * (m - 1.0) / (6.0 + 4.0 * a1)
        - m * (m - 2.0) * (m - 1.0) * (8.0 + 3.0 * (m - 3.0)) * (w - 1.0) / (2.0 + a2)
        + 3.0 * (w - 1.0) * (m - 1.0) * (m - 2.0) * (m - 3.0) * (m - 4.0) / (6.0 + a2)
    )
    return RiffledMoments(mu2=mu2, mu3=0.0, mu4=mu4)


def riffled_variance_mixture(m: int, alpha1: float, alpha2: float) -> float:
    """Equal-weight variance of the mixture in closed form.

    (1/2)(m(m-1)/(1+2a1) + (m-1)(m-2)/(1+2a2) + 2m - 1); agrees with
    ``riffled_moments(m, a1, a2, 0.5).mu2``.
    """
    a1, a2 = float(alpha1), float(alpha2)
    return 0.5 * (
        m * (m - 1.0) / (1.0 + 2.0 * a1)
        + (m - 1.0) * (m - 2.0) / (1.0 + 2.0 * a2)
        + 2.0 * m
        - 1.0
    )


def power_kernel_std_kurtosis(m: int, alpha: float) -> float:
    """Standardised kurtosis of the single-shape kernel on [0, 2m]."""
    a = float(alpha)
    num = 2.0 * (1.0 + a) * (
        3.0
        + 6.0 * (m - 1.0) * m * (2.0 + m * (m - 1.0))
        + 4.0 * a * (-4.0 + m * (11.0 + m * (6.0 * m - 11.0)))
        + 4.0 * a**2 * (5.0 + 2.0 * m * (3.0 * m - 5.0))
    )
    den = (3.0 + 2.0 * a) * (1.0 - 2.0 * a + 2.0 * m * (2.0 * a + m - 1.0)) ** 2
    return num / den


def power_kernel_fourth_moment(n: int, alpha: float) -> float:
    """Fourth-moment display in terms of n with m = (n^2 - n)/2 substituted.

    Transcribed as written; numerically this equals four times
    :func:`power_kernel_std_kurtosis` at m = (n^2 - n)/2, which the
    consistency report flags against the enumeration fourth moment.
    """
    a = float(alpha)
    t = float(n**2 - n)
    num = 2.0 * (a + 1.0) * (
        4.0 * a**2 * (t * (1.5 * t - 5.0) + 5.0)
        + 4.0 * a * (0.5 * t * (0.5 * t * (3.0 * t - 11.0) + 11.0) - 4.0)
        + 3.0 * t * (0.5 * t - 1.0) * (0.5 * t * (0.5 * t - 1.0) + 2.0)
        + 3.0
    )
    den = 0.5 * ((2.0 * a + 3.0) * (-2.0 * a + t * (2.0 * a + 0.5 * t - 1.0) + 1.0) ** 2)
    return 2.0 * num / den


def spearman_kurtosis_poly(n: int | float) -> float:
    """Cubic fit to the midrank-correlation null kurtosis as a function of n.

    Exceeds the Gaussian bound 3 for n above ~19, so the exact tabulated
    values are preferred wherever they exist; the fit is kept only so the
    consistency report can show how far it drifts from the table.
    """
    return -0.7561593 + 1.1482686 * n - 0.1240335 * n**2 + 0.0044051 * n**3


def _normal_upper(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class NullTable:
    """Exact lattice null for the centred concordance count at sample size n.

    Probabilities follow (q^2 - s^2)^alpha on the integers |s| <= min(m,
    floor(q)), built in log space, mirrored for exact symmetry and
    renormalised.  ``support`` is ascending.
    """

    n: int
    alpha: float
    q: float
    support: np.ndarray
    probabilities: np.ndarray

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def variance(self) -> float:
        s = self.support.astype(float)
        return float(np.sum(self.probabilities * s * s))

    @property
    def std_kurtosis(self) -> float:
        s = self.support.astype(float)
        mu2 = float(np.sum(self.probabilities * s * s))
        mu4 = float(np.sum(self.probabilities * s**4))
        return mu4 / (mu2 * mu2)

    @property
    def excess_kurtosis(self) -> float:
        return self.std_kurtosis - 3.0

    def prob(self, s: float) -> float:
        """Point mass at lattice value s (0 off the support)."""
        return float(self.probabilities[self.support == s].sum())

    def p_upper(self, s: float) -> float:
        """Upper-tail mid-p: P(S > s) + P(S = s)/2."""
        above = float(self.probabilities[self.support > s].sum())
        return above + 0.5 * self.prob(s)

    def p_two_sided(self, s: float) -> float:
        p1 = self.p_upper(s)
        return 2.0 * min(p1, 1.0 - p1)

    def quantile(self, p: float) -> int:
        """Smallest support value whose CDF reaches p."""
        if not 0.0 < p <= 1.0:
            raise DomainError("quantile level must lie in (0, 1]")
        cdf = np.cumsum(self.probabilities)
        idx = int(np.searchsorted(cdf, p, side="left"))
        idx = min(idx, self.support.size - 1)
        return int(self.support[idx])

    def standardized_cutoff(self, level: float = 0.05) -> float:
        """Upper quantile at 1 - level/2, on the unit-variance scale."""
        return self.quantile(1.0 - level / 2.0) / math.sqrt(self.variance)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "pair_count": self.pair_count,
            "alpha": self.alpha,
            "q": self.q,
            "support": [int(s) for s in self.support],
            "probabilities": [float(p) for p in self.probabilities],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NullTable":
        payload = json.loads(text)
        support = np.asarray(payload["support"], dtype=np.int64)
        probabilities = np.asarray(payload["probabilities"], dtype=float)
        if support.shape != probabilities.shape:
            raise DomainError("support and probabilities disagree in length")
        return cls(
            n=int(payload["n"]),
            alpha=float(payload["alpha"]),
            q=float(payload["q"]),
            support=support,
            probabilities=probabilities,
        )


@functools.lru_cache(maxsize=128)
def null_table(n: int) -> NullTable:
    """Build (and cache) the lattice null for sample size n >= 3.

    Refuses, before allocating, a lattice of more than
    :data:`NULL_TABLE_MAX_ENTRIES` support entries.
    """
    n = int(n)
    m = n * (n - 1) // 2
    alpha = float(alpha_of_n(n))
    mu2 = float(population_variance(n))
    kurt = implied_std_kurtosis(alpha)
    q = q_from_moments(mu2, kurt * mu2 * mu2)
    smax = min(m, int(math.floor(q)))
    while smax > 0 and q * q - smax * smax <= 0.0:
        smax -= 1
    entries = 2 * smax + 1
    if entries > NULL_TABLE_MAX_ENTRIES:
        raise DomainError(
            f"exact null for n={n} needs {entries} support entries, over the "
            f"budget of {NULL_TABLE_MAX_ENTRIES}; use the normal null (--null normal)"
        )
    half = np.arange(0, smax + 1, dtype=np.int64)
    logw = alpha * np.log(q * q - half.astype(float) ** 2)
    support = np.concatenate([-half[:0:-1], half])
    logw_full = np.concatenate([logw[:0:-1], logw])
    peak = logw_full.max()
    weights = np.exp(logw_full - peak)
    probabilities = weights / weights.sum()
    return NullTable(n=n, alpha=alpha, q=q, support=support, probabilities=probabilities)


@dataclass(frozen=True)
class SpearmanNull:
    """Continuous unit-variance kernel null for z = rho_S sqrt(n - 1).

    Midpoint quadrature of (q^2 - z^2)^alpha truncated to the attainable
    band |z| <= sqrt(n - 1); the shape comes from the exact tabulated
    kurtosis, not the polynomial fit.
    """

    n: int
    alpha: float
    q: float
    grid: np.ndarray
    probabilities: np.ndarray

    @property
    def variance(self) -> float:
        return float(np.sum(self.probabilities * self.grid**2))

    def p_upper(self, z: float) -> float:
        return float(self.probabilities[self.grid > z].sum())

    def p_two_sided(self, z: float) -> float:
        p1 = self.p_upper(z)
        return 2.0 * min(p1, 1.0 - p1)


@functools.lru_cache(maxsize=32)
def spearman_null(n: int) -> SpearmanNull:
    """Build (and cache) the exact-kurtosis kernel null, 3 <= n <= 19."""
    n = int(n)
    if n < 3 or n not in SPEARMAN_STD_KURTOSIS_BY_N:
        raise DomainError("exact midrank null is tabulated for 3 <= n <= 19 only")
    kurt = SPEARMAN_STD_KURTOSIS_BY_N[n]
    alpha = alpha_from_kurtosis(kurt)
    q = math.sqrt(2.0 * alpha + 3.0)
    lim = min(q, math.sqrt(n - 1.0))
    step = 2.0 * lim / SPEARMAN_GRID_POINTS
    grid = -lim + (np.arange(SPEARMAN_GRID_POINTS) + 0.5) * step
    weights = (q * q - grid**2) ** alpha
    probabilities = weights / weights.sum()
    return SpearmanNull(n=n, alpha=alpha, q=q, grid=grid, probabilities=probabilities)


@dataclass(frozen=True)
class TestResult:
    """Outcome of a two-sided independence test.

    ``p_one_sided`` is the upper-tail probability of the observed value
    (mid-p on lattice nulls), so small values flag positive association
    and values near 1 flag negative association.
    """

    statistic: float
    p_two_sided: float
    p_one_sided: float
    method: str
    null: str
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "statistic": self.statistic,
            "p_two_sided": self.p_two_sided,
            "p_one_sided": self.p_one_sided,
            "method": self.method,
            "null": self.null,
            "details": dict(self.details),
        }


def z_kemeny(
    x: ScoreVector | Iterable[float],
    y: ScoreVector | Iterable[float],
    *,
    scale: str = "population",
    null: str = "auto",
) -> TestResult:
    """Test for order independence via the concordance count S = C - D.

    ``scale`` picks the reported statistic: "population" divides S by the
    exact population standard deviation (unit variance under the null);
    "sample" divides by sqrt(ux uy) / m with ux, uy the per-column untied
    pair counts, which is m times the tie-adjusted tau.  The p-value is
    driven by S itself against the lattice null (mid-p) when n is small
    enough ("auto": n <= EXACT_LIMIT), else by the population-calibrated z
    against a normal, so the choice of displayed scale never changes the p-value.
    """
    counts = pair_stats(x, y)
    n = counts.n
    s = counts.net_concordance
    m = counts.pair_count
    sigma0 = math.sqrt(float(population_variance(n)))
    if scale == "population":
        statistic = s / sigma0
    elif scale == "sample":
        untied_x = counts.concordant + counts.discordant + counts.tied_y
        untied_y = counts.concordant + counts.discordant + counts.tied_x
        if untied_x == 0 or untied_y == 0:
            raise DegenerateError("a column is constant: no untied pairs to scale by")
        statistic = s * m / math.sqrt(untied_x * untied_y)
    else:
        raise ValueError(f"unknown scale {scale!r}")
    if null not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown null {null!r}")
    use_exact = null == "exact" or (null == "auto" and 3 <= n <= EXACT_LIMIT)
    if use_exact:
        table = null_table(n)
        p_one = table.p_upper(s)
        null_name = "lattice"
    else:
        p_one = _normal_upper(s / sigma0)
        null_name = "normal"
    p_two = 2.0 * min(p_one, 1.0 - p_one)
    return TestResult(
        statistic=float(statistic),
        p_two_sided=p_two,
        p_one_sided=p_one,
        method="kemeny",
        null=null_name,
        details={"n": n, "net_concordance": s, "scale": scale},
    )


def _kendall_b_variance(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """Tie-adjusted null variance of C - D, from the tie blocks of x and y."""
    x, y = as_score_vector(x), as_score_vector(y)

    def block_sums(v):
        # exact Python ints (t^3 wraps int64 once a block passes ~1.66e6),
        # one term per distinct block size: at most sqrt(2n) of them
        mult = np.bincount(tie_block_sizes(v))
        t = np.flatnonzero(mult).astype(object)
        c = mult[mult > 0].astype(object)
        pairs = c * t * (t - 1)
        return int(pairs.sum()), int((pairs * (t - 2)).sum()), int((pairs * (2 * t + 5)).sum())

    tx2, tx3, vt = block_sums(x)
    ty2, ty3, vu = block_sums(y)
    n = x.n
    v0 = n * (n - 1) * (2 * n + 5)
    v1 = tx2 * ty2 / (2.0 * n * (n - 1))
    v2 = tx3 * ty3 / (9.0 * n * (n - 1) * (n - 2)) if n > 2 else 0.0
    return (v0 - vt - vu) / 18.0 + v1 + v2


def z_kendall_b(
    x: ScoreVector | Iterable[float],
    y: ScoreVector | Iterable[float],
) -> TestResult:
    """Classical tie-adjusted normal test for tau_b.

    Variance (v0 - vt - vu)/18 + v1 + v2 with the usual tie-block sums;
    degenerates (and raises) when either column is constant.
    """
    x, y = as_score_vector(x), as_score_vector(y)
    counts = pair_stats(x, y)
    n = counts.n
    s = counts.net_concordance
    variance = _kendall_b_variance(x, y)
    if variance <= 0:
        raise DegenerateError("tie structure leaves no variance for the concordance count")
    z = s / math.sqrt(variance)
    p_one = _normal_upper(z)
    return TestResult(
        statistic=float(z),
        p_two_sided=2.0 * min(p_one, 1.0 - p_one),
        p_one_sided=p_one,
        method="kendall_b",
        null="normal",
        details={"n": n, "net_concordance": s, "variance": variance},
    )


def z_spearman(
    x: ScoreVector | Iterable[float],
    y: ScoreVector | Iterable[float],
    *,
    as_ratio: bool = False,
    null: str = "auto",
) -> TestResult:
    """Test for independence via the midrank correlation.

    The calibrated statistic rho_S sqrt(n - 1) has unit variance under the
    null; ``as_ratio`` instead reports rho_S / sqrt(n - 1) (a scaling whose
    null variance shrinks like (n - 1)^-2, kept for comparison and flagged
    in the consistency report).  The p-value always comes from the
    calibrated form: kernel null when the exact kurtosis is tabulated
    (3 <= n <= 19), normal otherwise.
    """
    x, y = as_score_vector(x), as_score_vector(y)
    rho = spearman_rho(x, y)
    n = x.n
    root = math.sqrt(n - 1.0)
    z_cal = rho * root
    statistic = rho / root if as_ratio else z_cal
    if null not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown null {null!r}")
    use_exact = null == "exact" or (null == "auto" and 3 <= n <= 19)
    if use_exact:
        kernel = spearman_null(n)
        p_one = kernel.p_upper(z_cal)
        null_name = "kernel"
    else:
        p_one = _normal_upper(z_cal)
        null_name = "normal"
    p_two = 2.0 * min(p_one, 1.0 - p_one)
    return TestResult(
        statistic=float(statistic),
        p_two_sided=p_two,
        p_one_sided=p_one,
        method="spearman",
        null=null_name,
        details={"n": n, "rho": rho, "ratio_scale": bool(as_ratio)},
    )
