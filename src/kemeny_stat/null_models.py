"""Finite-sample null distributions and z tests for the rank statistics.

The centred concordance count S = C - D of two independent columns drawn
uniformly from the tied permutation population has mean zero, the exact
variance given by :func:`population_variance`, and a symmetric platykurtic
shape that a two-parameter power kernel (q^2 - s^2)^alpha captures on the
integer lattice |s| <= m.  The null of the midrank correlation is the same
kernel on a quadrature grid of z = rho_S sqrt(n - 1).  This module has one
null type, :class:`NullTable`, and one builder that evaluates the kernel in
log space on a support; :func:`null_table` and :func:`spearman_null` only
choose the support and the shape.  It also holds the z tests that consume
them.  Everything here is closed-form or quadrature; the
transcribed and fitted formulas the report audits, and the enumeration
cross-checks, live in tests and in :mod:`kemeny_stat.consistency`.

One rule, :func:`_exact_null`, says which finite-sample null a method has
at n and why ``null="auto"`` would skip it; one routine, :func:`_test`,
turns S or its unit-variance z into p-values against the null it picks.
The three z tests only compute their statistic and call it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Iterable

import numpy as np

from .errors import DegenerateError, DomainError
from .rank_core import ScoreVector, as_score_vector, pair_stats, spearman_rho
from .reference import SPEARMAN_STD_KURTOSIS_BY_N

__all__ = [
    "population_variance",
    "alpha_of_n",
    "alpha_from_kurtosis",
    "implied_std_kurtosis",
    "q_from_moments",
    "NullTable",
    "null_table",
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
#: peaks at 16 B per entry (the support and the probabilities it keeps), so
#: this is about 134 MB, reached near n = 2900.
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


def alpha_of_n(n: int) -> Fraction:
    """Shape parameter of the lattice null at sample size n, exact.

    (n-1)(9n^3 - 4n^2 - 14n + 8) / (2(n-2)(4n^2 + 9n - 4)).  This is the
    unique symmetric beta-binomial shape on n^2 - n trials whose variance
    reproduces :func:`population_variance`; see
    :func:`kemeny_stat.consistency.beta_binomial_variance`.
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


def _normal_upper(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class NullTable:
    """A symmetric power-kernel null: probabilities follow (q^2 - x^2)^alpha
    on the ascending ``support``, renormalised.

    :func:`null_table` puts it on the integer lattice |s| <= m of the
    centred concordance count at sample size n; :func:`spearman_null` on a
    midpoint grid of z = rho_S sqrt(n - 1).  The table owns its arrays: it
    marks them read-only, since it caches moments computed from them.
    """

    n: int
    alpha: float
    q: float
    support: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        support, probabilities = np.asarray(self.support), np.asarray(self.probabilities)
        if support.shape != probabilities.shape:
            raise DomainError("support and probabilities disagree in length")
        support.flags.writeable = probabilities.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probabilities", probabilities)

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, so they are
        # checked and read-only again and carry no cached moments
        return NullTable, (self.n, self.alpha, self.q, self.support, self.probabilities)

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    # each moment is a pass over the support: computed once per table
    @functools.cached_property
    def variance(self) -> float:
        s = self.support.astype(float)
        return float(np.sum(self.probabilities * s * s))

    @functools.cached_property
    def std_kurtosis(self) -> float:
        s2 = self.support.astype(float)
        s2 *= s2
        mu4 = float(np.sum(self.probabilities * (s2 * s2)))
        return mu4 / (self.variance * self.variance)

    @property
    def excess_kurtosis(self) -> float:
        return self.std_kurtosis - 3.0

    def p_upper(self, x: float) -> float:
        """Upper-tail mid-p: P(X > x) + P(X = x)/2."""
        above = float(self.probabilities[self.support > x].sum())
        return above + 0.5 * float(self.probabilities[self.support == x].sum())

    def p_two_sided(self, x: float) -> float:
        p1 = self.p_upper(x)
        return 2.0 * min(p1, 1.0 - p1)

    def quantile(self, p: float) -> float:
        """Smallest support value whose CDF reaches p (an int on the lattice)."""
        if not 0.0 < p <= 1.0:
            raise DomainError("quantile level must lie in (0, 1]")
        cdf = np.cumsum(self.probabilities)
        idx = int(np.searchsorted(cdf, p, side="left"))
        idx = min(idx, self.support.size - 1)
        return self.support[idx].item()

    def standardized_cutoff(self, level: float = 0.05) -> float:
        """Upper quantile at 1 - level/2, on the unit-variance scale."""
        if not 0.0 < level < 1.0:
            raise DomainError(f"two-sided level must lie in (0, 1), got {level}")
        return self.quantile(1.0 - level / 2.0) / math.sqrt(self.variance)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "pair_count": self.pair_count,
            "alpha": self.alpha,
            "q": self.q,
            "support": self.support.tolist(),
            "probabilities": self.probabilities.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NullTable":
        payload = json.loads(text)
        return cls(
            n=int(payload["n"]),
            alpha=float(payload["alpha"]),
            q=float(payload["q"]),
            support=payload["support"],
            probabilities=payload["probabilities"],
        )


def _power_kernel(n: int, alpha: float, q: float, support: np.ndarray) -> NullTable:
    """The null with probabilities (q^2 - x^2)^alpha on ``support``, |x| < q.

    Built in log space, so a large alpha cannot overflow, in one float buffer
    updated in place; x^2 is exact on the lattice, so there p[i] == p[-1 - i]
    bit for bit.
    """
    p = support.astype(float)
    p *= p
    np.subtract(q * q, p, out=p)
    np.log(p, out=p)
    p *= alpha
    p -= p.max()
    np.exp(p, out=p)
    p /= p.sum()
    return NullTable(n=n, alpha=alpha, q=q, support=support, probabilities=p)


# eight tables at the entry budget keep about 1.1 GB
@functools.lru_cache(maxsize=8)
def null_table(n: int) -> NullTable:
    """Build (and cache) the lattice null for sample size n >= 3.

    Refuses, before any float arithmetic or allocation, a lattice of more than
    :data:`NULL_TABLE_MAX_ENTRIES` support entries.  The support is |s| <= m,
    2m + 1 entries, so the budget is checked on that exact integer.  The
    kernel's half-width q never cuts it short: q^2 = mu2 (2 alpha + 3)
    exceeds m^2 at every n >= 3.
    """
    n = int(n)
    m = n * (n - 1) // 2
    alpha = alpha_of_n(n)  # raises below n = 3
    if 2 * m + 1 > NULL_TABLE_MAX_ENTRIES:
        raise DomainError(
            f"exact null for n={n} needs {2 * m + 1} support entries, over the "
            f"budget of {NULL_TABLE_MAX_ENTRIES}; use the normal null (--null normal)"
        )
    alpha = float(alpha)
    mu2 = float(population_variance(n))
    kurt = implied_std_kurtosis(alpha)
    q = q_from_moments(mu2, kurt * mu2 * mu2)
    return _power_kernel(n, alpha, q, np.arange(-m, m + 1, dtype=np.int64))


@functools.lru_cache(maxsize=32)
def spearman_null(n: int) -> NullTable:
    """Build (and cache) the unit-variance kernel null for z = rho_S sqrt(n - 1),
    at the n where :func:`_exact_null` finds the exact kurtosis tabulated.

    The support is the midpoint quadrature grid of the attainable band
    |z| <= sqrt(n - 1), cut to |z| < q; the shape comes from the exact
    tabulated kurtosis, not the polynomial fit.
    """
    n = int(n)
    if _exact_null("spearman", n)[1] is not None:
        raise DomainError(
            f"exact midrank null is tabulated for 3 <= n <= {max(SPEARMAN_STD_KURTOSIS_BY_N)} only"
        )
    alpha = alpha_from_kurtosis(SPEARMAN_STD_KURTOSIS_BY_N[n])
    q = math.sqrt(2.0 * alpha + 3.0)
    lim = min(q, math.sqrt(n - 1.0))
    step = 2.0 * lim / SPEARMAN_GRID_POINTS
    grid = -lim + (np.arange(SPEARMAN_GRID_POINTS) + 0.5) * step
    return _power_kernel(n, alpha, q, grid)


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
        return asdict(self)


def _exact_null(method: str, n: int) -> tuple[str | None, str | None]:
    """The finite-sample null of ``method`` at n, and why "auto" skips it.

    ``method`` is a :attr:`TestResult.method`.  The null is the one
    ``null="exact"`` asks for: the lattice for kemeny, the kernel for spearman,
    none for kendall_b.  The reason is None where "auto" uses that null;
    otherwise it says why not, as the CLI prints it beside an n/a exact p.
    """
    if method == "kemeny":
        if n < 3:
            return "lattice", "no lattice null below n = 3"
        if n > EXACT_LIMIT:
            return "lattice", f"n = {n} > exact limit {EXACT_LIMIT}; --null exact builds it"
        return "lattice", None
    if method == "spearman":
        # n = 2 is tabulated too, but its kurtosis of 1 admits no kernel
        if n >= 3 and n in SPEARMAN_STD_KURTOSIS_BY_N:
            return "kernel", None
        return "kernel", f"n = {n} outside the tabulated 3..{max(SPEARMAN_STD_KURTOSIS_BY_N)}"
    if method == "kendall_b":
        return None, "no exact null"
    raise ValueError(f"no null rule for method {method!r}")


def _test(
    method: str, statistic: float, n: int, s: int | None, z: float, null: str, details: dict
) -> TestResult:
    """Two-sided test of S = C - D (``s``) or of its unit-variance form ``z``.

    ``statistic`` is only reported.  "auto" takes the null :func:`_exact_null`
    names unless it gives a reason to skip it; "exact" takes that null
    wherever it can be built, and is refused where it names none.  The
    lattice reads the mid-p of S, the kernel the mid-p of z on its grid, and
    the normal the upper tail of z.
    """
    if null not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown null {null!r}")
    name, skipped = _exact_null(method, n)
    if null == "exact" and name is None:
        raise DomainError(f"{method} has {skipped}; use --null auto or normal")
    if null == "normal" or (null == "auto" and skipped is not None):
        name, p_one = "normal", _normal_upper(z)
    else:
        # the builder is looked up at call time, so a rebound one is seen
        build, x = (null_table, s) if name == "lattice" else (spearman_null, z)
        p_one = build(n).p_upper(x)
    return TestResult(
        statistic=float(statistic),
        p_two_sided=2.0 * min(p_one, 1.0 - p_one),
        p_one_sided=p_one,
        method=method,
        null=name,
        details=details,
    )


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
    driven by S itself against the lattice null (mid-p) where "auto" takes
    it (n from 3 to EXACT_LIMIT), else by the population-calibrated z
    against a normal, so the choice of displayed scale never changes the p-value.
    """
    counts = pair_stats(x, y)
    n = counts.n
    s = counts.net_concordance
    z = s / math.sqrt(float(population_variance(n)))
    if scale == "population":
        statistic = z
    elif scale == "sample":
        if counts.untied_x == 0 or counts.untied_y == 0:
            raise DegenerateError("a column is constant: no untied pairs to scale by")
        statistic = s * counts.pair_count / math.sqrt(counts.untied_x * counts.untied_y)
    else:
        raise ValueError(f"unknown scale {scale!r}")
    return _test("kemeny", statistic, n, s, z, null, {"n": n, "net_concordance": s, "scale": scale})


def _kendall_b_variance(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """Tie-adjusted null variance of C - D, from the tie sums of x and y."""
    x, y = as_score_vector(x), as_score_vector(y)
    tx2, tx3, vt = x._tie_sums
    ty2, ty3, vu = y._tie_sums
    n = x.n
    v0 = n * (n - 1) * (2 * n + 5)
    v1 = tx2 * ty2 / (2.0 * n * (n - 1))
    v2 = tx3 * ty3 / (9.0 * n * (n - 1) * (n - 2)) if n > 2 else 0.0
    return (v0 - vt - vu) / 18.0 + v1 + v2


def z_kendall_b(
    x: ScoreVector | Iterable[float],
    y: ScoreVector | Iterable[float],
    *,
    null: str = "auto",
) -> TestResult:
    """Classical tie-adjusted normal test for tau_b.

    Variance (v0 - vt - vu)/18 + v1 + v2 with the usual tie-block sums;
    degenerates (and raises) when either column is constant.  The normal is
    its only null: "auto" and "normal" take it, "exact" raises DomainError.
    """
    x, y = as_score_vector(x), as_score_vector(y)
    counts = pair_stats(x, y)
    n = counts.n
    s = counts.net_concordance
    variance = _kendall_b_variance(x, y)
    if variance <= 0:
        raise DegenerateError("tie structure leaves no variance for the concordance count")
    z = s / math.sqrt(variance)
    return _test("kendall_b", z, n, s, z, null, {"n": n, "net_concordance": s, "variance": variance})


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
    calibrated form: kernel null where the exact kurtosis is tabulated,
    normal otherwise.
    """
    x, y = as_score_vector(x), as_score_vector(y)
    rho = spearman_rho(x, y)
    n = x.n
    root = math.sqrt(n - 1.0)
    z = rho * root
    statistic = rho / root if as_ratio else z
    return _test("spearman", statistic, n, None, z, null, {"n": n, "rho": rho, "ratio_scale": bool(as_ratio)})
