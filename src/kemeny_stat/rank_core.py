"""Kemeny-metric scoring and the rank correlation estimators built on it.

Everything in this module reduces to one primitive: score every unordered pair
(k, l) of observations with

    kappa_kl(x) = +sqrt(1/2) if x_k > x_l,  -sqrt(1/2) if x_k < x_l,  0 if tied.

The sqrt(1/2) scale is carried analytically, never stored: pair codes live in
{-1, 0, +1} and the scale reappears only where a formula needs it.  From the
joint classification of pairs (concordant / discordant / tied in x only / tied
in y only / tied in both) follow

* the affine pair distance  d(x, y) = m + (D - C)  with m = n(n-1)/2,
* the exact metric variant  d*(x, y) = 2 D + T_x + T_y   (0/1/2 per pair),
* the correlation           tau_kappa = (C - D) / m,
* the tie-aware Kendall     tau_b = (C - D) / sqrt((m - tx)(m - ty)),
* the rank image            x_vec[l] = sqrt(1/2) (#{x_k > x_l} - #{x_k < x_l}),
* and the Spearman form     rho_s = <x_vec, y_vec> / (|x_vec| |y_vec|),

which on midranks coincides with the classical average-rank Spearman
coefficient.  The affine distance is affine rather than metric: two identical
all-tied vectors sit at distance m, not 0.  The exact variant d* repairs that
(it is a true metric) and the two are linked by d = d* + T_xy.

Inputs may contain +inf/-inf (they order and tie like any other value); NaN is
rejected at construction.  Each vector is ranked once into dense codes and
tie-block sizes; pair classification reads tie totals from block sizes and
counts discordances as strict inversions of the y codes, one stable argsort
per bit of the codes.  An O(n^2) sign-matrix reference implementation must
agree with it exactly and the two are differentially tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import DataError, DegenerateError, DomainError

__all__ = [
    "SCALE",
    "PAIRWISE_MAX_N",
    "ScoreVector",
    "PairSigns",
    "ConcordanceCounts",
    "RankVector",
    "as_score_vector",
    "pair_signs",
    "pair_stats",
    "kemeny_distance_affine",
    "kemeny_distance_exact",
    "kemeny_tau",
    "kemeny_variance",
    "rank_vector",
    "spearman_rho",
    "spearman_distance",
    "arcsine_r",
    "kendall_tau_b",
    "greiner_sin",
    "tie_block_sizes",
]

#: The analytic scale sqrt(1/2) of a single pair score.
SCALE: float = math.sqrt(0.5)

#: Largest n the O(n^2) routes take: :func:`pair_signs`,
#: ``pair_stats(method="quadratic")`` and ``multivar.hoeffding_h``.  They peak
#: at 17-32 B per n x n cell, so at most about 0.8 GB here; past it they raise
#: DataError before allocating anything.
PAIRWISE_MAX_N: int = 5000


@dataclass(frozen=True)
class ScoreVector:
    """A vector of n >= 2 observations on the extended real line.

    Ties are meaningful, +-inf are legal values, NaN is refused because it
    breaks the trichotomy every pair score relies on.
    """

    values: np.ndarray

    def __init__(self, values: Iterable[float] | np.ndarray) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise DataError(f"score vector must be 1-d, got shape {arr.shape}")
        if arr.size < 2:
            raise DataError(
                f"need at least 2 observations for pair structure, got {arr.size}"
            )
        if np.isnan(arr).any():
            bad = int(np.flatnonzero(np.isnan(arr))[0])
            raise DataError(f"NaN at position {bad}; NaN values are rejected")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def pair_count(self) -> int:
        """m = n(n-1)/2, the number of unordered pairs."""
        return self.n * (self.n - 1) // 2


def as_score_vector(x: ScoreVector | Iterable[float] | np.ndarray) -> ScoreVector:
    """Coerce an array-like to a validated :class:`ScoreVector`."""
    return x if isinstance(x, ScoreVector) else ScoreVector(x)


@dataclass(frozen=True)
class PairSigns:
    """Signs of all unordered pairs of one vector, in (k, l), k < l lex order.

    ``codes[p] = sign(x_k - x_l)`` as an int8 in {-1, 0, +1}; the sqrt(1/2)
    magnitude of the underlying score is applied analytically where needed.
    """

    n: int
    codes: np.ndarray

    def __post_init__(self) -> None:
        m = self.n * (self.n - 1) // 2
        if self.codes.size != m:
            raise DataError(
                f"expected {m} pair codes for n={self.n}, got {self.codes.size}"
            )


@dataclass(frozen=True)
class ConcordanceCounts:
    """Joint pair classification of two equal-length vectors.

    The five counts partition the m = n(n-1)/2 unordered pairs:
    ``concordant + discordant + tied_x + tied_y + tied_both == m``.
    ``tied_x`` counts pairs tied in x only, ``tied_both`` pairs tied in both.
    """

    n: int
    concordant: int
    discordant: int
    tied_x: int
    tied_y: int
    tied_both: int

    def __post_init__(self) -> None:
        total = (
            self.concordant
            + self.discordant
            + self.tied_x
            + self.tied_y
            + self.tied_both
        )
        if total != self.pair_count:
            raise DataError(
                f"pair classes sum to {total}, expected m={self.pair_count}"
            )

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def net_concordance(self) -> int:
        """C - D, the integer sufficient statistic for every estimator here."""
        return self.concordant - self.discordant


@dataclass(frozen=True)
class RankVector:
    """The Kemeny rank image of a vector.

    ``counts[l] = #{x_k > x_l} - #{x_k < x_l}`` are integers summing to
    exactly 0 (skew symmetry of the pair scores); ``entries`` are the
    sqrt(1/2)-scaled values used by the Spearman-form estimator.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        if int(self.counts.sum()) != 0:
            raise DataError("rank vector counts must sum to 0")

    @property
    def entries(self) -> np.ndarray:
        return SCALE * self.counts.astype(float)


# ----------------------------------------------------------------------------
# pair classification
# ----------------------------------------------------------------------------


def _refuse_pairwise(n: int, what: str) -> None:
    """Raise DataError before an O(n^2) route allocates past PAIRWISE_MAX_N."""
    if n > PAIRWISE_MAX_N:
        raise DataError(
            f"{what} builds n x n arrays: n = {n} is past the limit "
            f"PAIRWISE_MAX_N = {PAIRWISE_MAX_N}"
        )


def pair_signs(x: ScoreVector | Iterable[float]) -> PairSigns:
    """Score all unordered pairs of ``x``; codes in {-1, 0, +1}, lex order."""
    v = as_score_vector(x).values
    n = v.size
    _refuse_pairwise(n, "pair_signs")
    iu, ju = np.triu_indices(n, k=1)
    # sign of a difference involving equal infinities would be NaN via
    # subtraction, so compare rather than subtract
    codes = (v[iu] > v[ju]).astype(np.int8) - (v[iu] < v[ju]).astype(np.int8)
    return PairSigns(n=int(n), codes=codes)


def _pair_stats_quadratic(xv: np.ndarray, yv: np.ndarray) -> ConcordanceCounts:
    """O(n^2) reference: classify every pair from full sign matrices."""
    n = xv.size
    _refuse_pairwise(n, 'pair_stats(method="quadratic")')
    sx = (xv[:, None] > xv[None, :]).astype(np.int8) - (
        xv[:, None] < xv[None, :]
    ).astype(np.int8)
    sy = (yv[:, None] > yv[None, :]).astype(np.int8) - (
        yv[:, None] < yv[None, :]
    ).astype(np.int8)
    iu = np.triu_indices(n, k=1)
    px, py = sx[iu].astype(np.int64), sy[iu].astype(np.int64)
    conc = int(np.count_nonzero(px * py == 1))
    disc = int(np.count_nonzero(px * py == -1))
    tied_x = int(np.count_nonzero((px == 0) & (py != 0)))
    tied_y = int(np.count_nonzero((px != 0) & (py == 0)))
    tied_both = int(np.count_nonzero((px == 0) & (py == 0)))
    return ConcordanceCounts(int(n), conc, disc, tied_x, tied_y, tied_both)


def _dense(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes 0..k-1 of v (in value order) and its k tie-block sizes.

    The one place values are ranked: every tie count, concordance count and
    rank image in this module is read from these two arrays.
    """
    _, codes, sizes = np.unique(v, return_inverse=True, return_counts=True)
    return codes.astype(np.int64, copy=False), sizes.astype(np.int64, copy=False)


def _tied_pairs(sizes: np.ndarray) -> int:
    """Sum of t(t-1)/2 over tie-block sizes t."""
    return int((sizes * (sizes - 1) // 2).sum())


def _strict_inversions(codes: np.ndarray, k: int, runs: int) -> int:
    """Pairs (i < j) with codes[i] > codes[j], for integer codes in [0, k)
    that form at most ``runs`` ascending runs.

    Two unequal codes first differ at one bit b.  Grouping the elements by
    their bits above b (stable, so positions keep their order), every 1 at
    bit b that precedes a 0 in its group is an inversion decided at b; equal
    codes never differ, so they are never counted.  One stable argsort per
    bit: O(n log n log k).  Timsort merges a few runs fastest; past 16 runs,
    keys whose bits above b fit 16 bits are cast down, which numpy
    radix-sorts instead (twice as fast on tie-free data).
    """
    radix = runs > 16
    total = 0
    for b in range(int(k - 1).bit_length()):
        keys = codes >> (b + 1)
        top = (k - 1) >> (b + 1)
        if radix and top <= 0xFFFF:
            keys = keys.astype(np.min_scalar_type(top))
        order = np.argsort(keys, kind="stable")
        c = codes[order]
        group = c >> (b + 1)
        bit = (c >> b) & 1
        ones_before = np.cumsum(bit) - bit
        ones_before -= ones_before[np.searchsorted(group, group)]
        total += int(ones_before[bit == 0].sum())
    return total


def _pair_stats_merge(xv: np.ndarray, yv: np.ndarray) -> ConcordanceCounts:
    """O(n log n log k) path: dense codes, block sizes, a bit-wise inversion count.

    Tie-pair totals come from the block sizes of the x codes, the y codes and
    the joint codes cx * ky + cy.  After sorting by the joint code (x, then y),
    a discordant pair is precisely a strict inversion in the y codes (within
    an x tie block they ascend, so such pairs are never counted).  Concordant
    pairs are whatever remains of m.
    """
    n = xv.size
    m = n * (n - 1) // 2
    cx, sx = _dense(xv)
    cy, sy = _dense(yv)
    ky = sy.size
    joint = cx * ky + cy
    tied_pairs_both = _tied_pairs(_dense(joint)[1])
    tied_x = _tied_pairs(sx) - tied_pairs_both
    tied_y = _tied_pairs(sy) - tied_pairs_both
    discordant = _strict_inversions(np.sort(joint) % ky, ky, sx.size)
    concordant = m - discordant - tied_x - tied_y - tied_pairs_both
    return ConcordanceCounts(
        int(n), concordant, discordant, tied_x, tied_y, tied_pairs_both
    )


def pair_stats(
    x: ScoreVector | Iterable[float],
    y: ScoreVector | Iterable[float],
    *,
    method: Literal["merge", "quadratic"] = "merge",
) -> ConcordanceCounts:
    """Classify all unordered pairs of (x, y) jointly.

    ``method="merge"`` is the default: dense codes plus a bit-wise inversion
    count, O(n log n log k) for k distinct y values.  ``"quadratic"`` is the
    O(n^2) reference kept for differential testing.  Both are exact.
    """
    vx = as_score_vector(x)
    vy = as_score_vector(y)
    if vx.n != vy.n:
        raise DataError(f"length mismatch: x has {vx.n} observations, y has {vy.n}")
    if method == "quadratic":
        return _pair_stats_quadratic(vx.values, vy.values)
    if method == "merge":
        return _pair_stats_merge(vx.values, vy.values)
    raise DomainError(f"unknown pair_stats method {method!r}")


# ----------------------------------------------------------------------------
# distances and correlations
# ----------------------------------------------------------------------------


def kemeny_distance_affine(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> int:
    """Affine pair distance d(x, y) = m + (D - C), an integer in [0, n^2 - n].

    0 iff the vectors induce identical strict orders; maximal iff exact
    reversals.  Affine, not metric: d(x, x) = m - (# untied pairs), so two
    identical all-tied vectors sit at distance m.  See
    :func:`kemeny_distance_exact` for the metric variant.
    """
    c = pair_stats(x, y)
    return c.pair_count + c.discordant - c.concordant


def kemeny_distance_exact(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> int:
    """Exact-metric pair distance: per pair 0 (same relation), 1 (decided vs
    tied), or 2 (opposite decisions); summed.

    Equals ``kemeny_distance_affine(x, y) - tied_both`` and satisfies the
    metric axioms, including d*(x, x) = 0 for tied inputs.
    """
    c = pair_stats(x, y)
    return 2 * c.discordant + c.tied_x + c.tied_y


def kemeny_tau(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """tau_kappa = (C - D) / m, in [-1, 1].

    The m denominator is tie-free, so any tie shrinks |tau_kappa|; against a
    constant vector the estimator is 0, not undefined.
    """
    c = pair_stats(x, y)
    return c.net_concordance / c.pair_count


def kemeny_variance(x: ScoreVector | Iterable[float]) -> int:
    """Sum of squared pair scores: the number of untied unordered pairs.

    Each untied pair contributes 2 * (1/2) across its two ordered slots.
    Equals m iff x is tie-free and 0 iff x is constant.
    """
    v = as_score_vector(x)
    return v.pair_count - _tied_pairs(_dense(v.values)[1])


def tie_block_sizes(x: ScoreVector | Iterable[float]) -> np.ndarray:
    """Sizes of the tie blocks of x (sorted order), as an int64 array."""
    return _dense(as_score_vector(x).values)[1]


def rank_vector(x: ScoreVector | Iterable[float]) -> RankVector:
    """Column sums of the pair-score matrix: the Kemeny rank image of x.

    ``counts[l] = #{x_k > x_l} - #{x_k < x_l}``; for a strict vector the
    sorted counts are n+1-2r for ranks r = 1..n.  Computed by sorting, not by
    the O(n^2) score matrix.
    """
    v = as_score_vector(x)
    codes, sizes = _dense(v.values)
    less = np.cumsum(sizes) - sizes
    net = (v.n - sizes - less) - less  # (#greater) - (#less) per tie block
    return RankVector(counts=net[codes])


def _rank_dots(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> tuple[int, int, int]:
    kx = rank_vector(x).counts
    ky = rank_vector(y).counts
    if kx.size != ky.size:
        raise DataError(
            f"length mismatch: x has {kx.size} observations, y has {ky.size}"
        )
    # integer sufficient statistics, exact at any n: |counts| < n, so an
    # int64 dot over `step` entries cannot wrap, and the chunks add as Python
    # ints (one int64 dot would wrap past n ~ 3e6)
    n = kx.size
    step = max(1, np.iinfo(np.int64).max // (n * n))

    def dot(a: np.ndarray, b: np.ndarray) -> int:
        return sum(int(np.dot(a[i : i + step], b[i : i + step])) for i in range(0, n, step))

    return dot(kx, ky), dot(kx, kx), dot(ky, ky)


def spearman_rho(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """Spearman correlation via rank images: <x_vec, y_vec>/(|x_vec| |y_vec|).

    Because the rank image is an affine map of midranks, this equals the
    classical average-rank Spearman coefficient, ties included.  Constant
    inputs have no direction and raise.
    """
    sxy, sxx, syy = _rank_dots(x, y)
    if sxx == 0 or syy == 0:
        which = "x" if sxx == 0 else "y"
        raise DegenerateError(
            f"spearman_rho undefined: {which} is constant (zero rank variance)"
        )
    # a perfect-square product (always so for y == x) is divided by its exact
    # root, so |rho| = 1 stays exact where float(sxx * syy) would round
    prod = sxx * syy
    root = math.isqrt(prod)
    return sxy / (root if root * root == prod else math.sqrt(prod))


def spearman_distance(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """Euclidean distance on normalized rank images: sqrt(2) sqrt(1 - rho_s).

    0 at rho_s = 1, 2 at rho_s = -1.
    """
    rho = spearman_rho(x, y)
    return math.sqrt(2.0) * math.sqrt(max(0.0, 1.0 - rho))


def arcsine_r(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """(2/pi) arcsin(rho_s): the sine-law companion scale of the Spearman form.

    Under independence its spread shrinks by a factor ~ 2/pi relative to rho_s.
    """
    rho = min(1.0, max(-1.0, spearman_rho(x, y)))
    return 2.0 / math.pi * math.asin(rho)


def kendall_tau_b(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """Tie-adjusted Kendall correlation (C - D)/sqrt((m - tx)(m - ty)).

    The per-margin denominators are exactly the untied pair counts of x and y,
    so on tie-free data tau_b == tau_kappa.  Constant inputs raise.
    """
    return _tau_b(pair_stats(x, y))


def _tau_b(c: ConcordanceCounts) -> float:
    """:func:`kendall_tau_b` from pair counts already taken."""
    m = c.pair_count
    untied_x = m - c.tied_x - c.tied_both
    untied_y = m - c.tied_y - c.tied_both
    if untied_x == 0 or untied_y == 0:
        which = "x" if untied_x == 0 else "y"
        raise DegenerateError(
            f"kendall_tau_b undefined: {which} is constant (all pairs tied)"
        )
    return c.net_concordance / math.sqrt(untied_x * untied_y)


def greiner_sin(t: float) -> float:
    """The sine map sin(pi t / 2) linking tau-scale to r-scale estimates.

    Domain [-1, 1]; fixed points -1, 0, +1.
    """
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"greiner_sin domain is [-1, 1], got {t}")
    return math.sin(math.pi * t / 2.0)
