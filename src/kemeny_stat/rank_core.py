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
rejected at construction.  Each vector is ranked once, by one argsort and the
runs of the sorted values, into dense codes and tie-block sizes, and keeps the
summary every formula reads, each part built on first use: its rank image (the
read-only int64 counts :func:`rank_vector` returns) with its exact squared
norm, its tied-pair total T = sum t(t-1)/2 and its exact higher tie sums.  A
pair of vectors is classified once, and its counts kept while both live: the
jointly tied total from the runs of the sorted joint codes, discordances as
strict inversions of the y codes, one stable argsort per bit.  An O(n^2)
sign-matrix reference must agree with it exactly, and the two are
differentially tested.

A pair of columns enters every two-column function through one routine,
:func:`_pair`: it coerces both inputs to ScoreVectors and refuses unequal
lengths with a DataError, so each estimator, test and distance takes
array-likes or ScoreVectors alike.

A constant column is one tie block, every pair of it tied.  One rule,
:func:`_require_spread`, reads that exactly from the kept tie blocks and
refuses each estimator and test undefined there (tau_kappa and the distances
are not) with ``DegenerateError("<function> undefined: <x|y> is constant")``.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import DataError, DegenerateError, DomainError

__all__ = [
    "ESTIMATORS",
    "PAIRWISE_MAX_N",
    "ScoreVector",
    "ConcordanceCounts",
    "as_score_vector",
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
    "tie_block_sizes",
]

#: Largest n the O(n^2) route ``pair_stats(method="quadratic")`` takes.  It
#: peaks at about 6 B per n x n cell, so at most 150 MB here; past it it raises
#: DataError before allocating anything.
PAIRWISE_MAX_N: int = 5000


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """A vector of n >= 2 observations on the extended real line.

    Ties are meaningful, +-inf are legal values, NaN is refused because it
    breaks the trichotomy every pair score relies on.  Vectors compare and
    hash by identity.
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

    def __reduce__(self):
        # a copy or unpickled vector is rebuilt from its values: validated,
        # private and read-only again, with no stale cached rank summary
        return ScoreVector, (self.values,)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def pair_count(self) -> int:
        """m = n(n-1)/2, the number of unordered pairs."""
        return self.n * (self.n - 1) // 2

    @functools.cached_property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only dense codes and tie-block sizes, ranked on first use and kept
        (``values`` is a private read-only copy, so they cannot go stale)."""
        codes, sizes = _dense(self.values)
        codes.flags.writeable = sizes.flags.writeable = False
        return codes, sizes

    @functools.cached_property
    def _image(self) -> tuple[np.ndarray, int]:
        """The rank image :func:`rank_vector` returns, as read-only counts,
        and its exact squared norm; built from the tie blocks on first use."""
        codes, sizes = self.ranks
        less = np.cumsum(sizes) - sizes
        net = (self.n - sizes - less) - less  # (#greater) - (#less) per tie block
        counts = net[codes]
        counts.flags.writeable = False
        return counts, _exact_dot(counts, counts)

    @functools.cached_property
    def _tie_total(self) -> int:
        """T = sum of t(t-1)/2 over the tie-block sizes t: the pairs tied in
        this vector, read by every formula that needs them."""
        return _tied_pairs(self.ranks[1])

    @functools.cached_property
    def _tie_sums(self) -> tuple[int, int]:
        """Sums of t(t-1)(t-2) and t(t-1)(2t+5) over the tie-block sizes t,
        as exact Python ints (t^3 wraps int64 once a block passes ~1.66e6):
        one term per distinct size t >= 2, at most sqrt(2n) of them."""
        mult = np.bincount(tie_block_sizes(self))
        t3 = t5 = 0
        for t in (np.flatnonzero(mult[2:]) + 2).tolist():
            pairs = int(mult[t]) * t * (t - 1)
            t3 += pairs * (t - 2)
            t5 += pairs * (2 * t + 5)
        return t3, t5


def as_score_vector(x: ScoreVector | Iterable[float] | np.ndarray) -> ScoreVector:
    """Coerce an array-like to a validated :class:`ScoreVector`."""
    return x if isinstance(x, ScoreVector) else ScoreVector(x)


def _constant(v: ScoreVector) -> bool:
    """Whether v is one tie block, every pair tied: exact, from the kept ranks."""
    return v.ranks[1].size == 1


def _pair(x, y) -> tuple[ScoreVector, ScoreVector]:
    """The one entry for a pair of columns: both as ScoreVectors, equal in length."""
    vx, vy = as_score_vector(x), as_score_vector(y)
    if vx.n != vy.n:
        raise DataError(f"length mismatch: x has {vx.n} observations, y has {vy.n}")
    return vx, vy


def _require_spread(function: str, x: ScoreVector, y: ScoreVector) -> None:
    """The one refusal of a constant column, for what is undefined there."""
    for name, v in (("x", x), ("y", y)):
        if _constant(v):
            raise DegenerateError(f"{function} undefined: {name} is constant")


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
        total = self.concordant + self.discordant + self.tied_x + self.tied_y + self.tied_both
        if total != self.pair_count:
            raise DataError(f"pair classes sum to {total}, expected m={self.pair_count}")

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def net_concordance(self) -> int:
        """C - D, the integer sufficient statistic for every estimator here."""
        return self.concordant - self.discordant


# ----------------------------------------------------------------------------
# pair classification
# ----------------------------------------------------------------------------


def _signs(v: np.ndarray, what: str) -> np.ndarray:
    """The n x n int8 matrix sign(v_k - v_l), compared so that equal infinities
    tie.  Raises DataError naming ``what`` before allocating past PAIRWISE_MAX_N."""
    if v.size > PAIRWISE_MAX_N:
        raise DataError(
            f"{what} builds n x n arrays: n = {v.size} is past the limit "
            f"PAIRWISE_MAX_N = {PAIRWISE_MAX_N}"
        )
    s = np.greater(v[:, None], v[None, :]).view(np.int8)
    s -= np.less(v[:, None], v[None, :]).view(np.int8)
    return s


def _pair_stats_quadratic(xv: np.ndarray, yv: np.ndarray) -> ConcordanceCounts:
    """O(n^2) reference: classify every pair from the two full sign matrices, in
    which it appears twice off the diagonal; the n diagonal cells tie in both."""
    n = xv.size
    sx, sy = (_signs(v, 'pair_stats(method="quadratic")') for v in (xv, yv))
    both = sx * sy
    zx, zy = sx == 0, sy == 0
    conc = np.count_nonzero(both == 1) // 2
    disc = np.count_nonzero(both == -1) // 2
    tied_x = np.count_nonzero(zx & ~zy) // 2
    tied_y = np.count_nonzero(~zx & zy) // 2
    tied_both = (np.count_nonzero(zx & zy) - n) // 2
    return ConcordanceCounts(n, conc, disc, tied_x, tied_y, tied_both)


def _runs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run ids 0..k-1 of the nonempty sorted array s (equal neighbours share
    an id) and the k run sizes, as int64: a run mask, its running sum, and
    one bincount.  Equal infinities share a run, and so do -0.0 and 0.0."""
    ids = np.empty(s.size, dtype=np.int64)
    ids[0] = 0
    np.not_equal(s[1:], s[:-1], out=ids[1:])
    ids.cumsum(out=ids)
    return ids, np.bincount(ids)


def _dense(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes 0..k-1 of v (in value order) and its k tie-block sizes.

    The one place a column is ranked, through :attr:`ScoreVector.ranks`:
    one argsort, then the run ids of the sorted values scattered back to
    their positions.  This is numpy's sort-based unique (inverse and counts)
    without its Python-level wrapper, which dominates the cost at small n;
    the tests compare the two code for code.
    """
    order = v.argsort()
    ids, sizes = _runs(v[order])
    codes = np.empty_like(ids)
    codes[order] = ids
    return codes, sizes


def _tied_pairs(sizes: np.ndarray) -> int:
    """Sum of t(t-1)/2 over tie-block sizes t (at most n(n-1)/2, so the int64
    dot cannot wrap below n = 3e9): a column's kept
    :attr:`ScoreVector._tie_total`, and the pair kernel's jointly tied total."""
    return int(np.dot(sizes, sizes - 1)) // 2


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
        order = keys.argsort(kind="stable")
        c = codes[order]
        group = c >> (b + 1)
        bit = (c >> b) & 1
        ones_before = bit.cumsum() - bit
        ones_before -= ones_before[group.searchsorted(group)]
        total += int(ones_before[bit == 0].sum())
    return total


def _pair_stats_merge(vx: ScoreVector, vy: ScoreVector) -> ConcordanceCounts:
    """O(n log n log k) path: dense codes, block sizes, a bit-wise inversion count.

    The tied totals of x and y are the columns' kept ones; the jointly tied
    total comes from the runs of the joint codes cx * ky + cy, sorted once.
    In that order (x, then y), a discordant pair is precisely a strict
    inversion in the y codes (within an x tie block they ascend, so such
    pairs are never counted).  Concordant pairs are whatever remains of m.
    """
    m = vx.pair_count
    cx, sx = vx.ranks
    cy, sy = vy.ranks
    ky = sy.size
    joint = cx * ky + cy
    joint.sort()
    tied_pairs_both = _tied_pairs(_runs(joint)[1])
    tied_x = vx._tie_total - tied_pairs_both
    tied_y = vy._tie_total - tied_pairs_both
    discordant = _strict_inversions(joint % ky, ky, sx.size)
    concordant = m - discordant - tied_x - tied_y - tied_pairs_both
    return ConcordanceCounts(vx.n, concordant, discordant, tied_x, tied_y, tied_pairs_both)


#: Merge counts kept beside the column ranks: ``_COUNTS[x][y]`` is
#: ``pair_stats(x, y)``.  Both levels hold their vectors weakly, so an entry
#: lives exactly as long as x and y (immutable, so it cannot go stale).
_COUNTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def pair_stats(
    x: ScoreVector | Iterable[float],
    y: ScoreVector | Iterable[float],
    *,
    method: Literal["merge", "quadratic"] = "merge",
) -> ConcordanceCounts:
    """Classify all unordered pairs of (x, y) jointly.

    ``method="merge"`` is the default: dense codes plus a bit-wise inversion
    count, O(n log n log k) for k distinct y values, taken once per pair of
    :class:`ScoreVector` objects and kept while both live.  ``"quadratic"`` is
    the O(n^2) reference kept for differential testing; it neither reads nor
    stores the kept counts.  Both are exact.
    """
    vx, vy = _pair(x, y)
    if method == "quadratic":
        return _pair_stats_quadratic(vx.values, vy.values)
    if method != "merge":
        raise DomainError(f"unknown pair_stats method {method!r}")
    row = _COUNTS.get(vx)
    if row is None:
        row = _COUNTS[vx] = weakref.WeakKeyDictionary()
    counts = row.get(vy)
    if counts is None:
        counts = row[vy] = _pair_stats_merge(vx, vy)
    return counts


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
    return v.pair_count - v._tie_total


def tie_block_sizes(x: ScoreVector | Iterable[float]) -> np.ndarray:
    """Sizes of the tie blocks of x (sorted order), as a read-only int64 array."""
    return as_score_vector(x).ranks[1]


def rank_vector(x: ScoreVector | Iterable[float]) -> np.ndarray:
    """Column sums of the pair-score matrix: the Kemeny rank image of x.

    Returns the int64 counts ``#{x_k > x_l} - #{x_k < x_l}`` for each l, which
    sum to exactly 0 (skew symmetry of the pair scores); for a strict vector
    the sorted counts are n+1-2r for ranks r = 1..n.  Computed by sorting,
    not by the O(n^2) score matrix, once per :class:`ScoreVector`; the
    returned array is the kept one, read-only.
    """
    return as_score_vector(x)._image[0]


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """The exact dot product of two int64 arrays: int64 dots over chunks too
    short to wrap, added as Python ints (one dot may wrap past 2^63)."""
    bound = 1 + int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    step = max(1, np.iinfo(np.int64).max // bound)
    return sum(int(np.dot(a[i : i + step], b[i : i + step])) for i in range(0, a.size, step))


def spearman_rho(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """Spearman correlation via rank images: <x_vec, y_vec>/(|x_vec| |y_vec|).

    Because the rank image is an affine map of midranks, this equals the
    classical average-rank Spearman coefficient, ties included.  Constant
    inputs have no direction and raise.
    """
    vx, vy = _pair(x, y)
    _require_spread("spearman_rho", vx, vy)
    sxy = _exact_dot(rank_vector(vx), rank_vector(vy))
    sxx, syy = vx._image[1], vy._image[1]
    # a perfect-square product (always so for y == x) is divided by its exact
    # root, so |rho| = 1 stays exact where float(sxx * syy) would round
    prod = sxx * syy
    root = math.isqrt(prod)
    return sxy / (root if root * root == prod else math.sqrt(prod))


def arcsine_r(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """(2/pi) arcsin(rho_s): the sine-law companion scale of the Spearman form.

    Under independence its spread shrinks by a factor ~ 2/pi relative to rho_s.
    """
    vx, vy = _pair(x, y)
    _require_spread("arcsine_r", vx, vy)
    rho = min(1.0, max(-1.0, spearman_rho(vx, vy)))
    return 2.0 / math.pi * math.asin(rho)


def kendall_tau_b(
    x: ScoreVector | Iterable[float], y: ScoreVector | Iterable[float]
) -> float:
    """Tie-adjusted Kendall correlation (C - D)/sqrt((m - tx)(m - ty)).

    The per-margin denominators are exactly the untied pair counts of x and y,
    so on tie-free data tau_b == tau_kappa.  Constant inputs raise.
    """
    vx, vy = _pair(x, y)
    _require_spread("kendall_tau_b", vx, vy)
    c = pair_stats(vx, vy)
    return c.net_concordance / math.sqrt(kemeny_variance(vx) * kemeny_variance(vy))


def greiner_sin(t: float) -> float:
    """The sine map sin(pi t / 2) linking tau-scale to r-scale estimates.

    Domain [-1, 1]; fixed points -1, 0, +1.
    """
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"greiner_sin domain is [-1, 1], got {t}")
    return math.sin(math.pi * t / 2.0)


def _midranks(x) -> np.ndarray:
    """Classical average ranks, 1-based; the textbook Spearman route.

    A block of t ties ending at rank e has midrank (2e - t + 1)/2, and its
    rank-image count is n + t - 2e, so the midranks are (n + 1 - counts)/2.
    """
    v = as_score_vector(x)
    return 0.5 * (v.n + 1 - rank_vector(v))


def _classical_spearman(x, y) -> float:
    """Midrank-then-Pearson route (kept distinct from the pair-score route)."""
    vx, vy = _pair(x, y)
    _require_spread("spearman", vx, vy)
    return _corrcoef(_midranks(vx), _midranks(vy))


def _pearson(x, y) -> float:
    x, y = _pair(x, y)
    if not (np.isfinite(x.values) & np.isfinite(y.values)).all():
        raise DegenerateError("pearson undefined on +-inf; use a rank estimator like kemeny-tau")
    _require_spread("pearson", x, y)
    return _corrcoef(x.values, y.values)


def _corrcoef(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r of two finite columns with spread.  A column whose largest
    magnitude m lies outside [2^-400, 2^400] is scaled by the exact power of
    two 2^-frexp(m)[1] first, so no square overflows or underflows."""
    def scaled(v: np.ndarray) -> np.ndarray:
        m = float(np.abs(v).max())
        return v if 2.0**-400 <= m <= 2.0**400 else np.ldexp(v, -math.frexp(m)[1])
    return float(np.corrcoef(scaled(x), scaled(y))[0, 1])


#: The six-estimator family, in report order.  Each entry takes two
#: array-likes or ScoreVectors; the counting ones share the pair's one count.
ESTIMATORS = {
    "pearson": _pearson,
    "spearman": _classical_spearman,
    "kemeny-rho": spearman_rho,
    "kemeny-tau": kemeny_tau,
    "kendall-b": kendall_tau_b,
    "arcsine-r": arcsine_r,
}
