"""Pair scoring, distances, and the estimator family.

Expected values in the oracle tests were derived by hand from the pair
definitions (every pair enumerated on paper) or cross-checked against
scipy's independent implementations before being frozen here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from kemeny_stat import (
    SCALE,
    DataError,
    DegenerateError,
    DomainError,
    ScoreVector,
    arcsine_r,
    greiner_sin,
    kemeny_distance_affine,
    kemeny_distance_exact,
    kemeny_tau,
    kemeny_variance,
    kendall_tau_b,
    pair_signs,
    pair_stats,
    rank_vector,
    spearman_rho,
    spearman_distance,
)
from kemeny_stat import rank_core
from kemeny_stat.rank_core import tie_block_sizes

from conftest import fuzz_pair

INF = float("inf")


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


class TestScoreVector:
    def test_rejects_nan(self):
        with pytest.raises(DataError, match="NaN"):
            ScoreVector([1.0, float("nan"), 2.0])

    def test_rejects_singleton(self):
        with pytest.raises(DataError, match="at least 2"):
            ScoreVector([1.0])

    def test_rejects_matrix(self):
        with pytest.raises(DataError):
            ScoreVector(np.ones((2, 2)))

    def test_accepts_infinities(self):
        v = ScoreVector([1.0, -INF, INF])
        assert v.n == 3 and v.pair_count == 3

    def test_values_read_only(self):
        v = ScoreVector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            pair_stats([1, 2, 3], [1, 2])


class TestPairSigns:
    def test_strict_vector(self):
        # pairs in lex order: (1,2),(1,3),(2,3)
        assert pair_signs([1, 2, 3]).codes.tolist() == [-1, -1, -1]

    def test_with_ties(self):
        assert pair_signs([2, 2, 1]).codes.tolist() == [0, 1, 1]

    def test_with_infinities(self):
        # (1,-inf): +1, (1,+inf): -1, (-inf,+inf): -1
        assert pair_signs([1.0, -INF, INF]).codes.tolist() == [1, -1, -1]

    def test_tied_infinities(self):
        assert pair_signs([INF, INF]).codes.tolist() == [0]

    def test_codes_are_int8(self):
        assert pair_signs([3, 1, 2]).codes.dtype == np.int8


# ---------------------------------------------------------------------------
# pair classification: hand-enumerated oracles
# ---------------------------------------------------------------------------


class TestPairStats:
    def test_hand_enumeration(self):
        # x=(1,2,3), y=(1,1,2): pair (1,2) tied in y; (1,3),(2,3) concordant
        c = pair_stats([1, 2, 3], [1, 1, 2])
        assert (c.concordant, c.discordant) == (2, 0)
        assert (c.tied_x, c.tied_y, c.tied_both) == (0, 1, 0)

    def test_reversal(self):
        c = pair_stats([1, 2, 3, 4], [4, 3, 2, 1])
        assert c.discordant == 6 and c.concordant == 0

    def test_all_tied_both(self):
        c = pair_stats([5, 5, 5], [2, 2, 2])
        assert c.tied_both == 3 and c.net_concordance == 0

    def test_partition_invariant(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            x, y = fuzz_pair(rng)
            c = pair_stats(x, y)
            total = c.concordant + c.discordant + c.tied_x + c.tied_y + c.tied_both
            assert total == c.pair_count

    def test_merge_equals_quadratic(self):
        """Differential test: the two classification paths agree exactly."""
        rng = np.random.default_rng(7)
        pairs = [fuzz_pair(rng, n_hi=40) for _ in range(400)]
        # level counts on both sides of the bit boundaries of the dense codes
        for k in (2, 3, 4, 5, 8, 9, 16, 17):
            pairs.append(tuple(rng.permutation(np.arange(60) % k) for _ in range(2)))
        pairs += [([4.0] * 7, [1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 3.0]), ([5.0] * 5, [5.0] * 5)]
        pairs += [([1.0, 2.0], [2.0, 1.0]), ([1.0, 1.0], [0.0, 2.0]), ([0.0, -0.0], [INF, -INF])]
        signed = np.array([-INF, -0.0, 0.0, INF, -INF, 0.0, 1.0, -0.0, INF, -1.0])
        pairs += [(signed, signed[::-1]), (rng.permutation(signed), signed)]
        likert = rng.integers(1, 6, size=(2000, 2)).astype(float)
        pairs += [
            (likert[:, 0], likert[:, 1]),
            (likert[:, 0], rng.standard_normal(2000)),
            (rng.standard_normal(2000), rng.integers(0, 1500, 2000).astype(float)),
        ]
        # y level counts at the uint8 / uint16 key boundaries of the bit sorts
        for k in (255, 256, 257, 513):
            pairs.append((rng.standard_normal(2000), rng.permutation(np.arange(2000) % k)))
        for x, y in pairs:
            assert pair_stats(x, y, method="merge") == pair_stats(
                x, y, method="quadratic"
            )

    def test_tie_free_past_16_bit_keys_matches_scipy(self):
        # 140_000 levels: the top bit level keeps int64 keys, the rest radix-sort
        rng = np.random.default_rng(17)
        n = 140_000
        x = rng.standard_normal(n)
        y = 0.4 * x + rng.standard_normal(n)
        c = pair_stats(x, y)
        assert (c.tied_x, c.tied_y, c.tied_both) == (0, 0, 0)
        assert c.net_concordance == round(scipy.stats.kendalltau(x, y).statistic * c.pair_count)

    def test_pairwise_routes_refuse_large_n(self, monkeypatch):
        monkeypatch.setattr(rank_core, "PAIRWISE_MAX_N", 10)
        x = np.arange(11.0)
        with pytest.raises(DataError, match="n = 11"):
            pair_signs(x)
        with pytest.raises(DataError, match="n = 11"):
            pair_stats(x, x, method="quadratic")
        assert pair_stats(x, x).concordant == 55
        assert pair_signs(x[:10]).codes.size == 45

    def test_symmetry_swaps_tie_roles(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = fuzz_pair(rng)
            a, b = pair_stats(x, y), pair_stats(y, x)
            assert (a.concordant, a.discordant) == (b.concordant, b.discordant)
            assert (a.tied_x, a.tied_y) == (b.tied_y, b.tied_x)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


class TestDistances:
    def test_identical_strict_distance_zero(self):
        assert kemeny_distance_affine([1, 2, 3], [10, 20, 30]) == 0

    def test_reversal_is_maximal(self):
        n = 4
        assert kemeny_distance_affine([1, 2, 3, 4], [4, 3, 2, 1]) == n * n - n

    def test_decided_vs_tied_pair(self):
        assert kemeny_distance_affine([1, 2], [1, 1]) == 1

    def test_affine_quirk_identical_tied_vectors(self):
        # the affine form does NOT vanish on identical tied vectors
        assert kemeny_distance_affine([1, 1], [1, 1]) == 1
        assert kemeny_distance_exact([1, 1], [1, 1]) == 0

    def test_exact_per_pair_costs(self):
        assert kemeny_distance_exact([1, 2], [2, 1]) == 2  # opposite
        assert kemeny_distance_exact([1, 2], [1, 1]) == 1  # decided vs tied
        assert kemeny_distance_exact([1, 2], [3, 9]) == 0  # same relation

    def test_decomposition_identity(self):
        """d_affine = d_exact + tied_both, exactly, on fuzzed inputs."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            x, y = fuzz_pair(rng)
            c = pair_stats(x, y)
            assert kemeny_distance_affine(x, y) == (
                kemeny_distance_exact(x, y) + c.tied_both
            )

    def test_tie_free_kendall_distance_is_half(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            disc = pair_stats(x, y).discordant  # classical Kendall distance
            assert kemeny_distance_affine(x, y) == 2 * disc

    def test_exact_metric_axioms(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            n = int(rng.integers(2, 8))
            x = rng.integers(0, 3, size=n).astype(float)
            y = rng.integers(0, 3, size=n).astype(float)
            z = rng.integers(0, 3, size=n).astype(float)
            dxy = kemeny_distance_exact(x, y)
            assert dxy == kemeny_distance_exact(y, x)
            assert kemeny_distance_exact(x, x) == 0
            assert dxy <= kemeny_distance_exact(x, z) + kemeny_distance_exact(z, y)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


class TestKemenyTau:
    def test_hand_value(self):
        assert kemeny_tau([1, 2, 3], [1, 1, 2]) == pytest.approx(2 / 3)

    def test_perfect_and_reversed(self):
        assert kemeny_tau([1, 2, 3], [4, 5, 6]) == 1.0
        assert kemeny_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_constant_y_gives_zero(self):
        assert kemeny_tau([1, 2, 3], [7, 7, 7]) == 0.0

    def test_affine_link(self):
        """tau = 1 - d_affine/m as exact rationals, fuzzed."""
        rng = np.random.default_rng(19)
        for _ in range(300):
            x, y = fuzz_pair(rng)
            c = pair_stats(x, y)
            d = kemeny_distance_affine(x, y)
            assert Fraction(c.net_concordance, c.pair_count) == 1 - Fraction(
                d, c.pair_count
            )

    def test_matches_tau_b_tie_free(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            assert kemeny_tau(x, y) == pytest.approx(kendall_tau_b(x, y), abs=1e-15)


class TestKemenyVariance:
    def test_hand_values(self):
        assert kemeny_variance([1, 1, 2]) == 2
        assert kemeny_variance([1, 2, 3]) == 3
        assert kemeny_variance([4, 4, 4]) == 0

    def test_tie_free_equals_m(self):
        v = np.random.default_rng(0).permutation(20).astype(float)
        assert kemeny_variance(v) == 190


class TestRankVector:
    def test_strict(self):
        rv = rank_vector([1, 2, 3])
        assert rv.counts.tolist() == [2, 0, -2]
        np.testing.assert_allclose(rv.entries, SCALE * np.array([2, 0, -2]))

    def test_tied(self):
        assert rank_vector([1, 1, 2]).counts.tolist() == [1, 1, -2]

    def test_strict_sorted_pattern(self):
        # sorted entries are n+1-2r for ranks r=1..n
        n = 7
        rv = rank_vector(np.arange(1, n + 1))
        assert rv.counts.tolist() == [n + 1 - 2 * r for r in range(1, n + 1)]

    def test_sums_to_zero(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            x, _ = fuzz_pair(rng)
            assert int(rank_vector(x).counts.sum()) == 0

    def test_equals_pair_sign_column_sums(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x, _ = fuzz_pair(rng, n_hi=15)
            with np.errstate(invalid="ignore"):
                sx = np.sign(x[:, None] - x[None, :])
            sx[np.isnan(sx)] = 0.0  # inf-inf pairs are ties
            np.testing.assert_array_equal(
                rank_vector(x).counts, sx.sum(axis=0).astype(np.int64)
            )


class TestSpearman:
    def test_hand_value(self):
        # classical: ranks (1,2,3) vs (1.5,1.5,3) -> rho = sqrt(3)/2
        assert spearman_rho([1, 2, 3], [1, 1, 2]) == pytest.approx(
            math.sqrt(3) / 2, abs=1e-15
        )

    def test_matches_classical_midranks(self):
        """Independent oracle: Pearson on scipy average ranks."""
        rng = np.random.default_rng(37)
        for _ in range(300):
            x, y = fuzz_pair(rng, n_lo=3)
            if kemeny_variance(x) == 0 or kemeny_variance(y) == 0:
                continue
            rx = scipy.stats.rankdata(x)
            ry = scipy.stats.rankdata(y)
            oracle = np.corrcoef(rx, ry)[0, 1]
            assert spearman_rho(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_matches_scipy_spearmanr(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            x, y = fuzz_pair(rng, n_lo=4, with_inf=False)
            if kemeny_variance(x) == 0 or kemeny_variance(y) == 0:
                continue
            assert spearman_rho(x, y) == pytest.approx(
                scipy.stats.spearmanr(x, y).statistic, abs=1e-12
            )

    def test_constant_raises(self):
        with pytest.raises(DegenerateError, match="constant"):
            spearman_rho([1, 1, 1], [1, 2, 3])

    def test_exact_past_int64_rank_dots(self):
        # the rank-image sum of squares, (n^3 - n)/3, passes int64 at n ~ 3.03e6
        x = np.arange(3_200_000, dtype=float)
        assert spearman_rho(x, x) == 1.0

    def test_distance_endpoints(self):
        assert spearman_distance([1, 2, 3], [5, 6, 7]) == pytest.approx(0.0)
        assert spearman_distance([1, 2, 3], [3, 2, 1]) == pytest.approx(2.0)

    def test_distance_mid(self):
        # rho = 0.5 -> sqrt(2) * sqrt(0.5) = 1
        x = [1, 2, 3, 4, 5]
        y = [3, 2, 1, 5, 4]  # sum d^2 = 10 -> rho_s = 1 - 60/120 = 0.5
        assert spearman_rho(x, y) == pytest.approx(0.5)
        assert spearman_distance(x, y) == pytest.approx(1.0)


class TestArcsineAndSin:
    def test_arcsine_anchors(self):
        x = [1, 2, 3, 4, 5]
        y = [3, 2, 1, 5, 4]  # rho_s = 0.5
        assert arcsine_r(x, y) == pytest.approx(1 / 3)
        assert arcsine_r([1, 2], [1, 2]) == pytest.approx(1.0)

    def test_greiner_fixed_points(self):
        assert greiner_sin(0.0) == 0.0
        assert greiner_sin(1.0) == pytest.approx(1.0)
        assert greiner_sin(-1.0) == pytest.approx(-1.0)

    def test_greiner_mid(self):
        assert greiner_sin(0.5) == pytest.approx(math.sin(math.pi / 4))

    def test_greiner_domain(self):
        with pytest.raises(DomainError):
            greiner_sin(1.5)


class TestKendallTauB:
    def test_hand_value(self):
        assert kendall_tau_b([1, 2, 3], [1, 1, 2]) == pytest.approx(2 / math.sqrt(6))

    def test_matches_scipy(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            x, y = fuzz_pair(rng, n_lo=3, with_inf=False)
            if kemeny_variance(x) == 0 or kemeny_variance(y) == 0:
                continue
            assert kendall_tau_b(x, y) == pytest.approx(
                scipy.stats.kendalltau(x, y).statistic, abs=1e-12
            )

    def test_constant_raises(self):
        with pytest.raises(DegenerateError):
            kendall_tau_b([2, 2, 2], [1, 2, 3])

    def test_magnitude_dominates_tau_kappa(self):
        """Ties shrink tau_kappa's denominator never, tau_b's always."""
        rng = np.random.default_rng(47)
        for _ in range(200):
            x, y = fuzz_pair(rng, n_lo=3)
            if kemeny_variance(x) == 0 or kemeny_variance(y) == 0:
                continue
            assert abs(kendall_tau_b(x, y)) >= abs(kemeny_tau(x, y)) - 1e-15


class TestTieBlocks:
    def test_sizes(self):
        assert sorted(tie_block_sizes([3, 1, 3, 3, 1]).tolist()) == [2, 3]
        assert tie_block_sizes([1, 2, 3]).tolist() == [1, 1, 1]


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

finite_vectors = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    )
)


@given(finite_vectors)
@settings(max_examples=300, deadline=None)
def test_tau_symmetric(pair):
    x, y = pair
    assert kemeny_tau(x, y) == kemeny_tau(y, x)


@given(finite_vectors)
@settings(max_examples=300, deadline=None)
def test_distance_symmetric_and_bounded(pair):
    x, y = pair
    n = len(x)
    d = kemeny_distance_affine(x, y)
    assert d == kemeny_distance_affine(y, x)
    assert 0 <= d <= n * n - n


@given(finite_vectors)
@settings(max_examples=200, deadline=None)
def test_order_invariance_strictly_increasing_map(pair):
    """cube-and-shift preserves order, so every estimator is unchanged."""
    x, y = pair
    fx = [v**3 + 0.5 * v for v in x]
    assert pair_stats(fx, y) == pair_stats(x, y)
    assert kemeny_tau(fx, y) == kemeny_tau(x, y)


@given(finite_vectors)
@settings(max_examples=200, deadline=None)
def test_negation_flips_tau(pair):
    x, y = pair
    negx = [-v for v in x]
    assert kemeny_tau(negx, y) == -kemeny_tau(x, y)
    c, cn = pair_stats(x, y), pair_stats(negx, y)
    assert (cn.concordant, cn.discordant) == (c.discordant, c.concordant)


def test_order_invariance_with_infinity_endpoints():
    """Mapping the extremes to +-inf preserves every pair relation."""
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.standard_normal(n)
        fx = x.copy()
        fx[x == x.max()] = INF
        fx[x == x.min()] = -INF
        if np.unique(x).size < 3:
            continue  # map no longer strictly increasing on 1-2 levels
        assert pair_stats(fx, y) == pair_stats(x, y)
