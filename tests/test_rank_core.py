"""Pair scoring, distances, and the estimator family.

Expected values in the oracle tests were derived by hand from the pair
definitions (every pair enumerated on paper) or cross-checked against
scipy's independent implementations before being frozen here.
"""

from __future__ import annotations

import collections
import gc
import math
import pickle
import re
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from kemeny_stat import (
    ConcordanceCounts,
    DataError,
    DataMatrix,
    DegenerateError,
    DomainError,
    ScoreVector,
    arcsine_r,
    correlation_matrix,
    greiner_sin,
    kemeny_distance_affine,
    kemeny_distance_exact,
    kemeny_tau,
    kemeny_variance,
    kendall_tau_b,
    pair_stats,
    rank_vector,
    spearman_rho,
    z_kemeny,
    z_kendall_b,
    z_spearman,
)
from kemeny_stat import cli, null_models, rank_core, simulate
from kemeny_stat.rank_core import tie_block_sizes

from conftest import CLONES, fuzz_pair

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

    @pytest.mark.parametrize("clone", sorted(CLONES))
    def test_copies_are_rebuilt_read_only(self, clone):
        v = ScoreVector([1, 2, 2, 3])
        assert rank_vector(v).tolist() == [3, 0, 0, -3]
        assert (v._tie_total, v._tie_sums) == (1, (0, 18))
        kept = {"ranks", "_image", "_tie_total", "_tie_sums"}
        assert kept <= set(vars(v))
        w = CLONES[clone](v)
        assert w is not v and not kept & set(vars(w))
        with pytest.raises(ValueError, match="read-only"):
            w.values[0] = 9
        assert np.array_equal(w.values, v.values)
        assert rank_vector(w) is not rank_vector(v)
        assert rank_vector(w).tolist() == [3, 0, 0, -3]

    def test_compares_and_hashes_by_identity(self):
        # generated __eq__/__hash__ over the ndarray field would raise here
        v, w = ScoreVector([1.0, 2.0, 3.0]), ScoreVector([1.0, 2.0, 3.0])
        assert v == v and not v == w and v != w
        assert hash(v) == hash(v)
        assert v in [w, v]
        assert len({v, w}) == 2

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            pair_stats([1, 2, 3], [1, 2])


def pair_signs(x) -> np.ndarray:
    """sign(x_k - x_l) of every unordered pair k < l, in lex order, as int8.

    The pair scores written out, the oracle beside
    ``pair_stats(method="quadratic")``: a pair is concordant when its two
    signs agree and are non-zero, and tied in x where the x sign is 0.
    """
    v = np.asarray(x, dtype=float)
    iu, ju = np.triu_indices(v.size, k=1)
    # sign of a difference involving equal infinities would be NaN via
    # subtraction, so compare rather than subtract
    return (v[iu] > v[ju]).astype(np.int8) - (v[iu] < v[ju]).astype(np.int8)


class TestPairSigns:
    def test_strict_vector(self):
        # pairs in lex order: (1,2),(1,3),(2,3)
        assert pair_signs([1, 2, 3]).tolist() == [-1, -1, -1]

    def test_with_ties(self):
        assert pair_signs([2, 2, 1]).tolist() == [0, 1, 1]

    def test_with_infinities(self):
        # (1,-inf): +1, (1,+inf): -1, (-inf,+inf): -1
        assert pair_signs([1.0, -INF, INF]).tolist() == [1, -1, -1]

    def test_tied_infinities(self):
        assert pair_signs([INF, INF]).tolist() == [0]

    def test_codes_are_int8(self):
        assert pair_signs([3, 1, 2]).dtype == np.int8

    def test_classifies_pairs_like_both_routes(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, y = fuzz_pair(rng, n_hi=30)
            sx, sy = pair_signs(x), pair_signs(y)
            expected = ConcordanceCounts(
                len(x),
                int(np.count_nonzero(sx * sy == 1)),
                int(np.count_nonzero(sx * sy == -1)),
                int(np.count_nonzero((sx == 0) & (sy != 0))),
                int(np.count_nonzero((sx != 0) & (sy == 0))),
                int(np.count_nonzero((sx == 0) & (sy == 0))),
            )
            assert pair_stats(x, y, method="quadratic") == expected
            assert pair_stats(x, y) == expected


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
            assert kemeny_variance(x) == c.pair_count - c.tied_x - c.tied_both
            assert kemeny_variance(y) == c.pair_count - c.tied_y - c.tied_both

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
            pair_stats(x, x, method="quadratic")
        assert pair_stats(x, x).concordant == 55
        assert pair_stats(x[:10], x[:10], method="quadratic").concordant == 45

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
        assert rv.dtype == np.int64 and rv.tolist() == [2, 0, -2]

    def test_tied(self):
        assert rank_vector([1, 1, 2]).tolist() == [1, 1, -2]

    def test_strict_sorted_pattern(self):
        # sorted entries are n+1-2r for ranks r=1..n
        n = 7
        rv = rank_vector(np.arange(1, n + 1))
        assert rv.tolist() == [n + 1 - 2 * r for r in range(1, n + 1)]

    def test_sums_to_zero(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            x, _ = fuzz_pair(rng)
            assert int(rank_vector(x).sum()) == 0

    def test_equals_pair_sign_column_sums(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x, _ = fuzz_pair(rng, n_hi=15)
            with np.errstate(invalid="ignore"):
                sx = np.sign(x[:, None] - x[None, :])
            sx[np.isnan(sx)] = 0.0  # inf-inf pairs are ties
            np.testing.assert_array_equal(
                rank_vector(x), sx.sum(axis=0).astype(np.int64)
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


class TestConstantColumn:
    """One rule refuses a constant column, from its tie blocks, wherever the
    paper leaves a quantity undefined; tau_kappa, the distances and the
    population-scale z read 0 there by definition."""

    CONSTANTS = (0.1, 1 / 3, 7.7, 3.0, INF, -INF)

    def fuzz_cases(self):
        rng = np.random.default_rng(24)
        for _ in range(120):
            n = int(rng.integers(2, 501))
            constant = np.full(n, self.CONSTANTS[rng.integers(len(self.CONSTANTS))])
            other = constant
            while (other == other[0]).all():
                levels = int(rng.integers(1, 9))  # 1 stands for continuous
                other = rng.standard_normal(n)
                if levels > 1:
                    other = rng.integers(0, levels, n).astype(float)
            name = "xy"[rng.integers(2)]
            yield name, *((constant, other) if name == "x" else (other, constant))

    def test_fuzzed_constant_columns(self):
        from kemeny_stat.multivar import CORRELATION_METHODS

        refused = {
            **{key: f for key, f in rank_core.ESTIMATORS.items() if key != "kemeny-tau"},
            **{key: f for key, f in CORRELATION_METHODS.items() if key != "kemeny_tau"},
            "z_kendall_b": z_kendall_b,
            "z_spearman": z_spearman,
            "z_kemeny_sample": lambda x, y: z_kemeny(x, y, scale="sample"),
        }
        for name, x, y in self.fuzz_cases():
            vx, vy = ScoreVector(x), ScoreVector(y)
            for key, f in refused.items():
                expected = f"undefined: {name} is constant"
                if key == "pearson" and (np.isinf(x).any() or np.isinf(y).any()):
                    expected = "pearson undefined on +-inf"
                with pytest.raises(DegenerateError, match=re.escape(expected)):
                    f(vx, vy)
            spread = kemeny_variance(y if name == "x" else x)
            assert kemeny_tau(vx, vy) == 0.0
            assert kemeny_distance_affine(vx, vy) == vx.pair_count
            assert kemeny_distance_exact(vx, vy) == spread
            result = z_kemeny(vx, vy)
            assert result.statistic == 0.0
            assert result.p_two_sided == pytest.approx(1.0, abs=1e-12)

    def test_one_message_form(self):
        for label, f in (
            ("kendall_tau_b", kendall_tau_b),
            ("spearman_rho", spearman_rho),
            ("pearson", rank_core.ESTIMATORS["pearson"]),
            ("spearman", rank_core.ESTIMATORS["spearman"]),
            ("arcsine_r", arcsine_r),
            ("z_kendall_b", z_kendall_b),
            ("z_spearman", z_spearman),
            ('z_kemeny(scale="sample")', lambda x, y: z_kemeny(x, y, scale="sample")),
        ):
            for x, y, name in (([1.0] * 4, [1, 2, 3, 4], "x"), ([1, 2, 3, 4], [5.0] * 4, "y")):
                with pytest.raises(DegenerateError) as info:
                    f(ScoreVector(x), ScoreVector(y))
                assert str(info.value) == f"{label} undefined: {name} is constant"


class TestPairEntry:
    """Every two-column function takes its pair through one entry: array-likes
    or ScoreVectors, refused with one DataError when their lengths differ."""

    def test_fuzzed_unequal_lengths(self):
        from kemeny_stat.multivar import CORRELATION_METHODS

        pair_functions = {
            **{f"ESTIMATORS[{key!r}]": f for key, f in rank_core.ESTIMATORS.items()},
            **{f"CORRELATION_METHODS[{key!r}]": f for key, f in CORRELATION_METHODS.items()},
            "pair_stats merge": pair_stats,
            "pair_stats quadratic": lambda x, y: pair_stats(x, y, method="quadratic"),
            "kemeny_distance_affine": kemeny_distance_affine,
            "kemeny_distance_exact": kemeny_distance_exact,
            "z_kemeny": z_kemeny,
            "z_kendall_b": z_kendall_b,
            "z_spearman": z_spearman,
        }
        rng = np.random.default_rng(29)
        for case in range(80):
            nx, ny = rng.choice(np.arange(2, 301), size=2, replace=False).tolist()
            levels = int(rng.integers(1, 7))  # 1 stands for continuous
            x, y = (
                rng.standard_normal(k) if levels == 1 else rng.integers(0, levels, k).astype(float)
                for k in (nx, ny)
            )
            # plain lists, arrays and ScoreVectors all enter the same way
            x, y = [(list, np.asarray, ScoreVector)[case % 3](v) for v in (x, y)]
            message = f"length mismatch: x has {nx} observations, y has {ny}"
            for name, f in pair_functions.items():
                with pytest.raises(DataError) as info:
                    f(x, y)
                assert str(info.value) == message, name

    def test_estimators_take_plain_lists(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            x, y = fuzz_pair(rng, with_inf=False)
            if kemeny_variance(x) == 0 or kemeny_variance(y) == 0:
                continue
            vx, vy = ScoreVector(x), ScoreVector(y)
            for key, f in rank_core.ESTIMATORS.items():
                got = f(np.asarray(x).tolist(), np.asarray(y).tolist())
                assert got.hex() == f(vx, vy).hex(), key


class TestPearsonMagnitudes:
    """Pearson's r (and the midrank route through the same routine) scales a
    column outside [2^-400, 2^400] by an exact power of two, and only then."""

    pearson = staticmethod(rank_core.ESTIMATORS["pearson"])

    @pytest.mark.parametrize(
        "x, y, r",
        [
            ([1e200, -1e200, 0.0, 1.0], [1, 2, 3, 4], -1 / math.sqrt(10)),
            ([1e-300, 2e-300, 3e-300], [1, 2, 3], 1.0),
            ([1e-170, 3e-170, 2e-170], [1, 2, 3], 0.5),
            ([1e-170, 3e-170, 2e-170], [1e-170, 2e-170, 3e-170], 0.5),
            ([5e-324, 1e308, -1e308], [3, 1, 2], -0.5),
        ],
    )
    def test_extreme_magnitudes(self, x, y, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.pearson(ScoreVector(x), ScoreVector(y)) == pytest.approx(r, abs=1e-15)

    def test_in_band_columns_keep_their_bits(self):
        rng = np.random.default_rng(400)
        for _ in range(200):
            n = int(rng.integers(3, 60))
            x = rng.standard_normal(n) * 2.0 ** rng.integers(-390, 390)
            y = rng.integers(0, 4, n).astype(float)
            if (x == x[0]).all() or (y == y[0]).all():
                continue
            r = float(np.corrcoef(x, y)[0, 1])
            assert self.pearson(ScoreVector(x), ScoreVector(y)).hex() == r.hex()


class TestTieBlocks:
    def test_sizes(self):
        assert sorted(tie_block_sizes([3, 1, 3, 3, 1]).tolist()) == [2, 3]
        assert tie_block_sizes([1, 2, 3]).tolist() == [1, 1, 1]


def unique_dense(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The np.unique oracle for rank_core._dense: dense codes and block sizes."""
    _, codes, sizes = np.unique(v, return_inverse=True, return_counts=True)
    return codes.astype(np.int64), sizes.astype(np.int64)


def brute_tied_pairs(v: np.ndarray) -> int:
    """Pairs k < l with v[k] == v[l]: compared pair by pair up to n = 2000,
    past it counted per distinct value by a Counter over Python floats."""
    if v.size <= 2000:
        return (np.count_nonzero(v[:, None] == v[None, :]) - v.size) // 2
    return sum(c * (c - 1) // 2 for c in collections.Counter(v.tolist()).values())


class TestDense:
    """rank_core._dense equals the np.unique oracle, code for code, and the
    kept tied-pair total equals a brute-force count of the tied pairs."""

    @staticmethod
    def check(v):
        v = np.asarray(v, dtype=float)
        codes, sizes = rank_core._dense(v)
        want_codes, want_sizes = unique_dense(v)
        assert codes.dtype == sizes.dtype == np.int64
        np.testing.assert_array_equal(codes, want_codes)
        np.testing.assert_array_equal(sizes, want_sizes)
        assert ScoreVector(v)._tie_total == brute_tied_pairs(v)

    def test_fuzzed_vectors(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            for v in fuzz_pair(rng, n_hi=40):
                self.check(v)

    @pytest.mark.parametrize(
        "v",
        [
            [0.0, -0.0, 1.0, -0.0, 0.0, -1.0],
            [INF, -INF, INF, 1.0, -INF, INF, -0.0, -INF, 0.0],
            [2.5] * 9,
            [1.0, 0.0],
            [3.0, 3.0],
        ],
        ids=["signed-zeros", "repeated-infinities", "constant", "n2", "n2-tied"],
    )
    def test_edge_cases(self, v):
        self.check(v)

    def test_large(self):
        rng = np.random.default_rng(47)
        self.check(rng.permutation(10**5) + rng.random(10**5) / 2)  # tie-free
        self.check(rng.integers(0, 5, size=10**6))


# ---------------------------------------------------------------------------
# one ranking per column
# ---------------------------------------------------------------------------


def _bits(result):
    """A bit-exact image of a result: floats by their hex form, arrays by bytes."""
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.tobytes()
    if hasattr(result, "as_dict"):
        return _bits(result.as_dict())
    if isinstance(result, dict):
        return {key: _bits(value) for key, value in result.items()}
    return result


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except DegenerateError as exc:
        return repr(exc)


PAIR_FUNCTIONS = (
    pair_stats, kemeny_distance_affine, kemeny_distance_exact, kemeny_tau, spearman_rho,
    arcsine_r, kendall_tau_b, z_kemeny, z_kendall_b, z_spearman,
)


@pytest.mark.parametrize(
    "fn", PAIR_FUNCTIONS + (kemeny_variance, tie_block_sizes, rank_vector),
    ids=lambda fn: fn.__name__,
)
def test_prebuilt_vectors_match_raw_arrays(fn):
    """ScoreVectors, ranked before or after the caller's arrays change, give
    bit for bit what the raw arrays give."""
    rng = np.random.default_rng(61)
    pairs = [fuzz_pair(rng, n_lo=3) for _ in range(40)]
    pairs += [(np.ones(5), np.arange(5.0)), (np.array([-0.0, 0.0, INF, -INF]), np.arange(4.0))]
    for x, y in pairs:
        args = [np.array(x, dtype=float), np.array(y, dtype=float)]
        if fn not in PAIR_FUNCTIONS:
            args = args[:1]
        raw = _outcome(fn, *[a.copy() for a in args])
        early = [ScoreVector(a) for a in args]
        before = _outcome(fn, *early)  # ranks cached from the arrays as they were
        late = [ScoreVector(a) for a in args]
        for a in args:
            a *= -1.0  # reverses the order of the caller's arrays in place
        assert before == raw
        assert _outcome(fn, *early) == raw
        assert _outcome(fn, *late) == raw


class TestRankEachColumnOnce:
    """Calls of rank_core._dense, the one place values are ranked."""

    @pytest.fixture
    def rankings(self, monkeypatch):
        calls = []
        dense = rank_core._dense

        def counted(v):
            calls.append(v.size)
            return dense(v)

        monkeypatch.setattr(rank_core, "_dense", counted)
        return calls

    @pytest.mark.parametrize(
        "method, count",
        [("kemeny_tau", 6), ("kendall_b", 6), ("spearman", 6), ("arcsine_r", 6)],
    )
    def test_correlation_matrix(self, rankings, method, count):
        # one ranking per column, for all 15 pairs
        data = DataMatrix(np.random.default_rng(67).integers(1, 6, (300, 6)).astype(float))
        correlation_matrix(data, method)
        assert len(rankings) == count

    def test_table_correlations_replicate(self, rankings):
        row = simulate._replicate(
            "table_correlations", 30, 0, 11, "discretized_normal", 0.0, None, None
        )
        assert len(row) == 6
        assert len(rankings) == 2  # one ranking per column

    @pytest.mark.parametrize(
        "argv, count",
        [
            # one ranking per column
            (("correlate",), 2),
            (("test", "--method", "kendall-b"), 2),
            (("test", "--method", "kemeny"), 2),
            (("test", "--method", "spearman", "--null", "normal"), 2),
        ],
        ids=["correlate", "test-kendall-b", "test-kemeny", "test-spearman-normal"],
    )
    def test_cli(self, rankings, tmp_path, capsys, argv, count):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n" + "".join(f"{i % 4},{i % 5}\n" for i in range(40)))
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0
        assert len(rankings) == count


class TestOneSummaryPerColumn:
    """The rank image with its squared norm, the tied-pair total and the tie
    sums, each built once per ScoreVector and read by every formula that
    needs them."""

    @pytest.mark.parametrize("method", ["spearman", "arcsine_r"])
    def test_correlation_matrix_builds_each_image_once(self, monkeypatch, method):
        images = []
        image = rank_core.rank_vector

        def kept(v):
            images.append(image(v))
            return images[-1]

        monkeypatch.setattr(rank_core, "rank_vector", kept)
        data = DataMatrix(np.random.default_rng(67).integers(1, 6, (300, 6)).astype(float))
        correlation_matrix(data, method)
        assert len(images) == 30  # two reads per pair
        assert len({id(a) for a in images}) == 6  # one image per column, not two per pair

    def test_rank_vector_is_kept_and_read_only(self):
        v = ScoreVector([3.0, 1.0, 3.0, -INF, 2.0])
        rv = rank_vector(v)
        assert rank_vector(v) is rv
        assert rv.tolist() == [-3, 2, -3, 4, 0]
        with pytest.raises(ValueError, match="read-only"):
            rv[0] = 0

    def test_midranks_match_block_formula_bit_for_bit(self):
        # the block formula (2 ends - sizes + 1)/2 they replaced
        rng = np.random.default_rng(73)
        pairs = [fuzz_pair(rng) for _ in range(300)]
        pairs.append((np.array([-0.0, 0.0, INF, -INF, INF]), None))
        for x, _ in pairs:
            codes, sizes = ScoreVector(x).ranks
            ends = np.cumsum(sizes)
            old = 0.5 * (ends - sizes + 1 + ends)[codes]
            got = rank_core._midranks(x)
            assert got.dtype == old.dtype and got.tobytes() == old.tobytes()

    def test_tie_sums_built_once_across_z_kendall_b_calls(self, monkeypatch):
        calls = []
        sizes = rank_core.tie_block_sizes
        monkeypatch.setattr(rank_core, "tie_block_sizes", lambda v: calls.append(v) or sizes(v))
        rng = np.random.default_rng(79)
        x, y = ScoreVector(rng.integers(0, 4, 60)), ScoreVector(rng.integers(0, 5, 60))
        first = z_kendall_b(x, y).as_dict()
        for _ in range(3):
            assert z_kendall_b(x, y).as_dict() == first
            z_kendall_b(y, x)
        assert calls == [x, y]

    def test_tie_total_built_once_across_readers(self, monkeypatch):
        built = []
        tied = rank_core._tied_pairs
        monkeypatch.setattr(
            rank_core, "_tied_pairs", lambda sizes: built.append(sizes) or tied(sizes)
        )
        rng = np.random.default_rng(83)
        x, y = ScoreVector(rng.integers(0, 4, 60)), ScoreVector(rng.integers(0, 5, 60))
        for _ in range(3):
            for a, b in ((x, y), (y, x)):
                kemeny_variance(a)
                pair_stats(a, b)
                z_kendall_b(a, b)
        kept = [s for s in built if s is x.ranks[1] or s is y.ranks[1]]
        assert len(kept) == 2 and kept[0] is x.ranks[1] and kept[1] is y.ranks[1]


class TestCountEachPairOnce:
    """The merge count kept per pair of ScoreVectors while both live."""

    def test_same_vectors_share_one_count(self):
        rng = np.random.default_rng(71)
        x, y = ScoreVector(rng.integers(0, 4, 50)), ScoreVector(rng.integers(0, 6, 50))
        a = pair_stats(x, y)
        assert pair_stats(x, y) is a
        b = pair_stats(y, x)
        assert b is not a and pair_stats(y, x) is b
        assert (b.concordant, b.discordant, b.tied_both) == (
            a.concordant, a.discordant, a.tied_both,
        )
        assert (b.tied_x, b.tied_y) == (a.tied_y, a.tied_x)

    def test_entry_keeps_neither_vector_alive(self):
        x, y = ScoreVector([1, 2, 2, 3]), ScoreVector([3, 1, 2, 2])
        pair_stats(x, y)
        pair_stats(y, x)
        x_ref, y_ref = weakref.ref(x), weakref.ref(y)
        del y
        gc.collect()
        assert y_ref() is None
        assert len(rank_core._COUNTS[x]) == 0
        del x
        gc.collect()
        assert x_ref() is None

    def test_counted_vector_pickles(self):
        x, y = ScoreVector([1, 2, 2, 3, INF]), ScoreVector([3, 1, 2, 2, 0])
        counts = pair_stats(x, y)
        x2, y2 = pickle.loads(pickle.dumps((x, y)))
        assert np.array_equal(x2.values, x.values)
        assert pair_stats(x2, y2) == counts and pair_stats(x2, y2) is not counts

    def test_quadratic_neither_reads_nor_fills(self, monkeypatch):
        x, y = ScoreVector([1, 2, 2, 3]), ScoreVector([3, 1, 2, 2])
        quadratic = pair_stats(x, y, method="quadratic")
        assert x not in rank_core._COUNTS
        merge = pair_stats(x, y)
        assert merge == quadratic and merge is not quadratic
        runs = []
        oracle = rank_core._pair_stats_quadratic
        monkeypatch.setattr(
            rank_core, "_pair_stats_quadratic", lambda *a: runs.append(1) or oracle(*a)
        )
        assert pair_stats(x, y, method="quadratic") is not merge
        assert runs == [1]

    @pytest.mark.parametrize("n", [40, 400])
    @pytest.mark.parametrize(
        "argv",
        [("correlate",)] + [
            ("test", "--method", method, "--null", null)
            for method in ("kemeny", "kendall-b", "spearman")
            for null in ("auto", "exact", "normal")
        ],
        ids=lambda argv: "-".join(argv[::2]),
    )
    def test_cli_counts_once(self, monkeypatch, tmp_path, capsys, n, argv):
        # n = 40 and n = 400 sit on either side of null_models.EXACT_LIMIT
        assert 40 <= null_models.EXACT_LIMIT < 400
        merges, rankings = [], []
        merge, dense = rank_core._pair_stats_merge, rank_core._dense
        monkeypatch.setattr(
            rank_core, "_pair_stats_merge", lambda *a: merges.append(1) or merge(*a)
        )
        monkeypatch.setattr(rank_core, "_dense", lambda v: rankings.append(1) or dense(v))
        rng = np.random.default_rng(n)
        path = tmp_path / "data.csv"
        path.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in rng.integers(1, 6, (n, 2))))
        # the midrank kernel null is tabulated for n <= 19 only, and
        # kendall-b has no exact null
        refused = argv[-1] == "exact" and argv[-3] in ("spearman", "kendall-b")
        assert cli.main([argv[0], str(path), *argv[1:]]) == (3 if refused else 0)
        # one count per pair, one ranking per column
        assert (len(merges), len(rankings)) == (1, 2)


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
