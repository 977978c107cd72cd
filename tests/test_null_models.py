"""Null-distribution construction and z tests.

Frozen expected values were derived by hand (small rationals), from the
exact enumeration oracle, or pinned from an independent probe run before
these tests were written.
"""

import collections
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as ss

from kemeny_stat import enum_oracle
from kemeny_stat import null_models as nm
from kemeny_stat.consistency import (
    beta_binomial_variance,
    kurtosis_poly,
    power_kernel_fourth_moment,
    power_kernel_std_kurtosis,
    riffled_moments,
    riffled_variance_mixture,
    variance_poly,
)
from kemeny_stat.errors import DegenerateError, DomainError
from kemeny_stat.reference import (
    NULL_EXCESS_KURTOSIS_BY_N,
    NULL_STD_BY_N,
    SPEARMAN_STD_KURTOSIS_BY_N,
    TWO_SIDED_CUTOFF_N15,
)

from conftest import CLONES, fuzz_pair


class TestPopulationVariance:
    def test_small_n_exact_rationals(self):
        assert nm.population_variance(2) == Fraction(1, 2)
        assert nm.population_variance(3) == Fraction(70, 27)
        assert nm.population_variance(4) == Fraction(7)
        assert nm.population_variance(6) == Fraction(1375, 54)
        assert nm.population_variance(7) == Fraction(286, 7)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_enumeration_oracle(self, n):
        variance, _ = enum_oracle.exact_moments(n)
        assert nm.population_variance(n) == variance

    def test_matches_tabulated_sd(self):
        # n <= 8 entries are exact enumerations, printed to three decimals;
        # 9..25 are simulation summaries (larger n rows include misprints,
        # surfaced by the consistency report instead)
        for n, sd in NULL_STD_BY_N.items():
            if n > 25:
                continue
            got = math.sqrt(float(nm.population_variance(n)))
            tol = 1e-3 if n <= 8 else 2e-2
            assert got == pytest.approx(sd, abs=tol), n

    def test_rejects_degenerate_n(self):
        with pytest.raises(DomainError):
            nm.population_variance(1)


class TestFittedPolynomials:
    def test_variance_poly_frozen_value(self):
        assert variance_poly(10) == pytest.approx(120.197, abs=1e-9)

    def test_variance_poly_tracks_exact_form(self):
        # fitted curve and the exact rational agree to ~0.1% at n = 30
        exact = float(nm.population_variance(30))
        assert variance_poly(30) == pytest.approx(exact, rel=5e-3)

    def test_variance_poly_domain(self):
        with pytest.raises(DomainError):
            variance_poly(8)

    def test_kurtosis_poly_frozen_value(self):
        assert kurtosis_poly(10) == pytest.approx(-0.187625, abs=1e-6)

    def test_kurtosis_poly_near_tabulated_mid_range(self):
        assert kurtosis_poly(15) == pytest.approx(-0.148, abs=5e-3)

    def test_kurtosis_poly_negative_and_shrinking(self):
        # the quadratic exponent turns around near n ~ 94, so the fit only
        # decays monotonically below that point
        vals = [kurtosis_poly(n) for n in range(9, 91)]
        assert all(v < 0 for v in vals)
        assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))

    def test_kurtosis_poly_domain(self):
        with pytest.raises(DomainError):
            kurtosis_poly(5)


class TestShapeParameter:
    def test_alpha_of_n_frozen_rationals(self):
        assert nm.alpha_of_n(3) == Fraction(173, 59)
        assert nm.alpha_of_n(4) == Fraction(29, 8)

    def test_alpha_of_n_domain(self):
        with pytest.raises(DomainError):
            nm.alpha_of_n(2)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_alpha_variance_matches_population_exactly(self, n):
        # the shape is precisely the symmetric beta-binomial solution on
        # n^2 - n trials for the closed-form variance
        got = beta_binomial_variance(n * n - n, nm.alpha_of_n(n))
        assert got == nm.population_variance(n)

    def test_alpha_from_kurtosis_frozen(self):
        assert nm.alpha_from_kurtosis(2.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("kurt", [1.2, 1.8, 2.0, 2.5, 2.9])
    def test_kurtosis_roundtrip(self, kurt):
        alpha = nm.alpha_from_kurtosis(kurt)
        assert nm.implied_std_kurtosis(alpha) == pytest.approx(kurt, rel=1e-12)

    @pytest.mark.parametrize("kurt", [0.5, 1.0, 3.0, 3.5])
    def test_alpha_from_kurtosis_domain(self, kurt):
        with pytest.raises(DomainError):
            nm.alpha_from_kurtosis(kurt)


class TestSupportWidth:
    def test_frozen_value(self):
        # mu2 = 1, mu4 = 2: q = sqrt(2) * sqrt(2 / 1) = 2
        assert nm.q_from_moments(1.0, 2.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_width_squared_is_variance_times_shape_scale(self, n):
        alpha = float(nm.alpha_of_n(n))
        mu2 = float(nm.population_variance(n))
        mu4 = nm.implied_std_kurtosis(alpha) * mu2 * mu2
        q = nm.q_from_moments(mu2, mu4)
        assert q * q == pytest.approx(mu2 * (2.0 * alpha + 3.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            nm.q_from_moments(1.0, 3.0)
        with pytest.raises(DomainError):
            nm.q_from_moments(0.0, 1.0)
        with pytest.raises(DomainError):
            nm.q_from_moments(1.0, -1.0)


class TestRiffledMoments:
    def test_frozen_small_case(self):
        got = riffled_moments(3, 1.0, 1.0, 0.5)
        assert got.mu2 == pytest.approx(34.5 / 9.0)
        assert got.mu3 == 0.0

    @pytest.mark.parametrize("m,alpha", [(3, 0.5), (6, 1.0), (10, 2.5), (45, 4.0)])
    def test_equal_weight_variance_agrees_with_closed_form(self, m, alpha):
        mix = riffled_moments(m, alpha, alpha, 0.5)
        closed = riffled_variance_mixture(m, alpha, alpha)
        assert mix.mu2 == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("n,alpha", [(3, 2.0), (5, 3.0), (8, 1.5)])
    def test_fourth_moment_display_is_scaled_kurtosis(self, n, alpha):
        # the n-substituted fourth-moment expression reduces to exactly four
        # times the standardised-kurtosis expression at m = (n^2 - n) / 2
        m = (n * n - n) // 2
        assert power_kernel_fourth_moment(n, alpha) == pytest.approx(
            4.0 * power_kernel_std_kurtosis(m, alpha), rel=1e-12
        )

    def test_weight_domain(self):
        with pytest.raises(DomainError):
            riffled_moments(3, 1.0, 1.0, 1.5)


class TestNullTable:
    @pytest.mark.parametrize("n", [3, 5, 10, 15, 30, 50])
    def test_normalised_and_symmetric(self, n):
        table = nm.null_table(n)
        assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(table.probabilities, table.probabilities[::-1])
        assert np.array_equal(table.support, -table.support[::-1])
        mean = float(np.dot(table.probabilities, table.support))
        assert abs(mean) < 1e-12

    @pytest.mark.parametrize("n", [10, 15, 30, 50])
    def test_variance_matches_closed_form(self, n):
        table = nm.null_table(n)
        assert table.variance == pytest.approx(float(nm.population_variance(n)), rel=1e-4)

    def test_variance_gap_small_n(self):
        # truncation to the attainable lattice bites hardest at tiny n
        assert nm.null_table(3).variance == pytest.approx(2.409923, abs=1e-5)
        ratio = nm.null_table(5).variance / float(nm.population_variance(5))
        assert 0.98 < ratio < 1.0

    def test_kurtosis_below_gaussian_and_increasing(self):
        kurts = [nm.null_table(n).std_kurtosis for n in (5, 10, 15, 25, 50)]
        assert all(k < 3.0 for k in kurts)
        assert all(a < b for a, b in zip(kurts, kurts[1:]))

    def test_moments_computed_once_from_read_only_arrays(self):
        table = nm.null_table.__wrapped__(40)
        s = table.support.astype(float)
        mu2 = float(np.sum(table.probabilities * s * s))
        assert table.variance == mu2
        assert table.std_kurtosis == float(np.sum(table.probabilities * s**4)) / (mu2 * mu2)
        assert vars(table)["variance"] == mu2 and "std_kurtosis" in vars(table)
        with pytest.raises(ValueError, match="read-only"):
            table.probabilities[0] = 0.5

    def test_central_two_sided_p_is_one(self):
        assert nm.null_table(15).p_two_sided(0) == pytest.approx(1.0, abs=1e-12)

    def test_tail_probabilities(self):
        table = nm.null_table(10)
        assert table.p_upper(table.support.max() + 1) == 0.0
        assert table.p_upper(table.support.min() - 1) == pytest.approx(1.0, abs=1e-12)

    def test_median_is_zero(self):
        assert nm.null_table(12).quantile(0.5) == 0

    def test_standardized_cutoff_frozen(self):
        assert nm.null_table(15).standardized_cutoff(0.05) == pytest.approx(1.9500, abs=2e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="tabulated +/-1.8500 cutoff is not reproduced by the kernel "
        "construction at n = 15 (which gives +/-1.95; 1.85 appears at n = 5)",
    )
    def test_standardized_cutoff_matches_tabulated_value(self):
        got = nm.null_table(15).standardized_cutoff(0.05)
        assert got == pytest.approx(TWO_SIDED_CUTOFF_N15, abs=0.02)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.05, math.nan])
    def test_standardized_cutoff_needs_a_level_in_the_unit_interval(self, level):
        with pytest.raises(DomainError, match=f"level must lie in \\(0, 1\\), got {level}"):
            nm.null_table(15).standardized_cutoff(level)

    def test_tabulated_cutoff_appears_at_n5(self):
        assert nm.null_table(5).standardized_cutoff(0.05) == pytest.approx(1.8514, abs=2e-3)

    def test_json_round_trip(self):
        table = nm.null_table(8)
        clone = nm.NullTable.from_json(table.to_json())
        assert clone.n == table.n
        assert clone.alpha == table.alpha
        assert clone.q == table.q
        assert np.array_equal(clone.support, table.support)
        assert np.array_equal(clone.probabilities, table.probabilities)
        keys = list(json.loads(table.to_json()))
        assert keys == sorted(keys)

    def test_json_length_mismatch_rejected(self):
        payload = json.loads(nm.null_table(4).to_json())
        payload["probabilities"] = payload["probabilities"][:-1]
        with pytest.raises(DomainError):
            nm.NullTable.from_json(json.dumps(payload))

    def test_unequal_shapes_rejected_at_construction(self):
        with pytest.raises(DomainError, match="disagree in length"):
            nm.NullTable(n=4, alpha=1.0, q=7.0, support=np.arange(-6, 7), probabilities=np.ones(12) / 12)

    @pytest.mark.parametrize("clone", sorted(CLONES))
    def test_copies_are_rebuilt_read_only(self, clone):
        table = nm.null_table.__wrapped__(10)
        assert table.variance > 0  # cached from the read-only arrays
        twin = CLONES[clone](table)
        assert "variance" not in vars(twin)
        assert np.array_equal(twin.support, table.support)
        assert np.array_equal(twin.probabilities, table.probabilities)
        with pytest.raises(ValueError, match="read-only"):
            twin.probabilities[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            twin.support[0] = 0
        assert twin.variance == table.variance

    def test_cache_returns_same_object(self):
        assert nm.null_table(7) is nm.null_table(7)

    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            nm.null_table(2)

    def test_budget_is_checked_on_the_exact_support(self):
        # q > m wherever the budget admits a table, exactly (q^2 = mu2 (2 alpha
        # + 3) > m^2) and in the floats null_table computes, so the lattice is
        # |s| <= m and its 2m + 1 entries decide the refusal before any float
        # arithmetic
        for n in range(3, 2898):
            m = n * (n - 1) // 2
            assert nm.population_variance(n) * (2 * nm.alpha_of_n(n) + 3) > m * m
            alpha = float(nm.alpha_of_n(n))
            mu2 = float(nm.population_variance(n))
            kurt = nm.implied_std_kurtosis(alpha)
            q = nm.q_from_moments(mu2, kurt * mu2 * mu2)
            assert q > m and q * q - m * m > 0.0
        for n in (3, 4, 15, 60):
            m = n * (n - 1) // 2
            assert np.array_equal(nm.null_table(n).support, np.arange(-m, m + 1))
        assert 2 * (2896 * 2895 // 2) + 1 <= nm.NULL_TABLE_MAX_ENTRIES
        with pytest.raises(DomainError, match="n=2897 needs 8389713 support entries"):
            nm.null_table(2897)

    # sha256 of support.tobytes() + probabilities.tobytes(), pinned from the
    # two-half (mirrored) build
    FROZEN_SHA256 = {
        3: "1982e8ad0a17e3264957cf61fa38af487f1f8efabc8506d0cada6ea64ed21cbc",
        15: "d5415b624e0b08e989af0d998380305d6c3313c298c01ae9614c7a0b9de503d8",
        300: "b353da486cc41bd9cb2e25ebcc0e3e05d5c7fede047417375eb4e7b8829b271d",
        2000: "8d867b349ecd643910b3f12b04d770fac6bcdd188ecba472f0a490f0fc37987a",
    }

    @pytest.mark.parametrize("n", sorted(FROZEN_SHA256))
    def test_frozen_bytes(self, n):
        # uncached, so the n = 2000 table does not stay cached for later tests
        table = nm.null_table.__wrapped__(n)
        blob = table.support.tobytes() + table.probabilities.tobytes()
        assert hashlib.sha256(blob).hexdigest() == self.FROZEN_SHA256[n]
        assert np.array_equal(table.probabilities, table.probabilities[::-1])

    def test_build_peak_memory_per_entry(self):
        # the int64 support and float64 probabilities it returns are 16 B
        # per entry; the build allocates nothing else of that size
        tracemalloc.start()
        try:
            table = nm.null_table.__wrapped__(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * table.support.size


class TestSpearmanKernel:
    @pytest.mark.parametrize("n", range(3, 20))
    def test_near_unit_variance(self, n):
        kernel = nm.spearman_null(n)
        assert 0.95 < kernel.variance < 1.0001

    def test_truncated_to_attainable_band(self):
        kernel = nm.spearman_null(10)
        assert kernel.support.max() < math.sqrt(9.0)
        assert kernel.alpha == pytest.approx(
            nm.alpha_from_kurtosis(SPEARMAN_STD_KURTOSIS_BY_N[10])
        )

    def test_symmetric_tails(self):
        kernel = nm.spearman_null(12)
        for z in (0.3, 1.1, 2.4):
            assert kernel.p_upper(z) + kernel.p_upper(-z) == pytest.approx(1.0, abs=1e-12)

    def test_central_two_sided_p_is_one(self):
        assert nm.spearman_null(9).p_two_sided(0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 20, 50])
    def test_untabulated_sizes_rejected(self, n):
        with pytest.raises(DomainError):
            nm.spearman_null(n)

    @pytest.mark.parametrize("n", range(3, 20))
    def test_matches_the_linear_space_kernel(self, n):
        # the oracle is the kernel written out in linear space, which holds at
        # these n (alpha stays small) and overflows once alpha is large
        alpha = nm.alpha_from_kurtosis(SPEARMAN_STD_KURTOSIS_BY_N[n])
        q = math.sqrt(2.0 * alpha + 3.0)
        lim = min(q, math.sqrt(n - 1.0))
        step = 2.0 * lim / nm.SPEARMAN_GRID_POINTS
        grid = -lim + (np.arange(nm.SPEARMAN_GRID_POINTS) + 0.5) * step
        weights = (q * q - grid**2) ** alpha
        probabilities = weights / weights.sum()
        kernel = nm.spearman_null(n)
        assert (kernel.alpha, kernel.q) == (alpha, q)
        assert np.array_equal(kernel.support, grid)
        assert np.abs(kernel.probabilities - probabilities).max() <= 1e-15
        # the oracle's tail has no mid-p term, so z stays on the cell edges,
        # off the grid points
        for z in (-lim - 0.5, *(-lim + step * np.arange(0, 8193, 128)), lim + 0.5):
            assert abs(kernel.p_upper(z) - probabilities[grid > z].sum()) <= 1e-15

    def test_json_round_trip_keeps_the_float_grid(self):
        kernel = nm.spearman_null(7)
        clone = nm.NullTable.from_json(kernel.to_json())
        assert clone.support.dtype == np.float64
        assert np.array_equal(clone.support, kernel.support)
        assert np.array_equal(clone.probabilities, kernel.probabilities)
        assert (clone.n, clone.alpha, clone.q) == (kernel.n, kernel.alpha, kernel.q)
        assert clone.p_upper(1.3) == kernel.p_upper(1.3)
        assert clone.to_json() == kernel.to_json()


#: Sample sizes on both edges of every null's domain: n = 3, the kernel's
#: n = 19 and the default EXACT_LIMIT = 350.
NULL_GRID_NS = (2, 3, 19, 20, 350, 351)

#: The null each test uses at the sizes of NULL_GRID_NS, for each method and
#: ``null=``; DomainError where "exact" asks for a null outside its domain.
#: z_kendall_b has the normal null only, so it refuses "exact" at every n;
#: its None row passes no ``null=`` (the default, "auto").
NULL_CHOICE = {
    ("kemeny", "auto"): ("normal", "lattice", "lattice", "lattice", "lattice", "normal"),
    ("kemeny", "exact"): (DomainError, "lattice", "lattice", "lattice", "lattice", "lattice"),
    ("kemeny", "normal"): ("normal",) * 6,
    ("spearman", "auto"): ("normal", "kernel", "kernel", "normal", "normal", "normal"),
    ("spearman", "exact"): (DomainError, "kernel", "kernel") + (DomainError,) * 3,
    ("spearman", "normal"): ("normal",) * 6,
    ("kendall_b", None): ("normal",) * 6,
    ("kendall_b", "exact"): (DomainError,) * 6,
    ("kendall_b", "normal"): ("normal",) * 6,
}


def grid_columns(n):
    """Two tied, non-constant columns of length n (non-constant from n = 2)."""
    i = np.arange(n)
    return (i % 5).astype(float), ((3 * i + 1) % 7).astype(float)


@pytest.mark.parametrize("method, null", sorted(NULL_CHOICE, key=str))
@pytest.mark.parametrize("n", NULL_GRID_NS)
def test_null_choice_grid(method, null, n):
    x, y = grid_columns(n)
    expected = NULL_CHOICE[method, null][NULL_GRID_NS.index(n)]
    test = getattr(nm, f"z_{method}")
    run = (lambda: test(x, y)) if null is None else (lambda: test(x, y, null=null))
    if expected is DomainError:
        with pytest.raises(DomainError):
            run()
        return
    res = run()
    assert (res.method, res.null, res.details["n"]) == (method, expected, n)


class TestZKemeny:
    def test_identity_and_reversal_frozen(self):
        x = np.arange(10.0)
        up = nm.z_kemeny(x, x)
        down = nm.z_kemeny(x, x[::-1])
        # 45 / sqrt(119.7)
        assert up.statistic == pytest.approx(4.113064, abs=1e-6)
        assert down.statistic == pytest.approx(-4.113064, abs=1e-6)
        assert up.null == "lattice"
        assert down.p_two_sided == pytest.approx(up.p_two_sided, rel=1e-9)
        assert down.p_one_sided > 0.999999
        assert up.p_two_sided < 1e-6

    def test_sample_scale_is_pair_count_times_tau_b(self):
        res = nm.z_kemeny([1, 2, 3], [1, 1, 2], scale="sample")
        assert res.statistic == pytest.approx(math.sqrt(6.0), rel=1e-12)

    def test_p_value_ignores_reported_scale(self):
        x = [1, 2, 3, 3, 5, 6]
        y = [2, 2, 1, 4, 4, 5]
        pop = nm.z_kemeny(x, y, scale="population")
        samp = nm.z_kemeny(x, y, scale="sample")
        assert pop.p_two_sided == samp.p_two_sided
        assert pop.p_one_sided == samp.p_one_sided

    def test_null_association_gives_p_one(self):
        res = nm.z_kemeny([1, 2, 3, 4], [1, 1, 1, 1])
        assert res.statistic == 0.0
        assert res.p_two_sided == pytest.approx(1.0, abs=1e-12)

    def test_constant_column_rejected_on_sample_scale(self):
        with pytest.raises(DegenerateError):
            nm.z_kemeny([1, 2, 3, 4], [1, 1, 1, 1], scale="sample")

    def test_normal_fallback_matches_scipy_tail(self):
        x = np.arange(12.0)
        y = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8.0])
        res = nm.z_kemeny(x, y, null="normal")
        assert res.null == "normal"
        z0 = res.details["net_concordance"] / math.sqrt(float(nm.population_variance(12)))
        assert res.p_one_sided == pytest.approx(ss.norm.sf(z0), rel=1e-12)

    def test_exact_limit_switches_to_normal(self, monkeypatch):
        monkeypatch.setattr(nm, "EXACT_LIMIT", 5)
        x = np.arange(10.0)
        res = nm.z_kemeny(x, x)
        assert res.null == "normal"

    def test_exact_null_needs_n_at_least_three(self):
        with pytest.raises(DomainError):
            nm.z_kemeny([1, 2], [2, 1], null="exact")

    def test_unknown_options_rejected(self):
        with pytest.raises(ValueError):
            nm.z_kemeny([1, 2, 3], [1, 2, 3], scale="bogus")
        with pytest.raises(ValueError):
            nm.z_kemeny([1, 2, 3], [1, 2, 3], null="bogus")

    def test_null_rule_takes_result_method_names(self):
        for method in ("kemeny", "spearman", "kendall_b"):
            nm._exact_null(method, 10)
        with pytest.raises(ValueError, match="kendall-b"):
            nm._exact_null("kendall-b", 10)

    def test_result_dict_shape(self):
        res = nm.z_kemeny([1, 2, 3], [3, 2, 1])
        payload = res.as_dict()
        assert payload["method"] == "kemeny"
        assert payload["details"]["net_concordance"] == -3


class TestZKendallB:
    def test_frozen_small_case(self):
        res = nm.z_kendall_b([1, 2, 3], [1, 1, 2])
        # variance (66 - 18) / 18 = 8/3, z = 2 / sqrt(8/3)
        assert res.statistic == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert res.details["variance"] == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_frozen_reversal(self):
        x = np.arange(10.0)
        res = nm.z_kendall_b(x, x[::-1])
        # tie-free variance 10 * 9 * 25 / 18 = 125
        assert res.statistic == pytest.approx(-45.0 / math.sqrt(125.0), rel=1e-12)

    def test_matches_scipy_asymptotic(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 120:
            x, y = fuzz_pair(rng, n_lo=4, n_hi=28, with_inf=False)
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            ours = nm.z_kendall_b(x, y)
            ref = ss.kendalltau(x, y, variant="b", method="asymptotic")
            assert ours.p_two_sided == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)
            checked += 1

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateError):
            nm.z_kendall_b([1, 1, 1], [1, 2, 3])

    def test_variance_exact_past_int64_block_sums(self):
        # t(t-1)(2t+5) of one 1.7e6 tie block alone passes int64
        n, t = 1_700_010, 1_700_000
        x = np.concatenate([np.zeros(t), np.arange(1.0, n - t + 1)])
        y = np.arange(n) % 3
        tx = [t] + [1] * (n - t)
        ty = [int(c) for c in np.bincount(y)]
        res = nm.z_kendall_b(x, y)
        assert res.details["variance"] == pytest.approx(kendall_b_variance(n, tx, ty), rel=1e-12)

    def test_variance_block_sums_fuzzed(self):
        rng = np.random.default_rng(20241019)
        for _ in range(400):
            n = int(rng.integers(2, 31))
            x, y = (rng.integers(0, rng.integers(1, n + 1), size=n).astype(float) for _ in "xy")
            if rng.random() < 0.2:
                x[rng.integers(0, n, size=n // 3)] = np.inf
            tx, ty = (list(collections.Counter(v.tolist()).values()) for v in (x, y))
            got = nm._kendall_b_variance(x, y)
            assert got == pytest.approx(kendall_b_variance(n, tx, ty), rel=1e-12, abs=1e-12)


def sums(blocks):
    """The three tie-block sums of the tau_b null variance, one block at a time."""
    return (
        sum(u * (u - 1) for u in blocks),
        sum(u * (u - 1) * (u - 2) for u in blocks),
        sum(u * (u - 1) * (2 * u + 5) for u in blocks),
    )


def kendall_b_variance(n, tx, ty):
    """The tie-adjusted null variance of C - D from the block sizes tx, ty."""
    (tx2, tx3, vt), (ty2, ty3, vu) = sums(tx), sums(ty)
    v2 = tx3 * ty3 / (9.0 * n * (n - 1) * (n - 2)) if n > 2 else 0.0
    return (n * (n - 1) * (2 * n + 5) - vt - vu) / 18.0 + tx2 * ty2 / (2.0 * n * (n - 1)) + v2


class TestZSpearman:
    def test_calibrated_statistic_scaling(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        res = nm.z_spearman(x, y)
        assert res.null == "normal"
        assert res.statistic == pytest.approx(res.details["rho"] * math.sqrt(39.0), rel=1e-12)
        assert res.p_one_sided == pytest.approx(ss.norm.sf(res.statistic), rel=1e-12)

    def test_ratio_scale_statistic_only(self):
        x = np.arange(8.0)
        y = np.array([2.0, 1, 3, 5, 4, 8, 6, 7])
        plain = nm.z_spearman(x, y)
        ratio = nm.z_spearman(x, y, as_ratio=True)
        assert ratio.statistic == pytest.approx(plain.statistic / 7.0, rel=1e-12)
        assert ratio.p_two_sided == plain.p_two_sided

    def test_exact_kernel_used_for_small_n(self):
        x = np.arange(10.0)
        res = nm.z_spearman(x, x[::-1])
        assert res.null == "kernel"
        assert res.statistic == pytest.approx(-3.0, rel=1e-12)
        assert res.p_one_sided > 0.999999
        assert res.p_two_sided < 1e-6

    def test_zero_correlation_gives_p_one(self):
        x = np.arange(10.0)
        y = np.array([1.0, 2, 3, 4, 5, 5, 4, 3, 2, 1])
        res = nm.z_spearman(x, y)
        assert res.details["rho"] == 0.0
        assert res.p_two_sided == pytest.approx(1.0, abs=1e-12)

    def test_exact_request_outside_table_rejected(self):
        x = np.arange(25.0)
        with pytest.raises(DomainError):
            nm.z_spearman(x, x, null="exact")

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateError):
            nm.z_spearman([1.0, 1.0, 1.0], [1, 2, 3])

    def test_kernel_and_normal_p_agree_moderately(self):
        # at n = 19 the kernel is already close to the normal in the bulk
        x = np.arange(19.0)
        rng = np.random.default_rng(3)
        y = rng.permutation(19).astype(float)
        exact = nm.z_spearman(x, y, null="exact")
        normal = nm.z_spearman(x, y, null="normal")
        assert exact.p_two_sided == pytest.approx(normal.p_two_sided, abs=0.08)
