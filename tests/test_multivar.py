import math

import numpy as np
import pytest

from kemeny_stat import multivar as mv
from kemeny_stat import rank_core as rc
from kemeny_stat.errors import DataError, DecompositionError, DomainError


def random_spd(rng, p, jitter=0.5):
    a = rng.normal(size=(p, p))
    return a @ a.T + jitter * np.eye(p)


class TestDataMatrix:
    def test_basic_shape_and_names(self):
        dm = mv.DataMatrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], ["u", "v"])
        assert dm.n == 3 and dm.p == 2
        assert dm.columns == ("u", "v")
        assert np.array_equal(dm.column("v"), [2.0, 4.0, 6.0])

    def test_default_names(self):
        dm = mv.DataMatrix(np.zeros((2, 3)) + [[1, 2, 3], [4, 5, 6]])
        assert dm.columns == ("c0", "c1", "c2")

    def test_immutable(self):
        dm = mv.DataMatrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(AttributeError):
            dm.values = np.zeros((2, 2))
        with pytest.raises(ValueError):
            dm.values[0, 0] = 9.0

    def test_nan_reports_row(self):
        with pytest.raises(DataError, match="row 1"):
            mv.DataMatrix([[1.0, 2.0], [math.nan, 4.0], [5.0, 6.0]])

    def test_infinities_allowed(self):
        dm = mv.DataMatrix([[math.inf, 2.0], [3.0, -math.inf]])
        assert np.isinf(dm.values).sum() == 2

    def test_bad_shapes(self):
        with pytest.raises(DataError):
            mv.DataMatrix([1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            mv.DataMatrix([[1.0, 2.0]])
        with pytest.raises(DataError):
            mv.DataMatrix([[1.0], [2.0]], ["a", "b"])
        with pytest.raises(DataError):
            mv.DataMatrix([[1.0, 2.0], [3.0, 4.0]], ["a", "a"])

    def test_missing_column_lists_available(self):
        dm = mv.DataMatrix([[1.0, 2.0], [3.0, 4.0]], ["left", "right"])
        with pytest.raises(DataError, match="left, right"):
            dm.column("middle")

    def test_select(self):
        dm = mv.DataMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], ["a", "b", "c"])
        sub = dm.select(["c", "a"])
        assert sub.columns == ("c", "a")
        assert np.array_equal(sub.values[:, 0], [3.0, 6.0])


class TestCorrelationMatrix:
    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(11)
        return mv.DataMatrix(rng.integers(0, 5, size=(40, 4)).astype(float))

    @pytest.mark.parametrize("method", sorted(mv.CORRELATION_METHODS))
    def test_symmetric_unit_diagonal(self, data, method):
        corr = mv.correlation_matrix(data, method)
        assert np.array_equal(corr.matrix, corr.matrix.T)
        assert np.array_equal(np.diag(corr.matrix), np.ones(4))

    def test_entries_match_pairwise_calls(self, data):
        corr = mv.correlation_matrix(data, "kemeny_tau")
        want = rc.kemeny_tau(data.values[:, 1], data.values[:, 3])
        assert corr.matrix[1, 3] == want

    def test_sigmas_are_untied_pair_roots(self, data):
        corr = mv.correlation_matrix(data, "spearman")
        want = [math.sqrt(rc.kemeny_variance(data.values[:, j])) for j in range(4)]
        assert np.allclose(corr.sigmas, want, rtol=0, atol=0)

    def test_unknown_method(self, data):
        with pytest.raises(ValueError):
            mv.correlation_matrix(data, "pearson")

    def test_scale_to_covariance_by_hand(self):
        corr = mv.RankCorrMatrix(
            matrix=np.array([[1.0, 0.5], [0.5, 1.0]]),
            method="kemeny_tau",
            columns=("a", "b"),
            sigmas=np.array([2.0, 3.0]),
        )
        cov = mv.scale_to_covariance(corr)
        assert np.array_equal(cov, [[4.0, 3.0], [3.0, 9.0]])


class TestEigen:
    def test_min_eigenvalue_diagonal(self):
        assert mv.min_eigenvalue(np.diag([3.0, 1.0, 2.0])) == pytest.approx(1.0)

    def test_accepts_corr_wrapper(self):
        corr = mv.correlation_matrix(
            mv.DataMatrix(np.random.default_rng(0).normal(size=(30, 3)))
        )
        assert mv.min_eigenvalue(corr) == pytest.approx(
            mv.min_eigenvalue(corr.matrix)
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            mv.min_eigenvalue(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            mv.min_eigenvalue(np.zeros((2, 3)))

    def test_positive_definite_flag(self):
        assert mv.is_positive_definite(np.eye(3))
        assert not mv.is_positive_definite(np.diag([1.0, -0.5]))
        assert not mv.is_positive_definite(np.diag([1.0, 0.0]))


class TestLoglik:
    def test_kernel_value_at_sample(self):
        rng = np.random.default_rng(5)
        s = random_spd(rng, 4)
        # K(S; S) = -log|S| - p
        want = -math.log(np.linalg.det(s)) - 4.0
        assert mv.loglik_kernel(s, s) == pytest.approx(want, rel=1e-10)

    def test_maximised_at_sample_covariance(self):
        rng = np.random.default_rng(17)
        s = random_spd(rng, 5)
        base = mv.loglik_kernel(s, s)
        for _ in range(50):
            bump = rng.normal(scale=0.1, size=(5, 5))
            candidate = s + 0.5 * (bump + bump.T)
            if mv.min_eigenvalue(candidate) <= 1e-8:
                continue
            assert mv.loglik_kernel(candidate, s) < base

    def test_non_pd_candidate_raises(self):
        with pytest.raises(DecompositionError):
            mv.loglik_kernel(np.diag([1.0, -1.0]), np.eye(2))

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            mv.loglik_kernel(np.eye(2), np.eye(3))

    def test_full_log_likelihood_scaling(self):
        rng = np.random.default_rng(2)
        s = random_spd(rng, 3)
        k = mv.loglik_kernel(s, s)
        n = 40
        want = -0.5 * 3 * n * math.log(2 * math.pi) + 0.5 * n * k
        assert mv.full_log_likelihood(s, s, n) == pytest.approx(want, rel=1e-12)


class TestLoadings:
    @pytest.mark.parametrize("rho", [-1.0, -0.49, 0.0, 0.3, 1.0])
    def test_reproduces_correlation(self, rho):
        sol = mv.polychoric_loadings(rho)
        assert sol.reproduced == pytest.approx(rho, abs=1e-15)
        assert sol.error_variance == pytest.approx(1.0 - abs(rho))
        assert sol.loading_x >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            mv.polychoric_loadings(1.5)


class TestTetrachoric:
    def test_interior_frozen_values(self):
        # ad/bc = 9 -> cos(pi/4); ad/bc = 1/9 -> cos(3pi/4)
        assert mv.tetrachoric_from_table(30, 10, 10, 30) == pytest.approx(
            math.sqrt(0.5)
        )
        assert mv.tetrachoric_from_table(10, 30, 30, 10) == pytest.approx(
            -math.sqrt(0.5)
        )

    def test_balanced_table_is_zero(self):
        assert mv.tetrachoric_from_table(5, 5, 5, 5) == pytest.approx(0.0, abs=1e-15)

    def test_boundary_rules(self):
        assert mv.tetrachoric_from_table(4, 0, 0, 6) == 1.0
        assert mv.tetrachoric_from_table(0, 3, 7, 0) == -1.0
        assert mv.tetrachoric_from_table(0, 3, 7, 2) == -1.0
        assert mv.tetrachoric_from_table(5, 0, 7, 2) == 1.0

    def test_bad_tables(self):
        with pytest.raises(DataError):
            mv.tetrachoric_from_table(-1, 2, 3, 4)
        with pytest.raises(DataError):
            mv.tetrachoric_from_table(0, 0, 0, 0)


class TestHoeffding:
    def brute_force(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        n = len(x)

        def h(t):
            return 0.5 * (np.sign(t) + 1.0)

        total = 0.0
        for i in range(n):
            f1 = sum(h(x[i] - x[j]) for j in range(n)) / n
            f2 = sum(h(y[i] - y[j]) for j in range(n)) / n
            f12 = sum(h(x[i] - x[j]) * h(y[i] - y[j]) for j in range(n)) / n
            total += (f12 - f1 * f2) ** 2
        return total / n

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            x = rng.integers(0, 4, n).astype(float)
            y = rng.integers(0, 4, n).astype(float)
            got = mv.hoeffding_h(x, y).statistic
            assert got == pytest.approx(self.brute_force(x, y), rel=1e-12)

    def test_constant_margin_is_zero(self):
        x = np.arange(12.0)
        assert mv.hoeffding_h(x, np.ones(12)).statistic == 0.0

    def test_monotone_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=25)
        y = rng.normal(size=25) + 0.5 * x
        base = mv.hoeffding_h(x, y).statistic
        assert mv.hoeffding_h(np.exp(x), y).statistic == base
        assert mv.hoeffding_h(x, 3.0 * y - 7.0).statistic == base

    def test_dependence_detected(self):
        x = np.arange(30.0)
        res = mv.hoeffding_h(x, x, permutations=99, seed=1)
        assert res.statistic > 0.01
        assert res.p_value == pytest.approx(1.0 / 100.0)

    def test_independence_not_flagged(self):
        rng = np.random.default_rng(23)
        res = mv.hoeffding_h(
            rng.normal(size=40), rng.normal(size=40), permutations=199, seed=2
        )
        assert res.p_value > 0.05

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        a = mv.hoeffding_h(x, y, permutations=50, seed=7)
        b = mv.hoeffding_h(x, y, permutations=50, seed=7)
        assert a.p_value == b.p_value

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mv.hoeffding_h([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_refuses_large_n_before_allocating(self, monkeypatch):
        monkeypatch.setattr(rc, "PAIRWISE_MAX_N", 10)
        with pytest.raises(DataError, match="hoeffding_h.*n = 11"):
            mv.hoeffding_h(np.arange(11.0), np.arange(11.0))
        assert mv.hoeffding_h(np.arange(10.0), np.arange(10.0)).statistic > 0
