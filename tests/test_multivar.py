import math

import numpy as np
import pytest

from kemeny_stat import multivar as mv
from kemeny_stat import rank_core as rc
from kemeny_stat.errors import DataError, DecompositionError, DomainError

from conftest import CLONES


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

    @pytest.mark.parametrize("clone", sorted(CLONES))
    def test_copies_are_rebuilt_read_only(self, clone):
        dm = mv.DataMatrix([[1.0, -math.inf], [3.0, 4.0]], ["u", "v"])
        twin = CLONES[clone](dm)
        assert twin is not dm and twin.columns == ("u", "v")
        assert np.array_equal(twin.values, dm.values)
        with pytest.raises(ValueError, match="read-only"):
            twin.values[0, 0] = 9.0
        with pytest.raises(AttributeError):
            twin.columns = ("a", "b")

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

    def test_compares_and_hashes_by_identity(self, data):
        # generated __eq__/__hash__ over the ndarray fields would raise here
        a, b = mv.correlation_matrix(data), mv.correlation_matrix(data)
        assert a == a and not a == b and a != b
        assert a in [b, a] and b not in [a]
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

    def test_unknown_method(self, data):
        with pytest.raises(ValueError):
            mv.correlation_matrix(data, "pearson")


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
