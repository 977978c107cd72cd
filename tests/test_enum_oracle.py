"""Exact enumeration oracles.

The n=2 and n=3 histograms below were enumerated by hand (4 and 27 vectors)
before being frozen; larger cases are checked against independent brute force
over itertools, against the chunked brute force below, and against the
closed-form variance.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from kemeny_stat import kemeny_distance_affine, pair_stats
from kemeny_stat.enum_oracle import (
    MAX_ENUM_N,
    ExactDistribution,
    enumerate_population,
    exact_distance_distribution,
    exact_moments,
)
from kemeny_stat.errors import DomainError


def _chunk_vectors(n: int, start: int, stop: int) -> np.ndarray:
    """Universe members with base-n indices in [start, stop), as a matrix."""
    idx = np.arange(start, stop, dtype=np.int64)
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] // place[None, :]) % n).astype(np.int8)  # 0..n-1


def _brute_force_counts(n: int, chunk_size: int = 1 << 17) -> tuple[int, ...]:
    """Reference: score all n^n members in base-n order, chunk by chunk."""
    m = n * (n - 1) // 2
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    counts = np.zeros(2 * m + 1, dtype=np.int64)
    total = n**n
    for start in range(0, total, chunk_size):
        v = _chunk_vectors(n, start, min(start + chunk_size, total))
        acc = np.zeros(v.shape[0], dtype=np.int16)
        for k, l in pairs:
            acc += np.sign(v[:, k] - v[:, l], dtype=np.int8)
        counts += np.bincount(acc.astype(np.int64) + m, minlength=2 * m + 1)
    return tuple(int(c) for c in counts)


class TestPopulationSpec:
    """The population {1..n}^n: the n range every oracle accepts, and its size."""

    def test_bounds(self):
        for oracle in (enumerate_population, exact_distance_distribution, exact_moments):
            for n in (1, MAX_ENUM_N + 1):
                with pytest.raises(DomainError, match=f"2 <= n <= {MAX_ENUM_N}, got {n}"):
                    list(oracle(n))  # the generator checks n on its first step

    def test_size(self):
        for n, size in ((3, 27), (5, 3125)):
            dist = exact_distance_distribution(n)
            assert dist.total == sum(dist.counts) == size


class TestEnumeratePopulation:
    def test_n2_members(self):
        assert list(enumerate_population(2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_count_and_determinism(self):
        first = list(enumerate_population(3))
        assert len(first) == 27
        assert first == list(enumerate_population(3))

    def test_streaming(self):
        it = enumerate_population(4)
        assert next(it) == (1, 1, 1, 1)
        assert next(it) == (1, 1, 1, 2)


class TestExactDistribution:
    def test_n2_hand_histogram(self):
        # vs reference (1,2): (1,2)->-1, (1,1)->0, (2,2)->0, (2,1)->+1
        d = exact_distance_distribution(2)
        assert dict(zip(d.support, d.counts)) == {-1: 1, 0: 2, 1: 1}

    def test_n3_hand_histogram(self):
        d = exact_distance_distribution(3)
        assert dict(zip(d.support, d.counts)) == {
            -3: 1,
            -2: 6,
            -1: 2,
            0: 9,
            1: 2,
            2: 6,
            3: 1,
        }

    def test_n3_exact_moments(self):
        d = exact_distance_distribution(3)
        assert d.mean == 0
        assert d.variance == Fraction(70, 27)
        assert d.fourth_moment == Fraction(358, 27)
        assert d.std_kurtosis == Fraction(9666, 4900)

    def test_total_mass(self):
        for n in (2, 3, 4, 5):
            d = exact_distance_distribution(n)
            assert sum(d.counts) == n**n

    def test_symmetry_and_zero_mean(self):
        for n in (2, 3, 4, 5, 6):
            d = exact_distance_distribution(n)
            assert list(d.counts) == list(d.counts)[::-1]
            assert d.mean == 0

    def test_matches_bruteforce_itertools(self):
        """Independent route: score every member against the reference."""
        for n in (2, 3, 4):
            ref = list(range(1, n + 1))
            m = n * (n - 1) // 2
            hist: dict[int, int] = {}
            for vec in itertools.product(range(1, n + 1), repeat=n):
                s = kemeny_distance_affine(vec, ref) - m
                hist[s] = hist.get(s, 0) + 1
            d = exact_distance_distribution(n)
            assert {v: c for v, c in zip(d.support, d.counts) if c} == hist

    def test_reference_choice_is_immaterial(self):
        """Any strict reference induces the same histogram (relabeling)."""
        n = 4
        base = exact_distance_distribution(n)
        for ref in ([2, 4, 1, 3], [4, 3, 2, 1], [10, -5, 0.5, 7]):
            m = n * (n - 1) // 2
            hist: dict[int, int] = {}
            for vec in itertools.product(range(1, n + 1), repeat=n):
                s = kemeny_distance_affine(vec, ref) - m
                hist[s] = hist.get(s, 0) + 1
            assert {v: c for v, c in zip(base.support, base.counts) if c} == hist

    def test_chunk_size_is_immaterial(self):
        assert _brute_force_counts(4, chunk_size=7) == _brute_force_counts(4)

    def test_matches_chunked_bruteforce(self):
        for n in range(2, 8):
            assert exact_distance_distribution(n).counts == _brute_force_counts(n)

    def test_n8_pinned(self):
        """Values read from the n^n brute force, which takes seconds at n = 8."""
        d = exact_distance_distribution(8)
        assert d.support == tuple(range(-28, 29))
        assert sum(d.counts) == 8**8
        assert list(d.counts) == list(d.counts)[::-1]

    def test_tie_free_restriction_is_doubled_kendall(self):
        """Strict members reproduce the inversion distribution at scale 2."""
        n = 5
        ref = list(range(1, n + 1))
        inv_hist: dict[int, int] = {}
        for perm in itertools.permutations(range(1, n + 1)):
            disc = pair_stats(perm, ref).discordant
            inv_hist[disc] = inv_hist.get(disc, 0) + 1
        # distances of strict members only
        dist_hist: dict[int, int] = {}
        for vec in itertools.product(range(1, n + 1), repeat=n):
            if len(set(vec)) == n:
                d = kemeny_distance_affine(vec, ref)
                dist_hist[d] = dist_hist.get(d, 0) + 1
        assert dist_hist == {2 * k: v for k, v in inv_hist.items()}


class TestExactMoments:
    def test_n3(self):
        var, kurt = exact_moments(3)
        assert (var, kurt) == (Fraction(70, 27), Fraction(9666, 4900))

    def test_n7_n8_pinned(self):
        assert exact_moments(7) == (Fraction(286, 7), Fraction(757067, 286286))
        assert exact_moments(8) == (Fraction(245, 4), Fraction(661, 245))

    def test_variance_values_are_rational(self):
        var, kurt = exact_moments(4)
        assert isinstance(var, Fraction) and isinstance(kurt, Fraction)
        assert var == 7  # (n-1)^2 (n+4)(2n-1) / 18n at n=4
