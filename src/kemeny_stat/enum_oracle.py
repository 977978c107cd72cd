"""Exact small-n oracles over the tied-vector universe {1..n}^n.

Fixing any strict reference vector (relabeling makes them all equivalent;
the ascending one is used), the centered affine distance of a universe member
X reduces to the integer

    s(X) = sum_{k<l} sign(x_k - x_l) = D - C  in [-m, m],  m = n(n-1)/2,

and the full distribution of s over the n^n members is tabulated with exact
integer counts.  Moments come out as rationals, no floating point anywhere on
the oracle path.

The counts come from MacMahon's q-multinomial (Combinatory Analysis, 1916)
rather than from visiting the n^n members.  The values 1..n are added in
increasing order.  Inserting c copies of the new largest value into a word of
length L scores each of the L*c cross pairs +-1 (+1 where the new copy comes
first) and each tie among the copies 0, so the interleavings contribute
t^(-L c) [L+c choose c]_{t^2} to the generating polynomial of s, a Gaussian
binomial.  The state is one exact integer polynomial per word length, in
Python ints, so nothing can wrap.

These tables are the ground truth the closed-form null moments are tested
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DomainError

__all__ = [
    "MAX_ENUM_N",
    "ExactDistribution",
    "enumerate_population",
    "exact_distance_distribution",
    "exact_moments",
]

#: Largest n the oracle accepts.  The cap is the accepted range, not a cost
#: limit: the dynamic program takes about 3 ms at n = 8 and, uncapped, 0.15 s
#: at n = 15 and 7 s at n = 25 (CPython 3.11, one core of a 2-core Xeon VM).
MAX_ENUM_N: int = 8


def _check_n(n: int) -> None:
    """The one range check of the oracles: 2 <= n <= MAX_ENUM_N."""
    if not 2 <= n <= MAX_ENUM_N:
        raise DomainError(f"enumeration supports 2 <= n <= {MAX_ENUM_N}, got {n}")


@dataclass(frozen=True)
class ExactDistribution:
    """Distribution of the centered distance over a universe, exact counts.

    ``support`` is the ascending lattice -m..m; ``counts[i]`` is the number of
    universe members at centered distance ``support[i]`` from the strict
    reference.  Moments are exact rationals; the mean is identically 0 by the
    reversal symmetry x -> (n+1) - x.
    """

    n: int
    support: tuple[int, ...]
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.n**self.n

    @property
    def mean(self) -> Fraction:
        return Fraction(
            sum(v * c for v, c in zip(self.support, self.counts)), self.total
        )

    @property
    def variance(self) -> Fraction:
        return Fraction(
            sum(v * v * c for v, c in zip(self.support, self.counts)), self.total
        )

    @property
    def fourth_moment(self) -> Fraction:
        return Fraction(
            sum(v**4 * c for v, c in zip(self.support, self.counts)), self.total
        )

    @property
    def std_kurtosis(self) -> Fraction:
        """mu4 / mu2^2 (standardized, not excess)."""
        return self.fourth_moment / self.variance**2

    @property
    def excess_kurtosis(self) -> Fraction:
        return self.std_kurtosis - 3


def enumerate_population(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every vector of {1..n}^n, base-n digit order, bounded memory."""
    _check_n(n)
    # digit order == base-n expansion of the universe index
    yield from itertools.product(range(1, n + 1), repeat=n)


def _gaussian_binomials(n: int) -> list[list[list[int]]]:
    """``rows[a][b]`` lists the coefficients of [a choose b]_q, 0 <= b <= a <= n.

    q-Pascal rule: [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b].
    """
    rows = [[[1]]]
    for a in range(1, n + 1):
        prev = rows[-1]
        row = [[1]]
        for b in range(1, a):
            coef = prev[b - 1] + [0] * (a - b)
            for i, c in enumerate(prev[b], start=b):
                coef[i] += c
            row.append(coef)
        row.append([1])
        rows.append(row)
    return rows


def exact_distance_distribution(n: int) -> ExactDistribution:
    """Tabulate s(X) = D - C against the ascending strict reference.

    Exact Python-int counts from the q-multinomial dynamic program in the
    module docstring.  The histogram restricted to the n! tie-free members
    reproduces the classical Kendall inversion distribution at twice the
    distance scale (tested, not assumed).
    """
    _check_n(n)
    m = n * (n - 1) // 2
    gauss = _gaussian_binomials(n)
    # words[L][i]: words of length L over the values added so far with
    # s = i - L(L-1)/2
    words = [[0] * (length * (length - 1) + 1) for length in range(n + 1)]
    words[0][0] = 1
    for _ in range(n):
        # longest first, so a word extended by this value is not extended again
        for length in range(n - 1, -1, -1):
            poly = words[length]
            for c in range(1, n - length + 1):
                grown = length + c
                target = words[grown]
                # t^(-L c) [L+c choose c]_{t^2}, shifted onto the longer
                # word's index: s + M_{L+c} = (s + M_L) + 2a + c(c-1)/2
                offset = c * (c - 1) // 2
                binom = gauss[grown][c]
                for i, w in enumerate(poly):
                    if w:
                        for a, g in enumerate(binom):
                            target[i + offset + 2 * a] += w * g
    support = tuple(range(-m, m + 1))
    return ExactDistribution(n=n, support=support, counts=tuple(words[n]))


def exact_moments(n: int) -> tuple[Fraction, Fraction]:
    """(variance, standardized kurtosis) of the centered distance, exact."""
    dist = exact_distance_distribution(n)
    return dist.variance, dist.std_kurtosis
