"""Exception taxonomy shared across the package.

Every error raised on purpose derives from :class:`KemenyStatError` so callers
can catch one base type.  The three concrete families map onto the CLI exit
codes: usage problems are argparse's business (exit 1), :class:`DataError`
means the input data is unusable (exit 2), and :class:`NumericError` means the
mathematics refused (exit 3).
"""

from __future__ import annotations


class KemenyStatError(Exception):
    """Base class for all package-raised errors."""


class DataError(KemenyStatError, ValueError):
    """Invalid data: NaN values, bad shapes, too-short vectors, parse failures."""


class NumericError(KemenyStatError, ValueError):
    """Invalid mathematics: domain violations, degenerate or non-PD inputs."""


class DomainError(NumericError):
    """A parameter lies outside the mathematical domain of a formula."""


class DegenerateError(NumericError):
    """A column is constant (one tie block) where spread is required."""


class DecompositionError(NumericError):
    """A matrix factorization failed (not symmetric positive definite)."""
