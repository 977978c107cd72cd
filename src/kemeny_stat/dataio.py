"""CSV ingestion for the data matrix.

Plain comma-separated text with a mandatory header row.  Cells must parse
as floats; ``inf``/``-inf`` are legal scores (the pair metric only ever
compares values), missing or non-numeric cells are hard errors that point
at the offending line.

The body of a seekable source is parsed in one ``np.loadtxt`` pass straight
into float64, with no Python object per cell.  Anything that pass cannot
take as it is (quoted cells, ``1_000``, blank-cell rows, a width that
differs from the header, fewer than two rows, NaN) sends the source back to
where it started and through the row loop, which is the reference: it
accepts the same inputs and reports every error with its line and column.
"""

from __future__ import annotations

import csv
import math
import warnings
from typing import IO, Sequence

import numpy as np

from .errors import DataError
from .multivar import DataMatrix

__all__ = ["load_csv"]


def load_csv(source: str | IO[str], *, columns: Sequence[str] | None = None) -> DataMatrix:
    """Read a headed CSV into a DataMatrix, optionally selecting columns."""
    if hasattr(source, "read"):
        matrix = _load(source)
    else:
        try:
            with open(source, newline="") as handle:
                matrix = _load(handle)
        except OSError as exc:
            raise DataError(f"cannot read {source}: {exc.strerror}") from None
    if columns is not None:
        matrix = matrix.select(list(columns))
    return matrix


def _load(handle: IO[str]) -> DataMatrix:
    """The columnar pass where the handle can be rewound, else the row loop."""
    try:
        start = handle.tell() if handle.seekable() else None
    except (AttributeError, OSError, ValueError):
        # no position to come back to (a pipe, a closed handle, or iteration
        # already begun)
        start = None
    if start is not None:
        matrix = _load_columns(handle)
        if matrix is not None:
            return matrix
        handle.seek(start)
    return _load_rows(handle)


def _load_columns(handle: IO[str]) -> DataMatrix | None:
    """The body in one ``np.loadtxt`` pass, or None where the row loop decides."""
    row = next(csv.reader(handle), None)
    header = [name.strip() for name in row or ()]
    if not header or not all(header):
        return None
    try:
        with warnings.catch_warnings():
            # a header-only body is the row loop's error to report
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if values.shape[0] < 2 or values.shape[1] != len(header) or np.isnan(values).any():
        return None
    return DataMatrix(values, header)


def _load_rows(handle: IO[str]) -> DataMatrix:
    """Parse cell by cell: the reference path and the error reporter."""
    rows = list(csv.reader(handle))
    if not rows:
        raise DataError("empty input: expected a header row")
    header = [name.strip() for name in rows[0]]
    if not header or any(not name for name in header):
        raise DataError("header row contains empty column names")
    width = len(header)
    data: list[list[float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise DataError(
                f"line {lineno}: expected {width} fields, got {len(row)}"
            )
        parsed: list[float] = []
        for name, cell in zip(header, row):
            token = cell.strip()
            try:
                value = float(token)
            except ValueError:
                raise DataError(
                    f"line {lineno}, column {name!r}: not a number: {token!r}"
                ) from None
            if math.isnan(value):
                raise DataError(
                    f"line {lineno}, column {name!r}: missing values are not supported"
                )
            parsed.append(value)
        data.append(parsed)
    if len(data) < 2:
        raise DataError("need at least two data rows")
    return DataMatrix(data, header)
