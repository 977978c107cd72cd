import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from kemeny_stat import dataio
from kemeny_stat.dataio import load_csv
from kemeny_stat.errors import DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n5.5,-6\n")
        dm = load_csv(path)
        assert dm.columns == ("a", "b")
        assert np.array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0], [5.5, -6.0]])

    def test_file_like_source(self):
        dm = load_csv(io.StringIO("x,y\n1,2\n3,4\n"))
        assert dm.n == 2 and dm.p == 2

    def test_infinities_accepted(self, tmp_path):
        path = write(tmp_path, "u,v\ninf,1\n-inf,2\n0,3\n")
        dm = load_csv(path)
        assert dm.values[0, 0] == math.inf
        assert dm.values[1, 0] == -math.inf

    def test_nan_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "u,v\n1,2\nNaN,4\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_non_numeric_rejected_with_location(self, tmp_path):
        path = write(tmp_path, "u,v\n1,2\n3,apple\n")
        with pytest.raises(DataError, match="line 3.*'v'.*apple"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "u,v\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3.*expected 2 fields"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_csv(write(tmp_path, ""))

    def test_too_few_rows_rejected(self, tmp_path):
        with pytest.raises(DataError, match="two data rows"):
            load_csv(write(tmp_path, "a,b\n1,2\n"))

    def test_empty_header_name_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty column names"):
            load_csv(write(tmp_path, "a,\n1,2\n3,4\n"))

    def test_blank_lines_skipped(self, tmp_path):
        dm = load_csv(write(tmp_path, "a,b\n1,2\n\n3,4\n  ,  \n"))
        assert dm.n == 2

    def test_column_selection(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        dm = load_csv(path, columns=["c", "a"])
        assert dm.columns == ("c", "a")
        assert np.array_equal(dm.values[:, 0], [3.0, 6.0])

    def test_unknown_selection_lists_names(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="a, b"):
            load_csv(path, columns=["zz"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_whitespace_tolerated(self, tmp_path):
        dm = load_csv(write(tmp_path, " a , b \n 1 , 2 \n 3 , 4 \n"))
        assert dm.columns == ("a", "b")
        assert dm.values[1, 1] == 4.0


def _both_paths(path):
    """(columnar result or None, row-loop result) for one file."""
    with open(path, newline="") as handle:
        fast = dataio._load_columns(handle)
    with open(path, newline="") as handle:
        return fast, dataio._load_rows(handle)


class TestColumnarIngest:
    """The one-pass loadtxt body against the cell-by-cell row loop."""

    def test_matches_row_loop_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        specials = [math.inf, -math.inf, -0.0, 0.0, 5e-324, -4.9e-320, 1e-310, 1e308]
        formats = ["%.17g", "%.3f", "%.6e", None]
        for trial in range(12):
            n, p = int(rng.integers(2, 300)), int(rng.integers(1, 5))
            values = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-300, 300, (n, p))
            cells = rng.random((n, p)) < 0.1
            values[cells] = rng.choice(specials, int(cells.sum()))
            fmt = formats[trial % len(formats)]
            body = "\n".join(
                ",".join(repr(float(v)) if fmt is None else fmt % v for v in row)
                for row in values
            )
            path = write(tmp_path, ",".join(f"c{j}" for j in range(p)) + "\n" + body + "\n")
            fast, slow = _both_paths(path)
            assert fast is not None
            assert fast.columns == slow.columns
            assert fast.values.tobytes() == slow.values.tobytes()
            assert load_csv(path).values.tobytes() == slow.values.tobytes()
            if fmt is None:
                assert slow.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('a,b\n"1",2\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),
            ("a,b\n1_000,2\n3,4\n", [[1000.0, 2.0], [3.0, 4.0]]),
            ("a,b\n１,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("a,b\n1,2\n,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("a,b\n1,2\n  \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ],
        ids=["quoted", "underscore", "full-width", "blank-cells", "blank-space"],
    )
    def test_fallback_accepts_what_the_loop_accepts(self, tmp_path, text, expected):
        path = write(tmp_path, text)
        fast, slow = _both_paths(path)
        assert fast is None
        assert np.array_equal(slow.values, expected)
        assert load_csv(path).values.tobytes() == slow.values.tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("u,v\n1,2\n3,apple\n", "line 3, column 'v': not a number: 'apple'"),
            ("u,v\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
            ("u,v\n1,2,3\n4,5,6\n", "line 2: expected 2 fields, got 3"),
            ("u,v\n1,2\n", "need at least two data rows"),
            ("u,v\n1,2\nnan,4\n", "line 3, column 'u': missing values are not supported"),
            ("u,v\n1,2\n3,-nan\n", "line 3, column 'v': missing values are not supported"),
            ('u,v\n"1,5",2\n3,4\n', "line 2, column 'u': not a number: '1,5'"),
        ],
        ids=["not-a-number", "ragged", "width", "one-row", "nan", "signed-nan", "quoted-comma"],
    )
    def test_fallback_reports_the_loop_error(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with open(path, newline="") as handle:
            assert dataio._load_columns(handle) is None
        with pytest.raises(DataError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == message

    def test_line_endings(self, tmp_path):
        for eol in ("\n", "\r\n", "\r"):
            dm = load_csv(write(tmp_path, eol.join(["a,b", "1,2", "3,4", ""])))
            assert np.array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.filterwarnings("error")
    def test_header_only_raises_without_warning(self, tmp_path):
        for text in ("a,b\n", "a,b", "a,b\n\n\n"):
            with pytest.raises(DataError, match="need at least two data rows"):
                load_csv(write(tmp_path, text))

    def test_non_seekable_source(self):
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as sink:
            sink.write("a,b\n1,2\n3,4\n")
        with os.fdopen(read_fd, newline="") as pipe:
            assert not pipe.seekable()
            dm = load_csv(pipe)
        assert np.array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_stream_fallback_starts_where_the_caller_left_it(self):
        stream = io.StringIO("ignored line\na,b\n1_0,2\n3,4\n")
        stream.readline()
        dm = load_csv(stream)
        assert dm.columns == ("a", "b")
        assert np.array_equal(dm.values, [[10.0, 2.0], [3.0, 4.0]])

    def test_peak_memory_is_bounded(self, tmp_path):
        rng = np.random.default_rng(5)
        path = str(tmp_path / "big.csv")
        np.savetxt(path, rng.standard_normal((100_000, 2)), fmt="%.17g",
                   delimiter=",", header="x,y", comments="")
        load_csv(write(tmp_path, "x,y\n1,2\n3,4\n", name="warm.csv"))
        tracemalloc.start()
        try:
            dm = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dm.n == 100_000
        # the float64 result is 1.6 MB, and DataMatrix keeps its own copy
        assert peak < 4_000_000
