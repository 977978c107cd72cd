"""CLI behaviour: payload shapes, exit-code mapping, determinism plumbing."""

import itertools
import json
import math

import numpy as np
import pytest

from kemeny_stat import null_models
from kemeny_stat.cli import build_parser, main
from kemeny_stat.null_models import NullTable
from kemeny_stat.simulate import EXPERIMENTS, default_config, run_simulation


@pytest.fixture()
def csv_path(tmp_path):
    rng = np.random.default_rng(7)
    lines = ["u,v,w"]
    for _ in range(25):
        a, b, c = rng.integers(1, 6, size=3)
        lines.append(f"{a},{b},{c}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def monotone_csv(tmp_path):
    path = tmp_path / "mono.csv"
    rows = "\n".join(f"{i},{i * 2 + 1}" for i in range(1, 13))
    path.write_text("a,b\n" + rows + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorrelate:
    def test_all_methods_json(self, capsys, csv_path):
        code, out, _ = run_cli(capsys, "correlate", csv_path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["estimates"]) == {
            "pearson", "spearman", "kemeny-rho", "kemeny-tau",
            "kendall-b", "arcsine-r",
        }
        # the two Spearman routes must coincide
        assert payload["estimates"]["spearman"] == pytest.approx(
            payload["estimates"]["kemeny-rho"], abs=1e-12
        )
        assert payload["n"] == 25
        assert payload["ties"]["pairs"] == 300

    def test_single_method_text(self, capsys, csv_path):
        code, out, _ = run_cli(
            capsys, "correlate", csv_path, "--x", "u", "--y", "w",
            "--method", "kendall-b",
        )
        assert code == 0
        assert "kendall-b" in out
        assert "pearson" not in out

    def test_column_selection_defaults_to_first_two(self, capsys, csv_path):
        code, out, _ = run_cli(capsys, "correlate", csv_path, "--json")
        assert json.loads(out)["columns"] == ["u", "v"]


class TestTest:
    def test_concordant_kemeny_significant(self, capsys, monotone_csv):
        code, out, _ = run_cli(
            capsys, "test", monotone_csv, "--method", "kemeny", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["z"] > 0
        assert payload["p_two_sided"] < 0.05
        assert payload["estimate"] == 1.0
        # both null routes reported
        assert payload["p_exact_null"] is not None
        assert payload["p_normal"] is not None

    def test_kendall_b_tie_free_matches_classical_z(self, capsys, monotone_csv):
        code, out, _ = run_cli(
            capsys, "test", monotone_csv, "--method", "kendall-b", "--json"
        )
        payload = json.loads(out)
        n = payload["n"]
        s = n * (n - 1) // 2  # fully concordant
        classical = s / math.sqrt(n * (n - 1) * (2 * n + 5) / 18)
        assert payload["z"] == pytest.approx(classical, abs=1e-12)
        assert payload["p_exact_null"] is None

    def test_spearman_ratio_statistic(self, capsys, monotone_csv):
        _, out_plain, _ = run_cli(
            capsys, "test", monotone_csv, "--method", "spearman", "--json"
        )
        _, out_ratio, _ = run_cli(
            capsys, "test", monotone_csv, "--method", "spearman", "--ratio",
            "--json",
        )
        plain = json.loads(out_plain)
        ratio = json.loads(out_ratio)
        n = plain["n"]
        assert ratio["z"] == pytest.approx(plain["z"] / (n - 1), rel=1e-12)
        # display scale must not move the p value
        assert ratio["p_two_sided"] == pytest.approx(
            plain["p_two_sided"], rel=1e-12
        )

    def test_text_mode_lists_both_p_routes(self, capsys, monotone_csv):
        code, out, _ = run_cli(capsys, "test", monotone_csv)
        assert code == 0
        assert "p exact-null" in out
        assert "normal-approx" in out

    def test_past_exact_limit_builds_no_lattice(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(400)
        rows = "\n".join(f"{a},{b}" for a, b in rng.integers(1, 6, size=(400, 2)))
        path = tmp_path / "n400.csv"
        path.write_text("a,b\n" + rows + "\n")

        def refuse(n):
            raise AssertionError(f"null_table({n}) built for an unused exact column")

        monkeypatch.setattr(null_models, "null_table", refuse)
        for null in ("auto", "normal"):
            code, out, _ = run_cli(capsys, "test", str(path), "--null", null, "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["null"] == "normal"
            assert payload["p_exact_null"] is None
        _, out, _ = run_cli(capsys, "test", str(path))
        assert "p exact-null  n/a" in out
        assert "n/a (n = 400 > exact limit 350; --null exact builds it)" in out
        monkeypatch.undo()
        _, out, _ = run_cli(capsys, "test", str(path), "--null", "exact", "--json")
        assert json.loads(out)["p_exact_null"] is not None

    def test_text_says_why_exact_is_na(self, capsys, csv_path, tmp_path):
        reasons = {
            "spearman": "n/a (n = 25 outside the tabulated 3..19)",
            "kendall-b": "n/a (no exact null)",
        }
        for method, reason in reasons.items():
            code, out, _ = run_cli(capsys, "test", csv_path, "--method", method)
            assert code == 0 and reason in out
        code, out, _ = run_cli(capsys, "test", csv_path)
        assert code == 0 and "n/a" not in out
        two = tmp_path / "two.csv"
        two.write_text("a,b\n1,2\n3,1\n")
        code, out, _ = run_cli(capsys, "test", str(two))
        assert code == 0 and "n/a (no lattice null below n = 3)" in out

        # method x --null x n on both edges of every null's domain: the reason
        # the exact p is n/a (None: it is printed), or the refusal of --null
        # exact outside the null's domain
        ns = (2, 3, 19, 20, 350, 351)
        reasons = {
            "kemeny": {2: "no lattice null below n = 3",
                       351: "n = 351 > exact limit 350; --null exact builds it"},
            "spearman": {n: f"n = {n} outside the tabulated 3..19" for n in (2, 20, 350, 351)},
            "kendall-b": {n: "no exact null" for n in ns},
        }
        refusals = {
            ("kemeny", 2): "shape parameter is undefined for n < 3",
            **{("kendall-b", n): "kendall_b has no exact null; use --null auto or normal"
               for n in ns},
            **{("spearman", n): "exact midrank null is tabulated for 3 <= n <= 19 only"
               for n in (2, 20, 350, 351)},
        }
        for n in ns:
            path = tmp_path / f"grid{n}.csv"
            path.write_text("a,b\n" + "".join(f"{i % 5},{(3 * i + 1) % 7}\n" for i in range(n)))
            for method, null in itertools.product(reasons, ("auto", "exact", "normal")):
                code, out, err = run_cli(
                    capsys, "test", str(path), "--method", method, "--null", null
                )
                case = (method, null, n)
                if null == "exact" and (method, n) in refusals:
                    assert (code, out) == (3, ""), case
                    assert err == f"numeric error: {refusals[method, n]}\n", case
                    continue
                assert code == 0 and err == "", case
                reason = reasons[method].get(n) if null != "exact" else None
                if reason is None:
                    assert "n/a" not in out, case
                else:
                    assert f"  p exact-null  n/a ({reason})   normal-approx " in out, case


class TestMatrix:
    def test_json_matrix_symmetric_unit_diagonal(self, capsys, csv_path):
        code, out, _ = run_cli(capsys, "matrix", csv_path, "--json")
        assert code == 0
        payload = json.loads(out)
        m = np.array(payload["matrix"])
        assert m.shape == (3, 3)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)
        assert isinstance(payload["positive_definite"], bool)
        assert payload["columns"] == ["u", "v", "w"]

    def test_alternate_method(self, capsys, csv_path):
        code, out, _ = run_cli(
            capsys, "matrix", csv_path, "--method", "arcsine-r", "--json"
        )
        assert code == 0
        assert json.loads(out)["method"] == "arcsine-r"


class TestEnumerate:
    def test_exact_distribution_payload(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["universe"] == 27
        assert payload["variance"] == "70/27"
        assert sum(payload["counts"]) == 27
        assert payload["support"][0] == -payload["support"][-1]

    def test_text_shows_exact_variance(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3")
        assert code == 0
        assert "70/27" in out


class TestNulls:
    def test_json_round_trips_through_from_json(self, capsys):
        code, out, _ = run_cli(capsys, "nulls", "12", "--json")
        assert code == 0
        table = NullTable.from_json(out)
        assert table.n == 12
        assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "nulls", "15", "--level", "0.05")
        assert code == 0
        assert "1.9500" in out
        assert "alpha" in out

    @pytest.mark.parametrize("level", ["0", "1", "1.5", "nan"])
    def test_level_outside_the_unit_interval_is_numeric_error(self, capsys, level):
        for mode in ((), ("--json",)):
            code, out, err = run_cli(capsys, "nulls", "15", "--level", level, *mode)
            assert (code, out) == (3, "")
            assert err.startswith("numeric error: two-sided level must lie in (0, 1), got ")


class TestSimulate:
    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--experiment", "table1")
        assert code == 1
        assert "--seed" in err

    def test_matches_library_byte_for_byte(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--experiment", "null_calibration",
            "--seed", "11", "--reps", "60", "--json",
        )
        assert code == 0
        config = default_config("null_calibration", seed=11, replications=60)
        assert out == run_simulation(config).to_json()

    def test_out_file_and_text_header(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, "simulate", "--experiment", "table1", "--seed", "3",
            "--reps", "40", "--n", "4", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert "seed: 3" in text
        assert "net_concordance" in text

    def test_invalid_reps_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--experiment", "table1", "--seed", "1",
            "--reps", "0",
        )
        assert code == 1
        assert "replications" in err


class TestConsistencyReport:
    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "consistency-report", "--oracle-n", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"]

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "consistency-report", "--oracle-n", "3")
        assert code == 0
        assert "totals:" in out


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "error" in err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "correlate", str(tmp_path / "no.csv"))
        assert code == 2
        assert "data error" in err

    def test_unknown_column_is_data_error(self, capsys, csv_path):
        code, _, err = run_cli(capsys, "correlate", csv_path, "--x", "zz")
        assert code == 2
        assert "zz" in err

    def test_degenerate_column_is_numeric_error(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("a,b\n1,1\n1,2\n1,3\n")
        code, _, err = run_cli(
            capsys, "test", str(path), "--method", "kemeny",
            "--scale", "sample",
        )
        assert code == 3
        assert "numeric error" in err
        for argv, message in (
            (("test", "--method", "kendall-b"), "z_kendall_b undefined: x is constant"),
            (("correlate", "--method", "kendall-b"), "kendall_tau_b undefined: x is constant"),
        ):
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert (code, out) == (3, "")
            assert err.startswith("numeric error: " + message)

    def test_pearson_refuses_infinite_scores(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x,y\n1,2\ninf,1\n3,-inf\n4,5\n")
        for method in ("all", "pearson"):
            code, out, err = run_cli(capsys, "correlate", str(path), "--method", method)
            assert (code, out) == (3, "")
            assert err.startswith("numeric error: pearson undefined on +-inf") and "kemeny-tau" in err

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, err = run_cli(
            capsys, "correlate", str(path), "--method", "kemeny-tau", "--json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out, parse_constant=refuse)["estimates"] == {"kemeny-tau": 0.0}

    @pytest.mark.parametrize("rows", [37, 10])
    def test_pearson_refuses_a_constant_column(self, capsys, tmp_path, rows):
        # the float std of 37 copies of 0.1 is not 0; the tie blocks decide
        path = tmp_path / "const.csv"
        path.write_text("x,y\n" + "".join(f"0.1,{i}\n" for i in range(rows)))
        code, out, err = run_cli(capsys, "correlate", str(path), "--method", "pearson")
        assert (code, out) == (3, "")
        assert err == "numeric error: pearson undefined: x is constant\n"

    @pytest.mark.parametrize(
        "argv, function",
        [(("correlate", "--method", "arcsine-r"), "arcsine_r"),
         (("test", "--method", "spearman"), "z_spearman")],
    )
    def test_constant_column_names_the_function_called(self, capsys, tmp_path, argv, function):
        path = tmp_path / "const.csv"
        path.write_text("x,y\n" + "".join(f"0.1,{i}\n" for i in range(37)))
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (3, "")
        assert err == f"numeric error: {function} undefined: x is constant\n"

    @pytest.mark.filterwarnings("error")
    def test_pearson_on_huge_scores_is_finite(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("x,y\n1e200,1\n-1e200,2\n0,3\n1,4\n")
        code, out, err = run_cli(
            capsys, "correlate", str(path), "--method", "pearson", "--json"
        )
        assert (code, err) == (0, "")
        r = json.loads(out, parse_constant=_not_json)["estimates"]["pearson"]
        assert r == pytest.approx(-1 / math.sqrt(10), abs=1e-15)

    def test_one_column_without_y_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a\n1\n2\n3\n")
        for command in ("correlate", "test"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out) == (2, "")
            assert err.startswith("data error: ") and "'a'" in err and "--y" in err
        code, _, _ = run_cli(capsys, "test", str(path), "--y", "a")
        assert code == 0

    def test_null_table_over_budget_is_numeric_error(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(400)
        rows = "\n".join(f"{a},{b}" for a, b in rng.integers(1, 6, size=(400, 2)))
        path = tmp_path / "n400.csv"
        path.write_text("a,b\n" + rows + "\n")
        monkeypatch.setattr(null_models, "NULL_TABLE_MAX_ENTRIES", 1000)
        null_models.null_table.cache_clear()
        for argv, n in ((("nulls", "300"), 300), (("test", str(path), "--null", "exact"), 400)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.startswith(f"numeric error: exact null for n={n} needs ")
            assert "--null normal" in err and "Traceback" not in err

    # one n from each range where float math on n fails differently: the
    # moment check, a NaN q, and an OverflowError in float(variance)
    @pytest.mark.parametrize("exponent", [20, 60, 200])
    def test_huge_nulls_is_refused_on_budget(self, capsys, exponent):
        n = 10**exponent
        code, out, err = run_cli(capsys, "nulls", str(n))
        assert (code, out) == (3, "")
        assert err.startswith(f"numeric error: exact null for n={n} needs {n * (n - 1) + 1} ")
        assert "budget" in err and "Traceback" not in err

    def test_simulate_flags_are_simulate_only(self, capsys):
        code, out, err = run_cli(capsys, "nulls", "15", "--seed", "3")
        assert (code, out) == (1, "")
        assert err.startswith("kemeny-stat: error: unrecognized arguments: --seed 3")
        for flag in ("--seed", "--reps", "--workers"):
            code, _, err = run_cli(capsys, "correlate", "data.csv", flag, "2")
            assert code == 1 and "unrecognized arguments" in err

    def test_enumerate_out_of_range_is_numeric_error(self, capsys):
        code, _, _ = run_cli(capsys, "enumerate", "12")
        assert code == 3

    @pytest.mark.parametrize("n", ["1", "9"])
    def test_oracle_out_of_range_is_numeric_error(self, capsys, n):
        # one range check serves the oracle and the report: same exit, same message
        enumerate_ = run_cli(capsys, "enumerate", n)
        report = run_cli(capsys, "consistency-report", "--oracle-n", n)
        assert report == enumerate_
        assert report == (3, "", f"numeric error: enumeration supports 2 <= n <= 8, got {n}\n")

    def test_unwritable_out_is_data_error(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "3", "--out", "/no-such-dir/x.json"
        )
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "consistency-report" in out


COMMANDS = ("correlate", "test", "matrix", "enumerate", "simulate", "nulls",
            "consistency-report")


def _help(parser, command, capsys) -> str:
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    return capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS)
def test_help_of_one_command_matches_the_full_parser(capsys, command):
    """A subcommand adds its arguments on first use; its help text must not
    depend on which other subcommands were built before it."""
    alone = _help(build_parser(), command, capsys)
    full = build_parser()
    for other in COMMANDS:
        _help(full, other, capsys)
    assert _help(full, command, capsys) == alone
    assert alone.startswith(f"usage: kemeny-stat {command} [-h] [--json] [--out PATH]")


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


# "CSV" stands for the csv_path fixture
STRICT_JSON_RUNS = [
    ("correlate", "CSV"),
    *(("test", "CSV", "--method", method) for method in ("kemeny", "kendall-b", "spearman")),
    ("matrix", "CSV"),
    ("enumerate", "4"),
    ("nulls", "15"),
    ("consistency-report", "--oracle-n", "3"),
    *(("simulate", "--experiment", name, "--seed", "1", "--reps", "5") for name in EXPERIMENTS),
    # both z means are 0 here, so the kendall/kemeny ratio is undefined
    ("simulate", "--experiment", "table3", "--seed", "1", "--reps", "2", "--n", "2"),
]


@pytest.mark.parametrize("argv", STRICT_JSON_RUNS, ids="-".join)
def test_every_command_prints_strict_json(capsys, csv_path, argv):
    code, out, _ = run_cli(capsys, *(csv_path if a == "CSV" else a for a in argv), "--json")
    assert code == 0
    json.loads(out, parse_constant=_not_json)
