"""CLI behaviour: payload shapes, exit-code mapping, determinism plumbing."""

import json
import math

import numpy as np
import pytest

from kemeny_stat import null_models
from kemeny_stat.cli import main
from kemeny_stat.null_models import NullTable
from kemeny_stat.simulate import default_config, run_simulation


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
            (("test", "--method", "kendall-b"), "tie structure leaves no variance"),
            (("correlate", "--method", "kendall-b"), "kendall_tau_b undefined: x is constant"),
        ):
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert (code, out) == (3, "")
            assert err.startswith("numeric error: " + message)

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

    def test_enumerate_out_of_range_is_numeric_error(self, capsys):
        code, _, _ = run_cli(capsys, "enumerate", "12")
        assert code == 3

    def test_unwritable_out_is_data_error(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "3", "--out", "/no-such-dir/x.json"
        )
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "consistency-report" in out
