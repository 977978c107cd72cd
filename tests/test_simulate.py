import concurrent.futures
import hashlib
import json
import math
import os

import numpy as np
import pytest
import scipy.stats as ss

from kemeny_stat import simulate as sim
from kemeny_stat.errors import DataError
from kemeny_stat.null_models import z_kemeny, z_kendall_b, z_spearman
from kemeny_stat.rank_core import ESTIMATORS, ScoreVector, _midranks, pair_stats


class TestConfig:
    def test_validation(self):
        good = dict(experiment="table1", n_values=(5,), replications=10, seed=1)
        sim.SimulationConfig(**good)
        with pytest.raises(ValueError, match="unknown experiment"):
            sim.SimulationConfig(**{**good, "experiment": "table9"})
        with pytest.raises(ValueError, match="replications"):
            sim.SimulationConfig(**{**good, "replications": 0})
        with pytest.raises(ValueError, match="seed"):
            sim.SimulationConfig(**{**good, "seed": -4})
        with pytest.raises(ValueError, match="seed"):
            sim.SimulationConfig(**{**good, "seed": None})
        with pytest.raises(ValueError, match="n_values"):
            sim.SimulationConfig(**{**good, "n_values": ()})
        with pytest.raises(ValueError, match="levels"):
            sim.SimulationConfig(**{**good, "levels": 1})
        with pytest.raises(ValueError, match="rho"):
            sim.SimulationConfig(**{**good, "rho": 1.0})
        with pytest.raises(ValueError, match="workers"):
            sim.SimulationConfig(**{**good, "workers": 0})
        with pytest.raises(ValueError, match="resample"):
            sim.SimulationConfig(**{**good, "population": "resample"})
        with pytest.raises(ValueError, match="unknown population"):
            sim.SimulationConfig(**{**good, "population": "cauchy"})

    def test_workers_outside_canonical_form(self):
        a = sim.SimulationConfig("table1", (5,), 10, seed=1, workers=1)
        b = sim.SimulationConfig("table1", (5,), 10, seed=1, workers=8)
        assert "workers" not in a.canonical_dict()
        assert a.config_hash() == b.config_hash()

    def test_default_config_presets(self):
        assert sim.EXPERIMENTS == (
            "table_correlations", "table1", "table3", "table5", "null_calibration",
        )
        # (n_values, population, rho, levels) of each desk-scale preset
        presets = {
            "table_correlations": ((30,), "discretized_normal", 0.0, None),
            "table1": ((3, 4, 5, 6, 7, 8), "discretized_normal", 0.0, None),
            "table3": ((15, 25, 100, 250), "discretized_normal", -0.3857, 4),
            "table5": ((100,), "bivariate_normal", -0.38569, None),
            "null_calibration": ((15,), "discretized_normal", 0.0, 6),
        }
        assert tuple(presets) == sim.EXPERIMENTS
        for experiment, (n_values, population, rho, levels) in presets.items():
            cfg = sim.default_config(experiment, seed=5)
            assert cfg == sim.SimulationConfig(
                experiment, n_values, 2000, seed=5, population=population, rho=rho,
                levels=levels,
            ), experiment
        cfg3 = sim.default_config("table3", seed=5, replications=50)
        assert cfg3.levels == 4
        assert cfg3.replications == 50
        assert cfg3.rho == pytest.approx(-0.3857)
        with pytest.raises(ValueError):
            sim.default_config("bogus", seed=5)


#: Each experiment's replicate row, computed by the public functions.
PUBLIC_ROWS = {
    "table_correlations": lambda x, y: tuple(float(f(x, y)) for f in ESTIMATORS.values()),
    "table1": lambda x, y: (float(pair_stats(x, y).net_concordance),),
    "table3": lambda x, y: (z_kendall_b(x, y).statistic, z_kemeny(x, y).statistic),
    "table5": lambda x, y: (z_spearman(x, y).statistic,),
    "null_calibration": lambda x, y: (z_kemeny(x, y).statistic,),
}


@pytest.mark.parametrize("experiment", sim.EXPERIMENTS)
def test_replicate_reads_public_functions(experiment):
    # the first undegenerate draw of each preset n, where _replicate makes
    # no retry; its row is exactly what the public functions return
    cfg = sim.default_config(experiment, seed=19)
    args = (cfg.seed, cfg.population, cfg.rho, cfg.levels, None)
    for n in cfg.n_values:
        for rep in range(8):
            rng = np.random.default_rng((cfg.seed, n, rep, 0))
            x, y = map(ScoreVector, sim._draw_pair(rng, n, *args[1:]))
            if x.ranks[1].size > 1 and y.ranks[1].size > 1:
                break
        else:
            pytest.fail(f"no undegenerate first draw at n={n}")
        assert sim._replicate(experiment, n, rep, *args) == PUBLIC_ROWS[experiment](x, y), n


class TestMidranks:
    def test_matches_rankdata(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            v = rng.integers(0, 6, n).astype(float)
            assert np.array_equal(_midranks(v), ss.rankdata(v, method="average"))

    def test_with_infinities(self):
        v = np.array([math.inf, 1.0, -math.inf, 1.0])
        assert np.array_equal(_midranks(v), [4.0, 2.5, 1.0, 2.5])


def test_equal_statistics_have_no_shape():
    # the mean of three 0.1s is not 0.1, so their float m2 is not 0
    row = sim._summary(np.full(3, 0.1))
    assert (row["range"], row["skew"], row["excess_kurtosis"]) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("value", [0.1, 1 / 3, -7.7, 0.0])
@pytest.mark.parametrize("size", [1, 3, 11])
def test_equal_statistics_report_their_value(value, size):
    # the float mean of equal values may miss them, and their float sd not be 0
    row = sim._summary(np.full(size, value))
    assert (row["mean"], row["sd"], row["median"]) == (value, 0.0, value)


class TestDeterminism:
    def test_same_config_same_bytes(self):
        cfg = sim.default_config("table1", seed=99, replications=25, n_values=(6,))
        a = sim.run_simulation(cfg)
        b = sim.run_simulation(cfg)
        assert a.to_json() == b.to_json()

    def test_worker_count_invisible(self):
        base = sim.default_config("table3", seed=12, replications=36, n_values=(20,))
        multi = sim.SimulationConfig(**{**base.canonical_dict(), "workers": 3})
        assert sim.run_simulation(base).to_json() == sim.run_simulation(multi).to_json()

    @pytest.mark.parametrize("cores, size", [(4, 4), (64, 6)])
    def test_one_pool_capped_at_tasks_and_cores(self, monkeypatch, cores, size):
        # a fake pool that records its size and maps serially: no process starts
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        base = sim.default_config("table3", seed=12, replications=3, n_values=(15, 20))
        many = sim.SimulationConfig(**{**base.canonical_dict(), "workers": 10**6})
        assert sim.run_simulation(many).to_json() == sim.run_simulation(base).to_json()
        # 3 replications at each of 2 n values are 6 tasks
        assert sizes == [size]

    def test_reports_frozen_across_refactors(self):
        # every experiment at seed 11 and 300 replications, pinned byte for
        # byte: a refactor that changes any number changes this digest
        text = "".join(
            sim.run_simulation(sim.default_config(e, seed=11, replications=300)).to_json()
            for e in sim.EXPERIMENTS
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "364b2f8cfa6917fe8ad086df133fc37285a9feaaa29518421f7038300a31296e"

    def test_seed_matters(self):
        a = sim.run_simulation(sim.default_config("table1", seed=1, replications=20, n_values=(5,)))
        b = sim.run_simulation(sim.default_config("table1", seed=2, replications=20, n_values=(5,)))
        assert a.to_json() != b.to_json()

    def test_report_embeds_provenance(self):
        cfg = sim.default_config("table1", seed=4, replications=5, n_values=(4,))
        payload = sim.run_simulation(cfg).payload
        assert payload["seed"] == 4
        assert payload["config_hash"] == cfg.config_hash()
        assert payload["artifact_version"]
        assert "biased" in payload["convention"]
        parsed = json.loads(sim.run_simulation(cfg).to_json())
        assert parsed == payload


class TestExperiments:
    def test_correlation_rows_and_dual_route(self):
        cfg = sim.default_config("table_correlations", seed=300, replications=120)
        report = sim.run_simulation(cfg)
        rows = report.rows(30)
        assert sorted(rows) == [
            "arcsine_r", "kemeny_rho", "kemeny_tau", "kendall_b", "pearson", "spearman",
        ]
        for f in ("mean", "sd", "median", "range", "skew", "excess_kurtosis"):
            assert rows["spearman"][f] == pytest.approx(rows["kemeny_rho"][f], abs=1e-12)
        assert rows["pearson"]["reference"] == {"mean": -0.00262, "sd": 0.18525}

    def test_table1_tracks_exact_sd(self):
        cfg = sim.default_config("table1", seed=88, replications=600, n_values=(5,))
        report = sim.run_simulation(cfg)
        row = report.rows(5)["net_concordance"]
        assert row["mean"] == pytest.approx(0.0, abs=0.5)
        assert row["sd"] == pytest.approx(math.sqrt(14.4), rel=0.1)
        assert row["reference"]["excess_kurtosis"] == -0.548

    def test_null_calibration_extras(self):
        cfg = sim.default_config("null_calibration", seed=41, replications=600)
        block = sim.run_simulation(cfg).results[0]
        extras = block["extras"]
        assert 0.02 < extras["tail_rate_above_1p85"] < 0.10
        assert 1.6 < extras["abs_z_95_quantile"] < 2.2

    def test_table3_ratio_extra(self):
        cfg = sim.default_config("table3", seed=17, replications=80, n_values=(25,))
        block = sim.run_simulation(cfg).results[0]
        assert block["extras"]["mean_ratio_kendall_over_kemeny"] > 1.0

    def test_table3_ratio_undefined_at_zero_kemeny_mean(self):
        # at n = 2 both z means can be 0: the ratio is null in JSON, n/a in text
        cfg = sim.default_config("table3", seed=1, replications=2, n_values=(2,))
        report = sim.run_simulation(cfg)
        assert report.results[0]["extras"] == {"mean_ratio_kendall_over_kemeny": None}
        assert '"mean_ratio_kendall_over_kemeny": null' in report.to_json()
        assert "mean_ratio_kendall_over_kemeny: n/a" in sim.render_text(report)

    def test_table5_reference_attached(self):
        cfg = sim.default_config("table5", seed=23, replications=60)
        row = sim.run_simulation(cfg).rows(100)["z_spearman"]
        assert row["mean"] < -2.0
        assert row["reference"] == {"mean": -3.6803, "sd": 0.9337}

    def test_rows_unknown_n(self):
        cfg = sim.default_config("table1", seed=4, replications=5, n_values=(4,))
        with pytest.raises(KeyError):
            sim.run_simulation(cfg).rows(99)


class TestResamplePopulation:
    def test_draws_from_file(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["x,y"] + [
            f"{a:.3f},{b:.3f}"
            for a, b in rng.normal(size=(200, 2))
        ]
        path = tmp_path / "pop.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = sim.SimulationConfig(
            experiment="table5",
            n_values=(30,),
            replications=25,
            seed=9,
            population="resample",
            resample_file=str(path),
        )
        a = sim.run_simulation(cfg)
        b = sim.run_simulation(cfg)
        assert a.to_json() == b.to_json()
        assert abs(a.rows(30)["z_spearman"]["mean"]) < 2.0

    def test_missing_file(self, tmp_path):
        cfg = sim.SimulationConfig(
            experiment="table5",
            n_values=(10,),
            replications=5,
            seed=1,
            population="resample",
            resample_file=str(tmp_path / "gone.csv"),
        )
        with pytest.raises(DataError, match="cannot read"):
            sim.run_simulation(cfg)

    def test_single_column_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x\n1\n2\n3\n")
        cfg = sim.SimulationConfig(
            experiment="table5",
            n_values=(10,),
            replications=5,
            seed=1,
            population="resample",
            resample_file=str(path),
        )
        with pytest.raises(DataError, match="two columns"):
            sim.run_simulation(cfg)

    def test_infinite_values_refused_before_any_replicate(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        xy = rng.normal(size=(40, 2))
        xy[::7, 0] = np.inf
        path = tmp_path / "inf.csv"
        path.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in xy))

        def cfg(experiment):
            return sim.SimulationConfig(
                experiment=experiment,
                n_values=(20,),
                replications=5,
                seed=1,
                population="resample",
                resample_file=str(path),
            )

        # the rank rows are well defined on +-inf
        for experiment in ("table3", "table5"):
            report = sim.run_simulation(cfg(experiment))
            assert all(math.isfinite(row["mean"]) for row in report.rows(20).values())
        drawn = []
        monkeypatch.setattr(sim, "_replicate", lambda *a, **k: drawn.append(a))
        with pytest.raises(DataError, match=r"inf\.csv.*pearson.*finite"):
            sim.run_simulation(cfg("table_correlations"))
        assert drawn == []


class TestRender:
    def test_text_layout(self):
        cfg = sim.default_config("table3", seed=3, replications=30, n_values=(15,))
        text = sim.render_text(sim.run_simulation(cfg))
        assert "experiment: table3" in text
        assert "z_kendall_b" in text and "z_kemeny" in text
        assert "mean_ratio_kendall_over_kemeny" in text
        assert "biased" in text
