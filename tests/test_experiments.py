import csv
import json
import re
import warnings

import numpy as np
import pytest

from flowcast.experiments import (
    ExperimentConfig,
    ExperimentReport,
    _ar_forecast,
    load_input,
    run_longterm_experiment,
    run_shortterm_experiment,
    run_update_experiment,
    shortterm_report,
    update_report,
    write_report,
)
from flowcast.io import export
from flowcast.lrtc import LrtcHyperParams
from flowcast.pipeline import ForecastPlan
from flowcast.synthetic import SyntheticSpec, generate_synthetic
from flowcast.tensor_ops import DegenerateSolveWarning

pytestmark = pytest.mark.filterwarnings("ignore::flowcast.tensor_ops.DegenerateSolveWarning")


def weekly_cfg(seed, **kwargs):
    return ExperimentConfig(
        seed=seed,
        plan=ForecastPlan(horizon_days=7, rank=6, arma_orders=(1, 2, 0, 0)),
        **kwargs,
    )


class TestConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(split_day=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_baseline_lags=0)
        with pytest.raises(ValueError):
            ExperimentConfig(variance_retained=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(extents=(56,))

    def test_load_input_seed_overrides_the_synth_seed(self):
        cfg = ExperimentConfig(seed=3)
        tensor, ids = load_input(cfg)
        want, _ = generate_synthetic(SyntheticSpec(seed=3))
        assert np.array_equal(tensor, want)
        assert ids[0] == "s00" and len(ids) == 12

    def test_load_input_path_errors(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_input(ExperimentConfig(data_path=str(tmp_path / "nope.csv"), extents=(5, 5)))
        path = tmp_path / "flows.csv"
        export(path, np.ones((2, 3, 4)), ["a", "b"])
        with pytest.raises(ValueError, match="extents"):
            load_input(ExperimentConfig(data_path=str(path)))
        tensor, ids = load_input(ExperimentConfig(data_path=str(path), extents=(3, 4)))
        assert ids == ["a", "b"]
        assert np.array_equal(tensor, np.ones((2, 3, 4)))


class TestArBaseline:
    def test_recovers_an_exact_alternation(self):
        # centered series satisfies c[t] = -c[t-1] exactly, so the one-lag
        # fit is perfect and the forecast continues the alternation
        series = 3.0 + 0.5 * (-1.0) ** np.arange(12)
        out = _ar_forecast(series, 1, 3)
        assert out == pytest.approx([3.5, 2.5, 3.5], abs=1e-10)

    def test_recovers_an_exact_three_cycle(self):
        cycle = np.array([0.6, -0.2, -0.4])
        series = 5.0 + np.tile(cycle, 4)
        out = _ar_forecast(series, 2, 4)
        assert out == pytest.approx(5.0 + np.array([0.6, -0.2, -0.4, 0.6]), abs=1e-9)

    def test_constant_series_forecasts_the_constant(self):
        out = _ar_forecast(np.full(20, 3.25), 8, 4)
        assert out == pytest.approx(np.full(4, 3.25), abs=1e-12)

    def test_too_short_series_is_rejected(self):
        with pytest.raises(ValueError):
            _ar_forecast(np.arange(8.0), 8, 1)


class TestLongterm:
    def test_weekly_structure_favors_the_2d_model(self):
        for seed in (0, 3):
            report = run_longterm_experiment(weekly_cfg(seed))
            assert report.summary["relative_improvement"] >= 0.10
            assert report.summary["mean_res_arma2d"] < report.summary["mean_res_ar1d"]

    def test_no_weekly_structure_means_no_edge(self):
        # with the weekly cycle off, both models see only day-lag noise
        imps = []
        for seed in (3, 6, 7):
            cfg = ExperimentConfig(
                seed=seed, split_day=105,
                synth=SyntheticSpec(extents=(12, 112, 24), rank=2, weekly_strength=0.0,
                                    daily_strength=0.5),
                plan=ForecastPlan(horizon_days=7, rank=2, arma_orders=(1, 2, 0, 0)))
            imp = run_longterm_experiment(cfg).summary["relative_improvement"]
            assert abs(imp) <= 0.05
            imps.append(imp)
        assert abs(np.mean(imps)) <= 0.03

    def test_report_shape_and_plan_consistency(self):
        report = run_longterm_experiment(weekly_cfg(0))
        assert report.name == "longterm"
        assert len(report.rows) == 12
        assert report.columns[0] == "station"
        assert report.summary["n_stations"] == 12
        assert report.summary["horizon_days"] == 7
        with pytest.raises(ValueError, match="horizon"):
            run_longterm_experiment(weekly_cfg(0, split_day=50))

    def test_reports_are_deterministic(self):
        first = run_longterm_experiment(weekly_cfg(1))
        second = run_longterm_experiment(weekly_cfg(1))
        assert first.rows == second.rows
        assert first.summary == second.summary


    def test_station_with_zero_truth_is_left_unscored(self, tmp_path):
        tensor, _ = generate_synthetic(SyntheticSpec(seed=0))
        tensor[3, 49:, :] = 0.0
        path = tmp_path / "closed.csv"
        export(path, tensor, [f"s{l:02d}" for l in range(tensor.shape[0])])
        cfg = ExperimentConfig(data_path=str(path), extents=(56, 48), split_day=49,
                               plan=ForecastPlan(horizon_days=7, rank=6,
                                                 arma_orders=(1, 2, 0, 0)))
        report = run_longterm_experiment(cfg)
        assert all(np.isnan(v) for v in report.rows[3][1:])
        scored = report.rows[:3] + report.rows[4:]
        assert report.summary["mean_res_arma2d"] == np.mean([r[1] for r in scored])
        assert report.summary["mean_res_ar1d"] == np.mean([r[2] for r in scored])


def perturbed_day_config(tmp_path, seed):
    tensor, _ = generate_synthetic(SyntheticSpec(seed=seed))
    rng = np.random.default_rng(1000 + seed)
    tensor[:, 49, :] *= rng.uniform(0.6, 1.4, tensor.shape[0])[:, None]
    path = tmp_path / "perturbed.csv"
    export(path, tensor, [f"s{l:02d}" for l in range(tensor.shape[0])])
    return ExperimentConfig(data_path=str(path), extents=(56, 48), split_day=49,
                            plan=ForecastPlan(horizon_days=7, rank=6, arma_orders=(1, 2, 0, 0)))


class TestUpdate:
    def test_perturbed_day_majority_improves_early_blocks(self, tmp_path):
        report = run_update_experiment(perturbed_day_config(tmp_path, 7), 0.3)
        assert report.summary["early_improved_fraction"] >= 0.75
        assert report.summary["mean_res_updated"] < report.summary["mean_res_longterm"]

    def test_block_layout_on_a_48_slot_day(self, tmp_path):
        report = run_update_experiment(perturbed_day_config(tmp_path, 7), 0.3)
        assert report.summary["observed_slots"] == 15
        starts = [row[0] for row in report.rows]
        assert starts == [15, 20, 25, 30, 35, 40, 45]
        lengths = [row[1] for row in report.rows]
        assert lengths == [5, 5, 5, 5, 5, 5, 3]

    def test_block_layout_on_a_247_slot_day(self):
        # 30% of 247 slots rounds up to 75 observed; the 172 remaining split
        # into 34 full 5-slot blocks plus a separate 2-slot remainder
        cfg = ExperimentConfig(
            seed=0, split_day=49,
            synth=SyntheticSpec(extents=(3, 50, 247), rank=2, n_clusters=1),
            plan=ForecastPlan(horizon_days=1, rank=2, arma_orders=(1, 2, 0, 0)))
        report = run_update_experiment(cfg, 0.3)
        assert report.summary["observed_slots"] == 75
        assert report.summary["n_blocks"] == 35
        assert sum(1 for row in report.rows if row[1] == 5) == 34
        assert report.rows[-1][:2] == (245, 2)

    def test_degenerate_fractions_are_rejected(self):
        cfg = weekly_cfg(0)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                run_update_experiment(cfg, bad)


    def test_zero_blocks_are_left_unscored(self):
        tensor, _ = generate_synthetic(SyntheticSpec(seed=0))
        tensor[:, 49, 40:] = 0.0
        report = update_report(tensor, 49, 6, (1, 2, 0, 0), 0.3)
        assert [row[0] for row in report.rows] == [15, 20, 25, 30, 35, 40, 45]
        assert all(np.isnan(v) for row in report.rows[5:] for v in row[2:])
        scored = report.rows[:5]
        assert report.summary["n_blocks"] == 7
        assert report.summary["mean_res_longterm"] == np.mean([r[2] for r in scored])
        assert report.summary["mean_res_updated"] == np.mean([r[3] for r in scored])
        assert report.summary["improved_fraction"] == np.mean([r[4] > 0 for r in scored])


class TestShortterm:
    def test_separated_populations_favor_per_cluster_completion(self):
        cfg = weekly_cfg(2, n_clusters=2,
                         synth=SyntheticSpec(separation=50.0),
                         lrtc=LrtcHyperParams(max_rank=4))
        clustered = run_shortterm_experiment(cfg, use_clustering=True)
        joint = run_shortterm_experiment(cfg, use_clustering=False)
        assert clustered.summary["mean_res_lrtc"] < joint.summary["mean_res_lrtc"]
        assert clustered.summary["n_clusters"] == 2
        labels = [row[1] for row in clustered.rows]
        assert labels == [0] * 6 + [1] * 6
        assert joint.summary["n_clusters"] == 1

    def test_homogeneous_population_collapses_to_the_joint_run(self):
        cfg = weekly_cfg(0, synth=SyntheticSpec(n_clusters=1, separation=0.0))
        clustered = run_shortterm_experiment(cfg, use_clustering=True)
        joint = run_shortterm_experiment(cfg, use_clustering=False)
        assert clustered.summary["n_clusters"] == 1
        assert clustered.summary["mean_res_lrtc"] == joint.summary["mean_res_lrtc"]

    def test_improvement_column_carries_sign(self):
        cfg = weekly_cfg(0)
        report = run_shortterm_experiment(cfg, use_clustering=False)
        assert report.columns[-1] == "improvement"
        for _, _, res_lrtc, res_lean, improvement in report.rows:
            want = 0.0 if res_lean == 0 else (res_lean - res_lrtc) / res_lean
            assert improvement == pytest.approx(want)

    def test_station_closed_today_is_left_unscored(self):
        tensor, _ = generate_synthetic(SyntheticSpec(seed=0))
        tensor[3, -1, :] = 0.0
        ids = [f"s{l:02d}" for l in range(tensor.shape[0])]
        report = shortterm_report(tensor, ids, 6, (1, 2, 0, 0),
                                  LrtcHyperParams(max_rank=4, max_iters=20),
                                  use_clustering=False)
        assert all(np.isnan(v) for v in report.rows[3][2:])
        scored = report.rows[:3] + report.rows[4:]
        assert report.summary["mean_res_lrtc"] == np.mean([r[2] for r in scored])
        assert report.summary["mean_res_lean_update"] == np.mean([r[3] for r in scored])

    def test_suffix_start_bounds(self):
        with pytest.raises(ValueError, match="suffix"):
            run_shortterm_experiment(weekly_cfg(0, suffix_start=48), use_clustering=False)
        with pytest.raises(ValueError, match="suffix"):
            run_shortterm_experiment(weekly_cfg(0, suffix_start=0), use_clustering=False)


class TestWriteReport:
    def test_table_and_summary_files(self, tmp_path):
        report = ExperimentReport(
            "demo", ["station", "res_a", "res_b"],
            [("s00", 0.123456, 1.0), ("s01", 0.5, 0.25)],
            {"mean_res": 0.3117, "n_stations": 2})
        table_path, summary_path = write_report(report, tmp_path)
        with open(table_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["station", "res_a", "res_b"]
        assert rows[1] == ["s00", "0.1235", "1.0000"]
        assert all(re.fullmatch(r"\d+\.\d{4}", cell) for cell in rows[2][1:])
        with open(summary_path) as fh:
            summary = json.load(fh)
        assert summary["experiment"] == "demo"
        assert summary["mean_res"] == 0.3117

    def test_fixed_seed_writes_identical_bytes(self, tmp_path):
        for sub in ("a", "b"):
            write_report(run_longterm_experiment(weekly_cfg(4)), tmp_path / sub)
        for name in ("longterm_table.csv", "longterm_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
