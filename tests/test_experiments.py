import csv
import json
import re
import warnings

import numpy as np
import pytest

from flowcast.experiments import (
    ExperimentConfig,
    ExperimentReport,
    load_input,
    longterm_report,
    shortterm_report,
    update_report,
    write_report,
)
from flowcast.cp import AlsConfig, CpModel, cp_fit
from flowcast.io import export
from flowcast.lrtc import LrtcHyperParams, short_term_predict
from flowcast.pipeline import ForecastPlan, _forecast, lean_update, two_step_forecast
from flowcast.synthetic import SyntheticSpec, generate_synthetic
from flowcast.tensor_ops import DegenerateSolveWarning, relative_residual, residual_or_nan

pytestmark = pytest.mark.filterwarnings("ignore::flowcast.tensor_ops.DegenerateSolveWarning")


def weekly_cfg(seed, **kwargs):
    return ExperimentConfig(
        seed=seed,
        plan=ForecastPlan(horizon_days=7, rank=6, arma_orders=(1, 2, 0, 0)),
        **kwargs,
    )


def short_als_cfg(**kwargs):
    # three ALS sweeps stop far from the 500-sweep default fit, so a report
    # that ignored plan.als would score a visibly different forecast
    als = AlsConfig(rank=6, max_iters=3)
    return ExperimentConfig(
        plan=ForecastPlan(horizon_days=7, rank=6, arma_orders=(1, 2, 0, 0), als=als),
        **kwargs)


def one_day_prediction(history, cfg, truth_day, n_obs):
    plan = ForecastPlan(1, rank=cfg.plan.rank, arma_orders=cfg.plan.arma_orders,
                        als=cfg.plan.als)
    prediction = two_step_forecast(history, plan)
    observed = np.arange(truth_day.shape[1]) < n_obs
    updated = lean_update(prediction, truth_day, observed, prediction.source_model)
    return prediction, updated


class TestConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(split_day=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_baseline_lags=0)
        with pytest.raises(ValueError):
            ExperimentConfig(extents=(56,))
        with pytest.raises(ValueError, match="n_clusters must be >= 1"):
            ExperimentConfig(n_clusters=0)

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


def ar_oracle(series, n_lags, horizon):
    """Least-squares scalar AR(n_lags) forecast, mean-centered."""
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if n <= n_lags:
        raise ValueError(f"series of length {n} cannot support {n_lags} lags")
    mean = series.mean()
    c = series - mean
    design = np.column_stack([c[n_lags - 1 - j:n - 1 - j] for j in range(n_lags)])
    coef, *_ = np.linalg.lstsq(design, c[n_lags:], rcond=None)
    buf = list(c)
    out = []
    for _ in range(horizon):
        nxt = float(np.dot(coef, buf[::-1][:n_lags]))
        buf.append(nxt)
        out.append(nxt)
    return mean + np.array(out)


def ar_baseline(series, n_lags, horizon):
    # the long-term report's baseline path, on a one-component model whose
    # temporal factor is the series; its extended factor is the unclamped forecast
    u_t = np.asarray(series, dtype=np.float64)[:, None]
    model = CpModel(np.ones(1), [np.ones((1, 1)), u_t, np.ones((1, 1))])
    return _forecast(model, horizon, (0, n_lags, 0, 0), 1).source_model.factors[1][:, 0]


class TestArBaseline:
    def test_recovers_an_exact_alternation(self):
        # centered series satisfies c[t] = -c[t-1] exactly, so the one-lag
        # fit is perfect and the forecast continues the alternation
        series = 3.0 + 0.5 * (-1.0) ** np.arange(12)
        out = ar_baseline(series, 1, 3)
        assert out == pytest.approx([3.5, 2.5, 3.5], abs=1e-10)

    def test_recovers_an_exact_three_cycle(self):
        cycle = np.array([0.6, -0.2, -0.4])
        series = 5.0 + np.tile(cycle, 4)
        out = ar_baseline(series, 2, 4)
        assert out == pytest.approx(5.0 + np.array([0.6, -0.2, -0.4, 0.6]), abs=1e-9)

    def test_constant_series_forecasts_the_constant(self):
        with pytest.warns(DegenerateSolveWarning):
            out = ar_baseline(np.full(20, 3.25), 8, 4)
        assert out == pytest.approx(np.full(4, 3.25), abs=1e-12)

    def test_too_short_series_is_rejected(self):
        with pytest.raises(ValueError):
            ar_baseline(np.arange(8.0), 8, 1)

    def test_matches_the_least_squares_oracle(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(17, 81))
            n_lags = int(rng.integers(1, 9))
            horizon = int(rng.integers(1, 10))
            series = 5.0 + rng.normal(size=n).cumsum()
            want = ar_oracle(series, n_lags, horizon)
            got = ar_baseline(series, n_lags, horizon)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), seed

    def test_report_column_matches_an_oracle_baseline(self):
        cfg = weekly_cfg(0)
        tensor, ids = load_input(cfg)
        report = longterm_report(tensor, ids, cfg)
        model, _ = cp_fit(tensor[:, :49], cfg.plan.als)
        extended = np.column_stack([
            ar_oracle(model.factors[1][:, r], cfg.n_baseline_lags, 7)
            for r in range(model.rank)
        ])
        baseline = np.clip(
            np.einsum("lr,tr,pr,r->ltp", model.factors[0], extended,
                      model.factors[2], model.weights),
            0.0, None)
        want = [residual_or_nan(baseline[l], tensor[l, 49:]) for l in range(len(ids))]
        assert [row[2] for row in report.rows] == pytest.approx(want, rel=1e-12, abs=0)


class TestLongterm:
    def test_weekly_structure_favors_the_2d_model(self):
        for seed in (0, 3):
            cfg = weekly_cfg(seed)
            report = longterm_report(*load_input(cfg), cfg)
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
            imp = longterm_report(*load_input(cfg), cfg).summary["relative_improvement"]
            assert abs(imp) <= 0.05
            imps.append(imp)
        assert abs(np.mean(imps)) <= 0.03

    def test_too_few_days_for_the_baseline_are_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("cp_fit ran before the baseline lag check")

        monkeypatch.setattr("flowcast.experiments.cp_fit", no_fit)
        plan = ForecastPlan(7, rank=6, arma_orders=(1, 1, 0, 0))
        # an AR(n) needs more than n equations from split_day - n lagged rows
        for lags in (8, 7):
            cfg = ExperimentConfig(split_day=14, synth=SyntheticSpec(extents=(12, 21, 48)),
                                   plan=plan, n_baseline_lags=lags)
            with pytest.raises(ValueError, match=rf"split_day 14 .*n_baseline_lags \({lags}\)"):
                longterm_report(*load_input(cfg), cfg)

    def test_infeasible_orders_are_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("cp_fit ran before the order check")

        monkeypatch.setattr("flowcast.experiments.cp_fit", no_fit)
        # four weeks of training days cannot fit the default orders (2, 2, 1, 1)
        cfg = ExperimentConfig(split_day=28, synth=SyntheticSpec(extents=(5, 35, 12)),
                               plan=ForecastPlan(7, rank=2))
        with pytest.raises(ValueError, match="not enough interior cells"):
            longterm_report(*load_input(cfg), cfg)

    def test_report_shape_and_plan_consistency(self):
        cfg = weekly_cfg(0)
        report = longterm_report(*load_input(cfg), cfg)
        assert report.name == "longterm"
        assert len(report.rows) == 12
        assert report.columns[0] == "station"
        assert report.summary["n_stations"] == 12
        assert report.summary["horizon_days"] == 7
        # the report forecasts every held-out day, whatever plan.horizon_days says
        cfg = weekly_cfg(0, split_day=50)
        report = longterm_report(*load_input(cfg), cfg)
        assert report.summary["horizon_days"] == 6
        cfg.plan.horizon_days = 1
        assert longterm_report(*load_input(cfg), cfg).rows == report.rows

    def test_reports_are_deterministic(self):
        cfg = weekly_cfg(1)
        first = longterm_report(*load_input(cfg), cfg)
        second = longterm_report(*load_input(cfg), cfg)
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
        report = longterm_report(*load_input(cfg), cfg)
        assert all(np.isnan(v) for v in report.rows[3][1:])
        scored = report.rows[:3] + report.rows[4:]
        assert report.summary["mean_res_arma2d"] == np.mean([r[1] for r in scored])
        assert report.summary["mean_res_ar1d"] == np.mean([r[2] for r in scored])

    def test_no_station_to_score_is_an_error(self):
        cfg = short_als_cfg()
        tensor, ids = load_input(cfg)
        tensor[:, 49:, :] = 0.0
        with pytest.raises(ValueError, match="longterm report has no stations to score"):
            longterm_report(tensor, ids, cfg)


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
        cfg = perturbed_day_config(tmp_path, 7)
        report = update_report(load_input(cfg)[0], cfg, 0.3)
        assert report.summary["early_improved_fraction"] >= 0.75
        assert report.summary["mean_res_updated"] < report.summary["mean_res_longterm"]

    def test_block_layout_on_a_48_slot_day(self, tmp_path):
        cfg = perturbed_day_config(tmp_path, 7)
        report = update_report(load_input(cfg)[0], cfg, 0.3)
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
        report = update_report(load_input(cfg)[0], cfg, 0.3)
        assert report.summary["observed_slots"] == 75
        assert report.summary["n_blocks"] == 35
        assert sum(1 for row in report.rows if row[1] == 5) == 34
        assert report.rows[-1][:2] == (245, 2)

    def test_unchanged_prediction_ties_on_every_block_of_a_24_slot_day(self, monkeypatch):
        # 28% of 24 slots rounds up to 7 observed; an update that changes
        # nothing scores the same RES as the forecast on every block
        monkeypatch.setattr("flowcast.experiments.lean_update",
                            lambda prediction, *args: prediction)
        cfg = ExperimentConfig(
            seed=0, synth=SyntheticSpec(extents=(10, 50, 24), rank=2),
            plan=ForecastPlan(horizon_days=1, rank=2, arma_orders=(1, 2, 0, 0)))
        report = update_report(load_input(cfg)[0], cfg, 0.28)
        assert [row[:2] for row in report.rows] == [(7, 5), (12, 5), (17, 5), (22, 2)]
        for _, _, res_long, res_updated, improvement in report.rows:
            assert res_long == res_updated and improvement == 0.0

    def test_window_over_the_whole_remainder_scores_one_block(self):
        cfg = short_als_cfg()
        tensor, _ = load_input(cfg)
        report = update_report(tensor, cfg, 0.3, window=33)
        prediction, updated = one_day_prediction(tensor[:, :49], cfg, tensor[:, 49], 15)
        res_long = relative_residual(prediction.tensor[:, 0, 15:], tensor[:, 49, 15:])
        res_updated = relative_residual(updated.tensor[:, 0, 15:], tensor[:, 49, 15:])
        assert report.rows == [(15, 33, res_long, res_updated,
                                (res_long - res_updated) / res_long)]

    def test_degenerate_fractions_are_rejected(self):
        cfg = weekly_cfg(0)
        tensor, _ = load_input(cfg)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                update_report(tensor, cfg, bad)


    def test_short_remainder_is_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("cp_fit ran before the window check")

        monkeypatch.setattr("flowcast.pipeline.cp_fit", no_fit)
        tensor, _ = generate_synthetic(SyntheticSpec(seed=0))
        # 95% of 48 slots rounds up to 46 observed, leaving 2 for a 5-slot window
        with pytest.raises(ValueError, match=r"window 5 .*observed_fraction 0\.95 leaves 2 "):
            update_report(tensor, weekly_cfg(0), 0.95)
        with pytest.raises(ValueError, match="window 0"):
            update_report(tensor, weekly_cfg(0), 0.3, window=0)
        # 99% of 48 slots leaves one slot: a block, but no early half of the remainder
        with pytest.raises(ValueError, match=r"0\.99 leaves 1 of 48 slots to score, too few"):
            update_report(tensor, weekly_cfg(0), 0.99, window=1)

    def test_plan_als_settings_reach_the_forecast(self):
        cfg = short_als_cfg()
        tensor, _ = load_input(cfg)
        report = update_report(tensor, cfg, 0.3)
        prediction, _ = one_day_prediction(tensor[:, :49], cfg, tensor[:, 49], 15)
        want = np.mean([residual_or_nan(prediction.tensor[:, 0, s:s + 5], tensor[:, 49, s:s + 5])
                        for s in range(15, 48, 5)])
        assert report.summary["mean_res_longterm"] == want
        default = update_report(tensor, weekly_cfg(0), 0.3)
        assert default.summary["mean_res_longterm"] != want

    def test_zero_blocks_are_left_unscored(self):
        tensor, _ = generate_synthetic(SyntheticSpec(seed=0))
        tensor[:, 49, 40:] = 0.0
        report = update_report(tensor, weekly_cfg(0), 0.3)
        assert [row[0] for row in report.rows] == [15, 20, 25, 30, 35, 40, 45]
        assert all(np.isnan(v) for row in report.rows[5:] for v in row[2:])
        scored = report.rows[:5]
        assert report.summary["n_blocks"] == 7
        assert report.summary["mean_res_longterm"] == np.mean([r[2] for r in scored])
        assert report.summary["mean_res_updated"] == np.mean([r[3] for r in scored])
        assert report.summary["improved_fraction"] == np.mean([r[4] > 0 for r in scored])

    @pytest.mark.parametrize("zero_slots, what", [(slice(15, None), "blocks"),
                                                  (slice(15, 35), "early blocks")])
    def test_no_block_to_score_is_an_error(self, zero_slots, what):
        # 15 slots observed: the early blocks start at 15, 20, 25 and 30
        cfg = short_als_cfg()
        tensor, _ = load_input(cfg)
        tensor[:, 49, zero_slots] = 0.0
        with pytest.raises(ValueError, match=f"update report has no {what} to score"):
            update_report(tensor, cfg, 0.3)


class TestShortterm:
    def test_separated_populations_favor_per_cluster_completion(self):
        cfg = weekly_cfg(2, n_clusters=2,
                         synth=SyntheticSpec(separation=50.0),
                         lrtc=LrtcHyperParams(max_rank=4))
        clustered = shortterm_report(*load_input(cfg), cfg, use_clustering=True)
        joint = shortterm_report(*load_input(cfg), cfg, use_clustering=False)
        assert clustered.summary["mean_res_lrtc"] < joint.summary["mean_res_lrtc"]
        assert clustered.summary["n_clusters"] == 2
        labels = [row[1] for row in clustered.rows]
        assert labels == [0] * 6 + [1] * 6
        assert joint.summary["n_clusters"] == 1

    def test_homogeneous_population_collapses_to_the_joint_run(self):
        cfg = weekly_cfg(0, synth=SyntheticSpec(n_clusters=1, separation=0.0))
        clustered = shortterm_report(*load_input(cfg), cfg, use_clustering=True)
        joint = shortterm_report(*load_input(cfg), cfg, use_clustering=False)
        assert clustered.summary["n_clusters"] == 1
        assert clustered.summary["mean_res_lrtc"] == joint.summary["mean_res_lrtc"]

    def test_summary_lists_each_clusters_rank_and_convergence(self, monkeypatch):
        results = []

        def spy(*args, **kwargs):
            results.append(short_term_predict(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr("flowcast.experiments.short_term_predict", spy)
        cfg = weekly_cfg(2, n_clusters=2, synth=SyntheticSpec(separation=50.0),
                         lrtc=LrtcHyperParams(max_rank=4, max_iters=30, elbo_tol=1e-4))
        summary = shortterm_report(*load_input(cfg), cfg, use_clustering=True).summary
        assert summary["effective_ranks"] == [r.effective_rank for r in results]
        # one cluster meets the tolerance inside the budget and the other does not
        assert summary["converged"] == [r.converged for r in results] == [True, False]

    def test_improvement_column_carries_sign(self):
        cfg = weekly_cfg(0)
        report = shortterm_report(*load_input(cfg), cfg, use_clustering=False)
        assert report.columns[-1] == "improvement"
        for _, _, res_lrtc, res_lean, improvement in report.rows:
            want = 0.0 if res_lean == 0 else (res_lean - res_lrtc) / res_lean
            assert improvement == pytest.approx(want)

    def test_station_closed_today_is_left_unscored(self):
        tensor, _ = generate_synthetic(SyntheticSpec(seed=0))
        tensor[3, -1, :] = 0.0
        ids = [f"s{l:02d}" for l in range(tensor.shape[0])]
        report = shortterm_report(
            tensor, ids, weekly_cfg(0, lrtc=LrtcHyperParams(max_rank=4, max_iters=20)),
            use_clustering=False)
        assert all(np.isnan(v) for v in report.rows[3][2:])
        scored = report.rows[:3] + report.rows[4:]
        assert report.summary["mean_res_lrtc"] == np.mean([r[2] for r in scored])
        assert report.summary["mean_res_lean_update"] == np.mean([r[3] for r in scored])

    def test_no_station_to_score_is_an_error(self):
        tensor, _ = generate_synthetic(SyntheticSpec(extents=(4, 28, 12), n_clusters=1, seed=0))
        tensor[:, -1, 4:] = 0.0  # the masked suffix starts 30% into the 12-slot day
        cfg = weekly_cfg(0, lrtc=LrtcHyperParams(max_rank=4, max_iters=20))
        with pytest.raises(ValueError, match="shortterm report has no stations to score"):
            shortterm_report(tensor, [f"s{l}" for l in range(4)], cfg, use_clustering=False)

    def test_plan_als_settings_reach_the_reference_update(self):
        lrtc = LrtcHyperParams(max_rank=4, max_iters=20)
        cfg = short_als_cfg(lrtc=lrtc)
        tensor, ids = load_input(cfg)
        report = shortterm_report(tensor, ids, cfg, use_clustering=False)
        _, lean = one_day_prediction(tensor[:, :-1], cfg, tensor[:, -1], 15)
        want = np.mean([residual_or_nan(lean.tensor[l, 0], tensor[l, -1],
                                        np.arange(48) >= 15)
                        for l in range(len(ids))])
        assert report.summary["mean_res_lean_update"] == want
        default = shortterm_report(tensor, ids, weekly_cfg(0, lrtc=lrtc), use_clustering=False)
        assert default.summary["mean_res_lean_update"] != want

    def test_too_many_clusters_are_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("cp_fit ran before the cluster count check")

        monkeypatch.setattr("flowcast.pipeline.cp_fit", no_fit)
        cfg = weekly_cfg(0, n_clusters=13)
        with pytest.raises(ValueError, match="n_clusters 13 exceeds the 12 stations"):
            shortterm_report(*load_input(cfg), cfg, use_clustering=True)

    def test_suffix_start_bounds(self):
        tensor, ids = load_input(weekly_cfg(0))
        with pytest.raises(ValueError, match="suffix"):
            shortterm_report(tensor, ids, weekly_cfg(0, suffix_start=48), use_clustering=False)
        with pytest.raises(ValueError, match="suffix"):
            shortterm_report(tensor, ids, weekly_cfg(0, suffix_start=0), use_clustering=False)


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
        cfg = weekly_cfg(4)
        for sub in ("a", "b"):
            write_report(longterm_report(*load_input(cfg), cfg), tmp_path / sub)
        for name in ("longterm_table.csv", "longterm_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
