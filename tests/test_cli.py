"""End-to-end tests of the command line front end."""

import argparse
import csv
import dataclasses
import json
import re
import zipfile

import numpy as np
import pytest

from flowcast import cli
from flowcast.cli import build_experiment_config, build_parser, load_config, main
from flowcast.cp import CpModel
from flowcast.experiments import (ExperimentConfig, final_day_suffix, update_report,
                                  write_report)
from flowcast.io import export
from flowcast.lrtc import LrtcHyperParams, short_term_predict
from flowcast.pipeline import ForecastPlan, two_step_forecast
from flowcast.synthetic import SyntheticSpec, generate_synthetic, planted_labels
from flowcast.tensor_ops import cp_reconstruct

pytestmark = pytest.mark.filterwarnings(
    "ignore::flowcast.tensor_ops.DegenerateSolveWarning")


def run_cli(*argv):
    return main([str(a) for a in argv])


def make_archive(out_path, extents="5,28,12", rank=2, clusters=1, seed=0,
                 noise_var="0.01", separation=None):
    argv = ["synth", "--synth-extents", extents, "--synth-rank", rank,
            "--synth-n-clusters", clusters, "--seed", seed,
            "--synth-noise-var", noise_var, "--out", out_path]
    if separation is not None:
        argv += ["--synth-separation", separation]
    assert run_cli(*argv) == 0
    return out_path


@pytest.fixture(scope="module")
def base_archive(tmp_path_factory):
    return make_archive(tmp_path_factory.mktemp("cli") / "base.npz")


@pytest.fixture(scope="module")
def base_tensor(base_archive):
    with np.load(base_archive) as archive:
        return np.asarray(archive["tensor"])


def archive_members(path):
    # the .npy bytes of each array; the zip's own timestamps are left out
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def subcommands():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


class TestConfigFile:
    def test_parses_comments_blanks_and_spaces(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# scenario\n\n seed = 4  # trailing note\n"
                        "plan.rank=3\nsynth.extents = 6,14,8\n")
        assert load_config(path) == {"seed": "4", "plan.rank": "3",
                                     "synth.extents": "6,14,8"}

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nbogus=2\n")
        with pytest.raises(ValueError, match=r"line 2.*'bogus'"):
            load_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(path)

    def test_build_nested_sections(self):
        cfg = build_experiment_config({
            "seed": "4", "split_day": "42", "output_dir": "rep",
            "plan.rank": "3", "plan.arma_orders": "1,2,0,0",
            "lrtc.max_rank": "5", "synth.extents": "6,14,8"})
        assert cfg.seed == 4
        assert cfg.split_day == 42
        assert cfg.output_dir == "rep"
        assert cfg.plan.rank == 3
        assert cfg.plan.horizon_days == 7
        assert cfg.plan.arma_orders == (1, 2, 0, 0)
        assert cfg.lrtc.max_rank == 5
        assert cfg.synth.extents == (6, 14, 8)

    def test_build_empty_matches_defaults(self):
        assert build_experiment_config({}) == ExperimentConfig()

    def test_schema_keys_name_config_fields(self):
        # a stale key would reach dataclasses.replace and raise TypeError, not a usage error
        base = ExperimentConfig()
        for key in cli._SCHEMA:
            section, _, name = key.rpartition(".")
            owner = getattr(base, section) if section else base
            assert name in {f.name for f in dataclasses.fields(owner)}, key

    def test_build_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="'plan.order'"):
            build_experiment_config({"plan.order": "2"})

    def test_build_bad_value_names_key(self):
        with pytest.raises(ValueError, match="'seed'.*'many'"):
            build_experiment_config({"seed": "many"})

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("seed=2\nsynth.extents=6,14,8\nsynth.rank=2\n"
                            "synth.noise_var=0\n")
        out = tmp_path / "t.npz"
        assert run_cli("synth", "--config", cfg_path, "--seed", 5,
                       "--out", out) == 0
        spec = SyntheticSpec(extents=(6, 14, 8), rank=2, noise_var=0.0, seed=5)
        expected, _ = generate_synthetic(spec)
        with np.load(out) as archive:
            assert np.array_equal(archive["tensor"], expected)


class TestIngest:
    def test_round_trips_exported_records(self, tmp_path):
        rng = np.random.default_rng(11)
        tensor = rng.uniform(0.0, 9.0, size=(2, 3, 4))
        csv_path = tmp_path / "flows.csv"
        export(csv_path, tensor, ["north", "south"])
        out = tmp_path / "flows.npz"
        assert run_cli("ingest", "--data", csv_path, "--days", 3,
                       "--slots", 4, "--out", out) == 0
        with np.load(out) as archive:
            assert np.array_equal(archive["tensor"], tensor)
            assert list(archive["station_ids"]) == ["north", "south"]

    def test_reports_zero_filled_cells(self, tmp_path, capsys):
        csv_path = tmp_path / "sparse.csv"
        csv_path.write_text("station_id,day_index,slot_index,count\n"
                            "a,0,0,1.5\na,0,1,2.0\nb,0,0,3.0\n")
        out = tmp_path / "sparse.npz"
        assert run_cli("ingest", "--data", csv_path, "--days", 1,
                       "--slots", 2, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "ingested 3 records" in stdout
        assert "1 cells zero-filled" in stdout

    def test_duplicate_record_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "dup.csv"
        csv_path.write_text("station_id,day_index,slot_index,count\n"
                            "a,0,0,1.0\na,0,0,2.0\n")
        rc = run_cli("ingest", "--data", csv_path, "--days", 1, "--slots", 1,
                     "--out", tmp_path / "dup.npz")
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err

    def test_field_over_the_csv_limit_fails_without_a_traceback(self, tmp_path, capsys):
        long_id = "x" * 140_000
        csv_path = tmp_path / "long.csv"
        csv_path.write_text("station_id,day_index,slot_index,count\n"
                            f"a,0,0,1.0\n{long_id},0,0,2.0\n{long_id},0,0,3.0\n")
        rc = run_cli("ingest", "--data", csv_path, "--days", 1, "--slots", 1,
                     "--out", tmp_path / "long.npz")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"flowcast: error: line 3: field larger than field limit ({csv.field_size_limit()})\n")


class TestSynth:
    def test_archive_holds_generating_model(self, tmp_path):
        out = make_archive(tmp_path / "clean.npz", extents="6,14,8", rank=3,
                           clusters=2, seed=7, noise_var="0")
        spec = SyntheticSpec(extents=(6, 14, 8), rank=3, n_clusters=2,
                             noise_var=0.0, seed=7)
        with np.load(out) as archive:
            names = set(archive.files)
            assert names == {"tensor", "station_ids", "labels", "weights",
                             "factor_location", "factor_temporal",
                             "factor_intraday"}
            assert archive["tensor"].shape == (6, 14, 8)
            assert np.array_equal(archive["labels"], planted_labels(spec))
            weights = archive["weights"]
            assert np.all(np.diff(weights) <= 0)
            model = CpModel(weights, [archive["factor_location"],
                                      archive["factor_temporal"],
                                      archive["factor_intraday"]])
            rebuilt = np.clip(cp_reconstruct(model), 0.0, None)
            assert np.array_equal(archive["tensor"], rebuilt)

    def test_same_seed_same_archive(self, tmp_path):
        first = make_archive(tmp_path / "a.npz", seed=9)
        second = make_archive(tmp_path / "b.npz", seed=9)
        with np.load(first) as fa, np.load(second) as fb:
            assert fa.files == fb.files
            for name in fa.files:
                assert np.array_equal(fa[name], fb[name])


class TestForecast:
    def test_matches_library_forecast(self, tmp_path, base_archive, base_tensor):
        out = tmp_path / "pred.npz"
        assert run_cli("forecast", "--tensor", base_archive, "--horizon-days", 2,
                       "--rank", 2, "--arma-orders", "1,2,0,0", "--out", out) == 0
        plan = ForecastPlan(2, rank=2, arma_orders=(1, 2, 0, 0))
        expected = two_step_forecast(base_tensor, plan)
        with np.load(out) as archive:
            assert np.array_equal(archive["tensor"], expected.tensor)
            assert str(archive["provenance"]) == "long_term"
            assert list(archive["station_ids"]) == [f"s{l:02d}" for l in range(5)]

    def test_short_and_dotted_rank_spellings_write_identical_arrays(self, tmp_path,
                                                                    base_archive):
        outputs = []
        for flag in ("--rank", "--plan-rank"):
            out = tmp_path / f"pred{flag}.npz"
            assert run_cli("forecast", "--tensor", base_archive, "--horizon-days", 2,
                           flag, 2, "--arma-orders", "1,2,0,0", "--out", out) == 0
            outputs.append(archive_members(out))
        assert outputs[0] == outputs[1]

    def test_defaults_come_from_the_experiment_config(self, tmp_path):
        # the default 2D-ARMA orders need more weeks than the base archive holds
        archive = make_archive(tmp_path / "long.npz", extents="5,56,12")
        out = tmp_path / "pred.npz"
        assert run_cli("forecast", "--tensor", archive, "--out", out) == 0
        with np.load(archive) as source:
            expected = two_step_forecast(source["tensor"], ExperimentConfig().plan)
        with np.load(out) as archive:
            assert np.array_equal(archive["tensor"], expected.tensor)

    def test_bad_orders_fail_with_diagnostic(self, tmp_path, base_archive, capsys):
        rc = run_cli("forecast", "--tensor", base_archive, "--horizon-days", 1,
                     "--rank", 2, "--arma-orders", "1,x", "--out", tmp_path / "p.npz")
        assert rc == 1
        assert "flowcast: error:" in capsys.readouterr().err

    def test_missing_archive_fails(self, tmp_path, capsys):
        rc = run_cli("forecast", "--tensor", tmp_path / "absent.npz",
                     "--horizon-days", 1, "--rank", 2, "--out", tmp_path / "p.npz")
        assert rc == 1
        assert "flowcast: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["text", "npy", "truncated", "empty"])
    def test_non_archive_input_fails(self, tmp_path, base_archive, capsys, kind):
        bogus = tmp_path / "notes.npz"
        if kind == "text":
            bogus.write_text("not an archive")
        elif kind == "npy":
            with open(bogus, "wb") as fh:
                np.save(fh, np.zeros((2, 3, 4)))
        elif kind == "truncated":
            whole = base_archive.read_bytes()
            bogus.write_bytes(whole[: len(whole) // 2])
        else:
            bogus.write_bytes(b"")
        rc = run_cli("forecast", "--tensor", bogus, "--horizon-days", 1,
                     "--rank", 2, "--out", tmp_path / "p.npz")
        assert rc == 1
        err = capsys.readouterr().err
        assert "flowcast: error:" in err
        assert "not an .npz tensor archive" in err


class TestUpdate:
    def test_writes_block_report(self, tmp_path, base_archive):
        out_dir = tmp_path / "rep"
        assert run_cli("update", "--tensor", base_archive, "--day-index", 21,
                       "--observed-fraction", 0.3, "--rank", 2,
                       "--arma-orders", "1,2,0,0", "--output-dir", out_dir) == 0
        with open(out_dir / "update_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["block_start", "block_len", "res_longterm",
                           "res_updated", "improvement"]
        assert [r[0] for r in rows[1:]] == ["4", "9"]
        assert [r[1] for r in rows[1:]] == ["5", "3"]
        summary = json.loads((out_dir / "update_summary.json").read_text())
        assert summary["experiment"] == "update"
        assert summary["observed_slots"] == 4
        assert summary["n_blocks"] == 2

    def test_matches_library_update(self, tmp_path, base_archive, base_tensor):
        assert run_cli("update", "--tensor", base_archive, "--day-index", 21,
                       "--observed-fraction", 0.3, "--rank", 2,
                       "--arma-orders", "1,2,0,0", "--output-dir", tmp_path / "cli") == 0
        cfg = ExperimentConfig(split_day=21,
                               plan=ForecastPlan(1, rank=2, arma_orders=(1, 2, 0, 0)))
        write_report(update_report(base_tensor, cfg, 0.3), tmp_path / "lib")
        for name in ("update_table.csv", "update_summary.json"):
            assert ((tmp_path / "cli" / name).read_bytes()
                    == (tmp_path / "lib" / name).read_bytes())

    def test_defaults_to_last_day(self, tmp_path, base_archive, capsys):
        assert run_cli("update", "--tensor", base_archive,
                       "--observed-fraction", 0.3, "--rank", 2,
                       "--arma-orders", "1,2,0,0",
                       "--output-dir", tmp_path / "rep") == 0
        assert "updated day 27" in capsys.readouterr().out

    def test_bad_fraction_fails(self, tmp_path, base_archive, capsys):
        rc = run_cli("update", "--tensor", base_archive,
                     "--observed-fraction", 1.5, "--rank", 2,
                     "--output-dir", tmp_path / "rep")
        assert rc == 1
        assert "observed_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("day", [0, 28])
    def test_day_index_outside_the_archive_fails(self, tmp_path, base_archive, capsys, day):
        rc = run_cli("update", "--tensor", base_archive, "--day-index", day,
                     "--observed-fraction", 0.3, "--rank", 2,
                     "--output-dir", tmp_path / "rep")
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--day-index {day} must lie in [1, 28)" in err
        assert "split_day" not in err

    def test_remainder_shorter_than_window_fails(self, tmp_path, base_archive, capsys):
        # 95% of 12 slots leaves one slot to score, short of the 5-slot window
        rc = run_cli("update", "--tensor", base_archive,
                     "--observed-fraction", 0.95, "--rank", 2,
                     "--output-dir", tmp_path / "rep")
        assert rc == 1
        assert "observed_fraction 0.95 leaves 1 of 12 slots" in capsys.readouterr().err


class TestComplete:
    def test_matches_library_completion(self, tmp_path, base_archive, base_tensor):
        out = tmp_path / "done.npz"
        assert run_cli("complete", "--tensor", base_archive, "--suffix-start", 6,
                       "--max-rank", 3, "--out", out) == 0
        future = np.zeros(base_tensor.shape, dtype=bool)
        future[:, -1, 6:] = True
        expected = short_term_predict(base_tensor, future,
                                      LrtcHyperParams(max_rank=3))
        with np.load(out) as archive:
            assert np.array_equal(archive["tensor"], expected.imputed)
            assert np.array_equal(archive["predictive_variance"],
                                  expected.predictive_variance)
            assert int(archive["effective_rank"]) == expected.effective_rank
            assert np.array_equal(archive["mask"], future)

    def test_prints_and_saves_whether_the_fit_converged(self, tmp_path, base_archive, capsys):
        for extra, converged in ((("--max-iters", 1), False), (("--elbo-tol", 0.5), True)):
            out = tmp_path / "done.npz"
            assert run_cli("complete", "--tensor", base_archive, "--suffix-start", 6,
                           "--max-rank", 3, *extra, "--out", out) == 0
            printed = capsys.readouterr().out
            with np.load(out) as archive:
                assert bool(archive["converged"]) is converged
                rank = int(archive["effective_rank"])
            ending = "converged" if converged else "stopped at max_iters without converging"
            assert printed.splitlines()[0].endswith(f"effective rank {rank}, {ending}")

    def test_default_suffix_is_third_of_day(self, tmp_path, base_archive, capsys):
        out = tmp_path / "done.npz"
        assert run_cli("complete", "--tensor", base_archive, "--max-rank", 3,
                       "--out", out) == 0
        assert "(slots 4..11 of the final day)" in capsys.readouterr().out
        with np.load(out) as archive:
            assert int(archive["mask"].sum()) == 5 * 8

    def test_short_and_dotted_max_rank_spellings_write_identical_arrays(self, tmp_path,
                                                                        base_archive):
        outputs = []
        for flag in ("--max-rank", "--lrtc-max-rank"):
            out = tmp_path / f"done{flag}.npz"
            assert run_cli("complete", "--tensor", base_archive, "--suffix-start", 6,
                           flag, 3, "--out", out) == 0
            outputs.append(archive_members(out))
        assert outputs[0] == outputs[1]

    def test_defaults_come_from_the_experiment_config(self, tmp_path, base_archive,
                                                      base_tensor):
        out = tmp_path / "done.npz"
        assert run_cli("complete", "--tensor", base_archive, "--out", out) == 0
        _, future = final_day_suffix(base_tensor.shape)
        expected = short_term_predict(base_tensor, future, ExperimentConfig().lrtc)
        with np.load(out) as archive:
            assert np.array_equal(archive["tensor"], expected.imputed)
            assert np.array_equal(archive["mask"], future)

    def test_out_of_day_suffix_fails(self, tmp_path, base_archive, capsys):
        rc = run_cli("complete", "--tensor", base_archive, "--suffix-start", 12,
                     "--out", tmp_path / "done.npz")
        assert rc == 1
        assert "suffix start" in capsys.readouterr().err


class TestCluster:
    def test_recovers_planted_partition(self, tmp_path):
        archive = make_archive(tmp_path / "two.npz", extents="8,14,12",
                               rank=2, clusters=2, seed=3)
        out = tmp_path / "labels.csv"
        assert run_cli("cluster", "--tensor", archive, "--rank", 2,
                       "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["station_id", "cluster"]
        assert [r[0] for r in rows[1:]] == [f"s{l:02d}" for l in range(8)]
        assert [r[1] for r in rows[1:]] == ["0"] * 4 + ["1"] * 4

    def test_forced_single_cluster(self, tmp_path):
        archive = make_archive(tmp_path / "two.npz", extents="8,14,12",
                               rank=2, clusters=2, seed=3)
        out = tmp_path / "labels.csv"
        assert run_cli("cluster", "--tensor", archive, "--rank", 2,
                       "--clusters", 1, "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[1] for r in rows[1:]] == ["0"] * 8

    def test_short_and_dotted_cluster_spellings_write_identical_bytes(self, tmp_path):
        archive = make_archive(tmp_path / "two.npz", extents="8,14,12",
                               rank=2, clusters=2, seed=3)
        outputs = []
        for flag in ("--clusters", "--n-clusters"):
            out = tmp_path / f"labels{flag}.csv"
            assert run_cli("cluster", "--tensor", archive, "--rank", 2,
                           flag, 3, "--out", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("k", [0, 6])
    def test_bad_cluster_count_fails_before_any_fit(self, tmp_path, base_archive,
                                                    capsys, monkeypatch, k):
        def no_fit(*args, **kwargs):
            raise AssertionError("cp_fit ran before the cluster count check")

        monkeypatch.setattr(cli, "cp_fit", no_fit)
        rc = run_cli("cluster", "--tensor", base_archive, "--rank", 2,
                     "--clusters", k, "--out", tmp_path / "labels.csv")
        assert rc == 1
        assert "n_clusters" in capsys.readouterr().err

    def test_infeasible_rank_fails(self, tmp_path, base_archive, capsys):
        rc = run_cli("cluster", "--tensor", base_archive, "--rank", 200,
                     "--out", tmp_path / "labels.csv")
        assert rc == 1
        assert "flowcast: error:" in capsys.readouterr().err


class TestEvaluate:
    def test_longterm_writes_table_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("synth.extents=6,56,24\nsynth.rank=3\nplan.rank=3\n"
                            "plan.arma_orders=1,2,0,0\nseed=1\n"
                            f"output_dir={out_dir}\n")
        assert run_cli("evaluate", "--experiment", "longterm",
                       "--config", cfg_path) == 0
        with open(out_dir / "longterm_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["station", "res_arma2d", "res_ar1d", "improvement"]
        assert len(rows) == 7
        for row in rows[1:]:
            assert re.fullmatch(r"-?\d+\.\d{4}", row[1])
            assert re.fullmatch(r"-?\d+\.\d{4}", row[2])
        summary = json.loads((out_dir / "longterm_summary.json").read_text())
        assert summary["experiment"] == "longterm"
        assert isinstance(summary["relative_improvement"], float)
        stdout = capsys.readouterr().out
        assert stdout.startswith("longterm:")
        assert stdout.count("wrote ") == 2

    def test_longterm_forecasts_every_held_out_day(self, tmp_path):
        # the plan's 7-day default horizon does not bind the report
        assert run_cli("evaluate", "--experiment", "longterm", "--split-day", 42,
                       "--output-dir", tmp_path) == 0
        summary = json.loads((tmp_path / "longterm_summary.json").read_text())
        assert summary["horizon_days"] == 14

    def test_update_experiment_runs(self, tmp_path):
        out_dir = tmp_path / "rep"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("synth.extents=4,29,12\nsynth.rank=2\nplan.rank=2\n"
                            "plan.arma_orders=1,2,0,0\nsplit_day=28\nseed=0\n"
                            f"output_dir={out_dir}\n")
        assert run_cli("evaluate", "--experiment", "update",
                       "--config", cfg_path, "--observed-fraction", 0.25) == 0
        summary = json.loads((out_dir / "update_summary.json").read_text())
        assert summary["observed_slots"] == 3

    def test_shortterm_experiment_runs(self, tmp_path):
        out_dir = tmp_path / "rep"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("synth.extents=4,29,12\nsynth.rank=2\nplan.rank=2\n"
                            "plan.arma_orders=1,2,0,0\nlrtc.max_rank=3\nseed=0\n"
                            f"output_dir={out_dir}\n")
        assert run_cli("evaluate", "--experiment", "shortterm",
                       "--config", cfg_path) == 0
        summary = json.loads((out_dir / "shortterm_summary.json").read_text())
        assert summary["use_clustering"] is False
        assert summary["n_clusters"] == 1

    def test_missing_data_path_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"data_path={tmp_path / 'absent.csv'}\nextents=3,4\n")
        rc = run_cli("evaluate", "--experiment", "longterm", "--config", cfg_path)
        assert rc == 1
        assert "flowcast: error:" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_requires_output_path(self):
        with pytest.raises(SystemExit):
            main(["synth"])

    @pytest.mark.parametrize("command", subcommands())
    def test_every_subcommand_prints_help(self, command, capsys):
        # argparse %-formats help strings only when --help prints them
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: flowcast {command}")
