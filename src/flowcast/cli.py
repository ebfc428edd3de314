"""Command line front end for the flowcast toolkit.

Subcommands:

* ``ingest``   - flow-record CSV to a tensor archive (.npz)
* ``synth``    - synthetic tensor with planted cluster structure
* ``forecast`` - long-term forecast of the next days
* ``update``   - intraday lean update of a held-out day, block report
* ``complete`` - imputation of a masked final-day suffix
* ``cluster``  - station embedding and hierarchical cluster labels
* ``evaluate`` - named experiment, written as table + summary files

Every command but ``ingest`` reads its settings through one surface: the
dotted keys of ``_SCHEMA`` map onto
:class:`~flowcast.experiments.ExperimentConfig` and the dataclasses it holds,
which are the only home of their defaults.  A key's flag is the key with
dots and underscores turned into dashes (``--plan-rank``); some keys also
keep a short spelling (``--rank``).  Each command registers only the keys
it reads, except ``evaluate``: it registers every key that any of its three
experiments reads, so each experiment ignores the flags meant for the
others, and each flag's help names the experiments that read it.  ``synth``
and ``evaluate`` also read a ``key=value`` file (``--config``) of those keys;
command line flags take precedence over file entries.  Each command's
handler returns the paths it wrote, and ``main`` reports them.
"""

import argparse
import csv
import dataclasses
import re
import sys
import zipfile

import numpy as np

from .cp import cp_fit
from .clustering import agglomerate, choose_cluster_count, embed_stations
from .experiments import (ExperimentConfig, _format_cell, final_day_suffix, load_input,
                          longterm_report, shortterm_report, update_report,
                          write_report)
from .io import ingest
from .lrtc import short_term_predict
from .pipeline import two_step_forecast
from .synthetic import generate_synthetic, planted_labels


def _int_tuple(text):
    return tuple(int(part) for part in str(text).split(","))


# Config-file / override surface: dotted keys map onto ExperimentConfig and
# its nested dataclasses.  Each entry is (caster, help[, short flag]).  Values
# stay strings until build time so that file entries and command line
# overrides are cast identically.
_SCHEMA = {
    "data_path": (str, "flow-record CSV instead of synthetic data"),
    "extents": (_int_tuple, "days,slots grid of the data file"),
    "split_day": (int, "first held-out day index"),
    "n_baseline_lags": (int, "lag count of the 1-D AR baseline"),
    "n_clusters": (int, "fixed cluster count (default: automatic)", "--clusters"),
    "suffix_start": (int, "first masked slot of the final day "
                           "(default: 30%% into the day)"),
    "output_dir": (str, "directory for report files"),
    "seed": (int, "random seed of generated data; for complete, of the "
                  "completion's starting factors"),
    "plan.horizon_days": (int, "forecast horizon in days", "--horizon-days"),
    "plan.rank": (int, "CP rank of the forecast model", "--rank"),
    "plan.arma_orders": (_int_tuple, "AR/MA orders p1,p2,q1,q2", "--arma-orders"),
    "synth.extents": (_int_tuple, "stations,days,slots of generated data"),
    "synth.rank": (int, "CP rank of the generator"),
    "synth.weekly_strength": (float, "weekly modulation strength"),
    "synth.daily_strength": (float, "day-to-day noise strength"),
    "synth.n_clusters": (int, "planted cluster count"),
    "synth.separation": (float, "cross-cluster damping factor"),
    "synth.noise_var": (float, "additive noise variance"),
    "lrtc.max_rank": (int, "initial completion rank budget", "--max-rank"),
    "lrtc.max_iters": (int, "completion iteration cap", "--max-iters"),
    "lrtc.elbo_tol": (float, "completion convergence tolerance", "--elbo-tol"),
}

_EXPERIMENTS = ("longterm", "update", "shortterm")
# the evaluate experiments that read a setting, where not all of them do
_READ_BY = {
    "split_day": ("longterm", "update"),
    "n_baseline_lags": ("longterm",),
    "n_clusters": ("shortterm",),
    "suffix_start": ("shortterm",),
    "lrtc.max_rank": ("shortterm",),
    "lrtc.max_iters": ("shortterm",),
    "lrtc.elbo_tol": ("shortterm",),
}


def _read_by(*experiments):
    """Help suffix naming the evaluate experiments that read a flag."""
    return f" (read by {', '.join(experiments)})"


def load_config(path, keys=_SCHEMA):
    """Read ``key=value`` settings; ``#`` at the start of a line or after whitespace
    starts a comment, blanks ignored.  A key outside ``keys``, the settings the
    command reads, is an error naming it."""
    settings = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ValueError(f"{path}: line {lineno}: unknown setting {key!r}")
            settings[key] = value
    return settings


def build_experiment_config(settings) -> ExperimentConfig:
    """Assemble an ExperimentConfig from flat dotted-key settings.

    Unset keys keep the defaults of ExperimentConfig and its dataclasses.
    """
    plain = {}
    # als=None lets ForecastPlan rebuild its AlsConfig from the plan's rank
    nested = {"plan": {"als": None}, "synth": {}, "lrtc": {}}
    for key, raw in settings.items():
        if key not in _SCHEMA:
            raise ValueError(f"unknown setting {key!r}")
        caster = _SCHEMA[key][0]
        try:
            value = caster(raw) if isinstance(raw, str) else raw
        except ValueError:
            raise ValueError(f"setting {key!r}: cannot parse value {raw!r}") from None
        section, _, field_name = key.partition(".")
        if field_name:
            nested[section][field_name] = value
        else:
            plain[key] = value
    base = ExperimentConfig()
    sections = {name: dataclasses.replace(getattr(base, name), **fields)
                for name, fields in nested.items()}
    return dataclasses.replace(base, **sections, **plain)


def _config(args):
    """The command's ExperimentConfig: ``--config`` entries, then the flags given."""
    config = getattr(args, "config", None)
    settings = load_config(config, args.config_keys) if config is not None else {}
    settings.update({k: v for k, v in vars(args).items() if k in _SCHEMA and v is not None})
    return build_experiment_config(settings)


def _command(sub, name, help, func, keys=(), tensor=False, out=None, config_file=False,
             readers=None):
    """Declare subcommand ``name`` run by ``func``: its ``--tensor`` input archive
    if ``tensor``, a ``--config`` file if ``config_file``, a flag for each
    ``_SCHEMA`` key in ``keys``, and its ``--out`` path, described by ``out``, if
    given.  With ``readers``, a key's help ends with the experiments that read
    it, ``readers[key]`` or else all of them.  Returns the parser, for the
    arguments the command alone reads."""
    parser = sub.add_parser(name, help=help)
    if tensor:
        parser.add_argument("--tensor", required=True, metavar="PATH", help="input .npz archive")
    if config_file:
        parser.add_argument("--config", metavar="PATH",
                            help="key=value settings file (flags take precedence)")
        parser.set_defaults(config_keys=frozenset(keys))
    for key in keys:
        _, text, *short = _SCHEMA[key]
        if readers is not None:
            text += _read_by(*readers.get(key, _EXPERIMENTS))
        flag = "--" + key.replace(".", "-").replace("_", "-")
        parser.add_argument(flag, *short, dest=key, metavar="VALUE", help=text)
    if out is not None:
        parser.add_argument("--out", required=True, metavar="PATH", help=out)
    parser.set_defaults(func=func)
    return parser


def _add_update_options(parser, note=""):
    parser.add_argument("--observed-fraction", type=float, default=0.3,
                        help="revealed fraction of the day, in (0, 1)" + note)
    parser.add_argument("--window", type=int, default=5, help="scoring block length" + note)


def _save_tensor(path, tensor, station_ids, **extra):
    np.savez(path, tensor=np.asarray(tensor, dtype=np.float64),
             station_ids=np.asarray(list(station_ids), dtype=np.str_), **extra)


def _load_tensor(path):
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not an .npz tensor archive")
    with archive:
        for name in ("tensor", "station_ids"):
            if name not in archive:
                raise ValueError(f"{path}: missing array {name!r}")
        tensor = np.asarray(archive["tensor"], dtype=np.float64)
        station_ids = [str(s) for s in archive["station_ids"]]
    if tensor.ndim != 3:
        raise ValueError(f"{path}: tensor must be 3-way, got {tensor.ndim} modes")
    if len(station_ids) != tensor.shape[0]:
        raise ValueError(f"{path}: station ids do not match mode-0 extent")
    return tensor, station_ids


def _summary_line(report):
    return f"{report.name}: " + "  ".join(
        f"{key}={_format_cell(report.summary[key])}" for key in sorted(report.summary))


def _cmd_ingest(args):
    tensor, station_ids, report = ingest(args.data, (args.days, args.slots))
    _save_tensor(args.out, tensor, station_ids)
    print(f"ingested {report.n_rows} records: {report.n_stations} stations x "
          f"{args.days} days x {args.slots} slots, "
          f"{report.missing_count} cells zero-filled")
    return [args.out]


def _cmd_synth(args):
    cfg = _config(args)
    spec = dataclasses.replace(cfg.synth, seed=cfg.seed)
    tensor, model = generate_synthetic(spec)
    station_ids = [f"s{l:02d}" for l in range(tensor.shape[0])]
    _save_tensor(args.out, tensor, station_ids,
                 labels=planted_labels(spec),
                 weights=model.weights,
                 factor_location=model.factors[0],
                 factor_temporal=model.factors[1],
                 factor_intraday=model.factors[2])
    n_loc, n_days, n_slots = tensor.shape
    print(f"generated {n_loc}x{n_days}x{n_slots} tensor "
          f"(rank {spec.rank}, {spec.n_clusters} planted clusters, seed {spec.seed})")
    return [args.out]


def _cmd_forecast(args):
    cfg = _config(args)
    tensor, station_ids = _load_tensor(args.tensor)
    prediction = two_step_forecast(tensor, cfg.plan)
    _save_tensor(args.out, prediction.tensor, station_ids,
                 provenance=np.asarray(prediction.provenance))
    print(f"forecast {prediction.horizon_days} day(s) x {tensor.shape[2]} slots "
          f"for {len(station_ids)} stations (rank {cfg.plan.rank})")
    return [args.out]


def _cmd_update(args):
    cfg = _config(args)
    tensor, _ = _load_tensor(args.tensor)
    n_days = tensor.shape[1]
    day = args.day_index if args.day_index is not None else n_days - 1
    if not 1 <= day < n_days:
        raise ValueError(f"--day-index {day} must lie in [1, {n_days}): "
                         "the update needs at least one day before it")
    report = update_report(tensor, dataclasses.replace(cfg, split_day=day),
                           args.observed_fraction, window=args.window)
    paths = write_report(report, cfg.output_dir)
    s = report.summary
    print(f"updated day {day} from {s['observed_slots']} observed slots: "
          f"mean block RES {s['mean_res_longterm']:.4f} -> {s['mean_res_updated']:.4f}, "
          f"{s['improved_fraction']:.0%} of {s['n_blocks']} blocks improved")
    return paths


def _cmd_complete(args):
    cfg = _config(args)
    tensor, station_ids = _load_tensor(args.tensor)
    start, future = final_day_suffix(tensor.shape, cfg.suffix_start)
    result = short_term_predict(tensor, future, dataclasses.replace(cfg.lrtc, seed=cfg.seed))
    _save_tensor(args.out, result.imputed, station_ids,
                 predictive_variance=result.predictive_variance, mask=future,
                 effective_rank=np.int64(result.effective_rank),
                 converged=np.bool_(result.converged))
    print(f"completed {int(future.sum())} masked cells (slots {start}.."
          f"{tensor.shape[2] - 1} of the final day), effective rank {result.effective_rank}, "
          + ("converged" if result.converged else "stopped at max_iters without converging"))
    return [args.out]


def _cmd_cluster(args):
    cfg = _config(args)
    tensor, station_ids = _load_tensor(args.tensor)
    cfg.check_n_clusters(len(station_ids))
    model, _ = cp_fit(tensor, cfg.plan.als)
    embedding = embed_stations(model)
    k = cfg.n_clusters if cfg.n_clusters is not None else choose_cluster_count(embedding)
    assign = agglomerate(embedding, k)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "cluster"])
        for sid, label in zip(station_ids, assign.labels):
            writer.writerow([sid, int(label)])
    print(f"assigned {len(station_ids)} stations to {k} cluster(s) "
          f"from a {embedding.coords.shape[1]}-dimensional embedding")
    return [args.out]


def _cmd_evaluate(args):
    cfg = _config(args)
    tensor, station_ids = load_input(cfg)
    if args.experiment == "longterm":
        report = longterm_report(tensor, station_ids, cfg)
    elif args.experiment == "update":
        report = update_report(tensor, cfg, args.observed_fraction, window=args.window)
    else:
        report = shortterm_report(tensor, station_ids, cfg,
                                  args.use_clustering or cfg.n_clusters is not None)
    paths = write_report(report, cfg.output_dir)
    print(_summary_line(report))
    return paths


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flowcast",
        description="Tensor-based passenger-flow forecasting toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    archive = "output .npz archive"

    p = _command(sub, "ingest", "load a flow-record CSV into a tensor archive", _cmd_ingest,
                 out=archive)
    p.add_argument("--data", required=True, metavar="PATH", help="input CSV")
    p.add_argument("--days", required=True, type=int, help="day count of the grid")
    p.add_argument("--slots", required=True, type=int, help="slots per day")

    _command(sub, "synth", "generate a synthetic tensor archive", _cmd_synth,
             ["seed"] + [k for k in _SCHEMA if k.startswith("synth.")], out=archive,
             config_file=True)
    _command(sub, "forecast", "forecast the next days from a tensor archive", _cmd_forecast,
             ["plan.horizon_days", "plan.rank", "plan.arma_orders"], tensor=True, out=archive)

    p = _command(sub, "update", "forecast one day, reveal a slot prefix, update, "
                                "and score the remainder block-wise", _cmd_update,
                 ["plan.rank", "plan.arma_orders", "output_dir"], tensor=True)
    p.add_argument("--day-index", type=int, default=None,
                   help="day to update (default: last day)")
    _add_update_options(p)

    _command(sub, "complete", "impute a masked suffix of the final day", _cmd_complete,
             ["suffix_start", "seed", "lrtc.max_rank", "lrtc.max_iters", "lrtc.elbo_tol"],
             tensor=True, out=archive)
    _command(sub, "cluster", "embed stations and write cluster labels", _cmd_cluster,
             ["plan.rank", "n_clusters"], tensor=True, out="output CSV")

    # each report works out its own horizon
    p = _command(sub, "evaluate", "run a named experiment and write reports", _cmd_evaluate,
                 [k for k in _SCHEMA if k != "plan.horizon_days"], config_file=True,
                 readers=_READ_BY)
    p.add_argument("--experiment", required=True, choices=_EXPERIMENTS)
    _add_update_options(p, _read_by("update"))
    p.add_argument("--use-clustering", action="store_true",
                   help="complete per cluster (implied by a fixed --clusters)"
                        + _read_by("shortterm"))

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        paths = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"flowcast: error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
