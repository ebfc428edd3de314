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
keep a short spelling (``--rank``).  ``synth`` and ``evaluate`` also read a
``key=value`` file (``--config``); command line flags take precedence over
file entries.
"""

import argparse
import csv
import dataclasses
import sys
import zipfile

import numpy as np

from .cp import cp_fit
from .clustering import agglomerate, choose_cluster_count, embed_stations
from .experiments import (ExperimentConfig, final_day_suffix, load_input,
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
    "seed": (int, "random seed for synthetic scenarios"),
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


def load_config(path):
    """Read ``key=value`` settings; ``#`` starts a comment, blanks ignored."""
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SCHEMA:
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
    settings = load_config(args.config) if getattr(args, "config", None) is not None else {}
    settings.update({k: v for k, v in vars(args).items() if k in _SCHEMA and v is not None})
    return build_experiment_config(settings)


def _add_config_options(parser, keys, config_file=False):
    if config_file:
        parser.add_argument("--config", metavar="PATH",
                            help="key=value settings file (flags take precedence)")
    for key in keys:
        _, text, *short = _SCHEMA[key]
        flag = "--" + key.replace(".", "-").replace("_", "-")
        parser.add_argument(flag, *short, dest=key, metavar="VALUE", help=text)


def _add_update_options(parser):
    parser.add_argument("--observed-fraction", type=float, default=0.3,
                        help="revealed fraction of the day, in (0, 1)")
    parser.add_argument("--window", type=int, default=5, help="scoring block length")


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
    parts = []
    for key in sorted(report.summary):
        value = report.summary[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.4f}")
        else:
            parts.append(f"{key}={value}")
    return f"{report.name}: " + "  ".join(parts)


def _cmd_ingest(args):
    tensor, station_ids, report = ingest(args.data, (args.days, args.slots))
    _save_tensor(args.out, tensor, station_ids)
    print(f"ingested {report.n_rows} records: {report.n_stations} stations x "
          f"{args.days} days x {args.slots} slots, "
          f"{report.missing_count} cells zero-filled")
    print(f"wrote {args.out}")
    return 0


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
    print(f"wrote {args.out}")
    return 0


def _cmd_forecast(args):
    cfg = _config(args)
    tensor, station_ids = _load_tensor(args.tensor)
    prediction = two_step_forecast(tensor, cfg.plan)
    _save_tensor(args.out, prediction.tensor, station_ids,
                 provenance=np.asarray(prediction.provenance))
    print(f"forecast {prediction.horizon_days} day(s) x {tensor.shape[2]} slots "
          f"for {len(station_ids)} stations (rank {cfg.plan.rank})")
    print(f"wrote {args.out}")
    return 0


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
    for path in paths:
        print(f"wrote {path}")
    return 0


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
    print(f"wrote {args.out}")
    return 0


def _cmd_cluster(args):
    cfg = _config(args)
    tensor, station_ids = _load_tensor(args.tensor)
    cfg.check_n_clusters(len(station_ids))
    model, _ = cp_fit(tensor, cfg.plan.als)
    embedding = embed_stations(model, station_ids=station_ids)
    k = cfg.n_clusters if cfg.n_clusters is not None else choose_cluster_count(embedding)
    assign = agglomerate(embedding, k)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "cluster"])
        for sid, label in zip(station_ids, assign.labels):
            writer.writerow([sid, int(label)])
    print(f"assigned {len(station_ids)} stations to {k} cluster(s) "
          f"from a {embedding.coords.shape[1]}-dimensional embedding")
    print(f"wrote {args.out}")
    return 0


def _cmd_evaluate(args):
    cfg = _config(args)
    tensor, station_ids = load_input(cfg)
    if args.experiment == "longterm":
        report = longterm_report(tensor, station_ids, cfg)
    elif args.experiment == "update":
        report = update_report(tensor, cfg, args.observed_fraction, window=args.window)
    else:
        report = shortterm_report(tensor, station_ids, cfg, args.use_clustering)
    paths = write_report(report, cfg.output_dir)
    print(_summary_line(report))
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flowcast",
        description="Tensor-based passenger-flow forecasting toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("ingest", help="load a flow-record CSV into a tensor archive")
    p.add_argument("--data", required=True, metavar="PATH", help="input CSV")
    p.add_argument("--days", required=True, type=int, help="day count of the grid")
    p.add_argument("--slots", required=True, type=int, help="slots per day")
    p.add_argument("--out", required=True, metavar="PATH", help="output .npz archive")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic tensor archive")
    _add_config_options(p, ["seed"] + [k for k in _SCHEMA if k.startswith("synth.")],
                        config_file=True)
    p.add_argument("--out", required=True, metavar="PATH", help="output .npz archive")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("forecast", help="forecast the next days from a tensor archive")
    p.add_argument("--tensor", required=True, metavar="PATH", help="input .npz archive")
    _add_config_options(p, ["plan.horizon_days", "plan.rank", "plan.arma_orders"])
    p.add_argument("--out", required=True, metavar="PATH", help="output .npz archive")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("update",
                       help="forecast one day, reveal a slot prefix, update, "
                            "and score the remainder block-wise")
    p.add_argument("--tensor", required=True, metavar="PATH", help="input .npz archive")
    p.add_argument("--day-index", type=int, default=None,
                   help="day to update (default: last day)")
    _add_update_options(p)
    _add_config_options(p, ["plan.rank", "plan.arma_orders", "output_dir"])
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("complete", help="impute a masked suffix of the final day")
    p.add_argument("--tensor", required=True, metavar="PATH", help="input .npz archive")
    _add_config_options(p, ["suffix_start", "seed", "lrtc.max_rank", "lrtc.max_iters",
                            "lrtc.elbo_tol"])
    p.add_argument("--out", required=True, metavar="PATH", help="output .npz archive")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("cluster", help="embed stations and write cluster labels")
    p.add_argument("--tensor", required=True, metavar="PATH", help="input .npz archive")
    _add_config_options(p, ["plan.rank", "n_clusters"])
    p.add_argument("--out", required=True, metavar="PATH", help="output CSV")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("evaluate", help="run a named experiment and write reports")
    p.add_argument("--experiment", required=True,
                   choices=("longterm", "update", "shortterm"))
    _add_update_options(p)
    p.add_argument("--use-clustering", action="store_true",
                   help="complete per cluster in the shortterm experiment")
    _add_config_options(p, list(_SCHEMA), config_file=True)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"flowcast: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
