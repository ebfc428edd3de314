"""Command line front end for the flowcast toolkit.

Subcommands:

* ``ingest``   - flow-record CSV to a tensor archive (.npz)
* ``synth``    - synthetic tensor with planted cluster structure
* ``forecast`` - long-term forecast of the next days
* ``update``   - intraday lean update of a held-out day, block report
* ``complete`` - imputation of a masked final-day suffix
* ``cluster``  - station embedding and hierarchical cluster labels
* ``evaluate`` - named experiment, written as table + summary files

Settings shared with :class:`~flowcast.experiments.ExperimentConfig` can
come from a ``key=value`` file (``--config``); command line flags take
precedence over file entries.
"""

import argparse
import csv
import dataclasses
import sys

import numpy as np

from .cp import AlsConfig, cp_fit
from .clustering import agglomerate, choose_cluster_count, embed_stations
from .experiments import (ExperimentConfig, final_day_suffix, run_longterm_experiment,
                          run_shortterm_experiment, run_update_experiment,
                          update_report, write_report)
from .io import ingest
from .lrtc import LrtcHyperParams, short_term_predict
from .pipeline import ForecastPlan, two_step_forecast
from .synthetic import SyntheticSpec, generate_synthetic, planted_labels


def _int_tuple(text):
    return tuple(int(part) for part in str(text).split(","))


# Config-file / override surface: dotted keys map onto ExperimentConfig and
# its nested dataclasses.  Values stay strings until build time so that file
# entries and command line overrides are cast identically.
_SCHEMA = {
    "data_path": (str, "flow-record CSV instead of synthetic data"),
    "extents": (_int_tuple, "days,slots grid of the data file"),
    "split_day": (int, "first held-out day index"),
    "n_baseline_lags": (int, "lag count of the 1-D AR baseline"),
    "n_clusters": (int, "fixed cluster count (default: automatic)"),
    "variance_retained": (float, "embedding variance fraction"),
    "suffix_start": (int, "first masked slot of the final day"),
    "output_dir": (str, "directory for report files"),
    "seed": (int, "random seed for synthetic scenarios"),
    "plan.horizon_days": (int, "forecast horizon in days"),
    "plan.rank": (int, "CP rank of the forecast model"),
    "plan.arma_orders": (_int_tuple, "AR/MA orders p1,p2,q1,q2"),
    "synth.extents": (_int_tuple, "stations,days,slots of generated data"),
    "synth.rank": (int, "CP rank of the generator"),
    "synth.weekly_strength": (float, "weekly modulation strength"),
    "synth.daily_strength": (float, "day-to-day noise strength"),
    "synth.n_clusters": (int, "planted cluster count"),
    "synth.separation": (float, "cross-cluster damping factor"),
    "synth.noise_var": (float, "additive noise variance"),
    "lrtc.a0": (float, "precision prior shape"),
    "lrtc.b0": (float, "precision prior rate"),
    "lrtc.c0": (float, "weight prior shape"),
    "lrtc.d0": (float, "weight prior rate"),
    "lrtc.max_rank": (int, "initial completion rank budget"),
    "lrtc.max_iters": (int, "completion iteration cap"),
    "lrtc.elbo_tol": (float, "completion convergence tolerance"),
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
    """Assemble an ExperimentConfig from flat dotted-key settings."""
    plain = {}
    nested = {"plan": {}, "synth": {}, "lrtc": {}}
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
    plan = ForecastPlan(**{"horizon_days": 7, "rank": 6, **nested["plan"]})
    lrtc = LrtcHyperParams(**{"max_rank": 8, **nested["lrtc"]})
    synth = SyntheticSpec(**nested["synth"])
    return ExperimentConfig(plan=plan, lrtc=lrtc, synth=synth, **plain)


def _collect_settings(args):
    settings = {}
    if getattr(args, "config", None) is not None:
        settings.update(load_config(args.config))
    for key in _SCHEMA:
        value = vars(args).get(key)
        if value is not None:
            settings[key] = value
    return settings


def _add_config_options(parser, keys):
    parser.add_argument("--config", metavar="PATH",
                        help="key=value settings file (flags take precedence)")
    for key in keys:
        flag = "--" + key.replace(".", "-").replace("_", "-")
        parser.add_argument(flag, dest=key, metavar="VALUE", default=None,
                            help=_SCHEMA[key][1])


def _save_tensor(path, tensor, station_ids, **extra):
    np.savez(path, tensor=np.asarray(tensor, dtype=np.float64),
             station_ids=np.asarray(list(station_ids), dtype=np.str_), **extra)


def _load_tensor(path):
    with np.load(path, allow_pickle=False) as archive:
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
    cfg = build_experiment_config(_collect_settings(args))
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
    tensor, station_ids = _load_tensor(args.tensor)
    plan = ForecastPlan(args.horizon_days, rank=args.rank,
                        arma_orders=_int_tuple(args.arma_orders))
    prediction = two_step_forecast(tensor, plan)
    _save_tensor(args.out, prediction.tensor, station_ids,
                 provenance=np.asarray(prediction.provenance))
    print(f"forecast {prediction.horizon_days} day(s) x {tensor.shape[2]} slots "
          f"for {len(station_ids)} stations (rank {args.rank})")
    print(f"wrote {args.out}")
    return 0


def _cmd_update(args):
    tensor, _ = _load_tensor(args.tensor)
    day = args.day_index if args.day_index is not None else tensor.shape[1] - 1
    report = update_report(tensor, day, args.rank, _int_tuple(args.arma_orders),
                           args.observed_fraction, window=args.window)
    paths = write_report(report, args.output_dir)
    s = report.summary
    print(f"updated day {day} from {s['observed_slots']} observed slots: "
          f"mean block RES {s['mean_res_longterm']:.4f} -> {s['mean_res_updated']:.4f}, "
          f"{s['improved_fraction']:.0%} of {s['n_blocks']} blocks improved")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_complete(args):
    tensor, station_ids = _load_tensor(args.tensor)
    start, future = final_day_suffix(tensor.shape, args.suffix_start)
    overrides = {"max_rank": args.max_rank, "max_iters": args.max_iters,
                 "elbo_tol": args.elbo_tol, "seed": args.seed}
    hp = LrtcHyperParams(**{k: v for k, v in overrides.items() if v is not None})
    result = short_term_predict(tensor, future, hp)
    _save_tensor(args.out, result.imputed, station_ids,
                 predictive_variance=result.predictive_variance,
                 mask=future,
                 effective_rank=np.int64(result.effective_rank))
    print(f"completed {int(future.sum())} masked cells (slots {start}.."
          f"{tensor.shape[2] - 1} of the final day), effective rank {result.effective_rank}")
    print(f"wrote {args.out}")
    return 0


def _cmd_cluster(args):
    tensor, station_ids = _load_tensor(args.tensor)
    model, _ = cp_fit(tensor, AlsConfig(rank=args.rank))
    embedding = embed_stations(model, args.variance_retained,
                               station_ids=station_ids)
    k = args.clusters if args.clusters is not None else choose_cluster_count(embedding)
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
    cfg = build_experiment_config(_collect_settings(args))
    if args.experiment == "longterm":
        report = run_longterm_experiment(cfg)
    elif args.experiment == "update":
        report = run_update_experiment(cfg, args.observed_fraction,
                                       window=args.window)
    else:
        report = run_shortterm_experiment(cfg, use_clustering=args.use_clustering)
    out_dir = cfg.output_dir if cfg.output_dir is not None else "."
    paths = write_report(report, out_dir)
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
    _add_config_options(p, ["seed"] + [k for k in _SCHEMA if k.startswith("synth.")])
    p.add_argument("--out", required=True, metavar="PATH", help="output .npz archive")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("forecast", help="forecast the next days from a tensor archive")
    p.add_argument("--tensor", required=True, metavar="PATH", help="input .npz archive")
    p.add_argument("--horizon-days", required=True, type=int)
    p.add_argument("--rank", required=True, type=int, help="CP rank")
    p.add_argument("--arma-orders", default="2,2,1,1", metavar="P1,P2,Q1,Q2")
    p.add_argument("--out", required=True, metavar="PATH", help="output .npz archive")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("update",
                       help="forecast one day, reveal a slot prefix, update, "
                            "and score the remainder block-wise")
    p.add_argument("--tensor", required=True, metavar="PATH", help="input .npz archive")
    p.add_argument("--day-index", type=int, default=None,
                   help="day to update (default: last day)")
    p.add_argument("--observed-fraction", required=True, type=float,
                   help="revealed fraction of the day, in (0, 1)")
    p.add_argument("--rank", required=True, type=int, help="CP rank")
    p.add_argument("--arma-orders", default="2,2,1,1", metavar="P1,P2,Q1,Q2")
    p.add_argument("--window", type=int, default=5, help="scoring block length")
    p.add_argument("--output-dir", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("complete", help="impute a masked suffix of the final day")
    p.add_argument("--tensor", required=True, metavar="PATH", help="input .npz archive")
    p.add_argument("--suffix-start", type=int, default=None,
                   help="first masked slot (default: 30%% into the day)")
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--elbo-tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, metavar="PATH", help="output .npz archive")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("cluster", help="embed stations and write cluster labels")
    p.add_argument("--tensor", required=True, metavar="PATH", help="input .npz archive")
    p.add_argument("--rank", required=True, type=int, help="CP rank of the embedding model")
    p.add_argument("--clusters", type=int, default=None,
                   help="cluster count (default: automatic)")
    p.add_argument("--variance-retained", type=float, default=0.9)
    p.add_argument("--out", required=True, metavar="PATH", help="output CSV")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("evaluate", help="run a named experiment and write reports")
    p.add_argument("--experiment", required=True,
                   choices=("longterm", "update", "shortterm"))
    p.add_argument("--observed-fraction", type=float, default=0.3,
                   help="revealed fraction for the update experiment")
    p.add_argument("--window", type=int, default=5, help="scoring block length")
    p.add_argument("--use-clustering", action="store_true",
                   help="complete per cluster in the shortterm experiment")
    _add_config_options(p, list(_SCHEMA))
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
