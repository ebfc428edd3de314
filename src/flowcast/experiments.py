"""Experiment orchestration: long-term, update, and short-term comparisons.

Each report takes a scenario tensor (from :func:`load_input`: a CSV of flow
records or a seeded synthetic) and the whole :class:`ExperimentConfig`,
applies the forecasting artifact and a reference method to the same held-out
cells, and emits a per-station or per-block table plus a machine-readable
summary.  All randomness flows from the config, so a fixed seed reproduces
reports bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .arma2d import check_orders
from .clustering import agglomerate, choose_cluster_count, embed_stations
from .cp import cp_fit
from .io import ingest
from .lrtc import LrtcHyperParams, short_term_predict
from .pipeline import ForecastPlan, forecast_from_model, lean_update, two_step_forecast
from .synthetic import SyntheticSpec, generate_synthetic
from .tensor_ops import as_whole, residual_or_nan


@dataclass
class ExperimentConfig:
    """One scenario plus method settings.

    With ``data_path`` set, records are ingested under the declared
    ``extents`` (days, slots); otherwise the synthetic spec is used with
    ``seed`` overriding its seed so one flag controls the scenario.

    Each report works out its own horizon: the long-term report forecasts
    every day from ``split_day`` on, and the update and short-term reports
    forecast one day, all with the plan's rank, ARMA orders and ALS
    settings.  Only ``flowcast forecast`` reads ``plan.horizon_days``.
    """

    data_path: str | None = None
    extents: tuple | None = None
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)
    split_day: int = 49
    plan: ForecastPlan = field(default_factory=lambda: ForecastPlan(horizon_days=7, rank=6))
    lrtc: LrtcHyperParams = field(default_factory=lambda: LrtcHyperParams(max_rank=8))
    n_baseline_lags: int = 8
    n_clusters: int | None = None
    suffix_start: int | None = None
    output_dir: str = "."
    seed: int = 0

    def __post_init__(self):
        self.split_day = as_whole(self.split_day, "split_day")
        self.n_baseline_lags = as_whole(self.n_baseline_lags, "n_baseline_lags")
        self.seed = as_whole(self.seed, "seed", minimum=0)
        if self.n_clusters is not None:
            self.n_clusters = as_whole(self.n_clusters, "n_clusters")
        if self.suffix_start is not None:  # its range, [1, n_slots), is checked with the data
            self.suffix_start = as_whole(self.suffix_start, "suffix_start", minimum=None)
        if self.extents is not None and len(self.extents) != 2:
            raise ValueError("extents must declare (n_days, n_slots)")

    def check_n_clusters(self, n_stations):
        """Reject a fixed cluster count above ``n_stations`` before any fit."""
        if self.n_clusters is not None and self.n_clusters > n_stations:
            raise ValueError(f"n_clusters {self.n_clusters} exceeds the {n_stations} stations")


@dataclass
class ExperimentReport:
    """Named table (columns + rows) with a summary dict for machine reading."""

    name: str
    columns: list
    rows: list
    summary: dict


def load_input(cfg: ExperimentConfig):
    """Scenario tensor and station ids from the configured source."""
    if cfg.data_path is not None:
        if not os.path.isfile(cfg.data_path):
            raise ValueError(f"data path does not exist: {cfg.data_path}")
        if cfg.extents is None:
            raise ValueError("extents (days, slots) are required with data_path")
        tensor, station_ids, _ = ingest(cfg.data_path, cfg.extents)
        return tensor, station_ids
    spec = dataclasses.replace(cfg.synth, seed=cfg.seed)
    tensor, _ = generate_synthetic(spec)
    return tensor, [f"s{l:02d}" for l in range(tensor.shape[0])]


def _improvement(reference: float, candidate: float) -> float:
    # relative gain of the candidate over the reference; positive is better
    return 0.0 if reference == 0 else (reference - candidate) / reference


def _require(rows, report, what):
    """``rows``, unless there are none: a mean over no scored rows is nan, not a result."""
    if not rows:
        raise ValueError(f"the {report} report has no {what} to score: "
                         f"none has nonzero truth on its held-out cells")
    return rows


def _check_split(split_day, n_days):
    if not 1 <= split_day < n_days:
        raise ValueError(f"split_day {split_day} must lie in [1, {n_days})")


def longterm_report(tensor, station_ids, cfg: ExperimentConfig) -> ExperimentReport:
    """Two-step 2D-ARMA forecast vs a per-rank scalar AR on the same CP fit.

    Both forecast every held-out day, from ``cfg.split_day`` on.  The
    baseline is the same 2D-ARMA path on a one-row field, orders
    ``(0, n_baseline_lags, 0, 0)``: identical factorization and lag-count
    parity, so the comparison isolates the day-of-week by week structure.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    n_days = tensor.shape[1]
    _check_split(cfg.split_day, n_days)
    try:
        check_orders(cfg.split_day, (0, cfg.n_baseline_lags, 0, 0), 1)
    except ValueError as exc:
        raise ValueError(f"split_day {cfg.split_day} is too short for the AR baseline with "
                         f"n_baseline_lags ({cfg.n_baseline_lags}): {exc}") from exc
    check_orders(cfg.split_day, cfg.plan.arma_orders)
    horizon = n_days - cfg.split_day
    train = tensor[:, :cfg.split_day, :]
    truth = tensor[:, cfg.split_day:, :]

    model, _ = cp_fit(train, cfg.plan.als)
    prediction = forecast_from_model(model, horizon, cfg.plan.arma_orders)
    baseline = forecast_from_model(model, horizon, (0, cfg.n_baseline_lags, 0, 0), 1).tensor

    rows = []
    for l, sid in enumerate(station_ids):
        res_arma = residual_or_nan(prediction.tensor[l], truth[l])
        res_ar = residual_or_nan(baseline[l], truth[l])
        rows.append((sid, res_arma, res_ar, _improvement(res_ar, res_arma)))
    scored = _require([r for r in rows if not np.isnan(r[1])], "longterm", "stations")
    mean_arma = float(np.mean([r[1] for r in scored]))
    mean_ar = float(np.mean([r[2] for r in scored]))
    summary = {
        "mean_res_arma2d": mean_arma,
        "mean_res_ar1d": mean_ar,
        "relative_improvement": _improvement(mean_ar, mean_arma),
        "n_stations": len(station_ids),
        "horizon_days": horizon,
    }
    return ExperimentReport(
        "longterm", ["station", "res_arma2d", "res_ar1d", "improvement"], rows, summary)


def _forecast_and_update(tensor, cfg: ExperimentConfig, day, n_obs):
    """Forecast ``day`` from the days before it, then lean-update it from its
    first ``n_obs`` slots.  Returns ``(prediction, updated)``."""
    plan = dataclasses.replace(cfg.plan, horizon_days=1)
    prediction = two_step_forecast(tensor[:, :day, :], plan)
    observed = np.arange(tensor.shape[2]) < n_obs
    updated = lean_update(prediction, tensor[:, day, :], observed, prediction.source_model)
    return prediction, updated


def update_report(tensor, cfg: ExperimentConfig, observed_fraction: float,
                  window: int = 5) -> ExperimentReport:
    """Lean update of the first held-out day from a partial-day prefix.

    Day ``cfg.split_day`` is forecast from the days before it, the leading
    ``observed_fraction`` of its slots is then revealed, and both the
    original and the updated prediction are scored on consecutive
    ``window``-slot blocks of the remainder (trailing partial block kept
    separate).
    """
    if not 0.0 < observed_fraction < 1.0:
        raise ValueError("observed_fraction must lie strictly in (0, 1)")
    tensor = np.asarray(tensor, dtype=np.float64)
    n_slots = tensor.shape[2]
    _check_split(cfg.split_day, tensor.shape[1])
    n_obs = min(int(np.ceil(observed_fraction * n_slots)), n_slots - 1)
    window = as_whole(window, "window", minimum=None)
    if not 1 <= window <= n_slots - n_obs:
        raise ValueError(
            f"window {window} must lie in [1, {n_slots - n_obs}]: observed_fraction "
            f"{observed_fraction} leaves {n_slots - n_obs} of {n_slots} slots to score")
    if n_obs == n_slots - 1:
        raise ValueError(f"observed_fraction {observed_fraction} leaves 1 of {n_slots} slots "
                         f"to score, too few to split into early and late blocks")

    prediction, updated = _forecast_and_update(tensor, cfg, cfg.split_day, n_obs)
    truth = tensor[:, cfg.split_day, :]
    rows = []
    for start in range(n_obs, n_slots, window):
        block = slice(start, min(start + window, n_slots))
        res_long = residual_or_nan(prediction.tensor[:, 0, block], truth[:, block])
        res_upd = residual_or_nan(updated.tensor[:, 0, block], truth[:, block])
        rows.append((start, block.stop - start, res_long, res_upd,
                     _improvement(res_long, res_upd)))
    early_cut = n_obs + (n_slots - n_obs) // 2
    scored = _require([r for r in rows if not np.isnan(r[2])], "update", "blocks")
    early = _require([r for r in scored if r[0] < early_cut], "update", "early blocks")
    summary = {
        "observed_slots": n_obs,
        "n_blocks": len(rows),
        "mean_res_longterm": float(np.mean([r[2] for r in scored])),
        "mean_res_updated": float(np.mean([r[3] for r in scored])),
        "improved_fraction": float(np.mean([r[4] > 0 for r in scored])),
        "early_improved_fraction": float(np.mean([r[4] > 0 for r in early])),
    }
    return ExperimentReport(
        "update",
        ["block_start", "block_len", "res_longterm", "res_updated", "improvement"],
        rows, summary)


def final_day_suffix(shape, suffix_start=None):
    """First masked slot and the mask of the final day's slots from it on.

    The default start is 30% into the day.
    """
    n_slots = shape[2]
    start = suffix_start if suffix_start is not None else int(np.ceil(0.3 * n_slots))
    if not 0 < start < n_slots:
        raise ValueError(f"suffix_start {start} must lie in [1, {n_slots})")
    future = np.zeros(shape, dtype=bool)
    future[:, -1, start:] = True
    return start, future


def shortterm_report(tensor, station_ids, cfg: ExperimentConfig,
                     use_clustering: bool) -> ExperimentReport:
    """Completion of a masked final-day suffix, jointly or per cluster.

    The suffix from ``cfg.suffix_start`` (default: 30% into the day) of the
    last day is treated as missing and imputed by the completion model; the
    lean update of the same day serves as the reference on the same cells.
    The joint run is the single cluster holding every station.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    n_loc, n_days, _ = tensor.shape
    start, future = final_day_suffix(tensor.shape, cfg.suffix_start)
    if use_clustering:
        cfg.check_n_clusters(n_loc)
    prediction, lean = _forecast_and_update(tensor, cfg, n_days - 1, start)

    embedding = embed_stations(prediction.source_model)
    k = (cfg.n_clusters or choose_cluster_count(embedding)) if use_clustering else 1
    labels = agglomerate(embedding, k).labels
    completed = np.empty_like(tensor)
    parts = []
    for c in range(k):
        members = labels == c
        parts.append(short_term_predict(tensor[members], future[members], cfg.lrtc))
        completed[members] = parts[-1].imputed

    rows = []
    for l, sid in enumerate(station_ids):
        res_lrtc = residual_or_nan(completed[l, -1], tensor[l, -1], future[l, -1])
        res_lean = residual_or_nan(lean.tensor[l, 0], tensor[l, -1], future[l, -1])
        rows.append((sid, int(labels[l]), res_lrtc, res_lean, _improvement(res_lean, res_lrtc)))
    scored = _require([r for r in rows if not np.isnan(r[2])], "shortterm", "stations")
    mean_lrtc = float(np.mean([r[2] for r in scored]))
    mean_lean = float(np.mean([r[3] for r in scored]))
    summary = {
        "mean_res_lrtc": mean_lrtc,
        "mean_res_lean_update": mean_lean,
        "relative_improvement": _improvement(mean_lean, mean_lrtc),
        "use_clustering": bool(use_clustering),
        "n_clusters": int(k),
        "effective_ranks": [int(p.effective_rank) for p in parts],
        "converged": [bool(p.converged) for p in parts],
        "sweeps": [int(p.sweeps) for p in parts],
        "suffix_start": int(start),
    }
    return ExperimentReport(
        "shortterm",
        ["station", "cluster", "res_lrtc", "res_lean_update", "improvement"],
        rows, summary)


def _format_cell(value):
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def write_report(report: ExperimentReport, out_dir):
    """Write ``<name>_table.csv`` and ``<name>_summary.json`` under out_dir.

    RES cells are fixed to 4 decimal places in the table; the summary keeps
    full precision.
    """
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, f"{report.name}_table.csv")
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_format_cell(v) for v in row])
    summary_path = os.path.join(out_dir, f"{report.name}_summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"experiment": report.name, **report.summary}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return table_path, summary_path
