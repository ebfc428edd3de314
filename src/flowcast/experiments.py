"""Experiment orchestration: long-term, update, and short-term comparisons.

Each runner loads one scenario (a CSV of flow records or a seeded synthetic),
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

from .clustering import agglomerate, choose_cluster_count, embed_stations
from .cp import cp_fit
from .io import ingest
from .lrtc import LrtcHyperParams, short_term_predict
from .pipeline import (ForecastPlan, forecast_from_model, lean_update,
                       rolling_update_evaluation, two_step_forecast)
from .synthetic import SyntheticSpec, generate_synthetic
from .tensor_ops import residual_or_nan


@dataclass
class ExperimentConfig:
    """One scenario plus method settings.

    With ``data_path`` set, records are ingested under the declared
    ``extents`` (days, slots); otherwise the synthetic spec is used with
    ``seed`` overriding its seed so one flag controls the scenario.
    """

    data_path: str | None = None
    extents: tuple | None = None
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)
    split_day: int = 49
    plan: ForecastPlan = field(default_factory=lambda: ForecastPlan(horizon_days=7, rank=6))
    lrtc: LrtcHyperParams = field(default_factory=lambda: LrtcHyperParams(max_rank=8))
    n_baseline_lags: int = 8
    n_clusters: int | None = None
    variance_retained: float = 0.9
    suffix_start: int | None = None
    output_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.split_day < 1:
            raise ValueError("split_day must be >= 1")
        if self.n_baseline_lags < 1:
            raise ValueError("n_baseline_lags must be >= 1")
        if not 0.0 < self.variance_retained <= 1.0:
            raise ValueError("variance_retained must lie in (0, 1]")
        if self.extents is not None and len(self.extents) != 2:
            raise ValueError("extents must declare (n_days, n_slots)")


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


def _check_split(split_day, n_days):
    if not 1 <= split_day < n_days:
        raise ValueError(f"split_day {split_day} must lie in [1, {n_days})")


def _ar_forecast(series, n_lags, horizon):
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


def run_longterm_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Two-step 2D-ARMA forecast vs a per-rank scalar AR on the same CP fit.

    The baseline gets the identical factorization and lag-count parity
    (``n_baseline_lags`` daily lags), so the comparison isolates the value
    of modelling the day-of-week by week structure.
    """
    tensor, station_ids = load_input(cfg)
    n_days = tensor.shape[1]
    _check_split(cfg.split_day, n_days)
    horizon = n_days - cfg.split_day
    if cfg.plan.horizon_days != horizon:
        raise ValueError(
            f"plan horizon {cfg.plan.horizon_days} must equal held-out days {horizon}")
    train = tensor[:, :cfg.split_day, :]
    truth = tensor[:, cfg.split_day:, :]

    model, _ = cp_fit(train, cfg.plan.als)
    prediction = forecast_from_model(model, cfg.plan)
    extended = np.column_stack([
        _ar_forecast(model.factors[1][:, r], cfg.n_baseline_lags, horizon)
        for r in range(model.rank)
    ])
    baseline = np.clip(
        np.einsum("lr,tr,pr,r->ltp", model.factors[0], extended,
                  model.factors[2], model.weights),
        0.0, None)

    rows = []
    for l, sid in enumerate(station_ids):
        res_arma = residual_or_nan(prediction.tensor[l], truth[l])
        res_ar = residual_or_nan(baseline[l], truth[l])
        rows.append((sid, res_arma, res_ar, _improvement(res_ar, res_arma)))
    scored = [r for r in rows if not np.isnan(r[1])]
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


def run_update_experiment(cfg: ExperimentConfig, observed_fraction: float,
                          window: int = 5) -> ExperimentReport:
    """Lean update of the first held-out day from a partial-day prefix.

    The day is forecast from the training days alone, the leading
    ``observed_fraction`` of its slots is then revealed, and both the
    original and the updated prediction are scored on consecutive
    ``window``-slot blocks of the remainder (trailing partial block kept
    separate).
    """
    tensor, _ = load_input(cfg)
    return update_report(tensor, cfg.split_day, cfg.plan.rank, cfg.plan.arma_orders,
                         observed_fraction, window)


def update_report(tensor, split_day, rank, arma_orders, observed_fraction,
                  window=5) -> ExperimentReport:
    if not 0.0 < observed_fraction < 1.0:
        raise ValueError("observed_fraction must lie strictly in (0, 1)")
    tensor = np.asarray(tensor, dtype=np.float64)
    n_slots = tensor.shape[2]
    _check_split(split_day, tensor.shape[1])
    train = tensor[:, :split_day, :]
    truth_day = tensor[:, split_day, :]

    plan = ForecastPlan(1, rank=rank, arma_orders=arma_orders)
    prediction = two_step_forecast(train, plan)
    n_obs = min(int(np.ceil(observed_fraction * n_slots)), n_slots - 1)
    observed = np.arange(n_slots) < n_obs
    updated = lean_update(prediction, truth_day, observed, prediction.source_model)

    blocks = rolling_update_evaluation(truth_day, prediction, updated,
                                       start_slot=n_obs, window=window)
    rows = [
        (start, min(start + window, n_slots) - start, res_long, res_upd,
         _improvement(res_long, res_upd))
        for start, res_long, res_upd in blocks
    ]
    early_cut = n_obs + (n_slots - n_obs) // 2
    scored = [r for r in rows if not np.isnan(r[2])]
    early = [r for r in scored if r[0] < early_cut]
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


def run_shortterm_experiment(cfg: ExperimentConfig, use_clustering: bool) -> ExperimentReport:
    """Completion of a masked final-day suffix, jointly or per cluster.

    The suffix from ``suffix_start`` (default: 30% into the day) of the last
    day is treated as missing and imputed by the completion model; the lean
    update of the same day serves as the reference on the same cells.
    """
    tensor, station_ids = load_input(cfg)
    return shortterm_report(tensor, station_ids, cfg.plan.rank, cfg.plan.arma_orders,
                            cfg.lrtc, use_clustering, n_clusters=cfg.n_clusters,
                            variance_retained=cfg.variance_retained,
                            suffix_start=cfg.suffix_start)


def final_day_suffix(shape, suffix_start=None):
    """First masked slot and the mask of the final day's slots from it on.

    The default start is 30% into the day.
    """
    n_slots = shape[2]
    start = suffix_start if suffix_start is not None else int(np.ceil(0.3 * n_slots))
    if not 0 < start < n_slots:
        raise ValueError("suffix start must lie strictly inside the day")
    future = np.zeros(shape, dtype=bool)
    future[:, -1, start:] = True
    return start, future


def shortterm_report(tensor, station_ids, rank, arma_orders, lrtc, use_clustering,
                     n_clusters=None, variance_retained=0.9,
                     suffix_start=None) -> ExperimentReport:
    tensor = np.asarray(tensor, dtype=np.float64)
    n_loc, n_days, n_slots = tensor.shape
    start, future = final_day_suffix(tensor.shape, suffix_start)
    history = tensor[:, :n_days - 1, :]

    plan = ForecastPlan(1, rank=rank, arma_orders=arma_orders)
    prediction = two_step_forecast(history, plan)
    observed = np.arange(n_slots) < start
    lean = lean_update(prediction, tensor[:, -1, :], observed, prediction.source_model)

    if use_clustering:
        embedding = embed_stations(prediction.source_model, variance_retained,
                                   station_ids=station_ids)
        k = n_clusters if n_clusters is not None else choose_cluster_count(embedding)
        assign = agglomerate(embedding, k)
        labels = assign.labels
        completed = np.empty_like(tensor)
        effective_ranks = []
        for c in range(k):
            members = labels == c
            part = short_term_predict(tensor[members], future[members], lrtc)
            completed[members] = part.imputed
            effective_ranks.append(part.effective_rank)
    else:
        k = 1
        labels = np.zeros(n_loc, dtype=np.int64)
        part = short_term_predict(tensor, future, lrtc)
        completed = part.imputed
        effective_ranks = [part.effective_rank]

    rows = []
    for l, sid in enumerate(station_ids):
        res_lrtc = residual_or_nan(completed[l, -1], tensor[l, -1], future[l, -1])
        res_lean = residual_or_nan(lean.tensor[l, 0], tensor[l, -1], future[l, -1])
        rows.append((sid, int(labels[l]), res_lrtc, res_lean, _improvement(res_lean, res_lrtc)))
    scored = [r for r in rows if not np.isnan(r[2])]
    mean_lrtc = float(np.mean([r[2] for r in scored]))
    mean_lean = float(np.mean([r[3] for r in scored]))
    summary = {
        "mean_res_lrtc": mean_lrtc,
        "mean_res_lean_update": mean_lean,
        "relative_improvement": _improvement(mean_lean, mean_lrtc),
        "use_clustering": bool(use_clustering),
        "n_clusters": int(k),
        "effective_ranks": [int(r) for r in effective_ranks],
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
