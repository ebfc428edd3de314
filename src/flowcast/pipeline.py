"""Long-term tensor forecasting and lean intra-day updating.

``two_step_forecast`` runs the two-step procedure: ``cp_fit`` fits a CP
model, then ``forecast_from_model`` extends each temporal factor column with
a 2D-ARMA forecast on its day-by-week field and reconstructs the future day
slices from the extended factor.

``lean_update`` folds a partially observed new day back into the location
factor without refitting the whole decomposition: the observed prefix is
spliced with the long-term prediction's suffix, and the weighted location
factor is re-solved against the fixed temporal row and intra-day factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arma2d import DAYS_PER_WEEK, arma2d_fit, arma2d_forecast, reshape_to_field
from .cp import AlsConfig, CpModel, _solve_mode, cp_fit
from .tensor_ops import as_tensor, cp_reconstruct, residual_or_nan

PROVENANCE_TAGS = ("long_term", "updated")


@dataclass
class ForecastPlan:
    """Horizon, CP rank, ARMA orders, and ALS settings for one forecast run."""

    horizon_days: int
    rank: int = 50
    arma_orders: tuple = (2, 2, 1, 1)
    als: AlsConfig = None

    def __post_init__(self):
        if self.horizon_days < 1:
            raise ValueError("horizon_days must be >= 1")
        if len(self.arma_orders) != 4 or min(self.arma_orders) < 0:
            raise ValueError("arma_orders must be four non-negative integers")
        if self.als is None:
            self.als = AlsConfig(rank=self.rank)
        elif self.als.rank != self.rank:
            raise ValueError("plan rank and als.rank disagree")


@dataclass
class DayPrediction:
    """Predicted day slices (locations x days x slots) plus the model that produced them."""

    tensor: np.ndarray
    source_model: CpModel
    provenance: str

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=np.float64)
        if self.tensor.ndim != 3:
            raise ValueError("prediction tensor must be 3-way")
        if self.source_model.shape != self.tensor.shape:
            raise ValueError("source model shape does not match the prediction tensor")
        if self.provenance not in PROVENANCE_TAGS:
            raise ValueError(f"provenance must be one of {PROVENANCE_TAGS}")

    @property
    def horizon_days(self) -> int:
        return self.tensor.shape[1]


def two_step_forecast(t, plan: ForecastPlan) -> DayPrediction:
    """Forecast the next ``plan.horizon_days`` day slices of ``t``.

    Fits a CP model to ``t`` and hands it to :func:`forecast_from_model`.
    """
    t = as_tensor(t, min_modes=3)
    if t.ndim != 3:
        raise ValueError("expected a 3-way tensor (locations x days x slots)")
    model, _ = cp_fit(t, plan.als)
    return forecast_from_model(model, plan)


def forecast_from_model(model: CpModel, plan: ForecastPlan) -> DayPrediction:
    """Forecast the ``plan.horizon_days`` days that follow a fitted CP model.

    Each temporal factor column is laid out as a day-of-week by week field,
    modelled as a 2D ARMA process, and extended far enough to cover the
    horizon; the extended columns replace the temporal factor in the
    reconstruction.  Negative reconstructed counts are clamped to 0.
    """
    if len(model.factors) != 3:
        raise ValueError("expected a 3-way model (locations x days x slots)")
    u_t = model.factors[1]
    n_days = u_t.shape[0]
    tau = plan.horizon_days

    weeks_have = math.ceil(n_days / DAYS_PER_WEEK)
    weeks_need = math.ceil((n_days + tau) / DAYS_PER_WEEK)
    h = max(1, weeks_need - weeks_have)
    extended = np.empty((n_days + tau, model.rank))
    for r in range(model.rank):
        f = reshape_to_field(u_t[:, r])
        arma = arma2d_fit(f, plan.arma_orders)
        g = arma2d_forecast(arma, f, h)
        extended[:, r] = g.values.T.ravel()[: n_days + tau]

    full = cp_reconstruct(CpModel(model.weights, [model.factors[0], extended, model.factors[2]]))
    source = CpModel(model.weights, [model.factors[0], extended[n_days:], model.factors[2]])
    return DayPrediction(np.maximum(full[:, n_days:, :], 0.0), source, "long_term")


def update_location_factor(day, temporal_row, u_p) -> np.ndarray:
    """Weighted location factor that best explains one day slice.

    Solves ``day ~ W (u_p dot-scaled by the temporal row)^T`` in the least
    squares sense; ``W`` carries the component weights.
    """
    day = np.asarray(day, dtype=np.float64)
    row = np.asarray(temporal_row, dtype=np.float64).reshape(1, -1)
    return _solve_mode(day[:, None, :], [None, row, u_p], 0)


def _as_day_slice(values, n_locations, n_slots, name):
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 3 and a.shape[1] == 1:
        a = a[:, 0, :]
    if a.shape != (n_locations, n_slots):
        raise ValueError(f"{name} must be a {n_locations} x {n_slots} day slice")
    return a


def lean_update(prediction: DayPrediction, new_data, observed_slots, model: CpModel) -> DayPrediction:
    """Re-solve the location factor for one day from a partial observation.

    ``observed_slots`` must flag a non-empty prefix of the intra-day axis.
    The observed prefix is spliced with the prediction's remaining slots,
    the weighted location factor is recomputed against the prediction's
    temporal row and the model's intra-day factor, and the day is
    reconstructed.  Observed cells in the output carry the actual
    observations.
    """
    if prediction.horizon_days != 1:
        raise ValueError("lean_update expects a single-day prediction")
    n_loc, _, n_slots = prediction.tensor.shape
    if model.factors[0].shape[0] != n_loc or model.factors[2].shape[0] != n_slots:
        raise ValueError("model shape does not match the prediction")
    day_new = _as_day_slice(new_data, n_loc, n_slots, "new_data")
    observed = np.asarray(observed_slots, dtype=bool).ravel()
    if observed.shape != (n_slots,):
        raise ValueError("observed_slots must cover the intra-day axis")
    n_obs = int(observed.sum())
    if n_obs < 1 or not observed[:n_obs].all():
        raise ValueError("observed_slots must mark a non-empty prefix")

    spliced = np.where(observed[None, :], day_new, prediction.tensor[:, 0, :])
    row = prediction.source_model.factors[1][0]
    u_p = model.factors[2]
    weighted = update_location_factor(spliced, row, u_p)

    recon = np.einsum("lr,r,pr->lp", weighted, row, u_p)
    out = np.maximum(recon, 0.0)
    out[:, observed] = day_new[:, observed]

    norms = np.linalg.norm(weighted, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    source = CpModel(norms, [weighted / safe, row[None, :], u_p])
    return DayPrediction(out[:, None, :], source, "updated")


def rolling_update_evaluation(truth, long_prediction: DayPrediction,
                              updated_prediction: DayPrediction,
                              start_slot: int, window: int):
    """Blockwise RES of both predictions over the post-update part of a day.

    Returns ``(block_start, res_long, res_updated)`` triples for consecutive
    ``window``-slot blocks from ``start_slot`` on; a shorter trailing block
    is scored on its own, and a block whose truth is all zero scores ``nan``.
    """
    if long_prediction.horizon_days != 1 or updated_prediction.horizon_days != 1:
        raise ValueError("evaluation expects single-day predictions")
    n_loc, _, n_slots = long_prediction.tensor.shape
    day_true = _as_day_slice(truth, n_loc, n_slots, "truth")
    if not 0 <= start_slot < n_slots:
        raise ValueError("start_slot out of range")
    if window < 1 or window > n_slots - start_slot:
        raise ValueError("window must fit inside the evaluation suffix")

    rows = []
    for s in range(start_slot, n_slots, window):
        block = slice(s, min(s + window, n_slots))
        rows.append((
            s,
            residual_or_nan(long_prediction.tensor[:, 0, block], day_true[:, block]),
            residual_or_nan(updated_prediction.tensor[:, 0, block], day_true[:, block]),
        ))
    return rows
