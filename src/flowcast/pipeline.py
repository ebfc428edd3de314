"""Long-term tensor forecasting and lean intra-day updating.

``two_step_forecast`` runs the two-step procedure: ``cp_fit`` fits a CP
model, then ``forecast_from_model`` extends each temporal factor column with
a 2D-ARMA forecast on its day-by-week field and reconstructs the future day
slices from the extended factor.

``lean_update`` folds a partially observed new day back into the location
factor without refitting the whole decomposition: the observed prefix is
copied over the first slots of the long-term prediction's day, and the
weighted location factor is re-solved against the fixed temporal row and
intra-day factor.  With one temporal row the Khatri-Rao matrix of the solve
is ``u_p * row`` and its Gram is that matrix's own ``kr.T @ kr``, the
identity ``(u_p (.) row)^T (u_p (.) row) = (row^T row) * (u_p^T u_p)`` of
Kolda & Bader (2009); the day is rebuilt by one matmul,
``(weighted * row) @ u_p.T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arma2d import (DAYS_PER_WEEK, arma2d_fit, arma2d_forecast, check_orders,
                     field_to_vector, reshape_to_field)
from .cp import AlsConfig, CpModel, _normalize_columns, _solve_mode, cp_fit
from .tensor_ops import as_tensor, cp_reconstruct

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

    Fits a CP model to ``t``, after checking that the ARMA orders fit its
    day-of-week by week grid, and hands it to :func:`forecast_from_model`.
    """
    t = as_tensor(t, min_modes=3)
    if t.ndim != 3:
        raise ValueError("expected a 3-way tensor (locations x days x slots)")
    check_orders(t.shape[1], plan.arma_orders)
    model, _ = cp_fit(t, plan.als)
    return forecast_from_model(model, plan)


def forecast_from_model(model: CpModel, plan: ForecastPlan) -> DayPrediction:
    """Forecast the ``plan.horizon_days`` days that follow a fitted CP model.

    Each temporal factor column is laid out as a day-of-week by week field,
    modelled as a 2D ARMA process, and extended far enough to cover the
    horizon; the extended columns replace the temporal factor in the
    reconstruction.  Negative reconstructed counts are clamped to 0.
    """
    return _forecast(model, plan.horizon_days, plan.arma_orders, DAYS_PER_WEEK)


def _forecast(model, tau, orders, days_per_week):
    if len(model.factors) != 3:
        raise ValueError("expected a 3-way model (locations x days x slots)")
    u_t = model.factors[1]
    n_days = u_t.shape[0]
    weeks_have = math.ceil(n_days / days_per_week)
    weeks_need = math.ceil((n_days + tau) / days_per_week)
    h = max(1, weeks_need - weeks_have)
    extended = np.empty((n_days + tau, model.rank))
    for r in range(model.rank):
        f = reshape_to_field(u_t[:, r], days_per_week)
        arma = arma2d_fit(f, orders)
        g = arma2d_forecast(arma, f, h)
        extended[:, r] = field_to_vector(g)[: n_days + tau]

    source = CpModel(model.weights, [model.factors[0], extended[n_days:], model.factors[2]])
    return DayPrediction(np.maximum(cp_reconstruct(source), 0.0), source, "long_term")


def update_location_factor(day, temporal_row, u_p) -> np.ndarray:
    """Weighted location factor that best explains one day slice.

    Solves ``day ~ W kr^T`` in the least squares sense, where
    ``kr = u_p * temporal_row`` is the Khatri-Rao matrix of the one temporal
    row and the intra-day factor, and ``W`` carries the component weights.
    ``kr`` is formed once; it gives both the MTTKRP ``day @ kr`` and the Gram
    ``kr.T @ kr``, which equals ``(row.T @ row) * (u_p.T @ u_p)``.
    """
    day = np.asarray(day, dtype=np.float64)
    kr = u_p * np.asarray(temporal_row, dtype=np.float64).reshape(1, -1)
    return _solve_mode(day @ kr, kr.T @ kr)


def _as_day_slice(values, n_locations, n_slots, name):
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 3 and a.shape[1] == 1:
        a = a[:, 0, :]
    if a.shape != (n_locations, n_slots):
        raise ValueError(f"{name} must be a {n_locations} x {n_slots} day slice")
    return a


def lean_update(prediction: DayPrediction, new_data, observed_slots, model: CpModel) -> DayPrediction:
    """Re-solve the location factor for one day from a partial observation.

    ``observed_slots`` must flag a non-empty prefix of the intra-day axis, and
    ``model`` must be 3-way with the rank of ``prediction.source_model``.
    The first ``n_obs`` slots of a copy of the prediction's day are
    overwritten with the observations, the weighted location factor is
    recomputed from that spliced day against the prediction's temporal row
    and the model's intra-day factor (:func:`update_location_factor`), and
    the day is reconstructed as ``(weighted * row) @ u_p.T``, clamped at 0.
    Observed cells in the output carry the actual observations.
    """
    if prediction.horizon_days != 1:
        raise ValueError("lean_update expects a single-day prediction")
    if len(model.factors) != 3:
        raise ValueError("expected a 3-way model (locations x days x slots)")
    if model.rank != prediction.source_model.rank:
        raise ValueError(f"model rank {model.rank} differs from the prediction's "
                         f"source model rank {prediction.source_model.rank}")
    n_loc, _, n_slots = prediction.tensor.shape
    if model.factors[0].shape[0] != n_loc or model.factors[2].shape[0] != n_slots:
        raise ValueError("model shape does not match the prediction")
    day_new = _as_day_slice(new_data, n_loc, n_slots, "new_data")
    observed = np.asarray(observed_slots, dtype=bool).ravel()
    if observed.shape != (n_slots,):
        raise ValueError("observed_slots must cover the intra-day axis")
    n_obs = np.count_nonzero(observed)
    if n_obs < 1 or not observed[:n_obs].all():
        raise ValueError("observed_slots must mark a non-empty prefix")

    spliced = prediction.tensor[:, 0, :].copy()
    spliced[:, :n_obs] = day_new[:, :n_obs]
    row = prediction.source_model.factors[1][0]
    u_p = model.factors[2]
    weighted = update_location_factor(spliced, row, u_p)

    out = np.maximum((weighted * row) @ u_p.T, 0.0)
    out[:, :n_obs] = day_new[:, :n_obs]

    location, norms = _normalize_columns(weighted)
    source = CpModel(norms, [location, row[None, :], u_p])
    return DayPrediction(out[:, None, :], source, "updated")
