"""Long-term tensor forecasting and lean intra-day updating.

``two_step_forecast`` runs the two-step procedure: ``cp_fit`` fits a CP model,
then ``forecast_from_model(model, horizon_days, arma_orders)`` extends each
temporal factor column with a 2D-ARMA forecast on its day-by-week field (one
row, a scalar AR, with ``days_per_week=1``) and reconstructs the future days.

``lean_update`` folds a partially observed new day back into the location
factor without refitting the whole decomposition: the observed prefix stands
in for the first slots of the long-term prediction's day, and the weighted
location factor is re-solved against the fixed temporal row and intra-day
factor.  With one temporal row the Khatri-Rao matrix of the solve is
``kr = u_p * row`` and its Gram is that matrix's own ``kr.T @ kr``, the
identity ``(u_p (.) row)^T (u_p (.) row) = (row^T row) * (u_p^T u_p)`` of
Kolda & Bader (2009).  Both stay fixed all day, so the solve operator
``S = kr G^-1`` is built once per (row, intra-day factor) pair and cached,
as online CP keeps its fixed factors (Nion & Sidiropoulos 2009); each update
is then two products, and the day is rebuilt by one matmul,
``(weighted * row) @ u_p.T``.  The updated model keeps the solved loadings,
weights of one, the forecast's temporal row and the model's intra-day factor;
``update_location_factor`` returns the same loadings for a whole day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arma2d import (DAYS_PER_WEEK, arma2d_fit, arma2d_forecast, as_orders, check_orders,
                     field_to_vector, reshape_to_field)
from .cp import AlsConfig, CpModel, _solve_mode, cp_fit
from .tensor_ops import as_tensor, as_whole, cp_reconstruct

PROVENANCE_TAGS = ("long_term", "updated")


@dataclass
class ForecastPlan:
    """Horizon, CP rank, ARMA orders, and ALS settings for one forecast run."""

    horizon_days: int
    rank: int
    arma_orders: tuple = (2, 2, 1, 1)
    als: AlsConfig = None

    def __post_init__(self):
        self.horizon_days = as_whole(self.horizon_days, "horizon_days")
        self.rank = as_whole(self.rank, "rank")
        self.arma_orders = as_orders(self.arma_orders)
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
    return forecast_from_model(model, plan.horizon_days, plan.arma_orders)


def forecast_from_model(model: CpModel, horizon_days: int, arma_orders,
                        days_per_week: int = DAYS_PER_WEEK) -> DayPrediction:
    """Forecast the ``horizon_days`` days that follow a fitted 3-way CP model.

    Each temporal factor column is laid out as a ``days_per_week`` by week field,
    modelled as a 2D ARMA process of ``arma_orders`` and extended to cover the
    horizon; the extended columns replace the temporal factor in the
    reconstruction.  Negative reconstructed counts are clamped to 0.
    """
    horizon_days = as_whole(horizon_days, "horizon_days")
    days_per_week = as_whole(days_per_week, "days_per_week")
    if len(model.factors) != 3:
        raise ValueError("expected a 3-way model (locations x days x slots)")
    u_t = model.factors[1]
    n_days = u_t.shape[0]
    weeks_have = math.ceil(n_days / days_per_week)
    weeks_need = math.ceil((n_days + horizon_days) / days_per_week)
    h = max(1, weeks_need - weeks_have)
    extended = np.empty((n_days + horizon_days, model.rank))
    for r in range(model.rank):
        f = reshape_to_field(u_t[:, r], days_per_week)
        arma = arma2d_fit(f, arma_orders)
        g = arma2d_forecast(arma, f, h)
        extended[:, r] = field_to_vector(g)[: n_days + horizon_days]

    source = CpModel(model.weights, [model.factors[0], extended[n_days:], model.factors[2]])
    days = cp_reconstruct(source)
    return DayPrediction(np.maximum(days, 0.0, out=days), source, "long_term")


# (key, S) of the last pair _day_operator solved for: read once per call and replaced
# by one assignment, so a concurrent caller sees one whole entry or the other
_operator_cache = (None, None)


def _day_operator(row, u_p) -> np.ndarray:
    """The solve operator ``S = kr G^-1`` of a temporal row and an intra-day factor.

    ``kr = u_p * row`` and ``G = kr.T @ kr``, so ``day @ S`` is the weighted
    location factor that best explains ``day``; a singular ``G`` gives the
    minimum-norm operator through ``_solve_mode``'s ``pinv`` fallback.  One
    entry is cached, keyed by the 64-bit hash of the arrays' shape and bytes,
    so an array edited in place gets a new operator unless its hash collides
    (a chance of about 2^-64); the hash keeps the key an int, where the bytes
    themselves would hold a second copy of ``u_p``.
    """
    global _operator_cache
    key = hash((u_p.shape, row.tobytes(), u_p.tobytes()))
    cached, s = _operator_cache
    if cached != key:
        kr = u_p * row
        s = _solve_mode(kr, kr.T @ kr)
        _operator_cache = (key, s)
    return s


def _not_finite(cells, text) -> ValueError:
    bad = np.flatnonzero(~np.isfinite(cells).all(axis=1))
    return ValueError(text.format(bad[0]) if bad.size else "the prediction or model is not finite")


def update_location_factor(day, temporal_row, u_p) -> np.ndarray:
    """Weighted location factor that best explains one day slice.

    Solves ``day ~ W kr^T`` in the least squares sense, where
    ``kr = u_p * temporal_row`` is the Khatri-Rao matrix of the one temporal
    row and the intra-day factor, and ``W`` carries the component weights:
    ``W = day @ S`` with the solve operator ``S = kr (kr.T @ kr)^-1``, which
    is built once per (row, intra-day factor) pair and reused while both
    keep their contents; a non-finite cell is a ``ValueError`` naming its station.
    """
    s = _day_operator(np.asarray(temporal_row, dtype=np.float64).reshape(-1),
                      np.asarray(u_p, dtype=np.float64))
    with np.errstate(invalid="ignore"):  # an inf cell meets signed operator entries
        weighted = np.asarray(day, dtype=np.float64) @ s
    if not np.isfinite(weighted).all():
        raise _not_finite(day, "day is not finite in station {}")
    return weighted


def lean_update(prediction: DayPrediction, new_data, observed_slots, model: CpModel) -> DayPrediction:
    """Re-solve the location factor for one day from a partial observation.

    ``observed_slots`` must flag a non-empty prefix of the intra-day axis, and
    ``model`` must be 3-way with the rank of ``prediction.source_model``.
    The weighted location factor is recomputed from the day whose first
    ``n_obs`` slots are the observations and whose rest is the prediction's,
    against the prediction's temporal row and the model's intra-day factor,
    by the solve of :func:`update_location_factor`.  Both parts are read in
    place, as ``observed @ S[:n_obs] + predicted @ S[n_obs:]``, so no spliced
    day is copied.  The result's source model is ``[weighted, row, u_p]``
    with weights of one, ``weighted`` being what :func:`update_location_factor`
    returns for the spliced day; its day, clamped at 0, is the output, whose
    observed cells carry the actual observations.  Cells after the prefix are
    never read; a non-finite cell in it raises ``ValueError``.
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
    day_new = np.asarray(new_data, dtype=np.float64)
    if day_new.ndim == 3 and day_new.shape[1] == 1:
        day_new = day_new[:, 0, :]
    if day_new.shape != (n_loc, n_slots):
        raise ValueError(f"new_data must be a {n_loc} x {n_slots} day slice")
    observed = np.asarray(observed_slots, dtype=bool).ravel()
    if observed.shape != (n_slots,):
        raise ValueError("observed_slots must cover the intra-day axis")
    n_obs = np.count_nonzero(observed)
    if n_obs < 1 or not observed[:n_obs].all():
        raise ValueError("observed_slots must mark a non-empty prefix")

    row = prediction.source_model.factors[1][0]
    u_p = model.factors[2]
    s = _day_operator(row, u_p)  # first, so a new operator is built beside nothing else
    # an inf prefix cell meets signed operator entries; it is reported below, by station
    with np.errstate(invalid="ignore"):
        weighted = day_new[:, :n_obs] @ s[:n_obs]
        weighted += prediction.tensor[:, 0, n_obs:] @ s[n_obs:]
    # a non-finite prefix cell reaches its station's loadings, so only failures look further
    if not np.isfinite(weighted).all():
        raise _not_finite(day_new[:, :n_obs], "new_data is not finite in station {}'s observed prefix")

    out = (weighted * row) @ u_p.T
    np.maximum(out, 0.0, out=out)
    out[:, :n_obs] = day_new[:, :n_obs]

    source = CpModel(np.ones(model.rank), [weighted, row[None, :], u_p])
    return DayPrediction(out[:, None, :], source, "updated")
