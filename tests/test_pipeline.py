"""Tests for the forecast pipeline and the lean day update.

Ground truths come from constructed CP models: periodic temporal factors
extended analytically for the long-term forecast, and a perturbed location
factor for the update scenario (truth and prediction are then both exactly
representable, so the spliced least-squares update must shrink the suffix
error).
"""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from flowcast import pipeline
from flowcast.cp import AlsConfig, CpModel, cp_fit, cp_solve_mode
from flowcast.pipeline import (
    DayPrediction,
    ForecastPlan,
    forecast_from_model,
    lean_update,
    two_step_forecast,
    update_location_factor,
)
from flowcast.tensor_ops import DegenerateSolveWarning, cp_reconstruct, relative_residual


def periodic_model(n_loc=6, n_days=49, n_slots=10, seed=0):
    rng = np.random.default_rng(seed)
    u_l = rng.uniform(0.5, 1.5, size=(n_loc, 3))
    d = np.arange(n_days)
    u_t = np.column_stack([
        1.0 + 0.5 * np.sin(2 * np.pi * (d + 2 * r) / 7)
        + 0.3 * np.cos(4 * np.pi * (d + r) / 7)
        for r in range(3)
    ])
    u_p = rng.uniform(0.2, 1.0, size=(n_slots, 3))
    return CpModel(np.array([3.0, 2.0, 1.0]), [u_l, u_t, u_p])


def bumpy_intraday_factor(n_slots, centers, width=2.0):
    p = np.arange(n_slots)
    cols = [0.1 + np.exp(-((p - c) ** 2) / (2 * width**2)) for c in centers]
    u = np.column_stack(cols)
    return u / np.linalg.norm(u, axis=0)


def update_scenario(seed=0, n_loc=10, n_slots=24, perturbation=0.3, centers=(3, 12, 19)):
    """Long-term prediction from a base model, truth from a perturbed location factor."""
    rng = np.random.default_rng(seed)
    u_p = bumpy_intraday_factor(n_slots, centers=centers)
    row = np.array([[1.0, 0.8, 1.2]])
    weights = np.array([5.0, 4.0, 3.0])
    u_l = rng.uniform(0.5, 1.5, size=(n_loc, 3))
    base = CpModel(weights, [u_l, row, u_p])
    truth = CpModel(weights, [u_l + perturbation * rng.normal(size=u_l.shape), row, u_p])
    prediction = DayPrediction(np.maximum(cp_reconstruct(base), 0.0), base, "long_term")
    truth_day = cp_reconstruct(truth)[:, 0, :]
    return prediction, base, truth_day


# --- plan and prediction types -------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError):
        ForecastPlan(horizon_days=0, rank=2)
    with pytest.raises(ValueError, match="horizon_days must be a whole number"):
        ForecastPlan(horizon_days=1.5, rank=2)
    with pytest.raises(ValueError):
        ForecastPlan(horizon_days=1, rank=2, arma_orders=(1, 1, 1))
    with pytest.raises(ValueError, match="arma_orders must be a whole number, got 1.9"):
        ForecastPlan(horizon_days=1, rank=2, arma_orders=(1, 1.9, 0, 0))
    with pytest.raises(ValueError):
        ForecastPlan(horizon_days=1, rank=2, als=AlsConfig(rank=3))
    plan = ForecastPlan(horizon_days=3, rank=4)
    assert plan.als.rank == 4
    assert plan.arma_orders == (2, 2, 1, 1)
    plan = ForecastPlan(horizon_days=7, rank=6.0, arma_orders=[True, 2, 0, 0])
    assert type(plan.rank) is int and plan.rank == 6 and plan.als.rank == 6
    assert type(plan.arma_orders) is tuple and plan.arma_orders == (1, 2, 0, 0)
    assert all(type(o) is int for o in plan.arma_orders)


def test_prediction_validation():
    model = periodic_model()
    day = CpModel(model.weights, [model.factors[0], model.factors[1][:1], model.factors[2]])
    with pytest.raises(ValueError):
        DayPrediction(np.zeros((6, 2, 10)), day, "long_term")
    with pytest.raises(ValueError, match="3-way"):
        DayPrediction(np.zeros((6, 10)), day, "long_term")
    with pytest.raises(ValueError):
        DayPrediction(np.zeros((6, 1, 10)), day, "guess")
    p = DayPrediction(np.zeros((6, 1, 10)), day, "updated")
    assert p.horizon_days == 1


# --- two-step forecast ----------------------------------------------------


def test_forecast_constant_tensor_stays_constant():
    t = np.full((4, 21, 5), 3.7)
    plan = ForecastPlan(horizon_days=3, rank=1, arma_orders=(1, 1, 0, 0))
    with pytest.warns(DegenerateSolveWarning):
        pred = two_step_forecast(t, plan)
    assert pred.tensor.shape == (4, 3, 5)
    np.testing.assert_allclose(pred.tensor, 3.7, atol=1e-6)


def test_forecast_periodic_factors_continue_the_pattern():
    model = periodic_model()
    full = cp_reconstruct(model)
    plan = ForecastPlan(horizon_days=7, rank=3)
    with warnings.catch_warnings():
        # exactly periodic columns make the ARMA design collinear
        warnings.simplefilter("ignore", DegenerateSolveWarning)
        pred = two_step_forecast(full[:, :42, :], plan)
    res = relative_residual(pred.tensor, full[:, 42:, :])
    assert res < 0.05


def test_forecast_shape_contract_and_clamping():
    rng = np.random.default_rng(4)
    t = np.abs(rng.normal(size=(5, 49, 8)))
    for tau in (1, 3, 10):
        pred = two_step_forecast(t, ForecastPlan(horizon_days=tau, rank=2))
        assert pred.tensor.shape == (5, tau, 8)
        assert pred.provenance == "long_term"
        assert (pred.tensor >= 0).all()
        np.testing.assert_allclose(
            pred.tensor, np.maximum(cp_reconstruct(pred.source_model), 0.0), atol=1e-12)


def test_forecast_rejects_bad_input():
    plan = ForecastPlan(horizon_days=1, rank=1)
    with pytest.raises(ValueError):
        two_step_forecast(np.ones((3, 4)), plan)
    with pytest.raises(ValueError, match="3-way"):
        two_step_forecast(np.ones((3, 14, 4, 2)), plan)
    with pytest.raises(ValueError):
        # 10 days is one partial week plus change: too short for the default orders
        two_step_forecast(np.ones((3, 10, 4)) + np.random.default_rng(0).normal(size=(3, 10, 4)), plan)


@pytest.mark.parametrize("n_days, match", [(10, "too small"), (28, "not enough interior")])
def test_infeasible_orders_are_rejected_before_the_fit(monkeypatch, n_days, match):
    def no_fit(*args, **kwargs):
        raise AssertionError("cp_fit ran before the order check")

    monkeypatch.setattr("flowcast.pipeline.cp_fit", no_fit)
    t = np.random.default_rng(0).uniform(size=(5, n_days, 12))
    # the default orders (2, 2, 1, 1) need more than four weeks of days
    with pytest.raises(ValueError, match=match):
        two_step_forecast(t, ForecastPlan(horizon_days=7, rank=2))


def test_forecast_from_model_is_the_two_step_forecast_on_a_fitted_model():
    t = np.random.default_rng(6).uniform(size=(5, 35, 8))
    als = AlsConfig(rank=2, max_iters=30)
    model, _ = cp_fit(t, als)
    for horizon in (1, 7):
        plan = ForecastPlan(horizon, rank=2, arma_orders=(1, 1, 0, 0), als=als)
        direct = forecast_from_model(model, horizon, plan.arma_orders)
        assert np.array_equal(direct.tensor, two_step_forecast(t, plan).tensor)
    # whole numbers of any numeric type are the same orders, bit for bit
    want = two_step_forecast(t, ForecastPlan(7, rank=2, arma_orders=(1, 2, 0, 0), als=als)).tensor
    orders = (1.0, np.int64(2), 0, 0)
    assert np.array_equal(forecast_from_model(model, 7, orders).tensor, want)
    plan = ForecastPlan(7, rank=2, arma_orders=orders, als=als)
    assert np.array_equal(two_step_forecast(t, plan).tensor, want)
    with pytest.raises(ValueError, match="horizon_days"):
        forecast_from_model(model, 0, (1, 1, 0, 0))
    with pytest.raises(ValueError, match="3-way"):
        forecast_from_model(CpModel(model.weights, model.factors[:2]), 1, (1, 1, 0, 0))


@pytest.mark.parametrize("days_per_week", [0, 1.5, -1])
def test_forecast_from_model_names_a_bad_days_per_week(days_per_week):
    model = periodic_model(n_days=14)
    with pytest.raises(ValueError, match="days_per_week"):
        forecast_from_model(model, 2, (1, 1, 0, 0), days_per_week=days_per_week)


# --- lean update -----------------------------------------------------------


def test_update_is_identity_on_self_consistent_data():
    prediction, model, _ = update_scenario(seed=1, perturbation=0.0)
    observed = np.arange(24) < 7
    updated = lean_update(prediction, prediction.tensor.copy(), observed, model)
    assert updated.provenance == "updated"
    np.testing.assert_allclose(updated.tensor, prediction.tensor, rtol=1e-9, atol=1e-12)


def test_full_mask_update_matches_generic_solve():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u_l = rng.normal(size=(8, 3))
        row = rng.normal(size=(1, 3))
        u_p = rng.normal(size=(12, 3))
        weights = np.sort(rng.uniform(1.0, 4.0, size=3))[::-1]
        model = CpModel(weights, [u_l, row, u_p])
        prediction = DayPrediction(np.maximum(cp_reconstruct(model), 0.0), model, "long_term")
        day = np.abs(rng.normal(size=(8, 12)))

        updated = lean_update(prediction, day, np.ones(12, dtype=bool), model)
        w_lean = updated.source_model.factors[0] * updated.source_model.weights
        w_direct = cp_solve_mode(day[:, None, :], model, 0)
        np.testing.assert_allclose(w_lean, w_direct, atol=1e-10)


def test_update_improves_the_suffix():
    prediction, model, truth_day = update_scenario(seed=0)
    observed = np.arange(24) < 7
    updated = lean_update(prediction, truth_day, observed, model)

    suffix = ~observed
    res_long = relative_residual(prediction.tensor[:, 0, suffix], truth_day[:, suffix])
    res_updated = relative_residual(updated.tensor[:, 0, suffix], truth_day[:, suffix])
    assert res_updated < res_long


def test_update_passes_observations_through():
    prediction, model, truth_day = update_scenario(seed=2)
    observed = np.arange(24) < 8
    updated = lean_update(prediction, truth_day, observed, model)
    np.testing.assert_array_equal(updated.tensor[:, 0, :8], truth_day[:, :8])
    assert (updated.tensor >= 0).all()
    # source model reproduces the unclamped day
    recon = cp_reconstruct(updated.source_model)
    np.testing.assert_allclose(
        np.maximum(recon[:, 0, ~observed], 0.0), updated.tensor[:, 0, ~observed], atol=1e-12)


def test_updated_model_keeps_the_loadings_as_solved():
    # weights of one and the solve's own loadings, not unit columns and their norms
    prediction, model, truth_day = update_scenario(seed=5)
    row, u_p = prediction.source_model.factors[1][0], model.factors[2]
    for n_obs in (1, 15, 24):
        observed = np.arange(24) < n_obs
        updated = lean_update(prediction, truth_day, observed, model)
        assert np.array_equal(updated.source_model.weights, np.ones(3))
        spliced = np.where(observed, truth_day, prediction.tensor[:, 0])
        want = update_location_factor(spliced, row, u_p)
        got = updated.source_model.factors[0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_update_rejects_bad_masks_and_shapes():
    prediction, model, truth_day = update_scenario(seed=3)
    with pytest.raises(ValueError):
        lean_update(prediction, truth_day, np.zeros(24, dtype=bool), model)
    gap = np.zeros(24, dtype=bool)
    gap[[0, 2]] = True
    with pytest.raises(ValueError):
        lean_update(prediction, truth_day, gap, model)
    with pytest.raises(ValueError):
        lean_update(prediction, truth_day, np.ones(23, dtype=bool), model)
    with pytest.raises(ValueError):
        lean_update(prediction, truth_day[:, :23], np.ones(24, dtype=bool), model)
    wide = DayPrediction(np.zeros((10, 2, 24)),
                         CpModel(model.weights,
                                 [model.factors[0], np.ones((2, 3)), model.factors[2]]),
                         "long_term")
    with pytest.raises(ValueError):
        lean_update(wide, truth_day, np.ones(24, dtype=bool), model)
    for bad in (np.nan, np.inf):
        day = truth_day.copy()
        day[2, 1] = bad
        with pytest.raises(ValueError, match="station 2's observed prefix"):
            lean_update(prediction, day, np.arange(24) < 4, model)


def test_update_ignores_cells_after_the_prefix():
    prediction, model, truth_day = update_scenario(seed=3)
    observed = np.arange(24) < 4
    unknown = truth_day.copy()
    unknown[:, 4:] = np.nan
    got = lean_update(prediction, unknown, observed, model)
    want = lean_update(prediction, truth_day, observed, model)
    assert np.array_equal(got.tensor, want.tensor)
    for a, b in zip(got.source_model.factors, want.source_model.factors):
        assert np.array_equal(a, b)


def test_update_rejects_a_mismatched_model_before_solving(monkeypatch):
    prediction, model, truth_day = update_scenario(seed=3)
    observed = np.arange(24) < 5

    def refuse(*args, **kwargs):
        raise AssertionError("a mismatched model reached the solve")

    monkeypatch.setattr("flowcast.pipeline._solve_mode", refuse)
    two_way = CpModel(model.weights, model.factors[:2])
    with pytest.raises(ValueError, match="3-way"):
        lean_update(prediction, truth_day, observed, two_way)
    rank_one = CpModel(model.weights[:1], [f[:, :1] for f in model.factors])
    with pytest.raises(ValueError, match="rank 1 .* rank 3"):
        lean_update(prediction, truth_day, observed, rank_one)
    short = CpModel(model.weights, [model.factors[0][:-1], *model.factors[1:]])
    with pytest.raises(ValueError, match="model shape does not match"):
        lean_update(prediction, truth_day, observed, short)


def test_update_holds_under_two_day_slices_at_once(monkeypatch):
    # no spliced day is copied and the rebuilt day is clamped in place: one day slice
    # and the small solve, not three day slices, on the call that builds the operator
    # (the first) as on one that reads it from the cache
    rng = np.random.default_rng(0)
    model = CpModel(np.ones(3), [rng.uniform(0.5, 1.5, size=(n, 3)) for n in (60, 1, 48)])
    prediction = DayPrediction(cp_reconstruct(model), model, "long_term")
    day = 1.1 * prediction.tensor[:, 0, :]
    monkeypatch.setattr(pipeline, "_operator_cache", (None, None))
    for n_obs in (20, 30):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            updated = lean_update(prediction, day, np.arange(48) < n_obs, model)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * day.nbytes
        np.testing.assert_array_equal(updated.tensor[:, 0, :n_obs], day[:, :n_obs])


def assert_matches_the_lstsq_reference(prediction, model, day, n_obs):
    observed = np.arange(day.shape[1]) < n_obs
    updated = lean_update(prediction, day, observed, model)
    out = updated.tensor[:, 0, :]
    np.testing.assert_array_equal(out[:, :n_obs], day[:, :n_obs])

    kr = model.factors[2] * prediction.source_model.factors[1][0]
    spliced = np.where(observed[None, :], day, prediction.tensor[:, 0, :])
    want = np.linalg.lstsq(kr, spliced.T, rcond=None)[0].T
    got = updated.source_model.factors[0] * updated.source_model.weights
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    recon = np.maximum(cp_reconstruct(updated.source_model)[:, 0, :], 0.0)
    np.testing.assert_allclose(out[:, n_obs:], recon[:, n_obs:], rtol=0, atol=1e-12)


def test_every_prefix_update_matches_an_independent_reference():
    prediction, model, truth_day = update_scenario(seed=7)
    for n_obs in range(1, truth_day.shape[1] + 1):
        assert_matches_the_lstsq_reference(prediction, model, truth_day, n_obs)


def test_updates_alternating_two_models_match_the_reference():
    # each call replaces the other model's cached operator
    first = update_scenario(seed=7)
    second = update_scenario(seed=8, centers=(6, 10, 21))
    for n_obs in range(1, 25):
        for prediction, model, truth_day in (first, second):
            assert_matches_the_lstsq_reference(prediction, model, truth_day, n_obs)


def test_update_solves_once_per_temporal_row_and_intraday_factor(monkeypatch):
    solves = []
    solve = pipeline._solve_mode
    monkeypatch.setattr(pipeline, "_solve_mode", lambda *args: solves.append(1) or solve(*args))
    monkeypatch.setattr(pipeline, "_operator_cache", (None, None))
    prediction, model, truth_day = update_scenario(seed=7)
    for n_obs in range(1, 25):
        lean_update(prediction, truth_day, np.arange(24) < n_obs, model)
    assert len(solves) == 1
    # new arrays of the same contents: another location factor, the same row and u_p
    same, other = update_scenario(seed=8), update_scenario(seed=8, centers=(6, 10, 21))
    lean_update(same[0], same[2], np.arange(24) < 5, same[1])
    assert len(solves) == 1
    lean_update(other[0], other[2], np.arange(24) < 5, other[1])
    lean_update(prediction, truth_day, np.arange(24) < 5, model)
    assert len(solves) == 3


@pytest.mark.parametrize("edit", ["intra-day factor", "temporal row"])
def test_update_reads_factors_edited_in_place_afresh(monkeypatch, edit):
    prediction, model, truth_day = update_scenario(seed=4)
    observed = np.arange(24) < 9
    before = lean_update(prediction, truth_day, observed, model)
    if edit == "intra-day factor":
        model.factors[2][5, 1] *= 1.5
    else:
        prediction.source_model.factors[1][0, 1] *= 1.5
    got = lean_update(prediction, truth_day, observed, model)

    fresh_prediction, fresh_model = copy.deepcopy((prediction, model))
    monkeypatch.setattr(pipeline, "_operator_cache", (None, None))
    want = lean_update(fresh_prediction, truth_day, observed, fresh_model)
    loadings = [u.source_model.factors[0] * u.source_model.weights for u in (before, got, want)]
    assert not np.allclose(loadings[0], loadings[1])
    np.testing.assert_allclose(loadings[1], loadings[2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.tensor, want.tensor, rtol=0, atol=1e-12)


def test_update_location_factor_is_min_norm_on_a_singular_gram(monkeypatch):
    # a zero in the temporal row zeroes one Khatri-Rao column, so the Gram is
    # singular and the solve must fall back to the minimum-norm solution; the
    # second call reads the operator the first one cached
    rng = np.random.default_rng(30)
    row, u_p = np.array([0.7, 0.0, 1.3]), rng.normal(size=(48, 3))
    monkeypatch.setattr(pipeline, "_operator_cache", (None, None))
    for day in rng.normal(size=(2, 9, 48)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = update_location_factor(day, row, u_p)
        want = np.linalg.lstsq(u_p * row, day.T, rcond=None)[0].T
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_update_location_factor_recovers_weighted_factor():
    rng = np.random.default_rng(5)
    u_p = rng.normal(size=(15, 4))
    row = rng.normal(size=4)
    w_true = rng.normal(size=(6, 4))
    day = np.einsum("lr,r,pr->lp", w_true, row, u_p)
    w_hat = update_location_factor(day, row, u_p)
    np.testing.assert_allclose(
        np.einsum("lr,r,pr->lp", w_hat, row, u_p), day, atol=1e-10)
    for cell in (np.nan, np.inf, -np.inf):
        broken = day.copy()
        broken[1, 4] = broken[3, 0] = cell
        with pytest.raises(ValueError, match=r"^day is not finite in station 1$"):
            update_location_factor(broken, row, u_p)
