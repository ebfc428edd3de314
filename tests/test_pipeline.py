"""Tests for the forecast pipeline and the lean day update.

Ground truths come from constructed CP models: periodic temporal factors
extended analytically for the long-term forecast, and a perturbed location
factor for the update scenario (truth and prediction are then both exactly
representable, so the spliced least-squares update must shrink the suffix
error).
"""

import warnings

import numpy as np
import pytest

from flowcast.cp import AlsConfig, CpModel, cp_solve_mode
from flowcast.pipeline import (
    DayPrediction,
    ForecastPlan,
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


def update_scenario(seed=0, n_loc=10, n_slots=24, perturbation=0.3):
    """Long-term prediction from a base model, truth from a perturbed location factor."""
    rng = np.random.default_rng(seed)
    u_p = bumpy_intraday_factor(n_slots, centers=(3, 12, 19))
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
    with pytest.raises(ValueError):
        ForecastPlan(horizon_days=1, rank=2, arma_orders=(1, 1, 1))
    with pytest.raises(ValueError):
        ForecastPlan(horizon_days=1, rank=2, als=AlsConfig(rank=3))
    plan = ForecastPlan(horizon_days=3, rank=4)
    assert plan.als.rank == 4
    assert plan.arma_orders == (2, 2, 1, 1)


def test_prediction_validation():
    model = periodic_model()
    day = CpModel(model.weights, [model.factors[0], model.factors[1][:1], model.factors[2]])
    with pytest.raises(ValueError):
        DayPrediction(np.zeros((6, 2, 10)), day, "long_term")
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


def test_every_prefix_update_matches_an_independent_reference():
    prediction, model, truth_day = update_scenario(seed=7)
    n_slots = truth_day.shape[1]
    row = prediction.source_model.factors[1][0]
    kr = model.factors[2] * row
    for n_obs in range(1, n_slots + 1):
        observed = np.arange(n_slots) < n_obs
        updated = lean_update(prediction, truth_day, observed, model)
        out = updated.tensor[:, 0, :]
        np.testing.assert_array_equal(out[:, :n_obs], truth_day[:, :n_obs])

        spliced = np.where(observed[None, :], truth_day, prediction.tensor[:, 0, :])
        want = np.linalg.lstsq(kr, spliced.T, rcond=None)[0].T
        got = updated.source_model.factors[0] * updated.source_model.weights
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

        recon = np.maximum(cp_reconstruct(updated.source_model)[:, 0, :], 0.0)
        np.testing.assert_allclose(out[:, n_obs:], recon[:, n_obs:], rtol=0, atol=1e-12)


def test_update_location_factor_is_min_norm_on_a_singular_gram():
    # a zero in the temporal row zeroes one Khatri-Rao column, so the Gram is
    # singular and the solve must fall back to the minimum-norm solution
    rng = np.random.default_rng(30)
    row, u_p = np.array([0.7, 0.0, 1.3]), rng.normal(size=(48, 3))
    day = rng.normal(size=(9, 48))
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
