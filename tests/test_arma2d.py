"""Tests for the 2D-ARMA field model.

Expected values for the forecast recursion are hand enumerations of the
difference equation frozen into the tests; coefficient recovery checks run
the fit against fields simulated from known models.
"""

import re
import warnings

import numpy as np
import pytest

from flowcast.arma2d import (
    Arma2dModel,
    Field2D,
    arma2d_fit,
    arma2d_forecast,
    check_orders,
    field_to_vector,
    reshape_to_field,
    simulate_field,
)
from flowcast.tensor_ops import DegenerateSolveWarning


def ar11_model(a01, a10, a11, sigma2):
    ar = np.array([[0.0, a01], [a10, a11]])
    return Arma2dModel(ar, np.ones((1, 1)), sigma2, (1, 1, 0, 0))


# --- grid layout ---------------------------------------------------------


def test_reshape_two_full_weeks():
    u = np.arange(14.0)
    f = reshape_to_field(u)
    assert f.values.shape == (7, 2)
    assert f.valid.all()
    for d in range(7):
        for w in range(2):
            assert f.values[d, w] == u[w * 7 + d]


def test_reshape_partial_week_flags_absent_cells():
    u = np.arange(16.0)
    f = reshape_to_field(u)
    assert f.values.shape == (7, 3)
    assert f.valid.sum() == 16
    assert not f.valid[2:, 2].any()
    assert f.valid[:2, 2].all()


def test_vector_round_trip():
    rng = np.random.default_rng(3)
    for t in (1, 6, 7, 13, 16, 21):
        u = rng.normal(size=t)
        back = field_to_vector(reshape_to_field(u))
        np.testing.assert_array_equal(back, u)


def test_vector_rejects_interior_gaps():
    valid = np.array([[True, False], [False, True]])
    f = Field2D(np.ones((2, 2)), valid)
    with pytest.raises(ValueError):
        field_to_vector(f)


def test_reshape_rejects_bad_input():
    with pytest.raises(ValueError):
        reshape_to_field([])
    with pytest.raises(ValueError):
        reshape_to_field([1.0, 2.0], days_per_week=0)


def test_field_validation():
    with pytest.raises(ValueError):
        Field2D(np.ones((2, 2)), np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        Field2D(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        Field2D(np.array([[np.nan, 1.0]]))
    # a non-finite value behind an absent cell is tolerated
    Field2D(np.array([[np.nan, 1.0]]), np.array([[False, True]]))


# --- model shape ---------------------------------------------------------


def test_coefficient_counts():
    m = Arma2dModel(np.zeros((3, 3)), np.ones((1, 1)), 1.0, (2, 2, 0, 0))
    assert m.n_ar_coefficients == 8
    assert m.n_ma_coefficients == 1
    m2 = Arma2dModel(np.zeros((2, 2)), np.zeros((2, 3)), 1.0, (1, 1, 1, 2))
    assert m2.n_ma_coefficients == 6


def test_model_rejects_mismatched_grids():
    with pytest.raises(ValueError):
        Arma2dModel(np.zeros((2, 2)), np.ones((1, 1)), 1.0, (2, 1, 0, 0))
    with pytest.raises(ValueError):
        Arma2dModel(np.zeros((1, 1)), np.ones((1, 1)), -1.0, (0, 0, 0, 0))


# --- fitting -------------------------------------------------------------


def test_white_noise_orders_give_variance_only():
    rng = np.random.default_rng(0)
    f = Field2D(rng.normal(0.0, 2.0, size=(7, 60)))
    m = arma2d_fit(f, (0, 0, 0, 0))
    assert m.n_ar_coefficients == 0
    assert m.ma[0, 0] == 1.0
    assert abs(m.sigma2 - 4.0) < 0.5


def test_fit_on_noise_finds_small_coefficients():
    rng = np.random.default_rng(1)
    f = Field2D(rng.normal(size=(7, 300)))
    m = arma2d_fit(f, (1, 1, 0, 0))
    assert np.all(np.abs(m.ar) < 0.1)
    assert abs(m.sigma2 - 1.0) < 0.1


def test_ar_coefficient_recovery_single_seed():
    truth = ar11_model(0.5, 0.3, -0.15, 0.01)
    f = simulate_field(truth, 7, 200, seed=1)
    m = arma2d_fit(f, (1, 1, 0, 0))
    assert abs(m.ar[0, 1] - 0.5) < 0.05
    assert abs(m.ar[1, 0] - 0.3) < 0.05
    assert abs(m.ar[1, 1] + 0.15) < 0.05
    assert 0.005 < m.sigma2 < 0.02
    assert m.ar[0, 0] == 0.0
    assert m.ma[0, 0] == 1.0


def test_estimation_error_shrinks_with_more_weeks():
    truth = ar11_model(0.5, 0.3, -0.15, 0.01)
    target = np.array([[0.0, 0.5], [0.3, -0.15]])

    def mean_error(weeks):
        errs = []
        for seed in range(6):
            f = simulate_field(truth, 7, weeks, seed=seed)
            m = arma2d_fit(f, (1, 1, 0, 0))
            errs.append(np.abs(m.ar - target).max())
        return np.mean(errs)

    e50, e800 = mean_error(50), mean_error(800)
    assert e800 < e50


def test_ma_coefficient_recovery():
    ma = np.array([[1.0, 0.6]])
    truth = Arma2dModel(np.zeros((1, 1)), ma, 0.04, (0, 0, 0, 1))
    f = simulate_field(truth, 7, 400, seed=5)
    m = arma2d_fit(f, (0, 0, 0, 1))
    # the truncated stage-1 AR biases the innovation estimates slightly
    assert abs(m.ma[0, 1] - 0.6) < 0.15


def test_fit_rejects_small_grids():
    f = Field2D(np.arange(10.0).reshape(1, 10))
    with pytest.raises(ValueError):
        arma2d_fit(f, (1, 0, 0, 0))
    with pytest.raises(ValueError), pytest.warns(DegenerateSolveWarning):
        arma2d_fit(Field2D(np.arange(4.0).reshape(2, 2)), (1, 1, 0, 0))
    with pytest.raises(ValueError):
        arma2d_fit(f, (0, -1, 0, 0))


def test_fit_skips_cells_whose_lags_fall_in_a_hole():
    rng = np.random.default_rng(7)
    valid = rng.uniform(size=(7, 12)) > 0.15
    f = Field2D(rng.normal(size=(7, 12)), valid)
    m = arma2d_fit(f, (1, 2, 0, 0))
    # oracle: the design built cell by cell, a row only where the cell and all its lags exist
    c = np.where(valid, f.values - f.values[valid].mean(), 0.0)
    offs = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    rows, targets = [], []
    for w in range(2, 12):
        for d in range(1, 7):
            if valid[d, w] and all(valid[d - i, w - j] for i, j in offs):
                rows.append([c[d - i, w - j] for i, j in offs])
                targets.append(c[d, w])
    coef = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)[0]
    np.testing.assert_allclose([-m.ar[i, j] for i, j in offs], coef, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("orders", [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, 0),
                                    (2, 2, 1, 1), (1, 2, 1, 0), (0, 8, 0, 0)])
def test_check_orders_raises_exactly_when_the_fit_does(orders):
    rng = np.random.default_rng(sum(orders))
    # the week grid of the forecast and the one-row field of the AR baseline
    for days_per_week in (7, 1):
        for n_days in range(1, 50):
            f = reshape_to_field(rng.normal(size=n_days), days_per_week)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateSolveWarning)
                    arma2d_fit(f, orders)
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    check_orders(n_days, orders, days_per_week)
            else:
                check_orders(n_days, orders, days_per_week)


def test_constant_field_degenerates_to_mean():
    f = Field2D(np.full((7, 20), 6.25))
    with pytest.warns(DegenerateSolveWarning):
        m = arma2d_fit(f, (1, 1, 0, 0))
    assert np.all(m.ar == 0.0)
    assert m.sigma2 == 0.0
    g = arma2d_forecast(m, f, 2)
    np.testing.assert_allclose(g.values, 6.25)


def test_pure_ar_fit_solves_its_design_once(monkeypatch):
    # stage 1 only estimates innovations, which a pure AR never reads
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    with pytest.warns(DegenerateSolveWarning) as record:
        m = arma2d_fit(Field2D(np.full((7, 20), 6.25)), (1, 2, 0, 0))
    assert len(calls) == 1 and len(record) == 1
    assert np.all(m.ar == 0.0) and m.sigma2 == 0.0


def test_fit_with_no_complete_interior_cell_is_rejected():
    # a partial second week leaves no cell whose lags are all present
    f = reshape_to_field(np.arange(8.0))
    with pytest.raises(ValueError, match="not enough interior cells"), \
            pytest.warns(DegenerateSolveWarning):
        arma2d_fit(f, (1, 1, 0, 0))


# --- forecasting ---------------------------------------------------------


def test_forecast_hand_enumerated_ar():
    # v[d,w] = 0.9 v[d,w-1] with the sign convention a_01 = -0.9
    m = Arma2dModel(np.array([[0.0, -0.9]]), np.ones((1, 1)), 0.0, (0, 1, 0, 0))
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(7, 3))
    vals -= vals.mean()
    f = Field2D(vals)
    g = arma2d_forecast(m, f, 2)
    assert g.values.shape == (7, 5)
    np.testing.assert_allclose(g.values[:, :3], vals)
    np.testing.assert_allclose(g.values[:, 3], 0.9 * vals[:, 2])
    np.testing.assert_allclose(g.values[:, 4], 0.81 * vals[:, 2])


def test_forecast_hand_enumerated_cross_lag():
    m = ar11_model(0.5, -0.5, 0.0, 0.0)
    f = Field2D(np.array([[1.0, 2.0], [3.0, 4.0]]))
    g = arma2d_forecast(m, f, 1)
    # mean 2.5; centered col 1 is [-0.5, 1.5]
    # d=0: -0.5 * -0.5 = 0.25 ; d=1: -0.5*1.5 + 0.5*0.25 = -0.625
    np.testing.assert_allclose(g.values[:, 2], [2.75, 1.875])
    np.testing.assert_allclose(g.values[:, :2], f.values)


def test_forecast_hand_enumerated_ma():
    m = Arma2dModel(np.zeros((1, 1)), np.array([[1.0, 0.8]]), 1.0, (0, 0, 0, 1))
    f = Field2D(np.array([[-1.0, 2.0, -1.0]]))
    # innovations: -1, 2.8, -3.24; future noise is zero
    g = arma2d_forecast(m, f, 2)
    np.testing.assert_allclose(g.values[0, 3:], [0.8 * -3.24, 0.0])


def test_forecast_hand_enumerated_arma_over_an_interior_gap():
    # v[w] = 0.5 v[w-1] + e[w] + 0.8 e[w-1]; week 1 is absent and the mean is 0
    m = Arma2dModel(np.array([[0.0, -0.5]]), np.array([[1.0, 0.8]]), 1.0, (0, 1, 0, 1))
    f = Field2D(np.array([[1.0, 0.0, 2.0, -3.0]]), np.array([[True, False, True, True]]))
    # e0 = 1; gap filled with 0.5*1 + 0.8*1 = 1.3; the next innovations use
    # the filled value: e2 = 2 - 0.5*1.3 = 1.35, e3 = -3 - (0.5*2 + 0.8*1.35) = -5.08
    g = arma2d_forecast(m, f, 1)
    np.testing.assert_allclose(g.values[0], [1.0, 1.3, 2.0, -3.0, 0.5 * -3.0 + 0.8 * -5.08])


def test_forecast_fills_absent_cells_and_keeps_observations():
    u = np.arange(16.0)
    f = reshape_to_field(u)
    m = ar11_model(0.5, 0.3, -0.15, 0.01)
    g = arma2d_forecast(m, f, 1)
    assert g.values.shape == (7, 4)
    assert g.valid.all()
    np.testing.assert_array_equal(field_to_vector(f), g.values.T.ravel()[:16])


def test_forecast_is_linear_in_the_field():
    m = ar11_model(0.4, -0.2, 0.1, 1.0)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(7, 12))
    g1 = arma2d_forecast(m, Field2D(vals), 3)
    g2 = arma2d_forecast(m, Field2D(2.5 * vals), 3)
    np.testing.assert_allclose(g2.values, 2.5 * g1.values, atol=1e-12)


def test_forecast_rejects_bad_horizon():
    m = ar11_model(0.5, 0.3, -0.15, 0.01)
    f = Field2D(np.ones((7, 4)) + np.eye(7, 4))
    with pytest.raises(ValueError):
        arma2d_forecast(m, f, 0)


def test_forecast_beats_zero_prediction_on_ar_field():
    truth = ar11_model(0.5, 0.3, -0.15, 0.01)
    wins = 0
    for seed in range(8):
        f = simulate_field(truth, 7, 120, seed=seed)
        head = Field2D(f.values[:, :100])
        m = arma2d_fit(head, (1, 1, 0, 0))
        g = arma2d_forecast(m, head, 20)
        future = f.values[:, 100:]
        err_model = np.linalg.norm(g.values[:, 100:] - future)
        err_zero = np.linalg.norm(future - head.values.mean())
        wins += err_model < err_zero
    assert wins >= 6


# --- simulation ----------------------------------------------------------


def test_simulate_is_seed_deterministic():
    m = ar11_model(0.5, 0.3, -0.15, 0.01)
    a = simulate_field(m, 7, 30, seed=9)
    b = simulate_field(m, 7, 30, seed=9)
    c = simulate_field(m, 7, 30, seed=10)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_simulated_variance_tracks_sigma2():
    m = Arma2dModel(np.zeros((1, 1)), np.ones((1, 1)), 0.25, (0, 0, 0, 0))
    f = simulate_field(m, 7, 500, seed=11)
    assert abs(f.values.var() - 0.25) < 0.03
