"""Tests for alternating-least-squares CP fitting and rank selection."""

import warnings

import numpy as np
import pytest

from flowcast.cp import AlsConfig, CpModel, cp_fit, cp_rank_select, cp_solve_mode
from flowcast.tensor_ops import DegenerateSolveWarning, cp_reconstruct, relative_residual


def random_model(rng, shape, rank, weight_range=(0.5, 2.0)):
    factors = []
    for n in shape:
        f = rng.normal(size=(n, rank))
        f /= np.linalg.norm(f, axis=0)
        factors.append(f)
    weights = np.sort(rng.uniform(*weight_range, size=rank))[::-1]
    return CpModel(weights, factors)


def solve_mode_by_normal_equations(t, factors, mode):
    """Independent oracle: accumulate the normal equations cell-by-cell via einsum,
    bypassing unfolding and Khatri-Rao conventions entirely."""
    letters = "abcd"[: t.ndim]
    spec = (
        letters
        + ","
        + ",".join(letters[k] + "z" for k in range(t.ndim) if k != mode)
        + "->"
        + letters[mode]
        + "z"
    )
    others = [factors[k] for k in range(t.ndim) if k != mode]
    rhs = np.einsum(spec, t, *others)
    g = np.ones((factors[0].shape[1],) * 2)
    for k, f in enumerate(factors):
        if k != mode:
            g = g * (f.T @ f)
    return rhs @ np.linalg.pinv(g, rcond=1e-12)


def test_exact_rank2_recovery():
    rng = np.random.default_rng(10)
    truth = random_model(rng, (8, 9, 7), 2)
    t = cp_reconstruct(truth)
    model, history = cp_fit(t, AlsConfig(rank=2, seed=1))
    assert history[-1] < 1e-8
    assert relative_residual(cp_reconstruct(model), t) < 1e-8
    # an all-true mask takes the masked branch and changes no bit of the fit
    masked, masked_history = cp_fit(t, AlsConfig(rank=2, seed=1), np.ones(t.shape, dtype=bool))
    assert masked_history == history
    for got, want in zip([masked.weights, *masked.factors], [model.weights, *model.factors]):
        assert np.array_equal(got, want)


def test_all_zero_tensor():
    model, history = cp_fit(np.zeros((3, 3, 3)), AlsConfig(rank=2, max_iters=5))
    assert all(h == 0.0 for h in history)
    np.testing.assert_array_equal(model.weights, np.zeros(2))


def test_rank_one_weight_recovery():
    rng = np.random.default_rng(11)
    truth = random_model(rng, (4, 5, 6), 1, weight_range=(5.0, 5.0))
    t = cp_reconstruct(truth)
    model, _ = cp_fit(t, AlsConfig(rank=1, seed=2))
    assert model.weights[0] == pytest.approx(5.0, abs=1e-10)


def test_fit_history_monotone():
    rng = np.random.default_rng(12)
    t = rng.uniform(0.0, 1.0, size=(6, 5, 4))
    _, history = cp_fit(t, AlsConfig(rank=3, max_iters=60, seed=3))
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12)


def test_fit_normalization_and_weight_order():
    rng = np.random.default_rng(13)
    t = rng.uniform(0.0, 1.0, size=(5, 6, 4))
    model, _ = cp_fit(t, AlsConfig(rank=3, max_iters=40, seed=4))
    norms = [np.linalg.norm(f, axis=0) for f in model.factors]
    for n in norms:
        np.testing.assert_allclose(n, 1.0, atol=1e-9)
    assert np.all(np.diff(model.weights) <= 0)


def test_exact_recovery_sweep_of_shapes():
    rng = np.random.default_rng(14)
    for shape, rank in [((20, 20, 20), 5), ((12, 7, 9), 3)]:
        truth = random_model(rng, shape, rank)
        t = cp_reconstruct(truth)
        model, _ = cp_fit(t, AlsConfig(rank=rank, seed=5))
        assert relative_residual(cp_reconstruct(model), t) < 1e-6


def test_solve_mode_recovers_perturbed_factor():
    rng = np.random.default_rng(15)
    truth = random_model(rng, (6, 5, 7), 3)
    t = cp_reconstruct(truth)
    perturbed = CpModel(
        truth.weights,
        [truth.factors[0] + rng.normal(scale=0.5, size=truth.factors[0].shape)]
        + [f.copy() for f in truth.factors[1:]],
    )
    solved = cp_solve_mode(t, perturbed, 0)
    expected = truth.factors[0] * truth.weights
    np.testing.assert_allclose(solved, expected, atol=1e-8)
    oracle = solve_mode_by_normal_equations(t, perturbed.factors, 0)
    np.testing.assert_allclose(solved, oracle, atol=1e-10)


def test_solve_mode_matches_oracle_all_modes():
    rng = np.random.default_rng(16)
    t = rng.normal(size=(5, 4, 6))
    model = random_model(rng, (5, 4, 6), 3)
    for mode in range(3):
        got = cp_solve_mode(t, model, mode)
        want = solve_mode_by_normal_equations(t, model.factors, mode)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_solve_mode_selection_identity():
    rng = np.random.default_rng(17)
    t = rng.normal(size=(4, 3, 5))
    factors = [np.zeros((4, 1)), np.eye(3, 1), np.eye(5, 1)]
    model = CpModel(np.ones(1), factors)
    solved = cp_solve_mode(t, model, 0)
    np.testing.assert_allclose(solved[:, 0], t[:, 0, 0], atol=1e-12)


def test_singular_gram_warns_in_solve_mode_but_not_in_fit():
    rng = np.random.default_rng(21)
    t = rng.normal(size=(4, 3, 5))
    # repeated columns in both fixed factors make the mode-0 Gram singular
    repeated = [np.repeat(rng.normal(size=(n, 1)), 2, axis=1) for n in (3, 5)]
    model = CpModel(np.ones(2), [rng.normal(size=(4, 2)), *repeated])
    with pytest.warns(DegenerateSolveWarning) as record:
        cp_solve_mode(t, model, 0)
    assert record[0].filename == __file__
    # ALS on a zero tensor zeroes its factors, so every later Gram is singular
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateSolveWarning)
        cp_fit(np.zeros((3, 3, 3)), AlsConfig(rank=2, max_iters=5))


def test_solve_mode_shape_mismatch():
    rng = np.random.default_rng(18)
    t = rng.normal(size=(4, 3, 5))
    model = random_model(rng, (4, 3, 4), 2)
    with pytest.raises(ValueError):
        cp_solve_mode(t, model, 0)


def test_rank_infeasible():
    with pytest.raises(ValueError):
        cp_fit(np.ones((2, 2, 2)), AlsConfig(rank=5))


def test_non_finite_input():
    t = np.ones((3, 3, 3))
    t[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        cp_fit(t, AlsConfig(rank=1))


def test_rank_select_finds_true_rank():
    rng = np.random.default_rng(19)
    truth = random_model(rng, (8, 8, 8), 3)
    t = cp_reconstruct(truth)
    # oracle sanity: holdout RES at the true rank is near zero by construction
    picked = cp_rank_select(t, [1, 3, 6], 0.15, AlsConfig(rank=1, max_iters=150, seed=6))
    assert picked == 3


def test_rank_select_singleton():
    rng = np.random.default_rng(20)
    t = rng.uniform(size=(4, 4, 4))
    assert cp_rank_select(t, [2], 0.2, AlsConfig(rank=2, max_iters=20, seed=7)) == 2


def test_rank_select_bad_fraction():
    with pytest.raises(ValueError):
        cp_rank_select(np.ones((3, 3, 3)), [1, 2], 0.6, AlsConfig(rank=1))


def test_rank_select_empty_candidates():
    with pytest.raises(ValueError):
        cp_rank_select(np.ones((3, 3, 3)), [], 0.2, AlsConfig(rank=1))
