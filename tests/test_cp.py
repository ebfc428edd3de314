"""Tests for alternating-least-squares CP fitting and rank selection."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from flowcast import cp, tensor_ops
from flowcast.cp import AlsConfig, CpModel, _solve_mode, cp_fit, cp_rank_select, cp_solve_mode
from flowcast.pipeline import ForecastPlan, lean_update, two_step_forecast
from flowcast.synthetic import SyntheticSpec, generate_synthetic
from flowcast.tensor_ops import (DegenerateSolveWarning, cp_reconstruct, khatri_rao_all,
                                 relative_residual, unfold)


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


def dense_error(t, factors):
    """Independent oracle: the residual norm of raw 3-way factors, by their dense product."""
    return np.linalg.norm(t - np.einsum("az,bz,cz->abc", *factors))


def normal_form(factors):
    """Weights and unit-norm factors of raw ones, sorted as ``cp_fit`` returns them."""
    norms = [np.linalg.norm(f, axis=0) for f in factors]
    weights = np.prod(norms, axis=0)
    order = np.argsort(-weights, kind="stable")
    return weights[order], [(f / n)[:, order] for f, n in zip(factors, norms)]


def recorded_line_search(monkeypatch, outcomes=None):
    """Replace ``cp._line_search`` by a wrapper that appends each trial's outcome, True
    where the trial was kept, to ``outcomes`` (a new list if None), and return that list."""
    outcomes, search = [] if outcomes is None else outcomes, cp._line_search

    def recording(*args):
        err2, kept = search(*args)
        outcomes.append(kept is not None)
        return err2, kept

    monkeypatch.setattr(cp, "_line_search", recording)
    return outcomes


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


@pytest.mark.parametrize("shape", [(6, 5, 4), (5, 4, 3, 4)])
@pytest.mark.parametrize("masked", [False, True])
def test_history_ends_at_the_returned_models_residual(shape, masked):
    rng = np.random.default_rng(22)
    t = rng.uniform(0.0, 1.0, size=shape)
    mask = rng.uniform(size=shape) > 0.3 if masked else None
    model, history = cp_fit(t, AlsConfig(rank=3, max_iters=30, seed=8), mask)
    assert abs(history[-1] - relative_residual(cp_reconstruct(model), t, mask)) < 1e-12


def test_exact_recovery_error_reaches_below_sqrt_eps_without_rising():
    # an error from ||X||^2 - 2<X, M> + ||M||^2 cancels to about 1e-8 here and stops early
    rng = np.random.default_rng(10)
    t = cp_reconstruct(random_model(rng, (8, 9, 7), 2))
    model, history = cp_fit(t, AlsConfig(rank=2, tol=1e-12, seed=1))
    assert history[-1] < 1e-10
    assert abs(history[-1] - relative_residual(cp_reconstruct(model), t)) < 1e-12
    assert np.all(np.diff(history) <= 1e-12)


@pytest.mark.parametrize("shape, noise", [((7, 6, 5), 0.05), ((5, 4, 3, 4), 0.05),
                                          ((8, 9, 7, 5), 0.0)])
def test_every_sweeps_error_is_the_models_residual(shape, noise):
    # the Gram identity gives these errors, the exact product those near a perfect
    # fit; each sweep's must match its model's, across every error level. tol 1e-8
    # gives the noisy fits, which the line search shortens, ten sweeps or more
    rng = np.random.default_rng(24)
    t = cp_reconstruct(random_model(rng, shape, 3)) + noise * rng.normal(size=shape)
    cfg = AlsConfig(rank=3, max_iters=25, tol=1e-8, seed=9)
    _, full = cp_fit(t, cfg)
    assert len(full) >= 10
    for k in range(1, len(full) + 1):
        model, history = cp_fit(t, replace(cfg, max_iters=k))
        assert history == full[:k]
        assert abs(history[-1] - relative_residual(cp_reconstruct(model), t)) < 1e-12


def test_factors_match_a_plain_als_loop():
    # the same factors as ALS on raw factors with the same line search: from sweep
    # STEP_START on, the step along the sweep's change is kept where its dense residual
    # is lower; the Gram identity never decides otherwise
    rng = np.random.default_rng(25)
    shape, rank = (6, 5, 4), 3
    t = rng.uniform(0.0, 1.0, size=shape)
    init = np.random.default_rng(10)  # cp_fit's own draw for seed 10
    factors = [init.uniform(-1.0, 1.0, size=(n, rank)) for n in shape]
    kept = 0
    for sweep in range(1, 21):
        prev = list(factors)
        for mode in range(len(shape)):
            factors[mode] = solve_mode_by_normal_equations(t, factors, mode)
        if sweep >= cp.STEP_START:
            step = sweep ** (1 / cp.STEP_ROOT)
            trial = [p + step * (f - p) for p, f in zip(prev, factors)]
            if dense_error(t, trial) < dense_error(t, factors):
                factors, kept = trial, kept + 1
    assert 0 < kept < 21 - cp.STEP_START  # both outcomes are taken
    model, history = cp_fit(t, AlsConfig(rank=rank, max_iters=20, tol=1e-300, seed=10))
    assert len(history) == 20
    weights, factors = normal_form(factors)
    np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-12)
    for got, want in zip(model.factors, factors):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_a_masked_fit_takes_plain_sweeps(monkeypatch):
    # re-imputation moves the filled-in tensor every sweep, so no step is tried: the
    # factors are those of a plain EM-style masked ALS loop
    def refuse(*args):
        raise AssertionError("a masked fit tried a line-search step")

    monkeypatch.setattr(cp, "_line_search", refuse)
    rng = np.random.default_rng(34)
    shape, rank = (6, 5, 4), 3
    t = rng.uniform(0.0, 1.0, size=shape)
    mask = rng.uniform(size=shape) > 0.3
    init = np.random.default_rng(11)  # cp_fit's own draw for seed 11
    factors = [init.uniform(-1.0, 1.0, size=(n, rank)) for n in shape]
    x = np.where(mask, t, t[mask].mean())
    for _ in range(20):
        for mode in range(len(shape)):
            factors[mode] = solve_mode_by_normal_equations(x, factors, mode)
        x = np.where(mask, t, np.einsum("az,bz,cz->abc", *factors))
    model, history = cp_fit(t, AlsConfig(rank=rank, max_iters=20, tol=1e-300, seed=11), mask)
    assert len(history) == 20
    weights, factors = normal_form(factors)
    np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-12)
    for got, want in zip(model.factors, factors):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(7, 6, 5), (5, 4, 3, 4)])
def test_the_line_search_keeps_only_a_lower_error(monkeypatch, shape):
    # each sweep from STEP_START on tries a step and keeps it only if the error falls:
    # the history never rises, and each entry is the residual of the model kept
    outcomes = recorded_line_search(monkeypatch)
    rng = np.random.default_rng(24)
    t = cp_reconstruct(random_model(rng, shape, 3)) + 0.05 * rng.normal(size=shape)
    cfg = AlsConfig(rank=3, max_iters=40, tol=1e-300, seed=9)
    _, full = cp_fit(t, cfg)
    assert len(full) > 20 and len(outcomes) == len(full) + 1 - cp.STEP_START
    assert any(outcomes) and not all(outcomes)
    assert np.all(np.diff(full) <= 1e-12)
    for k in range(cp.STEP_START - 1, len(full) + 1):
        model, history = cp_fit(t, replace(cfg, max_iters=k))
        assert history == full[:k]
        assert abs(history[-1] - relative_residual(cp_reconstruct(model), t)) < 1e-12


@pytest.mark.parametrize("scale", [2.0, 1e300], ids=["floor", "overflow"])
def test_a_trial_at_the_floor_or_not_finite_is_not_kept(scale):
    # at or below GRAM_ERR_FLOOR the Gram identity scores round-off noise, so a trial
    # that lands there (a step of 2 lands on the exact factors) is not kept on that
    # score; nor is one whose Grams overflow, and no floating-point warning is raised
    rng = np.random.default_rng(36)
    exact = random_model(rng, (5, 4, 3), 2)
    t = cp_reconstruct(exact)
    target = [exact.factors[0] * exact.weights, *exact.factors[1:]]
    drift = [0.1 * rng.normal(size=f.shape) for f in target]
    prev = [f + d for f, d in zip(target, drift)]
    cur = [f + 0.5 * d for f, d in zip(target, drift)]
    factors, grams = list(cur), [f.T @ f for f in cur]
    (mode, step), *_ = tensor_ops._tree_steps(t, factors, tensor_ops._split(t.shape))
    first = (mode, step, tensor_ops._picker((1, 2)))
    sq_norm, err2 = float(np.sum(t**2)), dense_error(t, cur) ** 2
    assert err2 > cp.GRAM_ERR_FLOOR * sq_norm and dense_error(t, target) ** 2 < 1e-20
    assert cp._line_search(factors, grams, prev, first, sq_norm, err2, scale) == (err2, None)
    assert all(f is c for f, c in zip(factors, cur))


def test_a_kept_trial_spares_the_next_sweeps_first_step(monkeypatch):
    # a kept trial's mode-0 MTTKRP is the one the next sweep starts from, so that sweep
    # takes no first step of its own; after a rejected trial it takes one
    events, tree_steps = [], cp._tree_steps

    def counting(*args):
        steps = tree_steps(*args)
        (mode, first), rest = steps[0], steps[1:]

        def logged():
            events.append("step")
            return first()
        return [(mode, logged), *rest]

    monkeypatch.setattr(cp, "_tree_steps", counting)
    recorded_line_search(monkeypatch, events)
    shape = (5, 4, 3, 4)
    t = np.random.default_rng(35).normal(size=shape)
    _, history = cp_fit(t, AlsConfig(rank=3, max_iters=20, tol=1e-300))
    outcomes = [e for e in events if e != "step"]
    want, spared = [], False
    for outcome in [None] * (cp.STEP_START - 1) + outcomes:
        want += [] if spared else ["step"]
        want += [] if outcome is None else ["step", outcome]
        spared = outcome is True
    assert len(history) == 20 and True in outcomes[:-1] and False in outcomes
    assert events == want


def stop_inputs():
    rng = np.random.default_rng(26)
    exact = cp_reconstruct(random_model(rng, (7, 6, 5), 2))
    noisy = exact + 0.05 * rng.normal(size=exact.shape)
    mask = rng.random(exact.shape) > 0.3
    return [(exact, None, 2), (noisy, None, 2), (noisy, mask, 3)]


@pytest.mark.parametrize("case", range(3), ids=["exact", "noisy", "masked"])
def test_fit_stops_at_the_first_sweep_the_relative_rule_settles(case):
    # the fit stops at the first sweep whose error moved by under max(tol * |previous|,
    # eps); at tol 1e-300 only the round-off floor can stop it
    t, mask, rank = stop_inputs()[case]
    budget = 400
    _, full = cp_fit(t, AlsConfig(rank=rank, max_iters=budget, tol=1e-300, seed=4), mask)
    assert max(full) <= 1.0
    eps = np.finfo(float).eps
    for tol in (1e-3, 1e-6, 1e-9):
        fired = [i for i in range(1, len(full))
                 if abs(full[i - 1] - full[i]) < max(tol * abs(full[i - 1]), eps)]
        assert fired or len(full) == budget
        _, history = cp_fit(t, AlsConfig(rank=rank, max_iters=budget, tol=tol, seed=4), mask)
        assert len(history) == (fired[0] + 1 if fired else budget)
        assert history == full[:len(history)]
        assert history.converged == bool(fired)


def exact_inputs():
    # each exact tensor with the seed its own test fits it from
    rng = np.random.default_rng(10)
    return [(stop_inputs()[0][0], 4), (cp_reconstruct(random_model(rng, (8, 9, 7), 2)), 1)]


@pytest.mark.parametrize("case", range(2), ids=["stop", "recovery"])
def test_an_exact_fit_converges_on_the_round_off_floor(case):
    # the error falls geometrically to round-off, where only the eps floor can settle it
    t, seed = exact_inputs()[case]
    _, history = cp_fit(t, AlsConfig(rank=2, seed=seed))
    assert history.converged and len(history) < 200
    assert history[-1] < 1e-10


def test_an_all_zero_tensor_converges_at_the_second_sweep():
    _, history = cp_fit(np.zeros((3, 3, 3)), AlsConfig(rank=2))
    assert history == [0.0, 0.0] and history.converged


def test_history_keeps_the_list_contract():
    # what a caller reads from a history: its length, its last error, its entries
    t = np.random.default_rng(27).uniform(size=(5, 4, 3))
    history = cp_fit(t, AlsConfig(rank=2, max_iters=7, tol=1e-300))[1]
    assert len(history) == 7 and isinstance(history, list)
    assert float(history[-1]) == history[6]
    assert history == list(history) and not history.converged


def test_history_says_whether_the_fit_converged():
    rng = np.random.default_rng(10)
    t = cp_reconstruct(random_model(rng, (8, 9, 7), 2))
    _, history = cp_fit(t, AlsConfig(rank=2, seed=1))
    assert history.converged and len(history) < 500
    # a rank-6 fit of a synthetic week tensor settles before its 500 sweeps at the
    # default tol, and still moves by more than round-off after them at tol 1e-300
    t, _ = generate_synthetic(SyntheticSpec(extents=(12, 49, 48), seed=0))
    _, history = cp_fit(t, AlsConfig(rank=6))
    assert history.converged and len(history) < 500
    _, history = cp_fit(t, AlsConfig(rank=6, tol=1e-300))
    assert len(history) == 500 and not history.converged


def test_fit_never_forms_the_dense_reconstruction(monkeypatch):
    def refuse(model):
        raise AssertionError("cp_fit called cp_reconstruct")

    monkeypatch.setattr("flowcast.cp.cp_reconstruct", refuse)
    t = np.random.default_rng(23).uniform(size=(5, 6, 4))
    model, history = cp_fit(t, AlsConfig(rank=2, max_iters=10))
    assert len(history) == 10 and model.rank == 2


@pytest.mark.parametrize("shape, split", [
    ((7, 5), 1), ((20, 4, 3), 1), ((3, 4, 20), 2),
    ((60, 49, 48), 1), ((300, 49, 48), 1), ((12, 55, 48), 2),
    ((30, 3, 2, 2), 1), ((2, 3, 4, 5), 2), ((2, 2, 3, 30), 3),
    ((9, 2, 2, 2, 2), 1), ((5, 2, 2, 2, 2), 2), ((2, 2, 2, 3, 7), 3), ((2, 2, 2, 2, 9), 4),
])
def test_tree_mttkrp_matches_the_unfolding_product(shape, split):
    # each half's product with the other half's Khatri-Rao matrix, finished
    # inside the half, is every mode's MTTKRP, yielded in mode order
    assert tensor_ops._split(shape) == split
    rng = np.random.default_rng(26)
    t = rng.normal(size=shape)
    factors = [rng.normal(size=(n, 3)) for n in shape]
    modes = []
    for mode, step in tensor_ops._tree_steps(t, factors, split):
        got = step()
        want = unfold(t, mode) @ khatri_rao_all(factors, mode)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        modes.append(mode)
    assert modes == list(range(len(shape)))


def test_tree_plans_are_kept_apart_by_extents_and_split():
    # one process, alternating orders, extents and splits: steps that kept another
    # tensor's extents would finish some mode with the wrong shape
    cases = [((7, 5), 1), ((5, 7), 1), ((2, 3, 4, 5), 2), ((4, 6, 3), 1), ((2, 3, 4, 5), 1),
             ((6, 4, 3), 2), ((3, 2, 5, 4), 2), ((2, 3, 4, 5), 3), ((4, 6, 3), 2)]
    rng = np.random.default_rng(33)
    for shape, split in cases + cases[::-1] + cases:
        t = rng.normal(size=shape)
        factors = [rng.normal(size=(n, 3)) for n in shape]
        modes = []
        for mode, step in tensor_ops._tree_steps(t, factors, split):
            got = step()
            want = unfold(t, mode) @ khatri_rao_all(factors, mode)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (shape, split)
            modes.append(mode)
        assert modes == list(range(len(shape)))


@pytest.mark.parametrize("shape", [(12, 55, 48), (20, 4, 3), (3, 4, 20)])
def test_a_three_way_sweep_builds_three_khatri_rao_matrices(monkeypatch, shape):
    # one for the half of two modes against the other's factor, one to finish each of
    # that half's modes; a one-mode half's matrix is its factor, built by no call. A
    # trial's mode-0 step builds one more (the other half's two factors at split 1, the
    # rest of its own half at split 2), which a kept trial spares the next sweep
    calls = []
    counted = tensor_ops.khatri_rao_all

    def counting(factors, skip=None):
        calls.append(len(factors))
        return counted(factors, skip)

    monkeypatch.setattr(tensor_ops, "khatri_rao_all", counting)
    outcomes = recorded_line_search(monkeypatch)
    t = np.random.default_rng(31).normal(size=shape)  # noise: the Gram identity holds
    _, history = cp_fit(t, AlsConfig(rank=2, max_iters=12, tol=1e-300))
    assert len(history) == 12 and True in outcomes[:-1] and False in outcomes
    # each rejected trial's first step is taken again; a last kept trial spares no sweep
    extra = outcomes.count(False) + outcomes[-1]
    first = 3 - tensor_ops._split(shape)
    assert sorted(calls) == sorted([1, 1, 2] * 12 + [first] * extra)


@pytest.mark.parametrize("rank", [1, 64])
@pytest.mark.parametrize("shape", [(7, 5), (12, 55, 48), (20, 4, 3), (2, 3, 4, 5),
                                   (5, 2, 2, 2, 2), (9, 2, 2, 2, 2)])
def test_tree_mttkrp_matches_on_strided_factors_at_any_rank(shape, rank):
    # rank 64 is lrtc_fit's flattened R^2 at max_rank 8; the factors are transposed,
    # non-contiguous views, and halves of three or more modes take the einsum finish
    rng = np.random.default_rng(29)
    t = rng.normal(size=shape)
    factors = [rng.normal(size=(rank, 2 * n))[:, ::2].T for n in shape]
    assert not any(f.flags.c_contiguous or f.flags.f_contiguous for f in factors)
    modes = []
    for mode, step in tensor_ops._tree_steps(t, factors, tensor_ops._split(shape)):
        got = step()
        want = unfold(t, mode) @ khatri_rao_all(factors, mode)
        assert got.shape == (shape[mode], rank)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        modes.append(mode)
    assert modes == list(range(len(shape)))


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_fit_of_a_scaled_tensor_scales_only_the_weights(scale):
    # the sweeps keep the raw factors and normalise once at the end: scaling the
    # tensor by c must neither overflow nor underflow, and scales the weights by c
    t = np.random.default_rng(30).uniform(0.0, 1.0, size=(7, 6, 5))
    cfg = AlsConfig(rank=3, max_iters=40, tol=1e-300, seed=5)
    model, history = cp_fit(t, cfg)
    scaled, scaled_history = cp_fit(scale * t, cfg)
    assert all(np.all(np.isfinite(a)) for a in [scaled.weights, *scaled.factors, scaled_history])
    np.testing.assert_allclose(scaled.weights, scale * model.weights, rtol=1e-10, atol=0)
    for got, want in zip(scaled.factors, model.factors):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
    np.testing.assert_allclose(scaled_history, history, rtol=1e-10, atol=0)


def test_fit_copies_no_unfolding(monkeypatch):
    def refuse(*args):
        raise AssertionError("cp_fit unfolded the tensor")

    for name in ("flowcast.cp.unfold", "flowcast.tensor_ops.unfold", "flowcast.tensor_ops.fold"):
        monkeypatch.setattr(name, refuse)
    rng = np.random.default_rng(27)
    # an exact rank-2 tensor also takes the exact-error product near a perfect fit
    t = cp_reconstruct(random_model(rng, (5, 6, 4), 2))
    mask = rng.uniform(size=t.shape) > 0.2
    cfg = AlsConfig(rank=2, max_iters=60, tol=1e-300)
    assert cp_fit(t, cfg)[1][-1] < cp.GRAM_ERR_FLOOR
    assert len(cp_fit(t, cfg, mask)[1]) == 60


def test_fit_and_updates_never_fall_back_to_pinv(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a well-conditioned solve fell back to pinv")

    monkeypatch.setattr("numpy.linalg.pinv", refuse)
    t, _ = generate_synthetic(SyntheticSpec(extents=(30, 50, 48), seed=0))
    prediction = two_step_forecast(t[:, :49], ForecastPlan(1, rank=6, arma_orders=(1, 2, 0, 0)))
    slots = np.arange(48)
    for n_obs in range(1, 48):
        lean_update(prediction, t[:, 49], slots < n_obs, prediction.source_model)


def test_fit_memory_stays_under_twice_the_tensor():
    t = np.random.default_rng(28).uniform(size=(60, 49, 48))
    cfg = AlsConfig(rank=6, max_iters=5)
    cp_fit(t, cfg)  # first-call allocations are not the fit's own
    tracemalloc.start()
    try:
        cp_fit(t, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * t.nbytes


@pytest.mark.parametrize("shape", [(12, 56, 48), (60, 50, 48)])
def test_fit_of_a_sliced_history_copies_it_at_most_once(shape):
    # the short-term path fits observed[:, :-1]: at 12 x 55 x 48 (split 2) its C-order
    # view is a copy, and ||X|| is read from that copy, not from a second flattening;
    # at 60 x 49 x 48 (split 1) the view is no copy and the norm makes the one
    t = np.random.default_rng(30).uniform(size=shape)
    history = t[:, :-1]
    cfg = AlsConfig(rank=2, max_iters=2)
    cp_fit(history, cfg)  # first-call allocations are not the fit's own
    tracemalloc.start()
    try:
        cp_fit(history, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * history.nbytes


def test_norm_of_a_strided_history_takes_no_copy():
    # at 60 x 49 x 48 (split 1) the C-order view of t[:, :-1] is no copy: ||X|| is summed
    # from it in place, and the finiteness check makes no mask of it
    t = np.random.default_rng(30).uniform(size=(60, 50, 48))
    history = t[:, :-1]
    cfg = AlsConfig(rank=2, max_iters=2)
    cp_fit(history, cfg)  # first-call allocations are not the fit's own
    tracemalloc.start()
    try:
        cp_fit(history, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * history.nbytes


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


def conditioned_gram(rng, rank, cond):
    q, _ = np.linalg.qr(rng.normal(size=(rank, rank)))
    g = (q * np.logspace(0, -np.log10(cond), rank)) @ q.T
    return (g + g.T) / 2


def pinv_solve(mttkrp, g):
    return mttkrp @ np.linalg.pinv(g, rcond=1e-12)


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6, 1e8])
def test_solve_mode_matches_pinv_on_well_conditioned_grams(cond):
    # two backward-stable solves agree to what the Gram's condition allows:
    # 1e-12 relative up to cond 1e2, about 1e-8 at cond 1e8
    rng = np.random.default_rng(29)
    for rank in range(1, 11):
        for _ in range(5):
            g, mttkrp = conditioned_gram(rng, rank, cond), rng.normal(size=(30, rank))
            got, want = _solve_mode(mttkrp, g), pinv_solve(mttkrp, g)
            tol = 4 * rank * np.finfo(float).eps * np.linalg.cond(g)
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
            assert got.flags.c_contiguous


@pytest.mark.parametrize("rank", [1, 2, 6, 8])
def test_solve_mode_is_the_cholesky_solve_bit_for_bit(rank):
    rng = np.random.default_rng(rank)
    g, mttkrp = conditioned_gram(rng, rank, 1e3), rng.normal(size=(30, rank))
    c, info = dpotrf(g)
    assert info == 0
    got = _solve_mode(mttkrp, g)
    assert np.array_equal(got, dpotrs(c, mttkrp.T)[0].T) and got.flags.c_contiguous


def degenerate_grams():
    rng = np.random.default_rng(30)
    repeated = [np.repeat(rng.normal(size=(n, 1)), 2, axis=1) for n in (3, 5)]
    yield "repeated columns", (repeated[0].T @ repeated[0]) * (repeated[1].T @ repeated[1])
    yield "all zero", np.zeros((3, 3))
    # update_location_factor's Gram for a temporal row with a zero entry
    row, u_p = np.array([[0.7, 0.0, 1.3]]), rng.normal(size=(48, 3))
    yield "temporal row with a zero", (row.T @ row) * (u_p.T @ u_p)
    # Cholesky succeeds, and its pivots lie within PINV_RCOND of each other,
    # but pinv truncates the smallest singular value
    g = conditioned_gram(np.random.default_rng(0), 6, 1e13)
    c, info = dpotrf(g)
    pivots = np.diag(c) ** 2
    assert info == 0 and pivots.min() > cp.PINV_RCOND * pivots.max()
    assert np.linalg.matrix_rank(g, tol=cp.PINV_RCOND * np.linalg.norm(g, 2)) == 5
    yield "cond 1e13", g
    # Cholesky succeeds and pinv truncates nothing, but the condition estimate is
    # within the 100x margin of PINV_RCOND
    g = conditioned_gram(np.random.default_rng(1), 6, 3e10)
    c, info = dpotrf(g)
    rcond, _ = dpocon(c, np.abs(g).sum(axis=0).max())
    assert info == 0 and cp.PINV_RCOND < rcond <= 100 * cp.PINV_RCOND
    assert np.linalg.matrix_rank(g, tol=cp.PINV_RCOND * np.linalg.norm(g, 2)) == 6
    yield "rcond under 1e-10", g


@pytest.mark.parametrize("name, g", list(degenerate_grams()))
def test_solve_mode_is_pinv_on_degenerate_grams(name, g):
    mttkrp = np.random.default_rng(31).normal(size=(20, g.shape[0]))
    got = _solve_mode(mttkrp, g)
    assert np.array_equal(got, pinv_solve(mttkrp, g))
    assert got.flags.c_contiguous


def test_solve_mode_shape_mismatch():
    rng = np.random.default_rng(18)
    t = rng.normal(size=(4, 3, 5))
    model = random_model(rng, (4, 3, 4), 2)
    with pytest.raises(ValueError):
        cp_solve_mode(t, model, 0)
    with pytest.raises(ValueError, match="mode 3 out of range"):
        cp_solve_mode(t, random_model(rng, (4, 3, 5), 2), 3)
    model = random_model(rng, (4, 3, 5), 2)
    with pytest.raises(ValueError, match="^mode must be a whole number, got 1.5"):
        cp_solve_mode(t, model, 1.5)
    np.testing.assert_array_equal(cp_solve_mode(t, model, 1.0), cp_solve_mode(t, model, 1))
    with pytest.raises(ValueError, match="model order"):
        cp_solve_mode(t, random_model(rng, (4, 3), 2), 0)


def test_model_rejects_ranks_that_disagree():
    with pytest.raises(ValueError, match="share one rank"):
        CpModel(np.ones(2), [np.ones((3, 2)), np.ones((4, 3))])


@pytest.mark.parametrize("field, value", [("rank", 0), ("rank", 2.5), ("max_iters", 0),
                                          ("max_iters", 1.5), ("seed", 1.5), ("seed", -1),
                                          ("seed", "3")])
def test_config_rejects_counts_that_are_not_whole_and_positive(field, value):
    with pytest.raises(ValueError, match=field):
        AlsConfig(**{"rank": 1, field: value})


def test_a_whole_float_seed_is_read_as_an_int():
    t = np.random.default_rng(31).uniform(size=(5, 4, 3))
    cfg = AlsConfig(rank=2, max_iters=5, seed=2.0)
    assert type(cfg.seed) is int and cfg.seed == 2
    model, _ = cp_fit(t, cfg)
    want, _ = cp_fit(t, AlsConfig(rank=2, max_iters=5, seed=2))
    np.testing.assert_array_equal(model.weights, want.weights)


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.inf, np.nan])
def test_config_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        AlsConfig(rank=1, tol=tol)


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
    with pytest.raises(ValueError, match="candidate_ranks must be a whole number"):
        cp_rank_select(np.ones((3, 3, 3)), [1.5], 0.2, AlsConfig(rank=1))
