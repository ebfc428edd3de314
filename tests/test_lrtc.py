"""Tests for Bayesian tensor completion.

Ground truths are CP models constructed in the tests; held-out accuracy is
measured on cells the fit never saw.  The ELBO trace is asserted to be
non-decreasing, which is the coordinate-ascent contract.
"""

import tracemalloc

import numpy as np
import pytest

from flowcast import lrtc, tensor_ops
from flowcast.cp import CpModel
from flowcast.lrtc import (
    CompletionResult,
    LrtcHyperParams,
    LrtcPosterior,
    lrtc_fit,
    lrtc_predict,
    short_term_predict,
)
from flowcast.tensor_ops import cp_reconstruct, relative_residual


def rank2_scenario(seed=0, noise=0.0, extent=15, observed=0.7):
    rng = np.random.default_rng(seed)
    factors = [rng.normal(size=(extent, 2)) for _ in range(3)]
    factors = [f / np.linalg.norm(f, axis=0) for f in factors]
    truth = cp_reconstruct(CpModel(np.array([3.0, 2.0]), factors))
    rms = np.sqrt((truth**2).mean())
    y = truth + noise * rms * rng.normal(size=truth.shape)
    mask = np.random.default_rng(seed + 100).random(y.shape) < observed
    return y, truth, mask


def assert_monotone(elbo):
    e = np.asarray(elbo)
    drops = np.diff(e) < -1e-8 * np.abs(e[:-1])
    assert not drops.any(), f"ELBO decreased at sweeps {np.nonzero(drops)[0] + 1}"


def fitted_posterior():
    y, truth, mask = rank2_scenario(seed=0, noise=0.01)
    hp = LrtcHyperParams(max_rank=8, max_iters=300, elbo_tol=1e-8, seed=0)
    return lrtc_fit(y, mask, hp), y, truth, mask


# --- hyperparameters -------------------------------------------------------


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        LrtcHyperParams(a0=0.0)
    with pytest.raises(ValueError):
        LrtcHyperParams(d0=-1.0)
    with pytest.raises(ValueError):
        LrtcHyperParams(max_rank=0)
    with pytest.raises(ValueError):
        LrtcHyperParams(max_iters=0)
    with pytest.raises(ValueError):
        LrtcHyperParams(elbo_tol=0.0)


# --- fitting ----------------------------------------------------------------


def test_noiseless_rank_recovery_and_completion():
    y, truth, mask = rank2_scenario(seed=0, noise=0.0)
    hp = LrtcHyperParams(max_rank=8, max_iters=300, elbo_tol=1e-8, seed=0)
    post = lrtc_fit(y, mask, hp)
    assert post.rank <= 3
    assert_monotone(post.elbo)
    result = lrtc_predict(post, mask, y)
    assert relative_residual(result.imputed[~mask], truth[~mask]) < 0.05


def test_noisy_fit_elbo_monotone_and_accurate():
    post, y, truth, mask = fitted_posterior()
    assert_monotone(post.elbo)
    assert post.rank <= 3
    result = lrtc_predict(post, mask, y)
    assert relative_residual(result.imputed[~mask], truth[~mask]) < 0.05


def test_zero_tensor_gives_zero_mean_and_high_precision():
    y = np.zeros((6, 6, 6))
    mask = np.ones_like(y, dtype=bool)
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=4, max_iters=50, seed=1))
    result = lrtc_predict(post, mask, y)
    np.testing.assert_allclose(result.imputed, 0.0, atol=1e-8)
    assert post.tau_mean > 1e3


def test_fit_says_whether_the_stop_rule_fired():
    y, _, mask = rank2_scenario(seed=0, noise=0.0)
    hp = LrtcHyperParams(max_rank=2, max_iters=1, seed=0)
    truncated = lrtc_fit(y, mask, hp)
    assert not truncated.converged and len(truncated.elbo) == 1
    assert not lrtc_predict(truncated, mask, y).converged
    # an exact low-rank block meets a loose tolerance well inside the budget
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=2, max_iters=300, elbo_tol=1e-2))
    assert post.converged and len(post.elbo) < 300
    assert lrtc_predict(post, mask, y).converged


def test_posterior_covariances_symmetric_psd():
    post, _, _, _ = fitted_posterior()
    for v in post.factor_covs:
        np.testing.assert_allclose(v, v.swapaxes(1, 2), atol=1e-12)
        assert np.linalg.eigvalsh(v).min() >= -1e-10


def test_pruning_does_not_cost_accuracy():
    y, truth, mask = rank2_scenario(seed=1, noise=0.01)
    hp = LrtcHyperParams(max_rank=8, max_iters=300, elbo_tol=1e-8, seed=1)
    pruned = lrtc_predict(lrtc_fit(y, mask, hp), mask, y)
    kept = lrtc_predict(lrtc_fit(y, mask, hp, prune=False), mask, y)
    res_pruned = relative_residual(pruned.imputed[~mask], truth[~mask])
    res_kept = relative_residual(kept.imputed[~mask], truth[~mask])
    assert pruned.effective_rank <= kept.effective_rank
    assert res_pruned <= 1.1 * res_kept + 1e-12


def test_fit_is_seed_deterministic():
    y, _, mask = rank2_scenario(seed=2, noise=0.01)
    hp = LrtcHyperParams(max_rank=5, max_iters=40, seed=7)
    a = lrtc_fit(y, mask, hp)
    b = lrtc_fit(y, mask, hp)
    for ma, mb in zip(a.factor_means, b.factor_means):
        np.testing.assert_array_equal(ma, mb)
    assert a.elbo == b.elbo


def test_fit_rejects_bad_input():
    y = np.ones((4, 4, 4))
    with pytest.raises(ValueError):
        lrtc_fit(y, np.zeros_like(y, dtype=bool), LrtcHyperParams())
    y_bad = y.copy()
    y_bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        lrtc_fit(y_bad, np.ones_like(y, dtype=bool), LrtcHyperParams())
    # a NaN behind a missing cell is fine
    mask = np.ones_like(y, dtype=bool)
    mask[0, 0, 0] = False
    lrtc_fit(y_bad, mask, LrtcHyperParams(max_rank=2, max_iters=5))


@pytest.mark.parametrize("level", [3.0, 250.0])
def test_constant_block_is_completed_with_its_level(level):
    # zero spread must not shrink the initial factors to nothing
    y = np.full((4, 5, 6), level)
    mask = np.random.default_rng(0).random(y.shape) < 0.7
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=4, seed=0))
    result = lrtc_predict(post, mask, np.where(mask, y, np.nan))
    np.testing.assert_allclose(result.imputed[~mask], level, rtol=1e-6)
    assert result.effective_rank == 1


# --- sufficient statistics ------------------------------------------------------


def cellwise_statistics(y, mask, means, moments, k):
    """Mode-k sums and the expected error, cell by cell over the observed cells."""
    idx = np.nonzero(mask)
    y_obs = y[idx]
    rows = np.eye(y.shape[k])[idx[k]]
    w = np.ones((y_obs.size, means[0].shape[1]))
    w2 = np.ones((y_obs.size,) + moments[0].shape[1:])
    for j in range(y.ndim):
        if j != k:
            w = w * means[j][idx[j]]
            w2 = w2 * moments[j][idx[j]]
    s = np.einsum("ni,nrs->irs", rows, w2)
    proj = np.einsum("ni,n,nr->ir", rows, y_obs, w)
    xhat = np.einsum("nr,nr->n", w, means[k][idx[k]])
    second = np.einsum("nrs,nrs->n", w2, moments[k][idx[k]])
    err = np.sum(y_obs**2 - 2.0 * y_obs * xhat + second)
    return s, proj, err


@pytest.mark.parametrize("shape", [(5, 7, 6), (4, 3, 5, 6), (20, 4, 3)])
def test_dense_statistics_match_cellwise_sums(shape):
    rng = np.random.default_rng(len(shape))
    rank = 3
    y = rng.normal(size=shape) + 1.0
    mask = rng.random(shape) < 0.6
    mask[1] = False  # one station never observed
    y[1].flat[0] = np.nan  # a nan behind a missing cell

    def random_moments(i):
        mean, a = rng.normal(size=(i, rank)), rng.normal(size=(i, rank, rank))
        return mean, lrtc._second_moments([mean], [0.1 * a @ a.swapaxes(1, 2)])[0]

    means, moments = map(list, zip(*(random_moments(i) for i in shape)))
    seen, filled = mask.astype(np.float64), np.where(mask, y, 0.0)
    split = tensor_ops._split(shape)  # (20, 4, 3): one-mode left half; (5, 7, 6): one-mode right
    sum_y2 = np.sum(y[mask] ** 2)
    # the second pass overwrites each mode's means and moments once its statistics
    # are out, as a sweep does: the next mode's statistics must see the new values
    for update in (False, True):
        modes = []
        for k, s, proj in lrtc._statistics(seen, filled, split, means, moments):
            want_s, want_proj, want_err = cellwise_statistics(y, mask, means, moments, k)
            np.testing.assert_allclose(s, want_s, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(proj, want_proj, rtol=1e-12, atol=1e-12)
            if k == 0:
                np.testing.assert_array_equal(s[1], 0.0)
                np.testing.assert_array_equal(proj[1], 0.0)
            err = lrtc._error_from_statistics(sum_y2, s, proj, means[k], moments[k])
            assert err == pytest.approx(want_err, rel=1e-12)
            if update:
                means[k], moments[k] = random_moments(shape[k])
            modes.append(k)
        assert modes == list(range(len(shape)))


def test_fit_memory_stays_off_the_observed_cell_count():
    # per-cell gathers would build n_obs x R x R arrays of about 8 MB each here
    rng = np.random.default_rng(0)
    factors = [rng.uniform(0.5, 1.5, size=(n, 3)) for n in (12, 56, 48)]
    y = cp_reconstruct(CpModel(np.ones(3), factors))
    mask = np.ones(y.shape, dtype=bool)
    mask[:, -1, 15:] = False
    tracemalloc.start()
    try:
        lrtc_fit(y, mask, LrtcHyperParams(max_rank=8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_fit_memory_stays_under_ten_tensors():
    # the tree holds one float copy each of the mask and the zero-filled data;
    # per-mode unfoldings of both would hold 2N
    rng = np.random.default_rng(0)
    factors = [rng.uniform(0.5, 1.5, size=(n, 3)) for n in (12, 56, 48)]
    y = cp_reconstruct(CpModel(np.ones(3), factors))
    mask = np.ones(y.shape, dtype=bool)
    mask[:, -1, 15:] = False
    tracemalloc.start()
    try:
        lrtc_fit(y, mask, LrtcHyperParams(max_rank=8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * y.nbytes


def test_fit_copies_no_unfolding(monkeypatch):
    def refuse(*args):
        raise AssertionError("lrtc_fit unfolded the tensor")

    # lrtc.unfold too, for a module that imports it by name
    for name in ("flowcast.lrtc.unfold", "flowcast.tensor_ops.unfold", "flowcast.tensor_ops.fold"):
        monkeypatch.setattr(name, refuse, raising=False)
    y, truth, mask = rank2_scenario(seed=3, extent=8)
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=4, max_iters=20))
    result = lrtc_predict(post, mask, y)
    assert relative_residual(result.imputed, truth, ~mask) < 1e-2


# --- one precision per mask pattern ---------------------------------------------


def tail_scenario():
    # today's missing slots: the last day from slot 15 on, at every station
    rng = np.random.default_rng(0)
    factors = [rng.uniform(0.5, 1.5, size=(n, 3)) for n in (12, 56, 48)]
    y = cp_reconstruct(CpModel(np.ones(3), factors))
    mask = np.ones(y.shape, dtype=bool)
    mask[:, -1, 15:] = False
    return y, mask


def counted_inverses(monkeypatch):
    """Matrices per ``np.linalg.inv`` call, appended as the fit makes them."""
    counts, inv = [], np.linalg.inv

    def counting(a):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return counts


def test_tail_mask_inverts_five_precisions_per_sweep(monkeypatch):
    # every station shares one pattern; days and slots split into full and cut rows
    counts = counted_inverses(monkeypatch)
    y, mask = tail_scenario()
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=8, max_iters=100, elbo_tol=1e-15))
    assert len(post.elbo) == 100
    assert counts == [1, 2, 2] * 100


def test_random_mask_inverts_one_precision_per_row(monkeypatch):
    counts = counted_inverses(monkeypatch)
    y, _, mask = rank2_scenario(seed=0, noise=0.01)
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=8, max_iters=30))
    assert counts == [15, 15, 15] * len(post.elbo)


def block_scenario():
    rng = np.random.default_rng(4)
    shape = (5, 6, 4, 7)
    y = rng.normal(size=shape)
    mask = np.ones(shape, dtype=bool)
    mask[1:3, 2:4, :, 3:] = False
    return y, mask


def unobserved_scenario():
    y, _, mask = rank2_scenario(seed=5, noise=0.01, extent=8)
    mask[[2, 5]] = False  # two stations never observed share the prior's pattern
    return y, mask


@pytest.mark.parametrize("scenario", [tail_scenario, block_scenario, unobserved_scenario])
def test_rows_with_one_mask_pattern_share_one_covariance(scenario):
    y, mask = scenario()
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=4, max_iters=30))
    for k, v in enumerate(post.factor_covs):
        rows = np.moveaxis(mask, k, 0).reshape(mask.shape[k], -1)
        patterns, group = np.unique(rows, axis=0, return_inverse=True)
        for g in range(len(patterns)):
            members = v[group.ravel() == g]
            assert all(np.array_equal(m, members[0]) for m in members)
        # and rows with different patterns keep different covariances
        assert len({m.tobytes() for m in v}) == len(patterns)


# --- prediction --------------------------------------------------------------


def test_predict_hand_built_rank_one_posterior():
    e1 = np.zeros((4, 1))
    e1[0, 0] = 1.0
    post = LrtcPosterior(
        factor_means=[e1.copy() for _ in range(3)],
        factor_covs=[np.zeros((4, 1, 1)) for _ in range(3)],
        lambda_post=(np.ones(1), np.ones(1)),
        tau_post=(1e6, 1.0),
    )
    pattern = np.zeros((4, 4, 4))
    pattern[0, 0, 0] = 1.0
    mask = np.ones((4, 4, 4), dtype=bool)
    mask[0, 0, 0] = False
    mask[1, 2, 3] = False
    result = lrtc_predict(post, mask, np.where(mask, pattern, np.nan))
    np.testing.assert_allclose(result.imputed, pattern, atol=1e-6)
    assert result.effective_rank == 1


def test_predictive_variance_signs():
    post, y, _, mask = fitted_posterior()
    result = lrtc_predict(post, mask, y)
    assert (result.predictive_variance[~mask] > 0).all()
    assert (result.predictive_variance[mask] == 0).all()


def test_observed_cells_pass_through_exactly():
    post, y, _, mask = fitted_posterior()
    result = lrtc_predict(post, mask, y)
    np.testing.assert_array_equal(result.imputed[mask], y[mask])


def test_predict_rejects_shape_mismatch():
    post, y, _, mask = fitted_posterior()
    with pytest.raises(ValueError):
        lrtc_predict(post, mask[:-1], y[:-1])


# --- short-term prediction ----------------------------------------------------


def intraday_scenario(seed=0, n_loc=10, n_days=15, n_slots=96, noise=0.005):
    rng = np.random.default_rng(seed)
    p = np.arange(n_slots)
    u_p = np.column_stack([
        0.2 + np.exp(-((p - c) ** 2) / (2 * 9.0**2)) for c in (30, 50, 78)
    ])
    d = np.arange(n_days)
    u_t = np.column_stack([
        1.0 + 0.4 * np.sin(2 * np.pi * (d + 2 * r) / 7) for r in range(3)
    ])
    u_l = rng.uniform(0.5, 1.5, size=(n_loc, 3))
    truth = cp_reconstruct(CpModel(np.array([4.0, 3.0, 2.0]), [u_l, u_t, u_p]))
    rms = np.sqrt((truth**2).mean())
    return truth + noise * rms * rng.normal(size=truth.shape), truth


def test_short_term_suffix_beats_history_mean():
    y, truth = intraday_scenario(seed=3)
    future = np.zeros_like(y, dtype=bool)
    future[:, -1, 74:] = True
    hp = LrtcHyperParams(max_rank=6, max_iters=80, elbo_tol=1e-7, seed=0)
    result = short_term_predict(y, future, hp)

    np.testing.assert_array_equal(result.imputed[~future], y[~future])
    target = truth[:, -1, 74:]
    res_model = relative_residual(result.imputed[:, -1, 74:], target)
    baseline = y[:, :-1, 74:].mean(axis=1)
    res_base = relative_residual(baseline, target)
    assert res_model < res_base


def test_short_term_rejects_fully_missing_day():
    y, _ = intraday_scenario(seed=4, n_slots=24)
    future = np.zeros_like(y, dtype=bool)
    future[:, -1, :] = True
    with pytest.raises(ValueError):
        short_term_predict(y, future, LrtcHyperParams(max_rank=4))


def test_short_term_empty_missing_set_is_identity():
    y, _ = intraday_scenario(seed=5, n_slots=24)
    result = short_term_predict(y, np.zeros_like(y, dtype=bool), LrtcHyperParams())
    np.testing.assert_array_equal(result.imputed, y)
    assert result.effective_rank == 0
    assert (result.predictive_variance == 0).all()


def test_short_term_reports_convergence():
    y, _ = intraday_scenario(seed=5, n_slots=24)
    assert short_term_predict(y, np.zeros_like(y, dtype=bool), LrtcHyperParams()).converged
    future = np.zeros_like(y, dtype=bool)
    future[:, -1, 12:] = True
    assert not short_term_predict(y, future, LrtcHyperParams(max_iters=1)).converged


def test_short_term_history_window():
    y, truth = intraday_scenario(seed=6, n_slots=24)
    future = np.zeros_like(y, dtype=bool)
    future[:, -1, 16:] = True
    hp = LrtcHyperParams(max_rank=5, max_iters=60, elbo_tol=1e-7, seed=2)
    windowed = short_term_predict(y, future, hp, history_days=7)
    manual = short_term_predict(y[:, -7:, :], future[:, -7:, :], hp)
    np.testing.assert_allclose(windowed.imputed[:, -7:, :], manual.imputed)
    np.testing.assert_array_equal(windowed.imputed[:, :-7, :], y[:, :-7, :])

    early = np.zeros_like(y, dtype=bool)
    early[:, 0, 16:] = True
    with pytest.raises(ValueError):
        short_term_predict(y, early, hp, history_days=7)
    with pytest.raises(ValueError):
        short_term_predict(y, future, hp, history_days=0)


def test_short_term_rejects_non_tensor_input():
    with pytest.raises(ValueError):
        short_term_predict(np.ones((3, 4)), np.zeros((3, 4), dtype=bool), LrtcHyperParams())
