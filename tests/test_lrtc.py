"""Tests for Bayesian tensor completion.

Ground truths are CP models constructed in the tests; held-out accuracy is
measured on cells the fit never saw.  The ELBO trace is asserted to be
non-decreasing, which is the coordinate-ascent contract.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma, gammaln

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
from flowcast.synthetic import SyntheticSpec, generate_synthetic, planted_labels
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
        LrtcHyperParams(max_rank=0)
    with pytest.raises(ValueError):
        LrtcHyperParams(max_iters=0)
    with pytest.raises(ValueError, match="max_rank must be a whole number"):
        LrtcHyperParams(max_rank=2.5)
    with pytest.raises(ValueError, match="max_iters must be a whole number"):
        LrtcHyperParams(max_iters=1.5)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="elbo_tol"):
            LrtcHyperParams(elbo_tol=tol)
    for seed in (1.5, -1, "3"):
        with pytest.raises(ValueError, match="seed"):
            LrtcHyperParams(seed=seed)
    assert type(LrtcHyperParams(seed=2.0).seed) is int


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
    assert post.tau_post[0] / post.tau_post[1] > 1e3


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


def old_elbo_stop(elbo, pruned, tol):
    """The sweep the ELBO stop test lrtc_fit once carried inline would end on: never a
    pruning sweep, each sweep compared with the one before it, pruned or not."""
    prev = None
    for i, e in enumerate(elbo):
        if i not in pruned and prev is not None and abs(e - prev) < tol * max(1.0, abs(prev)):
            return i
        prev = e
    return None


def test_stop_rule_picks_the_sweep_the_old_elbo_test_picked():
    y, _, mask = rank2_scenario(seed=0, noise=0.05, extent=12)
    budget = 40
    hp = LrtcHyperParams(max_rank=6, max_iters=budget, elbo_tol=1e-300, seed=0)
    full = lrtc_fit(y, mask, hp).elbo
    # the rank after each sweep, from fits cut there; a drop marks a pruning sweep
    ranks = [hp.max_rank] + [lrtc_fit(y, mask, replace(hp, max_iters=k)).rank
                             for k in range(1, len(full) + 1)]
    pruned = {i for i in range(len(full)) if ranks[i + 1] < ranks[i]}
    assert pruned
    # at 5e-2 the first sweep within tolerance is a pruning one, which must not stop the fit
    within = [i for i in range(1, len(full))
              if abs(full[i] - full[i - 1]) < 5e-2 * max(1.0, abs(full[i - 1]))]
    assert within[0] in pruned
    for tol in (5e-2, 1e-2, 1e-4, 1e-6):
        stop = old_elbo_stop(full, pruned, tol)
        assert stop is not None or len(full) == budget
        post = lrtc_fit(y, mask, replace(hp, elbo_tol=tol))
        assert len(post.elbo) == (budget if stop is None else stop + 1)
        assert post.elbo == full[:len(post.elbo)]
        assert post.converged == (stop is not None)


def test_elbo_keeps_the_list_contract():
    y, _, mask = rank2_scenario(seed=1, extent=6)
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=2, max_iters=3, elbo_tol=1e-300))
    assert len(post.elbo) == 3 and isinstance(post.elbo, list)
    assert float(post.elbo[-1]) == post.elbo[2]
    assert post.elbo == list(post.elbo) and not post.converged
    # a posterior built by hand has an empty record, which never converged
    hand = LrtcPosterior([np.zeros((2, 1))] * 3, [np.zeros((2, 1, 1))] * 3,
                         (np.ones(1), np.ones(1)), (1.0, 1.0))
    assert hand.elbo == [] and not hand.converged


def test_posterior_covariances_symmetric_psd():
    post, _, _, _ = fitted_posterior()
    for v in post.factor_covs:
        np.testing.assert_allclose(v, v.swapaxes(1, 2), atol=1e-12)
        assert np.linalg.eigvalsh(v).min() >= -1e-10


def test_pruning_does_not_cost_accuracy(monkeypatch):
    y, truth, mask = rank2_scenario(seed=1, noise=0.01)
    hp = LrtcHyperParams(max_rank=8, max_iters=300, elbo_tol=1e-8, seed=1)
    pruned = lrtc_predict(lrtc_fit(y, mask, hp), mask, y)
    monkeypatch.setattr(lrtc, "PRUNE_RATIO", np.inf)  # no component is ever weak enough
    kept = lrtc_predict(lrtc_fit(y, mask, hp), mask, y)
    res_pruned = relative_residual(pruned.imputed[~mask], truth[~mask])
    res_kept = relative_residual(kept.imputed[~mask], truth[~mask])
    assert pruned.effective_rank <= kept.effective_rank
    assert res_pruned <= 1.1 * res_kept + 1e-12


def noise_scenario():
    # N(0, 1) + 1 noise, 70 % observed: all but a few components die, their means
    # falling doubly exponentially, sweep by sweep, until pruning drops them
    rng = np.random.default_rng(0)
    y = rng.normal(size=(12, 56, 48)) + 1.0
    return y, rng.random(y.shape) < 0.7


def test_dying_components_leave_no_subnormal_means_or_covariances():
    # unflushed, sweep 6 leaves subnormal covariance entries, and BLAS products on
    # subnormal operands run about 60 times slower than on normal ones
    y, mask = noise_scenario()
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=10, max_iters=6, seed=0))
    for a in post.factor_means + post.factor_covs:
        assert not np.any((a != 0) & (np.abs(a) < np.finfo(float).tiny))


@pytest.mark.parametrize("scenario", ["noise", "tail"])
def test_flushing_subnormals_leaves_a_whole_fit_unchanged(monkeypatch, scenario):
    # the flush zeroes only what is below the smallest normal number, which every
    # later sum absorbs: the fit ends bit for bit where the unflushed one does
    y, mask = noise_scenario() if scenario == "noise" else tail_scenario()
    hp = LrtcHyperParams(max_rank=10, seed=0)
    flushed = lrtc_fit(y, mask, hp)
    monkeypatch.setattr(lrtc, "DYING_FALL", 0.0)  # no rate ever falls below 0
    plain = lrtc_fit(y, mask, hp)
    assert list(flushed.elbo) == list(plain.elbo)
    for got, want in zip(flushed.factor_means + flushed.factor_covs,
                         plain.factor_means + plain.factor_covs):
        assert got.tobytes() == want.tobytes()
    assert flushed.lambda_post[1].tobytes() == plain.lambda_post[1].tobytes()
    assert flushed.tau_post == plain.tau_post


def test_pruned_posterior_agrees_with_itself():
    # a fit cut at a pruning sweep returns the prune candidate as it was accepted, so a
    # wrongly sliced candidate would leave the rates off the returned factors
    y, _, mask = rank2_scenario(seed=0, noise=0.05)
    hp = LrtcHyperParams(max_rank=6, seed=0)
    sweeps = len(lrtc_fit(y, mask, hp).elbo)
    posts = [lrtc_fit(y, mask, replace(hp, max_iters=k)) for k in range(1, sweeps + 1)]
    assert posts[0].rank == 6 and posts[-1].rank == 2
    for post in posts:
        np.testing.assert_array_equal(post.lambda_post[0],
                                      np.full(post.rank, lrtc.PRIOR + 0.5 * sum(y.shape)))
        sum_sq = sum((m**2 + np.diagonal(v, axis1=1, axis2=2)).sum(axis=0)
                     for m, v in zip(post.factor_means, post.factor_covs))
        np.testing.assert_array_equal(post.lambda_post[1], lrtc.PRIOR + 0.5 * sum_sq)
        moments = lrtc._second_moments(post.factor_means, post.factor_covs)
        err = cellwise_statistics(y, mask, post.factor_means, moments, 0)[2]
        assert post.tau_post[0] == lrtc.PRIOR + 0.5 * mask.sum()
        assert post.tau_post[1] == pytest.approx(lrtc.PRIOR + 0.5 * err, rel=1e-10)


def textbook_elbo(y, mask, post):
    """The mean-field bound of a returned posterior, term by term from its definition:
    one log-determinant per row covariance, and the expected squared error cell by cell."""
    prior, log_2pi = lrtc.PRIOR, np.log(2 * np.pi)
    (c, d), (a, b) = post.lambda_post, post.tau_post
    e_lam, eln_lam = c / d, digamma(c) - np.log(d)
    e_tau, eln_tau = a / b, digamma(a) - np.log(b)
    rank, n_rows = post.rank, sum(y.shape)
    moments = [m[:, :, None] * m[:, None, :] + v
               for m, v in zip(post.factor_means, post.factor_covs)]
    err = cellwise_statistics(y, mask, post.factor_means, moments, 0)[2]
    e_u2 = sum(np.einsum("irr->r", v) for v in moments)

    def gamma_prior(eln, e):
        return prior * np.log(prior) - gammaln(prior) + (prior - 1) * eln - prior * e

    def gamma_entropy(shape, rate):
        return shape - np.log(rate) + gammaln(shape) + (1 - shape) * digamma(shape)

    like = 0.5 * mask.sum() * (eln_tau - log_2pi) - 0.5 * e_tau * err
    prior_u = 0.5 * n_rows * (eln_lam.sum() - rank * log_2pi) - 0.5 * np.sum(e_lam * e_u2)
    ent_u = sum(0.5 * (rank * (1 + log_2pi) + np.linalg.slogdet(v)[1]).sum()
                for v in post.factor_covs)
    return (like + prior_u + gamma_prior(eln_lam, e_lam).sum() + gamma_prior(eln_tau, e_tau)
            + ent_u + gamma_entropy(c, d).sum() + gamma_entropy(a, b))


def noisy_block(shape, seed):
    rng = np.random.default_rng(seed)
    factors = [rng.normal(size=(n, 2)) for n in shape]
    truth = cp_reconstruct(CpModel(np.array([3.0, 2.0]), factors))
    return truth + 0.05 * truth.std() * rng.normal(size=shape), rng


def tail_mask(shape, rng):
    mask = np.ones(shape, dtype=bool)
    mask[..., -1, shape[-1] // 3:] = False
    return mask


def block_mask(shape, rng):
    mask = np.ones(shape, dtype=bool)
    mask[tuple(slice(n // 3, n // 3 + max(1, n // 3)) for n in shape)] = False
    return mask


def random_mask(shape, rng):
    return rng.random(shape) < 0.7


@pytest.mark.parametrize("masked", [tail_mask, block_mask, random_mask])
@pytest.mark.parametrize("shape", [(20, 16), (9, 8, 10), (5, 6, 4, 7)])
def test_elbo_is_the_textbook_bound_of_the_returned_posterior(shape, masked):
    y, rng = noisy_block(shape, len(shape))
    mask = masked(shape, rng)
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=5, max_iters=40, seed=1))
    assert post.elbo[-1] == pytest.approx(textbook_elbo(y, mask, post), rel=1e-10)


def test_elbo_of_a_fit_cut_at_a_pruning_sweep_is_the_textbook_bound():
    y, _, mask = rank2_scenario(seed=0, noise=0.05)
    hp = LrtcHyperParams(max_rank=6, seed=0)
    k = 1
    while lrtc_fit(y, mask, replace(hp, max_iters=k)).rank == hp.max_rank:
        k += 1
    post = lrtc_fit(y, mask, replace(hp, max_iters=k))  # its last sweep accepted a cut
    assert post.rank < hp.max_rank
    assert post.elbo[-1] == pytest.approx(textbook_elbo(y, mask, post), rel=1e-10)


# --- the over-relaxed step ----------------------------------------------------------


def step_scenario(shape=(9, 8, 10)):
    y, rng = noisy_block(shape, len(shape))
    return y, tail_mask(y.shape, rng), LrtcHyperParams(max_rank=5, seed=1)


# on 4 modes the last mode's trial statistics read a product of the other tree half
@pytest.mark.parametrize("shape", [(9, 8, 10), (5, 6, 4, 7)])
def test_a_fit_whose_last_sweep_keeps_its_trial_step_ends_on_the_textbook_bound(monkeypatch,
                                                                                 shape):
    y, mask, hp = step_scenario(shape)
    stepped = lrtc_fit(y, mask, hp)
    assert_monotone(stepped.elbo)
    kept = 0
    for k in range(lrtc.STEP_START, len(stepped.elbo) + 1):
        # with the step from sweep k on, a fit cut at sweep k differs from a plain one
        # exactly where that last sweep kept its trial
        cut = replace(hp, max_iters=k)
        monkeypatch.setattr(lrtc, "STEP_START", np.inf)
        plain = lrtc_fit(y, mask, cut)
        monkeypatch.setattr(lrtc, "STEP_START", k)
        post = lrtc_fit(y, mask, cut)
        assert post.elbo[:-1] == plain.elbo[:-1]
        if post.elbo[-1] != plain.elbo[-1]:
            kept += 1
            assert post.elbo[-1] > plain.elbo[-1]
            assert post.elbo[-1] == pytest.approx(textbook_elbo(y, mask, post), rel=1e-10)
    assert kept > 0
    # with the default start, every cut of the fit, at a kept, a refused or a skipped
    # trial, ends on the bound of the posterior it returns
    monkeypatch.undo()
    for k in range(lrtc.STEP_START, len(stepped.elbo) + 1):
        post = lrtc_fit(y, mask, replace(hp, max_iters=k))
        assert post.elbo[-1] == pytest.approx(textbook_elbo(y, mask, post), rel=1e-10)


def refused_trials(monkeypatch, corrupt):
    """Make every trial step's second moments ``corrupt(moments)``; the fit's first call,
    its starting moments, is left alone.  Returns the number of trials made, as a list."""
    second_moments, calls = lrtc._second_moments, [0]

    def spoiled(means, covs):
        calls[0] += 1
        moments = second_moments(means, covs)
        return moments if calls[0] == 1 else [corrupt(m) for m in moments]

    monkeypatch.setattr(lrtc, "_second_moments", spoiled)
    return calls


@pytest.mark.parametrize("corrupt", [
    lambda m: m * 1e300,  # its sums overflow: refused without a floating-point warning
    lambda m: m + 1e6 * np.eye(m.shape[1]),  # finite, with a far lower bound
    # its Gram-identity error cancels to 0, at the floor, where its bound is not to be trusted
    lambda m: 0.0 * m,
], ids=["overflowing", "finite", "at the floor"])
def test_a_refused_trial_step_leaves_the_fit_as_a_plain_one(monkeypatch, corrupt):
    y, mask, hp = step_scenario()
    calls, start = refused_trials(monkeypatch, corrupt), lrtc.STEP_START
    refused = lrtc_fit(y, mask, hp)
    monkeypatch.undo()
    monkeypatch.setattr(lrtc, "STEP_START", np.inf)  # no trial at all
    plain = lrtc_fit(y, mask, hp)
    # every trial was refused, so the sweep after each tried none: one trial every
    # second sweep from STEP_START on
    assert calls[0] - 1 == len(range(start, len(plain.elbo) + 1, 2)) > 5
    assert list(refused.elbo) == list(plain.elbo) and refused.converged == plain.converged
    for a, b in zip(refused.factor_means + refused.factor_covs + [*refused.lambda_post],
                    plain.factor_means + plain.factor_covs + [*plain.lambda_post]):
        assert a.tobytes() == b.tobytes()
    assert refused.tau_post == plain.tau_post


def test_no_trial_step_once_the_error_is_at_the_gram_floor(monkeypatch):
    # on exact data the sweeps' error soon cancels to noise in the Gram identity, and no
    # trial is scored by it from then on
    y, _, mask = rank2_scenario(seed=0, noise=0.0)
    calls = refused_trials(monkeypatch, lambda m: m)  # counts the trials, changes none
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=8, max_iters=300, elbo_tol=1e-8, seed=0))
    assert len(post.elbo) > 40 and 0 < calls[0] - 1 < 5


def test_a_fit_settled_at_zero_on_nonzero_data_does_not_report_converged():
    # a rank-2 block on which the fit shrinks every factor mean to exactly zero and its
    # bound then settles; the zero tensor's zero fit is tested above
    y, rng = noisy_block((12, 12, 12), 2)
    mask = rng.random(y.shape) < 0.7
    post = lrtc_fit(y, mask, LrtcHyperParams(max_rank=6, max_iters=2000, elbo_tol=1e-9, seed=2))
    last, prev = post.elbo[-1], post.elbo[-2]
    assert len(post.elbo) < 2000 and abs(last - prev) < 1e-9 * abs(prev)  # the stop rule fired
    assert any(not m.any() for m in post.factor_means)
    assert not post.converged
    # asking the stop rule again is a query: it leaves the fit's flag as it was
    assert post.elbo.settled(1e-9) and not post.converged
    assert not lrtc_predict(post, mask, y).converged


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


def test_fit_rejects_a_one_way_tensor():
    with pytest.raises(ValueError, match="at least 2 modes"):
        lrtc_fit(np.ones(5), np.ones(5, dtype=bool), LrtcHyperParams())


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


def statistics_mask(shape, kind, rng):
    mask = np.ones(shape, dtype=bool)
    if kind == "random":
        mask = rng.random(shape) < 0.6
        mask[1] = False  # one station never observed
    elif kind == "tail":
        mask[..., -1, 2:] = False  # the last day from its third slot on
    elif kind == "block":
        mask[:2, :3] = False
    return mask


@pytest.mark.parametrize("shape, kind", [
    ((5, 7, 6), "random"), ((4, 3, 5, 6), "random"), ((20, 4, 3), "random"), ((9, 7), "random"),
    ((5, 7, 6), "tail"), ((4, 3, 5, 6), "tail"), ((9, 7), "tail"),
    ((5, 7, 6), "block"), ((4, 3, 5, 6), "block"), ((20, 4, 3), "full"), ((9, 7), "full"),
])
def test_dense_statistics_match_cellwise_sums(shape, kind):
    rng = np.random.default_rng(len(shape))
    rank = 3
    y = rng.normal(size=shape) + 1.0
    mask = statistics_mask(shape, kind, rng)
    y[~mask] = np.nan  # nan behind every missing cell

    def random_moments(i):
        mean, a = rng.normal(size=(i, rank)), rng.normal(size=(i, rank, rank))
        return mean, lrtc._second_moments([mean], [0.1 * a @ a.swapaxes(1, 2)])[0]

    means, moments = map(list, zip(*(random_moments(i) for i in shape)))
    groups = lrtc._row_groups(mask)
    rows, filled = lrtc._pattern_rows(mask, groups), np.where(mask, y, 0.0)
    split = tensor_ops._split(shape)  # (20, 4, 3): one-mode left half; (5, 7, 6): one-mode right
    sum_y2 = np.sum(y[mask] ** 2)
    # the second pass overwrites each mode's means and moments once its statistics
    # are out, as a sweep does: the next mode's statistics must see the new values
    for update in (False, True):
        modes = []
        for k, step in lrtc._statistics(rows, filled, split, means, moments):
            s, proj = step()
            first, index, counts = groups[k]
            assert np.all(np.diff(first) > 0) and s.shape[0] == first.size == counts.size
            s = s[index]  # each row's sums are its group's
            want_s, want_proj, want_err = cellwise_statistics(y, mask, means, moments, k)
            np.testing.assert_allclose(s, want_s, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(proj, want_proj, rtol=1e-12, atol=1e-12)
            if k == 0 and kind == "random":
                np.testing.assert_array_equal(s[1], 0.0)
                np.testing.assert_array_equal(proj[1], 0.0)
            err = lrtc._error_from_statistics(sum_y2, s, proj, means[k], moments[k])
            assert err == pytest.approx(want_err, rel=1e-12)
            if update:
                means[k], moments[k] = random_moments(shape[k])
            modes.append(k)
        assert modes == list(range(len(shape)))


@pytest.mark.parametrize("shape, kind", [
    ((5, 7, 6), "random"), ((4, 3, 5, 6), "random"), ((5, 7, 6), "tail"),
    ((4, 3, 5, 6), "tail"), ((9, 7), "tail"), ((5, 7, 6), "block"), ((4, 3, 5, 6), "block"),
])
def test_group_summed_error_term_matches_the_row_gathered_one(shape, kind):
    # the bound meets each last-mode group's sums with its rows' moments summed; each
    # row's gathered sums against that row's moments give the same error
    rng = np.random.default_rng(7)
    rank = 3
    y = rng.normal(size=shape) + 1.0
    mask = statistics_mask(shape, kind, rng)
    means = [rng.normal(size=(i, rank)) for i in shape]
    covs = [0.1 * a @ a.swapaxes(1, 2) for a in (rng.normal(size=(i, rank, rank)) for i in shape)]
    moments = lrtc._second_moments(means, covs)
    groups = lrtc._row_groups(mask)
    rows, filled = lrtc._pattern_rows(mask, groups), np.where(mask, y, 0.0)
    # a half's first step forms the product its other steps read, so all of them run
    k, (s, proj) = [(k, step()) for k, step in
                    lrtc._statistics(rows, filled, tensor_ops._split(shape), means, moments)][-1]
    members = lrtc._group_indicator(groups[k])
    assert members.shape == (groups[k][0].size, shape[k])
    np.testing.assert_array_equal(members.sum(axis=1), groups[k][2])
    grouped = (members @ moments[k].reshape(shape[k], -1)).reshape(s.shape)
    sum_y2 = np.sum(y[mask] ** 2)
    by_row = lrtc._error_from_statistics(sum_y2, s[groups[k][1]], proj, means[k], moments[k])
    by_group = lrtc._error_from_statistics(sum_y2, s, proj, means[k], grouped)
    assert by_group == pytest.approx(by_row, rel=1e-12)
    assert by_group == pytest.approx(cellwise_statistics(y, mask, means, moments, k)[2],
                                     rel=1e-12)


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
    # the proj tree holds one float copy of the zero-filled data;
    # per-mode unfoldings of it and of the mask would hold 2N
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


def test_fit_memory_stays_under_four_tensors_at_rank_eight():
    # statistics at each mask pattern's first rows need no float copy of the mask and
    # no rank-R^2 product over every row
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
    assert peak < 4 * y.nbytes


def test_fit_memory_stays_under_six_tensors_on_a_random_mask():
    # every row of every mode is its own pattern here, so each mode's pattern rows are a
    # boolean copy of the whole mask; no float copy of it is kept for the fit
    rng = np.random.default_rng(0)
    factors = [rng.uniform(0.5, 1.5, size=(n, 3)) for n in (12, 56, 48)]
    y = cp_reconstruct(CpModel(np.ones(3), factors))
    mask = rng.random(y.shape) < 0.7
    tracemalloc.start()
    try:
        lrtc_fit(y, mask, LrtcHyperParams(max_rank=8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * y.nbytes


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


def boolean_pattern_rows(mask, groups):
    return [np.moveaxis(mask, k, 0)[first] for k, (first, _, _) in enumerate(groups)]


def wide_block_scenario():
    # a 4-way block mask whose pattern rows hold fewer cells than the mask:
    # the block spans mode 2, so that mode has one pattern
    rng = np.random.default_rng(8)
    shape = (8, 9, 5, 10)
    y = rng.normal(size=shape) + 1.0
    mask = np.ones(shape, dtype=bool)
    mask[2:5, 3:6, :, 6:] = False
    return y, mask


@pytest.mark.parametrize("scenario", [tail_scenario, wide_block_scenario])
def test_float_pattern_rows_leave_the_fit_bit_identical(monkeypatch, scenario):
    y, mask = scenario()
    rows = lrtc._pattern_rows(mask, lrtc._row_groups(mask))
    assert all(r.dtype == np.float64 for r in rows)
    assert sum(r.size for r in rows) <= mask.size
    hp = LrtcHyperParams(max_rank=6, max_iters=60)
    fits = [lrtc_fit(y, mask, hp)]
    monkeypatch.setattr(lrtc, "_pattern_rows", boolean_pattern_rows)
    fits.append(lrtc_fit(y, mask, hp))
    got, want = fits
    assert list(got.elbo) == list(want.elbo) and got.converged == want.converged
    for a, b in zip(got.factor_means + got.factor_covs + [*got.lambda_post],
                    want.factor_means + want.factor_covs + [*want.lambda_post]):
        np.testing.assert_array_equal(a, b)
    assert got.tau_post == want.tau_post
    np.testing.assert_array_equal(lrtc_predict(got, mask, y).imputed,
                                  lrtc_predict(want, mask, y).imputed)


def test_pattern_rows_stay_boolean_on_a_random_mask():
    # every row is its own pattern, so float rows would hold N float copies of the mask
    mask = np.random.default_rng(9).random((12, 56, 48)) < 0.7
    rows = lrtc._pattern_rows(mask, lrtc._row_groups(mask))
    assert all(r.dtype == np.bool_ for r in rows)
    for k, r in enumerate(rows):
        np.testing.assert_array_equal(r, np.moveaxis(mask, k, 0))


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


def test_short_term_rejects_non_tensor_input():
    with pytest.raises(ValueError):
        short_term_predict(np.ones((3, 4)), np.zeros((3, 4), dtype=bool), LrtcHyperParams())


def suffix_scenario():
    y, _ = intraday_scenario(seed=5, n_slots=24)
    future = np.zeros_like(y, dtype=bool)
    future[:, -1, 12:] = True
    return y, future


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_short_term_rejects_a_non_finite_observed_cell(bad):
    y, future = suffix_scenario()
    y[0, 0, 0] = bad
    with pytest.raises(ValueError, match="observed values must be finite"):
        short_term_predict(y, future, LrtcHyperParams(max_rank=4))
    # one behind a cell to predict is fine
    future[0, 0, 0] = True
    assert np.isfinite(short_term_predict(y, future, LrtcHyperParams(max_rank=4)).imputed).all()


def assert_unit_free(y, future, c):
    """``short_term_predict(c * y)`` keeps ``c * y``'s observed cells, and its completion
    is c times ``y``'s, at the same rank and convergence."""
    hp = LrtcHyperParams(max_rank=6)
    base, result = short_term_predict(y, future, hp), short_term_predict(c * y, future, hp)
    np.testing.assert_array_equal(result.imputed[~future], (c * y)[~future])
    np.testing.assert_allclose(result.imputed, c * base.imputed, rtol=1e-9, atol=0)
    np.testing.assert_allclose(result.predictive_variance, c**2 * base.predictive_variance,
                               rtol=1e-9, atol=0)
    assert result.effective_rank == base.effective_rank
    assert result.converged == base.converged


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_short_term_completion_does_not_depend_on_the_unit(c):
    assert_unit_free(*suffix_scenario(), c)


def test_short_term_completion_does_not_depend_on_each_stations_unit():
    c = np.array([1e-3, 1e3, 1.0, 7.0, 1e-3, 1e3, 0.5, 20.0, 1e3, 1e-3])[:, None, None]
    assert_unit_free(*suffix_scenario(), c)


def test_station_without_observed_flow_keeps_unit_one():
    filled = np.zeros((3, 2, 2))
    mask = np.ones(filled.shape, dtype=bool)
    mask[2] = False  # station 2 has no observed cell, station 1 only zeros
    filled[0] = [[3.0, -3.0], [3.0, 3.0]]
    np.testing.assert_array_equal(lrtc._station_units(filled, mask).ravel(), [3.0, 1.0, 1.0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_completion_ends_on_the_stop_rule(monkeypatch, seed):
    fit, posts = lrtc._fit, []

    def spy(*args):
        posts.append(fit(*args))
        return posts[-1]

    monkeypatch.setattr(lrtc, "_fit", spy)
    spec = SyntheticSpec(extents=(12, 56, 48), seed=seed)
    y, _ = generate_synthetic(spec)
    future = np.zeros_like(y, dtype=bool)
    future[:, -1, 15:] = True
    labels = planted_labels(spec)
    hp = LrtcHyperParams(max_rank=8)
    for c in np.unique(labels):
        short_term_predict(y[labels == c], future[labels == c], hp)
    assert len(posts) == spec.n_clusters
    assert all(p.converged and len(p.elbo) < hp.max_iters for p in posts)
