"""Bayesian low-rank tensor completion by mean-field variational inference.

Generative model: the tensor is a CP sum whose factor rows carry zero-mean
Gaussian priors with a shared per-component precision vector lambda, each
lambda_r has a Gamma prior, observation noise is Gaussian with Gamma
precision tau, and the likelihood touches observed cells only.  All
conditionals are conjugate, so coordinate ascent gives closed-form Gaussian
row posteriors and Gamma posteriors for lambda and tau, with a monotone
evidence lower bound.  Each sweep's observed-cell statistics are MTTKRPs on
the dimension tree ``cp_fit`` sweeps with (``tensor_ops._tree_mttkrps``).

A row's posterior precision depends only on which of its cells are observed,
so the rows of a mode that share a mask pattern share one covariance: each
sweep inverts one precision per pattern and gathers it back to the rows, and
the bound's entropy takes one log-determinant per pattern.  A suffix mask
such as today's missing slots has one or two patterns per mode.

Components whose posterior-mean precision exceeds ``PRUNE_RATIO`` times the
smallest are candidates for removal as the sweeps proceed; a candidate set
is dropped only when doing so does not lower the bound, which keeps the
ELBO trace monotone and turns ``max_rank`` into an upper bound (automatic
rank determination).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.special import digamma, gammaln

from .tensor_ops import _split, _tree_mttkrps, as_mask

PRUNE_RATIO = 100.0


@dataclass
class LrtcHyperParams:
    """Gamma hyperparameters, rank cap, sweep budget, and ELBO stop tolerance."""

    a0: float = 1e-6
    b0: float = 1e-6
    c0: float = 1e-6
    d0: float = 1e-6
    max_rank: int = 10
    max_iters: int = 100
    elbo_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if min(self.a0, self.b0, self.c0, self.d0) <= 0:
            raise ValueError("Gamma hyperparameters must be > 0")
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.elbo_tol <= 0:
            raise ValueError("elbo_tol must be > 0")


@dataclass
class LrtcPosterior:
    """Mean-field posterior: Gaussian factor rows, Gamma lambda and tau.

    ``factor_means[k]`` is I_k x R, ``factor_covs[k]`` is I_k x R x R (one
    covariance per row), ``lambda_post`` is a (shapes, rates) pair of length-R
    arrays, ``tau_post`` a scalar (shape, rate) pair.  ``elbo`` records the
    bound after every sweep; ``converged`` is true only when the ELBO stop
    rule ended the fit, not the sweep budget.
    """

    factor_means: list
    factor_covs: list
    lambda_post: tuple
    tau_post: tuple
    elbo: list = field(default_factory=list)
    converged: bool = False

    @property
    def shape(self) -> tuple:
        return tuple(m.shape[0] for m in self.factor_means)

    @property
    def rank(self) -> int:
        return int(self.factor_means[0].shape[1])

    @property
    def lambda_mean(self) -> np.ndarray:
        return self.lambda_post[0] / self.lambda_post[1]

    @property
    def tau_mean(self) -> float:
        return float(self.tau_post[0] / self.tau_post[1])


def _second_moments(means, covs):
    return [m[:, :, None] * m[:, None, :] + v for m, v in zip(means, covs)]


def _row_groups(mask):
    """Per mode, ``(first, index, counts)`` over the rows that share a mask pattern:
    each group's first row, each row's group and the group sizes.  Each row's packed
    bits are one byte-string key, which ``np.unique`` sorts far faster than rows."""
    groups = []
    for k, extent in enumerate(mask.shape):
        rows = np.ascontiguousarray(np.moveaxis(mask, k, 0)).reshape(extent, -1)
        bits = np.packbits(rows, axis=1)
        keys = bits.view(f"V{bits.shape[1]}").ravel()
        groups.append(np.unique(keys, return_index=True, return_inverse=True,
                                return_counts=True)[1:])
    return groups


def _gamma_terms(shape):
    """A Gamma shape with its digamma and gammaln, which stay fixed while its rate moves."""
    return shape, digamma(shape), gammaln(shape)


def _gathered_product(arrs, idx):
    return reduce(np.multiply, [a[i] for a, i in zip(arrs, idx)])


def _statistics(seen, filled, split, means, moments):
    """Yield ``(k, s, proj)`` per mode k, the observed-cell sums of the other modes' second
    moments and of y times their means: the tree MTTKRPs of the float mask ``seen`` and
    the zero-filled ``filled``.  Updates to ``means[k]`` and ``moments[k]`` reach mode k+1."""
    flat = [v.reshape(v.shape[0], -1) for v in moments]
    for (k, s), (_, proj) in zip(_tree_mttkrps(seen, flat, split),
                                 _tree_mttkrps(filled, means, split)):
        yield k, s.reshape(moments[k].shape), proj
        flat[k] = moments[k].reshape(flat[k].shape)


def _error_from_statistics(sum_y2, s, proj, mean, moment):
    """E||y - reconstruction||^2 over the observed cells, from one mode's statistics."""
    return max(float(sum_y2 - 2.0 * np.sum(proj * mean) + np.sum(s * moment)), 0.0)


def _elbo(hp, n, err, group_covs, counts, c_terms, d_rate, a_terms, b_rate):
    """The bound; ``group_covs`` holds one covariance per row group of every mode and
    ``counts`` the rows in each, so the entropy takes one log-determinant per group."""
    rank = d_rate.size
    c_shape, digamma_c, gammaln_c = c_terms
    a_shape, digamma_a, gammaln_a = a_terms
    e_tau = a_shape / b_rate
    eln_tau = digamma_a - np.log(b_rate)
    e_lam = c_shape / d_rate
    eln_lam = digamma_c - np.log(d_rate)
    n_rows = counts.sum()

    like = 0.5 * n * (eln_tau - np.log(2 * np.pi)) - 0.5 * e_tau * err
    # factor prior; sum_k sum_i E[u^2] per component is 2 (d_rate - d0)
    prior_u = (0.5 * n_rows * (eln_lam.sum() - rank * np.log(2 * np.pi))
               - np.sum(e_lam * (d_rate - hp.d0)))
    prior_lam = np.sum(hp.c0 * np.log(hp.d0) - gammaln(hp.c0)
                       + (hp.c0 - 1.0) * eln_lam - hp.d0 * e_lam)
    prior_tau = (hp.a0 * np.log(hp.b0) - gammaln(hp.a0)
                 + (hp.a0 - 1.0) * eln_tau - hp.b0 * e_tau)
    logdets = np.linalg.slogdet(np.concatenate(group_covs))[1]
    ent_u = 0.5 * (n_rows * rank * (1.0 + np.log(2 * np.pi)) + counts @ logdets)
    ent_lam = np.sum(c_shape - np.log(d_rate) + gammaln_c + (1.0 - c_shape) * digamma_c)
    ent_tau = a_shape - np.log(b_rate) + gammaln_a + (1.0 - a_shape) * digamma_a
    return float(like + prior_u + prior_lam + prior_tau + ent_u + ent_lam + ent_tau)


def lrtc_fit(y, mask, hp: LrtcHyperParams, prune: bool = True) -> LrtcPosterior:
    """Variational posterior for the completion model on the observed cells.

    ``mask`` flags observed cells.  ``prune=False`` disables automatic rank
    determination (useful for threshold sanity checks).
    """
    y = np.asarray(y, dtype=np.float64)
    mask = as_mask(mask, y.shape)
    if not np.all(np.isfinite(y[mask])):
        raise ValueError("observed values must be finite")

    y_obs = y[mask]
    n = y_obs.size
    rank = hp.max_rank
    extents = y.shape
    split = _split(extents)
    seen, filled = mask.astype(np.float64), np.where(mask, y, 0.0)  # a missing cell may hold nan
    sum_y2 = float(np.sum(y_obs**2))

    rng = np.random.default_rng(hp.seed)
    # a constant block has zero std; its RMS keeps the initial factors off zero
    std = float(y_obs.std()) or float(np.sqrt(np.mean(y_obs**2)))
    scale = (max(std, 1e-12) / np.sqrt(rank)) ** (1.0 / y.ndim)
    means = [rng.normal(0.0, scale, size=(i, rank)) for i in extents]
    groups = _row_groups(mask)
    counts = np.concatenate([c for _, _, c in groups])
    group_covs = [np.tile(scale**2 * np.eye(rank), (first.size, 1, 1)) for first, _, _ in groups]
    covs = [v[index] for v, (_, index, _) in zip(group_covs, groups)]
    moments = _second_moments(means, covs)
    e_lam = np.ones(rank)
    var = float(y_obs.var())
    e_tau = 1.0 / var if var > 0 else 1.0
    c_terms = _gamma_terms(np.full(rank, hp.c0) + 0.5 * sum(extents))
    d_rate = np.full(rank, hp.d0)
    a_terms = _gamma_terms(hp.a0 + 0.5 * n)
    a_shape = a_terms[0]
    b_rate = hp.b0

    elbo_trace = []
    prev = None
    converged = False
    for _ in range(hp.max_iters):
        for k, s, proj in _statistics(seen, filled, split, means, moments):
            first, index, _ = groups[k]
            v = np.linalg.inv(np.diag(e_lam)[None, :, :] + e_tau * s[first])
            group_covs[k] = 0.5 * (v + v.swapaxes(1, 2))
            covs[k] = group_covs[k][index]
            means[k] = e_tau * np.einsum("irs,is->ir", covs[k], proj)
            moments[k] = means[k][:, :, None] * means[k][:, None, :] + covs[k]

        d_rate = hp.d0 + 0.5 * sum((m**2 + np.diagonal(v, axis1=1, axis2=2)).sum(axis=0)
                                   for m, v in zip(means, covs))
        e_lam = c_terms[0] / d_rate

        # the last mode's statistics already hold every other mode's update
        err = _error_from_statistics(sum_y2, s, proj, means[-1], moments[-1])
        b_rate = hp.b0 + 0.5 * err
        e_tau = a_shape / b_rate
        elbo = _elbo(hp, n, err, group_covs, counts, c_terms, d_rate, a_terms, b_rate)

        pruned = False
        keep = e_lam <= PRUNE_RATIO * e_lam.min()
        if prune and rank > 1 and not keep.all():
            cut_means = [m[:, keep] for m in means]
            cut_group_covs = [v[:, keep][:, :, keep] for v in group_covs]
            cut_covs = [v[:, keep][:, :, keep] for v in covs]
            cut_moments = _second_moments(cut_means, cut_covs)
            cut_err = _error_from_statistics(sum_y2, s[:, keep][:, :, keep], proj[:, keep],
                                             cut_means[-1], cut_moments[-1])
            cut_b = hp.b0 + 0.5 * cut_err
            cut_c_terms = tuple(term[keep] for term in c_terms)
            cut_elbo = _elbo(hp, n, cut_err, cut_group_covs, counts, cut_c_terms, d_rate[keep],
                             a_terms, cut_b)
            if cut_elbo >= elbo:
                pruned = True
                rank = int(keep.sum())
                means, group_covs, covs, moments = cut_means, cut_group_covs, cut_covs, cut_moments
                e_lam, c_terms, d_rate = e_lam[keep], cut_c_terms, d_rate[keep]
                b_rate, e_tau, elbo = cut_b, a_shape / cut_b, cut_elbo

        elbo_trace.append(elbo)
        if not pruned and prev is not None and abs(elbo - prev) < hp.elbo_tol * max(
                1.0, abs(prev)):
            converged = True
            break
        prev = elbo

    return LrtcPosterior(means, covs, (c_terms[0], d_rate), (a_shape, b_rate), elbo_trace,
                         converged)


@dataclass
class CompletionResult:
    """Completed tensor, per-cell predictive variance, surviving rank, and convergence."""

    imputed: np.ndarray
    predictive_variance: np.ndarray
    effective_rank: int
    converged: bool = False


def lrtc_predict(post: LrtcPosterior, mask, y) -> CompletionResult:
    """Posterior-predictive completion: observed cells pass through untouched.

    Missing-cell means are inner products of the factor-row means; variances
    combine the exact second moment of that product over the independent row
    posteriors with the noise term 1/E[tau].
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != post.shape:
        raise ValueError(f"tensor shape {y.shape} does not match posterior {post.shape}")
    mask = as_mask(mask, y.shape)

    missing = np.nonzero(~mask)
    moments = _second_moments(post.factor_means, post.factor_covs)
    mean = _gathered_product(post.factor_means, missing).sum(axis=1)
    second = _gathered_product(moments, missing).sum(axis=(1, 2))
    noise = post.tau_post[1] / post.tau_post[0]

    imputed = y.copy()
    imputed[missing] = mean
    variance = np.zeros_like(y)
    variance[missing] = np.maximum(second - mean**2, 0.0) + noise
    return CompletionResult(imputed, variance, post.rank, post.converged)


def short_term_predict(t, future_mask, hp: LrtcHyperParams,
                       history_days: int = None) -> CompletionResult:
    """Complete the cells flagged by ``future_mask`` from the rest of ``t``.

    ``future_mask`` marks the cells to predict (missing).  Every day slice
    must keep at least one observed cell: completion works along the closed
    location and intra-day axes, never by extending the day axis.  An
    optional ``history_days`` window restricts the fit to the trailing days;
    cells outside the window pass through unchanged.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError("expected a 3-way tensor (locations x days x slots)")
    future_mask = as_mask(future_mask, t.shape, require_nonempty=False)
    fully_missing = future_mask.all(axis=(0, 2))
    if fully_missing.any():
        raise ValueError("a day slice is entirely missing; the day axis cannot be extended")
    if not future_mask.any():  # nothing to fit, so nothing left unconverged
        return CompletionResult(t.copy(), np.zeros_like(t), 0, True)

    n_days = t.shape[1]
    start = 0
    if history_days is not None:
        if history_days < 1:
            raise ValueError("history_days must be >= 1")
        start = max(0, n_days - history_days)
        if future_mask[:, :start, :].any():
            raise ValueError("cells to predict fall outside the history window")

    window = t[:, start:, :]
    window_missing = future_mask[:, start:, :]
    post = lrtc_fit(window, ~window_missing, hp)
    completed = lrtc_predict(post, ~window_missing, window)

    imputed = t.copy()
    imputed[:, start:, :] = completed.imputed
    variance = np.zeros_like(t)
    variance[:, start:, :] = completed.predictive_variance
    return CompletionResult(imputed, variance, completed.effective_rank, completed.converged)
