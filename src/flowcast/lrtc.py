"""Bayesian low-rank tensor completion by mean-field variational inference.

Generative model: the tensor is a CP sum whose factor rows carry zero-mean
Gaussian priors with a shared per-component precision vector lambda, each
lambda_r has a Gamma prior, observation noise is Gaussian with Gamma
precision tau, and the likelihood touches observed cells only.  All
conditionals are conjugate, so coordinate ascent gives closed-form Gaussian
row posteriors and Gamma posteriors for lambda and tau, with a monotone
evidence lower bound.

A row's posterior precision depends only on which of its cells are observed,
so the rows of a mode that share a mask pattern share one covariance: each
sweep inverts one precision per pattern and gathers it back to the rows, and
the bound's entropy takes one log-determinant per pattern.  A suffix mask
such as today's missing slots has one or two patterns per mode.  Each sweep's
sums of y times the other modes' means are MTTKRPs of the zero-filled data on
the dimension tree ``cp_fit`` sweeps with (``tensor_ops._tree_steps``); the
rank-R² sums of their second moments are formed at each pattern's first row
alone, by contracting that row's mask slice with the other modes' moments one
mode at a time.  The slices are cut once per fit, and cast to float64 then
too where they hold no more cells than the mask (a suffix mask's hold about a
quarter), so no sweep casts them; a mask whose rows mostly differ keeps them
boolean.  Both are bound to the fit's lists of means and moments once per
fit, and again after a pruning sweep.  The bound's error term meets each
last-mode group's sums with that group's second moments summed, one product
with a group-indicator matrix built once per fit.  The bound's terms that no
sweep moves (the fixed Gamma shapes' digamma and gammaln, the priors'
constants, the row count) are computed once per fit, and each sweep
evaluates the rest, and its tests of the R rates and precisions for a dying
component and for pruning, on Python floats.

Every Gamma prior is the fixed broad Gamma(``PRIOR``, ``PRIOR``) of Zhao, Zhang
& Cichocki (2015), and pruning always runs: components whose posterior-mean
precision exceeds ``PRUNE_RATIO`` times the smallest are candidates for
removal as the sweeps proceed; a candidate set is dropped only when doing so
does not lower the bound, which keeps the ELBO trace monotone and turns
``max_rank`` into an upper bound (automatic rank determination).

A dying component can outlive that test for a few sweeps while its means fall
doubly exponentially (each mode's are y times the product of the others'),
into subnormal numbers, on which BLAS runs about 60 times slower.  Its rate
falls every sweep: with its means near zero, the rate is half the sum of its
row variances, each below the last 1/E[lambda_r].  So in the sweep after any
rate falls below ``DYING_FALL`` times its last value, each mode's new
covariances, means and moments have their subnormal entries set to zero; a
sweep after which no rate falls pays only that test of the R rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.special import digamma, gammaln

from .tensor_ops import _error_from_statistics, _split, _SweepTrace, _tree_steps, as_mask, as_whole

PRIOR = 1e-6  # shape and rate of every Gamma prior, on lambda and on tau
LOG_2PI = math.log(2 * math.pi)
# a Gamma(PRIOR, PRIOR) prior's E[ln p(x)] is this plus (PRIOR - 1) E[ln x] - PRIOR E[x]
PRIOR_LOG_NORM = PRIOR * math.log(PRIOR) - math.lgamma(PRIOR)
PRUNE_RATIO = 100.0
# a rate below this share of its last value marks a dying component (see above)
DYING_FALL = 0.9
TINY = np.finfo(np.float64).tiny  # the smallest normal float64


@dataclass
class LrtcHyperParams:
    """Rank cap, sweep budget, and the ELBO stop tolerance: the fit stops once two sweeps'
    bounds differ by under ``max(elbo_tol * |previous|, eps)``.  The Gamma priors are the
    fixed broad Gamma(``PRIOR``, ``PRIOR``), and pruning always runs.

    ``elbo_tol`` 1e-4 is the largest tolerance tried whose completions were no worse
    than 100 sweeps at 1e-6 (a rule that never fired).  It was chosen on per-cluster
    completions of a 12 x 56 x 48 synthetic tensor's last day from slot 15 (planted
    clusters, ``max_rank`` 8, ``short_term_predict``'s unit-free data), seeds 0-19: mean
    RES 0.0718 against 0.0731, every fit converged, median 60 sweeps and at most 129.  On
    seeds 20-39 it gave 0.0805 against 0.0808 in a median 55 sweeps and at most 233,
    where 1.5e-4 and 2e-4 were worse than the old rule.  ``max_iters`` 1000 leaves room
    for the slowest."""

    max_rank: int = 10
    max_iters: int = 1000
    elbo_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        self.max_rank = as_whole(self.max_rank, "max_rank")
        self.max_iters = as_whole(self.max_iters, "max_iters")
        self.seed = as_whole(self.seed, "seed", minimum=0)
        if not 0 < self.elbo_tol < math.inf:
            raise ValueError("elbo_tol must be finite and > 0")


@dataclass
class LrtcPosterior:
    """Mean-field posterior: Gaussian factor rows, Gamma lambda and tau.

    ``factor_means[k]`` is I_k x R, ``factor_covs[k]`` is I_k x R x R (one
    covariance per row), ``lambda_post`` is a (shapes, rates) pair of length-R
    arrays, ``tau_post`` a scalar (shape, rate) pair.  ``elbo`` lists the bound
    after every sweep in the record ``cp_fit`` returns as its history, and ``converged``,
    read from it, is true only when the stop rule ended the fit, not the sweep budget.  A
    fit with some mode's means all zero on observed cells that are not never converged.
    """

    factor_means: list
    factor_covs: list
    lambda_post: tuple
    tau_post: tuple
    elbo: list = field(default_factory=_SweepTrace)
    converged = property(lambda self: self.elbo.converged)

    @property
    def shape(self) -> tuple:
        return tuple(m.shape[0] for m in self.factor_means)

    @property
    def rank(self) -> int:
        return int(self.factor_means[0].shape[1])


def _second_moments(means, covs):
    return [m[:, :, None] * m[:, None, :] + v for m, v in zip(means, covs)]


def _flush_subnormals(*arrays):
    """Set the entries of ``arrays`` below ``TINY`` in magnitude to zero, in place."""
    for a in arrays:
        a[np.abs(a) < TINY] = 0.0


def _row_groups(mask):
    """Per mode, ``(first, index, counts)`` over the rows that share a mask pattern, in
    first-row order: each group's first row, each row's group and the group sizes.  Each
    row's packed bits are one byte-string key, which ``np.unique`` sorts far faster."""
    groups = []
    for k, extent in enumerate(mask.shape):
        rows = np.ascontiguousarray(np.moveaxis(mask, k, 0)).reshape(extent, -1)
        bits = np.packbits(rows, axis=1)
        keys = bits.view(f"V{bits.shape[1]}").ravel()
        first, index, counts = np.unique(keys, return_index=True, return_inverse=True,
                                         return_counts=True)[1:]
        order = np.argsort(first)
        groups.append((first[order], np.argsort(order)[index.ravel()], counts[order]))
    return groups


def _group_indicator(group):
    """The indicator matrix of one mode's ``_row_groups`` entry, groups x rows: row g
    flags the rows of group g, so its product with per-row values sums them per group."""
    first, index, _ = group
    return np.equal.outer(np.arange(first.size), index).astype(np.float64)


def _gamma_terms(shape):
    """A Gamma shape with its digamma and gammaln, which stay fixed while its rate moves."""
    return shape, float(digamma(shape)), float(gammaln(shape))


def _gathered_product(arrs, idx):
    return reduce(np.multiply, [a[i] for a, i in zip(arrs, idx)])


def _pattern_rows(mask, groups):
    """Per mode k, the mask rows at k's first rows, mode k leading, the others in order:
    cut once per fit, they are all ``_statistics`` reads of the mask.  Where they hold no
    more cells than the mask, as on a suffix mask, they are cast to float64 here, so no
    sweep casts them; otherwise (a mask whose rows mostly differ) they stay boolean."""
    rows = [np.moveaxis(mask, k, 0)[first] for k, (first, _, _) in enumerate(groups)]
    if sum(r.size for r in rows) <= mask.size:
        rows = [r.astype(np.float64) for r in rows]
    return rows


def _statistics(rows, filled, split, means, moments):
    """Bind each sweep's statistics to the lists ``means`` and ``moments`` once per fit:
    ``(k, step)`` per mode k in order, where ``step()`` returns ``(s, proj)``.  ``s`` sums
    the other modes' second moments over the observed cells of each of mode k's first
    rows, ``rows[k]`` (``_pattern_rows``) contracted with their moments flattened to
    I_j x R², one mode at a time from the last, and ``proj`` is y times their means at
    every row, the tree MTTKRP of the zero-filled ``filled``.  Each step reads the lists
    when it is called, so updates to ``means[k]`` and ``moments[k]`` reach mode k+1; a
    pruning sweep, which cuts the rank, binds anew."""
    return [(k, _statistics_step(rows[k], proj, [j for j in range(len(means)) if j != k],
                                 moments)) for k, proj in _tree_steps(filled, means, split)]


def _statistics_step(rows, proj, others, moments):
    """The step of ``_statistics`` for the mode whose pattern rows are ``rows``."""
    *rest, last = others
    rest.reverse()
    rank = moments[last].shape[1]
    flat = rank * rank

    def step():
        s = rows @ moments[last].reshape(-1, flat)
        for j in rest:
            s = np.einsum("...jq,jq->...q", s, moments[j].reshape(-1, flat))
        return s.reshape(-1, rank, rank), proj()
    return step


def _elbo(stats, group_covs, d_rate, e_lam, fixed):
    """The bound and tau's rate, from the last mode's ``stats`` for ``_error_from_statistics``,
    whose sums and second moments are both per row group (the moments summed over each
    group's rows, by ``_group_indicator``); ``group_covs`` holds one covariance per row
    group of every mode, and ``fixed`` the fit's cell count, rows per group, row count and
    lambda's and tau's ``_gamma_terms``, so the entropy takes one log-determinant per group."""
    n, counts, n_rows, (c_shape, digamma_c, gammaln_c), (a_shape, digamma_a, gammaln_a) = fixed
    err = _error_from_statistics(*stats)
    b_rate = PRIOR + 0.5 * err
    rank = d_rate.size
    log_b = math.log(b_rate)
    e_tau = a_shape / b_rate
    eln_tau = digamma_a - log_b
    sum_log_d = float(np.log(d_rate).sum())
    sum_eln_lam = rank * digamma_c - sum_log_d

    like = 0.5 * n * (eln_tau - LOG_2PI) - 0.5 * e_tau * err
    # factor prior; sum_k sum_i E[u^2] per component is 2 (d_rate - PRIOR)
    prior_u = 0.5 * n_rows * (sum_eln_lam - rank * LOG_2PI) - float(e_lam @ (d_rate - PRIOR))
    prior_lam = rank * PRIOR_LOG_NORM + (PRIOR - 1.0) * sum_eln_lam - PRIOR * float(e_lam.sum())
    prior_tau = PRIOR_LOG_NORM + (PRIOR - 1.0) * eln_tau - PRIOR * e_tau
    logdets = np.linalg.slogdet(np.concatenate(group_covs))[1]
    ent_u = 0.5 * (n_rows * rank * (1.0 + LOG_2PI) + float(counts @ logdets))
    ent_lam = rank * (c_shape + gammaln_c + (1.0 - c_shape) * digamma_c) - sum_log_d
    ent_tau = a_shape - log_b + gammaln_a + (1.0 - a_shape) * digamma_a
    return like + prior_u + prior_lam + prior_tau + ent_u + ent_lam + ent_tau, b_rate


def lrtc_fit(y, mask, hp: LrtcHyperParams) -> LrtcPosterior:
    """Variational posterior for the completion model on the observed cells.

    ``y`` has at least 2 modes and ``mask`` flags its observed cells.  The fit works in the
    units it is given: its starting values and its Gamma priors are in those units, so the
    same counts in another unit complete differently.  ``short_term_predict`` is the
    unit-free entry point.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim < 2:
        raise ValueError(f"tensor must have at least 2 modes, got {y.ndim}")
    mask = as_mask(mask, y.shape)
    y_obs = y[mask]
    if not np.all(np.isfinite(y_obs)):
        raise ValueError("observed values must be finite")
    observed = _observed_moments(y_obs)
    del y_obs
    return _fit(np.where(mask, y, 0.0), mask, observed, hp)  # a missing cell may hold nan


def _observed_moments(y_obs):
    """The count, variance and sum of squares of the observed values ``y_obs``, a copy
    that is squared in place."""
    var = float(y_obs.var())
    return y_obs.size, var, float(np.sum(np.square(y_obs, out=y_obs)))


def _fit(filled, mask, observed, hp):
    """``lrtc_fit``'s sweeps on ``filled``, the data zero-filled off ``mask``, a buffer this
    loop owns, with ``observed`` from ``_observed_moments``.  The sweeps carry one state,
    the factor means, one covariance per mask-pattern group and the second moments;
    everything else is derived from it or constant."""
    n, var, sum_y2 = observed
    rank = hp.max_rank
    extents = filled.shape
    split = _split(extents)

    rng = np.random.default_rng(hp.seed)
    # a constant block has zero std; its RMS keeps the initial factors off zero
    std = math.sqrt(var) or math.sqrt(sum_y2 / n)
    scale = (max(std, 1e-12) / np.sqrt(rank)) ** (1.0 / filled.ndim)
    means = [rng.normal(0.0, scale, size=(i, rank)) for i in extents]
    groups = _row_groups(mask)
    rows = _pattern_rows(mask, groups)
    index = [i for _, i, _ in groups]  # each row's group, per mode
    members = _group_indicator(groups[-1])  # sums the last mode's moments per group
    counts = np.concatenate([c for _, _, c in groups])
    group_covs = [None] * filled.ndim  # each sweep sets one covariance per mask-pattern group
    eye = np.eye(rank)
    moments = _second_moments(means, [scale**2 * eye] * filled.ndim)
    e_lam = np.ones(rank)
    d_rate, flush = np.zeros(rank), False  # no rate has fallen before the first sweep
    e_tau = 1.0 / var if var > 0 else 1.0
    # every lambda_r has the same Gamma shape, and tau's shape is fixed by the cell count
    c_terms = _gamma_terms(PRIOR + 0.5 * sum(extents))
    a_terms = _gamma_terms(PRIOR + 0.5 * n)
    fixed = (n, counts, int(counts.sum()), c_terms, a_terms)

    steps = _statistics(rows, filled, split, means, moments)
    elbo_trace = _SweepTrace()
    for _ in range(hp.max_iters):
        lam = e_lam * eye  # the factor rows' prior precision
        for k, step in steps:
            s, proj = step()
            v = e_tau * s
            v += lam
            v = np.linalg.inv(v)
            group_covs[k] = v = np.add(v, v.swapaxes(1, 2))
            v *= 0.5
            cov = v.take(index[k], 0)  # each row's group covariance
            means[k] = m = e_tau * np.einsum("irs,is->ir", cov, proj)
            moments[k] = mom = m[:, :, None] * m[:, None, :]
            mom += cov
            if flush:
                _flush_subnormals(v, m, mom)

        # diag(m m^T + V) = m^2 + diag V, summed over every row of every mode
        rate = PRIOR + 0.5 * reduce(np.add, [v.diagonal(0, 1, 2).sum(0) for v in moments])
        flush = any(r < DYING_FALL * d for r, d in zip(rate.tolist(), d_rate.tolist()))
        d_rate = rate
        e_lam = c_terms[0] / d_rate

        # the last mode's statistics already hold every other mode's update
        grouped = (members @ moments[-1].reshape(extents[-1], -1)).reshape(s.shape)
        elbo, b_rate = _elbo((sum_y2, s, proj, means[-1], grouped), group_covs, d_rate,
                             e_lam, fixed)

        pruned = False
        lams = e_lam.tolist()
        cap = PRUNE_RATIO * min(lams)
        if max(lams) > cap:
            keep = e_lam <= cap
            # the last axis sliced first lays each moment out as m m^T + V on the cut means
            # would, so the next sweep's sums run in the same order
            cut = ([m[:, keep] for m in means], [v[:, :, keep][:, keep] for v in group_covs],
                   [v[:, :, keep][:, keep] for v in moments])
            cut_elbo, cut_b = _elbo((sum_y2, s[:, keep][:, :, keep], proj[:, keep], cut[0][-1],
                                     grouped[:, keep][:, :, keep]), cut[1], d_rate[keep],
                                    e_lam[keep], fixed)
            if cut_elbo >= elbo:
                pruned = True
                (means, group_covs, moments), e_lam, d_rate, b_rate, elbo = (
                    cut, e_lam[keep], d_rate[keep], cut_b, cut_elbo)
                eye = eye[keep][:, keep]
                steps = _statistics(rows, filled, split, means, moments)
        e_tau = a_terms[0] / b_rate

        elbo_trace.append(elbo)
        if not pruned and elbo_trace.settled(hp.elbo_tol):  # a pruning sweep never stops the fit
            # a fit that settles at zero factors on nonzero data has not converged
            elbo_trace.converged = sum_y2 == 0 or all(m.any() for m in means)
            break

    covs = [v[i] for v, i in zip(group_covs, index)]
    return LrtcPosterior(means, covs, (np.full(d_rate.size, c_terms[0]), d_rate),
                         (a_terms[0], b_rate), elbo_trace)


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


def _station_units(filled, mask):
    """Each station's unit, shaped to broadcast over its cells: the RMS of its observed
    cells, read from ``filled`` (zero off ``mask``) by ``einsum`` with no squared copy, or
    1 for a station with no observed cell or only zeros."""
    sum_sq = np.einsum("ijk,ijk->i", filled, filled)
    n_obs = np.maximum(np.count_nonzero(mask, axis=(1, 2)), 1)
    return np.where(sum_sq > 0, np.sqrt(sum_sq / n_obs), 1.0)[:, None, None]


def short_term_predict(t, future_mask, hp: LrtcHyperParams) -> CompletionResult:
    """Complete the cells flagged by ``future_mask`` from the rest of ``t``.

    ``future_mask`` marks the cells to predict (missing).  Every day slice
    must keep at least one observed cell: completion works along the closed
    location and intra-day axes, never by extending the day axis.

    The completion is unit-free: each station is divided by its unit, the RMS
    of its observed cells, for the fit, and its imputed cells and variances are
    scaled back, so counts in any unit, or in a different unit per station,
    complete alike.  Observed cells are copied from ``t``.
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
    mask = ~future_mask
    filled = np.where(mask, t, 0.0)  # the fit's one zero-filled copy, rescaled in place
    if not np.isfinite(filled).all():
        raise ValueError("observed values must be finite")
    unit = _station_units(filled, mask)
    filled /= unit
    post = _fit(filled, mask, _observed_moments(filled[mask]), hp)
    del filled  # freed before lrtc_predict makes its two full-size outputs
    result = lrtc_predict(post, mask, t)
    np.multiply(result.imputed, unit, out=result.imputed, where=future_mask)
    result.predictive_variance *= unit**2  # zero on observed cells
    return result
