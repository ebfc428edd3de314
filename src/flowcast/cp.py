"""CP decomposition by alternating least squares, with holdout rank selection.

The fitted :class:`CpModel` keeps the weight vector explicit (unit-norm factor
columns, weights sorted non-increasing).  Downstream consumers that need the
weights folded into a factor do the folding themselves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .tensor_ops import (
    DegenerateSolveWarning,
    as_mask,
    as_tensor,
    cp_reconstruct,
    fold,
    khatri_rao_all,
    relative_residual,
    unfold,
)

PINV_RCOND = 1e-12
# squared relative error (1e-3 unsquared) down to which the fit error comes from
# the Gram identity; its cancellation moves it by under about 1e-12 there
GRAM_ERR_FLOOR = 1e-6


@dataclass
class CpModel:
    """Weighted sum of rank-one components: weights (R,) and one (I_k, R) factor per mode."""

    weights: np.ndarray
    factors: list

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        ranks = {f.shape[1] for f in self.factors}
        if len(ranks) != 1 or ranks != {self.weights.shape[0]}:
            raise ValueError("all factors and the weight vector must share one rank")

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def shape(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)


@dataclass
class AlsConfig:
    """ALS knobs: target rank, sweep budget, relative fit-change tolerance, init seed."""

    rank: int
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


def _check_rank_feasible(shape, rank):
    cap = min(int(np.prod([s for j, s in enumerate(shape) if j != k])) for k in range(len(shape)))
    if rank > cap:
        raise ValueError(f"rank {rank} infeasible for shape {tuple(shape)} (max {cap})")


def _gram_hadamard(factors, skip):
    g = None
    for k, f in enumerate(factors):
        if k == skip:
            continue
        gk = f.T @ f
        g = gk if g is None else g * gk
    return g


def _solve_mode(t_unf, factors, mode):
    """Weight-absorbed least-squares update of one factor, others held fixed.

    Takes the mode-``mode`` unfolding and also returns the Khatri-Rao matrix
    of the other factors (``factor @ kr.T`` is the model's unfolding), the
    MTTKRP ``t_unf @ kr`` and the Gram Hadamard ``g == kr.T @ kr``.
    """
    kr = khatri_rao_all(factors, mode)
    g = _gram_hadamard(factors, mode)
    mttkrp = t_unf @ kr
    return mttkrp @ np.linalg.pinv(g, rcond=PINV_RCOND), kr, mttkrp, g


def _normalize_columns(a):
    norms = np.linalg.norm(a, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return a / safe, norms


def _sorted_model(weights, factors):
    order = np.argsort(-weights, kind="stable")
    return CpModel(weights[order], [f[:, order] for f in factors])


def cp_fit(t, cfg: AlsConfig, observed=None):
    """Fit a rank-``cfg.rank`` CP model to ``t`` by alternating least squares.

    Returns ``(model, history)`` where ``history`` holds the relative
    reconstruction error after each sweep.  Stops when the error change
    between sweeps drops below ``cfg.tol`` or after ``cfg.max_iters`` sweeps.

    The unfoldings of ``t`` are built once per fit.  Each sweep's squared
    error is the Gram identity (Kolda & Bader 2009) on the last mode's solve,
    ``||X||^2 - 2 sum(K * A) + sum((A.T @ A) * G)`` for its MTTKRP ``K``,
    weight-absorbed factor ``A`` and Gram Hadamard ``G``, with no dense model.
    It cancels to noise below a relative error of about sqrt(eps), so at
    ``GRAM_ERR_FLOOR * ||X||^2`` or below the sweep takes the exact norm of
    ``X`` minus the model, that factor times the solve's Khatri-Rao matrix.

    With an ``observed`` mask, only those cells are fitted (EM-style masked
    ALS, Tomasi & Bro 2005): the other cells start at the observed mean and
    are re-imputed from the reconstruction after every sweep, and the error
    is measured on the observed cells alone.  An all-true mask is no mask.
    """
    t = as_tensor(t, min_modes=2)
    _check_rank_feasible(t.shape, cfg.rank)
    last = t.ndim - 1
    if observed is not None:
        observed = as_mask(observed, t.shape)
        if observed.all():
            observed = None
    if observed is None:
        unfoldings = [unfold(t, k) for k in range(t.ndim)]
        t_last = unfoldings[last]
        norm_t = np.linalg.norm(t)
    else:
        work = np.where(observed, t, float(t[observed].mean()))
        t_last, seen_last = unfold(t, last), unfold(observed, last)
        norm_t = np.linalg.norm(t[observed])
    rng = np.random.default_rng(cfg.seed)
    factors = [rng.uniform(-1.0, 1.0, size=(n, cfg.rank)) for n in t.shape]
    weights = np.ones(cfg.rank)

    history = []
    prev = None
    for _ in range(cfg.max_iters):
        if observed is not None:
            unfoldings = [unfold(work, k) for k in range(t.ndim)]
        for mode in range(t.ndim):
            raw, kr, mttkrp, g = _solve_mode(unfoldings[mode], factors, mode)
            factors[mode], weights = _normalize_columns(raw)
        if observed is None:
            err2 = norm_t**2 - 2 * np.sum(mttkrp * raw) + np.sum((raw.T @ raw) * g)
            if err2 > GRAM_ERR_FLOOR * norm_t**2:
                err = np.sqrt(err2)
            else:
                err = np.linalg.norm(t_last - (factors[last] * weights) @ kr.T)
        else:
            recon = (factors[last] * weights) @ kr.T
            work = fold(np.where(seen_last, t_last, recon), last, t.shape)
            err = np.linalg.norm((t_last - recon)[seen_last])
        err = 0.0 if norm_t == 0 else float(err / norm_t)
        history.append(err)
        if prev is not None and abs(prev - err) < cfg.tol:
            break
        prev = err
    return _sorted_model(weights, factors), history


def cp_solve_mode(t, model: CpModel, mode: int) -> np.ndarray:
    """Least-squares-optimal factor for ``mode`` with the other factors fixed.

    The model's weights are folded into the returned matrix; a rank-deficient
    Gram system triggers :class:`DegenerateSolveWarning` and a minimum-norm
    result.
    """
    t = as_tensor(t, min_modes=2)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range")
    if len(model.factors) != t.ndim:
        raise ValueError("model order does not match tensor order")
    for k, f in enumerate(model.factors):
        if k != mode and f.shape[0] != t.shape[k]:
            raise ValueError(f"factor {k} has {f.shape[0]} rows, tensor extent is {t.shape[k]}")
    g = _gram_hadamard(model.factors, mode)
    if np.linalg.matrix_rank(g, tol=PINV_RCOND * max(np.linalg.norm(g, 2), 1e-300)) < g.shape[0]:
        warnings.warn("Gram Hadamard product is singular; returning minimum-norm solution",
                      DegenerateSolveWarning, stacklevel=2)
    return _solve_mode(unfold(t, mode), model.factors, mode)[0]


def cp_rank_select(t, candidate_ranks, holdout_fraction: float, cfg: AlsConfig) -> int:
    """Pick the candidate rank with the lowest holdout residual.

    A uniformly random ``holdout_fraction`` of cells is hidden, each rank is
    fit on the rest by masked ALS, and the rank minimizing holdout RES wins;
    ties go to the smaller rank.
    """
    t = as_tensor(t, min_modes=2)
    candidates = sorted(int(r) for r in candidate_ranks)
    if not candidates:
        raise ValueError("candidate_ranks is empty")
    if not 0.0 < holdout_fraction < 0.5:
        raise ValueError("holdout_fraction must lie in (0, 0.5)")

    rng = np.random.default_rng(cfg.seed)
    n = t.size
    n_hold = max(1, int(round(holdout_fraction * n)))
    hold_flat = rng.choice(n, size=n_hold, replace=False)
    holdout = np.zeros(n, dtype=bool)
    holdout[hold_flat] = True
    holdout = holdout.reshape(t.shape)
    observed = ~holdout

    best_rank, best_res = None, np.inf
    for rank in candidates:
        model, _ = cp_fit(t, replace(cfg, rank=rank), observed)
        res = relative_residual(cp_reconstruct(model), t, holdout)
        if res < best_res:
            best_rank, best_res = rank, res
    return best_rank
