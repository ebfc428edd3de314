"""CP decomposition by alternating least squares, with holdout rank selection.

The fitted :class:`CpModel` keeps the weight vector explicit (unit-norm factor
columns, weights sorted non-increasing).  Downstream consumers that need the
weights folded into a factor do the folding themselves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
from scipy.linalg.lapack import dlange, dpocon, dposv

from .tensor_ops import (GRAM_ERR_FLOOR, DegenerateSolveWarning, _error_from_statistics, _picker,
                         _split, _SweepTrace, _tree_steps, as_mask, as_tensor, as_whole,
                         cp_reconstruct, khatri_rao_all, relative_residual, unfold)

PINV_RCOND = 1e-12
# each Gram-identity sweep from the STEP_START-th on tries the line-search step
# prev + sweep ** (1 / STEP_ROOT) * (cur - prev); a scan of both is in CHANGES.md
STEP_START, STEP_ROOT = 4, 2


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
    """ALS knobs: target rank, sweep budget, init seed, and the stop tolerance on the error's
    relative change: the fit stops once two sweeps' errors differ by under
    ``max(tol * |previous|, eps)``.  The line-search step that unmasked sweeps take from
    the ``STEP_START``-th on (see :func:`cp_fit`) has no knob; masked fits and sweeps that
    need the exact residual take plain sweeps."""

    rank: int
    max_iters: int = 500
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        self.rank = as_whole(self.rank, "rank")
        self.max_iters = as_whole(self.max_iters, "max_iters")
        self.seed = as_whole(self.seed, "seed", minimum=0)
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")


def _check_rank_feasible(shape, rank):
    cap = min(int(np.prod([s for j, s in enumerate(shape) if j != k])) for k in range(len(shape)))
    if rank > cap:
        raise ValueError(f"rank {rank} infeasible for shape {tuple(shape)} (max {cap})")


def _solve_mode(mttkrp, g):
    """Weight-absorbed least-squares factor from its MTTKRP and Gram Hadamard ``g``.

    Solves ``x @ g = mttkrp`` by one Cholesky factor-and-solve (``dposv``).  Where that
    factorization fails, or its reciprocal 1-norm condition estimate is at most
    ``100 * PINV_RCOND`` (which covers every ``g`` whose pseudo-inverse could
    truncate a singular value), the result is ``mttkrp @ pinv(g)`` instead, the
    minimum-norm solution.  Either way the result is C-contiguous.
    """
    c, x, info = dposv(g, mttkrp.T)
    if info == 0:
        rcond, info = dpocon(c, dlange("1", g))
    if info != 0 or rcond <= 100 * PINV_RCOND:
        return mttkrp @ np.linalg.pinv(g, rcond=PINV_RCOND)
    return x.T


def _normalize_columns(a):
    norms = np.linalg.norm(a, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return a / safe, norms


def _normal_form(factors):
    """The model of raw ``factors`` in normal form (Kolda & Bader 2009): unit-norm columns,
    weights the products of their norms, components stably sorted by non-increasing weight."""
    units, norms = zip(*map(_normalize_columns, factors))
    weights = reduce(np.multiply, norms)
    order = np.argsort(-weights, kind="stable")
    return CpModel(weights[order], [u[:, order] for u in units])


def _line_search(factors, grams, prev, first, sq_norm, err2, scale):
    """Bro's (1998) line search on a sweep's change from its start ``prev`` to the factors
    ``cur`` it solved: trial factors ``prev + scale * (cur - prev)``, scored by the Gram
    identity on the mode-0 MTTKRP that the tree step ``first`` (``steps[0]`` of ``cp_fit``)
    forms from them.

    A trial whose squared error is lower, and still above the Gram identity's floor,
    replaces ``factors`` and ``grams`` in place and returns ``(its error, its MTTKRP)``; any
    other trial, a non-finite one included, leaves both as they were and returns
    ``(err2, None)``.  No floating-point warning is raised either way."""
    _, step, partners = first
    cur, cur_grams = factors[:], grams[:]
    with np.errstate(all="ignore"):
        factors[:] = [p + scale * (c - p) for p, c in zip(prev, cur)]
        grams[:] = [f.T @ f for f in factors]
        mttkrp = step()
        trial2 = _error_from_statistics(sq_norm, reduce(np.multiply, partners(grams)), mttkrp,
                                        factors[0], grams[0])
    if GRAM_ERR_FLOOR * sq_norm < trial2 < err2:
        return trial2, mttkrp
    factors[:], grams[:] = cur, cur_grams
    return err2, None


def cp_fit(t, cfg: AlsConfig, observed=None):
    """Fit a rank-``cfg.rank`` CP model to ``t`` by alternating least squares.

    Returns ``(model, history)``: a list of the relative error (at most 1) after each
    sweep, whose ``converged`` says the fit stopped on two errors within ``max(cfg.tol *
    |previous|, eps)``, the stop rule ``lrtc_fit`` shares, not at ``cfg.max_iters``.

    MTTKRPs come from the dimension tree of ``tensor_ops._tree_steps``, bound
    once per fit to one C-order view ``x`` of ``t``, from which ``||X||`` is
    read too, with no unfolding copied: two component-major tensor products
    per sweep, each mode finished inside its half.  ALS iterates do not
    change under column scaling (Kolda & Bader 2009), so the sweeps keep each
    mode's raw solve and its raw Gram, and the weights come out once, after
    the last sweep: the model has unit-norm columns and non-increasing
    weights.  The squared error is the Gram identity on the last solve,
    ``||X||^2 - 2 sum(K * A) + sum((A.T @ A) * G)`` for its MTTKRP ``K``,
    raw factor ``A`` and Gram Hadamard ``G``; it cancels to noise below about
    sqrt(eps), so at ``GRAM_ERR_FLOOR * ||X||^2`` or below the sweep takes
    the exact residual of the raw factors.

    Each sweep from the ``STEP_START``-th on whose error comes from the Gram
    identity also tries a line-search step (Bro 1998; Rajih, Comon & Harshman
    2008): the raw factors ``prev + sweep ** (1 / STEP_ROOT) * (cur - prev)``,
    from the sweep's start ``prev`` along its change to ``cur``, scored by the
    same identity on their mode-0 MTTKRP and kept only where that error is
    lower and still above the floor (a non-finite one is not kept).  A kept
    trial's MTTKRP is the next sweep's first, so it costs no tensor product; a
    rejected one costs one half product.  ``history`` holds the error of the
    model each sweep keeps, so every entry is that model's residual and the
    history rises by no more than the identity's round-off.  Sweeps at or below
    the floor, and every sweep of a masked fit (its re-imputation moves the
    fitted tensor each sweep), are plain ALS sweeps.

    With an ``observed`` mask, only those cells are fitted (EM-style masked
    ALS, Tomasi & Bro 2005): the other cells start at the observed mean and
    are re-imputed from the reconstruction after every sweep, and the error
    is measured on the observed cells alone.  An all-true mask is no mask.
    """
    t = as_tensor(t, min_modes=2)
    _check_rank_feasible(t.shape, cfg.rank)
    if observed is not None:
        observed = as_mask(observed, t.shape)
        if observed.all():
            observed = None
    s = _split(t.shape)
    n_rows = math.prod(t.shape[:s])
    if observed is None:
        x = t.reshape(n_rows, -1)  # a copy only where t is a view that cannot flatten
        norm_t = math.sqrt(np.einsum("ij,ij->", x, x))  # no flattened copy of a strided x
    else:
        x = np.where(observed, t, float(t[observed].mean())).reshape(n_rows, -1)
        seen, norm_t = observed.reshape(n_rows, -1), np.linalg.norm(t[observed])
    rng = np.random.default_rng(cfg.seed)
    factors = [rng.uniform(-1.0, 1.0, size=(n, cfg.rank)) for n in t.shape]
    grams = [f.T @ f for f in factors]

    # each step with its partner modes' Gram getter, bound once per fit
    steps = [(mode, step, _picker(tuple(k for k in range(t.ndim) if k != mode)))
             for mode, step in _tree_steps(x, factors, s)]
    sq_norm = norm_t**2
    history = _SweepTrace()
    kept = None  # a kept trial's mode-0 MTTKRP: the next sweep's first step, already taken
    for sweep in range(1, cfg.max_iters + 1):
        prev = factors[:]
        for mode, step, partners in steps:
            mttkrp, kept = step() if kept is None else kept, None
            g = reduce(np.multiply, partners(grams))
            factors[mode] = a = _solve_mode(mttkrp, g)
            grams[mode] = a.T @ a
        if observed is None:
            err2 = _error_from_statistics(sq_norm, g, mttkrp, factors[-1], grams[-1])
        if observed is None and err2 > GRAM_ERR_FLOOR * sq_norm:
            if sweep >= STEP_START:
                err2, kept = _line_search(factors, grams, prev, steps[0], sq_norm, err2,
                                          sweep ** (1.0 / STEP_ROOT))
            err = math.sqrt(err2)
        else:  # the model in the view's layout: each half's Khatri-Rao matrix, in C order
            recon = khatri_rao_all(reversed(factors[:s])) @ khatri_rao_all(reversed(factors[s:])).T
            err = np.linalg.norm(x - recon if observed is None else (x - recon)[seen])
            if observed is not None:
                np.copyto(x, recon, where=~seen)
        history.append(0.0 if norm_t == 0 else float(err / norm_t))
        if history.settled(cfg.tol):
            history.converged = True
            break
    return _normal_form(factors), history


def cp_solve_mode(t, model: CpModel, mode: int) -> np.ndarray:
    """Least-squares-optimal factor for ``mode`` with the other factors fixed.

    The model's weights are folded into the returned matrix; a rank-deficient
    Gram system triggers :class:`DegenerateSolveWarning` and a minimum-norm
    result.
    """
    t = as_tensor(t, min_modes=2)
    x = unfold(t, mode)  # first, so unfold's rule decides the mode before it is used
    if len(model.factors) != t.ndim:
        raise ValueError("model order does not match tensor order")
    for k, f in enumerate(model.factors):
        if k != mode and f.shape[0] != t.shape[k]:
            raise ValueError(f"factor {k} has {f.shape[0]} rows, tensor extent is {t.shape[k]}")
    g = reduce(np.multiply, [f.T @ f for k, f in enumerate(model.factors) if k != mode])
    if np.linalg.matrix_rank(g, tol=PINV_RCOND * max(np.linalg.norm(g, 2), 1e-300)) < g.shape[0]:
        warnings.warn("Gram Hadamard product is singular; returning minimum-norm solution",
                      DegenerateSolveWarning, stacklevel=2)
    return _solve_mode(x @ khatri_rao_all(model.factors, mode), g)


def cp_rank_select(t, candidate_ranks, holdout_fraction: float, cfg: AlsConfig) -> int:
    """Pick the candidate rank with the lowest holdout residual.

    A uniformly random ``holdout_fraction`` of cells is hidden, each rank is
    fit on the rest by masked ALS, and the rank minimizing holdout RES wins;
    ties go to the smaller rank.
    """
    t = as_tensor(t, min_modes=2)
    candidates = sorted(as_whole(r, "candidate_ranks") for r in candidate_ranks)
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
