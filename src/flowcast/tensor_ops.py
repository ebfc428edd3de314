"""Dense tensor kernels: unfolding, Khatri-Rao products, MTTKRPs, CP reconstruction, residuals.

Tensors are plain float64 ``numpy.ndarray`` objects in row-major storage.
Matricization follows the Kolda-Bader convention: in ``unfold(t, mode)`` the
columns enumerate the remaining axes with the lowest-numbered axis varying
fastest.  Observation masks are boolean arrays of the same shape as the
tensor they accompany.

All functions here are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
import numbers
from operator import itemgetter

import numpy as np


class DegenerateSolveWarning(UserWarning):
    """A least-squares system was rank deficient; a minimum-norm solution was used."""


def as_whole(value, name: str, minimum: int | None = 1) -> int:
    """The setting ``name``, a whole number of any numeric type (2, ``np.int64(2)``, 2.0), as
    an ``int``; a ``ValueError`` naming it if not, or if below ``minimum`` (``None``: no bound)."""
    if not (isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def as_tensor(data, min_modes: int = 1) -> np.ndarray:
    """Validate and return a float64 tensor.

    Raises ``ValueError`` for empty shapes, fewer than ``min_modes`` modes,
    or non-finite entries.
    """
    t = np.asarray(data, dtype=np.float64)
    if t.ndim < min_modes:
        raise ValueError(f"tensor must have at least {min_modes} modes, got {t.ndim}")
    if any(n < 1 for n in t.shape):
        raise ValueError(f"tensor extents must all be >= 1, got shape {t.shape}")
    if not np.isfinite(t.min()) or not np.isfinite(t.max()):  # no mask as large as t
        raise ValueError("tensor entries must be finite")
    return t


def as_mask(flags, shape: tuple, require_nonempty: bool = True) -> np.ndarray:
    """Validate an observation mask against the companion tensor's shape."""
    m = np.asarray(flags, dtype=bool)
    if m.shape != tuple(shape):
        raise ValueError(f"mask shape {m.shape} does not match tensor shape {tuple(shape)}")
    if require_nonempty and not m.any():
        raise ValueError("observation mask is empty")
    return m


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization of ``t``.

    Returns the ``I_mode x prod(other extents)`` matrix whose columns follow
    the Kolda-Bader ordering (remaining axes vary with the lowest-numbered
    axis fastest).
    """
    t = np.asarray(t)
    mode = as_whole(mode, "mode", minimum=None)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for a {t.ndim}-mode tensor")
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def fold(m: np.ndarray, mode: int, shape: tuple) -> np.ndarray:
    """Inverse of :func:`unfold` for the given ``mode`` and full tensor ``shape``."""
    m = np.asarray(m)
    shape = tuple(as_whole(s, f"shape[{k}]", minimum=0) for k, s in enumerate(shape))
    mode = as_whole(mode, "mode", minimum=None)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    lead = (shape[mode],) + tuple(s for k, s in enumerate(shape) if k != mode)
    if m.shape != (shape[mode], int(np.prod(lead[1:]))):
        raise ValueError(f"matrix shape {m.shape} inconsistent with shape {shape} at mode {mode}")
    return np.moveaxis(np.reshape(m, lead, order="F"), 0, mode)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of ``a`` (I x R) and ``b`` (J x R).

    Column r of the result is ``kron(a[:, r], b[:, r])``, so ``b``'s row
    index varies fastest: row ``i * J + j`` holds ``a[i, r] * b[j, r]``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return khatri_rao_all([b, a])


def khatri_rao_all(factors, skip: int | None = None) -> np.ndarray:
    """Khatri-Rao product of ``factors`` in decreasing-mode order.

    This is the ordering that pairs with :func:`unfold`: for mode ``skip``,
    ``unfold(t, skip) @ khatri_rao_all(factors, skip)`` accumulates
    ``sum_cells t[i] * prod_{k != skip} factors[k][i_k, r]``.
    """
    if skip is not None and not as_whole(skip, "skip", minimum=0) < len(factors):
        raise ValueError(f"skip {skip!r} out of range for {len(factors)} factors")
    mats = list(factors) if skip is None else [f for k, f in enumerate(factors) if k != skip]
    if not mats:
        raise ValueError("khatri_rao_all needs at least one factor")
    out = mats.pop()
    while mats:
        out = np.einsum("ir,jr->ijr", out, mats.pop())
        out = out.reshape(-1, out.shape[2])
    return out


def _split(shape):
    """The tree's halves, modes ``[0, s)`` and ``[s, N)``: the ``s`` whose larger half is least."""
    return min(range(1, len(shape)), key=lambda s: max(math.prod(shape[:s]), math.prod(shape[s:])))


def _picker(idx):
    """``factors[k] for k in idx`` by one C call: an ``itemgetter`` that returns a tuple
    for two indices or more and a one-item list slice for one."""
    return itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(idx[0], idx[0] + 1))


def _tree_steps(t, factors, split):
    """Bind a dimension tree (Phan, Tichavsky & Cichocki 2013) to ``t`` and the list
    ``factors`` once per fit: ``(mode, step)`` in mode order, where ``step()`` returns the
    mode's MTTKRP from ``factors`` as they stand when it is called, so replacing
    ``factors[mode]`` before the next step gives a Gauss-Seidel sweep.  The tree works on
    the C-order view ``x`` of ``t`` with modes ``[0, split)`` on its rows; no unfolding is
    copied.  A step binds the extents and the rank, so a fit whose rank falls binds anew.

    The products are component-major: each half's product with the other half is
    R x the half's rows (``KR.T @ x.T`` on the left, ``KR.T @ x`` on the right), formed by
    the half's first step and read by its others, and a mode that leads or ends its half is
    finished by one matmul batched over the R components; only a mode between two others
    of its half takes an ``einsum``.  Each MTTKRP is the I_k x R transposed view of its
    R x I_k result.  Steps look ``khatri_rao_all`` up in the module at each call, so a
    tracer that replaces it there sees every call."""
    shape = tuple(f.shape[0] for f in factors)
    rank = factors[0].shape[1]
    x = t.reshape(math.prod(shape[:split]), -1)
    left, right = tuple(range(split)), tuple(range(split, len(shape)))
    steps = []
    for half, other, rows in ((left, right, x.T), (right, left, x)):
        held = [None]  # the half's product with the other half
        steps += [(mode, _tree_step(factors, shape, rank, half, other, rows, held, mode))
                  for mode in half]
    return steps


def _tree_step(factors, shape, rank, half, other, rows, held, mode):
    """The step of ``_tree_steps`` for ``mode`` of ``half``, bound once to its rows view,
    reshape extents, finish kind and partner factors' indices; ``held[0]`` is the half's
    product with ``other``, which the half's first step forms from ``rows``.  A one-mode
    ``other`` half's Khatri-Rao matrix is its factor, so that product takes no call."""
    n, rest = shape[mode], tuple(k for k in reversed(half) if k != mode)
    a, b = math.prod(shape[half[0]:mode]), math.prod(shape[mode + 1:half[-1] + 1])
    first, lone, pick_other = mode == half[0], len(other) == 1, _picker(other[::-1])
    pick = _picker(rest) if rest else None
    if not rest:
        kind = None
    elif a == 1:  # the mode leads its half
        kind, extents = "lead", (rank, n, b)
    elif b == 1:  # the mode ends its half
        kind, extents = "end", (rank, a, n)
    else:
        kind, extents, kr_extents = "inner", (rank, a, n, b), (rank, a, b)
    out = (rank, n)

    def step():
        if first:
            kr = factors[other[0]] if lone else khatri_rao_all(pick_other(factors))
            held[0] = p = kr.T @ rows
            if kind is None:
                return p.T
        else:
            p = held[0]
        kr = khatri_rao_all(pick(factors)).T
        if kind == "lead":
            return (p.reshape(extents) @ kr[:, :, None]).reshape(out).T
        if kind == "end":
            return (kr[:, None, :] @ p.reshape(extents)).reshape(out).T
        return np.einsum("raib,rab->ri", p.reshape(extents), kr.reshape(kr_extents)).T
    return step


# squared relative error (1e-3 unsquared) down to which a fit's error comes from the
# Gram identity; its cancellation moves it by under about 1e-12 there
GRAM_ERR_FLOOR = 1e-6


def _error_from_statistics(sum_y2, s, proj, mean, moment):
    """Gram-identity squared error (Kolda & Bader 2009) from one mode's statistics, at least 0."""
    return max(float(sum_y2 - 2.0 * (proj * mean).sum() + (s * moment).sum()), 0.0)


class _SweepTrace(list):
    """A fit's value after each sweep.  ``settled``, the stop rule both CP fits share, says
    whether the last two differ by under ``max(tol * |previous|, eps)``: a relative change,
    floored at round-off so an exact or all-zero fit settles too; a fit sets ``converged``
    when that rule ends its sweeps."""

    converged = False
    eps = float(np.finfo(float).eps)

    def settled(self, tol):
        return len(self) > 1 and abs(self[-1] - self[-2]) < max(tol * abs(self[-2]), self.eps)


def cp_reconstruct(model) -> np.ndarray:
    """Dense tensor of a CP model: entry i = sum_r weights[r] * prod_k factors[k][i_k, r]."""
    weights = np.asarray(model.weights, dtype=np.float64)
    factors = [np.asarray(f, dtype=np.float64) for f in model.factors]
    ranks = {f.shape[1] for f in factors}
    if len(ranks) != 1 or ranks != {weights.shape[0]}:
        raise ValueError("factor ranks and weight length must agree")
    k = len(factors)
    letters = [chr(ord("a") + i) for i in range(k)]
    spec = "z," + ",".join(f"{c}z" for c in letters) + "->" + "".join(letters)
    return np.einsum(spec, weights, *factors)


def _norm(a, b=None):
    """``||a - b||_F``, or ``||a||_F`` where ``b`` is ``None``: inf or NaN where a cell is.
    Where the sum of squares or the difference overflows on finite cells, the norm is taken
    again with every cell divided by the largest magnitude, so it overflows only where the
    norm itself does.  No floating-point warning is raised either way."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a if b is None else a - b))
        if norm == math.inf:
            scale = max(float(np.abs(x).max()) for x in ((a,) if b is None else (a, b)))
            if scale < math.inf:
                a = a / scale
                norm = scale * float(np.linalg.norm(a if b is None else a - b / scale))
    return norm


def _masked_norms(estimate, truth, mask):
    """``(||estimate - truth||_F, ||truth||_F)`` over the cells of ``mask`` (``None``: every
    cell), reading only those cells.  ``ValueError`` on a shape mismatch, a bad mask, or a
    norm that is not finite, as a NaN or inf cell there makes it: the truth's is read first,
    so a non-finite difference is the estimate's, and no other pass looks for one."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    if mask is not None:
        m = as_mask(mask, truth.shape)
        estimate, truth = estimate[m], truth[m]
    norm = _norm(truth)
    if not math.isfinite(norm):
        raise ValueError("truth has a NaN or inf on the scored cells, or a norm that overflows")
    diff = _norm(estimate, truth)  # truth is finite here: no inf - inf
    if not math.isfinite(diff):
        raise ValueError("estimate has a NaN or inf on the scored cells, or a norm that overflows")
    return diff, norm


def relative_residual(estimate: np.ndarray, truth: np.ndarray, mask=None) -> float:
    """Masked relative residual ||(estimate - truth) * mask||_F / ||truth * mask||_F.

    ``mask=None`` means every cell counts.  Raises ``ValueError`` when the
    truth is all zero on the mask (undefined denominator).
    """
    diff, denom = _masked_norms(estimate, truth, mask)
    if denom == 0.0:
        raise ValueError("truth is all zero on the mask; relative residual undefined")
    return float(diff / denom)


def residual_or_nan(estimate: np.ndarray, truth: np.ndarray, mask=None) -> float:
    """:func:`relative_residual`, but ``nan`` where the truth is all zero on the mask.

    Reports score a station or block with no flow this way (a station closed
    all day, say) and leave it out of their means and fractions.
    """
    diff, denom = _masked_norms(estimate, truth, mask)
    return float("nan") if denom == 0.0 else float(diff / denom)
