"""Dense tensor kernels: unfolding, Khatri-Rao products, CP reconstruction, residuals.

Tensors are plain float64 ``numpy.ndarray`` objects in row-major storage.
Matricization follows the Kolda-Bader convention: in ``unfold(t, mode)`` the
columns enumerate the remaining axes with the lowest-numbered axis varying
fastest.  Observation masks are boolean arrays of the same shape as the
tensor they accompany.

All functions here are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np


class DegenerateSolveWarning(UserWarning):
    """A least-squares system was rank deficient; a minimum-norm solution was used."""


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
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor entries must be finite")
    return t


def as_mask(flags, shape: tuple, require_nonempty: bool = True) -> np.ndarray:
    """Validate an observation mask against the companion tensor's shape."""
    m = np.asarray(flags)
    if m.dtype != np.bool_:
        m = m.astype(bool)
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
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for a {t.ndim}-mode tensor")
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def fold(m: np.ndarray, mode: int, shape: tuple) -> np.ndarray:
    """Inverse of :func:`unfold` for the given ``mode`` and full tensor ``shape``."""
    m = np.asarray(m)
    shape = tuple(int(s) for s in shape)
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
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def khatri_rao_all(factors, skip: int | None = None) -> np.ndarray:
    """Khatri-Rao product of ``factors`` in decreasing-mode order.

    This is the ordering that pairs with :func:`unfold`: for mode ``skip``,
    ``unfold(t, skip) @ khatri_rao_all(factors, skip)`` accumulates
    ``sum_cells t[i] * prod_{k != skip} factors[k][i_k, r]``.
    """
    mats = [factors[k] for k in reversed(range(len(factors))) if k != skip]
    if not mats:
        raise ValueError("khatri_rao_all needs at least one factor")
    out = mats[0]
    for m in mats[1:]:
        out = khatri_rao(out, m)
    return out


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


def relative_residual(estimate: np.ndarray, truth: np.ndarray, mask=None) -> float:
    """Masked relative residual ||(estimate - truth) * mask||_F / ||truth * mask||_F.

    ``mask=None`` means every cell counts.  Raises ``ValueError`` when the
    truth is all zero on the mask (undefined denominator).
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    if mask is None:
        diff = estimate - truth
        ref = truth
    else:
        m = as_mask(mask, truth.shape)
        diff = np.where(m, estimate - truth, 0.0)
        ref = np.where(m, truth, 0.0)
    denom = np.linalg.norm(ref)
    if denom == 0.0:
        raise ValueError("truth is all zero on the mask; relative residual undefined")
    return float(np.linalg.norm(diff) / denom)


def residual_or_nan(estimate: np.ndarray, truth: np.ndarray, mask=None) -> float:
    """:func:`relative_residual`, but ``nan`` where the truth is all zero on the mask.

    Reports score a station or block with no flow this way (a station closed
    all day, say) and leave it out of their means and fractions.
    """
    truth = np.asarray(truth, dtype=np.float64)
    ref = truth if mask is None else truth[as_mask(mask, truth.shape)]
    if np.linalg.norm(ref) == 0.0:
        return float("nan")
    return relative_residual(estimate, truth, mask)
