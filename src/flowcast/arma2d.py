"""2D ARMA random fields on a day-of-week x week grid.

A temporal profile of T daily values becomes a D x W field (rows are
day-of-week, columns are week index).  The model couples a cell to its day
and week lags:

    v[d,w] + sum_{(i,j) != (0,0)} a_ij v[d-i, w-j] = sum_{i,j} b_ij e[d-i, w-j]

with i in [0,p1], j in [0,p2] on the AR side, i in [0,q1], j in [0,q2] on the
MA side, and e white noise of variance sigma2.  b_00 is pinned to 1 so the
noise scale lives in sigma2 alone.

Estimation is the two-stage least squares of Hannan & Rissanen (1982): a
high-order pure AR estimates the innovations, then the AR and lagged-MA
coefficients are regressed jointly; a pure AR (q1 = q2 = 0) skips stage 1.
Only interior cells (every lag index on the grid, every involved cell
present) become regression rows.  Fields are centered on their sample mean
before fitting and the mean is restored after forecasting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tensor_ops import DegenerateSolveWarning, as_whole

DAYS_PER_WEEK = 7
BURNIN_WEEKS = 50
TOO_FEW_CELLS = "not enough interior cells to estimate the requested orders"


@dataclass
class Field2D:
    """D x W grid of values; ``valid`` flags cells that hold real observations."""

    values: np.ndarray
    valid: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ValueError("field must be a D x W matrix with D, W >= 1")
        if self.valid is None:
            self.valid = np.ones(self.values.shape, dtype=bool)
        else:
            self.valid = np.asarray(self.valid, dtype=bool)
            if self.valid.shape != self.values.shape:
                raise ValueError("valid mask shape must match values")
        if not self.valid.any():
            raise ValueError("field has no valid cells")
        if not np.all(np.isfinite(self.values[self.valid])):
            raise ValueError("field entries must be finite")


@dataclass
class Arma2dModel:
    """Fitted coefficient grids and innovation variance for one field.

    ``ar`` is the (p1+1) x (p2+1) grid of a_ij with the a_00 slot held at 0
    (it is not a coefficient); ``ma`` is the (q1+1) x (q2+1) grid of b_ij
    with b_00 pinned to 1.
    """

    ar: np.ndarray
    ma: np.ndarray
    sigma2: float
    orders: tuple

    def __post_init__(self):
        p1, p2, q1, q2 = self.orders = as_orders(self.orders)
        self.ar = np.asarray(self.ar, dtype=np.float64)
        self.ma = np.asarray(self.ma, dtype=np.float64)
        if self.ar.shape != (p1 + 1, p2 + 1) or self.ma.shape != (q1 + 1, q2 + 1):
            raise ValueError("coefficient grid shapes must match the orders")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")


def reshape_to_field(u, days_per_week: int = DAYS_PER_WEEK) -> Field2D:
    """Lay a length-T series onto a D x ceil(T/D) grid, column per week.

    Cell [d, w] holds u[w*D + d]; trailing cells of a partial last week are
    flagged absent.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.size == 0:
        raise ValueError("series is empty")
    d = as_whole(days_per_week, "days_per_week")
    w = math.ceil(u.size / d)
    padded = np.zeros(d * w)
    padded[: u.size] = u
    valid = np.zeros(d * w, dtype=bool)
    valid[: u.size] = True
    return Field2D(padded.reshape(w, d).T, valid.reshape(w, d).T)


def field_to_vector(f: Field2D) -> np.ndarray:
    """Flatten a field back to the series order used by :func:`reshape_to_field`."""
    flat = f.values.T.ravel()
    keep = f.valid.T.ravel()
    last = int(np.nonzero(keep)[0].max())
    if not keep[: last + 1].all():
        raise ValueError("valid cells are not a prefix in time order")
    return flat[: last + 1].copy()


def _lag_offsets(o1, o2):
    """Lags ``(i, j)`` up to ``(o1, o2)`` in row-major order, without ``(0, 0)``."""
    return [(i, j) for i in range(o1 + 1) for j in range(o2 + 1)][1:]


def _lagged(a, offs):
    """``a`` shifted by each offset ``(i, j)``, stacked on a last axis; 0 off the grid."""
    out = np.zeros(a.shape + (len(offs),), dtype=a.dtype)
    for n, (i, j) in enumerate(offs):
        out[i:, j:, n] = a[: a.shape[0] - i, : a.shape[1] - j]
    return out


def _interior(valid, offs, d_min, w_min):
    """Week x day mask of regression cells: present, every ``offs`` lag present, d, w >= mins."""
    rows = valid & _lagged(valid, offs).all(axis=2)
    rows[:d_min] = rows[:, :w_min] = False
    return rows.T


def as_orders(orders) -> tuple:
    """The orders ``(p1, p2, q1, q2)`` as ints; ``ValueError`` unless four whole numbers >= 0."""
    if len(orders) != 4:
        raise ValueError(f"arma_orders must be four non-negative integers, got {orders!r}")
    return tuple(as_whole(o, "arma_orders", minimum=0) for o in orders)


def _design(valid, orders):
    """The orders read by :func:`as_orders`, their AR and MA lags, and the week x day mask
    of the cells a fit on ``valid`` regresses on; ``ValueError`` if the grid is too small."""
    p1, p2, q1, q2 = orders = as_orders(orders)
    days, weeks = valid.shape
    if days <= p1 + q1 or weeks <= p2 + q2:
        raise ValueError(f"grid {days}x{weeks} too small for orders ({p1},{p2},{q1},{q2}); "
                         f"need D > p1+q1 and W > p2+q2")
    ar_offs, ma_offs = _lag_offsets(p1, p2), _lag_offsets(q1, q2)
    return orders, ar_offs, ma_offs, _interior(valid, ar_offs, max(p1, q1), max(p2, q2))


def _check_size(n_cells, ar_offs, ma_offs):
    """``ValueError`` unless the ``n_cells`` regression rows outnumber the coefficients."""
    if n_cells <= len(ar_offs) + len(ma_offs):
        raise ValueError(TOO_FEW_CELLS)


def check_orders(n_days, orders, days_per_week: int = DAYS_PER_WEEK) -> None:
    """Raise, without fitting, the ``ValueError`` :func:`arma2d_fit` raises on the
    field :func:`reshape_to_field` lays out from ``n_days`` daily values."""
    valid = reshape_to_field(np.zeros(n_days), days_per_week).valid
    _, ar_offs, ma_offs, cells = _design(valid, orders)
    _check_size(cells.sum(), ar_offs, ma_offs)


def _regress(x, y, what):
    """Minimum-norm least squares of ``y`` on ``x``; warns when ``x`` is rank deficient."""
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        warnings.warn(f"{what} is rank deficient; minimum-norm coefficients",
                      DegenerateSolveWarning, stacklevel=3)
    return coef


def arma2d_fit(f: Field2D, orders) -> Arma2dModel:
    """Estimate a 2D-ARMA model on ``f`` by two-stage least squares."""
    (p1, p2, q1, q2), ar_offs, ma_offs, rows = _design(f.valid, orders)
    mu = float(f.values[f.valid].mean())
    c = np.where(f.valid, f.values - mu, 0.0)

    # stage 1: high-order pure AR to estimate innovations, which only MA terms read
    eps = c.copy()
    if q1 or q2:
        _, offs, _, rows1 = _design(f.valid, (p1 + q1, p2 + q2, 0, 0))
        lags = _lagged(c, offs)
        x1, y1 = lags.swapaxes(0, 1)[rows1], c.T[rows1]
        if len(y1):
            gamma = _regress(x1, y1, "stage-1 AR regression")
            # zero-padded prediction everywhere so lagged innovations exist on the full grid
            eps = np.where(f.valid, c - lags @ gamma, 0.0)

    # stage 2: joint AR + lagged-MA regression; orders (0, 0, 0, 0) regress on no column
    x2 = np.concatenate([_lagged(c, ar_offs), _lagged(eps, ma_offs)], axis=2).swapaxes(0, 1)[rows]
    y2 = c.T[rows]
    # the rank is reported before the size is judged: too few rows is rank deficient too
    coef = _regress(x2, y2, "2D-ARMA regression")
    _check_size(len(y2), ar_offs, ma_offs)
    ar = np.append(0.0, -coef[: len(ar_offs)]).reshape(p1 + 1, p2 + 1)
    ma = np.append(1.0, coef[len(ar_offs):]).reshape(q1 + 1, q2 + 1)
    resid = y2 - x2 @ coef
    return Arma2dModel(ar, ma, float(np.mean(resid**2)), (p1, p2, q1, q2))


def _recursion(model, c, known, eps):
    """Run the model recursion over ``c`` in time order (week-major, day within).

    A known cell yields its innovation, ``eps = c - prediction``; any other
    cell yields its value, the prediction plus ``b_00 * eps`` of the cell
    itself.  Lags off the grid count 0.  ``c`` and ``eps`` are updated in
    place.
    """
    p1, p2, q1, q2 = model.orders
    ar_offs = _lag_offsets(p1, p2)
    ma_offs = _lag_offsets(q1, q2)
    d_ext, w_ext = c.shape
    for w in range(w_ext):
        for d in range(d_ext):
            pred = 0.0
            for i, j in ar_offs:
                if d - i >= 0 and w - j >= 0:
                    pred -= model.ar[i, j] * c[d - i, w - j]
            if not known[d, w]:
                pred += model.ma[0, 0] * eps[d, w]
            for i, j in ma_offs:
                if d - i >= 0 and w - j >= 0:
                    pred += model.ma[i, j] * eps[d - i, w - j]
            if known[d, w]:
                eps[d, w] = c[d, w] - pred
            else:
                c[d, w] = pred


def arma2d_forecast(model: Arma2dModel, f: Field2D, horizon_weeks: int) -> Field2D:
    """Extend ``f`` by ``horizon_weeks`` columns of conditional expectations.

    One pass in time order estimates the innovation of each observed cell
    and fills each absent or future cell with its conditional expectation
    (future noise is zero), so later cells see the filled values.  Observed
    cells pass through unchanged.
    """
    h = as_whole(horizon_weeks, "horizon_weeks")
    mu = float(f.values[f.valid].mean())
    d_ext, w_in = f.values.shape
    c = np.zeros((d_ext, w_in + h))
    known = np.zeros(c.shape, dtype=bool)
    c[:, :w_in] = np.where(f.valid, f.values - mu, 0.0)
    known[:, :w_in] = f.valid
    _recursion(model, c, known, np.zeros(c.shape))

    out = c + mu
    out[:, :w_in][f.valid] = f.values[f.valid]
    return Field2D(out)


def simulate_field(model: Arma2dModel, days: int, weeks: int, seed: int = 0) -> Field2D:
    """Drive the model recursion with seeded Gaussian noise (zero-mean output).

    ``BURNIN_WEEKS`` leading columns are simulated and discarded so the
    retained grid is close to the stationary regime in the week direction.
    """
    days, weeks = as_whole(days, "days"), as_whole(weeks, "weeks")
    rng = np.random.default_rng(as_whole(seed, "seed", minimum=0))
    w_tot = weeks + BURNIN_WEEKS
    eps = rng.normal(0.0, math.sqrt(model.sigma2), size=(days, w_tot))
    v = np.zeros((days, w_tot))
    _recursion(model, v, np.zeros(v.shape, dtype=bool), eps)
    return Field2D(v[:, BURNIN_WEEKS:])
