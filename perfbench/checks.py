"""Correctness checks on the program's outputs.

Each check compares an output with a computation the benchmark makes on its
own, in numpy, or with a property the method must have; none compares with a
stored copy of an earlier output.  A check returns ``None`` when it passes
and a one-line reason when it fails.
"""

from __future__ import annotations

import numpy as np

# lean_update's loadings against an independent lstsq solve (3e-13 seen)
LOADINGS_RTOL = 1e-8
# the embedding and cluster-count rule documented by flowcast.clustering
VARIANCE_RETAINED, DOMINANCE_RATIO, JUMP_FLOOR = 0.9, 4.0, 0.05


def res(estimate, truth):
    """Relative Frobenius residual ||estimate - truth|| / ||truth||."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def same_partition(a, b):
    """Whether two labelings split the items identically, up to renumbering."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        return False
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def seasonal_naive(history, horizon):
    """Same-weekday-last-week forecast: day d repeats day d - 7."""
    n_days = history.shape[1]
    days = [n_days - 7 + (h % 7) for h in range(horizon)]
    return history[:, days, :]


def check_ingest(tensor, station_ids, expected, expected_ids):
    if tensor.shape != expected.shape:
        return f"ingested shape {tensor.shape} != generated {expected.shape}"
    if list(station_ids) != list(expected_ids):
        return "station ids or their order differ from the CSV"
    if not np.array_equal(tensor, expected):
        bad = int(np.sum(tensor != expected))
        return f"{bad} ingested cells differ from the generated tensor"
    return None


def check_forecast(forecast, truth, naive_res):
    if forecast.shape != truth.shape:
        return f"forecast shape {forecast.shape} != {truth.shape}"
    if not np.all(np.isfinite(forecast)):
        return "forecast has non-finite cells"
    if np.any(forecast < 0):
        return "forecast has negative counts"
    got = res(forecast, truth)
    if not got < naive_res:
        return f"forecast RES {got:.4f} not below same-weekday-last-week {naive_res:.4f}"
    return None


def reference_embedding(weights, location_factor):
    """PCA scores of the weighted location factor, by numpy SVD."""
    x = location_factor * weights
    x = x - x.mean(axis=0)
    left, sing, _ = np.linalg.svd(x, full_matrices=False)
    explained = np.cumsum(sing**2) / np.sum(sing**2)
    m = int(np.searchsorted(explained, VARIANCE_RETAINED - 1e-12) + 1)
    return left[:, :m] * sing[:m]


def reference_clusters(coords, k=None):
    """Group-average clusters by scipy, cut at ``k`` or where the merge heights jump."""
    from scipy.cluster.hierarchy import fcluster, linkage

    z = linkage(coords, method="average")
    if k is None:
        d = z[:, 2]
        k = 1
        if len(d) >= 2 and d[-1] > 0:
            ratios = d[1:] / np.maximum(d[:-1], JUMP_FLOOR * d[-1])
            widest = int(np.argmax(ratios))
            if ratios[widest] >= DOMINANCE_RATIO:
                k = len(coords) - widest - 1
    return fcluster(z, k, criterion="maxclust"), k


def check_clusters(labels, weights, location_factor, k=None):
    """The program's clusters against scipy's on an embedding made here.

    With ``k=None`` the cluster count is scipy's too, by the merge-height rule.
    """
    ref_labels, ref_k = reference_clusters(reference_embedding(weights, location_factor), k)
    got_k = len(set(np.asarray(labels).tolist()))
    if got_k != ref_k:
        return f"cluster count {got_k} != {ref_k} from scipy's merge heights"
    if not same_partition(labels, ref_labels):
        return "clusters differ from scipy's group-average clusters"
    return None


def reference_loadings(spliced_day, temporal_row, u_p):
    """Weighted location loadings solving day ~ W (u_p * row)^T by lstsq."""
    design = u_p * temporal_row[None, :]
    coef, *_ = np.linalg.lstsq(design, spliced_day.T, rcond=None)
    return coef.T


def check_refresh(out_day, loadings, observed, day_new, long_day, temporal_row, u_p):
    """One lean_update: observed slots, finiteness, sign, and the loadings solve."""
    if out_day.shape != day_new.shape:
        return f"refreshed day shape {out_day.shape} != {day_new.shape}"
    if not np.array_equal(out_day[:, observed], day_new[:, observed]):
        return "observed slots differ from the observations"
    if not np.all(np.isfinite(out_day)) or np.any(out_day < 0):
        return "refreshed day is not finite and non-negative"
    spliced = np.where(observed[None, :], day_new, long_day)
    ref = reference_loadings(spliced, temporal_row, u_p)
    err = np.linalg.norm(loadings - ref) / np.linalg.norm(ref)
    if not err <= LOADINGS_RTOL:
        return f"loadings differ from the lstsq solve by {err:.2e} relative"
    return None


def check_completion(imputed, variance, observed_tensor, future, truth, naive_res):
    if imputed.shape != truth.shape or variance.shape != truth.shape:
        return "completion shape differs from the tensor"
    if not np.array_equal(imputed[~future], observed_tensor[~future]):
        return "observed cells were altered"
    if not np.all(variance[future] > 0):
        return "predictive variance is not positive on every masked cell"
    if np.any(variance[~future] != 0):
        return "predictive variance is non-zero on observed cells"
    got = res(imputed[future], truth[future])
    if not got < naive_res:
        return f"completion RES {got:.4f} not below same-slot-last-week {naive_res:.4f}"
    return None
