"""Station clustering from the CP location factor.

The location factor (weights folded in, so flow volume informs distance) is
centered and reduced by PCA, then stations are grouped bottom-up under
group-average (UPGMA) Euclidean linkage.  Merge ties break toward the pair
containing the lowest station index, which makes traces deterministic.
Completion downstream runs per cluster on the split tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cp import CpModel


@dataclass
class StationEmbedding:
    """PCA scores per station; ``degenerate`` flags a zero-variance factor."""

    station_ids: list
    coords: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2:
            raise ValueError("coords must be a stations x components matrix")
        if len(self.station_ids) != self.coords.shape[0]:
            raise ValueError("one id per embedded station required")

    @property
    def n_stations(self) -> int:
        return self.coords.shape[0]


@dataclass
class ClusterAssignment:
    """Flat labels plus the full merge history that produced them.

    ``linkage_trace`` rows are (cluster_a, cluster_b, distance, merged_size)
    with new clusters numbered L, L+1, ... in merge order.
    """

    labels: np.ndarray
    k: int
    linkage_trace: list = field(default_factory=list)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ValueError("labels must be a non-empty vector")
        if self.k < 1 or set(self.labels.tolist()) != set(range(self.k)):
            raise ValueError("labels must use every cluster in [0, k)")


def embed_stations(model: CpModel, variance_retained: float = 0.9,
                   station_ids=None) -> StationEmbedding:
    """Center the weighted location factor and keep the leading PCA scores.

    The smallest number of principal components explaining at least
    ``variance_retained`` of the variance is kept; ``variance_retained=1``
    keeps the full numerical rank.  A zero-variance factor yields a
    single-component zero embedding flagged degenerate.
    """
    if not 0.0 < variance_retained <= 1.0:
        raise ValueError("variance_retained must lie in (0, 1]")
    u = model.factors[0] * model.weights
    n = u.shape[0]
    ids = list(station_ids) if station_ids is not None else list(range(n))
    if len(ids) != n:
        raise ValueError("one id per station required")

    x = u - u.mean(axis=0)
    left, sing, _ = np.linalg.svd(x, full_matrices=False)
    total = float(np.sum(sing**2))
    if total <= 0.0:
        return StationEmbedding(ids, np.zeros((n, 1)), degenerate=True)
    if variance_retained == 1.0:
        m = int(np.sum(sing > sing[0] * max(x.shape) * np.finfo(float).eps))
    else:
        explained = np.cumsum(sing**2) / total
        m = int(np.searchsorted(explained, variance_retained - 1e-12) + 1)
    return StationEmbedding(ids, left[:, :m] * sing[:m])


def _upgma_trace(coords):
    """Full group-average merge history over the embedding rows.

    Lance-Williams updates on a dense distance matrix (Muellner 2011).  Each
    cluster lives in the row of its smallest station, so the first minimum
    in row-major order is the closest pair with the lowest station indices.
    """
    n = coords.shape[0]
    dist = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = np.linalg.norm(coords[i] - coords[j])
    ids = np.arange(n)
    sizes = np.ones(n)
    trace = []
    for step in range(n - 1):
        lo, hi = divmod(int(np.argmin(dist)), n)
        d = float(dist[lo, hi])
        na, nb = sizes[lo], sizes[hi]
        merged = (na * dist[lo] + nb * dist[hi]) / (na + nb)
        dist[lo], dist[:, lo] = merged, merged
        dist[hi], dist[:, hi] = np.inf, np.inf
        dist[lo, lo] = np.inf
        a, b = sorted((int(ids[lo]), int(ids[hi])))
        trace.append((a, b, d, int(na + nb)))
        ids[lo], sizes[lo] = n + step, na + nb
    return trace


def _labels_from_trace(n, trace, k):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    member_lists = {i: [i] for i in range(n)}
    for step in range(n - k):
        a, b, _, _ = trace[step]
        new_members = sorted(member_lists.pop(a) + member_lists.pop(b))
        member_lists[n + step] = new_members
        root = new_members[0]
        for s in new_members:
            parent[find(s)] = find(root)

    reps = sorted({find(i) for i in range(n)})
    order = {r: c for c, r in enumerate(reps)}
    return np.array([order[find(i)] for i in range(n)], dtype=np.int64)


def agglomerate(e: StationEmbedding, k: int) -> ClusterAssignment:
    """Cut the UPGMA dendrogram of the embedding at ``k`` clusters.

    Labels are numbered by each cluster's smallest station index.
    """
    n = e.n_stations
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    trace = _upgma_trace(e.coords)
    return ClusterAssignment(_labels_from_trace(n, trace, k), k, trace)


DOMINANCE_RATIO = 4.0


def choose_cluster_count(e: StationEmbedding) -> int:
    """Cluster count at the largest jump between consecutive merge distances.

    The jump is measured as a ratio (denominator floored at 5% of the final
    merge distance, so near-duplicate stations cannot fake a jump) and must
    reach ``DOMINANCE_RATIO``; otherwise the embedding is treated as one
    homogeneous population.
    """
    trace = _upgma_trace(e.coords)
    if len(trace) < 2:
        return 1
    d = np.array([row[2] for row in trace])
    if d[-1] <= 0.0:
        return 1
    ratios = d[1:] / np.maximum(d[:-1], 0.05 * d[-1])
    widest = int(np.argmax(ratios))
    if ratios[widest] < DOMINANCE_RATIO:
        return 1
    return e.n_stations - widest - 1


def split_tensor_by_cluster(t, assign: ClusterAssignment):
    """One sub-tensor per cluster, station order preserved within each."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 1 or t.shape[0] != assign.labels.size:
        raise ValueError("tensor station extent does not match the assignment")
    return [t[assign.labels == c] for c in range(assign.k)]
