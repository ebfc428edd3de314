"""Station clustering from the CP location factor.

The location factor (weights folded in, so flow volume informs distance) is
centered and reduced by PCA, then stations are grouped bottom-up under
group-average (UPGMA) Euclidean linkage: merges and ties follow scipy's
average linkage, so traces are deterministic.
Completion downstream runs per cluster on the stations of each label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

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

    @cached_property
    def upgma_trace(self) -> tuple:
        """Full UPGMA merge history, built once and shared by every cut and count."""
        return tuple(_upgma_trace(self.coords))


@dataclass
class ClusterAssignment:
    """Flat labels plus the full merge history that produced them.

    ``linkage_trace`` rows are scipy's average-linkage rows as (cluster_a,
    cluster_b, distance, merged_size), with new clusters numbered L, L+1, ...
    in merge order.
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

    scipy's average linkage on condensed Euclidean distances (Muellner 2011),
    so merges and ties follow scipy; non-finite coordinates raise ValueError.
    """
    if coords.shape[0] < 2:
        return []
    # condensed distances: linkage would take square, symmetric,
    # zero-diagonal coordinates for a distance matrix
    return [(int(a), int(b), float(d), int(size))
            for a, b, d, size in linkage(pdist(coords), "average")]


def _labels_from_trace(n, trace, k):
    members = {i: [i] for i in range(n)}
    for step in range(n - k):
        a, b, _, _ = trace[step]
        members[n + step] = members.pop(a) + members.pop(b)
    labels = np.empty(n, dtype=np.int64)
    for c, group in enumerate(sorted(members.values(), key=min)):
        labels[group] = c
    return labels


def agglomerate(e: StationEmbedding, k: int) -> ClusterAssignment:
    """Cut the UPGMA dendrogram of the embedding at ``k`` clusters.

    Labels are numbered by each cluster's smallest station index.
    """
    n = e.n_stations
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    trace = e.upgma_trace
    return ClusterAssignment(_labels_from_trace(n, trace, k), k, list(trace))


DOMINANCE_RATIO = 4.0


def choose_cluster_count(e: StationEmbedding) -> int:
    """Cluster count at the largest jump between consecutive merge distances.

    The jump is measured as a ratio (denominator floored at 5% of the final
    merge distance, so near-duplicate stations cannot fake a jump) and must
    reach ``DOMINANCE_RATIO``; otherwise the embedding is treated as one
    homogeneous population.
    """
    trace = e.upgma_trace
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
