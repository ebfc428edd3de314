"""Station clustering from the CP location factor.

The location factor (weights folded in, so flow volume informs distance) is
centered and reduced by PCA, then stations are grouped bottom-up under
group-average (UPGMA) Euclidean linkage: merges and ties follow scipy's
average linkage, so traces are deterministic.
Completion downstream runs per cluster on the stations of each label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from .cp import CpModel
from .tensor_ops import as_whole

# share of the centred factor's variance that the kept principal components explain
VARIANCE_RETAINED = 0.9


@dataclass
class StationEmbedding:
    """PCA scores, one row per station."""

    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2:
            raise ValueError("coords must be a stations x components matrix")

    @cached_property
    def upgma_trace(self) -> np.ndarray:
        """scipy's read-only (n-1) x 4 average-linkage matrix (Muellner 2011), built
        once for every cut and count: row s merges clusters ``[s, 0]`` and ``[s, 1]``
        at distance ``[s, 2]`` into cluster n + s of ``[s, 3]`` stations.  Non-finite
        coordinates raise ValueError."""
        # condensed distances: linkage would take square, symmetric,
        # zero-diagonal coordinates for a distance matrix
        trace = (linkage(pdist(self.coords), "average") if len(self.coords) > 1
                 else np.empty((0, 4)))
        trace.flags.writeable = False
        return trace


@dataclass
class ClusterAssignment:
    """Flat labels in [0, k), every cluster used."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ValueError("labels must be a non-empty vector")
        self.k = as_whole(self.k, "k")
        if set(self.labels.tolist()) != set(range(self.k)):
            raise ValueError("labels must use every cluster in [0, k)")


def embed_stations(model: CpModel) -> StationEmbedding:
    """Center the weighted location factor and keep the leading PCA scores.

    The fewest principal components explaining at least ``VARIANCE_RETAINED``
    of the variance are kept.  A zero-variance factor embeds every station at
    0 in one component.
    """
    u = model.factors[0] * model.weights
    x = u - u.mean(axis=0)
    left, sing, _ = np.linalg.svd(x, full_matrices=False)
    total = float(np.sum(sing**2))
    if total <= 0.0:
        return StationEmbedding(np.zeros((len(x), 1)))
    explained = np.cumsum(sing**2) / total
    m = int(np.searchsorted(explained, VARIANCE_RETAINED - 1e-12) + 1)
    return StationEmbedding(left[:, :m] * sing[:m])


def _labels_from_trace(n, trace, k):
    members = {i: [i] for i in range(n)}
    for step, (a, b) in enumerate(trace[:n - k, :2].astype(np.int64).tolist()):
        members[n + step] = members.pop(a) + members.pop(b)
    labels = np.empty(n, dtype=np.int64)
    for c, group in enumerate(sorted(members.values(), key=min)):
        labels[group] = c
    return labels


def agglomerate(e: StationEmbedding, k: int) -> ClusterAssignment:
    """Cut the UPGMA dendrogram of the embedding at ``k`` clusters.

    Labels are numbered by each cluster's smallest station index.
    """
    n = len(e.coords)
    k = as_whole(k, "k", minimum=None)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    return ClusterAssignment(_labels_from_trace(n, e.upgma_trace, k), k)


DOMINANCE_RATIO = 4.0


def choose_cluster_count(e: StationEmbedding) -> int:
    """Cluster count at the largest jump between consecutive merge distances.

    The jump is measured as a ratio (denominator floored at 5% of the final
    merge distance, so near-duplicate stations cannot fake a jump) and must
    reach ``DOMINANCE_RATIO``; otherwise the embedding is treated as one
    homogeneous population.
    """
    d = e.upgma_trace[:, 2]
    if len(d) < 2 or d[-1] <= 0.0:
        return 1
    ratios = d[1:] / np.maximum(d[:-1], 0.05 * d[-1])
    widest = int(np.argmax(ratios))
    if ratios[widest] < DOMINANCE_RATIO:
        return 1
    return len(e.coords) - widest - 1
