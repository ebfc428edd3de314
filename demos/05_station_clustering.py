"""Grouping stations by their latent CP loadings.

Two planted populations (residential-like and office-like profiles) are
recovered from the fitted location factor alone: project the weighted
loadings onto their principal axes, agglomerate with average linkage, and
let the merge-distance jump pick the cluster count.  Completing each
cluster separately then beats one joint completion of the mixed tensor.
"""

import numpy as np

from flowcast import (LrtcHyperParams, SyntheticSpec, agglomerate,
                      choose_cluster_count, cp_fit, AlsConfig,
                      embed_stations, generate_synthetic, planted_labels,
                      relative_residual, short_term_predict)

spec = SyntheticSpec(extents=(12, 28, 24), rank=4, n_clusters=2,
                     separation=50.0, seed=2)
tensor, _ = generate_synthetic(spec)
truth_labels = planted_labels(spec)

model, _ = cp_fit(tensor, AlsConfig(rank=4, seed=0))
embedding = embed_stations(model)
print(f"embedding: {len(embedding.coords)} stations in "
      f"{embedding.coords.shape[1]} principal dimensions")

k = choose_cluster_count(embedding)
assign = agglomerate(embedding, k)
print(f"chosen cluster count: {k}")
print("labels: ", assign.labels)
print("planted:", truth_labels)

print("\nlast merges of the linkage trace (id_a, id_b, distance, size):")
for a, b, dist, size in embedding.upgma_trace[-3:]:
    print(f"  ({a:2.0f}, {b:2.0f}, {dist:8.4f}, {size:2.0f})")

# Per-cluster completion of a masked evening suffix vs one joint run.
future = np.zeros(tensor.shape, dtype=bool)
future[:, -1, 12:] = True
hp = LrtcHyperParams(max_rank=3, max_iters=80, elbo_tol=1e-7, seed=0)
joint = short_term_predict(tensor, future, hp)

imputed = np.empty_like(tensor)
for c in range(assign.k):
    members = assign.labels == c
    imputed[members] = short_term_predict(tensor[members], future[members], hp).imputed

res_joint = relative_residual(joint.imputed, tensor, future)
res_split = relative_residual(imputed, tensor, future)
print(f"\nsuffix RES: joint {res_joint:.4f} vs per-cluster {res_split:.4f}")
