"""CP decomposition of a flow tensor with alternating least squares.

Builds a noisy rank-3 station x day x slot tensor, recovers the factors,
and lets the holdout-based selector guess the rank.
"""

import numpy as np

from flowcast import (AlsConfig, CpModel, cp_fit, cp_rank_select,
                      cp_reconstruct, relative_residual)

rng = np.random.default_rng(42)

# A planted rank-3 model: unit-norm factor columns, decreasing weights.
factors = []
for extent in (10, 21, 16):
    f = rng.uniform(0.2, 1.0, size=(extent, 3))
    factors.append(f / np.linalg.norm(f, axis=0))
truth_model = CpModel(np.array([9.0, 5.0, 2.0]), factors)
truth = cp_reconstruct(truth_model)
noisy = truth + 0.01 * truth.std() * rng.standard_normal(truth.shape)

print("tensor extents:", noisy.shape, "planted rank: 3")

model, history = cp_fit(noisy, AlsConfig(rank=3, seed=0))
print(f"ALS sweeps: {len(history)}, "
      + ("converged" if history.converged else "stopped at max_iters without converging"))
print("fit RES trail:", " ".join(f"{r:.4f}" for r in history[:4]),
      "...", f"{history[-1]:.6f}")
print("recovered weights:", np.round(model.weights, 3))
print("truth weights:    ", truth_model.weights)

res_truth = relative_residual(cp_reconstruct(model), truth)
print(f"RES against the noiseless tensor: {res_truth:.4f}")

# Rank selection hides 20% of the cells and scores each candidate on them.
chosen = cp_rank_select(noisy, [1, 2, 3, 4, 5], holdout_fraction=0.2,
                        cfg=AlsConfig(rank=3, seed=0))
print("rank selected on held-out cells:", chosen)
