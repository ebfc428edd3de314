"""Intraday refresh of a day-ahead forecast from a partial day of data.

The scenario: day 49 unfolds differently from what the long-term model
expected (every station is scaled by a random factor).  Once the first
30% of the day's slots are in, the location factor is re-solved against
them and the rest of the day is re-predicted.  Scoring runs in 5-slot
blocks so the decay of the update's advantage over the day is visible.
"""

import numpy as np

from flowcast import (ExperimentConfig, ForecastPlan, SyntheticSpec,
                      generate_synthetic, update_report)

tensor, _ = generate_synthetic(SyntheticSpec(seed=7))
rng = np.random.default_rng(1007)
tensor[:, 49, :] *= rng.uniform(0.6, 1.4, tensor.shape[0])[:, None]

cfg = ExperimentConfig(split_day=49,
                       plan=ForecastPlan(1, rank=6, arma_orders=(1, 2, 0, 0)))
report = update_report(tensor, cfg, observed_fraction=0.3)

print("block   slots   long-term RES   updated RES   improvement")
for start, length, res_long, res_upd, imp in report.rows:
    print(f"{start:5d}   {length:5d}   {res_long:13.4f}   {res_upd:11.4f}   {imp:+10.1%}")

s = report.summary
print(f"\nobserved slots: {s['observed_slots']} of {tensor.shape[2]}")
print(f"mean RES {s['mean_res_longterm']:.4f} -> {s['mean_res_updated']:.4f}")
print(f"blocks improved: {s['improved_fraction']:.0%} overall, "
      f"{s['early_improved_fraction']:.0%} in the early half")
