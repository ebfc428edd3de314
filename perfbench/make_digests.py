"""Record the digest of every workload's inputs for seeds 0 .. N-1.

    python3 perfbench/make_digests.py

Run from the root of a checkout.  Writes ``perfbench/digests.json``.  Each
benchmark run compares the digest of the inputs it generated with the one
recorded here for its seed, so a change to ``flowcast.synthetic`` shows up
as changed inputs (a failed check), never as a speed-up.  Regenerate only
in a change that redefines the benchmark's inputs.
"""

from __future__ import annotations

import json
import os
import sys

import run


N_SEEDS = 200


def main():
    fc = run.load_program()
    import workloads

    out = {}
    for name, cls in sorted(workloads.WORKLOADS.items()):
        out[name] = {}
        for seed in range(N_SEEDS):
            w = cls(fc, seed, run.RUNS_DIR)
            w.make_inputs()
            out[name][str(seed)] = w.input_digest()
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.DIGESTS)}: {N_SEEDS} seeds x {len(out)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
