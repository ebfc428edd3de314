"""Run two sets of ten runs on one commit and report whether they agree.

    python3 perfbench/steadiness.py

Run from the root of a checkout.  Each set makes ten untraced runs of every
workload in ``BENCHMARK.json``, each ``run_seconds`` long and each with
another seed (set k uses seeds 10k .. 10k+9), one run at a time, the
workloads interleaved.  For every end-to-end metric and every workload it
prints each set's median and spread (interquartile range over the median),
and judges the metric steady when every spread is within the metric's bound
and the second set's median is worse than the first's by no more than it.
``host.ref_ms`` is printed beside them.  A summary is written to
``perfbench/runs/steadiness.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS, RUNS = 2, 10


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def one_run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(HERE, "runs", f"{workload}-seed{seed}-trace0.json")
    with open(record_path, encoding="utf-8") as fh:
        result["ref_ms"] = statistics.median(json.load(fh)["ref_ms"])
    result["wall_s"] = wall
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i
            for w in names:
                r = one_run(bench["command"], w, seed, seconds)
                results[w][s].append(r)
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"set {s} {w} seed {seed}: {vals} ref_ms={r['ref_ms']:.3f} "
                      f"failed={r['failed']}/{r['attempted']} correct={r['correct']} "
                      f"wall={r['wall_s']:.1f}s", flush=True)

    summary, ok = {}, True
    for w in names:
        print(f"\n{w}")
        sets = results[w]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                meds.append(statistics.median(vals))
                spreads.append(spread(vals) if len(vals) > 1 else 0.0)
            sign = 1.0 if m["better"] == "lower" else -1.0
            shifts = [sign * (x / meds[0] - 1.0) for x in meds[1:]]
            steady = all(sh <= bound for sh in shifts) and all(sp <= bound for sp in spreads)
            ok &= steady
            summary.setdefault(w, {})[name] = {"medians": meds, "spreads": spreads,
                                               "worse_by": shifts, "bound": bound,
                                               "steady": steady}
            print(f"  {name:12s} medians " + " ".join(f"{x:.6g}" for x in meds)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + "  worse by " + " ".join(f"{x:+.3f}" for x in shifts)
                  + f"  bound {bound}  {'ok' if steady else 'NOT STEADY'}")
        refs = [statistics.median(r["ref_ms"] for r in runs) for runs in sets]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        walls = [max(r["wall_s"] for r in runs) for runs in sets]
        same_share = len(set(shares)) == 1
        ok &= same_share
        summary[w]["host.ref_ms"] = refs
        summary[w]["failed_share"] = shares
        print("  host.ref_ms  medians " + " ".join(f"{x:.3f}" for x in refs)
              + "  failed share " + " ".join(f"{x:.6g}" for x in shares)
              + "  longest run " + " ".join(f"{x:.1f}s" for x in walls))
    summary["steady"] = ok
    with open(os.path.join(HERE, "runs", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "runs": results}, fh, indent=1)
    print(f"\n{'all steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
