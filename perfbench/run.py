"""Benchmark for flowcast: one workload, one thread, a closed loop with one client.

    python3 perfbench/run.py --workload network-week --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  It imports flowcast from ``src/`` of that
checkout, builds the workload's inputs from ``--seed``, sets up several
times (``setup_s`` is the median), then makes whole passes of the workload's
user operations until ``--seconds`` have gone by, checking every output.
Times are reported at one host speed: a reference computation is timed four
times a second all through the run, and each operation's and set-up's time
is scaled by how fast the host was while it ran (see ``hostclock``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, built from the
traced passes.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines above it name every figure with its unit, and a run record (with
the spans, when traced) is written under ``perfbench/runs/``.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy is first imported: the
# default two OpenBLAS threads double the CPU time for the same wall time here.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from time import perf_counter  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from hostclock import REF_MS, HostClock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(HERE, "runs")
DIGESTS = os.path.join(HERE, "digests.json")


def load_program():
    """Import flowcast from this checkout's ``src/``, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import flowcast
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import flowcast from {SRC}: {exc}") from None
    origin = os.path.realpath(flowcast.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: flowcast was imported from {origin}, not from {SRC}")
    return flowcast


def describe_host():
    """What the run ran on: revision, versions, BLAS, threads, cores."""
    import numpy as np
    import scipy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """The highest percentile with at least ten samples beyond it, or None under forty."""
    n = len(values)
    if n < 40:
        return None
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        beyond = n - int(n * pct / 100.0)
        if beyond >= 10:
            ordered = sorted(values)
            return pct, ordered[int(n * pct / 100.0) - 1], n
    return None


def reference_pass(workload):
    """One untimed pass on the fixed reference inputs: peak memory (MB) and the result.

    The peak is the largest of the operations' own peaks, each measured from
    the call's start to its return, so the checks do not count.  The pass
    also lets lazy set-up and caches settle before timing starts.
    tracemalloc sees Python objects and numpy buffers; its cost falls on this
    pass only.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = workload.run_pass()
    finally:
        tracemalloc.stop()
    return max((op.peak_mb for op in result.ops), default=0.0), result


def time_setups(workload, repeats, clock):
    """Set up ``repeats`` times: seconds as measured, and at the reference speed."""
    times, at_ref = [], []
    for _ in range(repeats):
        gc.collect()
        with workloads.timed() as t:
            workload.setup()
        times.append(t.seconds)
        at_ref.append(t.seconds * clock.factor(t.start, t.end))
    return times, at_ref


def loop(workload, seconds, clock, tracer=None):
    """Whole passes until ``seconds`` have gone by; with a tracer, alternate traced ones.

    The host clock pauses during traced passes, so its samples add nothing
    to their spans.
    """
    passes, traced, untraced_s, traced_s = [], [], [], []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        use_trace = tracer is not None and i % 2 == 1
        if use_trace:
            clock.stop()
            tracer.install()
            with tracer.root("pass") as index:
                result = workload.run_pass()
            tracer.uninstall()
            clock.start()
            traced.append(index)
            traced_s.append(result.seconds)
        else:
            result = workload.run_pass()
            untraced_s.append(result.seconds)
        passes.append(result)
        i += 1
        if perf_counter() >= deadline and (tracer is None or traced):
            break
    return passes, traced, untraced_s, traced_s


def check_digest(name, seed, got):
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh).get(name, {}).get(str(seed))
    except (OSError, ValueError):
        recorded = None
    if recorded is None:
        return None, f"inputs: no digest recorded for seed {seed} (got {got})"
    if recorded != got:
        return (f"inputs differ from the digest recorded for seed {seed} "
                f"({got} != {recorded}): the generator changed"), None
    return None, f"inputs: digest {got} matches the one recorded for seed {seed}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = perf_counter()
    fc = load_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(RUNS_DIR, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    # accuracy and memory come from inputs that do not depend on the seed, so
    # they repeat exactly from run to run and any change to them shows
    reference = cls(fc, workloads.REFERENCE_SEED, RUNS_DIR)
    workload = cls(fc, args.seed, RUNS_DIR)
    failures = []
    clock = workloads.timed.clock = HostClock()
    try:
        reference.setup()
        reference.prepare_checks()
        peak_mb, ref_result = reference_pass(reference)
        failures += sorted({f"reference {op.name}: {op.failure}" for op in ref_result.ops
                            if op.failure is not None})
        clock.start()
        clock.sample()
        setups, setups_at_ref = time_setups(workload, workload.setup_repeats, clock)
        workload.prepare_checks()
        problem, note = check_digest(workload.name, args.seed, workload.input_digest())
        if problem:
            failures.append(problem)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        passes, traced, untraced_s, traced_s = loop(workload, args.seconds, clock, tracer)
    finally:
        clock.stop()
        reference.cleanup()
        workload.cleanup()

    ops = [op for res in passes for op in res.ops]
    bad = [op for op in ops if op.failure is not None]
    # a call that raised is a failed operation; an output a check rejects is also wrong
    failures += sorted({f"{op.name}: {op.failure}" for op in bad if not op.raised})
    correct = not failures

    by_name = {}
    for op in ops:
        if op.failure is None:
            by_name.setdefault(op.name, []).append(op.seconds)
    latency = workloads.latency_samples(workload, passes,
                                        lambda op: clock.factor(op.start, op.end))
    raw_latency = workloads.latency_samples(workload, passes)
    ref_ms = clock.ms

    host = describe_host()
    lines = [f"workload {workload.name} seed {args.seed}: {len(passes)} passes, "
             f"{len(ops)} operations, {len(bad)} failed",
             "host: " + ", ".join(f"{k} {v}" for k, v in host.items() if k != "threads")
             + f", threads {host['threads']['OPENBLAS_NUM_THREADS']}"]
    if note:
        lines.append(note)
    lines.append(f"setup_s runs: {', '.join(f'{s:.4f}' for s in setups)} as measured; "
                 f"{', '.join(f'{s:.4f}' for s in setups_at_ref)} at the reference speed")
    lines.append(f"latency_ms as measured = {median(raw_latency) * 1e3:.6g} ms; at the "
                 f"reference speed (reference {REF_MS} ms) = {median(latency) * 1e3:.6g} ms "
                 f"(median of {len(latency)})")
    for op_name, label in workload.report_names.items():
        vals = by_name.get(op_name, [])
        scale = 1e3 if label.endswith("_ms") else 1.0
        lines.append(f"{label} = {median(vals) * scale:.6g} {label.rpartition('_')[2]} "
                     f"(median of {len(vals)}, as measured)")
        t = tail(vals)
        if t:
            lines.append(f"{label[:-3]}_tail_ms = {t[1] * 1e3:.6g} ms "
                         f"(p{t[0]:g} of {t[2]} samples)")
    lines.append(f"{workload.res_name} = {median([r.res for r in passes]):.6g} RES on seed "
                 f"{args.seed} ({ref_result.res:.6g} on the reference inputs, seed "
                 f"{workloads.REFERENCE_SEED}, reported as res)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"peak_rss_mb = {rss:.1f} MB (process high-water mark, set-up included)")
    lines.append(f"host.ref_ms median {median(ref_ms):.4f} (min {min(ref_ms):.4f}, "
                 f"max {max(ref_ms):.4f})")
    for key in sorted({k for r in passes for k in r.notes}):
        seen = sorted({json.dumps(r.notes.get(key)) for r in passes})
        lines.append(f"program {key}: {', '.join(seen)} (over {len(passes)} passes)")
    for f in failures:
        lines.append(f"CHECK FAILED: {f}")

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "setup_s": setups,
              "setup_s_at_ref": setups_at_ref, "ref_ms": ref_ms, "ref_ms_scale": REF_MS,
              "failures": failures,
              "ops": by_name}
    if args.trace:
        metrics, extra = layers.per_layer_metrics(tracer, traced, untraced_s, traced_s, ref_ms)
        lines += extra
        record["spans"] = tracer.spans
        record["missing"] = tracer.missing
        record["notes"] = sorted(set(tracer.notes))
    else:
        metrics = {
            "setup_s": {"value": median(setups_at_ref), "unit": "s"},
            "latency_ms": {"value": median(latency) * 1e3, "unit": "ms"},
            "res": {"value": ref_result.res, "unit": "RES"},
            "peak_mb": {"value": peak_mb, "unit": "MB"},
        }
    for m in metrics.values():  # a metric with no sample is null, not NaN
        if m["value"] is not None and m["value"] != m["value"]:
            m["value"] = None
    record["metrics"] = metrics
    record["elapsed_s"] = perf_counter() - started
    out_name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RUNS_DIR, out_name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
