"""Per-layer metrics, built from the spans of the traced passes.

Times and counts are per pass: totals over the traced passes divided by
their number.  ``self_s`` is a span's time minus the time of its child
spans.  ``tensor_ops.mttkrp.gflop`` and ``.gbytes`` are computed from the
shapes and sweep counts that ``cp_fit`` saw, not measured.
"""

from __future__ import annotations

import statistics

from tracing import EXPECTED, descendants_of, self_times

LAYERS = ("tensor_ops", "cp", "arma2d", "pipeline", "lrtc", "clustering", "io")

CALLS = ("tensor_ops.khatri_rao_all", "tensor_ops.cp_reconstruct", "cp.cp_fit",
         "arma2d.arma2d_fit", "arma2d.arma2d_forecast", "pipeline.lean_update",
         "lrtc.lrtc_fit")


def mttkrp_cost(counts):
    """FLOPs and bytes of the MTTKRPs in one cp_fit: per sweep, one per mode.

    Mode n multiplies the I_n x (N/I_n) unfolding by the (N/I_n) x R
    Khatri-Rao matrix (2NR flops, plus (N/I_n)R to form the matrix) and
    moves the tensor, the Khatri-Rao matrix and the I_n x R result once.
    """
    n, r, sweeps = counts["cells"], counts["rank"], counts["sweeps"]
    flops = bytes_ = 0
    for extent in counts["shape"]:
        other = n // extent
        flops += 2 * n * r + other * r
        bytes_ += 8 * (n + other * r + extent * r)
    return sweeps * flops, sweeps * bytes_


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def per_layer_metrics(tracer, traced_roots, untraced_s, traced_s, ref_ms):
    """The ``--trace 1`` metrics, plus human-readable lines that go with them."""
    spans = tracer.spans
    roots = list(traced_roots)
    inside = descendants_of(spans, roots)
    own = self_times(spans)
    n_pass = max(len(roots), 1)

    calls, self_s, total_s, layer_self, counts = {}, {}, {}, {}, {}
    for i in inside:
        name, start, end, _, extra = spans[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        layer = name.partition(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
        if extra:
            counts.setdefault(name, []).append(extra)

    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = _metric(calls.get(name, 0) / n_pass, "count")
    for name in EXPECTED:  # every traced public name has a self time
        m[f"{name}.self_s"] = _metric(self_s.get(name, 0.0) / n_pass, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _metric(layer_self.get(layer, 0.0) / n_pass, "s")

    fits = counts.get("cp.cp_fit", [])
    sweeps = sum(c["sweeps"] for c in fits)
    flops = bytes_ = 0
    for c in fits:
        f, b = mttkrp_cost(c)
        flops, bytes_ = flops + f, bytes_ + b
    m["tensor_ops.mttkrp.gflop"] = _metric(flops / 1e9 / n_pass, "GFLOP")
    m["tensor_ops.mttkrp.gbytes"] = _metric(bytes_ / 1e9 / n_pass, "GB")
    m["cp.sweeps"] = _metric(sweeps / n_pass, "count")
    m["cp.sweep_ms"] = _metric(
        total_s.get("cp.cp_fit", 0.0) / sweeps * 1e3 if sweeps else 0.0, "ms")
    m["cp.final_err"] = _metric(
        statistics.mean(c["final_err"] for c in fits) if fits else 0.0, "ratio")

    lfits = counts.get("lrtc.lrtc_fit", [])
    lsweeps = sum(c["sweeps"] for c in lfits)
    m["lrtc.sweeps"] = _metric(lsweeps / n_pass, "count")
    m["lrtc.sweep_ms"] = _metric(
        total_s.get("lrtc.lrtc_fit", 0.0) / lsweeps * 1e3 if lsweeps else 0.0, "ms")
    ranks = [c["effective_rank"] for c in counts.get("lrtc.short_term_predict", [])]
    m["lrtc.effective_rank"] = _metric(statistics.mean(ranks) if ranks else 0.0, "count")
    m["lrtc.observed_cells"] = _metric(
        sum(c["observed_cells"] for c in lfits) / n_pass, "count")

    ks = [c["k"] for c in counts.get("clustering.choose_cluster_count", [])]
    m["clustering.k"] = _metric(statistics.mean(ks) if ks else 0.0, "count")

    reads = counts.get("io.ingest", [])
    rows = sum(c["rows"] for c in reads)
    ingest_s = total_s.get("io.ingest", 0.0)
    m["io.rows_per_s"] = _metric(rows / ingest_s if ingest_s else 0.0, "1/s")
    m["io.csv_mb"] = _metric(
        statistics.mean(c["bytes"] for c in reads) / 1e6 if reads else 0.0, "MB")

    m["host.ref_ms"] = _metric(statistics.median(ref_ms), "ms")
    base, traced = statistics.median(untraced_s), statistics.median(traced_s)
    m["trace.overhead_pct"] = _metric((traced / base - 1.0) * 100.0, "%")

    lines = [f"traced passes {len(roots)}, untraced passes {len(untraced_s)}, "
             f"{len(inside)} spans in traced passes",
             f"trace.overhead_pct: traced pass median {traced:.6f} s against "
             f"untraced pass median {base:.6f} s"]
    if tracer.missing:
        lines.append(f"not found in the program, skipped: {', '.join(tracer.missing)}")
    lines += sorted(set(tracer.notes))
    return m, lines
