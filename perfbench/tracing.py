"""Spans around calls into flowcast's public functions, recorded from outside.

The tracer replaces every public function of every ``flowcast`` module with a
thin wrapper, in the defining module and in every other flowcast namespace
that imported it by name (so ``pipeline`` -> ``cp_fit`` and ``cp`` ->
``khatri_rao_all`` are caught too).  Private helpers are left alone.  Each
call records a span ``[name, start, end, parent, counts]`` in memory; the
spans are written out once, when the run ends.

A few boundaries also record counts read from what the call returned (ALS
sweeps from ``cp_fit``'s history, LRTC sweeps from ``LrtcPosterior.elbo``,
rows from ``ingest``'s report).  A name listed in ``EXPECTED`` that the
program no longer defines is reported in ``missing``, never fatal, and a
count that can no longer be read is reported in ``notes``.
"""

from __future__ import annotations

import inspect
import os
import sys
from time import perf_counter

# names the per-layer metrics are built from
EXPECTED = (
    "tensor_ops.khatri_rao_all", "tensor_ops.cp_reconstruct",
    "cp.cp_fit",
    "arma2d.arma2d_fit", "arma2d.arma2d_forecast",
    "pipeline.two_step_forecast", "pipeline.lean_update",
    "pipeline.update_location_factor",
    "lrtc.short_term_predict", "lrtc.lrtc_fit", "lrtc.lrtc_predict",
    "clustering.embed_stations", "clustering.choose_cluster_count",
    "clustering.agglomerate",
    "io.ingest",
)


def _cp_fit_counts(args, kwargs, result):
    t, cfg = args[0], args[1]
    shape = tuple(t.shape)
    n_cells = 1
    for s in shape:
        n_cells *= s
    history = result[1]
    return {"sweeps": len(history), "final_err": float(history[-1]),
            "shape": list(shape), "rank": int(cfg.rank), "cells": n_cells}


def _lrtc_fit_counts(args, kwargs, result):
    return {"sweeps": len(result.elbo), "observed_cells": int(args[1].sum())}


def _completion_counts(args, kwargs, result):
    return {"effective_rank": int(result.effective_rank)}


def _cluster_count_counts(args, kwargs, result):
    return {"k": int(result)}


def _ingest_counts(args, kwargs, result):
    return {"rows": int(result[2].n_rows), "bytes": os.path.getsize(args[0])}


COUNTS = {
    "cp.cp_fit": _cp_fit_counts,
    "lrtc.lrtc_fit": _lrtc_fit_counts,
    "lrtc.short_term_predict": _completion_counts,
    "clustering.choose_cluster_count": _cluster_count_counts,
    "io.ingest": _ingest_counts,
}


class Tracer:
    """Wraps flowcast's public functions while installed; keeps spans in memory."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.notes = []
        self._stack = []
        self._patched = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "flowcast" or name.startswith("flowcast."))]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        names = {w.__name__ for w in wrappers.values()}
        self.missing = [n for n in EXPECTED if n not in names]

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts = COUNTS.get(name)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counts is not None:
                try:
                    record[4] = counts(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    self.notes.append(f"{name}: counts unreadable ({exc!r})")
            return result

        wrapper.__name__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, name):
        """Context manager for a span that is not a program call; yields its index."""
        return _Root(self, name)


class _Root:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, -1, None]

    def __enter__(self):
        t = self.tracer
        self.record[3] = t._stack[-1] if t._stack else -1
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[1] = perf_counter()
        return len(t.spans) - 1

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans):
    """Per-span self time: duration minus the time of its direct child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def descendants_of(spans, roots):
    """Indices of every span below one of ``roots`` (spans are in start order)."""
    inside = set(roots)
    out = []
    for i, s in enumerate(spans):
        if s[3] in inside:
            inside.add(i)
            out.append(i)
    return out
