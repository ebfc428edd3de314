"""The benchmark's own tests: every check rejects a deliberately corrupted output.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a checkout; flowcast is imported from ``src/``.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from time import perf_counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import flowcast as fc  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from hostclock import PERIOD_S, REF_MS, HostClock  # noqa: E402
from tracing import Tracer, descendants_of, self_times  # noqa: E402


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_ingest_check_rejects_one_changed_cell(tmp_path, rng):
    tensor = rng.uniform(0, 5, (3, 7, 4))
    ids = ["a", "b", "c"]
    path = tmp_path / "flows.csv"
    workloads.write_csv(path, tensor, ids)
    got, got_ids, _ = fc.ingest(path, (7, 4))
    assert checks.check_ingest(got, got_ids, tensor, ids) is None
    bad = got.copy()
    bad[1, 2, 3] = np.nextafter(bad[1, 2, 3], np.inf)
    assert "1 ingested cells differ" in checks.check_ingest(bad, got_ids, tensor, ids)
    assert checks.check_ingest(got, ["b", "a", "c"], tensor, ids) is not None


def test_forecast_check(rng):
    truth = rng.uniform(1, 2, (4, 7, 6))
    good = truth * 1.01
    assert checks.check_forecast(good, truth, naive_res=0.2) is None
    neg = good.copy()
    neg[0, 0, 0] = -1e-9
    assert "negative" in checks.check_forecast(neg, truth, 0.2)
    nan = good.copy()
    nan[1, 1, 1] = np.nan
    assert "non-finite" in checks.check_forecast(nan, truth, 0.2)
    assert "shape" in checks.check_forecast(good[:, :6], truth, 0.2)
    assert "not below" in checks.check_forecast(truth * 1.3, truth, 0.2)


def test_seasonal_naive_repeats_last_week():
    history = np.arange(14, dtype=float)[None, :, None]
    assert checks.seasonal_naive(history, 9).ravel().tolist() == [7, 8, 9, 10, 11, 12, 13, 7, 8]


def _clustered_model(rng):
    loads = np.repeat(np.eye(3), 5, axis=0) + 0.02 * rng.standard_normal((15, 3))
    return np.ones(3), loads


def test_cluster_check_rejects_one_swapped_label(rng):
    weights, loads = _clustered_model(rng)
    model = fc.CpModel(weights, [loads, np.ones((2, 3)), np.ones((2, 3))])
    emb = fc.embed_stations(model)
    k = fc.choose_cluster_count(emb)
    labels = fc.agglomerate(emb, k).labels
    assert k == 3
    assert checks.check_clusters(labels, weights, loads) is None
    swapped = labels.copy()
    swapped[0] = labels[-1]
    assert "differ" in checks.check_clusters(swapped, weights, loads)
    assert "cluster count" in checks.check_clusters(labels, weights, loads, k=2)
    assert checks.check_clusters((labels + 1) % 3, weights, loads) is None
    two = fc.agglomerate(emb, 2).labels
    assert checks.check_clusters(two, weights, loads, k=2) is None


def _refresh_case(rng, n_obs=10):
    n_loc, n_slots, rank = 8, 24, 3
    u_p = rng.uniform(0.1, 1.0, (n_slots, rank))
    row = rng.uniform(0.5, 1.5, rank)
    long_day = rng.uniform(0.5, 1.0, (n_loc, rank)) @ (u_p * row).T
    day_new = long_day * rng.uniform(0.6, 1.4, (n_loc, 1))
    observed = np.arange(n_slots) < n_obs
    spliced = np.where(observed[None, :], day_new, long_day)
    loadings = checks.reference_loadings(spliced, row, u_p)
    out = np.maximum(loadings @ (u_p * row).T, 0.0)
    out[:, observed] = day_new[:, observed]
    return out, loadings, observed, day_new, long_day, row, u_p


def test_refresh_check_rejects_each_corruption(rng):
    out, loadings, observed, day_new, long_day, row, u_p = _refresh_case(rng)
    args = (observed, day_new, long_day, row, u_p)
    assert checks.check_refresh(out, loadings, *args) is None
    off = loadings.copy()
    off[2, 1] += 1e-6 * np.linalg.norm(loadings)
    assert "lstsq" in checks.check_refresh(out, off, *args)
    cell = out.copy()
    cell[3, 0] += 1e-12
    assert "observed slots" in checks.check_refresh(cell, loadings, *args)
    neg = out.copy()
    neg[0, -1] = -0.5
    assert "non-negative" in checks.check_refresh(neg, loadings, *args)


def test_refresh_check_passes_on_lean_update(rng):
    tensor, _ = fc.generate_synthetic(fc.SyntheticSpec(extents=(6, 15, 24), seed=1))
    plan = fc.ForecastPlan(1, rank=3, arma_orders=(1, 1, 0, 0),
                           als=fc.AlsConfig(rank=3, max_iters=50))
    pred = fc.two_step_forecast(tensor[:, :14], plan)
    observed = np.arange(24) < 9
    upd = fc.lean_update(pred, tensor[:, 14], observed, pred.source_model)
    src = upd.source_model
    assert checks.check_refresh(upd.tensor[:, 0], src.factors[0] * src.weights, observed,
                                tensor[:, 14], pred.tensor[:, 0],
                                pred.source_model.factors[1][0],
                                pred.source_model.factors[2]) is None


def _completion_case(rng):
    truth = rng.uniform(1, 2, (4, 9, 6))
    future = np.zeros(truth.shape, dtype=bool)
    future[:, -1, 3:] = True
    observed = np.where(future, 0.0, truth)
    imputed = np.where(future, truth * 1.02, observed)
    variance = np.where(future, 0.1, 0.0)
    return imputed, variance, observed, future, truth


def test_completion_check_rejects_each_corruption(rng):
    imputed, variance, observed, future, truth = _completion_case(rng)
    args = (observed, future, truth, 0.2)
    assert checks.check_completion(imputed, variance, *args) is None
    moved = imputed.copy()
    moved[0, 0, 0] += 1e-9
    assert "observed cells" in checks.check_completion(moved, variance, *args)
    zero = variance.copy()
    zero[1, -1, 4] = 0.0
    assert "not positive" in checks.check_completion(imputed, zero, *args)
    leak = variance.copy()
    leak[2, 0, 0] = 1e-6
    assert "non-zero" in checks.check_completion(imputed, leak, *args)
    worse = np.where(future, truth * 1.5, observed)
    assert "not below" in checks.check_completion(worse, variance, *args)


def test_same_partition():
    assert checks.same_partition([0, 0, 1, 1], [1, 1, 0, 0])
    assert not checks.same_partition([0, 0, 1, 1], [0, 1, 1, 1])
    assert not checks.same_partition([0, 1, 2, 2], [0, 0, 1, 1])


def test_self_time_and_descendants():
    spans = [["pass", 0.0, 10.0, -1, None], ["a", 1.0, 6.0, 0, None],
             ["b", 2.0, 3.0, 1, None], ["c", 7.0, 9.0, 0, None], ["other", 11.0, 12.0, -1, None]]
    assert self_times(spans) == [3.0, 4.0, 1.0, 2.0, 1.0]
    assert descendants_of(spans, [0]) == [1, 2, 3]


def test_tracer_sees_calls_between_modules_and_restores_them():
    original = fc.cp.khatri_rao_all
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("pass") as root:
            tensor, _ = fc.generate_synthetic(fc.SyntheticSpec(extents=(4, 14, 6), seed=0))
            fc.two_step_forecast(tensor, fc.ForecastPlan(1, rank=2, arma_orders=(1, 1, 0, 0),
                                                         als=fc.AlsConfig(rank=2, max_iters=3)))
    finally:
        tracer.uninstall()
    assert fc.cp.khatri_rao_all is original
    assert tracer.missing == []
    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"pipeline.two_step_forecast", "cp.cp_fit", "tensor_ops.khatri_rao_all",
            "arma2d.arma2d_fit", "tensor_ops.cp_reconstruct"} <= names
    by_index = {i: s for i, s in enumerate(spans)}
    fit = next(s for s in spans if s[0] == "cp.cp_fit")
    assert by_index[fit[3]][0] == "pipeline.two_step_forecast"
    assert fit[4]["sweeps"] == 3
    krs = [s for s in spans if s[0] == "tensor_ops.khatri_rao_all"]
    assert len(krs) == 9 and all(by_index[s[3]][0] == "cp.cp_fit" for s in krs)
    assert spans[root][0] == "pass"


def test_tracer_reports_a_removed_name(monkeypatch):
    monkeypatch.delattr(fc.io, "ingest")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["io.ingest"]


def test_mttkrp_cost_counts_each_mode():
    flops, bytes_ = layers.mttkrp_cost({"cells": 24, "rank": 2, "sweeps": 1,
                                         "shape": [2, 3, 4]})
    assert flops == 3 * 2 * 24 * 2 + (12 + 8 + 6) * 2
    assert bytes_ == 8 * (3 * 24 + (12 + 8 + 6) * 2 + (2 + 3 + 4) * 2)


def test_timed_counts_its_block_and_not_the_sampler():
    clock = workloads.timed.clock = HostClock()
    tracemalloc.start()
    try:
        before = np.ones(1_000_000)  # 8 MB held from before the block: not its peak
        with workloads.timed() as t:
            block = np.ones(250_000)  # 2 MB, freed before the block ends
            clock.sample()
            del block
    finally:
        tracemalloc.stop()
        workloads.timed.clock = None
    assert before.size and 2.0 <= t.peak_mb < 2.5
    assert t.end - t.start - t.seconds == pytest.approx(clock.spent_s, abs=1e-9)


def test_host_clock_scales_by_the_samples_nearby():
    clock = HostClock()
    clock.times = [0.0, 1.0, 2.0, 10.0]
    clock.ms = [6.0, 12.0, 12.0, 3.0]
    assert clock.factor(1.0, 2.0) == REF_MS / 12.0
    assert clock.factor(0.0, 0.0) == REF_MS / 6.0
    # nothing within a period: the nearest samples on either side
    assert clock.factor(5.0, 5.1) == pytest.approx(REF_MS * 2 / 15.0)


def test_host_clock_samples_inside_a_long_call():
    clock = HostClock()
    clock.start()
    try:
        deadline = perf_counter() + 3.5 * PERIOD_S
        while perf_counter() < deadline:
            pass
    finally:
        clock.stop()
    assert len(clock.ms) >= 2 and all(ms > 0 for ms in clock.ms)
