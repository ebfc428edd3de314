"""Acceptance gate: one test per headline capability.

Each test prints a single ``criterion N PASS`` line with the measured
numbers (visible with ``pytest -s`` and on failure) and enforces its own
wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from flowcast.arma2d import Arma2dModel, arma2d_fit, simulate_field
from flowcast.clustering import agglomerate, embed_stations
from flowcast.cp import AlsConfig, CpModel, cp_fit, cp_solve_mode
from flowcast.experiments import (ExperimentConfig, load_input, longterm_report,
                                  update_report)
from flowcast.io import export, ingest
from flowcast.lrtc import LrtcHyperParams, lrtc_fit, lrtc_predict, short_term_predict
from flowcast.pipeline import DayPrediction, ForecastPlan, lean_update
from flowcast.synthetic import SyntheticSpec, generate_synthetic
from flowcast.tensor_ops import (cp_reconstruct, fold, khatri_rao,
                                 relative_residual, unfold)

pytestmark = pytest.mark.filterwarnings(
    "ignore::flowcast.tensor_ops.DegenerateSolveWarning")


def finish(criterion, label, detail, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {criterion} took {elapsed:.1f}s (limit {limit:.0f}s)"
    print(f"criterion {criterion} PASS: {label} ({detail}, {elapsed:.1f}s)")


def test_criterion_1_cp_exact_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    factors = []
    for extent in (20, 20, 20):
        f = rng.normal(size=(extent, 3))
        factors.append(f / np.linalg.norm(f, axis=0))
    weights = np.sort(rng.uniform(0.5, 2.0, 3))[::-1]
    truth = cp_reconstruct(CpModel(weights, factors))

    model, history = cp_fit(truth, AlsConfig(rank=3, max_iters=500, tol=1e-12, seed=0))
    res = relative_residual(cp_reconstruct(model), truth)
    assert res < 1e-6
    assert len(history) <= 500
    assert np.all(np.diff(history) <= 1e-12)
    finish(1, "CP exact recovery", f"RES={res:.1e} in {len(history)} sweeps",
           started, 10.0)


def test_criterion_2_full_observation_update_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = CpModel(np.sort(rng.uniform(1.0, 4.0, 3))[::-1],
                        [rng.normal(size=(8, 3)), rng.normal(size=(1, 3)),
                         rng.normal(size=(12, 3))])
        prediction = DayPrediction(np.maximum(cp_reconstruct(model), 0.0),
                                   model, "long_term")
        day = np.abs(rng.normal(size=(8, 12)))
        updated = lean_update(prediction, day, np.ones(12, dtype=bool), model)
        w_lean = updated.source_model.factors[0] * updated.source_model.weights
        w_direct = cp_solve_mode(day[:, None, :], model, 0)
        worst = max(worst, np.linalg.norm(w_lean - w_direct) / np.linalg.norm(w_direct))
    assert worst < 1e-10
    finish(2, "full-observation update equals generic solve",
           f"worst rel error {worst:.1e} over 10 models", started, 1.0)


def test_criterion_3_arma2d_coefficient_recovery():
    started = time.perf_counter()
    truth = np.array([[0.0, 0.5], [0.3, -0.15]])
    model = Arma2dModel(truth, np.ones((1, 1)), 0.01, (1, 1, 0, 0))
    hits = np.zeros(3, dtype=int)
    for seed in range(13, 23):
        fitted = arma2d_fit(simulate_field(model, 7, 200, seed=seed), (1, 1, 0, 0))
        errors = np.array([abs(fitted.ar[0, 1] - 0.5),
                           abs(fitted.ar[1, 0] - 0.3),
                           abs(fitted.ar[1, 1] + 0.15)])
        hits += errors < 0.05
    assert np.all(hits >= 8), f"per-coefficient hits {hits.tolist()}"
    finish(3, "2D-ARMA coefficient recovery",
           f"hits {hits.tolist()} of 10 within +/-0.05", started, 5.0)


def test_criterion_4_longterm_beats_ar_baseline():
    started = time.perf_counter()
    improvements = []
    for seed in (0, 1, 2):
        cfg = ExperimentConfig(seed=seed,
                               plan=ForecastPlan(7, rank=6, arma_orders=(1, 2, 0, 0)))
        report = longterm_report(*load_input(cfg), cfg)
        improvements.append(report.summary["relative_improvement"])
    assert all(imp >= 0.10 for imp in improvements)
    detail = "/".join(f"{imp:.0%}" for imp in improvements)
    finish(4, "2-step forecast beats 8-lag AR by >=10%",
           f"improvements {detail} on 12x56x48 suite", started, 120.0)


def test_criterion_5_update_improves_early_blocks():
    started = time.perf_counter()
    tensor, _ = generate_synthetic(SyntheticSpec(seed=7))
    rng = np.random.default_rng(1007)
    tensor[:, 49, :] *= rng.uniform(0.6, 1.4, tensor.shape[0])[:, None]
    report = update_report(
        tensor, ExperimentConfig(plan=ForecastPlan(1, rank=6, arma_orders=(1, 2, 0, 0))),
        observed_fraction=0.3)
    early = report.summary["early_improved_fraction"]
    assert early >= 0.60
    finish(5, "30%-prefix update improves early blocks",
           f"{early:.0%} of early blocks improved", started, 60.0)


def test_criterion_6_lrtc_completion():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    factors = [rng.normal(size=(15, 2)) for _ in range(3)]
    factors = [f / np.linalg.norm(f, axis=0) for f in factors]
    truth = cp_reconstruct(CpModel(np.array([3.0, 2.0]), factors))
    rms = np.sqrt((truth ** 2).mean())
    y = truth + 0.01 * rms * rng.normal(size=truth.shape)
    observed = np.random.default_rng(100).random(y.shape) < 0.7

    hp = LrtcHyperParams(max_rank=8, max_iters=300, elbo_tol=1e-8, seed=0)
    post = lrtc_fit(y, observed, hp)
    result = lrtc_predict(post, observed, y)
    res = relative_residual(result.imputed, truth, ~observed)
    elbo = np.asarray(post.elbo)
    assert res < 0.05
    assert not (np.diff(elbo) < -1e-8 * np.abs(elbo[:-1])).any()
    assert result.effective_rank <= 3
    finish(6, "LRTC completion of 30% missing cells",
           f"missing-cell RES {res:.4f}, effective rank {result.effective_rank}",
           started, 60.0)


def test_criterion_7_clustered_completion_and_partition():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    n_loc, n_days, n_slots = 16, 12, 24
    days, slots = np.arange(n_days), np.arange(n_slots)

    def bump(center, width):
        return np.exp(-0.5 * ((slots - center) / width) ** 2) + 0.1

    u_t = np.column_stack([
        1.0 + 0.3 * np.sin(2 * np.pi * days / 7),
        1.0 + 0.3 * np.cos(2 * np.pi * days / 7),
        1.0 + 0.4 * np.sin(2 * np.pi * (days + 3) / 7),
        1.0 + 0.2 * np.cos(4 * np.pi * days / 7),
    ])
    u_p = np.column_stack([bump(6, 2), bump(18, 3), bump(12, 2), bump(21, 2)])
    u_l = np.zeros((n_loc, 4))
    u_l[:8, 0] = rng.uniform(0.8, 1.2, 8)
    u_l[:8, 1] = rng.uniform(0.4, 0.8, 8)
    u_l[8:, 2] = rng.uniform(0.8, 1.2, 8)
    u_l[8:, 3] = rng.uniform(0.4, 0.8, 8)
    clean = np.einsum("lr,tr,pr,r->ltp", u_l, u_t, u_p, np.array([5.0, 3.0, 5.0, 3.0]))
    noisy = clean + 0.01 * clean.std() * rng.standard_normal(clean.shape)

    model, _ = cp_fit(noisy, AlsConfig(rank=4, seed=0))
    embedding = embed_stations(model)
    coords = embedding.coords
    halves = coords[:8], coords[8:]
    between = np.linalg.norm(halves[0].mean(axis=0) - halves[1].mean(axis=0))
    spread = np.mean([np.linalg.norm(g - g.mean(axis=0), axis=1).mean() for g in halves])
    assert between >= 5.0 * spread
    assign = agglomerate(embedding, 2)
    assert np.array_equal(assign.labels, np.repeat([0, 1], 8))

    future = np.zeros(noisy.shape, dtype=bool)
    future[:, -1, 16:] = True
    joint = short_term_predict(
        noisy, future, LrtcHyperParams(max_rank=6, max_iters=80, elbo_tol=1e-7, seed=0))
    hp = LrtcHyperParams(max_rank=4, max_iters=80, elbo_tol=1e-7, seed=0)
    split = np.concatenate([
        short_term_predict(noisy[:8], future[:8], hp).imputed,
        short_term_predict(noisy[8:], future[8:], hp).imputed,
    ])
    res_joint = np.mean([relative_residual(joint.imputed[l], clean[l], future[l])
                         for l in range(n_loc)])
    res_split = np.mean([relative_residual(split[l], clean[l], future[l])
                         for l in range(n_loc)])
    assert res_split <= res_joint
    finish(7, "per-cluster completion and exact partition",
           f"separation {between / spread:.0f}x spread, "
           f"RES {res_split:.4f} vs joint {res_joint:.4f}", started, 120.0)


def test_criterion_8_metric_and_plumbing_invariants(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(8)

    for _ in range(100):
        shape = tuple(rng.integers(2, 6, size=3))
        truth = rng.normal(size=shape)
        estimate = truth + 0.3 * rng.normal(size=shape)
        mask = rng.random(shape) < 0.5
        mask.flat[rng.integers(mask.size)] = True
        scale = float(rng.uniform(0.1, 50.0))
        assert math.isclose(relative_residual(scale * estimate, scale * truth, mask),
                            relative_residual(estimate, truth, mask), rel_tol=1e-12)

    for _ in range(100):
        shape = tuple(rng.integers(2, 6, size=3))
        t = rng.normal(size=shape)
        mode = int(rng.integers(3))
        assert np.array_equal(fold(unfold(t, mode), mode, shape), t)

    for _ in range(100):
        n_a, n_b, rank = (int(n) for n in rng.integers(1, 7, size=3))
        a, b = rng.normal(size=(n_a, rank)), rng.normal(size=(n_b, rank))
        kr = khatri_rao(a, b)
        assert kr.shape == (n_a * n_b, rank)
        col = int(rng.integers(rank))
        assert np.allclose(kr[:, col], np.kron(a[:, col], b[:, col]))

    path = tmp_path / "round_trip.csv"
    for case in range(100):
        shape = tuple(rng.integers(1, 4, size=3))
        tensor = rng.uniform(0.0, 10.0, size=shape)
        ids = [f"st{case}_{l}" for l in range(shape[0])]
        export(path, tensor, ids)
        back, back_ids, _ = ingest(path, (shape[1], shape[2]))
        assert np.array_equal(back, tensor)
        assert back_ids == ids

    for seed in range(100):
        spec = SyntheticSpec(extents=(4, 14, 8), rank=2, seed=seed)
        first_t, first_m = generate_synthetic(spec)
        second_t, second_m = generate_synthetic(spec)
        assert np.array_equal(first_t, second_t)
        assert np.array_equal(first_m.weights, second_m.weights)
        assert all(np.array_equal(a, b)
                   for a, b in zip(first_m.factors, second_m.factors))

    finish(8, "metric and plumbing invariants", "5 properties x 100 cases",
           started, 60.0)
