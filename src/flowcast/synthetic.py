"""Seeded synthetic passenger-flow scenarios with known generating factors.

Each CP component combines a weekday profile whose week-to-week amplitude
follows a persistent AR(2) (so useful structure sits beyond a one-week lag),
day-lag-correlated noise, a smooth bimodal intra-day profile, and per-cluster
station loadings.  The exact generating model is returned alongside the
tensor so tests can compare against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cp import _normal_form
from .tensor_ops import as_whole, cp_reconstruct

DAY_AR = 0.6


@dataclass
class SyntheticSpec:
    """Scenario knobs: extents, latent rank, pattern strengths, clusters, noise."""

    extents: tuple = (12, 56, 48)
    rank: int = 6
    weekly_strength: float = 1.0
    daily_strength: float = 0.3
    n_clusters: int = 2
    separation: float = 3.0
    noise_var: float = 0.01
    seed: int = 0

    def __post_init__(self):
        self.extents = tuple(as_whole(e, "extents") for e in self.extents)
        if len(self.extents) != 3:
            raise ValueError("extents must be three positive integers")
        self.rank = as_whole(self.rank, "rank")
        self.n_clusters = as_whole(self.n_clusters, "n_clusters")
        self.seed = as_whole(self.seed, "seed", minimum=0)
        if self.n_clusters > self.extents[0]:
            raise ValueError("n_clusters must lie in [1, n_stations]")
        for name in ("weekly_strength", "daily_strength", "separation", "noise_var"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


def planted_labels(spec: SyntheticSpec) -> np.ndarray:
    """Contiguous station blocks: station l belongs to cluster l*k // L."""
    n_loc = spec.extents[0]
    return np.arange(n_loc, dtype=np.int64) * spec.n_clusters // n_loc


def _weekly_amplitude(n_weeks, rng):
    # mean-one amplitude alternating on a two-week cycle: a two-week lookback
    # reproduces both the static weekday profile and the alternation, while a
    # one-week lookback cannot serve both (+1 for the static part, -1 for the
    # alternating part) and the day-lag period of 14 exceeds eight daily lags
    swing = 0.35 * rng.standard_normal()
    phase = rng.integers(2)
    signs = np.where((np.arange(n_weeks) + phase) % 2 == 0, 1.0, -1.0)
    return 1.0 + swing * signs


def _daily_noise(n_days, rng):
    e = np.zeros(n_days + 1)
    for d in range(1, n_days + 1):
        e[d] = DAY_AR * e[d - 1] + 0.3 * rng.standard_normal()
    return e[1:]


def _temporal_factor(spec, component, rng):
    n_days = spec.extents[1]
    days = np.arange(n_days)
    profile = np.sin(2 * np.pi * (days % 7 + 2 * component) / 7) \
        + 0.4 * np.cos(4 * np.pi * (days % 7 + component) / 7)
    amp = _weekly_amplitude(n_days // 7 + 1, rng)[days // 7]
    return 1.0 + spec.weekly_strength * amp * profile \
        + spec.daily_strength * _daily_noise(n_days, rng)


def _intraday_factor(spec, rng):
    slots = np.arange(spec.extents[2], dtype=np.float64)
    n_slots = spec.extents[2]

    def bump(center, width, height):
        return height * np.exp(-0.5 * ((slots - center) / width) ** 2)

    morning = bump(rng.uniform(0.15, 0.30) * n_slots, rng.uniform(0.06, 0.10) * n_slots,
                   rng.uniform(0.7, 1.3))
    evening = bump(rng.uniform(0.60, 0.85) * n_slots, rng.uniform(0.06, 0.10) * n_slots,
                   rng.uniform(0.5, 1.0))
    return 0.1 + morning + evening


def generate_synthetic(spec: SyntheticSpec):
    """Ground-truth tensor plus the exact generating CP model.

    Station loadings are full strength on the component's own cluster and
    attenuated by 1/(1+separation) elsewhere; the tensor is the clamped
    reconstruction plus white noise of the requested variance.
    """
    rng = np.random.default_rng(spec.seed)
    n_loc, n_days, n_slots = spec.extents
    labels = planted_labels(spec)

    u_t = np.column_stack([_temporal_factor(spec, r, rng) for r in range(spec.rank)])
    u_p = np.column_stack([_intraday_factor(spec, rng) for r in range(spec.rank)])
    u_l = np.empty((n_loc, spec.rank))
    for r in range(spec.rank):
        load = rng.uniform(0.8, 1.2, n_loc)
        off_cluster = labels != (r % spec.n_clusters)
        load[off_cluster] /= 1.0 + spec.separation
        u_l[:, r] = load

    model = _normal_form([u_l, u_t, u_p])

    tensor = np.clip(cp_reconstruct(model), 0.0, None)
    if spec.noise_var > 0:
        tensor = np.clip(tensor + np.sqrt(spec.noise_var) * rng.standard_normal(tensor.shape), 0.0, None)
    return tensor, model
