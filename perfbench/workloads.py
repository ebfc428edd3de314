"""The three workloads: inputs made from the seed, the timed operations, the checks.

Every workload is a closed loop with one client: an operation starts when
the previous one has returned.  A workload has a ``setup`` (input
generation and loading, timed as ``setup_s``) and a ``run_pass`` that makes
one round of its user operations, each timed around the call into flowcast
alone; the checks run after the timer stops.  While tracemalloc traces, the
same timer notes each operation's peak allocation, so the checks' own arrays
never count in ``peak_mb``.

The program only ever receives the generated inputs.  Its functions are
looked up on the package at call time, so a tracer installed on the package
sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import os
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks

N_DAYS, N_SLOTS = 56, 48
TRAIN_DAYS = 49
RANK, ARMA_ORDERS = 6, (1, 2, 0, 0)

NETWORK_STATIONS, NETWORK_GROUPS = 60, 4
INTRADAY_STATIONS = 30
# the operator knows its two station groups, so the completion's work does not
# hang on choose_cluster_count's seed-by-seed decision (network-week times that)
COMPLETE_STATIONS, COMPLETE_GROUPS = 12, 2
COMPLETE_SUFFIX_START = 15
COMPLETE_MAX_RANK = 8
# seed of the fixed inputs that res and peak_mb are measured on
REFERENCE_SEED = 0


@dataclass
class Op:
    """One timed call: its name, seconds, and why it failed (None when it did not).

    ``raised`` tells a call that raised (or never ran) from one whose output
    a check rejected; only the latter is a wrong result.
    """

    name: str
    seconds: float
    failure: str | None = None
    raised: bool = False
    peak_mb: float = 0.0
    start: float = 0.0  # perf_counter() stamps, to find the host-speed samples nearby
    end: float = 0.0


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    res: float = float("nan")
    # figures the program's return values carry, printed on untraced runs too
    notes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


class timed:
    """Times a block; while tracemalloc traces, also its peak allocation (MB) above the start.

    Time the host clock's sampler spent inside the block is not counted.
    """

    clock = None  # the run's hostclock.HostClock, while one samples

    def __enter__(self):
        self.tracing = tracemalloc.is_tracing()
        if self.tracing:
            tracemalloc.reset_peak()
            self.base = tracemalloc.get_traced_memory()[0]
        self.spent = timed.clock.spent_s if timed.clock else 0.0
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        spent = timed.clock.spent_s - self.spent if timed.clock else 0.0
        self.seconds = self.end - self.start - spent
        self.peak_mb = ((tracemalloc.get_traced_memory()[1] - self.base) / 1e6
                        if self.tracing else 0.0)
        return False

    def op(self, name, failure):
        return Op(name, self.seconds, failure, peak_mb=self.peak_mb, start=self.start,
                  end=self.end)


def digest(*arrays) -> str:
    """Digest of input arrays, rounded to 1e-6 so last-ulp libm differences do not count."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        if a.dtype.kind == "f":
            a = np.round(a, 6) + 0.0  # + 0.0 turns -0.0 into 0.0
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def write_csv(path, tensor, station_ids):
    """The flow-record CSV, written with the stdlib ``csv`` module."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "day_index", "slot_index", "count"])
        n_days, n_slots = tensor.shape[1], tensor.shape[2]
        for l, sid in enumerate(station_ids):
            rows = tensor[l].tolist()
            for day in range(n_days):
                day_row = rows[day]
                for slot in range(n_slots):
                    writer.writerow((sid, day, slot, repr(day_row[slot])))


class NetworkWeek:
    """Nightly job at network scale: ingest the CSV, forecast the week, cluster."""

    name = "network-week"
    setup_repeats = 5
    latency_of = None  # the user waits for the whole nightly job, one pass
    report_names = {"ingest": "ingest_s", "forecast": "forecast_s", "cluster": "cluster_s"}
    res_name = "forecast_res"

    def __init__(self, fc, seed, work_dir):
        self.fc = fc
        self.seed = seed
        self.csv_path = os.path.join(work_dir, f"network-week-{seed}.csv")
        self.spec = fc.SyntheticSpec(extents=(NETWORK_STATIONS, N_DAYS, N_SLOTS),
                                     n_clusters=NETWORK_GROUPS, seed=seed)
        self.plan = fc.ForecastPlan(horizon_days=N_DAYS - TRAIN_DAYS, rank=RANK,
                                    arma_orders=ARMA_ORDERS)

    def make_inputs(self):
        self.tensor, _ = self.fc.generate_synthetic(self.spec)
        self.station_ids = [f"S{l:03d}" for l in range(self.tensor.shape[0])]

    def setup(self):
        self.make_inputs()
        write_csv(self.csv_path, self.tensor, self.station_ids)

    def prepare_checks(self):
        self.truth = self.tensor[:, TRAIN_DAYS:]
        naive = checks.seasonal_naive(self.tensor[:, :TRAIN_DAYS], N_DAYS - TRAIN_DAYS)
        self.naive_res = checks.res(naive, self.truth)

    def input_digest(self):
        return digest(self.tensor)

    def cleanup(self):
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)

    def run_pass(self) -> PassResult:
        fc = self.fc
        out = PassResult()
        try:
            with timed() as t:
                tensor, ids, _ = fc.ingest(self.csv_path, (N_DAYS, N_SLOTS))
        except Exception as exc:  # a failed call is a failed operation, not a crash
            out.ops += [Op("ingest", 0.0, repr(exc), True),
                        Op("forecast", 0.0, "not run", True),
                        Op("cluster", 0.0, "not run", True)]
            return out
        out.ops.append(t.op("ingest", checks.check_ingest(tensor, ids, self.tensor,
                                                          self.station_ids)))
        try:
            with timed() as t:
                pred = fc.two_step_forecast(tensor[:, :TRAIN_DAYS], self.plan)
        except Exception as exc:
            out.ops += [Op("forecast", 0.0, repr(exc), True),
                        Op("cluster", 0.0, "not run", True)]
            return out
        out.ops.append(t.op("forecast", checks.check_forecast(pred.tensor, self.truth,
                                                              self.naive_res)))
        out.res = checks.res(pred.tensor, self.truth)
        try:
            with timed() as t:
                embedding = fc.embed_stations(pred.source_model)
                k = fc.choose_cluster_count(embedding)
                assign = fc.agglomerate(embedding, k)
        except Exception as exc:
            out.ops.append(Op("cluster", 0.0, repr(exc), True))
            return out
        model = pred.source_model
        out.ops.append(t.op("cluster", checks.check_clusters(assign.labels, model.weights,
                                                             model.factors[0])))
        out.notes["k"] = k
        return out


class IntradayRefresh:
    """The live path: replay one surprising day slot by slot through lean_update."""

    name = "intraday-refresh"
    setup_repeats = 3
    latency_of = "refresh"
    report_names = {"refresh": "refresh_ms"}
    res_name = "refresh_res"

    def __init__(self, fc, seed, work_dir):
        self.fc = fc
        self.seed = seed
        self.spec = fc.SyntheticSpec(extents=(INTRADAY_STATIONS, TRAIN_DAYS + 1, N_SLOTS),
                                     seed=seed)
        self.plan = fc.ForecastPlan(horizon_days=1, rank=RANK, arma_orders=ARMA_ORDERS)

    def make_inputs(self):
        self.tensor, _ = self.fc.generate_synthetic(self.spec)
        # each station's held-out day carries its own surprise factor
        rng = np.random.default_rng([self.seed, 1])
        self.surprise = rng.uniform(0.6, 1.4, self.tensor.shape[0])
        self.day = self.tensor[:, TRAIN_DAYS, :] * self.surprise[:, None]

    def setup(self):
        self.make_inputs()
        self.prediction = self.fc.two_step_forecast(self.tensor[:, :TRAIN_DAYS], self.plan)

    def prepare_checks(self):
        model = self.prediction.source_model
        self.long_day = self.prediction.tensor[:, 0, :]
        self.temporal_row = model.factors[1][0]
        self.u_p = model.factors[2]

    def input_digest(self):
        return digest(self.tensor, self.surprise)

    def cleanup(self):
        pass

    def run_pass(self) -> PassResult:
        lean_update = self.fc.lean_update
        out = PassResult()
        pred, model = self.prediction, self.prediction.source_model
        slots = np.arange(N_SLOTS)
        residuals = []
        for n_obs in range(1, N_SLOTS):
            observed = slots < n_obs
            try:
                with timed() as t:
                    updated = lean_update(pred, self.day, observed, model)
            except Exception as exc:
                out.ops.append(Op("refresh", 0.0, repr(exc), True))
                continue
            src = updated.source_model
            loadings = src.factors[0] * src.weights
            out_day = updated.tensor[:, 0, :]
            out.ops.append(t.op("refresh", checks.check_refresh(
                out_day, loadings, observed, self.day, self.long_day,
                self.temporal_row, self.u_p)))
            residuals.append(checks.res(out_day[:, ~observed], self.day[:, ~observed]))
        out.res = float(np.mean(residuals)) if residuals else float("nan")
        return out


class TodayComplete:
    """Short-term path: fit, cluster, and complete the rest of today per cluster."""

    name = "today-complete"
    setup_repeats = 15
    latency_of = "complete"
    report_names = {"complete": "complete_s"}
    res_name = "complete_res"

    def __init__(self, fc, seed, work_dir):
        self.fc = fc
        self.seed = seed
        self.spec = fc.SyntheticSpec(extents=(COMPLETE_STATIONS, N_DAYS, N_SLOTS),
                                     n_clusters=COMPLETE_GROUPS, seed=seed)
        self.als = fc.AlsConfig(rank=RANK)
        self.hp = fc.LrtcHyperParams(max_rank=COMPLETE_MAX_RANK)

    def make_inputs(self):
        truth, _ = self.fc.generate_synthetic(self.spec)
        future = np.zeros(truth.shape, dtype=bool)
        future[:, -1, COMPLETE_SUFFIX_START:] = True
        self.truth, self.future = truth, future
        # the program never sees the cells it is asked to predict
        self.observed = np.where(future, 0.0, truth)

    setup = make_inputs

    def prepare_checks(self):
        naive = self.truth[:, -8, COMPLETE_SUFFIX_START:]
        self.naive_res = checks.res(naive, self.truth[:, -1, COMPLETE_SUFFIX_START:])

    def input_digest(self):
        return digest(self.truth, self.future)

    def cleanup(self):
        pass

    def run_pass(self) -> PassResult:
        fc = self.fc
        out = PassResult()
        try:
            with timed() as t:
                model, history = fc.cp_fit(self.observed[:, :-1], self.als)
                embedding = fc.embed_stations(model)
                labels = fc.agglomerate(embedding, COMPLETE_GROUPS).labels
                imputed = np.empty_like(self.observed)
                variance = np.empty_like(self.observed)
                ranks = []
                for c in range(COMPLETE_GROUPS):
                    members = labels == c
                    part = fc.short_term_predict(self.observed[members], self.future[members],
                                                 self.hp)
                    imputed[members] = part.imputed
                    variance[members] = part.predictive_variance
                    ranks.append(part.effective_rank)
        except Exception as exc:
            out.ops.append(Op("complete", 0.0, repr(exc), True))
            return out
        failure = (checks.check_clusters(labels, model.weights, model.factors[0],
                                         COMPLETE_GROUPS)
                   or checks.check_completion(imputed, variance, self.observed, self.future,
                                              self.truth, self.naive_res))
        out.ops.append(t.op("complete", failure))
        out.notes.update(cp_sweeps=len(history), effective_ranks=ranks)
        out.res = checks.res(imputed[self.future], self.truth[self.future])
        return out


def latency_samples(workload, passes, scale=lambda op: 1.0):
    """Seconds of each user operation that did not fail, each op's times ``scale(op)``."""
    if workload.latency_of is None:
        return [sum(op.seconds * scale(op) for op in p.ops) for p in passes
                if all(op.failure is None for op in p.ops)]
    return [op.seconds * scale(op) for p in passes for op in p.ops
            if op.name == workload.latency_of and op.failure is None]


WORKLOADS = {w.name: w for w in (NetworkWeek, IntradayRefresh, TodayComplete)}
