"""Run one workload and turn it into end-to-end and per-layer metrics.

Timing hooks sit outside the program: each strategy is built by a
benchmark factory that wraps the instance's ``run_round`` and
``start_window``, and a :class:`~repro.experiments.events.RunCallback`
closes each round at ``on_round_end`` (after the evaluation that produces
the round's accuracy point).  The run itself goes through
:meth:`ExperimentPlan.run` with the serial executor.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.experiments import ExperimentPlan, SerialExecutor, build_strategy
from repro.experiments.events import RunCallback

from tracing import Tracer
from workloads import Inputs

# The strategy whose accuracy and shift response the metrics report.
SHIFTEX = "shiftex"

# The host's speed drifts: on a shared 2-vCPU Xeon guest the same run took
# 9.8 s and, minutes later, 16.9 s.  A fixed pure-Python loop (the
# program's hot paths are interpreter-bound too) is timed after every round
# and before every set-up sample, and the timings are scaled to a host on
# which it takes REFERENCE_PROBE_S.  Over 25 same-seed masked_async runs
# this narrowed the spread (IQR / median) of the run time from 0.099 to
# 0.061, and of the 90th-percentile round from 0.154 to 0.096.
PROBE_LOOPS = 30_000
REFERENCE_PROBE_S = 1e-3


def host_probe() -> float:
    """Seconds one fixed pure-Python loop takes on the host right now."""
    begin = time.perf_counter()
    total = 0
    for k in range(PROBE_LOOPS):
        total += k
    return time.perf_counter() - begin


class _SetupDone(Exception):
    """Raised at a strategy's first round to end a set-up-only run."""


@dataclass
class CellTiming:
    """Wall-clock marks of one strategy run (one plan cell)."""

    strategy: str
    start: float
    first_round: float | None = None
    end: float | None = None
    round_start: float = 0.0
    rounds_ms: list[float] = field(default_factory=list)
    shift_ms: list[float] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)
    result: object = None

    @property
    def setup_s(self) -> float:
        return self.first_round - self.start

    @property
    def run_s(self) -> float:
        """Wall time from the first round to the end, host probes excluded."""
        return self.end - self.first_round - sum(self.probes_s)


class Timer(RunCallback):
    """Builds timed strategies and collects one :class:`CellTiming` each."""

    def __init__(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.cells: list[CellTiming] = []

    def factory(self, method: str):
        def build():
            cell = CellTiming(method, time.perf_counter())
            self.cells.append(cell)
            strategy = build_strategy(method)
            run_round, start_window = strategy.run_round, strategy.start_window

            def timed_round(window: int, round_index: int) -> None:
                now = time.perf_counter()
                if cell.first_round is None:
                    cell.first_round = now
                    if self.setup_only:
                        raise _SetupDone
                cell.round_start = now
                run_round(window, round_index)

            def timed_start_window(window: int) -> None:
                begin = time.perf_counter()
                start_window(window)
                if window >= 1 and method == SHIFTEX:
                    cell.shift_ms.append((time.perf_counter() - begin) * 1e3)

            strategy.run_round = timed_round
            strategy.start_window = timed_start_window
            return strategy
        return build

    def on_round_end(self, info, window, round_index, accuracy) -> None:
        cell = self.cells[-1]
        cell.rounds_ms.append((time.perf_counter() - cell.round_start) * 1e3)
        cell.probes_s.append(host_probe())

    def on_run_end(self, info, result) -> None:
        cell = self.cells[-1]
        cell.end = time.perf_counter()
        cell.result = result


def _plan(inputs: Inputs, timer: Timer, strategies) -> ExperimentPlan:
    return ExperimentPlan.build(
        inputs.dataset, {m: timer.factory(m) for m in strategies},
        seeds=(inputs.run_seed,), spec_override=inputs.spec,
        settings_override=inputs.settings)


def measure_setup(inputs: Inputs) -> tuple[float, float]:
    """One set-up sample: (wall seconds, host probe seconds just before).

    The wall time runs from workload start to first round, summed over the
    workload's strategies (each run is cut at its first round).  That
    covers the dataset object, the party dict or pool, ``setup``, window
    0's data, ``start_window(0)`` and the entry evaluation.
    """
    probe = statistics.median(host_probe() for _ in range(3))
    timer = Timer(setup_only=True)
    for method in inputs.strategies:
        try:
            _plan(inputs, timer, (method,)).run(executor=SerialExecutor(),
                                                callbacks=[timer])
        except _SetupDone:
            pass
    # A timed strategy references itself through its wrapped methods, so
    # only the cycle collector frees it (and the parties or pool it holds).
    gc.collect()
    return sum(cell.setup_s for cell in timer.cells), probe


def run_workload(inputs: Inputs) -> list[CellTiming]:
    """One full run of every strategy of the workload."""
    gc.collect()
    timer = Timer()
    _plan(inputs, timer, inputs.strategies).run(executor=SerialExecutor(),
                                                callbacks=[timer])
    return timer.cells


def run_traced(inputs: Inputs) -> tuple[list[CellTiming], Tracer]:
    with Tracer() as tracer:
        cells = run_workload(inputs)
    return cells, tracer


# ---------------------------------------------------------------- correctness

def digest(cells: list[CellTiming]) -> str:
    """Hash of the accuracy series, expert history and ledger bytes."""
    doc = [{
        "strategy": c.strategy,
        "series": c.result.window_series,
        "experts": [sorted(h.items())
                    for h in (c.result.expert_history or [])],
        "ledger": sorted(c.result.ledger_summary.items()),
    } for c in cells]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def check_invariants(cells: list[CellTiming]) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, failure messages).

    Each round's accuracy point is one operation; so is each invariant:

    * accuracies are finite and within [0, 100];
    * the engine conserves reports: every report that was trained either
      was aggregated, expired at a window boundary, or is still in flight;
    * the pool's peak residency stays within ``max_resident`` plus the one
      party being materialized (protected, and pinned while it trains).
    """
    attempted = failed = 0
    errors: list[str] = []
    for c in cells:
        for window, series in enumerate(c.result.window_series):
            for acc in series[1:]:
                attempted += 1
                if not (math.isfinite(acc) and 0.0 <= acc <= 100.0):
                    failed += 1
                    errors.append(f"{c.strategy} window {window}: "
                                  f"accuracy {acc!r} out of range")
        fed = c.result.extras.get("federation")
        if fed is not None:
            attempted += 1
            trained = fed["dispatched"] - fed["dropped"]
            accounted = (fed["aggregated_reports"] + fed["expired_reports"]
                         + fed["in_flight_at_end"])
            if trained != accounted:
                failed += 1
                errors.append(f"{c.strategy}: engine lost reports "
                              f"({trained} trained, {accounted} accounted)")
        pool = c.result.extras.get("party_pool")
        if pool is not None and pool["max_resident"] is not None:
            attempted += 1
            if pool["peak_resident"] > pool["max_resident"] + 1:
                failed += 1
                errors.append(f"{c.strategy}: pool peak residency "
                              f"{pool['peak_resident']} exceeds "
                              f"{pool['max_resident']} + 1")
    return attempted, failed, errors


# ---------------------------------------------------------------- metrics

def _shiftex(cells: list[CellTiming]):
    return next(c.result for c in cells if c.strategy == SHIFTEX)


def peak_rss_mb() -> float:
    """The process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def speed(cells: list[CellTiming]) -> float:
    """Factor that scales one repetition's times to the reference host."""
    return REFERENCE_PROBE_S / statistics.median(
        p for c in cells for p in c.probes_s)


def _times(reps: list[list[CellTiming]],
           setup_samples: list[tuple[float, float]],
           scaled: bool) -> dict[str, float]:
    def factor(cells: list[CellTiming]) -> float:
        return speed(cells) if scaled else 1.0

    rounds = [ms * factor(cells) for cells in reps
              for c in cells for ms in c.rounds_ms]
    return {
        "setup_s": statistics.median(
            wall * (REFERENCE_PROBE_S / probe if scaled else 1.0)
            for wall, probe in setup_samples),
        "run_s": min(sum(c.run_s for c in cells) * factor(cells)
                     for cells in reps),
        "round_ms_p90": float(np.percentile(rounds, 90)),
    }


def end_to_end(reps: list[list[CellTiming]],
               setup_samples: list[tuple[float, float]], peak_mb: float
               ) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """(metric values, sample counts, unscaled wall times) of untraced
    repetitions of one run.

    Times are scaled to the reference host: a repetition's run and rounds
    by the median probe of its rounds, a set-up sample by the probe taken
    just before it.  ``run_s`` is the fastest repetition: the host's slow
    phases only ever add time, so the minimum is the steadiest estimate of
    the run's own cost.  ``round_ms_p90`` ranges over the rounds of every
    repetition.  Bytes repeat exactly from one repetition to the next (the
    digests are checked equal), so they come from the first.  ``peak_mb``
    is read after the first repetition: later ones hold on to a few more
    pages (98 vs 103 MB on ci_compare), and how many run follows the
    machine's speed.
    """
    values = {
        **_times(reps, setup_samples, scaled=True),
        "peak_rss_mb": peak_mb,
        "comm_mb": sum(c.result.ledger_summary["total_mb"] for c in reps[0]),
    }
    samples = {
        "setup_s": len(setup_samples), "run_s": len(reps),
        "round_ms_p90": sum(len(c.rounds_ms) for cells in reps for c in cells),
        "peak_rss_mb": 1, "comm_mb": 1,
    }
    return values, samples, _times(reps, setup_samples, scaled=False)


def reported(reps: list[list[CellTiming]]) -> dict[str, float]:
    """Figures printed beside the end-to-end metrics, but not bounded.

    The round median follows the host more than the program: on a 2-vCPU
    Xeon guest whose speed drifted by up to 2x over minutes, its spread
    (IQR / median) over ten seeds was 0.11-0.36 in nine sets of runs,
    wider than ``round_ms_p90``'s in eight of them.  The shift
    response is ShiftEx's ``start_window(w)`` for w >= 1.  Its few samples
    per run (one per shift window) differ by window, 57 to 140 ms within
    one ci_compare run, and the seed decides which windows are the heavy
    ones: over five seeds its median ranged from 74 to 114 ms.
    ``max_acc_pct`` is the mean of each window's "Max" and
    ``recovery_rounds`` of its "Time", a window that never recovers
    counted as its length + 1.  Both are fixed by the seed and move with
    it beyond any admissible bound (42.6 vs 58.8 % on two virtual_pool
    seeds); the digest pins them at the default seed.
    """
    rounds = [ms for cells in reps for c in cells for ms in c.rounds_ms]
    shifts = [ms for cells in reps for c in cells for ms in c.shift_ms]
    windows = _shiftex(reps[0]).summaries
    return {
        "round_ms_p50": float(np.percentile(rounds, 50)),
        "core.shift_response_ms_p50": statistics.median(shifts),
        "metrics.max_acc_pct": statistics.fmean(
            w.max_accuracy for w in windows),
        "metrics.recovery_rounds": statistics.fmean(
            w.rounds + 1 if w.recovery_rounds is None else w.recovery_rounds
            for w in windows),
    }


def per_layer(cells: list[CellTiming], tracer: Tracer,
              overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced repetition (plus the program's own
    counters); ``overhead_s`` is traced minus untraced ``run_s``, both
    scaled to the reference host."""
    out: dict[str, float] = {}
    for layer, entry in tracer.layer_totals().items():
        for key, value in entry.items():
            out[f"{layer}.{key}"] = value
    samples = tracer.counts.get("nn.train.samples", 0)
    out["nn.train.us_per_sample"] = (
        out["nn.train.busy_s"] * 1e6 / samples if samples else 0.0)

    pool = {k: 0 for k in ("materialized", "resident_hits", "data_binds",
                           "evictions")}
    engine = {k: 0 for k in ("dispatched", "dropped", "expired_reports",
                             "aggregated_reports", "staleness_total")}
    share_mb = 0.0
    for c in cells:
        extras = c.result.extras
        for key in pool:
            pool[key] += extras.get("party_pool", {}).get(key, 0)
        for key in engine:
            engine[key] += extras.get("federation", {}).get(key, 0)
        share_mb += c.result.ledger_summary.get("secure_agg_mb", 0.0)
    touched = pool["materialized"] + pool["resident_hits"]
    out.update({
        "federation.pool.materialized": pool["materialized"],
        "federation.pool.hit_ratio": (pool["resident_hits"] / touched
                                      if touched else 0.0),
        "federation.pool.data_binds": pool["data_binds"],
        "federation.pool.evictions": pool["evictions"],
    })
    trained = engine["dispatched"] - engine["dropped"]
    aggregated = engine["aggregated_reports"]
    out.update({
        "federation.engine.dispatched": engine["dispatched"],
        "federation.engine.dropped": engine["dropped"],
        "federation.engine.expired": engine["expired_reports"],
        "federation.engine.useful_ratio": (aggregated / trained
                                           if trained else 0.0),
        "federation.engine.mean_staleness": (
            engine["staleness_total"] / aggregated if aggregated else 0.0),
    })
    out["privacy.share_mb"] = share_mb
    state = _shiftex(cells).state_log[-1]
    out["experts.created"] = state["experts_created"]
    out["experts.merged"] = state["experts_merged"]
    out.update(reported([cells]))
    out["trace.spans"] = len(tracer.spans)
    out["trace.run_s"] = sum(c.run_s for c in cells)
    out["trace.overhead_s"] = overhead_s
    return out

