"""The benchmark's own checks: counts and digests only, never wall time.

Runs tiny versions of the workload shapes (eager sync compare, masked
async, capped virtual pool) so the suite stays fast and deterministic.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

from repro.data.registry import DatasetSpec  # noqa: E402
from repro.federation.async_engine import FederationConfig  # noqa: E402
from repro.federation.availability import AvailabilityConfig  # noqa: E402
from repro.federation.pool import PopulationConfig  # noqa: E402
from repro.federation.rounds import RoundConfig  # noqa: E402
from repro.harness.profiles import RunSettings  # noqa: E402
from repro.nn.training import LocalTrainingConfig  # noqa: E402
from repro.privacy.plan import PrivacyPlan  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_inputs(strategies=("shiftex", "fedavg"), **settings) -> Inputs:
    spec = DatasetSpec(
        name="perfbench_tiny", paper_name="tiny", num_classes=4,
        image_size=8, channels=1, num_parties=6, num_windows=3,
        model_name="mlp", windowing="tumbling",
        window_regimes=(("fog", 4), ("fog", 4)), dirichlet_alpha=3.0,
        train_per_window=24, test_per_window=12, domain_noise_scale=0.15,
        seed=5)
    run_settings = RunSettings(
        rounds_burn_in=2, rounds_per_window=2,
        round_config=RoundConfig(
            participants_per_round=3,
            local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05,
                                      momentum=0.9)),
        **settings)
    return Inputs("perfbench_tiny", tuple(strategies), spec, run_settings,
                  run_seed=0)


def masked_async_inputs() -> Inputs:
    return tiny_inputs(
        strategies=("shiftex",),
        federation=FederationConfig(
            mode="async", availability=AvailabilityConfig.scenario("flaky")),
        privacy=PrivacyPlan(masking=True, threshold="majority",
                            sealed_scoring=True))


def pool_inputs() -> Inputs:
    return tiny_inputs(strategies=("shiftex",),
                       population=PopulationConfig(size=200, max_resident=4,
                                                   survey=8))


@pytest.mark.parametrize("make", [tiny_inputs, masked_async_inputs,
                                  pool_inputs])
def test_traced_run_reproduces_untraced_digest(make):
    inputs = make()
    cells = measure.run_workload(inputs)
    traced, tracer = measure.run_traced(inputs)
    assert measure.digest(traced) == measure.digest(cells)
    attempted, failed, errors = measure.check_invariants(cells)
    assert failed == 0, errors
    assert attempted == sum(len(c.rounds_ms) for c in cells) + sum(
        ("federation" in c.result.extras) + ("party_pool" in c.result.extras)
        for c in cells)
    # Every span's parent opened before it.
    for index, (_, _, _, parent) in enumerate(tracer.spans):
        assert parent < index
    totals = tracer.layer_totals()
    rounds = sum(len(c.rounds_ms) for c in cells)
    assert totals["federation.round"]["calls"] >= rounds
    assert totals["nn.train"]["calls"] >= rounds
    private = inputs.settings.privacy.masking
    for layer in ("privacy.session", "privacy.seal"):
        assert (totals[layer]["calls"] > 0) == private
    # The traced run prints exactly the per-layer metrics BENCHMARK.json
    # declares, in its units.
    metrics = measure.per_layer(traced, tracer, overhead_s=0.0)
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    # ... and the untraced run every end-to-end metric, with no zero count.
    values, samples, wall = measure.end_to_end(
        [cells, cells], [(1.0, 1e-3), (2.0, 1e-3), (3.0, 2e-3)],
        measure.peak_rss_mb())
    assert list(values) == list(samples) == [
        m["name"] for m in BENCH["end_to_end"]]
    assert set(wall) <= set(values) and wall["setup_s"] == 2.0
    assert values["setup_s"] == 1.5  # the 3 s sample ran at half speed
    assert all(len(c.probes_s) == len(c.rounds_ms) for c in cells)
    # The reported figures have units too.
    assert set(measure.reported([cells])) <= set(run.UNITS)
    assert samples["run_s"] == 2 and samples["setup_s"] == 3
    assert samples["round_ms_p90"] == 2 * rounds
    assert all(count > 0 for count in samples.values())


def test_tracer_restores_the_program():
    from repro.federation.party import Party
    from repro.core import server

    before = (Party.local_train, server.run_fl_round)
    with Tracer():
        assert Party.local_train is not before[0]
        assert server.run_fl_round is not before[1]
    assert (Party.local_train, server.run_fl_round) == before


def test_same_layer_calls_join_one_span():
    tracer = Tracer()
    inner = tracer.wrap("federation.round", lambda: 1)
    outer = tracer.wrap("federation.round", lambda: inner() + 1)
    evaluate = tracer.wrap("nn.eval", lambda: 0)
    both = tracer.wrap("federation.round", lambda: evaluate() + outer())
    assert both() == 2
    assert [s[0] for s in tracer.spans] == ["federation.round", "nn.eval"]
    assert [s[3] for s in tracer.spans] == [-1, 0]
    totals = tracer.layer_totals()
    assert totals["federation.round"]["calls"] == 1
    assert totals["nn.eval"]["calls"] == 1


def test_workload_inputs_follow_the_seed():
    for make in WORKLOADS.values():
        assert make(3) == make(3)
        assert make(3).run_seed != make(4).run_seed
        assert make(3).settings.shards == 1


def test_benchmark_json_names_the_code():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    assert set(LAYERS) <= {m["name"].rsplit(".", 1)[0]
                           for m in BENCH["per_layer"]}


def _records(workload: str, values: list[float]) -> dict:
    return {workload: {seed: {"run_s": v} for seed, v in enumerate(values)}}


@pytest.mark.parametrize("parent, change, expected", [
    ([10, 10.2, 9.9, 10.1, 10, 10.05, 9.95, 10.1, 10, 10.2],
     [9, 9.1, 8.9, 9.2, 9, 9.05, 8.95, 9.1, 9, 9.2], "gain"),
    ([10, 10.2, 9.9, 10.1, 10, 10.05, 9.95, 10.1, 10, 10.2],
     [10.1, 10.1, 10, 10, 10.1, 10, 10, 10.2, 9.9, 10.1], "ok"),
    ([10, 10.2, 9.9, 10.1, 10, 10.05, 9.95, 10.1, 10, 10.2],
     [13, 13.1, 12.9, 13.2, 13, 13.05, 12.95, 13.1, 13, 13.2], "REGRESSED"),
    ([10, 14, 8, 12, 9, 13, 7, 11, 10, 12],
     [10, 13, 8, 12, 9, 14, 7, 11, 10, 12], "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "run_s", "unit": "s",
                             "better": "lower", "bound": 0.1}]}
    rows, regressed = compare.compare(_records("w", parent),
                                      _records("w", change), bench)
    assert len(rows) == 2 and rows[1].split()[2] == expected
    assert regressed == (expected == "REGRESSED")


def test_compare_rows_cover_every_recorded_workload():
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "run_s", "unit": "s",
                             "better": "lower", "bound": 0.1}]}
    parent = {**_records("w", [10, 11]), **_records("extra", [5, 6])}
    rows, _ = compare.compare(parent, _records("w", [10, 11]), bench)
    assert [row.split()[0] for row in rows[1:]] == ["w", "extra"]
    assert "no paired runs" in rows[2]
