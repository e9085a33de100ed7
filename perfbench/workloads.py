"""The benchmark's workloads: seed -> (dataset spec, run settings, strategies).

Each workload is one whole ShiftEx run (or a strategy comparison) that a
user of the system would start.  The benchmark seed is the only input: it
is the run's root seed, which draws model initialization, cohort
selection, local training order, availability fates, mask streams and the
pool's evaluation subset.  The program under test receives nothing but
the generated :class:`~repro.data.registry.DatasetSpec`,
:class:`~repro.harness.profiles.RunSettings` and that seed.

The dataset itself is the registered corpus at ``ci`` scale for every
seed.  Its seed fixes the shift schedule (which parties shift, to which
regime), and with it how many experts ShiftEx builds and how large the
adapting cohorts are.  A shift window trains only the adapting cohorts,
so letting the benchmark seed move the schedule changes how many parties
train per round, and with it the work a run does.

Every workload runs in one process, under the serial executor, on an
unsharded parameter plane (``shards=1``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.data.registry import DatasetSpec
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import AvailabilityConfig
from repro.federation.pool import PopulationConfig
from repro.harness.profiles import RunSettings, get_profile
from repro.privacy.plan import PrivacyPlan

# The seed whose results are pinned by digests.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """What one workload hands the program for one seed."""

    dataset: str
    strategies: tuple[str, ...]
    spec: DatasetSpec
    settings: RunSettings
    run_seed: int


def _ci_compare(seed: int) -> Inputs:
    spec, settings = get_profile("ci", "fashion_mnist_sim")
    return Inputs("fashion_mnist_sim", ("shiftex", "fedavg"), spec, settings,
                  run_seed=seed)


def _masked_async(seed: int) -> Inputs:
    spec, settings = get_profile("ci", "cifar10_c_sim")
    round_config = dataclasses.replace(
        settings.round_config, participants_per_round=spec.num_parties,
        local=dataclasses.replace(settings.round_config.local, epochs=1))
    settings = dataclasses.replace(
        settings, round_config=round_config,
        federation=FederationConfig(
            mode="async", availability=AvailabilityConfig.scenario("flaky")),
        privacy=PrivacyPlan(masking=True, threshold="majority",
                            sealed_scoring=True))
    return Inputs("cifar10_c_sim", ("shiftex",), spec, settings,
                  run_seed=seed)


def _virtual_pool(seed: int) -> Inputs:
    # 32 evaluation parties and 8 trainees per round, and 64 surveyed per
    # window, share 32 resident slots, so the working set never fits.  One
    # local epoch and 32 (not the default 64) evaluated parties keep a
    # repetition at 11-17 s on a 2-vCPU Xeon guest, so that three of them
    # (120 rounds) fit one measurement window.
    spec, settings = get_profile("ci", "fashion_mnist_sim")
    round_config = dataclasses.replace(
        settings.round_config,
        local=dataclasses.replace(settings.round_config.local, epochs=1))
    settings = dataclasses.replace(
        settings, round_config=round_config, eval_parties=32,
        population=PopulationConfig(size=20_000, max_resident=32, survey=64))
    return Inputs("fashion_mnist_sim", ("shiftex",), spec, settings,
                  run_seed=seed)


# Why each workload is in the set (BENCHMARK.json gives the same for the
# two it gates), and the traffic finding behind it: every registered
# dataset builds ``lenet_mini``, so no workload (and no user run of a
# registered dataset) executes ``convnet_small``.
#
# * ci_compare is the everyday run: shiftex + fedavg, ci profile, sync,
#   eager parties.  nn.train dominates it, and it is the bypass case for
#   privacy, the async engine and the party pool.  It is not gated: three
#   of its ~21 s repetitions (plus set-ups) make one run take over a
#   minute, and ten-seed proofs of a third workload would push the whole
#   schedule of gated runs past the hour it must fit in.
# * masked_async exercises privacy and the async engine and bypasses the
#   pool; virtual_pool exercises the pool and bypasses the other two.
WORKLOADS: dict[str, Callable[[int], Inputs]] = {
    "ci_compare": _ci_compare,
    "masked_async": _masked_async,
    "virtual_pool": _virtual_pool,
}
