"""Differential test: the batched Zipf draws against the frozen per-pull
schedule (:mod:`zipf_oracle`).

The schedules must be equal element for element, and both RNG streams
must be left at the same position, so every later draw on them (and
every preset outcome built on them) stays where it was.
"""

import pytest

from repro.registry.base import ImageReference
from repro.scenarios.build import SwarmDevice, _zipf_schedule
from repro.scenarios.spec import WorkloadSpec
from repro.sim.rng import RngRegistry

from zipf_oracle import reference_zipf_schedule

STREAMS = ("p2p.demand", "p2p.arrivals")


@pytest.mark.parametrize("seed", [0, 7, 11, 401, 20250323])
@pytest.mark.parametrize(
    "n_images, pulls_per_device, n_devices",
    [(1, 1, 5), (2, 7, 12), (6, 4, 40), (25, 3, 30)],
)
def test_batched_draws_match_per_pull_draws(
    seed, n_images, pulls_per_device, n_devices
):
    devices = [
        SwarmDevice(f"edge-{i:04d}", f"region-{i % 3}", 10.0)
        for i in range(n_devices)
    ]
    references = [ImageReference(f"swarm/app{i}") for i in range(n_images)]
    work = WorkloadSpec(
        kind="zipf", n_images=n_images, pulls_per_device=pulls_per_device
    )
    live_rng, frozen_rng = RngRegistry(seed), RngRegistry(seed)
    live = _zipf_schedule(live_rng, devices, references, work)
    frozen = reference_zipf_schedule(frozen_rng, devices, references, work)
    assert live == frozen
    assert len(live) == n_devices * pulls_per_device
    for name in STREAMS:
        assert (
            live_rng.stream(name).random(4).tolist()
            == frozen_rng.stream(name).random(4).tolist()
        )
