"""Materialise a :class:`ScenarioSpec` into a runnable swarm scenario.

Construction is driven by :class:`~repro.scenarios.spec.TopologySpec`
and :class:`~repro.scenarios.spec.WorkloadSpec`.  RNG stream names,
draw order, and network construction are fixed, which is what keeps
the historical experiment outputs pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..model.network import NetworkModel
from ..registry.base import ImageReference, mirror_image
from ..registry.hub import DockerHub
from ..registry.images import OFFICIAL_BASES, build_image
from ..registry.minio import MinioStore
from ..registry.regional import RegionalRegistry
from ..sim.rng import RngRegistry
from .spec import ScenarioSpec

#: Image sizes cycled over the synthetic catalogue (GB, compressed).
_IMAGE_SIZES_GB = (0.35, 0.6, 0.9, 1.2)

#: Bases cycled over the catalogue: shared layers across images are
#: what the peer tier (and layer dedup generally) exploits.
_IMAGE_BASES = ("python:3.9-slim", "alpine:3", "python:3.9")


@dataclass(frozen=True)
class SwarmDevice:
    """One edge device of the synthetic swarm."""

    name: str
    region: str
    cache_gb: float


@dataclass
class SwarmScenario:
    """A fully wired pull workload over a swarm of edge devices."""

    devices: List[SwarmDevice]
    network: NetworkModel
    hub: DockerHub
    regional: RegionalRegistry
    references: List[ImageReference]
    #: (arrival time, device name, reference) — sorted by time.
    schedule: List[Tuple[float, str, ImageReference]]
    horizon_s: float
    seed: int


def build_swarm_scenario(spec: ScenarioSpec) -> SwarmScenario:
    """The scenario described by ``spec.topology`` / ``spec.workload``.

    Regions are LAN islands (full mesh at LAN bandwidth); every device
    reaches the hub (CDN bandwidth varies by region) and the regional
    registry (fast only for its home region).  The ``zipf`` workload
    draws Zipf-skewed demand over the image catalogue with exponential
    arrivals; ``cold-waves`` schedules two near-simultaneous waves of
    the same image (then its sibling) across every device.
    """
    topo, work = spec.topology, spec.workload
    rng = RngRegistry(spec.seed)

    # --- registries and the shared-base image catalogue ---------------
    hub = DockerHub(name="docker-hub")
    regional = RegionalRegistry(
        name="regional", store=MinioStore(capacity_gb=200.0)
    )
    references: List[ImageReference] = []
    for i in range(work.n_images):
        repo = f"swarm/app{i}"
        size_gb = _IMAGE_SIZES_GB[i % len(_IMAGE_SIZES_GB)]
        base = OFFICIAL_BASES[_IMAGE_BASES[i % len(_IMAGE_BASES)]]
        mlist, blobs = build_image(repo, size_gb, base=base)
        hub.push_image(repo, "latest", mlist, blobs)
        mirror_image(hub, regional, repo, "latest")
        references.append(ImageReference(repo))

    # --- devices, regions, and channels -------------------------------
    devices = [
        SwarmDevice(
            name=f"edge-{i:04d}",
            region=f"region-{i % topo.n_regions}",
            cache_gb=topo.cache_gb,
        )
        for i in range(topo.n_devices)
    ]
    network = NetworkModel()
    by_region: Dict[str, List[str]] = {}
    for dev in devices:
        by_region.setdefault(dev.region, []).append(dev.name)
        network.set_region(dev.name, dev.region)
    ordered_regions = sorted(by_region.items())
    for r, (region, members) in enumerate(ordered_regions):
        if len(members) > 1:
            network.connect_device_mesh(members, 800.0, rtt_s=0.02)
        hub_bw = (60.0, 40.0, 25.0)[r % 3]
        regional_bw = 150.0 if r == 0 else 90.0
        for name in members:
            network.connect_registry(hub.name, name, hub_bw, rtt_s=2.5)
            network.connect_registry(regional.name, name, regional_bw, rtt_s=0.8)
    # Inter-region WAN links between region gateways (the first member
    # of each region): slower than the LAN but they make cross-region
    # peer serving and proactive replication physically possible — a
    # region no holder can reach cannot be provisioned peer-to-peer.
    # The mesh is quadratic in region count; `inter_region_mesh=False`
    # drops it (the 100k-scale presets must — 4000 regions would mean
    # ~8M WAN channels) and leaves cross-region traffic to the
    # registry tiers.
    if topo.inter_region_mesh:
        gateways = [members[0] for _, members in ordered_regions]
        for i, a in enumerate(gateways):
            for b in gateways[i + 1:]:
                network.connect_devices(a, b, 200.0, rtt_s=0.05)

    # --- endpoint shaping (contended scenarios) ------------------------
    if topo.device_nic_mbps is not None:
        for dev in devices:
            network.set_uplink(dev.name, topo.device_nic_mbps)
            network.set_downlink(dev.name, topo.device_nic_mbps)
    if topo.hub_egress_mbps is not None:
        network.set_uplink(hub.name, topo.hub_egress_mbps)
    if topo.regional_egress_mbps is not None:
        network.set_uplink(regional.name, topo.regional_egress_mbps)
    # Per-region trunk slices: each region pulls from the registries
    # over its own egress link (owned by that region's shard) instead
    # of one monolithic uplink that couples every region's pulls into
    # a single fairness component.
    if topo.hub_trunk_mbps is not None:
        for region in by_region:
            network.set_regional_uplink(hub.name, region, topo.hub_trunk_mbps)
    if topo.regional_trunk_mbps is not None:
        for region in by_region:
            network.set_regional_uplink(
                regional.name, region, topo.regional_trunk_mbps
            )

    # --- the pull schedule ---------------------------------------------
    if work.kind == "zipf":
        schedule = _zipf_schedule(rng, devices, references, work)
    else:
        schedule = _cold_wave_schedule(devices, references, work)
    return SwarmScenario(
        devices=devices,
        network=network,
        hub=hub,
        regional=regional,
        references=references,
        schedule=schedule,
        horizon_s=work.horizon_s,
        seed=spec.seed,
    )


def _zipf_schedule(rng, devices, references, work):
    """Zipf-skewed demand with exponential arrivals, sorted by time.

    Demand is one ``choice`` draw over every pull and each device's
    gaps one ``exponential`` draw, which yield the same values and
    leave each stream where per-pull draws would (the gap after a
    device's last pull is drawn but unused).
    """
    n_images = len(references)
    weights = np.array([1.0 / (rank + 1) ** 1.1 for rank in range(n_images)])
    weights /= weights.sum()
    demand = rng.stream("p2p.demand")
    arrivals = rng.stream("p2p.arrivals")
    picks = demand.choice(
        n_images, size=(len(devices), work.pulls_per_device), p=weights
    ).tolist()
    schedule: List[Tuple[float, str, ImageReference]] = []
    for dev, dev_picks in zip(devices, picks):
        t = float(arrivals.uniform(0.0, work.horizon_s * 0.3))
        gaps = arrivals.exponential(work.horizon_s * 0.1, size=len(dev_picks))
        for pick, gap in zip(dev_picks, gaps.tolist()):
            schedule.append((t, dev.name, references[pick]))
            t += gap
    schedule.sort(key=lambda item: (item[0], item[1]))
    return schedule


def _cold_wave_schedule(devices, references, work):
    """Two staggered waves: the worst-case-overlap schedule.

    Every device pulls the *same* image almost simultaneously
    (``stagger_s`` apart); a second wave well after the first pulls
    the sibling image (shared base, fresh app layers), so both waves
    are cold.
    """
    first_wave = [
        (i * work.stagger_s, dev.name, references[0])
        for i, dev in enumerate(devices)
    ]
    wave_gap_s = work.horizon_s * 0.5
    second_wave = [
        (wave_gap_s + i * work.stagger_s, dev.name, references[1])
        for i, dev in enumerate(devices)
    ]
    return first_wave + second_wave
