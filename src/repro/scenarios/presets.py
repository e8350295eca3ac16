"""Named scenario presets.

Every historical experiment configuration is captured here as a named,
reproducible :class:`~repro.scenarios.spec.ScenarioSpec` —
``scenarios.get("p2p-gossip")`` hands back the exact single-session
spec the ``p2p-gossip`` experiment's headline row runs, ready for
``SimulationSession(spec).run()`` or dotted ``--set`` overrides.

The registry maps name → spec factory (:func:`register`, :func:`get`,
:func:`names`, :func:`entries`).  Factories return a *fresh* frozen
spec each call, so callers can ``dataclasses.replace`` variants
without aliasing.  The swarm experiments in
:mod:`repro.experiments.p2p` each start from the preset of the same
name; this module knows nothing about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .spec import (
    ChunkSpec,
    ChurnSpec,
    DiscoverySpec,
    ReplicationSpec,
    ScenarioSpec,
    TopologySpec,
    TransferSpec,
    WorkloadSpec,
)

SpecFactory = Callable[[], ScenarioSpec]


@dataclass(frozen=True)
class Preset:
    """One named scenario configuration."""

    name: str
    description: str
    family: str
    factory: SpecFactory


_PRESETS: Dict[str, Preset] = {}


def register(
    name: str,
    factory: SpecFactory,
    *,
    description: str = "",
    family: str = "",
) -> None:
    """Add a preset; re-registering a name is a programming error."""
    if name in _PRESETS:
        raise ValueError(f"preset {name!r} already registered")
    _PRESETS[name] = Preset(
        name=name,
        description=description,
        family=family or name,
        factory=factory,
    )


def get(name: str) -> ScenarioSpec:
    """A fresh :class:`ScenarioSpec` for preset ``name``."""
    if name not in _PRESETS:
        raise KeyError(
            f"unknown scenario preset {name!r}; known presets: "
            f"{', '.join(names())}"
        )
    return _PRESETS[name].factory()


def names() -> Tuple[str, ...]:
    """All registered preset names, sorted."""
    return tuple(sorted(_PRESETS))


def entries() -> Tuple[Preset, ...]:
    """All presets, sorted by name."""
    return tuple(_PRESETS[name] for name in names())


# ----------------------------------------------------------------------
# the built-in presets: every historical experiment family
# ----------------------------------------------------------------------
def _standard_topology() -> TopologySpec:
    return TopologySpec(n_devices=12, n_regions=3, cache_gb=12.0)


def _contended_topology() -> TopologySpec:
    return TopologySpec(
        n_devices=8,
        n_regions=2,
        cache_gb=12.0,
        device_nic_mbps=400.0,
        hub_egress_mbps=500.0,
        regional_egress_mbps=300.0,
    )


def _cold_waves(stagger_s: float = 1.0) -> WorkloadSpec:
    return WorkloadSpec(
        kind="cold-waves",
        n_images=2,
        pulls_per_device=1,
        stagger_s=stagger_s,
    )


register(
    "p2p",
    lambda: ScenarioSpec(
        mode="hybrid+p2p",
        topology=_standard_topology(),
        workload=WorkloadSpec(kind="zipf", n_images=6, pulls_per_device=4),
    ),
    description=(
        "layer-sharing Zipf workload, full three-tier stack "
        "(peers + adaptive replicator), analytic transfers"
    ),
    family="p2p",
)

register(
    "p2p-hybrid",
    lambda: ScenarioSpec(
        mode="hybrid",
        topology=_standard_topology(),
        workload=WorkloadSpec(kind="zipf", n_images=6, pulls_per_device=4),
    ),
    description=(
        "the paper's two-tier baseline (regional first, hub fallback) "
        "on the layer-sharing workload"
    ),
    family="p2p",
)

register(
    "p2p-hub-only",
    lambda: ScenarioSpec(
        mode="hub-only",
        topology=_standard_topology(),
        workload=WorkloadSpec(kind="zipf", n_images=6, pulls_per_device=4),
    ),
    description="every layer from Docker Hub on the layer-sharing workload",
    family="p2p",
)

register(
    "p2p-contended",
    lambda: ScenarioSpec(
        mode="hybrid+p2p",
        topology=_contended_topology(),
        workload=_cold_waves(),
        transfer=TransferSpec(
            model="time-resolved", upload_budget=2
        ),
    ),
    description=(
        "worst-case-overlap cold waves through the shared-bandwidth "
        "engine (upload budget 2)"
    ),
    family="p2p-contended",
)

register(
    "p2p-gossip",
    lambda: ScenarioSpec(
        mode="hybrid+p2p",
        topology=TopologySpec(n_devices=16, n_regions=3, cache_gb=12.0),
        workload=WorkloadSpec(kind="zipf", n_images=6, pulls_per_device=4),
        discovery=DiscoverySpec(
            backend="gossip",
            gossip_fanout=2,
            gossip_period_s=60.0,
        ),
        churn=ChurnSpec(
            mean_uptime_s=1500.0, mean_downtime_s=300.0, min_online=4
        ),
    ),
    description=(
        "gossip discovery (fanout 2, period 60 s) under moderate churn "
        "on the layer-sharing workload"
    ),
    family="p2p-gossip",
)

register(
    "p2p-chunked",
    lambda: ScenarioSpec(
        mode="hybrid+p2p",
        topology=_contended_topology(),
        workload=_cold_waves(),
        transfer=TransferSpec(model="time-resolved", upload_budget=2),
        chunks=ChunkSpec(enabled=True, size_bytes=16_000_000, parallel=4),
    ),
    description=(
        "chunked rarest-first multi-source pulls (16 MB chunks, window "
        "4) on the contended cold wave"
    ),
    family="p2p-chunked",
)

register(
    "p2p-swarm-100k",
    lambda: ScenarioSpec(
        mode="hybrid+p2p",
        # 5000 LAN islands of 20 devices.  Registry egress is sliced
        # into per-region trunk links instead of one monolithic uplink:
        # a shared uplink would couple every in-flight registry pull on
        # the planet into one connected component, while a trunk slice
        # keeps each region's closure regional, so the closure engine
        # re-solves and indexes small per-region components.  The
        # inter-region gateway mesh is off because it is quadratic in
        # regions (5000 regions would mean ~25M WAN channels);
        # inter-region traffic rides the trunks.
        topology=TopologySpec(
            n_devices=100_000,
            n_regions=5000,
            cache_gb=12.0,
            device_nic_mbps=400.0,
            hub_trunk_mbps=50.0,
            regional_trunk_mbps=200.0,
            inter_region_mesh=False,
        ),
        workload=_cold_waves(stagger_s=0.01),
        transfer=TransferSpec(
            model="time-resolved",
            upload_budget=4,
        ),
        # One replication sweep per wave gap.  The cadence dates from
        # sweeps that copied a hot layer's whole holder set for every
        # region they checked; a sweep now costs hot digests x region
        # members, so wall time no longer forces it.  It stays because
        # the sweep instants shape this preset's pinned outputs.
        replication=ReplicationSpec(interval_s=1800.0),
    ),
    description=(
        "100k-device cold waves over 5000 trunk-sliced regions through "
        "the closure engine — the interactive-scale benchmark "
        "scenario"
    ),
    family="p2p-swarm-scale",
)

register(
    "p2p-swarm-scale",
    lambda: ScenarioSpec(
        mode="hybrid+p2p",
        # NIC-shaped endpoints but no hub/regional egress shaping: a
        # shared registry uplink would couple every in-flight pull into
        # one connected component, defeating the closure-local
        # recompute this preset exists to exercise (registry fan-out is
        # the CDN's problem, per the engine's budget model).
        topology=TopologySpec(
            n_devices=1000,
            n_regions=20,
            cache_gb=12.0,
            device_nic_mbps=400.0,
        ),
        workload=_cold_waves(stagger_s=0.25),
        transfer=TransferSpec(
            model="time-resolved",
            upload_budget=4,
        ),
        # A 10-minute replication cadence.  It dates from sweeps that
        # copied a hot layer's whole holder set for every region they
        # checked, when a 2-minute cadence cost more wall time than the
        # waves; a sweep now costs hot digests × region members.  It
        # stays because the sweep instants shape this preset's pinned
        # outputs.
        replication=ReplicationSpec(interval_s=600.0),
    ),
    description=(
        "1000-device cold waves through the closure engine (upload "
        "budget 4) — the swarm-scale benchmark scenario"
    ),
    family="p2p-swarm-scale",
)
