"""Typed, validated, serializable scenario specifications.

A scenario is described by small frozen dataclasses — one per
concern — composed into a :class:`ScenarioSpec`:

* :class:`TopologySpec`    — swarm size, regions, caches, NIC shaping
* :class:`WorkloadSpec`    — what gets pulled, when (zipf / cold waves)
* :class:`TransferSpec`    — analytic vs time-resolved, upload budgets
* :class:`DiscoverySpec`   — omniscient vs gossip (fanout/period/cap)
* :class:`~repro.sim.churn.ChurnSpec` — stochastic membership
  (uptime/downtime); the churn process's own config, re-exported here
* :class:`ReplicationSpec` — the adaptive replicator's knobs
* :class:`ChunkSpec`       — chunked multi-source pulls
* :class:`TelemetrySpec`   — opt-in traces / metrics / profiling

Every cross-field rule is enforced at *construction* time — an
invalid combination can never reach the simulator:

* chunked pulls require the time-resolved transfer model,
* an upload budget is only meaningful with the time-resolved model,
* gossip knobs are only accepted with the gossip backend,
* a churn-aware replicator requires a churn process,
* a churn process must leave some device free to depart,
* cold-wave workloads pull exactly once per device per wave.

Every count is an ``int``, every switch a ``bool`` and every quantity
a number: ``2.5`` devices, ``inter_region_mesh="no"`` or
``cache_gb=true`` is rejected, naming the field, not run.

Specs round-trip losslessly through :meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict` (plain JSON-safe dicts), so sweeps,
benchmarks, and the CLI's ``--set dotted.path=value`` overrides (see
:func:`with_overrides`) are all data-driven.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..model.units import (
    require_bool,
    require_int,
    require_non_negative,
    require_number,
    require_positive,
)
from ..registry.chunks import DEFAULT_CHUNK_SIZE_BYTES
from ..util import did_you_mean
from ..sim.churn import ChurnSpec
from ..sim.rng import DEFAULT_SEED

#: The registry-chain configurations a scenario can run under.
MODES = ("hub-only", "hybrid", "hybrid+p2p")

#: The replica-lookup backends a scenario can use.
DISCOVERY_BACKENDS = ("omniscient", "gossip")

#: The pull-schedule shapes a workload can take.
WORKLOAD_KINDS = ("zipf", "cold-waves")

#: How a scenario turns bytes into elapsed time (see :class:`TransferSpec`).
TRANSFER_MODELS = ("analytic", "time-resolved")


@dataclass(frozen=True)
class TopologySpec:
    """The physical swarm: devices, regions, caches, and NIC shaping.

    The optional ``*_mbps`` knobs add shared endpoint links (the
    contended-overlap scenarios use them): ``device_nic_mbps`` gives
    every device a shared uplink *and* downlink of that capacity,
    ``hub_egress_mbps`` / ``regional_egress_mbps`` cap the registries'
    shared egress.  ``None`` (the default) leaves endpoints unshaped,
    matching the original layer-sharing scenario.

    ``hub_trunk_mbps`` / ``regional_trunk_mbps`` instead give each
    registry a **per-region egress slice** of that capacity — pulls
    toward different regions ride separate trunk links owned by the
    destination region's shard, so registry traffic never couples
    regions into one fairness component.  A trunk knob excludes the
    monolithic egress knob for the same registry tier (they describe
    the same wire).  ``inter_region_mesh=False`` drops the
    gateway-to-gateway WAN mesh (quadratic in region count — required
    off at the 100k scale); cross-region peer pulls then fall back to
    the registry tiers.
    """

    n_devices: int = 12
    n_regions: int = 3
    cache_gb: float = 12.0
    device_nic_mbps: Optional[float] = None
    hub_egress_mbps: Optional[float] = None
    regional_egress_mbps: Optional[float] = None
    hub_trunk_mbps: Optional[float] = None
    regional_trunk_mbps: Optional[float] = None
    inter_region_mesh: bool = True

    def __post_init__(self) -> None:
        require_int(self.n_devices, "n_devices", 2)
        require_int(self.n_regions, "n_regions", 1)
        if self.n_regions > self.n_devices:
            # Devices are dealt to regions round-robin: each would sit
            # alone in its own region, and the surplus regions be empty.
            raise ValueError(
                f"n_regions ({self.n_regions}) exceeds n_devices "
                f"({self.n_devices}); every region needs a device"
            )
        require_positive(self.cache_gb, "cache_gb")
        for name in ("device_nic_mbps", "hub_egress_mbps",
                     "regional_egress_mbps", "hub_trunk_mbps",
                     "regional_trunk_mbps"):
            value = getattr(self, name)
            if value is not None:
                require_positive(value, name)
        require_bool(self.inter_region_mesh, "inter_region_mesh")
        if self.hub_trunk_mbps is not None and self.hub_egress_mbps is not None:
            raise ValueError(
                "hub_trunk_mbps and hub_egress_mbps both shape hub egress; "
                "set one (per-region trunk slices or one monolithic link)"
            )
        if (
            self.regional_trunk_mbps is not None
            and self.regional_egress_mbps is not None
        ):
            raise ValueError(
                "regional_trunk_mbps and regional_egress_mbps both shape "
                "regional-registry egress; set one"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """What the swarm pulls, and when.

    ``kind="zipf"`` is the layer-sharing workload: Zipf-skewed demand
    over the image catalogue with exponential arrivals,
    ``pulls_per_device`` pulls each.  ``kind="cold-waves"`` is the
    contended-overlap workload: every device pulls the *same* image
    nearly simultaneously (``stagger_s`` apart), then a sibling image
    (shared base) one half-horizon later — one pull per device per
    wave, so ``pulls_per_device`` must be 1 and ``stagger_s`` is
    required (and meaningless for zipf).
    """

    kind: str = "zipf"
    n_images: int = 6
    pulls_per_device: int = 4
    horizon_s: float = 3600.0
    stagger_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; expected one of "
                f"{WORKLOAD_KINDS}"
            )
        require_int(self.n_images, "n_images", 1)
        require_int(self.pulls_per_device, "pulls_per_device", 1)
        require_positive(self.horizon_s, "horizon_s")
        if self.kind == "cold-waves":
            if self.n_images < 2:
                raise ValueError(
                    "cold-waves needs n_images >= 2 (the second wave pulls "
                    "a sibling image)"
                )
            if self.pulls_per_device != 1:
                raise ValueError(
                    "cold-waves schedules exactly one pull per device per "
                    f"wave; set pulls_per_device=1 "
                    f"(got {self.pulls_per_device})"
                )
            stagger_s = self.stagger_s if self.stagger_s is not None else 1.0
            object.__setattr__(self, "stagger_s", stagger_s)
            require_positive(stagger_s, "stagger_s")
        elif self.stagger_s is not None:
            raise ValueError(
                "stagger_s only applies to the cold-waves workload "
                f"(kind={self.kind!r})"
            )


@dataclass(frozen=True)
class TransferSpec:
    """How bytes become elapsed time.

    ``model`` is one of :data:`TRANSFER_MODELS`: ``"analytic"`` keeps
    the paper's instant-admission accounting; ``"time-resolved"``
    drives every pull through the shared-bandwidth
    :class:`~repro.sim.transfers.TransferEngine`.
    ``upload_budget`` caps concurrent uploads per device and is only
    meaningful (and only accepted) with the time-resolved model — the
    analytic model has no engine to enforce it.  The engine has one
    fair-share recompute (it re-solves only the connected components
    an event perturbs), so no field selects one.
    """

    model: str = "analytic"
    upload_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.model not in TRANSFER_MODELS:
            raise ValueError(
                f"unknown transfer model {self.model!r}; expected one of "
                f"{TRANSFER_MODELS}"
            )
        if self.upload_budget is not None:
            require_int(self.upload_budget, "upload_budget", 1)
            if not self.time_resolved:
                raise ValueError(
                    "upload_budget needs the time-resolved transfer model "
                    "(the analytic model has no engine to enforce it)"
                )

    @property
    def time_resolved(self) -> bool:
        return self.model == "time-resolved"


#: How gossip partners exchange knowledge. ``"push-pull"`` ships the
#: full payload both ways (the historical default); ``"digest-summary"``
#: first compares version summaries and ships only the records the
#: partner actually lacks — identical convergence, far fewer records on
#: the wire (metered as ``gossip_records_sent``).
GOSSIP_EXCHANGES = ("push-pull", "digest-summary")

#: The gossip knobs and the default each takes under backend="gossip".
_GOSSIP_KNOB_DEFAULTS = {
    "gossip_fanout": 2,
    "gossip_period_s": 60.0,
    "gossip_view_cap": 8,
    "gossip_latency_s": 0.0,
    "gossip_exchange": "push-pull",
    "gossip_loss_rate": 0.0,
}


@dataclass(frozen=True)
class DiscoverySpec:
    """How devices learn which peers hold which layers.

    The gossip knobs (``gossip_fanout`` / ``gossip_period_s`` /
    ``gossip_view_cap`` / ``gossip_latency_s`` / ``gossip_exchange``)
    are only accepted with ``backend="gossip"``; under gossip, unset
    knobs are normalised to the historical defaults (fanout 2, period
    60 s, view cap 8, zero latency, full push-pull payloads) so equal
    configurations compare equal after round-tripping.
    ``gossip_latency_s`` models per-pair metadata delivery latency:
    exchanged knowledge lands that many simulated seconds after the
    round fires, so views lag reality by a period *plus* the transport.
    ``gossip_loss_rate`` drops each directed payload independently
    with that probability (seeded, metered as ``payloads_lost``) —
    anti-entropy still converges, just over more rounds.
    """

    backend: str = "omniscient"
    gossip_fanout: Optional[int] = None
    gossip_period_s: Optional[float] = None
    gossip_view_cap: Optional[int] = None
    gossip_latency_s: Optional[float] = None
    gossip_exchange: Optional[str] = None
    gossip_loss_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.backend not in DISCOVERY_BACKENDS:
            raise ValueError(
                f"unknown discovery {self.backend!r}; expected one of "
                f"{DISCOVERY_BACKENDS}"
            )
        if self.backend == "gossip":
            for name, default in _GOSSIP_KNOB_DEFAULTS.items():
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
            # The defaulting loop above runs through object.__setattr__,
            # which no type-checker can see through — re-read the knobs
            # into locals and narrow them once.
            fanout = self.gossip_fanout
            period_s = self.gossip_period_s
            view_cap = self.gossip_view_cap
            latency_s = self.gossip_latency_s
            exchange = self.gossip_exchange
            loss_rate = self.gossip_loss_rate
            assert (
                fanout is not None
                and period_s is not None
                and view_cap is not None
                and latency_s is not None
                and exchange is not None
                and loss_rate is not None
            )
            require_int(fanout, "gossip_fanout", 1)
            require_positive(period_s, "gossip_period_s")
            require_int(view_cap, "gossip_view_cap", 1)
            require_non_negative(latency_s, "gossip_latency_s")
            if exchange not in GOSSIP_EXCHANGES:
                raise ValueError(
                    f"unknown gossip_exchange {exchange!r}; "
                    f"expected one of {GOSSIP_EXCHANGES}"
                )
            require_number(loss_rate, "gossip_loss_rate")
            if not 0.0 <= loss_rate < 1.0:
                raise ValueError(
                    f"gossip_loss_rate must be in [0, 1), got "
                    f"{loss_rate}"
                )
        else:
            set_knobs = [
                name
                for name in _GOSSIP_KNOB_DEFAULTS
                if getattr(self, name) is not None
            ]
            if set_knobs:
                raise ValueError(
                    f"{set_knobs} only apply to the gossip discovery "
                    f"backend (backend={self.backend!r})"
                )


#: Where replication demand is judged hot.  ``"global"`` (the pinned
#: historical policy) declares a digest hot on its *swarm-wide* decayed
#: score and then tops every region up; ``"per-region"`` requires each
#: region's own score to clear the threshold before that region
#: receives a proactive copy.
HOTNESS_SCOPES = ("global", "per-region")


@dataclass(frozen=True)
class ReplicationSpec:
    """The adaptive replicator's knobs (hybrid+p2p mode only).

    ``decay`` is the per-cycle exponential decay of demand scores
    (0 forgets everything each cycle, values near 1 remember demand
    almost indefinitely); ``hotness`` selects the scope demand is
    judged at (see :data:`HOTNESS_SCOPES`).  ``churn_aware=True`` hands
    the scenario's churn process to the replicator so replica targets
    weight holders by observed session lengths — it therefore requires
    the scenario to define churn (enforced by :class:`ScenarioSpec`).

    ``hot_fraction`` (per-region hotness only) auto-scales the hot
    threshold to each cycle's demand: a ``(digest, region)`` pair is
    hot when its decayed score reaches that fraction of the cycle's
    peak per-region score, instead of clearing the absolute
    ``hot_threshold``.  Per-region scores shrink with region size, so
    an absolute threshold tuned for one topology silently goes deaf on
    another — the fraction is scale-free.
    """

    interval_s: float = 120.0
    hot_threshold: float = 3.0
    target_replicas: int = 2
    decay: float = 0.5
    hotness: str = "global"
    churn_aware: bool = False
    hot_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive(self.interval_s, "interval_s")
        require_positive(self.hot_threshold, "hot_threshold")
        require_int(self.target_replicas, "target_replicas", 1)
        require_number(self.decay, "decay")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError(
                f"decay must be in [0, 1), got {self.decay}"
            )
        if self.hotness not in HOTNESS_SCOPES:
            raise ValueError(
                f"unknown hotness scope {self.hotness!r}; expected one of "
                f"{HOTNESS_SCOPES}"
            )
        require_bool(self.churn_aware, "churn_aware")
        if self.hot_fraction is not None:
            require_number(self.hot_fraction, "hot_fraction")
            if not 0.0 < self.hot_fraction <= 1.0:
                raise ValueError(
                    f"hot_fraction must be in (0, 1], got {self.hot_fraction}"
                )
            if self.hotness != "per-region":
                raise ValueError(
                    "hot_fraction scales the per-region hot threshold; it "
                    f"needs hotness='per-region' (got {self.hotness!r})"
                )


@dataclass(frozen=True)
class ChunkSpec:
    """Chunked multi-source pulls (BitTorrent-style swarm scheduling).

    ``enabled=True`` requires the time-resolved transfer model — the
    analytic model has no notion of a partially transferred layer
    (enforced by :class:`ScenarioSpec`).
    """

    enabled: bool = False
    size_bytes: int = DEFAULT_CHUNK_SIZE_BYTES
    parallel: int = 4

    def __post_init__(self) -> None:
        require_bool(self.enabled, "enabled")
        require_int(self.size_bytes, "size_bytes", 1)
        require_int(self.parallel, "parallel", 1)


@dataclass(frozen=True)
class TelemetrySpec:
    """Opt-in observability (see :mod:`repro.telemetry`).

    ``trace`` streams structured sim-time events (transfer lifecycle,
    fair-share reallocations, gossip rounds, churn transitions,
    replicator cycles, chunk endgame) into a
    :class:`~repro.telemetry.TraceRecorder`; ``metrics_period_s``
    schedules a tidy-row :class:`~repro.telemetry.MetricsSampler` at
    that simulated period (``None`` = no sampler, and nothing extra
    ever enters the event queue); ``profile`` attaches an
    :class:`~repro.telemetry.EngineProfile` to the transfer engine.

    Everything defaults off, and the whole section is **omitted** from
    :meth:`ScenarioSpec.to_dict` while it equals the default — so every
    historical spec dict, cache key, and sweep-cell content address is
    preserved bit-for-bit.  Telemetry is observation-only either way:
    enabling it changes no outcome (the differential tests pin this).
    """

    trace: bool = False
    metrics_period_s: Optional[float] = None
    profile: bool = False

    def __post_init__(self) -> None:
        require_bool(self.trace, "trace")
        require_bool(self.profile, "profile")
        if self.metrics_period_s is not None:
            require_positive(self.metrics_period_s, "metrics_period_s")


#: Sub-spec classes by ScenarioSpec field name, shared by the generic
#: (de)serialisation below.
_SECTIONS: Dict[str, type] = {
    "topology": TopologySpec,
    "workload": WorkloadSpec,
    "transfer": TransferSpec,
    "discovery": DiscoverySpec,
    "churn": ChurnSpec,
    "replication": ReplicationSpec,
    "chunks": ChunkSpec,
    "telemetry": TelemetrySpec,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully described simulation run.

    Composes the concern specs with the registry-chain ``mode`` and
    the root ``seed``.  All cross-section rules are enforced here,
    at construction, so an invalid combination raises immediately —
    never mid-run:

    * ``chunks.enabled`` requires ``transfer.model == "time-resolved"``,
    * ``replication.churn_aware`` requires a ``churn`` section,
    * ``churn.min_online`` must be below ``topology.n_devices``.

    Use :func:`dataclasses.replace` to derive variants (``replace(spec,
    mode="hybrid")``), :func:`with_overrides` for dotted-path string
    overrides, and :meth:`to_dict` / :meth:`from_dict` to serialise.
    """

    mode: str = "hybrid+p2p"
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    transfer: TransferSpec = field(default_factory=TransferSpec)
    discovery: DiscoverySpec = field(default_factory=DiscoverySpec)
    churn: Optional[ChurnSpec] = None
    replication: ReplicationSpec = field(default_factory=ReplicationSpec)
    chunks: ChunkSpec = field(default_factory=ChunkSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        require_int(self.seed, "seed", 0)
        if self.chunks.enabled and not self.transfer.time_resolved:
            raise ValueError(
                "chunked pulls need transfer.model='time-resolved' (the "
                "analytic model has no notion of a partially transferred "
                "layer)"
            )
        if self.replication.churn_aware and self.churn is None:
            raise ValueError(
                "replication.churn_aware needs a churn section — there is "
                "no churn process to learn session lengths from"
            )
        if (
            self.churn is not None
            and self.churn.min_online >= self.topology.n_devices
        ):
            raise ValueError(
                f"churn.min_online ({self.churn.min_online}) must be below "
                f"topology.n_devices ({self.topology.n_devices}); a regime "
                f"that keeps every device online never churns"
            )

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-safe dict that :meth:`from_dict` inverts."""
        data: Dict[str, Any] = {"mode": self.mode, "seed": self.seed}
        for name in _SECTIONS:
            section = getattr(self, name)
            if name == "telemetry" and section == TelemetrySpec():
                # A fully-default telemetry section is omitted, so every
                # pre-telemetry spec dict — and therefore every cache
                # key and sweep-cell content address — survives
                # bit-for-bit.  Non-default telemetry perturbs the key
                # like any other section (a traced run is a different
                # cell: its outcome dict differs).
                continue
            data[name] = None if section is None else _section_to_dict(section)
        return data

    def cache_key(self) -> str:
        """A canonical content address of this exact scenario.

        The SHA-256 of the spec's :meth:`to_dict` form (seed included)
        serialised canonically — key order never matters, so two specs
        that compare equal hash equal however their dicts were built,
        and any field change (any section, the mode, or the seed)
        perturbs the key.  This is the cell identity the sweep runner's
        on-disk results cache is addressed by.
        """
        return canonical_hash(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Missing keys take their defaults (so hand-written partial dicts
        work); unknown keys raise — a typo'd knob must never be
        silently ignored.
        """
        unknown = set(data) - set(_SECTIONS) - {"mode", "seed"}
        if unknown:
            raise ValueError(f"unknown ScenarioSpec keys {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for key in ("mode", "seed"):
            if key in data:
                kwargs[key] = data[key]
        for name, section_cls in _SECTIONS.items():
            if name not in data:
                continue
            section = data[name]
            if section is None:
                if name != "churn":
                    raise ValueError(f"section {name!r} cannot be null")
                kwargs[name] = None
            else:
                kwargs[name] = _section_from_dict(section_cls, section)
        return cls(**kwargs)


def canonical_json(data: Any) -> str:
    """The canonical serialisation content hashes are computed over.

    Keys are sorted recursively and separators are fixed, so any two
    structurally equal JSON-safe values — however their mappings were
    ordered — serialise to the same bytes.
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def canonical_hash(data: Any) -> str:
    """Key-order-insensitive SHA-256 hex digest of a JSON-safe value."""
    return hashlib.sha256(canonical_json(data).encode("ascii")).hexdigest()


def _section_to_dict(section: Any) -> Dict[str, Any]:
    return {f.name: getattr(section, f.name) for f in fields(section)}


def _section_from_dict(section_cls: type, data: Mapping[str, Any]) -> Any:
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{section_cls.__name__} section must be a mapping, "
            f"got {type(data).__name__}"
        )
    known = {f.name for f in fields(section_cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {section_cls.__name__} keys {sorted(unknown)}"
        )
    return section_cls(**data)


# ----------------------------------------------------------------------
# dotted-path overrides (the CLI's --set flag)
# ----------------------------------------------------------------------
def _parse_override_value(raw: str) -> Any:
    """``"600"`` → 600, ``"true"`` → True, ``"none"`` → None, else str."""
    lowered = raw.strip().lower()
    if lowered in ("none", "null"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return json.loads(raw)
    except (ValueError, TypeError):
        return raw


def _all_override_paths() -> List[str]:
    """Every assignable dotted path (for nearest-match suggestions)."""
    paths = ["mode", "seed", "churn"]
    for section, section_cls in _SECTIONS.items():
        paths.extend(f"{section}.{f.name}" for f in fields(section_cls))
    return paths


#: Nearest-match suggestion suffix (shared with the lint CLI's unknown
#: rule-name diagnostics — see :mod:`repro.util`).
_nearest = did_you_mean


def with_overrides(
    spec: ScenarioSpec, assignments: Mapping[str, Any]
) -> ScenarioSpec:
    """``spec`` with dotted-path overrides applied and re-validated.

    Keys are ``section.field`` (or bare ``mode`` / ``seed`` /
    ``churn``); string values are parsed as JSON scalars where possible
    (``"none"``/``"null"`` clear, e.g. ``churn=none`` drops churn).
    Setting any ``churn.*`` field on a churn-less spec creates a
    default :class:`ChurnSpec` first.  The result passes through
    :meth:`ScenarioSpec.from_dict`, so every cross-field rule still
    applies — an override can never smuggle in an invalid combination.

    Bad paths are collected and reported *together* in one
    :class:`ValueError` — a sweep axis with three typos names all three
    (each with its nearest valid path) instead of failing one fix at a
    time.
    """
    data = spec.to_dict()
    problems: List[str] = []
    for path, raw in assignments.items():
        value = _parse_override_value(raw) if isinstance(raw, str) else raw
        parts = path.split(".")
        if len(parts) == 1:
            key = parts[0]
            if key not in data:
                problems.append(
                    f"unknown override path {path!r}"
                    f"{_nearest(path, _all_override_paths())}"
                )
                continue
            if key in _SECTIONS and value is not None:
                problems.append(
                    f"section {key!r} can only be cleared (=none); set its "
                    f"fields via {key}.<field>=<value>"
                )
                continue
            data[key] = value
        elif len(parts) == 2:
            section, fname = parts
            if section not in _SECTIONS:
                problems.append(
                    f"unknown override section {section!r}"
                    f"{_nearest(path, _all_override_paths())}"
                )
                continue
            section_fields = [f.name for f in fields(_SECTIONS[section])]
            if fname not in section_fields:
                candidates = [f"{section}.{name}" for name in section_fields]
                problems.append(
                    f"unknown field {fname!r} of section {section!r}"
                    f"{_nearest(path, candidates + _all_override_paths())}"
                )
                continue
            # data.get, not data[...]: a fully-default telemetry
            # section is omitted from to_dict entirely.
            if data.get(section) is None:
                data[section] = {}
            data[section][fname] = value
        else:
            problems.append(
                f"override path {path!r} nests too deep; expected "
                f"section.field"
            )
    if problems:
        noun = "override" if len(problems) == 1 else "overrides"
        raise ValueError(
            f"{len(problems)} bad {noun}: " + "; ".join(problems)
        )
    return ScenarioSpec.from_dict(data)


def parse_set_flags(flags: Tuple[str, ...]) -> Dict[str, str]:
    """Split CLI ``--set path=value`` strings into an override mapping."""
    assignments: Dict[str, str] = {}
    for flag in flags:
        path, eq, value = flag.partition("=")
        if not eq or not path:
            raise ValueError(
                f"bad --set {flag!r}; expected section.field=value"
            )
        assignments[path.strip()] = value
    return assignments
