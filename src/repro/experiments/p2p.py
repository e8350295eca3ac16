"""Experiment P2P: what the third registry tier buys at the edge.

Compares three deployments of the same layer-sharing pull workload on
a swarm of edge devices:

* ``hub-only``    — every layer comes from Docker Hub (tier 1),
* ``hybrid``      — the paper's design: regional registry first, hub
  fallback (tiers 1–2),
* ``hybrid+p2p``  — the full stack: peers serve cached layers over the
  LAN, the adaptive replicator spreads hot layers into
  under-provisioned regions, registries only fill misses (tiers 1–3).

The workload is deliberately layer-sharing: images are built on common
bases (``python:3.9-slim`` et al.), and demand is Zipf-skewed so a few
hot images dominate — the regime where EdgePier-style peer
distribution pays off.  The headline metric is *origin traffic*: bytes
pulled from hub + regional.  The P2P tier strictly lowers it because
every layer already cached anywhere in a region can be served locally.

Every experiment here is driven by the declarative scenario API
(:mod:`repro.scenarios`): a frozen :class:`ScenarioSpec` per
configuration, variants derived with :func:`dataclasses.replace`, and
one :class:`SimulationSession` per run.

Two transfer models are supported (see
:class:`~repro.sim.transfers.TransferModel`): the default ``ANALYTIC``
mode keeps the paper's instant-admission accounting (every transfer an
isolated ``size/BW`` sleep, layers visible to peers at pull *start*),
while ``TIME_RESOLVED`` drives every pull through the shared-bandwidth
:class:`~repro.sim.transfers.TransferEngine` with reserve→commit cache
admission — overlapping pulls contend for links and can only source
layers from peers whose copies have actually landed.
:func:`run_contended` quantifies the gap between the two on a
deliberately overlapping schedule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..model.units import BYTES_PER_GB
from ..sim.rng import DEFAULT_SEED
from ..sim.transfers import TransferModel
from .. import scenarios
from ..scenarios import (
    DISCOVERY_BACKENDS,
    MODES,
    ChunkSpec,
    ChurnSpec,
    DiscoverySpec,
    ModeOutcome,
    ReplicationSpec,
    ScenarioSpec,
    SimulationSession,
    TransferSpec,
    build_swarm_scenario,
)
from .runner import ExperimentResult

__all__ = [
    "MODES",
    "DISCOVERY_BACKENDS",
    "CHURN_REGIMES",
    "CHUNKED_CHURN_REGIMES",
    "run",
    "run_contended",
    "run_gossip",
    "run_chunked",
]


def _contended_base(
    n_devices: int, n_regions: int, stagger_s: float, seed: int
) -> ScenarioSpec:
    """The ``p2p-contended`` preset resized — the single source of the
    contended topology/cold-wave shape (NIC and egress shaping live in
    the preset, never re-inlined here).

    Every device pulls the same image ``stagger_s`` apart, then a
    second image sharing its base, so both waves are cold.  Analytic
    admission publishes the first puller's layers at pull start, so
    followers plan LAN peer fetches; time-resolved admission publishes
    nothing until a transfer completes, so most of a wave goes to the
    origin and contends for the shared NIC and egress links.
    """
    preset = scenarios.get("p2p-contended")
    return replace(
        preset,
        topology=replace(
            preset.topology, n_devices=n_devices, n_regions=n_regions
        ),
        workload=replace(preset.workload, stagger_s=stagger_s),
        seed=seed,
    )


def run(
    n_devices: int = 12,
    n_images: int = 6,
    pulls_per_device: int = 4,
    n_regions: int = 3,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """The three-tier comparison as a standard experiment table.

    The base configuration is the ``p2p`` preset resized — preset and
    experiment cannot drift apart.
    """
    preset = scenarios.get("p2p")
    base = replace(
        preset,
        topology=replace(
            preset.topology, n_devices=n_devices, n_regions=n_regions
        ),
        workload=replace(
            preset.workload,
            n_images=n_images,
            pulls_per_device=pulls_per_device,
        ),
        seed=seed,
    )
    # One scenario shared by every mode: registry blob content is
    # immutable, so byte counts stay directly comparable.
    scenario = build_swarm_scenario(base)
    result = ExperimentResult(
        experiment_id="p2p",
        title=(
            f"P2P tier: origin traffic on a {n_devices}-device "
            f"layer-sharing swarm [GB]"
        ),
        columns=[
            "mode",
            "pulls",
            "hit_ratio",
            "hub_gb",
            "regional_gb",
            "peer_gb",
            "origin_gb",
            "transfer_s",
        ],
    )
    outcomes: Dict[str, ModeOutcome] = {}
    for mode in MODES:
        outcome = SimulationSession(
            replace(base, mode=mode), scenario=scenario
        ).run()
        outcomes[mode] = outcome
        result.add_row(
            mode=mode,
            pulls=outcome.pulls,
            hit_ratio=outcome.hit_ratio,
            hub_gb=outcome.bytes_by_registry.get("docker-hub", 0) / BYTES_PER_GB,
            regional_gb=outcome.bytes_by_registry.get("regional", 0)
            / BYTES_PER_GB,
            peer_gb=(outcome.bytes_from_peers + outcome.bytes_replicated)
            / BYTES_PER_GB,
            origin_gb=outcome.origin_bytes / BYTES_PER_GB,
            transfer_s=outcome.transfer_s,
        )
    saved = outcomes["hybrid"].origin_bytes - outcomes["hybrid+p2p"].origin_bytes
    result.note(
        f"hybrid+p2p pulls {saved / BYTES_PER_GB:.2f} GB less from "
        f"hub+regional than plain hybrid"
        + (" (P2P tier offloads the origin)" if saved > 0 else " — NO SAVING")
    )
    replicator = outcomes["hybrid+p2p"].replicator
    if replicator is not None:
        result.note(
            f"adaptive replicator: {replicator.total_actions()} proactive "
            f"copies ({replicator.bytes_replicated / BYTES_PER_GB:.2f} GB), "
            f"converged={replicator.converged()}"
        )
    return result


# ----------------------------------------------------------------------
# contended overlap: analytic vs time-resolved
# ----------------------------------------------------------------------
def run_contended(
    n_devices: int = 8,
    n_regions: int = 2,
    upload_budget: int = 2,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Quantify the analytic-vs-time-resolved gap under overlap.

    Runs the contended-overlap scenario in ``hybrid`` (baseline, no
    peers) and ``hybrid+p2p`` under both transfer models.  The headline
    is the *origin-traffic saving* of the P2P tier: analytic admission
    overstates it because followers fetch from in-flight copies that a
    real swarm could not have served yet.
    """
    result = ExperimentResult(
        experiment_id="p2p-contended",
        title=(
            f"P2P savings under overlapping pulls: analytic vs "
            f"time-resolved transfers ({n_devices} devices) [GB]"
        ),
        columns=[
            "model",
            "pulls",
            "hybrid_origin_gb",
            "p2p_origin_gb",
            "saved_gb",
            "saved_pct",
            "peer_gb",
            "transfer_s",
        ],
    )
    savings: Dict[TransferModel, int] = {}
    for model in (TransferModel.ANALYTIC, TransferModel.TIME_RESOLVED):
        base = replace(
            _contended_base(n_devices, n_regions, 1.0, seed),
            transfer=TransferSpec(
                model=model,
                # The analytic model has no engine to budget uploads.
                upload_budget=(
                    upload_budget
                    if model is TransferModel.TIME_RESOLVED
                    else None
                ),
            ),
        )
        scenario = build_swarm_scenario(base)
        hybrid = SimulationSession(
            replace(base, mode="hybrid"), scenario=scenario
        ).run()
        p2p = SimulationSession(base, scenario=scenario).run()
        saved = hybrid.origin_bytes - p2p.origin_bytes
        savings[model] = saved
        for outcome in (hybrid, p2p):
            if outcome.unfinished_pulls:
                result.note(
                    f"WARNING: {outcome.unfinished_pulls} pull(s) of the "
                    f"{model.value} {outcome.mode} run did not finish by "
                    f"the horizon — its byte counters under-report"
                )
        result.add_row(
            model=model.value,
            pulls=p2p.pulls,
            hybrid_origin_gb=hybrid.origin_bytes / BYTES_PER_GB,
            p2p_origin_gb=p2p.origin_bytes / BYTES_PER_GB,
            saved_gb=saved / BYTES_PER_GB,
            saved_pct=(
                100.0 * saved / hybrid.origin_bytes if hybrid.origin_bytes else 0.0
            ),
            peer_gb=(p2p.bytes_from_peers + p2p.bytes_replicated) / BYTES_PER_GB,
            transfer_s=p2p.transfer_s,
        )
    gap = savings[TransferModel.ANALYTIC] - savings[TransferModel.TIME_RESOLVED]
    result.note(
        f"analytic admission overstates P2P origin savings by "
        f"{gap / BYTES_PER_GB:.2f} GB under this overlap "
        f"({'time-resolved is strictly lower' if gap > 0 else 'NO GAP'})"
    )
    return result


# ----------------------------------------------------------------------
# chunked multi-source pulls: single-source vs swarm scheduling
# ----------------------------------------------------------------------

#: (label, wave stagger seconds, churn config) regimes the chunked
#: experiment sweeps.  "cold-wave" is the pure simultaneous cold start
#: (no churn): the makespan axis.  "seeder-flaky" staggers arrivals so
#: early finishers seed later ones, then churns devices fast enough
#: that seeders routinely depart *mid-upload*: the restart-waste axis —
#: a single-source pull loses the whole layer's delivered bytes, a
#: chunked pull only the chunk in flight.
CHUNKED_CHURN_REGIMES: Tuple[Tuple[str, float, Optional[ChurnSpec]], ...] = (
    ("cold-wave", 1.0, None),
    ("seeder-flaky", 10.0, ChurnSpec(mean_uptime_s=25.0,
                                     mean_downtime_s=100.0,
                                     min_online=2)),
)


def run_chunked(
    n_devices: int = 8,
    n_regions: int = 2,
    upload_budget: int = 2,
    chunk_size_bytes: int = 16_000_000,
    chunk_parallel: int = 4,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Quantify what chunked multi-source transfers buy on a cold wave.

    Runs the contended-overlap scenario (every device pulls the same
    image nearly simultaneously, twice) through the time-resolved
    engine in ``hybrid+p2p`` mode, once with the single-source
    per-layer planner and once with the chunked swarm planner, under
    each churn regime.  The headline is the **cold-start makespan**:
    with single sources the first wave serialises behind the origin
    and whichever seeders commit first, while chunked pulls spread
    rarest-first chunk requests over every full *and partial* holder —
    devices seed chunks they have barely finished receiving.  Under
    churn the second axis appears: a departing seeder costs a
    single-source pull the whole layer's progress (``bytes_wasted``)
    but a chunked pull only the chunk in flight.
    """
    result = ExperimentResult(
        experiment_id="p2p-chunked",
        title=(
            f"Chunked multi-source pulls on a contended cold wave "
            f"({n_devices} devices, {chunk_size_bytes // 1_000_000} MB "
            f"chunks, window {chunk_parallel})"
        ),
        columns=[
            "churn",
            "planner",
            "pulls",
            "wave_makespan_s",
            "origin_gb",
            "peer_gb",
            "wasted_mb",
            "endgame_dupes",
            "stale_misses",
        ],
    )
    for label, stagger_s, churn_spec in CHUNKED_CHURN_REGIMES:
        outcomes: Dict[bool, ModeOutcome] = {}
        for chunked in (False, True):
            spec = replace(
                _contended_base(n_devices, n_regions, stagger_s, seed),
                transfer=TransferSpec(
                    model=TransferModel.TIME_RESOLVED,
                    upload_budget=upload_budget,
                ),
                churn=churn_spec,
                replication=ReplicationSpec(
                    churn_aware=(churn_spec is not None)
                ),
                chunks=ChunkSpec(
                    enabled=chunked,
                    size_bytes=chunk_size_bytes,
                    parallel=chunk_parallel,
                ),
            )
            outcome = SimulationSession(spec).run()
            outcomes[chunked] = outcome
            if outcome.unfinished_pulls:
                result.note(
                    f"WARNING: {outcome.unfinished_pulls} pull(s) of the "
                    f"churn={label} "
                    f"{'chunked' if chunked else 'single-source'} run did "
                    f"not finish by the horizon"
                )
            result.add_row(
                churn=label,
                planner="chunked" if chunked else "single-source",
                pulls=outcome.pulls,
                wave_makespan_s=outcome.longest_pull_s,
                origin_gb=outcome.origin_bytes / BYTES_PER_GB,
                peer_gb=(outcome.bytes_from_peers + outcome.bytes_replicated)
                / BYTES_PER_GB,
                wasted_mb=outcome.bytes_wasted / 1e6,
                endgame_dupes=outcome.chunk_endgame_dupes,
                stale_misses=outcome.stale_peer_misses,
            )
        single, chunked_out = outcomes[False], outcomes[True]
        if single.longest_pull_s > 0:
            gain = 100.0 * (
                1.0 - chunked_out.longest_pull_s / single.longest_pull_s
            )
            result.note(
                f"churn={label}: chunked cold-start wave makespan "
                f"{chunked_out.longest_pull_s:.1f} s vs single-source "
                f"{single.longest_pull_s:.1f} s ({gain:.1f}% faster)"
                + ("" if gain > 0 else " — NO REDUCTION")
            )
        if churn_spec is not None:
            result.note(
                f"churn={label}: restart waste {single.bytes_wasted / 1e6:.1f} "
                f"MB single-source vs {chunked_out.bytes_wasted / 1e6:.1f} MB "
                f"chunked"
                + (
                    " (chunking loses chunks, not layers)"
                    if chunked_out.bytes_wasted <= single.bytes_wasted
                    else " — chunking wasted MORE (investigate)"
                )
            )
    return result


# ----------------------------------------------------------------------
# discovery realism: omniscient vs gossip under churn
# ----------------------------------------------------------------------

#: (label, config) churn regimes the gossip experiment sweeps.  Uptime
#: and downtime means are chosen against the scenario's 3600 s horizon:
#: "moderate" churns a few devices per run (and IS the ``p2p-gossip``
#: preset's regime — the two cannot drift apart), "heavy" keeps a
#: sizeable fraction of the swarm cycling.
CHURN_REGIMES: Tuple[Tuple[str, Optional[ChurnSpec]], ...] = (
    ("none", None),
    ("moderate", scenarios.get("p2p-gossip").churn),
    ("heavy", ChurnSpec(mean_uptime_s=500.0, mean_downtime_s=300.0,
                        min_online=4)),
)


def run_gossip(
    n_devices: int = 16,
    n_images: int = 6,
    pulls_per_device: int = 4,
    n_regions: int = 3,
    gossip_fanout: int = 2,
    gossip_period_s: float = 60.0,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Quantify how much omniscient discovery overstates P2P savings.

    For each churn regime the hybrid baseline (no peers) runs once,
    then ``hybrid+p2p`` runs twice — with omniscient discovery (every
    device sees every committed replica instantly) and with gossip
    discovery (partial views lagging by up to a gossip period, stale
    entries metered and fallen back from).  The headline is the same
    shape PR 2 used for analytic admission: the *origin-traffic
    saving* each backend reports, and the gap between them.
    """
    result = ExperimentResult(
        experiment_id="p2p-gossip",
        title=(
            f"P2P savings by discovery backend under churn "
            f"({n_devices} devices, gossip fanout={gossip_fanout} "
            f"period={gossip_period_s:.0f}s) [GB]"
        ),
        columns=[
            "churn",
            "discovery",
            "pulls",
            "skipped",
            "origin_gb",
            "peer_gb",
            "stale_misses",
            "saved_gb",
            "saved_pct",
        ],
    )
    preset = scenarios.get("p2p-gossip")
    gaps: List[Tuple[str, float]] = []
    for label, churn_spec in CHURN_REGIMES:
        base = replace(
            preset,
            topology=replace(
                preset.topology, n_devices=n_devices, n_regions=n_regions
            ),
            workload=replace(
                preset.workload,
                n_images=n_images,
                pulls_per_device=pulls_per_device,
            ),
            discovery=DiscoverySpec(),  # backend swapped per run below
            churn=churn_spec,
            seed=seed,
        )
        scenario = build_swarm_scenario(base)
        hybrid = SimulationSession(
            replace(base, mode="hybrid"), scenario=scenario
        ).run()
        saved_by_backend: Dict[str, int] = {}
        for backend in DISCOVERY_BACKENDS:
            discovery = (
                replace(
                    preset.discovery,
                    gossip_fanout=gossip_fanout,
                    gossip_period_s=gossip_period_s,
                )
                if backend == "gossip"
                else DiscoverySpec()
            )
            outcome = SimulationSession(
                replace(base, discovery=discovery), scenario=scenario
            ).run()
            saved = hybrid.origin_bytes - outcome.origin_bytes
            saved_by_backend[backend] = saved
            result.add_row(
                churn=label,
                discovery=backend,
                pulls=outcome.pulls,
                skipped=outcome.skipped_pulls,
                origin_gb=outcome.origin_bytes / BYTES_PER_GB,
                peer_gb=(outcome.bytes_from_peers + outcome.bytes_replicated)
                / BYTES_PER_GB,
                stale_misses=outcome.stale_peer_misses,
                saved_gb=saved / BYTES_PER_GB,
                saved_pct=(
                    100.0 * saved / hybrid.origin_bytes
                    if hybrid.origin_bytes
                    else 0.0
                ),
            )
        gap = saved_by_backend["omniscient"] - saved_by_backend["gossip"]
        gaps.append((label, gap / BYTES_PER_GB))
    for label, gap_gb in gaps:
        result.note(
            f"churn={label}: omniscient discovery overstates P2P origin "
            f"savings by {gap_gb:.2f} GB vs gossip"
            + ("" if gap_gb >= 0 else " (gossip saved MORE — investigate)")
        )
    return result


# The CLI (and anything else enumerating runnable scenario families)
# derives its run list from this registry — a new experiment that
# registers here can never be silently dropped from `repro all`.
scenarios.attach_experiment("p2p", run)
scenarios.attach_experiment("p2p-contended", run_contended)
scenarios.attach_experiment("p2p-gossip", run_gossip)
scenarios.attach_experiment("p2p-chunked", run_chunked)
