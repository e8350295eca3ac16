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

Every experiment here is its scenario preset (:mod:`repro.scenarios`)
at a seed: ``run_<x>(seed)`` starts from the preset of the same name,
derives the variants its rows compare with :func:`dataclasses.replace`,
and runs one :class:`SimulationSession` per variant.  Each session
builds its own scenario from its spec; the variants share topology,
workload and seed, so every row sees the same registries, devices and
pull schedule and byte counts stay directly comparable.

Two transfer models are supported (a spec's ``transfer.model``, one
of :data:`~repro.scenarios.spec.TRANSFER_MODELS`): the default
``"analytic"`` keeps the paper's instant-admission accounting (every
transfer an isolated ``size/BW`` sleep, layers visible to peers at
pull *start*), while ``"time-resolved"`` drives every pull through the
shared-bandwidth :class:`~repro.sim.transfers.TransferEngine` with
reserve→commit cache admission — overlapping pulls contend for links
and can only source layers from peers whose copies have actually
landed.
:func:`run_contended` quantifies the gap between the two on a
deliberately overlapping schedule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..model.units import BYTES_PER_GB
from .. import scenarios
from ..scenarios import (
    DISCOVERY_BACKENDS,
    MODES,
    ChurnSpec,
    DiscoverySpec,
    ModeOutcome,
    SimulationSession,
    TransferSpec,
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


def run(seed: int) -> ExperimentResult:
    """The three-tier comparison of the ``p2p`` preset at ``seed``."""
    base = replace(scenarios.get("p2p"), seed=seed)
    result = ExperimentResult(
        experiment_id="p2p",
        title=(
            f"P2P tier: origin traffic on a {base.topology.n_devices}-device "
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
        outcome = SimulationSession(replace(base, mode=mode)).run()
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
            f"adaptive replicator: {replicator['actions']} proactive "
            f"copies ({replicator['bytes_replicated'] / BYTES_PER_GB:.2f} "
            f"GB), converged={replicator['converged']}"
        )
    return result


# ----------------------------------------------------------------------
# contended overlap: analytic vs time-resolved
# ----------------------------------------------------------------------
def run_contended(seed: int) -> ExperimentResult:
    """Quantify the analytic-vs-time-resolved gap under overlap.

    Runs the ``p2p-contended`` preset at ``seed`` in ``hybrid``
    (baseline, no peers) and ``hybrid+p2p`` under both transfer
    models.  Every device pulls the same image in a tight stagger, then
    a second image sharing its base, so both waves are cold.  Analytic
    admission publishes the first puller's layers at pull start, so
    followers plan LAN peer fetches; time-resolved admission publishes
    nothing until a transfer completes, so most of a wave goes to the
    origin and contends for the shared NIC and egress links.  The
    headline is the *origin-traffic saving* of the P2P tier: analytic
    admission overstates it because followers fetch from in-flight
    copies that a real swarm could not have served yet.
    """
    preset = replace(scenarios.get("p2p-contended"), seed=seed)
    result = ExperimentResult(
        experiment_id="p2p-contended",
        title=(
            f"P2P savings under overlapping pulls: analytic vs "
            f"time-resolved transfers ({preset.topology.n_devices} "
            f"devices) [GB]"
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
    savings: Dict[str, int] = {}
    # The analytic model has no engine to budget uploads.
    for transfer in (TransferSpec(), preset.transfer):
        model = transfer.model
        base = replace(preset, transfer=transfer)
        hybrid = SimulationSession(replace(base, mode="hybrid")).run()
        p2p = SimulationSession(base).run()
        saved = hybrid.origin_bytes - p2p.origin_bytes
        savings[model] = saved
        for outcome in (hybrid, p2p):
            if outcome.unfinished_pulls:
                result.note(
                    f"WARNING: {outcome.unfinished_pulls} pull(s) of the "
                    f"{model} {outcome.mode} run did not finish by "
                    f"the horizon — its byte counters under-report"
                )
        result.add_row(
            model=model,
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
    gap = savings["analytic"] - savings["time-resolved"]
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


def run_chunked(seed: int) -> ExperimentResult:
    """Quantify what chunked multi-source transfers buy on a cold wave.

    Runs the ``p2p-chunked`` preset at ``seed`` (every device pulls the
    same image nearly simultaneously, twice) through the time-resolved
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
    preset = replace(scenarios.get("p2p-chunked"), seed=seed)
    result = ExperimentResult(
        experiment_id="p2p-chunked",
        title=(
            f"Chunked multi-source pulls on a contended cold wave "
            f"({preset.topology.n_devices} devices, "
            f"{preset.chunks.size_bytes // 1_000_000} MB "
            f"chunks, window {preset.chunks.parallel})"
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
                preset,
                workload=replace(preset.workload, stagger_s=stagger_s),
                churn=churn_spec,
                replication=replace(
                    preset.replication, churn_aware=churn_spec is not None
                ),
                chunks=replace(preset.chunks, enabled=chunked),
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


def run_gossip(seed: int) -> ExperimentResult:
    """Quantify how much omniscient discovery overstates P2P savings.

    For each churn regime the hybrid baseline (no peers) of the
    ``p2p-gossip`` preset at ``seed`` runs once, then ``hybrid+p2p``
    runs twice — with omniscient discovery (every device sees every
    committed replica instantly) and with the preset's gossip discovery
    (partial views lagging by up to a gossip period, stale entries
    metered and fallen back from).  The headline is the same shape
    ``run_contended`` uses for analytic admission: the
    *origin-traffic saving* each backend reports, and the gap between
    them.
    """
    preset = replace(scenarios.get("p2p-gossip"), seed=seed)
    result = ExperimentResult(
        experiment_id="p2p-gossip",
        title=(
            f"P2P savings by discovery backend under churn "
            f"({preset.topology.n_devices} devices, gossip "
            f"fanout={preset.discovery.gossip_fanout} "
            f"period={preset.discovery.gossip_period_s:.0f}s) [GB]"
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
    gaps: List[Tuple[str, float]] = []
    for label, churn_spec in CHURN_REGIMES:
        # The backend is swapped per run below.
        base = replace(preset, discovery=DiscoverySpec(), churn=churn_spec)
        hybrid = SimulationSession(replace(base, mode="hybrid")).run()
        saved_by_backend: Dict[str, int] = {}
        for backend in DISCOVERY_BACKENDS:
            discovery = (
                preset.discovery if backend == "gossip" else DiscoverySpec()
            )
            outcome = SimulationSession(
                replace(base, discovery=discovery)
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

