"""The simulation facade: one place that assembles and runs a scenario.

:class:`SimulationSession` turns a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` into a wired simulation —
simulator, network, caches, :class:`~repro.registry.p2p.PeerSwarm`,
discovery backend, churn process, transfer engine, registry chain, and
replicator — and exposes ``session.run() -> ModeOutcome``, driven by
the spec's validated sections.

RNG stream names ("p2p.gossip", "p2p.churn"), process creation order
(the pull schedule first, replicator last), and accounting are fixed,
which keeps every experiment output bit-for-bit pinned to PR 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Generator, Optional

from ..model.device import Arch
from ..registry.base import ImageReference
from ..registry.cache import ImageCache
from ..registry.discovery import GossipDiscovery
from ..registry.p2p import AdaptiveReplicator, P2PRegistry, PeerSwarm
from ..sim.churn import ChurnProcess
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..sim.transfers import TransferEngine
from ..telemetry import (
    DEFAULT_METRICS_PERIOD_S,
    EngineProfile,
    MetricsSampler,
    TraceRecorder,
    active_capture,
)
from .build import build_swarm_scenario
from .spec import ScenarioSpec

#: :meth:`ModeOutcome.to_dict` keys whose values depend on wall-clock
#: time (build/run timings, the engine self-profile) rather than on the
#: simulation — every byte-identity surface (differential telemetry
#: tests, sweep ``aggregate_json``) strips them via
#: :func:`deterministic_outcome_dict`.
NONDETERMINISTIC_OUTCOME_KEYS = (
    "wall_build_s",
    "wall_run_s",
    "engine_profile",
)


def deterministic_outcome_dict(data: Dict[str, Any]) -> Dict[str, Any]:
    """An outcome dict minus its wall-clock-dependent keys."""
    return {
        key: value
        for key, value in data.items()
        if key not in NONDETERMINISTIC_OUTCOME_KEYS
    }


@dataclass
class ModeOutcome:
    """Aggregated traffic of one session run."""

    mode: str
    pulls: int = 0
    cache_hits: int = 0
    bytes_by_registry: Dict[str, int] = field(default_factory=dict)
    bytes_from_peers: int = 0
    bytes_replicated: int = 0
    transfer_s: float = 0.0
    #: The replicator's summary at run end: ``{"actions",
    #: "bytes_replicated", "converged"}`` (None when the mode ran
    #: without one).  A value, so the outcome keeps no swarm alive.
    replicator: Optional[Dict[str, Any]] = None
    #: Scheduled pulls that did not finish (time-resolved: still in
    #: flight; analytic: not yet arrived) when the horizon cut the run
    #: off.  Nonzero values mean the byte counters under-report — the
    #: truncation is deliberate but must never be silent.
    unfinished_pulls: int = 0
    #: Pulls whose device was offline (churned out) at arrival time.
    skipped_pulls: int = 0
    #: Stale discovery entries caught by verification across all pulls
    #: plus the replicator (0 under omniscient discovery).
    stale_peer_misses: int = 0
    #: Churn totals (0 without a churn process).
    departures: int = 0
    rejoins: int = 0
    #: Anti-entropy rounds the gossip backend completed (0 omniscient).
    gossip_rounds: int = 0
    #: View records shipped over the gossip metadata plane (0
    #: omniscient) — the wire cost the digest-summary exchange cuts.
    gossip_records_sent: int = 0
    #: Directed gossip payloads dropped in transit (0 omniscient or
    #: with ``gossip_loss_rate=0``).
    gossip_payloads_lost: int = 0
    #: Simulated time at which the *last* pull of the run completed —
    #: the cold-start makespan on a wave schedule (0 with no pulls).
    makespan_s: float = 0.0
    #: Longest single pull latency (completion minus scheduled
    #: arrival).  On a near-simultaneous cold wave this is the wave's
    #: own makespan, independent of where the wave sits on the clock.
    longest_pull_s: float = 0.0
    #: Bytes moved over links and thrown away (mid-flight fallbacks,
    #: losing endgame duplicates); analytic runs always report 0.
    bytes_wasted: int = 0
    #: Duplicate chunk requests issued by the chunked endgame.
    chunk_endgame_dupes: int = 0
    #: Transfers the time-resolved engine's fair-share recomputes
    #: re-rated over the run (0 analytic): each event's dirty closure,
    #: so the counter measures solve work, not outcome.
    engine_transfers_visited: int = 0
    #: Wall-clock seconds spent assembling the session (scenario build
    #: plus wiring).  Wall-clock, hence nondeterministic — every
    #: byte-identity comparison strips it
    #: (:data:`NONDETERMINISTIC_OUTCOME_KEYS`).
    wall_build_s: float = 0.0
    #: Wall-clock seconds :meth:`SimulationSession.run` took.
    wall_run_s: float = 0.0
    #: :meth:`~repro.telemetry.EngineProfile.summary` of the transfer
    #: engine's self-profile when ``telemetry.profile`` was on (None
    #: otherwise) — wall-clock-derived, nondeterministic like the
    #: timings above.
    engine_profile: Optional[Dict[str, Any]] = None

    @property
    def origin_bytes(self) -> int:
        """Bytes served by hub + regional (the tiers P2P offloads)."""
        return sum(self.bytes_by_registry.values())

    @property
    def hit_ratio(self) -> float:
        return self.cache_hits / self.pulls if self.pulls else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-safe dict of every counter."""
        return {
            "mode": self.mode,
            "pulls": self.pulls,
            "cache_hits": self.cache_hits,
            "hit_ratio": self.hit_ratio,
            "bytes_by_registry": dict(self.bytes_by_registry),
            "origin_bytes": self.origin_bytes,
            "bytes_from_peers": self.bytes_from_peers,
            "bytes_replicated": self.bytes_replicated,
            "transfer_s": self.transfer_s,
            "unfinished_pulls": self.unfinished_pulls,
            "skipped_pulls": self.skipped_pulls,
            "stale_peer_misses": self.stale_peer_misses,
            "departures": self.departures,
            "rejoins": self.rejoins,
            "gossip_rounds": self.gossip_rounds,
            "gossip_records_sent": self.gossip_records_sent,
            "gossip_payloads_lost": self.gossip_payloads_lost,
            "makespan_s": self.makespan_s,
            "longest_pull_s": self.longest_pull_s,
            "bytes_wasted": self.bytes_wasted,
            "chunk_endgame_dupes": self.chunk_endgame_dupes,
            "engine_transfers_visited": self.engine_transfers_visited,
            "wall_build_s": self.wall_build_s,
            "wall_run_s": self.wall_run_s,
            "engine_profile": self.engine_profile,
            "replicator": (
                None if self.replicator is None else dict(self.replicator)
            ),
        }


class SimulationSession:
    """Assembles one scenario run and executes its pull schedule.

    ``SimulationSession(spec)`` builds the scenario from the spec and
    nothing else.  The build is deterministic and reads only the
    topology and workload sections and the seed, so sessions that
    compare variants of one spec (modes, discovery backends, …) each
    build their own and still see the same registries, devices and
    schedule.  Each component takes its spec section: the gossip
    backend its ``discovery``, the replicator its ``replication``, the
    facade its ``chunks``, the engine the ``transfer`` section's upload
    budget.

    Sessions are single-use: :meth:`run` consumes the simulator state
    and raises on a second call.  After assembly the wired components
    are exposed (``sim``, ``swarm``, ``caches``, ``facade``,
    ``engine``, ``discovery``, ``churn_process``, ``replicator``, and —
    when the spec's ``telemetry`` section or an active
    :class:`~repro.telemetry.TelemetryCapture` enables them —
    ``trace``, ``metrics``, ``engine_profile``) for tests and
    diagnostics.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        t0 = perf_counter()
        self.spec = spec
        self.scenario = build_swarm_scenario(spec)
        self._ran = False
        self._assemble()
        self._wall_build_s = perf_counter() - t0

    # -- wiring ---------------------------------------------------------
    def _assemble(self) -> None:
        spec, scenario = self.spec, self.scenario
        self.sim = Simulator()
        self.rng = RngRegistry(scenario.seed)

        self.discovery: Optional[GossipDiscovery] = None
        if spec.discovery.backend == "gossip":
            self.discovery = GossipDiscovery(
                self.sim,
                spec.discovery,
                seed=self.rng.derive_seed("p2p.gossip") % (2**32),
            )
            self.swarm = PeerSwarm(scenario.network, discovery=self.discovery)
        else:
            self.swarm = PeerSwarm(scenario.network)
        self.caches: Dict[str, ImageCache] = {}
        for dev in scenario.devices:
            cache = ImageCache(dev.cache_gb, dev.name)
            self.caches[dev.name] = cache
            self.swarm.add_device(dev.name, cache, region=dev.region)

        if spec.mode == "hub-only":
            chain = [scenario.hub]
        else:
            chain = [scenario.regional, scenario.hub]
        self.facade = P2PRegistry(
            self.swarm,
            chain,
            name=spec.mode,
            use_peers=(spec.mode == "hybrid+p2p"),
            chunks=spec.chunks,
            seed=scenario.seed,
        )
        self.engine: Optional[TransferEngine] = None
        if spec.transfer.time_resolved:
            self.engine = TransferEngine(
                self.sim,
                scenario.network,
                upload_budget=spec.transfer.upload_budget,
            )

        busy: Dict[str, int] = {}
        self._busy = busy
        self.churn_process: Optional[ChurnProcess] = None
        if spec.churn is not None:
            # The probe closes over the counts, not the session: a
            # session the churn process pointed back at would be a
            # cycle, and a dropped one would wait for the collector.
            self.churn_process = ChurnProcess(
                self.sim,
                self.swarm,
                self.rng.fork("p2p.churn"),
                config=spec.churn,
                engine=self.engine,
                is_busy=lambda device: busy.get(device, 0) > 0,
            )
        self.replicator: Optional[AdaptiveReplicator] = None
        if spec.mode == "hybrid+p2p":
            self.replicator = AdaptiveReplicator(
                self.sim,
                self.swarm,
                spec.replication,
                engine=self.engine,
                churn=(
                    self.churn_process
                    if spec.replication.churn_aware
                    else None
                ),
            )

        # -- telemetry (observation-only; defaults wire nothing) -------
        # An active capture turns every sink on, on top of the spec's
        # own section; the spec itself is never touched.
        telemetry = spec.telemetry
        capture = active_capture()
        period = telemetry.metrics_period_s
        if period is None and capture is not None:
            period = DEFAULT_METRICS_PERIOD_S
        label = capture.next_label() if capture is not None else ""
        self.trace: Optional[TraceRecorder] = None
        self.metrics: Optional[MetricsSampler] = None
        self.engine_profile: Optional[EngineProfile] = None
        if telemetry.trace or capture is not None:
            self.trace = TraceRecorder(label=label)
            if self.engine is not None:
                self.engine.trace = self.trace
            if self.discovery is not None:
                self.discovery.trace = self.trace
            if self.churn_process is not None:
                self.churn_process.trace = self.trace
            if self.replicator is not None:
                self.replicator.trace = self.trace
            if self.facade.chunks is not None:
                self.facade.chunks.trace = self.trace
        if period is not None:
            self.metrics = MetricsSampler(period, label=label)
        profile_on = telemetry.profile or capture is not None
        if profile_on and self.engine is not None:
            self.engine_profile = EngineProfile()
            self.engine.profile = self.engine_profile
        if capture is not None:
            capture.adopt(
                self.trace, self.metrics, self.engine_profile, label
            )

    # -- execution ------------------------------------------------------
    def run(self) -> ModeOutcome:
        """Execute the scenario's pull schedule; single-use.

        The schedule goes to :meth:`Simulator.process_at`, so a pull's
        process and generator exist only from its arrival on and the
        kernel holds one pending arrival, not one process per scheduled
        pull.  Events run in the order that spawning every pull up
        front, each first sleeping until its arrival, gives them, so
        every outcome is unchanged; only the kernel's event count
        drops, by one less than the number of scheduled pulls.

        Pulls still in flight at the horizon are closed in schedule
        order once every outcome counter is read: their transfers are
        cancelled and their reservations released before ``run()``
        returns, so the engine ends with nothing in flight.
        """
        if self._ran:
            raise RuntimeError(
                "a SimulationSession is single-use; build a new one to "
                "re-run the scenario"
            )
        self._ran = True
        t0 = perf_counter()
        spec, scenario = self.spec, self.scenario
        sim, engine, facade = self.sim, self.engine, self.facade
        caches, busy = self.caches, self._busy
        churn_process = self.churn_process
        if self.discovery is not None:
            self.discovery.start()
        if churn_process is not None:
            churn_process.start()

        metrics = self.metrics
        if metrics is not None:
            # The sampler loop is the session's only telemetry process.
            # It ticks on daemon timeouts (never extends a horizonless
            # run) and is scheduled *only* when sampling is on, so the
            # default event sequence is untouched.  Its ticks are
            # observer timeouts, so they never keep two co-started
            # transfers' handshakes apart (TransferEngine batches them).
            discovery, index = self.discovery, self.swarm.index

            def sample_now() -> None:
                metrics.sample(
                    sim.now,
                    engine=engine,
                    caches=caches,
                    discovery=discovery,
                    index=index,
                )

            def metrics_loop():
                sample_now()
                while True:
                    yield sim.timeout(
                        metrics.period_s, daemon=True, observer=True
                    )
                    sample_now()

            sim.process(metrics_loop())

        outcome = ModeOutcome(mode=spec.mode)

        def account(result) -> None:
            outcome.pulls += 1
            outcome.cache_hits += 1 if result.cache_hit else 0
            outcome.bytes_from_peers += result.bytes_from_peers
            outcome.stale_peer_misses += result.stale_peer_misses
            outcome.transfer_s += result.seconds
            outcome.bytes_wasted += result.bytes_wasted
            outcome.chunk_endgame_dupes += result.chunk_endgame_dupes
            outcome.makespan_s = max(outcome.makespan_s, sim.now)
            for registry, count in result.bytes_by_registry.items():
                outcome.bytes_by_registry[registry] = (
                    outcome.bytes_by_registry.get(registry, 0) + count
                )

        # Pulls that arrived and have not finished, by schedule index.
        in_flight: Dict[int, Generator] = {}

        def one_pull(i: int, at_s: float, device: str, ref: ImageReference):
            try:
                if churn_process is not None and not churn_process.is_online(
                    device
                ):
                    # The device churned out before its pull arrived; a
                    # real workload would reschedule elsewhere — here the
                    # skip is counted so byte totals are never silently
                    # short.
                    outcome.skipped_pulls += 1
                    return
                busy[device] = busy.get(device, 0) + 1
                try:
                    if engine is None:
                        result = facade.pull(
                            ref, Arch.AMD64, device, caches[device],
                            now_s=sim.now,
                        )
                        account(result)
                        if result.seconds > 0:
                            yield sim.timeout(result.seconds)
                        # account() ran at pull start (analytic admission
                        # is instant); the makespan must cover the
                        # modelled sleep.
                        outcome.makespan_s = max(outcome.makespan_s, sim.now)
                        outcome.longest_pull_s = max(
                            outcome.longest_pull_s, sim.now - at_s
                        )
                    else:
                        result = yield from facade.pull_process(
                            ref, Arch.AMD64, device, caches[device], engine
                        )
                        account(result)
                        outcome.longest_pull_s = max(
                            outcome.longest_pull_s, sim.now - at_s
                        )
                finally:
                    busy[device] -= 1
            finally:
                del in_flight[i]

        def start_pull(i: int):
            pull = in_flight[i] = one_pull(i, *schedule[i])
            return pull

        schedule = scenario.schedule
        sim.process_at([at_s for at_s, _device, _ref in schedule], start_pull)

        if self.replicator is not None:
            sim.process(self.replicator.process())
        sim.run(until=scenario.horizon_s)
        outcome.unfinished_pulls = (
            len(scenario.schedule) - outcome.pulls - outcome.skipped_pulls
        )
        if churn_process is not None:
            outcome.departures = churn_process.departures
            outcome.rejoins = churn_process.rejoins
        if engine is not None:
            outcome.engine_transfers_visited = engine.transfers_visited
        if self.discovery is not None:
            outcome.gossip_rounds = self.discovery.rounds
            outcome.gossip_records_sent = self.discovery.records_sent
            outcome.gossip_payloads_lost = self.discovery.payloads_lost
            # Replicator-side misses are metered on the backend, not on
            # any pull result; fold the total in so the outcome's
            # counter matches the swarm-wide one.
            outcome.stale_peer_misses = self.discovery.stale_misses
        if self.engine_profile is not None and spec.telemetry.profile:
            # Only the spec's own profile reaches the outcome: a
            # capture's goes to its profile.json, never to what the
            # run prints.
            outcome.engine_profile = self.engine_profile.summary()
        replicator = self.replicator
        if replicator is not None:
            outcome.bytes_replicated = replicator.bytes_replicated
            outcome.replicator = {
                "actions": replicator.total_actions(),
                "bytes_replicated": replicator.bytes_replicated,
                "converged": replicator.converged(),
            }
        # Every counter is read: abort the pulls the horizon cut off, in
        # schedule order, so their transfers are cancelled and their
        # reservations released inside the run, not whenever the
        # collector closes their generators.
        for pull in list(in_flight.values()):
            pull.close()
        outcome.wall_build_s = self._wall_build_s
        outcome.wall_run_s = perf_counter() - t0
        return outcome
