"""Stochastic swarm churn: seeded departure / re-join processes.

The transfer engine can already *react* to churn (a departing seeder's
uploads are cancelled, customers re-resolve), but arrival and departure
themselves were scripted by tests.  This module makes churn a process:
every swarm member alternates exponentially-distributed online and
offline periods, departing via
:meth:`~repro.registry.p2p.PeerSwarm.remove_device` and re-joining via
:meth:`~repro.registry.p2p.PeerSwarm.add_device` **with the cache it
left with** — the re-join-with-stale-cache case that makes gossip
views interesting (the returner's layers may have been evicted
elsewhere, and everyone else's view of the returner is one incarnation
behind).

Draws come from per-device named streams of a
:class:`~repro.sim.rng.RngRegistry`, so a device's churn timeline is a
pure function of ``(seed, device name)`` — adding devices or reordering
process start-up never perturbs anyone else's timeline.

Departure policy
----------------
A device departs only when it is *idle* (no in-flight pull, per the
caller's ``is_busy`` probe) and at least ``min_online`` members would
remain.  A blocked departure is skipped — the device redraws its next
departure time and stays online.  Real fleets drain before shutdown;
modelling mid-pull vanishing is the transfer engine's cancellation
path, already exercised by :meth:`PeerSwarm.remove_device` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..model.units import require_positive
from .rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..registry.p2p import PeerSwarm
    from ..sim.engine import Simulator
    from ..sim.transfers import TransferEngine


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change performed by the churn process."""

    time_s: float
    kind: str  # "depart" | "rejoin"
    device: str


@dataclass(frozen=True)
class ChurnSpec:
    """Knobs of one churn regime (a scenario spec's ``churn`` section).

    ``mean_uptime_s`` / ``mean_downtime_s`` parameterise the
    exponential holding times; ``min_online`` floors the online member
    count so the swarm never churns itself empty.
    """

    mean_uptime_s: float = 600.0
    mean_downtime_s: float = 120.0
    min_online: int = 2

    def __post_init__(self) -> None:
        require_positive(self.mean_uptime_s, "mean_uptime_s")
        require_positive(self.mean_downtime_s, "mean_downtime_s")
        if self.min_online < 1:
            raise ValueError(f"min_online must be >= 1, got {self.min_online}")


class ChurnProcess:
    """Drives stochastic membership of one :class:`PeerSwarm`.

    Parameters
    ----------
    sim / swarm:
        The simulation clock and the swarm whose membership churns.
    rng:
        Root registry; each device draws from its own
        ``churn.<device>`` stream.
    config:
        The churn regime (holding times, online floor).
    engine:
        When given, a departure cancels the device's in-flight uploads
        (the :meth:`PeerSwarm.remove_device` hook).
    is_busy:
        Optional probe; a device reporting busy postpones departure.
    """

    def __init__(
        self,
        sim: "Simulator",
        swarm: "PeerSwarm",
        rng: RngRegistry,
        config: ChurnSpec = ChurnSpec(),
        engine: Optional["TransferEngine"] = None,
        is_busy: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.sim = sim
        self.swarm = swarm
        self.rng = rng
        self.config = config
        self.engine = engine
        self.is_busy = is_busy
        self.events: List[ChurnEvent] = []
        self.departures = 0
        self.rejoins = 0
        self.blocked_departures = 0
        self._offline: Dict[str, tuple] = {}  # device -> (cache, region)
        self._started = False
        # Observed session statistics: completed online-session lengths
        # (set at depart) and offline-gap lengths (set at rejoin) per
        # device.  These are what churn-aware replication targets
        # consume — *measured* behaviour, not the configured means.
        self._online_since: Dict[str, float] = {}
        self._offline_since: Dict[str, float] = {}
        self._session_lengths: Dict[str, List[float]] = {}
        self._downtime_lengths: Dict[str, List[float]] = {}
        #: Optional telemetry trace sink (duck-typed, None = off):
        #: receives ``churn.depart`` / ``churn.rejoin`` records.
        self.trace = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one churn process per *current* swarm member."""
        if self._started:
            raise RuntimeError("churn process already started")
        self._started = True
        for device in sorted(self.swarm.devices()):
            self._online_since[device] = self.sim.now
            self.sim.process(self._device_loop(device))

    def _device_loop(self, device: str):
        stream = self.rng.stream(f"churn.{device}")
        up = self.config.mean_uptime_s
        down = self.config.mean_downtime_s
        # Daemon wake-ups: churn ticks forever but must not keep a
        # horizonless sim.run() from terminating.
        while True:
            yield self.sim.timeout(float(stream.exponential(up)), daemon=True)
            if not self._can_depart(device):
                self.blocked_departures += 1
                continue  # stay online; redraw the next departure time
            self._depart(device)
            yield self.sim.timeout(
                float(stream.exponential(down)), daemon=True
            )
            self._rejoin(device)

    # ------------------------------------------------------------------
    # membership changes
    # ------------------------------------------------------------------
    def _can_depart(self, device: str) -> bool:
        if device in self._offline:  # pragma: no cover - defensive
            return False
        if len(self.swarm.devices()) <= self.config.min_online:
            return False
        if self.is_busy is not None and self.is_busy(device):
            return False
        return True

    def _depart(self, device: str) -> None:
        cache = self.swarm.index.cache_of(device)
        region = self.swarm.region_of(device)
        self.swarm.remove_device(device, engine=self.engine)
        self._offline[device] = (cache, region)
        online_since = self._online_since.pop(device, None)
        if online_since is not None:
            self._session_lengths.setdefault(device, []).append(
                self.sim.now - online_since
            )
        self._offline_since[device] = self.sim.now
        self.departures += 1
        self.events.append(ChurnEvent(self.sim.now, "depart", device))
        if self.trace is not None:
            self.trace.record(self.sim.now, "churn.depart", device)

    def _rejoin(self, device: str) -> None:
        cache, region = self._offline.pop(device)
        # The cache comes back exactly as it left — a *stale* replica
        # set from the swarm's perspective (gossip bumps the device's
        # incarnation so its fresh announcements outrank old rumours).
        self.swarm.add_device(device, cache, region=region)
        offline_since = self._offline_since.pop(device, None)
        if offline_since is not None:
            self._downtime_lengths.setdefault(device, []).append(
                self.sim.now - offline_since
            )
        self._online_since[device] = self.sim.now
        self.rejoins += 1
        self.events.append(ChurnEvent(self.sim.now, "rejoin", device))
        if self.trace is not None:
            self.trace.record(self.sim.now, "churn.rejoin", device)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_online(self, device: str) -> bool:
        return device not in self._offline

    def offline_devices(self) -> List[str]:
        return sorted(self._offline)

    # ------------------------------------------------------------------
    # observed session statistics (consumed by churn-aware replication)
    # ------------------------------------------------------------------
    def session_lengths(self, device: str) -> List[float]:
        """Completed online-session lengths observed for ``device``."""
        return list(self._session_lengths.get(device, ()))

    def mean_session_s(self, device: str) -> Optional[float]:
        """Mean *completed* online session (None before any departure).

        The current, still-open session deliberately does not count —
        it would bias short-session devices upward right after a
        re-join.
        """
        lengths = self._session_lengths.get(device)
        if not lengths:
            return None
        return sum(lengths) / len(lengths)

    def mean_downtime_s(self, device: str) -> Optional[float]:
        lengths = self._downtime_lengths.get(device)
        if not lengths:
            return None
        return sum(lengths) / len(lengths)

    def availability(self, device: str) -> float:
        """Observed long-run online fraction of ``device`` in (0, 1].

        ``mean_session / (mean_session + mean_downtime)`` over the
        sessions actually observed.  A device that never departed (or
        has not yet completed a session) counts as fully available —
        churn weighting only discounts *demonstrated* flakiness, so a
        churn-free run is bit-for-bit unaffected.  A device with
        completed sessions but no completed downtime yet uses the
        configured mean downtime as the best available estimate.
        """
        session = self.mean_session_s(device)
        if session is None:
            return 1.0
        downtime = self.mean_downtime_s(device)
        if downtime is None:
            downtime = self.config.mean_downtime_s
        total = session + downtime
        if total <= 0:
            return 1.0
        return max(min(session / total, 1.0), 1e-6)
