"""Simulated Docker Hub: a cloud registry fronted by CDN PoPs.

Docker Hub "leverages a network of cloud data centers and content
delivery networks to guarantee low latency and scalability"; its images
are "served geographically closer to end users" (paper, Sec. I).  The
simulation captures exactly the part the model consumes: the effective
registry→device bandwidth ``BW_gj`` depends on which point of presence
serves the device's region, and pulls are rate-limited per client the
way the real Hub meters anonymous pulls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..model.registry import RegistryInfo, RegistryKind
from ..model.units import require_positive
from .base import Registry, RegistryError


@dataclass(frozen=True)
class PointOfPresence:
    """A CDN edge serving one or more regions.

    Attributes
    ----------
    name:
        PoP identifier (e.g. ``"eu-central"``).
    regions:
        Region labels served by this PoP.
    bandwidth_mbps:
        Download bandwidth the PoP offers to clients in its regions.
    """

    name: str
    regions: tuple
    bandwidth_mbps: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("PoP name must be non-empty")
        if not self.regions:
            raise ValueError(f"PoP {self.name!r} must serve >= 1 region")
        require_positive(self.bandwidth_mbps, "bandwidth_mbps")


class RateLimitExceeded(RegistryError):
    """Raised when a client exhausts its pull allowance in a window."""


class PullRateLimiter:
    """Fixed-window pull metering per client identity.

    Docker Hub famously limits anonymous pulls (e.g. 100 per 6 h).  The
    simulator counts manifest resolutions per ``client`` name within a
    window of simulated seconds; the limit is generous by default so
    the paper's experiments never trip it, but ablations can tighten it.
    """

    def __init__(self, limit: int = 100, window_s: float = 21600.0) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        require_positive(window_s, "window_s")
        self.limit = limit
        self.window_s = window_s
        self._windows: Dict[str, tuple] = {}  # client -> (window_start, count)

    def record_pull(self, client: str, now_s: float) -> int:
        """Register one pull; returns pulls used in the current window."""
        start, count = self._windows.get(client, (now_s, 0))
        if now_s - start >= self.window_s:
            start, count = now_s, 0
        count += 1
        if count > self.limit:
            raise RateLimitExceeded(
                f"client {client!r} exceeded {self.limit} pulls / "
                f"{self.window_s} s"
            )
        self._windows[client] = (start, count)
        return count


class DockerHub(Registry):
    """The public cloud registry with CDN-based distribution.

    Parameters
    ----------
    name:
        Registry name used in plans and network channels.
    pops:
        CDN points of presence.  A device's region is served by the
        fastest PoP covering it; regions covered by no PoP fall back to
        ``origin_bandwidth_mbps`` (the central data centre).
    origin_bandwidth_mbps:
        Bandwidth of the origin servers (the slow path).
    rate_limiter:
        Optional pull metering (None disables).
    """

    def __init__(
        self,
        name: str = "docker-hub",
        pops: Optional[List[PointOfPresence]] = None,
        origin_bandwidth_mbps: float = 50.0,
        rate_limiter: Optional[PullRateLimiter] = None,
    ) -> None:
        info = RegistryInfo(
            name=name, kind=RegistryKind.HUB, endpoint="https://hub.docker.com"
        )
        super().__init__(info)
        self.pops: List[PointOfPresence] = list(pops or [])
        self.origin_bandwidth_mbps = require_positive(
            origin_bandwidth_mbps, "origin_bandwidth_mbps"
        )
        self.rate_limiter = rate_limiter

    def pop_for_region(self, region: str) -> Optional[PointOfPresence]:
        """Fastest PoP covering ``region``; None → origin fallback."""
        serving = [pop for pop in self.pops if region in pop.regions]
        if not serving:
            return None
        return max(serving, key=lambda pop: pop.bandwidth_mbps)

    def effective_bandwidth_mbps(self, region: str) -> float:
        """``BW_gj`` the Hub offers a client in ``region``."""
        pop = self.pop_for_region(region)
        return pop.bandwidth_mbps if pop is not None else self.origin_bandwidth_mbps

    def meter_pull(self, client: str, now_s: float) -> None:
        """Apply rate limiting for one pull (no-op when disabled)."""
        if self.rate_limiter is not None:
            self.rate_limiter.record_pull(client, now_s)
