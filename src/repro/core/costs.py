"""Cost tables: the ``CT`` / ``EC`` tensors a scheduler optimises over.

For one microservice and the current scheduler state,
:meth:`CostTable.matrix` evaluates the paper's equations for every
(registry, device) pair and returns aligned numpy arrays — energy,
completion time, and a feasibility mask — ready to become a game's
payoff matrices.  The evaluation is cache-aware: images already pulled
onto a device cost zero deployment time there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..model.application import Application, Microservice
from ..model.metrics import CostRecord, energy_breakdown, phase_times
from ..model.units import gb_to_bytes
from .environment import Environment


@dataclass
class SchedulerState:
    """Mutable state threaded through a topological scheduling sweep.

    Tracks, per device: which images are resident (whole-image
    granularity — the paper's model), how many storage bytes they
    occupy, and accumulated busy seconds; per registry: bytes served.
    These feed the cache-aware ``Td`` and the congestion penalties.
    """

    cached_images: Dict[str, Set[str]] = field(default_factory=dict)
    storage_used_bytes: Dict[str, int] = field(default_factory=dict)
    busy_s: Dict[str, float] = field(default_factory=dict)
    registry_bytes: Dict[str, int] = field(default_factory=dict)
    upstream_devices: Dict[str, str] = field(default_factory=dict)

    def is_cached(self, device: str, image: str) -> bool:
        return image in self.cached_images.get(device, set())

    def commit(
        self,
        service: Microservice,
        registry: str,
        device: str,
        completion_s: float,
    ) -> None:
        """Record the consequences of one assignment."""
        images = self.cached_images.setdefault(device, set())
        if service.image not in images:
            images.add(service.image)
            size = gb_to_bytes(service.size_gb)
            self.storage_used_bytes[device] = (
                self.storage_used_bytes.get(device, 0) + size
            )
            self.registry_bytes[registry] = (
                self.registry_bytes.get(registry, 0) + size
            )
        self.busy_s[device] = self.busy_s.get(device, 0.0) + completion_s
        self.upstream_devices[service.name] = device

    def free_storage_bytes(self, env: Environment) -> Dict[str, int]:
        """Per-device remaining storage given committed images."""
        out: Dict[str, int] = {}
        for dev in env.fleet:
            capacity = gb_to_bytes(dev.spec.storage_gb)
            out[dev.name] = capacity - self.storage_used_bytes.get(dev.name, 0)
        return out


@dataclass(frozen=True)
class CostMatrix:
    """Aligned cost arrays for one microservice.

    ``energy_j[g, d]`` and ``completion_s[g, d]`` are indexed by the
    ``registries`` / ``devices`` label lists; infeasible cells hold
    ``+inf`` and are False in ``feasible``.
    """

    service: str
    registries: List[str]
    devices: List[str]
    energy_j: np.ndarray
    completion_s: np.ndarray
    feasible: np.ndarray

    def any_feasible(self) -> bool:
        return bool(self.feasible.any())

    def best_cell(self) -> Tuple[int, int]:
        """Indices of the feasible minimum-energy cell."""
        if not self.any_feasible():
            raise ValueError(f"no feasible cell for {self.service!r}")
        masked = np.where(self.feasible, self.energy_j, np.inf)
        return np.unravel_index(int(np.argmin(masked)), masked.shape)  # type: ignore[return-value]


class CostTable:
    """Evaluates the paper's cost equations against scheduler state."""

    def __init__(self, app: Application, env: Environment) -> None:
        self.app = app
        self.env = env

    def record(
        self,
        name: str,
        registry: str,
        device_name: str,
        state: Optional[SchedulerState] = None,
    ) -> CostRecord:
        """Full :class:`CostRecord` for one concrete (m, r, d) choice."""
        state = state or SchedulerState()
        service = self.app.service(name)
        device = self.env.device(device_name)
        incoming = [
            (state.upstream_devices[flow.src], flow.size_mb)
            for flow in self.app.in_flows(name)
            if flow.src in state.upstream_devices
        ]
        cached = state.is_cached(device_name, service.image)
        times = phase_times(
            service, device, self.env.network, registry, incoming, cached
        )
        scale = self.env.intensity(name, device_name)
        energy = energy_breakdown(times, device, scale)
        return CostRecord(
            service=name,
            registry=registry,
            device=device_name,
            times=times,
            energy=energy,
        )

    def matrix(
        self,
        name: str,
        state: Optional[SchedulerState] = None,
    ) -> CostMatrix:
        """Energy/CT over every (registry, device) pair for ``name``."""
        state = state or SchedulerState()
        service = self.app.service(name)
        registries = self.env.registry_names()
        devices = self.env.device_names()
        feasible_devices = set(
            self.env.feasible_devices(service, state.free_storage_bytes(self.env))
        )
        # An image already on a device stays feasible there even if the
        # *free* storage no longer fits it (it is not re-downloaded).
        for dev in devices:
            if state.is_cached(dev, service.image):
                spec = self.env.device(dev).spec
                if (
                    spec.cores >= service.requirements.cores
                    and spec.memory_gb >= service.requirements.memory_gb
                ):
                    feasible_devices.add(dev)

        shape = (len(registries), len(devices))
        energy = np.full(shape, np.inf)
        completion = np.full(shape, np.inf)
        feasible = np.zeros(shape, dtype=bool)
        for d, dev in enumerate(devices):
            if dev not in feasible_devices:
                continue
            allowed = set(self.env.feasible_registries(service, dev))
            for g, reg in enumerate(registries):
                if reg not in allowed:
                    continue
                rec = self.record(name, reg, dev, state)
                energy[g, d] = rec.energy.total_j
                completion[g, d] = rec.times.completion_s
                feasible[g, d] = True
        return CostMatrix(
            service=name,
            registries=registries,
            devices=devices,
            energy_j=energy,
            completion_s=completion,
            feasible=feasible,
        )
