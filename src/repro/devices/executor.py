"""Device runtime: executes microservices on the simulated testbed.

A :class:`DeviceRuntime` bundles everything one edge device owns —
image cache, power trace, and an execution lock — and exposes
:meth:`run_microservice`, a DES process that walks the paper's three
phases (deploy → receive dataflow → process) while recording the power
segments the energy meters integrate.  Phase durations and energy come
from the model's cost equations (:mod:`repro.model.metrics`).

Microservices execute **non-concurrently per device** (the paper's
execution model, Sec. III-D): the execution lock serialises them, so
stage parallelism in the orchestrator happens across devices only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Tuple

from ..model.application import Microservice
from ..model.device import Device, Phase
from ..model.metrics import (
    EnergyBreakdown,
    PhaseTimes,
    compute_time_s,
    energy_breakdown,
    transmission_time_s,
)
from ..model.network import NetworkModel
from ..model.units import bytes_to_mb
from ..registry.base import ImageReference, Registry
from ..registry.cache import ImageCache
from ..registry.client import PullPolicy, PullResult, RegistryClient
from ..sim.engine import Simulator
from ..sim.resources import Resource
from .power import PowerTrace

#: (ms_name, device_name) -> compute intensity multiplier.  Calibration
#: fits these so simulated EC matches Table II per microservice.
IntensityFn = Callable[[str, str], float]


def unit_intensity(_service: str, _device: str) -> float:
    """Default intensity: every workload draws the calibrated baseline."""
    return 1.0


@dataclass(frozen=True)
class ExecutionRecord:
    """Everything measured about one microservice execution."""

    service: str
    device: str
    registry: str
    start_s: float
    times: PhaseTimes
    energy: EnergyBreakdown
    pull: PullResult
    intensity: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.times.completion_s

    @property
    def completion_s(self) -> float:
        return self.times.completion_s

    @property
    def energy_j(self) -> float:
        return self.energy.total_j

    @property
    def cache_hit(self) -> bool:
        return self.pull.cache_hit


class DeviceRuntime:
    """One device's runtime state inside a simulation."""

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        network: NetworkModel,
        pull_policy: PullPolicy = PullPolicy.WHOLE_IMAGE,
        intensity: IntensityFn = unit_intensity,
    ) -> None:
        self.sim = sim
        self.device = device
        self.network = network
        self.cache = ImageCache(device.spec.storage_gb, device.name)
        self.trace = PowerTrace(device)
        self.client = RegistryClient(pull_policy)
        self.intensity = intensity
        self._lock = Resource(sim, 1)
        self.records: List[ExecutionRecord] = []

    @property
    def name(self) -> str:
        return self.device.name

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def pull_seconds(self, registry_name: str, transferred_bytes: int) -> float:
        """Seconds to move ``transferred_bytes`` from the registry."""
        if transferred_bytes == 0:
            return 0.0
        return self.network.registry_channel(
            registry_name, self.name
        ).transfer_time_s(bytes_to_mb(transferred_bytes))

    # ------------------------------------------------------------------
    # the execution process
    # ------------------------------------------------------------------
    def run_microservice(
        self,
        service: Microservice,
        registry: Registry,
        reference: ImageReference,
        incoming: Iterable[Tuple[str, float]] = (),
    ):
        """DES process executing ``service`` on this device.

        Yields simulator events; its return value (via the process
        completion event) is the :class:`ExecutionRecord`.
        """
        grant = self._lock.request()
        yield grant
        try:
            start_s = self.sim.now

            # Phase 1 — deployment: pull what the cache doesn't hold.
            pull = self.client.pull(
                registry,
                reference,
                self.device.arch,
                self.cache,
                client_name=self.name,
                now_s=self.sim.now,
            )
            transferred = pull.bytes_transferred
            if self.client.policy is PullPolicy.WHOLE_IMAGE:
                # The whole-image model cannot see shared base layers;
                # the calibrated warm fraction approximates them
                # (layered mode dedups for real instead).
                transferred = int(transferred * (1.0 - service.warm_fraction))
            deploy_s = self.pull_seconds(registry.name, transferred)
            if deploy_s > 0:
                self.trace.record(
                    self.sim.now, deploy_s, Phase.PULL, label=service.name
                )
                yield self.sim.timeout(deploy_s)

            # Phase 2 — dataflow transmission (upstream + ingress).
            transfer_s = transmission_time_s(
                self.network, incoming, self.name, service.ingress_mb
            )
            if transfer_s > 0:
                self.trace.record(
                    self.sim.now, transfer_s, Phase.TRANSFER, label=service.name
                )
                yield self.sim.timeout(transfer_s)

            # Phase 3 — processing.
            scale = self.intensity(service.name, self.name)
            compute_s = compute_time_s(service, self.device)
            if compute_s > 0:
                self.trace.record(
                    self.sim.now,
                    compute_s,
                    Phase.COMPUTE,
                    utilization=scale,
                    label=service.name,
                )
                yield self.sim.timeout(compute_s)

            times = PhaseTimes(deploy_s, transfer_s, compute_s)
            energy = energy_breakdown(times, self.device, scale)
            record = ExecutionRecord(
                service=service.name,
                device=self.name,
                registry=registry.name,
                start_s=start_s,
                times=times,
                energy=energy,
                pull=pull,
                intensity=scale,
            )
            self.records.append(record)
            return record
        finally:
            self._lock.release()
