"""The paper's cost equations (Sec. III-D).

Completion time of microservice ``m_i`` pulled from registry ``r_g``
and scheduled on device ``d_j``::

    CT(m_i, r_g, d_j) = Size_mi / BW_gj        (deployment,   Td)
                      + Size_ui / BW_kj        (transmission, Tc)
                      + CPU(m_i) / CPU_j       (processing,   Tp)

Energy::

    EC(m_i, r_g, d_j) = Ea(m_i, r_g, d_j) + Es(d_j)

where ``Ea`` integrates the per-phase *active* power over the phase
durations and ``Es`` integrates the static power over ``CT``.  The
total ``EC_total(A, R, D)`` sums ``EC`` over the schedule.

These functions are pure: they read the models and return numbers.
State (image caches, device occupancy) is injected by the caller via
the ``cached`` flag and the incoming flows, which keeps the equations
testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .application import Microservice
from .device import Device, Phase
from .network import NetworkModel
from .units import processing_time_s


@dataclass(frozen=True)
class PhaseTimes:
    """Durations of the three phases of one microservice execution."""

    deploy_s: float
    transfer_s: float
    compute_s: float

    @property
    def completion_s(self) -> float:
        """``CT = Td + Tc + Tp``."""
        return self.deploy_s + self.transfer_s + self.compute_s

    def __add__(self, other: "PhaseTimes") -> "PhaseTimes":
        return PhaseTimes(
            self.deploy_s + other.deploy_s,
            self.transfer_s + other.transfer_s,
            self.compute_s + other.compute_s,
        )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Active (per phase) and static energy of one execution, in joules."""

    pull_j: float
    transfer_j: float
    compute_j: float
    static_j: float

    @property
    def active_j(self) -> float:
        """``Ea`` — energy above the static baseline."""
        return self.pull_j + self.transfer_j + self.compute_j

    @property
    def total_j(self) -> float:
        """``EC = Ea + Es``."""
        return self.active_j + self.static_j

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.pull_j + other.pull_j,
            self.transfer_j + other.transfer_j,
            self.compute_j + other.compute_j,
            self.static_j + other.static_j,
        )


ZERO_ENERGY = EnergyBreakdown(0.0, 0.0, 0.0, 0.0)
ZERO_TIMES = PhaseTimes(0.0, 0.0, 0.0)


def deployment_time_s(
    network: NetworkModel,
    registry: str,
    device: str,
    size_gb: float,
    cached: bool = False,
) -> float:
    """``Td``: image download time; zero when the image is already local.

    The paper defines deployment time only for images *"not already
    existing on a device"*; ``cached=True`` models the already-present
    case.
    """
    if cached or size_gb == 0:
        return 0.0
    return network.deployment_time_s(registry, device, size_gb)


def transmission_time_s(
    network: NetworkModel,
    incoming: Iterable[Tuple[str, float]],
    device: str,
    ingress_mb: float = 0.0,
) -> float:
    """``Tc``: sum of upstream dataflow transfer times into ``device``.

    Parameters
    ----------
    incoming:
        Pairs ``(src_device, size_mb)`` — one per in-flow, with the
        device its upstage producer ran on.  Co-located flows cost 0.
    device:
        The device hosting the downstage microservice.
    ingress_mb:
        External input payload (camera stream, S3 dataset) entering
        over the ingress channel.
    """
    total = sum(network.dataflow_time_s(src, device, mb) for src, mb in incoming)
    if ingress_mb > 0:
        total += network.ingress_time_s(device, ingress_mb)
    return total


def compute_time_s(service: Microservice, device: Device) -> float:
    """``Tp = CPU(m_i) / CPU_j``."""
    return processing_time_s(service.requirements.cpu_mi, device.spec.speed_mips)


def phase_times(
    service: Microservice,
    device: Device,
    network: NetworkModel,
    registry: str,
    incoming: Iterable[Tuple[str, float]] = (),
    cached: bool = False,
) -> PhaseTimes:
    """All three phase durations for one (m, r, d) choice."""
    return PhaseTimes(
        deploy_s=deployment_time_s(
            network, registry, device.name, service.cold_pull_gb, cached
        ),
        transfer_s=transmission_time_s(
            network, incoming, device.name, service.ingress_mb
        ),
        compute_s=compute_time_s(service, device),
    )


def energy_breakdown(
    times: PhaseTimes,
    device: Device,
    compute_utilization: float = 1.0,
) -> EnergyBreakdown:
    """Integrate the device power model over the phase durations."""
    power = device.power
    return EnergyBreakdown(
        pull_j=power.active_watts(Phase.PULL) * times.deploy_s,
        transfer_j=power.active_watts(Phase.TRANSFER) * times.transfer_s,
        compute_j=power.active_watts(Phase.COMPUTE, compute_utilization)
        * times.compute_s,
        static_j=power.static_watts * times.completion_s,
    )


@dataclass(frozen=True)
class CostRecord:
    """Full cost of executing one microservice under one (r, d) choice."""

    service: str
    registry: str
    device: str
    times: PhaseTimes
    energy: EnergyBreakdown
