"""Device model of Sec. III-B: heterogeneous capacity-constrained devices.

A device ``d_j = (CORE_j, CPU_j, MEM_j, STOR_j)`` carries a
:class:`PowerModel` so that the energy equations of Sec. III-D
(``EC = Ea + Es``) can be evaluated: static power is drawn whenever the
device is on; additional active power is drawn while pulling an image
over the network or while computing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Optional

from .units import require_non_negative, require_positive


class Arch(enum.Enum):
    """Instruction-set architecture of a device / image platform.

    The paper tags every image with ``amd64`` (x86/AMD, the Intel
    "medium" device) or ``arm64`` (the Raspberry Pi "small" device).
    """

    AMD64 = "amd64"
    ARM64 = "arm64"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Phase(enum.Enum):
    """Execution phases of a microservice on a device.

    Each phase maps to a distinct power draw in :class:`PowerModel`:

    * ``IDLE``     — device on, nothing assigned (static power only);
    * ``PULL``     — downloading the container image from a registry;
    * ``TRANSFER`` — receiving/sending dataflow payloads;
    * ``COMPUTE``  — processing the dataflow (CPU-bound).
    """

    IDLE = "idle"
    PULL = "pull"
    TRANSFER = "transfer"
    COMPUTE = "compute"


@dataclass(frozen=True)
class PowerModel:
    """Two-term power model: static draw + per-phase active draw.

    ``power(phase) = static_watts + active[phase]`` where ``active`` is
    zero for :attr:`Phase.IDLE`.  This is the minimal model that
    supports the paper's decomposition ``EC = Ea + Es``: integrating
    ``static_watts`` over a window yields ``Es`` and integrating the
    phase-dependent surplus yields ``Ea``.

    Attributes
    ----------
    static_watts:
        Baseline draw of the powered-on device (``Es`` rate).
    compute_watts:
        Additional draw while computing at full allocated utilisation.
    pull_watts:
        Additional draw while pulling an image (NIC + storage writes).
    transfer_watts:
        Additional draw while moving dataflow payloads.
    """

    static_watts: float
    compute_watts: float
    pull_watts: float = 0.0
    transfer_watts: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(self.static_watts, "static_watts")
        require_non_negative(self.compute_watts, "compute_watts")
        require_non_negative(self.pull_watts, "pull_watts")
        require_non_negative(self.transfer_watts, "transfer_watts")

    def active_watts(self, phase: Phase, utilization: float = 1.0) -> float:
        """Active (above-static) draw for ``phase``.

        ``utilization`` scales the compute term only.  Values in
        ``[0, 1]`` model partial core allocation; values above 1 model
        workload *intensity* (e.g. AVX-heavy training draws more than
        the calibration baseline) — the per-microservice factors fitted
        by :mod:`repro.workloads.calibration` use this.
        """
        if utilization < 0:
            raise ValueError(f"utilization must be >= 0, got {utilization}")
        if phase is Phase.IDLE:
            return 0.0
        if phase is Phase.PULL:
            return self.pull_watts
        if phase is Phase.TRANSFER:
            return self.transfer_watts
        return self.compute_watts * utilization

    def total_watts(self, phase: Phase, utilization: float = 1.0) -> float:
        """Total draw (static + active) for ``phase``."""
        return self.static_watts + self.active_watts(phase, utilization)


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware description ``d_j = (CORE_j, CPU_j, MEM_j, STOR_j)``.

    Attributes
    ----------
    name:
        Unique device name (e.g. ``"medium"``, ``"small"``).
    arch:
        ISA of the device; images must provide a matching platform.
    cores:
        Number of CPU cores ``CORE_j``.
    speed_mips:
        Aggregate single-service processing speed ``CPU_j`` in MI/s.
    memory_gb:
        Memory capacity ``MEM_j``.
    storage_gb:
        Storage capacity ``STOR_j`` (holds images and scratch data).
    """

    name: str
    arch: Arch
    cores: int
    speed_mips: float
    memory_gb: float
    storage_gb: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device name must be non-empty")
        if self.cores < 1:
            raise ValueError(f"device {self.name!r}: cores must be >= 1")
        require_positive(self.speed_mips, "speed_mips")
        require_positive(self.memory_gb, "memory_gb")
        require_positive(self.storage_gb, "storage_gb")


@dataclass(frozen=True)
class Device:
    """A physical edge device: spec + power model + placement metadata.

    Attributes
    ----------
    spec:
        Hardware description.
    power:
        Power model used by the energy meters.
    region:
        Network region label, used by the CDN model of the simulated
        Docker Hub to select a point of presence.
    """

    spec: DeviceSpec
    power: PowerModel
    region: str = "edge"

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def arch(self) -> Arch:
        return self.spec.arch

    def with_power(self, power: PowerModel) -> "Device":
        """Return a copy with a different power model (calibration)."""
        return replace(self, power=power)

    def can_host(self, cores: int, memory_gb: float, storage_gb: float) -> bool:
        """Static feasibility: does the *empty* device satisfy the triple?

        Dynamic occupancy (images already stored, co-located services)
        is tracked by ``repro.devices.storage`` / the schedulers.
        """
        return (
            self.spec.cores >= cores
            and self.spec.memory_gb >= memory_gb
            and self.spec.storage_gb >= storage_gb
        )


class DeviceFleet:
    """An ordered, name-indexed collection of devices (the set ``D``)."""

    def __init__(self, devices: Optional[Dict[str, Device]] = None) -> None:
        self._devices: Dict[str, Device] = {}
        if devices:
            for dev in devices.values():
                self.add(dev)

    @classmethod
    def of(cls, *devices: Device) -> "DeviceFleet":
        """Build a fleet from positional devices."""
        fleet = cls()
        for dev in devices:
            fleet.add(dev)
        return fleet

    def add(self, device: Device) -> None:
        if device.name in self._devices:
            raise ValueError(f"duplicate device {device.name!r}")
        self._devices[device.name] = device

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self):
        return iter(self._devices.values())

    def __contains__(self, name: object) -> bool:
        return name in self._devices

    def __getitem__(self, name: str) -> Device:
        return self._devices[name]

    def names(self) -> list:
        """Device names in insertion order."""
        return list(self._devices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceFleet({', '.join(self._devices)})"
