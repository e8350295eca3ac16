"""Formal models of DEEP (paper Sec. III): application, device, network,
registry, and the cost equations."""

from .application import (
    Application,
    CycleError,
    Dataflow,
    Microservice,
    ResourceRequirements,
)
from .device import Arch, Device, DeviceFleet, DeviceSpec, Phase, PowerModel
from .metrics import (
    CostRecord,
    EnergyBreakdown,
    PhaseTimes,
    compute_time_s,
    deployment_time_s,
    energy_breakdown,
    phase_times,
    transmission_time_s,
)
from .network import INGRESS, Channel, NetworkModel
from .registry import RegistryCatalog, RegistryInfo, RegistryKind

__all__ = [
    "Application",
    "Arch",
    "Channel",
    "CostRecord",
    "CycleError",
    "Dataflow",
    "Device",
    "DeviceFleet",
    "DeviceSpec",
    "EnergyBreakdown",
    "INGRESS",
    "Microservice",
    "NetworkModel",
    "Phase",
    "PhaseTimes",
    "PowerModel",
    "RegistryCatalog",
    "RegistryInfo",
    "RegistryKind",
    "ResourceRequirements",
    "compute_time_s",
    "deployment_time_s",
    "energy_breakdown",
    "phase_times",
    "transmission_time_s",
]
