"""The deployment environment a scheduler reasons over.

Bundles the model-level view of Sec. III — devices ``D``, registries
``R``, and the bandwidth matrix — together with image availability
(which registries host which image) and the calibrated per-workload
compute intensities.  Behavioural objects (live ``Registry`` instances,
device runtimes) live in the testbed/orchestrator layers; schedulers
only ever touch this model-level facade, which keeps them trivially
testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional

from ..devices.executor import IntensityFn, unit_intensity
from ..model.application import Microservice
from ..model.device import Device, DeviceFleet
from ..model.network import NetworkModel
from ..model.registry import RegistryCatalog


def _always_available(_registry: str, _image: str) -> bool:
    return True


@dataclass
class Environment:
    """Model-level deployment environment.

    Attributes
    ----------
    fleet:
        The devices ``D``.
    network:
        Device↔device, registry→device, and ingress channels.
    registries:
        The registries ``R`` (model-level descriptors).
    availability:
        ``(registry_name, image) → bool`` — whether the registry hosts
        the image.  Defaults to everything-everywhere.
    intensity:
        ``(service_name, device_name) → compute power multiplier``
        fitted by the calibration.
    """

    fleet: DeviceFleet
    network: NetworkModel
    registries: RegistryCatalog
    availability: Callable[[str, str], bool] = _always_available
    intensity: IntensityFn = unit_intensity

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------
    def feasible_devices(
        self,
        service: Microservice,
        free_storage_bytes: Optional[Mapping[str, int]] = None,
    ) -> List[str]:
        """Devices satisfying ``req(m_i)``.

        ``free_storage_bytes`` injects the *current* storage headroom
        per device (scheduler state); without it the check uses the
        empty-device capacity.
        """
        from ..model.units import gb_to_bytes

        feasible: List[str] = []
        need_image = gb_to_bytes(service.size_gb)
        need_scratch = gb_to_bytes(service.requirements.storage_gb)
        for device in self.fleet:
            spec = device.spec
            if spec.cores < service.requirements.cores:
                continue
            if spec.memory_gb < service.requirements.memory_gb:
                continue
            if free_storage_bytes is not None:
                headroom = free_storage_bytes.get(
                    device.name, gb_to_bytes(spec.storage_gb)
                )
            else:
                headroom = gb_to_bytes(spec.storage_gb)
            if headroom < need_image + need_scratch:
                continue
            feasible.append(device.name)
        return feasible

    def feasible_registries(self, service: Microservice, device: str) -> List[str]:
        """Registries hosting the image with a channel to ``device``."""
        return [
            reg.name
            for reg in self.registries
            if self.availability(reg.name, service.image)
            and self.network.find_registry_channel(reg.name, device) is not None
        ]

    def device(self, name: str) -> Device:
        return self.fleet[name]

    def registry_names(self) -> List[str]:
        return self.registries.names()

    def device_names(self) -> List[str]:
        return self.fleet.names()
