"""The simulated testbed: devices, network, and both registries, wired.

Reproduces the paper's experimental set-up (Sec. IV):

* the two devices (medium Intel, small ARM) with calibrated power,
* Docker Hub with a CDN PoP per device region (wired vs wireless edge),
* the MinIO-backed regional registry holding mirrored copies of every
  image under the ``aau/`` namespace (Table I),
* bandwidth channels matching the calibration constants, including the
  per-pull startup overheads as channel RTTs, and
* the model-level :class:`~repro.core.environment.Environment` that
  schedulers consume plus the live registries the orchestrator pulls
  from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.environment import Environment
from ..model.device import Device, DeviceFleet
from ..model.network import NetworkModel
from ..model.registry import RegistryCatalog, RegistryInfo, RegistryKind
from ..registry.base import ImageReference, Registry, mirror_image
from ..registry.hub import DockerHub, PointOfPresence
from ..registry.images import OFFICIAL_BASES, BaseImage, build_image
from ..registry.minio import MinioStore
from ..registry.regional import RegionalRegistry
from ..devices.specs import medium_device, small_device
from .calibration import Calibration, calibrate
from .table2 import (
    ALL_ROWS,
    hub_repository,
    logical_image,
    regional_repository,
)

HUB_NAME = "docker-hub"
REGIONAL_NAME = "regional"

#: Device regions: the medium box sits on the wired edge segment, the
#: Pi on the wireless one — the hub's CDN serves them differently.
MEDIUM_REGION = "edge-wired"
SMALL_REGION = "edge-wireless"

#: Base image per microservice role: ML stages build on the fat
#: ``python:3.9``, plumbing stages on the slim one (Sec. IV-C's bases).
_ML_ROLES = ("ha-train", "la-train", "ha-infer", "la-infer", "ha-score", "la-score")


def _base_for(service: str) -> BaseImage:
    if service in _ML_ROLES:
        return OFFICIAL_BASES["python:3.9"]
    return OFFICIAL_BASES["python:3.9-slim"]


@dataclass
class Testbed:
    """Everything the experiments need, fully wired."""

    calibration: Calibration
    fleet: DeviceFleet
    network: NetworkModel
    catalog: RegistryCatalog
    hub: DockerHub
    regional: RegionalRegistry
    env: Environment
    #: (registry name, logical image) → pull reference.
    references: Dict[Tuple[str, str], ImageReference]

    def registries(self) -> List[Registry]:
        return [self.hub, self.regional]

    def devices(self) -> List[Device]:
        return list(self.fleet)


def build_testbed(cal: Optional[Calibration] = None) -> Testbed:
    """Construct the full simulated testbed from a calibration."""
    cal = cal or calibrate()
    cfg = cal.config

    # Devices with calibrated power models.
    medium = medium_device(cal.power["medium"], region=MEDIUM_REGION)
    small = small_device(cal.power["small"], region=SMALL_REGION)
    fleet = DeviceFleet.of(medium, small)

    # Docker Hub: one CDN PoP per edge segment, bandwidths from the
    # calibration constants.
    hub = DockerHub(
        name=HUB_NAME,
        pops=[
            PointOfPresence(
                "pop-wired", (MEDIUM_REGION,), cfg.hub_bw_mbps["medium"]
            ),
            PointOfPresence(
                "pop-wireless", (SMALL_REGION,), cfg.hub_bw_mbps["small"]
            ),
        ],
        origin_bandwidth_mbps=min(cfg.hub_bw_mbps.values()) * 0.5,
    )

    # Regional registry on a MinIO store (the paper's 100 GB example).
    regional = RegionalRegistry(
        name=REGIONAL_NAME, store=MinioStore(capacity_gb=100.0)
    )

    # Publish every Table I image to the hub, then mirror regionally.
    references: Dict[Tuple[str, str], ImageReference] = {}
    for row in ALL_ROWS:
        image = logical_image(row.application, row.service)
        hub_repo = hub_repository(row.application, row.service)
        regional_repo = regional_repository(row.application, row.service)
        mlist, blobs = build_image(
            hub_repo, row.size_gb, base=_base_for(row.service)
        )
        hub.push_image(hub_repo, "latest", mlist, blobs)
        mirror_image(hub, regional, hub_repo, "latest", regional_repo)
        references[(HUB_NAME, image)] = ImageReference(hub_repo)
        references[(REGIONAL_NAME, image)] = ImageReference(regional_repo)

    # Network: registry→device channels carry the per-pull startup
    # overhead as RTT; devices share a LAN; ingress feeds both devices.
    network = NetworkModel()
    for device in fleet:
        network.connect_registry(
            HUB_NAME,
            device.name,
            hub.effective_bandwidth_mbps(device.region),
            rtt_s=cfg.hub_startup_s,
        )
        network.connect_registry(
            REGIONAL_NAME,
            device.name,
            cfg.regional_bw_mbps[device.name],
            rtt_s=cfg.regional_startup_s,
        )
        network.connect_ingress(device.name, cfg.ingress_bw_mbps[device.name])
    network.connect_devices(medium.name, small.name, cfg.device_bw_mbps)

    catalog = RegistryCatalog.of(
        RegistryInfo(HUB_NAME, RegistryKind.HUB, "https://hub.docker.com"),
        RegistryInfo(
            REGIONAL_NAME,
            RegistryKind.REGIONAL,
            "https://dcloud2.itec.aau.at:9001",
        ),
    )

    def availability(registry: str, image: str) -> bool:
        return (registry, image) in references

    env = Environment(
        fleet=fleet,
        network=network,
        registries=catalog,
        availability=availability,
        intensity=cal.intensity,
    )
    return Testbed(
        calibration=cal,
        fleet=fleet,
        network=network,
        catalog=catalog,
        hub=hub,
        regional=regional,
        env=env,
        references=references,
    )
