"""Cloud–edge extension (the paper's stated future work).

The conclusion of the paper: *"We plan to extend this energy-aware
nash-based model to schedule the computation between cloud and edge."*
This module builds that extension on the existing machinery — no
scheduler changes are needed, because DEEP's game already ranges over
arbitrary device fleets:

* a **cloud VM** joins the fleet: much faster than the edge devices,
  but with a high static draw (the attributed share of a datacenter
  server) and far from the data;
* the cloud sits **next to Docker Hub** (same backbone: image pulls
  are near-free) but behind a thin WAN link for dataflows to/from the
  edge, so shipping data to the compute competes against shipping the
  image to the data — exactly the tension the cloud–edge literature
  studies;
* the regional registry remains edge-local and does not serve the
  cloud VM (pulling from an edge registry into the cloud would
  traverse the same WAN).

:func:`cloud_environment` wires this as a drop-in
:class:`~repro.core.environment.Environment`, and
:func:`cloud_offload_report` quantifies when DEEP starts offloading.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..core.environment import Environment
from ..core.scheduler import DeepScheduler
from ..model.application import Application
from ..model.device import Arch, Device, DeviceFleet, DeviceSpec, PowerModel
from ..model.network import NetworkModel
from .testbed import HUB_NAME, REGIONAL_NAME, Testbed

CLOUD_NAME = "cloud"
CLOUD_REGION = "cloud-dc"


@dataclass(frozen=True)
class CloudConfig:
    """Knobs of the cloud tier.

    Defaults model a mid-size VM: ~4× the medium edge box's speed, a
    datacenter-attributed static draw an order of magnitude above the
    edge devices', gigabit proximity to Docker Hub, and a thin WAN to
    the edge site.
    """

    speed_mips: float = 144_000.0
    cores: int = 16
    memory_gb: float = 64.0
    storage_gb: float = 500.0
    static_watts: float = 20.0
    compute_watts: float = 60.0
    pull_watts: float = 4.0
    transfer_watts: float = 4.0
    #: Hub → cloud bandwidth (same backbone).
    hub_bw_mbps: float = 1000.0
    hub_startup_s: float = 0.2
    #: WAN between the edge site and the cloud (dataflows).
    wan_bw_mbps: float = 25.0
    #: Cloud ingress (data sources reachable from the DC).
    ingress_bw_mbps: float = 400.0


def cloud_device(config: Optional[CloudConfig] = None) -> Device:
    """The cloud VM as a :class:`Device`."""
    cfg = config or CloudConfig()
    return Device(
        spec=DeviceSpec(
            name=CLOUD_NAME,
            arch=Arch.AMD64,
            cores=cfg.cores,
            speed_mips=cfg.speed_mips,
            memory_gb=cfg.memory_gb,
            storage_gb=cfg.storage_gb,
        ),
        power=PowerModel(
            static_watts=cfg.static_watts,
            compute_watts=cfg.compute_watts,
            pull_watts=cfg.pull_watts,
            transfer_watts=cfg.transfer_watts,
        ),
        region=CLOUD_REGION,
    )


def cloud_environment(
    testbed: Testbed,
    config: Optional[CloudConfig] = None,
) -> Environment:
    """The testbed's environment extended with the cloud tier.

    Returns a *new* environment; the testbed is not mutated.  The
    cloud VM reaches Docker Hub only (the regional registry is
    edge-local), and reaches both edge devices over the WAN.
    """
    cfg = config or CloudConfig()
    cal = testbed.calibration

    fleet = DeviceFleet()
    for device in testbed.fleet:
        fleet.add(device)
    fleet.add(cloud_device(cfg))

    # Rebuild the network: edge channels as in the testbed, plus the
    # cloud's hub/WAN/ingress links.
    network = NetworkModel()
    for device in testbed.fleet:
        network.connect_registry(
            HUB_NAME,
            device.name,
            cal.config.hub_bw_mbps[device.name],
            rtt_s=cal.config.hub_startup_s,
        )
        network.connect_registry(
            REGIONAL_NAME,
            device.name,
            cal.config.regional_bw_mbps[device.name],
            rtt_s=cal.config.regional_startup_s,
        )
        network.connect_ingress(device.name, cal.config.ingress_bw_mbps[device.name])
        network.connect_devices(device.name, CLOUD_NAME, cfg.wan_bw_mbps)
    network.connect_devices("medium", "small", cal.config.device_bw_mbps)
    network.connect_registry(
        HUB_NAME, CLOUD_NAME, cfg.hub_bw_mbps, rtt_s=cfg.hub_startup_s
    )
    network.connect_ingress(CLOUD_NAME, cfg.ingress_bw_mbps)

    def intensity(service: str, device: str) -> float:
        if device == CLOUD_NAME:
            # Cloud workloads run at the calibrated medium-device
            # intensity (same ISA, same software stack).
            return cal.intensity(service, "medium")
        return cal.intensity(service, device)

    return Environment(
        fleet=fleet,
        network=network,
        registries=testbed.catalog,
        availability=testbed.env.availability,
        intensity=intensity,
    )


@dataclass
class OffloadPoint:
    """DEEP's behaviour at one cloud static-power setting."""

    cloud_static_watts: float
    cloud_share: float
    total_energy_j: float
    edge_only_energy_j: float

    @property
    def offloads(self) -> bool:
        return self.cloud_share > 0.0


def cloud_offload_report(
    testbed: Testbed,
    app: Application,
    static_watts_grid: Optional[List[float]] = None,
) -> List[OffloadPoint]:
    """Sweep the cloud's attributed static power and watch DEEP decide.

    With a cheap (lightly attributed) cloud, DEEP offloads the
    compute-heavy training stages; as the attributed static share
    rises, the cloud loses its energy case and DEEP pulls work back to
    the edge — the crossover the paper's future work asks about.
    """
    grid = static_watts_grid or [2.0, 5.0, 10.0, 20.0, 40.0]
    edge_only = DeepScheduler().schedule(app, testbed.env).total_energy_j
    points: List[OffloadPoint] = []
    for static in grid:
        env = cloud_environment(
            testbed, replace(CloudConfig(), static_watts=static)
        )
        result = DeepScheduler().schedule(app, env)
        cloud_services = sum(
            1 for a in result.plan if a.device == CLOUD_NAME
        )
        points.append(
            OffloadPoint(
                cloud_static_watts=static,
                cloud_share=cloud_services / len(result.plan),
                total_energy_j=result.total_energy_j,
                edge_only_energy_j=edge_only,
            )
        )
    return points
