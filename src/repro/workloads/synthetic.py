"""Synthetic workload generation for the scaling ablations.

The paper evaluates two six-microservice DAGs on two devices; the
scaling benchmarks (A4) need bigger instances.  This module generates

* layered random DAGs (fork-join shaped, like the case studies),
* random device fleets spanning the medium/small spectrum, and
* environments wiring them to hub + regional registries,

all from named, seeded RNG streams so every benchmark run sees the
same instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.environment import Environment
from ..model.application import (
    Application,
    Dataflow,
    Microservice,
    ResourceRequirements,
)
from ..model.device import Arch, Device, DeviceFleet, DeviceSpec, PowerModel
from ..model.network import NetworkModel
from ..model.registry import RegistryCatalog, RegistryInfo, RegistryKind
from ..sim.rng import RngRegistry, default_registry


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the generator (defaults echo the case studies' scale)."""

    layers: int = 4
    width: int = 2
    image_size_gb: Tuple[float, float] = (0.1, 6.0)
    cpu_mi: Tuple[float, float] = (3e5, 4.5e6)
    dataflow_mb: Tuple[float, float] = (10.0, 2000.0)
    edge_density: float = 0.6

    def __post_init__(self) -> None:
        if self.layers < 1 or self.width < 1:
            raise ValueError("layers and width must be >= 1")
        if not 0.0 < self.edge_density <= 1.0:
            raise ValueError("edge_density must be in (0, 1]")


def synthetic_application(
    name: str = "synthetic",
    config: Optional[SyntheticConfig] = None,
    rng: Optional[RngRegistry] = None,
) -> Application:
    """A layered random DAG.

    Every non-first-layer node gets at least one parent in the previous
    layer (connectivity), plus extra edges drawn with
    ``edge_density`` — the fork-join texture of the paper's apps.
    """
    cfg = config or SyntheticConfig()
    registry = rng or default_registry()
    stream = registry.stream(f"synthetic:{name}")

    services: List[Microservice] = []
    layers: List[List[str]] = []
    for layer in range(cfg.layers):
        row: List[str] = []
        for slot in range(cfg.width):
            node = f"{name}-l{layer}s{slot}"
            size = float(stream.uniform(*cfg.image_size_gb))
            cpu = float(stream.uniform(*cfg.cpu_mi))
            services.append(
                Microservice(
                    name=node,
                    image=node,
                    size_gb=round(size, 3),
                    requirements=ResourceRequirements(
                        cores=int(stream.integers(1, 5)),
                        cpu_mi=cpu,
                        memory_gb=float(stream.uniform(0.5, 4.0)),
                        storage_gb=float(stream.uniform(0.1, 1.0)),
                    ),
                    ingress_mb=(
                        float(stream.uniform(*cfg.dataflow_mb))
                        if layer == 0
                        else 0.0
                    ),
                )
            )
            row.append(node)
        layers.append(row)

    flows: List[Dataflow] = []
    for layer in range(1, cfg.layers):
        for dst in layers[layer]:
            parents = [
                src
                for src in layers[layer - 1]
                if stream.random() < cfg.edge_density
            ]
            if not parents:  # guarantee connectivity
                parents = [
                    layers[layer - 1][int(stream.integers(len(layers[layer - 1])))]
                ]
            for src in parents:
                flows.append(
                    Dataflow(
                        src=src,
                        dst=dst,
                        size_mb=round(float(stream.uniform(*cfg.dataflow_mb)), 1),
                    )
                )
    return Application(name, services, flows)


def synthetic_fleet(
    n_devices: int,
    rng: Optional[RngRegistry] = None,
) -> DeviceFleet:
    """A heterogeneous fleet interpolating medium ↔ small."""
    if n_devices < 1:
        raise ValueError("need at least one device")
    registry = rng or default_registry()
    stream = registry.stream(f"fleet:{n_devices}")
    fleet = DeviceFleet()
    for index in range(n_devices):
        # Mix of beefy amd64 boxes and constrained arm64 boards.
        beefy = index % 2 == 0
        speed = float(stream.uniform(24_000, 40_000) if beefy else stream.uniform(6_000, 12_000))
        fleet.add(
            Device(
                spec=DeviceSpec(
                    name=f"dev{index}",
                    arch=Arch.AMD64 if beefy else Arch.ARM64,
                    cores=8 if beefy else 4,
                    speed_mips=speed,
                    memory_gb=16.0 if beefy else 8.0,
                    storage_gb=float(stream.uniform(32, 128)),
                ),
                power=PowerModel(
                    static_watts=float(stream.uniform(0.3, 3.0)),
                    compute_watts=float(stream.uniform(4.0, 30.0)),
                    pull_watts=float(stream.uniform(0.2, 2.0)),
                    transfer_watts=float(stream.uniform(0.1, 2.0)),
                ),
                region="edge",
            )
        )
    return fleet


def synthetic_environment(
    n_devices: int = 4,
    rng: Optional[RngRegistry] = None,
) -> Environment:
    """A model-level environment over a synthetic fleet.

    Uses the same two-registry structure (hub + regional) as the
    testbed so schedulers run unmodified on scaled instances: the hub
    at ~44 Mbit/s behind a 1.5 s startup, the regional registry at
    ~43.5 Mbit/s behind 0.3 s (each link drawn within ±10%), and a
    100 Mbit/s LAN mesh.
    """
    registry = rng or default_registry()
    fleet = synthetic_fleet(n_devices, registry)
    network = NetworkModel()
    names = fleet.names()
    stream = registry.stream(f"net:{n_devices}")
    for a in names:
        network.connect_registry(
            "docker-hub", a, 44.0 * float(stream.uniform(0.9, 1.1)),
            rtt_s=1.5,
        )
        network.connect_registry(
            "regional", a, 43.5 * float(stream.uniform(0.9, 1.1)),
            rtt_s=0.3,
        )
        network.connect_ingress(a, 200.0)
    network.connect_device_mesh(names, 100.0)
    catalog = RegistryCatalog.of(
        RegistryInfo("docker-hub", RegistryKind.HUB),
        RegistryInfo("regional", RegistryKind.REGIONAL),
    )
    return Environment(fleet=fleet, network=network, registries=catalog)
