"""Cluster state: nodes (device runtimes) and registries, by name.

The cluster is the orchestrator's registry of *where things can run*
and *where images come from* — the two lookups the kubelet needs.  One
cluster owns one simulator; all device runtimes share its clock.
"""

from __future__ import annotations

from typing import Dict, List

from ..devices.executor import DeviceRuntime, IntensityFn, unit_intensity
from ..model.device import Device
from ..model.network import NetworkModel
from ..registry.base import Registry
from ..registry.client import PullPolicy
from ..sim.engine import Simulator


class ClusterError(RuntimeError):
    """Cluster-level misconfiguration."""


class Cluster:
    """Nodes + registries sharing one simulation clock."""

    def __init__(
        self,
        pull_policy: PullPolicy = PullPolicy.WHOLE_IMAGE,
        intensity: IntensityFn = unit_intensity,
    ) -> None:
        self.sim = Simulator()
        self.pull_policy = pull_policy
        self.intensity = intensity
        self._nodes: Dict[str, DeviceRuntime] = {}
        self._registries: Dict[str, Registry] = {}

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def register_node(self, device: Device, network: NetworkModel) -> DeviceRuntime:
        """Join a device to the cluster (kubelet registration)."""
        if device.name in self._nodes:
            raise ClusterError(f"node {device.name!r} already registered")
        runtime = DeviceRuntime(
            sim=self.sim,
            device=device,
            network=network,
            pull_policy=self.pull_policy,
            intensity=self.intensity,
        )
        self._nodes[device.name] = runtime
        return runtime

    def node(self, name: str) -> DeviceRuntime:
        try:
            return self._nodes[name]
        except KeyError:
            raise ClusterError(f"unknown node {name!r}") from None

    def nodes(self) -> List[DeviceRuntime]:
        return list(self._nodes.values())

    # ------------------------------------------------------------------
    # registries
    # ------------------------------------------------------------------
    def register_registry(self, registry: Registry) -> None:
        if registry.name in self._registries:
            raise ClusterError(f"registry {registry.name!r} already registered")
        self._registries[registry.name] = registry

    def registry(self, name: str) -> Registry:
        try:
            return self._registries[name]
        except KeyError:
            raise ClusterError(f"unknown registry {name!r}") from None
