"""Kubernetes-stand-in orchestration: cluster, kubelets, pod lifecycle,
stage-barrier rollout, and execution monitoring."""

from .cluster import Cluster, ClusterError
from .controller import (
    ApplicationController,
    DeviceEnergyReading,
    ExecutionMode,
    ExecutionReport,
)
from .kubelet import Kubelet
from .monitoring import Event, Monitor
from .objects import Pod, PodPhase

__all__ = [
    "ApplicationController",
    "Cluster",
    "ClusterError",
    "DeviceEnergyReading",
    "Event",
    "ExecutionMode",
    "ExecutionReport",
    "Kubelet",
    "Monitor",
    "Pod",
    "PodPhase",
]
