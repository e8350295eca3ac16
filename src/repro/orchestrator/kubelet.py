"""Kubelet: the per-node agent that runs pods.

Wraps :meth:`~repro.devices.executor.DeviceRuntime.run_microservice`
with the pod lifecycle (pending → pulling → running → succeeded) and
monitoring events, mirroring what a kubelet does when it receives a
bound pod: resolve the image, pull if the policy requires, start the
container, report status.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..devices.executor import DeviceRuntime
from ..model.application import Microservice
from ..registry.base import Registry
from .monitoring import Monitor
from .objects import Pod, PodPhase


class Kubelet:
    """One node's pod runner."""

    def __init__(self, runtime: DeviceRuntime, monitor: Monitor) -> None:
        self.runtime = runtime
        self.monitor = monitor

    @property
    def node_name(self) -> str:
        return self.runtime.name

    def run_pod(
        self,
        pod: Pod,
        service: Microservice,
        registry: Registry,
        incoming: Iterable[Tuple[str, float]] = (),
    ):
        """DES process executing ``pod``; returns the ExecutionRecord.

        The pull reuses the device cache (Kubernetes' ``IfNotPresent``),
        the behaviour the paper's deployment-time model assumes.

        A pod whose pull or run raises (a missing manifest, a
        rate-limited hub, a full cache) is marked ``FAILED`` and logged
        as ``pod-failed`` before the error propagates.
        """
        sim = self.runtime.sim
        if pod.node != self.node_name:
            pod.transition(sim.now, PodPhase.FAILED, "wrong node")
            raise ValueError(
                f"pod {pod.name!r} bound to {pod.node!r}, kubelet on "
                f"{self.node_name!r}"
            )
        self.monitor.log(sim.now, "pod-bound", pod.name, f"node={self.node_name}")
        pod.transition(sim.now, PodPhase.PULLING)
        self.monitor.log(
            sim.now, "pull-start", pod.name, f"{pod.image} from {pod.registry}"
        )
        try:
            record = yield from self.runtime.run_microservice(
                service, registry, pod.image, incoming
            )
        except Exception as exc:
            pod.transition(sim.now, PodPhase.FAILED, str(exc))
            self.monitor.log(sim.now, "pod-failed", pod.name, str(exc))
            raise

        # The runtime finished all three phases; replay the lifecycle
        # timestamps into the pod record.
        pull_end = record.start_s + record.times.deploy_s
        pod.transition(pull_end, PodPhase.RUNNING)
        self.monitor.log(
            pull_end,
            "pull-done",
            pod.name,
            f"{record.pull.bytes_transferred} B "
            f"({'hit' if record.cache_hit else 'miss'})",
        )
        pod.transition(record.end_s, PodPhase.SUCCEEDED)
        self.monitor.log(
            record.end_s,
            "pod-succeeded",
            pod.name,
            f"ct={record.completion_s:.1f}s ec={record.energy_j:.1f}J",
        )
        return record
