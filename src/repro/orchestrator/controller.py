"""Application controller: rolls out a placement plan on the cluster.

Two execution modes:

* **SEQUENTIAL** — microservices execute one at a time in topological
  order: the paper's benchmark mode ("non-concurrently", Sec. III-D),
  under which per-microservice energies sum exactly to ``EC_total``;
* **STAGE_PARALLEL** — microservices within a DAG stage run
  concurrently across devices, with a barrier between stages (the two
  synchronisation barriers of Sec. IV-B); per-device execution remains
  serialised by the device lock.

After the rollout the controller reads both energy meters — the RAPL
stand-in on amd64 nodes, the wall-plug sampler on arm64 — and
pairs them with the analytic ledger, reproducing the paper's
measurement methodology end to end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from ..core.placement import PlacementPlan
from ..devices.executor import ExecutionRecord
from ..energy.accounting import EnergyLedger
from ..energy.powermeter import PowerMeter
from ..energy.rapl import RaplMeter
from ..model.application import Application
from ..model.device import Arch
from .cluster import Cluster
from .kubelet import Kubelet
from .monitoring import Monitor
from .objects import Pod


class ExecutionMode(enum.Enum):
    SEQUENTIAL = "sequential"
    STAGE_PARALLEL = "stage-parallel"


@dataclass
class DeviceEnergyReading:
    """One device's meter reading vs the analytic prediction."""

    device: str
    meter: str
    measured_j: float
    analytic_j: float


@dataclass
class ExecutionReport:
    """Everything produced by one application rollout."""

    application: str
    mode: ExecutionMode
    plan: PlacementPlan
    records: List[ExecutionRecord]
    pods: List[Pod]
    ledger: EnergyLedger
    makespan_s: float
    readings: List[DeviceEnergyReading]
    monitor: Monitor

    @property
    def total_energy_j(self) -> float:
        return self.ledger.total_j()

    def record_of(self, service: str) -> ExecutionRecord:
        for record in self.records:
            if record.service == service:
                return record
        raise KeyError(service)


class ApplicationController:
    """Executes placement plans against a cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.monitor = Monitor()
        self._kubelets: Dict[str, Kubelet] = {
            runtime.name: Kubelet(runtime, self.monitor)
            for runtime in cluster.nodes()
        }

    def _kubelet(self, node: str) -> Kubelet:
        if node not in self._kubelets:  # node registered after init
            self._kubelets[node] = Kubelet(self.cluster.node(node), self.monitor)
        return self._kubelets[node]

    def _make_pod(
        self,
        app: Application,
        plan: PlacementPlan,
        service: str,
        references,
    ) -> Pod:
        assignment = plan.assignments[service]
        image = references[(assignment.registry, app.service(service).image)]
        return Pod(
            name=f"{app.name}-{service}",
            service=service,
            image=image,
            registry=assignment.registry,
            node=assignment.device,
        )

    def execute(
        self,
        app: Application,
        plan: PlacementPlan,
        references,
        mode: ExecutionMode = ExecutionMode.SEQUENTIAL,
    ) -> ExecutionReport:
        """Roll out ``plan`` and run the application to completion.

        ``references`` maps ``(registry_name, image)`` to the pull
        reference (the testbed provides this, mirroring Table I).
        """
        plan.validate_against(app)
        sim = self.cluster.sim
        start_s = sim.now
        records: List[ExecutionRecord] = []
        pods: List[Pod] = []

        def run_one(service: str):
            pod = self._make_pod(app, plan, service, references)
            pods.append(pod)
            kubelet = self._kubelet(pod.node)
            incoming = [
                (plan.device_of(flow.src), flow.size_mb)
                for flow in app.in_flows(service)
            ]
            registry = self.cluster.registry(pod.registry)
            record = yield from kubelet.run_pod(
                pod, app.service(service), registry, incoming
            )
            records.append(record)
            return record

        if mode is ExecutionMode.SEQUENTIAL:
            def driver():
                for service in app.topological_order():
                    yield from run_one(service)
            done = sim.process(driver())
        else:
            def driver():
                for index, stage in enumerate(app.stages()):
                    self.monitor.log(
                        sim.now, "stage-start", app.name, f"stage={index}"
                    )
                    barrier = sim.all_of(
                        [sim.process(run_one(s)) for s in stage]
                    )
                    yield barrier
                    self.monitor.log(
                        sim.now, "stage-barrier", app.name, f"stage={index}"
                    )
            done = sim.process(driver())

        sim.run()
        if not done.triggered or not done.ok:
            raise RuntimeError(
                f"rollout of {app.name!r} did not complete cleanly"
            )

        ledger = EnergyLedger()
        ledger.extend(records)

        # Read the meters the way the paper does: pyRAPL on Intel,
        # wall-plug sampling on ARM, one window per microservice
        # execution (their shell scripts time each service), summed per
        # device.  Per-service windows also keep RAPL deltas well below
        # the 32-bit counter wrap.
        readings: List[DeviceEnergyReading] = []
        analytic_by_device = ledger.by_device()
        measured_by_device: Dict[str, float] = {}
        for record in records:
            runtime = self.cluster.node(record.device)
            if runtime.device.arch is Arch.AMD64:
                rapl = RaplMeter(runtime.trace)
                measured = rapl.measure_window(
                    record.start_s, record.end_s, record.service
                ).energy_j
            else:
                meter = PowerMeter(runtime.trace, sample_hz=1.0)
                measured = meter.measure(record.start_s, record.end_s).energy_j
            measured_by_device[record.device] = (
                measured_by_device.get(record.device, 0.0) + measured
            )
        for runtime in self.cluster.nodes():
            meter_name = (
                "rapl" if runtime.device.arch is Arch.AMD64 else "power-meter"
            )
            readings.append(
                DeviceEnergyReading(
                    device=runtime.name,
                    meter=meter_name,
                    measured_j=measured_by_device.get(runtime.name, 0.0),
                    analytic_j=analytic_by_device.get(runtime.name, 0.0),
                )
            )

        return ExecutionReport(
            application=app.name,
            mode=mode,
            plan=plan,
            records=records,
            pods=pods,
            ledger=ledger,
            makespan_s=sim.now - start_s,
            readings=readings,
            monitor=self.monitor,
        )
