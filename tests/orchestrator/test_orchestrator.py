"""Orchestrator: pods, kubelets, cluster, controller rollouts."""

import pytest

from repro.core.scheduler import DeepScheduler
from repro.experiments.runner import make_cluster
from repro.orchestrator import (
    ApplicationController,
    Cluster,
    ClusterError,
    ExecutionMode,
    ImagePullPolicy,
    Monitor,
    Pod,
    PodPhase,
)
from repro.registry.base import ImageReference
from repro.registry.client import PullPolicy


@pytest.fixture
def plan(video_app, env):
    return DeepScheduler().schedule(video_app, env).plan


class TestPod:
    def _pod(self):
        return Pod(
            name="p", service="s", image=ImageReference("acme/app"),
            registry="hub", node="medium",
        )

    def test_lifecycle(self):
        pod = self._pod()
        pod.transition(0.0, PodPhase.PULLING)
        pod.transition(1.0, PodPhase.RUNNING)
        pod.transition(2.0, PodPhase.SUCCEEDED)
        assert pod.terminal

    def test_illegal_transition_rejected(self):
        pod = self._pod()
        with pytest.raises(ValueError):
            pod.transition(0.0, PodPhase.RUNNING)  # must pull first

    def test_terminal_is_final(self):
        pod = self._pod()
        pod.transition(0.0, PodPhase.FAILED, "boom")
        assert pod.failure_reason == "boom"
        with pytest.raises(ValueError):
            pod.transition(1.0, PodPhase.PULLING)

    def test_phase_at(self):
        pod = self._pod()
        pod.transition(1.0, PodPhase.PULLING)
        pod.transition(5.0, PodPhase.RUNNING)
        assert pod.phase_at(0.5) is PodPhase.PENDING
        assert pod.phase_at(3.0) is PodPhase.PULLING
        assert pod.phase_at(6.0) is PodPhase.RUNNING


class TestMonitor:
    def test_events_ordered(self):
        monitor = Monitor()
        monitor.log(0.0, "a", "x")
        monitor.log(1.0, "b", "y")
        with pytest.raises(ValueError):
            monitor.log(0.5, "c", "z")

    def test_counters_and_gauges(self):
        monitor = Monitor()
        monitor.count("pulls")
        monitor.count("pulls", 2.0)
        monitor.gauge("load", 0.5)
        assert monitor.counter("pulls") == 3.0
        assert monitor.gauges() == {"load": 0.5}

    def test_events_of_and_render(self):
        monitor = Monitor()
        monitor.log(0.0, "pull-start", "pod-a", "detail")
        monitor.log(1.0, "pod-succeeded", "pod-a")
        assert len(monitor.events_of("pull-start")) == 1
        assert "pull-start" in monitor.render()

    def test_events_of_preserves_log_order(self):
        # The per-kind index must return exactly the filtered view of
        # the append-ordered log — same events, same order.
        monitor = Monitor()
        for step in range(50):
            kind = ("pull-start", "pull-done", "pod-succeeded")[step % 3]
            monitor.log(float(step), kind, f"pod-{step % 7}", str(step))
        for kind in ("pull-start", "pull-done", "pod-succeeded"):
            assert monitor.events_of(kind) == [
                event for event in monitor.events if event.kind == kind
            ]
        assert monitor.events_of("never-logged") == []


class TestCluster:
    def test_duplicate_node_rejected(self, testbed):
        cluster = Cluster()
        device = testbed.devices()[0]
        cluster.register_node(device, testbed.network)
        with pytest.raises(ClusterError):
            cluster.register_node(device, testbed.network)

    def test_unknown_lookups(self):
        cluster = Cluster()
        with pytest.raises(ClusterError):
            cluster.node("ghost")
        with pytest.raises(ClusterError):
            cluster.registry("ghost")

    def test_make_cluster_wires_testbed(self, testbed):
        cluster = make_cluster(testbed)
        assert set(cluster.node_names()) == {"medium", "small"}
        assert {r.name for r in cluster.registries()} == {
            "docker-hub", "regional",
        }


class TestControllerSequential:
    def test_rollout_completes(self, testbed, video_app, plan):
        cluster = make_cluster(testbed)
        report = ApplicationController(cluster).execute(
            video_app, plan, testbed.references
        )
        assert len(report.records) == 6
        assert all(p.phase is PodPhase.SUCCEEDED for p in report.pods)

    def test_execution_order_is_topological(self, testbed, video_app, plan):
        cluster = make_cluster(testbed)
        report = ApplicationController(cluster).execute(
            video_app, plan, testbed.references
        )
        order = [r.service for r in report.records]
        assert order == video_app.topological_order()

    def test_sequential_never_overlaps(self, testbed, video_app, plan):
        cluster = make_cluster(testbed)
        report = ApplicationController(cluster).execute(
            video_app, plan, testbed.references
        )
        for earlier, later in zip(report.records, report.records[1:]):
            assert later.start_s >= earlier.end_s - 1e-9

    def test_ledger_matches_records(self, testbed, video_app, plan):
        cluster = make_cluster(testbed)
        report = ApplicationController(cluster).execute(
            video_app, plan, testbed.references
        )
        assert report.total_energy_j == pytest.approx(
            sum(r.energy_j for r in report.records)
        )

    def test_meters_reconcile(self, testbed, video_app, plan):
        cluster = make_cluster(testbed)
        report = ApplicationController(cluster).execute(
            video_app, plan, testbed.references
        )
        for reading in report.readings:
            assert reading.reconciliation.within(0.01)

    def test_monitor_saw_all_pods(self, testbed, video_app, plan):
        cluster = make_cluster(testbed)
        controller = ApplicationController(cluster)
        report = controller.execute(video_app, plan, testbed.references)
        assert report.monitor.counter("pods_succeeded") == 6
        assert len(report.monitor.events_of("pull-done")) == 6

    def test_plan_must_cover_app(self, testbed, video_app):
        from repro.core.placement import PlacementError, PlacementPlan

        cluster = make_cluster(testbed)
        incomplete = PlacementPlan(video_app.name)
        with pytest.raises(PlacementError):
            ApplicationController(cluster).execute(
                video_app, incomplete, testbed.references
            )


class TestControllerStageParallel:
    def test_stage_parallel_is_faster(self, testbed, video_app, plan):
        seq = ApplicationController(make_cluster(testbed)).execute(
            video_app, plan, testbed.references, mode=ExecutionMode.SEQUENTIAL
        )
        par = ApplicationController(make_cluster(testbed)).execute(
            video_app, plan, testbed.references,
            mode=ExecutionMode.STAGE_PARALLEL,
        )
        assert par.makespan_s <= seq.makespan_s + 1e-9

    def test_stage_parallel_same_energy(self, testbed, video_app, plan):
        """Energy is mode-independent: same work, same phases."""
        seq = ApplicationController(make_cluster(testbed)).execute(
            video_app, plan, testbed.references, mode=ExecutionMode.SEQUENTIAL
        )
        par = ApplicationController(make_cluster(testbed)).execute(
            video_app, plan, testbed.references,
            mode=ExecutionMode.STAGE_PARALLEL,
        )
        assert par.total_energy_j == pytest.approx(seq.total_energy_j)

    def test_barriers_respected(self, testbed, video_app, plan):
        report = ApplicationController(make_cluster(testbed)).execute(
            video_app, plan, testbed.references,
            mode=ExecutionMode.STAGE_PARALLEL,
        )
        stages = video_app.stages()
        end_of = {r.service: r.end_s for r in report.records}
        start_of = {r.service: r.start_s for r in report.records}
        for earlier, later in zip(stages, stages[1:]):
            barrier = max(end_of[s] for s in earlier)
            for svc in later:
                assert start_of[svc] >= barrier - 1e-9


class TestPullPolicies:
    def test_warm_second_rollout(self, testbed, video_app, plan):
        cluster = make_cluster(testbed)
        controller = ApplicationController(cluster)
        cold = controller.execute(video_app, plan, testbed.references)
        warm = controller.execute(video_app, plan, testbed.references)
        assert all(r.cache_hit for r in warm.records)
        assert warm.total_energy_j < cold.total_energy_j

    def test_always_pull_policy_forces_repull(self, testbed, video_app, plan):
        cluster = make_cluster(testbed)
        controller = ApplicationController(cluster)
        controller.execute(video_app, plan, testbed.references)
        again = controller.execute(
            video_app, plan, testbed.references,
            pull_policy=ImagePullPolicy.ALWAYS,
        )
        assert not any(r.cache_hit for r in again.records)

    def test_layered_cluster_pulls_fewer_bytes(self, testbed, video_app, plan):
        whole = ApplicationController(
            make_cluster(testbed, PullPolicy.WHOLE_IMAGE)
        ).execute(video_app, plan, testbed.references)
        layered = ApplicationController(
            make_cluster(testbed, PullPolicy.LAYERED)
        ).execute(video_app, plan, testbed.references)
        whole_bytes = sum(r.pull.bytes_transferred for r in whole.records)
        layered_bytes = sum(r.pull.bytes_transferred for r in layered.records)
        assert layered_bytes < whole_bytes


class TestPullByteCounters:
    """The monitor meters each rollout's pulled bytes per registry."""

    def test_two_tier_rollout_attributes_bytes_to_registries(
        self, testbed, video_app, plan
    ):
        cluster = make_cluster(testbed)
        controller = ApplicationController(cluster)
        report = controller.execute(video_app, plan, testbed.references)
        counters = report.monitor.counters()
        assert counters["bytes_pulled"] == sum(
            r.pull.bytes_transferred for r in report.records
        )
        by_source = {
            name[len("bytes_from."):]: value
            for name, value in counters.items()
            if name.startswith("bytes_from.")
        }
        assert sum(by_source.values()) == counters["bytes_pulled"]
        assert all(cluster.registry(name) for name in by_source)
