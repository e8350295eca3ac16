"""Failure injection: the stack fails loudly and atomically.

A production scheduler/orchestrator is defined as much by its failure
behaviour as by its happy path.  These tests inject the realistic
failures — missing images, exhausted storage, rate-limited hubs,
infeasible requirements — and assert precise, non-corrupting failure
modes.
"""

import pytest

from repro.core.environment import Environment
from repro.core.placement import PlacementError, PlacementPlan
from repro.core.scheduler import DeepScheduler
from repro.experiments.runner import make_cluster
from repro.model.application import (
    Application,
    Microservice,
    ResourceRequirements,
)
from repro.orchestrator import ApplicationController, ImagePullPolicy, PodPhase
from repro.registry.base import ImageReference
from repro.registry.cache import CacheFull, ImageCache
from repro.registry.hub import PullRateLimiter, RateLimitExceeded
from repro.registry.repository import ManifestNotFound


class TestSchedulingFailures:
    def test_unsatisfiable_cores_fail_fast(self, testbed):
        monster = Application(
            "monster",
            [
                Microservice(
                    name="m", image="vp-frame", size_gb=0.7,
                    requirements=ResourceRequirements(cores=64),
                )
            ],
        )
        with pytest.raises(PlacementError, match="no feasible"):
            DeepScheduler().schedule(monster, testbed.env)

    def test_image_hosted_nowhere(self, testbed, video_app):
        dark = Environment(
            fleet=testbed.env.fleet,
            network=testbed.env.network,
            registries=testbed.env.registries,
            availability=lambda reg, img: img != "vp-ha-train",
            intensity=testbed.env.intensity,
        )
        with pytest.raises(PlacementError, match="vp-ha-train"):
            DeepScheduler().schedule(video_app, dark)

    def test_oversized_image_fails(self, testbed):
        whale = Application(
            "whale",
            [Microservice(name="w", image="vp-frame", size_gb=500.0)],
        )
        with pytest.raises(PlacementError):
            DeepScheduler().schedule(whale, testbed.env)


class TestRolloutFailures:
    def test_missing_image_fails_pod_and_raises(self, testbed, video_app):
        plan = DeepScheduler().schedule(video_app, testbed.env).plan
        # Corrupt the reference table: point one image at a ghost repo.
        broken = dict(testbed.references)
        key = ("docker-hub", "vp-frame")
        if plan.registry_of("vp-frame") == "regional":
            key = ("regional", "vp-frame")
        broken[key] = ImageReference("ghost/nowhere")
        # ALWAYS resolves the image before pulling it; the pod must fail
        # at that step too, not stay PULLING.
        for policy in (ImagePullPolicy.IF_NOT_PRESENT, ImagePullPolicy.ALWAYS):
            controller = ApplicationController(make_cluster(testbed))
            with pytest.raises((ManifestNotFound, RuntimeError)):
                controller.execute(video_app, plan, broken, pull_policy=policy)
            failed = [p for p in controller_failed_pods(controller)]
            assert any(p.service == "vp-frame" for p in failed), policy

    def test_rate_limited_hub_mid_rollout(self, testbed, video_app):
        plan = DeepScheduler().schedule(video_app, testbed.env).plan
        hub_pulls = sum(1 for a in plan if a.registry == "docker-hub")
        assert hub_pulls >= 2
        cluster = make_cluster(testbed)
        controller = ApplicationController(cluster)
        limiter = PullRateLimiter(limit=1, window_s=1e9)
        testbed.hub.rate_limiter = limiter
        try:
            with pytest.raises(RateLimitExceeded):
                controller.execute(video_app, plan, testbed.references)
        finally:
            testbed.hub.rate_limiter = None  # restore shared fixture
        # The throttled pod fails visibly instead of staying PULLING.
        assert len(controller.monitor.events_of("pod-failed")) == 1
        assert controller.monitor.counter("pods_failed") == 1


class TestCacheFailures:
    def test_image_larger_than_device_storage(self, testbed):
        cache = ImageCache(0.001, "micro")  # 1 MB
        manifest = testbed.hub.resolve(
            testbed.reference("docker-hub", "vp-ha-train"),
            testbed.fleet["medium"].arch,
        )
        with pytest.raises(CacheFull):
            cache.admit_image(manifest)

    def test_cache_full_leaves_cache_consistent(self, testbed):
        cache = ImageCache(0.001, "micro")
        manifest = testbed.hub.resolve(
            testbed.reference("docker-hub", "vp-ha-train"),
            testbed.fleet["medium"].arch,
        )
        with pytest.raises(CacheFull):
            cache.admit_image(manifest)
        assert cache.used_bytes == 0  # nothing partially admitted


def controller_failed_pods(controller):
    """Pods that reached FAILED across the controller's monitor log."""
    # The controller stores pods on reports; on a crashed rollout we
    # inspect the monitor's pod-failed events and rebuild the minimum.
    failed_names = {
        e.subject for e in controller.monitor.events_of("pod-failed")
    }

    class _P:
        def __init__(self, name):
            self.name = name
            self.service = name.split("-", 2)[-1]

    return [_P(name) for name in failed_names]
