"""Cloud–edge extension (the paper's future work)."""

from repro.core.scheduler import DeepScheduler
from repro.experiments import cloud as cloud_experiment
from repro.workloads.apps import text_processing, video_processing
from repro.workloads.cloud import (
    CLOUD_NAME,
    CloudConfig,
    cloud_device,
    cloud_environment,
    cloud_offload_report,
)
from repro.workloads.testbed import HUB_NAME, REGIONAL_NAME


class TestCloudEnvironment:
    def test_fleet_extended_not_mutated(self, testbed):
        env = cloud_environment(testbed)
        assert env.fleet.names() == ["medium", "small", CLOUD_NAME]
        assert testbed.fleet.names() == ["medium", "small"]  # untouched

    def test_cloud_reaches_hub_only(self, testbed):
        env = cloud_environment(testbed)
        assert env.network.has_registry_channel(HUB_NAME, CLOUD_NAME)
        assert not env.network.has_registry_channel(REGIONAL_NAME, CLOUD_NAME)

    def test_wan_channels_wired(self, testbed):
        env = cloud_environment(testbed, CloudConfig(wan_bw_mbps=30.0))
        for device in ("medium", "small"):
            channel = env.network.device_channel(device, CLOUD_NAME)
            assert channel.bandwidth_mbps == 30.0

    def test_cloud_intensity_mirrors_medium(self, testbed):
        env = cloud_environment(testbed)
        assert env.intensity("vp-ha-train", CLOUD_NAME) == testbed.env.intensity(
            "vp-ha-train", "medium"
        )

    def test_cloud_device_spec(self):
        device = cloud_device(CloudConfig(speed_mips=100_000.0))
        assert device.name == CLOUD_NAME
        assert device.spec.speed_mips == 100_000.0


class TestOffloading:
    def test_cheap_cloud_attracts_video_work(self, testbed):
        env = cloud_environment(testbed, CloudConfig(static_watts=1.0))
        app = video_processing(testbed.calibration)
        result = DeepScheduler().schedule(app, env)
        result.plan.validate_against(app)
        assert any(a.device == CLOUD_NAME for a in result.plan)
        # Offloading must beat the edge-only schedule.
        edge_only = DeepScheduler().schedule(app, testbed.env)
        assert result.total_energy_j < edge_only.total_energy_j

    def test_expensive_cloud_stays_on_edge(self, testbed):
        env = cloud_environment(testbed, CloudConfig(static_watts=200.0))
        app = video_processing(testbed.calibration)
        result = DeepScheduler().schedule(app, env)
        assert all(a.device != CLOUD_NAME for a in result.plan)

    def test_cloud_pulls_come_from_hub(self, testbed):
        env = cloud_environment(testbed, CloudConfig(static_watts=1.0))
        app = video_processing(testbed.calibration)
        result = DeepScheduler().schedule(app, env)
        for assignment in result.plan:
            if assignment.device == CLOUD_NAME:
                assert assignment.registry == HUB_NAME

    def test_offload_share_monotone_in_static_power(self, testbed):
        app = video_processing(testbed.calibration)
        points = cloud_offload_report(
            testbed, app, static_watts_grid=[1.0, 15.0, 60.0]
        )
        shares = [p.cloud_share for p in points]
        assert shares[0] >= shares[1] >= shares[2]
        assert shares[0] > 0.0
        assert shares[-1] == 0.0

    def test_text_never_offloads_at_default_grid(self, testbed):
        app = text_processing(testbed.calibration)
        points = cloud_offload_report(
            testbed, app, static_watts_grid=[1.0, 10.0]
        )
        assert all(not p.offloads for p in points)

    def test_offload_never_hurts(self, testbed):
        """With the cloud option available, DEEP's energy can only
        improve or stay equal relative to edge-only."""
        app = video_processing(testbed.calibration)
        for point in cloud_offload_report(
            testbed, app, static_watts_grid=[2.0, 40.0]
        ):
            assert point.total_energy_j <= point.edge_only_energy_j + 1e-6


class TestCloudExperiment:
    def test_experiment_runs_and_notes_crossover(self, testbed):
        result = cloud_experiment.run(testbed, static_watts_grid=[1.0, 40.0])
        assert len(result.rows) == 4  # 2 apps x 2 grid points
        video_rows = [
            r for r in result.rows if r["application"] == "video-processing"
        ]
        assert video_rows[0]["cloud_share"] > 0
        assert video_rows[-1]["cloud_share"] == 0
        assert any("offloads" in note for note in result.notes)
