"""Workloads: Table II data, calibration quality, apps, testbed wiring."""

import pytest

from repro.model.device import Arch
from repro.workloads.calibration import CalibrationConfig, calibrate
from repro.workloads.synthetic import (
    SyntheticConfig,
    synthetic_application,
    synthetic_environment,
    synthetic_fleet,
)
from repro.workloads.table2 import (
    ALL_ROWS,
    TEXT,
    TEXT_ROWS,
    VIDEO,
    VIDEO_ROWS,
    Range,
    hub_repository,
    logical_image,
    regional_repository,
)


def row(application, service):
    """One Table II line by (application, service)."""
    return next(
        r for r in ALL_ROWS
        if (r.application, r.service) == (application, service)
    )


def predicted_times(cal, name, device):
    """(Td_hub, Tc, Tp) of ``name`` on ``device`` in the benchmark
    setup: a cold hub pull, then the input transfer, then compute."""
    svc = cal.services[name]
    cfg = cal.config
    td = cfg.hub_deploy_s(device, svc.cold_pull_gb)
    tc = svc.input_mb * 8.0 / cfg.ingress_bw_mbps[device]
    tp = svc.cpu_mi / cfg.speed_mips[device]
    return td, tc, tp


def predicted_energy_j(cal, name, device):
    """The model's EC for that run, at the calibrated intensity."""
    td, tc, tp = predicted_times(cal, name, device)
    p = cal.power[device]
    return (
        p.static_watts * (td + tc + tp)
        + p.pull_watts * td
        + p.transfer_watts * tc
        + p.compute_watts * cal.intensity(name, device) * tp
    )


class TestTable2Data:
    def test_twelve_services(self):
        assert len(ALL_ROWS) == 12
        assert len(VIDEO_ROWS) == len(TEXT_ROWS) == 6

    def test_row_lookup(self):
        r = row(VIDEO, "ha-train")
        assert r.size_gb == 5.78
        assert r.ec_medium_j.lo == 3240

    def test_range_helpers(self):
        r = Range(10.0, 20.0)
        assert r.mid == 15.0
        assert r.contains(10.0) and r.contains(20.0)
        assert not r.contains(21.0)
        assert r.contains(21.0, slack=0.10)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            Range(2.0, 1.0)

    def test_table1_repositories(self):
        assert hub_repository(VIDEO, "transcode") == "sina88/vp-transcode"
        assert regional_repository(TEXT, "ha-score") == "aau/tp-ha-score"
        assert logical_image(TEXT, "retrieve") == "tp-retrieve"

    def test_ec_for_device(self):
        r = row(TEXT, "retrieve")
        assert r.ec_for("small").lo == 1136
        with pytest.raises(KeyError):
            r.ec_for("huge")


class TestCalibration:
    def test_all_ec_cells_within_ranges(self, cal):
        for r in ALL_ROWS:
            name = logical_image(r.application, r.service)
            for device in ("medium", "small"):
                predicted = predicted_energy_j(cal, name, device)
                assert r.ec_for(device).contains(predicted, slack=0.05), (
                    name, device, predicted,
                )

    def test_ct_on_bench_device_within_ranges(self, cal):
        for r in ALL_ROWS:
            name = logical_image(r.application, r.service)
            bench = cal.config.bench_device[r.application]
            td, tc, tp = predicted_times(cal, name, bench)
            assert r.ct_s.contains(td + tc + tp, slack=0.05), (name, td + tc + tp)

    def test_tp_matches_midpoints(self, cal):
        for r in ALL_ROWS:
            name = logical_image(r.application, r.service)
            bench = cal.config.bench_device[r.application]
            _, _, tp = predicted_times(cal, name, bench)
            assert tp == pytest.approx(r.tp_s.mid)

    def test_warm_fraction_only_when_needed(self, cal):
        # Services whose published CT exceeds a cold pull have no warm
        # fraction; the infer/score/text-train services do.
        assert cal.services["vp-ha-train"].warm_fraction == 0.0
        assert cal.services["vp-ha-infer"].warm_fraction > 0.3
        assert cal.services["tp-la-train"].warm_fraction > 0.3

    def test_power_floors_respected(self, cal):
        for device, power in cal.power.items():
            floors = cal.config.power_floors_w
            assert power.static_watts >= floors[0]
            assert power.pull_watts >= floors[1]
            assert power.transfer_watts >= floors[2]

    def test_medium_ceilings_respected(self, cal):
        ceiling = cal.config.power_ceilings_w["medium"]
        power = cal.power["medium"]
        assert power.static_watts <= ceiling[0] + 1e-9
        assert power.pull_watts <= ceiling[1] + 1e-9

    def test_intensities_unclamped(self, cal):
        lo, hi = cal.config.intensity_bounds
        for (name, device), k in cal.intensities.items():
            assert lo < k < hi, (name, device, k)

    def test_custom_config_flows_through(self):
        cfg = CalibrationConfig(hub_startup_s=2.5)
        cal = calibrate(cfg)
        assert cal.config.hub_startup_s == 2.5

    def test_intensity_default_for_unknown(self, cal):
        assert cal.intensity("ghost", "medium") == 1.0


class TestApps:
    def test_six_services_each(self, video_app, text_app):
        assert len(video_app) == 6 and len(text_app) == 6

    def test_names_match_table1(self, video_app):
        assert set(video_app.microservices) == {
            "vp-transcode", "vp-frame", "vp-ha-train", "vp-la-train",
            "vp-ha-infer", "vp-la-infer",
        }

    def test_fork_join_shape(self, text_app):
        assert text_app.stages() == [
            ["tp-retrieve"],
            ["tp-decompress"],
            ["tp-ha-train", "tp-la-train"],
            ["tp-ha-score", "tp-la-score"],
        ]

    def test_only_sources_have_ingress(self, video_app, text_app):
        for app, source in ((video_app, "vp-transcode"), (text_app, "tp-retrieve")):
            for service in app:
                if service.name == source:
                    assert service.ingress_mb > 0
                else:
                    assert service.ingress_mb == 0

    def test_sizes_match_table2(self, video_app, cal):
        for service in video_app:
            svc = cal.services[service.name]
            assert service.size_gb == svc.size_gb

    def test_edge_sizes_are_downstream_inputs(self, video_app, cal):
        (flow,) = [
            f for f in video_app.in_flows("vp-ha-train") if f.src == "vp-frame"
        ]
        assert flow.size_mb == pytest.approx(cal.services["vp-ha-train"].input_mb)


class TestTestbed:
    def test_devices(self, testbed):
        assert testbed.fleet.names() == ["medium", "small"]
        assert testbed.fleet["medium"].arch is Arch.AMD64
        assert testbed.fleet["small"].arch is Arch.ARM64

    def test_both_registries_host_all_images(self, testbed):
        for r in ALL_ROWS:
            image = logical_image(r.application, r.service)
            for registry in (testbed.hub, testbed.regional):
                ref = testbed.references[(registry.name, image)]
                for arch in (Arch.AMD64, Arch.ARM64):
                    manifest = registry.resolve(ref, arch)
                    assert all(
                        d in registry.blobs for d in manifest.layer_digests()
                    ), (registry.name, image)

    def test_table1_naming(self, testbed):
        refs = testbed.references
        assert refs[("docker-hub", "vp-frame")].repository == "sina88/vp-frame"
        assert refs[("regional", "vp-frame")].repository == "aau/vp-frame"

    def test_network_channels_wired(self, testbed, cal):
        for device in ("medium", "small"):
            assert testbed.network.registry_channel(
                "docker-hub", device
            ).bandwidth_mbps == pytest.approx(cal.config.hub_bw_mbps[device])
            assert testbed.network.registry_channel(
                "regional", device
            ).bandwidth_mbps == pytest.approx(cal.config.regional_bw_mbps[device])

    def test_regional_store_within_capacity(self, testbed):
        store = testbed.regional.store
        assert store.used_bytes() < store.capacity_bytes

    def test_availability_fn(self, testbed):
        assert testbed.env.availability("docker-hub", "vp-frame")
        assert not testbed.env.availability("docker-hub", "ghost")


class TestSynthetic:
    def test_application_is_dag(self):
        app = synthetic_application("s", SyntheticConfig(layers=5, width=3))
        assert len(app) == 15
        app.topological_order()  # no cycle
        assert len(app.stages()) == 5

    def test_deterministic_generation(self):
        a = synthetic_application("same")
        b = synthetic_application("same")
        assert [s.name for s in a] == [s.name for s in b]
        assert [f.size_mb for s in a for f in a.in_flows(s.name)] == [
            f.size_mb for s in b for f in b.in_flows(s.name)
        ]

    def test_every_inner_node_has_parent(self):
        app = synthetic_application("conn", SyntheticConfig(layers=6, width=4))
        for stage_idx, stage in enumerate(app.stages()):
            for name in stage:
                if stage_idx > 0:
                    assert app.in_flows(name)

    def test_fleet_heterogeneous(self):
        fleet = synthetic_fleet(4)
        archs = {d.arch for d in fleet}
        assert archs == {Arch.AMD64, Arch.ARM64}

    def test_environment_schedulable(self):
        from repro.core.scheduler import DeepScheduler

        env = synthetic_environment(3)
        app = synthetic_application("sched-check")
        result = DeepScheduler().schedule(app, env)
        result.plan.validate_against(app)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SyntheticConfig(layers=0)
        with pytest.raises(ValueError):
            SyntheticConfig(edge_density=0.0)
        with pytest.raises(ValueError):
            synthetic_fleet(0)
