"""Environment feasibility and cache-aware cost matrices."""

import numpy as np
import pytest

from repro.core.costs import CostTable, SchedulerState
from repro.core.environment import Environment
from repro.model.application import (
    Application,
    Dataflow,
    Microservice,
    ResourceRequirements,
)
from repro.model.device import Arch, Device, DeviceFleet, DeviceSpec, PowerModel
from repro.model.network import NetworkModel
from repro.model.registry import RegistryCatalog, RegistryInfo, RegistryKind
from repro.model.units import gb_to_bytes


def make_env(big_storage=64.0, small_storage=4.0):
    power = PowerModel(static_watts=1.0, compute_watts=10.0, pull_watts=1.0,
                       transfer_watts=0.5)
    fleet = DeviceFleet.of(
        Device(DeviceSpec("big", Arch.AMD64, 8, 1000.0, 16.0, big_storage), power),
        Device(DeviceSpec("tiny", Arch.ARM64, 2, 500.0, 2.0, small_storage), power),
    )
    network = NetworkModel()
    for dev in ("big", "tiny"):
        network.connect_registry("hub", dev, 80.0)
        network.connect_registry("regional", dev, 160.0)
        network.connect_ingress(dev, 80.0)
    network.connect_devices("big", "tiny", 80.0)
    catalog = RegistryCatalog.of(
        RegistryInfo("hub", RegistryKind.HUB),
        RegistryInfo("regional", RegistryKind.REGIONAL),
    )
    return Environment(fleet=fleet, network=network, registries=catalog)


def make_app():
    return Application(
        "app",
        [
            Microservice(
                name="a", image="a", size_gb=1.0,
                requirements=ResourceRequirements(cores=1, cpu_mi=1000.0),
            ),
            Microservice(
                name="b", image="b", size_gb=2.0,
                requirements=ResourceRequirements(
                    cores=4, cpu_mi=2000.0, memory_gb=8.0
                ),
            ),
        ],
        [Dataflow("a", "b", 100.0)],
    )


class TestEnvironmentFeasibility:
    def test_cores_and_memory_filter(self):
        env = make_env()
        app = make_app()
        assert env.feasible_devices(app.service("a")) == ["big", "tiny"]
        # b needs 4 cores + 8 GB: only big qualifies.
        assert env.feasible_devices(app.service("b")) == ["big"]

    def test_storage_headroom_injected(self):
        env = make_env()
        app = make_app()
        headroom = {"big": gb_to_bytes(0.5), "tiny": gb_to_bytes(16.0)}
        assert env.feasible_devices(app.service("a"), headroom) == ["tiny"]

    def test_feasible_registries_respects_availability(self):
        env = make_env()
        env.availability = lambda reg, img: reg == "regional"
        app = make_app()
        assert env.feasible_registries(app.service("a"), "big") == ["regional"]


class TestSchedulerState:
    def test_commit_tracks_cache_and_storage(self):
        state = SchedulerState()
        app = make_app()
        state.commit(app.service("a"), "hub", "big", 100.0)
        assert state.is_cached("big", "a")
        assert not state.is_cached("tiny", "a")
        assert state.storage_used_bytes["big"] == gb_to_bytes(1.0)
        assert state.busy_s["big"] == 100.0
        assert state.registry_bytes["hub"] == gb_to_bytes(1.0)
        assert state.upstream_devices["a"] == "big"

    def test_recommit_same_image_no_double_count(self):
        state = SchedulerState()
        app = make_app()
        state.commit(app.service("a"), "hub", "big", 10.0)
        state.commit(app.service("a"), "hub", "big", 10.0)
        assert state.storage_used_bytes["big"] == gb_to_bytes(1.0)
        assert state.busy_s["big"] == 20.0


class TestCostTable:
    def test_matrix_shape_and_labels(self):
        env = make_env()
        table = CostTable(make_app(), env)
        costs = table.matrix("a")
        assert costs.registries == ["hub", "regional"]
        assert costs.devices == ["big", "tiny"]
        assert costs.energy_j.shape == (2, 2)
        assert costs.feasible.all()

    def test_infeasible_device_masked(self):
        env = make_env()
        table = CostTable(make_app(), env)
        costs = table.matrix("b")
        assert not costs.feasible[:, 1].any()  # tiny infeasible for b
        assert np.isinf(costs.energy_j[:, 1]).all()

    def test_faster_registry_cheaper(self):
        env = make_env()
        table = CostTable(make_app(), env)
        costs = table.matrix("a")
        # regional at 160 Mbit/s beats hub at 80 on both devices.
        assert (costs.energy_j[1] < costs.energy_j[0]).all()
        assert costs.best_cell()[0] == 1

    def test_cached_image_free_deploy(self):
        env = make_env()
        app = make_app()
        table = CostTable(app, env)
        state = SchedulerState()
        state.commit(app.service("a"), "hub", "big", 10.0)
        costs = table.matrix("a", state)
        hub = costs.registries.index("hub")
        ct_cached = costs.completion_s[hub, costs.devices.index("big")]
        ct_cold = costs.completion_s[hub, costs.devices.index("tiny")]
        assert ct_cached < ct_cold

        record = table.record("a", "hub", "big", state)
        assert record.times.deploy_s == 0.0
        # Two-tier costing: another device's copy does not shorten Td
        # (1 GB over the 80 Mbit/s hub channel).
        record = table.record("a", "hub", "tiny", state)
        assert record.times.deploy_s == pytest.approx(100.0)

    def test_upstream_transfer_in_costs(self):
        env = make_env()
        app = make_app()
        table = CostTable(app, env)
        state = SchedulerState()
        state.commit(app.service("a"), "hub", "tiny", 10.0)
        record_remote = table.record("b", "hub", "big", state)
        assert record_remote.times.transfer_s == pytest.approx(10.0)
        state2 = SchedulerState()
        state2.commit(app.service("a"), "hub", "big", 10.0)
        record_local = table.record("b", "hub", "big", state2)
        assert record_local.times.transfer_s == 0.0
        # An unplaced producer's flow is skipped, not costed.
        assert table.record("b", "hub", "big").times.transfer_s == 0.0

    def test_cached_device_stays_feasible_when_storage_full(self):
        """An image already on a device is not re-downloaded, so the
        device remains feasible even with zero free storage."""
        env = make_env(big_storage=2.2)
        app = make_app()
        table = CostTable(app, env)
        state = SchedulerState()
        state.commit(app.service("b"), "hub", "big", 10.0)  # fills 2/2.2 GB
        costs = table.matrix("b", state)
        assert costs.feasible[:, costs.devices.index("big")].any()

    def test_no_feasible_cell_reported(self):
        env = make_env(big_storage=0.5, small_storage=0.5)
        table = CostTable(make_app(), env)
        costs = table.matrix("a")
        assert not costs.any_feasible()
        with pytest.raises(ValueError):
            costs.best_cell()
