"""Network model: channels, the Size/BW terms, and ingress."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.network import Channel, NetworkModel


@pytest.fixture
def net():
    model = NetworkModel()
    model.connect_devices("medium", "small", 100.0)
    model.connect_registry("hub", "medium", 44.0, rtt_s=1.5)
    model.connect_registry("hub", "small", 43.5, rtt_s=1.5)
    model.connect_ingress("medium", 200.0)
    return model


class TestChannel:
    def test_transfer_time(self):
        assert Channel(100.0).transfer_time_s(100.0) == pytest.approx(8.0)

    def test_rtt_added_once(self):
        assert Channel(100.0, rtt_s=2.0).transfer_time_s(100.0) == pytest.approx(10.0)

    def test_zero_payload_skips_rtt(self):
        assert Channel(100.0, rtt_s=2.0).transfer_time_s(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Channel(0.0)
        with pytest.raises(ValueError):
            Channel(10.0, rtt_s=-1.0)


class TestTopology:
    def test_symmetric_by_default(self, net):
        assert net.device_channel("medium", "small").bandwidth_mbps == 100.0
        assert net.device_channel("small", "medium").bandwidth_mbps == 100.0

    def test_asymmetric_channels(self):
        model = NetworkModel()
        model.connect_devices("a", "b", 10.0, symmetric=False)
        assert model.device_channel("a", "b").bandwidth_mbps == 10.0
        with pytest.raises(KeyError):
            model.device_channel("b", "a")

    def test_explicit_loopback_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel().connect_devices("a", "a", 10.0)

    def test_loopback_is_implicit_and_free(self, net):
        assert net.device_channel("medium", "medium") is None
        assert net.dataflow_time_s("medium", "medium", 1e6) == 0.0

    def test_missing_channel_raises(self, net):
        with pytest.raises(KeyError):
            net.device_channel("medium", "ghost")
        with pytest.raises(KeyError):
            net.registry_channel("ghost", "medium")

    def test_has_registry_channel(self, net):
        assert net.find_registry_channel("hub", "medium") is (
            net.registry_channel("hub", "medium")
        )
        assert net.find_registry_channel("regional", "medium") is None


def _rows(model, names):
    return {dst: list(model.channels_into(dst).items()) for dst in names}


class TestDeviceMesh:
    def test_mesh_shares_one_channel(self):
        model = NetworkModel()
        model.connect_device_mesh(["a", "b", "c"], 800.0, rtt_s=0.02)
        channel = model.device_channel("a", "b")
        assert channel == Channel(800.0, 0.02)
        assert all(
            model.device_channel(src, dst) is channel
            for src in "abc" for dst in "abc" if src != dst
        )

    def test_duplicate_name_leaves_network_unchanged(self):
        model = NetworkModel()
        model.connect_devices("a", "b", 100.0)
        before = _rows(model, "abcd")
        with pytest.raises(ValueError, match="loopback channel on 'b'"):
            model.connect_device_mesh(["a", "b", "c", "b", "d"], 800.0)
        assert _rows(model, "abcd") == before
        assert "a" not in model.channels_into("c")
        assert model.device_channel("a", "b").bandwidth_mbps == 100.0

    @pytest.mark.parametrize(
        "bandwidth, rtt",
        [(0.0, 0.0), (-5.0, 0.0), (float("nan"), 0.0), (10.0, -1.0)],
    )
    @pytest.mark.parametrize("names", [[], ["a"]])
    def test_small_mesh_still_validates_its_channel(self, names, bandwidth, rtt):
        with pytest.raises(ValueError):
            NetworkModel().connect_device_mesh(names, bandwidth, rtt_s=rtt)


class TestPreferenceOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 5),
                st.sampled_from([25.0, 100.0, 100.0, 800.0]),
            ),
            max_size=30,
        )
    )
    def test_matches_bandwidth_then_name_sort(self, edges):
        model = NetworkModel()
        for src, dst, bandwidth in edges:
            if src != dst:
                model.connect_devices(
                    f"d{src}", f"d{dst}", bandwidth, symmetric=False
                )
        for dst in (f"d{i}" for i in range(6)):
            row = model.channels_into(dst)
            assert model.device_sources_by_preference(dst) == tuple(
                sorted(row, key=lambda s: (-row[s].bandwidth_mbps, s))
            )


class TestTransferQueries:
    def test_dataflow_time(self, net):
        # 500 MB over 100 Mbit/s = 40 s.
        assert net.dataflow_time_s("medium", "small", 500.0) == pytest.approx(40.0)

    def test_deployment_time_includes_rtt(self, net):
        # 5.78 GB at 44 Mbit/s + 1.5 s startup.
        expected = 1.5 + 5780 * 8 / 44.0
        assert net.deployment_time_s("hub", "medium", 5.78) == pytest.approx(expected)

    def test_ingress_time(self, net):
        assert net.ingress_time_s("medium", 800.0) == pytest.approx(32.0)

    def test_ingress_zero_free_without_channel(self, net):
        # small has no ingress channel; zero payload must not raise.
        assert net.ingress_time_s("small", 0.0) == 0.0

    def test_ingress_missing_channel_raises(self, net):
        with pytest.raises(KeyError):
            net.ingress_time_s("small", 10.0)
