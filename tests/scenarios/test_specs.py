"""Scenario specs: construction-time validation, round-tripping,
presets, and dotted overrides.

The contract under test: an invalid cross-field combination can never
reach the simulator — every one raises at spec *construction* — and a
valid spec survives ``from_dict(to_dict(spec)) == spec`` losslessly
(pinned as a Hypothesis property over the whole spec space).
"""

import json
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.scenarios import (
    ChunkSpec,
    ChurnSpec,
    DiscoverySpec,
    ReplicationSpec,
    ScenarioSpec,
    TelemetrySpec,
    TopologySpec,
    TransferSpec,
    WorkloadSpec,
    with_overrides,
)
from repro.scenarios import canonical_hash, canonical_json
from repro.scenarios.spec import parse_set_flags
from repro.sim.churn import ChurnSpec as ChurnProcessConfig


class TestSectionValidation:
    def test_specs_are_frozen(self):
        spec = ScenarioSpec()
        with pytest.raises(FrozenInstanceError):
            spec.mode = "hybrid"
        with pytest.raises(FrozenInstanceError):
            spec.topology.n_devices = 99

    def test_swarm_needs_two_devices(self):
        with pytest.raises(ValueError, match="n_devices must be >= 2"):
            TopologySpec(n_devices=1)

    def test_more_regions_than_devices_rejected(self):
        # Devices are dealt to regions round-robin: 2,000 devices in
        # 5,000 regions would be 2,000 lone devices with no peer.
        with pytest.raises(ValueError, match=r"n_regions \(5000\).*\(2000\)"):
            TopologySpec(n_devices=2000, n_regions=5000)
        assert TopologySpec(n_devices=4, n_regions=4).n_regions == 4

    def test_nic_shaping_must_be_positive(self):
        with pytest.raises(ValueError, match="device_nic_mbps"):
            TopologySpec(device_nic_mbps=0.0)

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValueError, match="workload kind"):
            WorkloadSpec(kind="bursty")

    def test_cold_waves_need_a_sibling_image(self):
        with pytest.raises(ValueError, match="n_images >= 2"):
            WorkloadSpec(kind="cold-waves", n_images=1, pulls_per_device=1)

    def test_cold_waves_pull_once_per_device(self):
        with pytest.raises(ValueError, match="pulls_per_device"):
            WorkloadSpec(kind="cold-waves", n_images=2, pulls_per_device=4)

    def test_stagger_only_applies_to_cold_waves(self):
        with pytest.raises(ValueError, match="stagger_s"):
            WorkloadSpec(kind="zipf", stagger_s=5.0)

    def test_cold_waves_default_stagger_normalised(self):
        spec = WorkloadSpec(kind="cold-waves", n_images=2, pulls_per_device=1)
        assert spec.stagger_s == 1.0

    def test_upload_budget_needs_time_resolved(self):
        with pytest.raises(ValueError, match="time-resolved"):
            TransferSpec(model="analytic", upload_budget=2)

    def test_transfer_model_is_one_of_two_names(self):
        assert scenarios.TRANSFER_MODELS == ("analytic", "time-resolved")
        for model in scenarios.TRANSFER_MODELS:
            assert TransferSpec(model=model).model == model
        # One spelling per model: the underscore one is not it.
        for model in ("time_resolved", "psychic"):
            with pytest.raises(ValueError, match="transfer model"):
                TransferSpec(model=model)

    def test_unknown_discovery_rejected(self):
        with pytest.raises(ValueError, match="discovery"):
            DiscoverySpec(backend="psychic")

    def test_gossip_knobs_need_the_gossip_backend(self):
        with pytest.raises(ValueError, match="gossip"):
            DiscoverySpec(backend="omniscient", gossip_fanout=4)
        with pytest.raises(ValueError, match="gossip"):
            DiscoverySpec(backend="omniscient", gossip_period_s=30.0)

    def test_gossip_defaults_normalised(self):
        spec = DiscoverySpec(backend="gossip")
        assert (spec.gossip_fanout, spec.gossip_period_s,
                spec.gossip_view_cap) == (2, 60.0, 8)

    def test_gossip_knob_ranges(self):
        with pytest.raises(ValueError, match="gossip_exchange"):
            DiscoverySpec(backend="gossip", gossip_exchange="telepathy")
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gossip_latency_s"):
                DiscoverySpec(backend="gossip", gossip_latency_s=bad)
            with pytest.raises(ValueError, match="gossip_period_s"):
                DiscoverySpec(backend="gossip", gossip_period_s=bad)
        for name in ("gossip_fanout", "gossip_view_cap"):
            with pytest.raises(ValueError, match=name):
                DiscoverySpec(backend="gossip", **{name: 0})
        spec = DiscoverySpec(
            backend="gossip", gossip_exchange="digest-summary",
            gossip_fanout=1, gossip_view_cap=1, gossip_latency_s=0.0,
        )
        assert spec.gossip_exchange == "digest-summary"

    def test_churn_spec_validates_like_churn_config(self):
        with pytest.raises(ValueError):
            ChurnSpec(mean_uptime_s=0.0)
        with pytest.raises(ValueError):
            ChurnSpec(min_online=0)
        # The spec section is the churn process's own config class.
        assert ChurnSpec is ChurnProcessConfig
        config = ChurnSpec(mean_uptime_s=50.0, min_online=3)
        assert (config.mean_uptime_s, config.min_online) == (50.0, 3)

    def test_replication_knobs_positive(self):
        with pytest.raises(ValueError, match="interval_s"):
            ReplicationSpec(interval_s=0.0)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="hot_threshold"):
                ReplicationSpec(hot_threshold=bad)
        with pytest.raises(ValueError, match="target_replicas"):
            ReplicationSpec(target_replicas=0)

    def test_replication_decay_and_hotness(self):
        for bad in (-0.1, 1.0):
            with pytest.raises(ValueError, match="decay"):
                ReplicationSpec(decay=bad)
        assert ReplicationSpec(decay=0.0).decay == 0.0
        with pytest.raises(ValueError, match="hotness"):
            ReplicationSpec(hotness="everywhere")

    def test_trunk_slices_exclude_monolithic_egress(self):
        with pytest.raises(ValueError, match="hub"):
            TopologySpec(hub_trunk_mbps=50.0, hub_egress_mbps=500.0)
        with pytest.raises(ValueError, match="regional"):
            TopologySpec(
                regional_trunk_mbps=50.0, regional_egress_mbps=300.0
            )
        with pytest.raises(ValueError, match="hub_trunk_mbps"):
            TopologySpec(hub_trunk_mbps=0.0)
        spec = TopologySpec(
            hub_trunk_mbps=50.0,
            regional_trunk_mbps=200.0,
            inter_region_mesh=False,
        )
        assert not spec.inter_region_mesh

    def test_gossip_loss_rate_bounds(self):
        with pytest.raises(ValueError, match="gossip_loss_rate"):
            DiscoverySpec(backend="gossip", gossip_loss_rate=1.0)
        with pytest.raises(ValueError, match="gossip"):
            DiscoverySpec(backend="omniscient", gossip_loss_rate=0.1)
        assert DiscoverySpec(backend="gossip").gossip_loss_rate == 0.0

    def test_hot_fraction_needs_per_region_hotness(self):
        with pytest.raises(ValueError, match="hot_fraction"):
            ReplicationSpec(hotness="per-region", hot_fraction=1.5)
        with pytest.raises(ValueError, match="per-region"):
            ReplicationSpec(hotness="global", hot_fraction=0.5)
        spec = ReplicationSpec(hotness="per-region", hot_fraction=0.5)
        assert spec.hot_fraction == 0.5

    def test_chunk_knobs_positive(self):
        with pytest.raises(ValueError, match="size_bytes"):
            ChunkSpec(size_bytes=0)
        with pytest.raises(ValueError, match="parallel"):
            ChunkSpec(parallel=0)

    #: Every integer and bool spec field.  A fractional or boolean
    #: count must fail at construction, not raise a TypeError mid-build
    #: or run silently (``seed=true``, ``n_regions=2.5``).
    INT_FIELDS = [
        "topology.n_devices", "topology.n_regions", "workload.n_images",
        "workload.pulls_per_device", "transfer.upload_budget",
        "discovery.gossip_fanout", "discovery.gossip_view_cap",
        "replication.target_replicas", "chunks.size_bytes",
        "chunks.parallel", "churn.min_online", "seed",
    ]
    BOOL_FIELDS = [
        "topology.inter_region_mesh", "replication.churn_aware",
        "chunks.enabled", "telemetry.trace", "telemetry.profile",
    ]

    @pytest.mark.parametrize("path, raw, expected", [
        (path, raw, "an integer")
        for path in INT_FIELDS for raw in ("2.5", "true")
    ] + [
        (path, raw, "true or false")
        for path in BOOL_FIELDS for raw in ("no", "1")
    ])
    def test_wrongly_typed_count_or_switch_rejected(self, path, raw, expected):
        # p2p-gossip has the gossip backend and a churn section, so
        # every field here applies to it.
        field = path.rpartition(".")[2]
        with pytest.raises(ValueError, match=f"{field} must be {expected}"):
            with_overrides(scenarios.get("p2p-gossip"), {path: raw})


class TestCrossSectionValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ScenarioSpec(mode="p2p-only")

    def test_chunked_needs_time_resolved(self):
        with pytest.raises(ValueError, match="time-resolved"):
            ScenarioSpec(chunks=ChunkSpec(enabled=True))
        # ... and is accepted with it
        spec = ScenarioSpec(
            transfer=TransferSpec(model="time-resolved"),
            chunks=ChunkSpec(enabled=True),
        )
        assert spec.chunks.enabled

    def test_churn_aware_replication_needs_churn(self):
        with pytest.raises(ValueError, match="churn"):
            ScenarioSpec(replication=ReplicationSpec(churn_aware=True))
        spec = ScenarioSpec(
            churn=ChurnSpec(),
            replication=ReplicationSpec(churn_aware=True),
        )
        assert spec.replication.churn_aware

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec(seed=-1)


# ----------------------------------------------------------------------
# Hypothesis: the whole valid spec space round-trips losslessly
# ----------------------------------------------------------------------
def _workloads():
    zipf = st.builds(
        WorkloadSpec,
        kind=st.just("zipf"),
        n_images=st.integers(1, 16),
        pulls_per_device=st.integers(1, 8),
        horizon_s=st.floats(60.0, 7200.0, allow_nan=False),
    )
    waves = st.builds(
        WorkloadSpec,
        kind=st.just("cold-waves"),
        n_images=st.integers(2, 8),
        pulls_per_device=st.just(1),
        horizon_s=st.floats(60.0, 7200.0, allow_nan=False),
        stagger_s=st.one_of(
            st.none(), st.floats(0.1, 30.0, allow_nan=False)
        ),
    )
    return st.one_of(zipf, waves)


def _discoveries():
    omniscient = st.just(DiscoverySpec())
    gossip = st.builds(
        DiscoverySpec,
        backend=st.just("gossip"),
        gossip_fanout=st.one_of(st.none(), st.integers(1, 8)),
        gossip_period_s=st.one_of(
            st.none(), st.floats(1.0, 600.0, allow_nan=False)
        ),
        gossip_view_cap=st.one_of(st.none(), st.integers(1, 32)),
        gossip_latency_s=st.one_of(
            st.none(), st.floats(0.0, 30.0, allow_nan=False)
        ),
        gossip_exchange=st.one_of(
            st.none(), st.sampled_from(scenarios.GOSSIP_EXCHANGES)
        ),
        gossip_loss_rate=st.one_of(
            st.none(), st.floats(0.0, 1.0, exclude_max=True)
        ),
    )
    return st.one_of(omniscient, gossip)


def _transfers_and_chunks():
    analytic = st.just((TransferSpec(model="analytic"), ChunkSpec()))
    time_resolved = st.tuples(
        st.builds(
            TransferSpec,
            model=st.just("time-resolved"),
            upload_budget=st.one_of(st.none(), st.integers(1, 8)),
        ),
        st.builds(
            ChunkSpec,
            enabled=st.booleans(),
            size_bytes=st.integers(1_000_000, 128_000_000),
            parallel=st.integers(1, 8),
        ),
    )
    return st.one_of(analytic, time_resolved)


@st.composite
def _replications(draw, churn_aware):
    """Every replicator knob; ``hot_fraction`` only with per-region
    hotness, as :class:`ReplicationSpec` requires."""
    hotness = draw(st.sampled_from(scenarios.HOTNESS_SCOPES))
    return ReplicationSpec(
        interval_s=draw(st.floats(1.0, 600.0, allow_nan=False)),
        hot_threshold=draw(st.floats(0.5, 10.0, allow_nan=False)),
        target_replicas=draw(st.integers(1, 4)),
        decay=draw(st.floats(0.0, 1.0, exclude_max=True)),
        hotness=hotness,
        churn_aware=draw(churn_aware),
        hot_fraction=(
            draw(st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)))
            if hotness == "per-region"
            else None
        ),
    )


def _churn_and_replication(n_devices):
    # ``churn_aware`` only with a churn section, and a floor below the
    # device count, as ScenarioSpec requires.
    churnless = st.tuples(st.none(), _replications(st.just(False)))
    churned = st.tuples(
        st.builds(
            ChurnSpec,
            mean_uptime_s=st.floats(1.0, 3600.0, allow_nan=False),
            mean_downtime_s=st.floats(1.0, 3600.0, allow_nan=False),
            min_online=st.integers(1, min(8, n_devices - 1)),
        ),
        _replications(st.booleans()),
    )
    return st.one_of(churnless, churned)


@st.composite
def _topologies(draw):
    """Every topology knob; a trunk knob leaves its tier's monolithic
    egress knob unset, as :class:`TopologySpec` requires."""
    n_devices = draw(st.integers(2, 64))
    mbps = st.one_of(st.none(), st.floats(10.0, 1000.0, allow_nan=False))
    hub_trunk_mbps = draw(mbps)
    regional_trunk_mbps = draw(mbps)
    return TopologySpec(
        n_devices=n_devices,
        n_regions=draw(st.integers(1, min(8, n_devices))),
        cache_gb=draw(st.floats(1.0, 64.0, allow_nan=False)),
        device_nic_mbps=draw(mbps),
        hub_egress_mbps=None if hub_trunk_mbps is not None else draw(mbps),
        regional_egress_mbps=(
            None if regional_trunk_mbps is not None else draw(mbps)
        ),
        hub_trunk_mbps=hub_trunk_mbps,
        regional_trunk_mbps=regional_trunk_mbps,
        inter_region_mesh=draw(st.booleans()),
    )


@st.composite
def scenario_specs(draw):
    transfer, chunks = draw(_transfers_and_chunks())
    topology = draw(_topologies())
    churn, replication = draw(_churn_and_replication(topology.n_devices))
    return ScenarioSpec(
        mode=draw(st.sampled_from(scenarios.MODES)),
        topology=topology,
        workload=draw(_workloads()),
        transfer=transfer,
        discovery=draw(_discoveries()),
        churn=churn,
        replication=replication,
        chunks=chunks,
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestRoundTrip:
    @given(spec=scenario_specs())
    @settings(max_examples=100, deadline=None)
    def test_from_dict_inverts_to_dict(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @given(spec=scenario_specs())
    @settings(max_examples=50, deadline=None)
    def test_to_dict_is_json_safe(self, spec):
        payload = json.dumps(spec.to_dict())
        assert ScenarioSpec.from_dict(json.loads(payload)) == spec

    def test_partial_dict_fills_defaults(self):
        spec = ScenarioSpec.from_dict({"mode": "hybrid"})
        assert spec == ScenarioSpec(mode="hybrid")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ScenarioSpec keys"):
            ScenarioSpec.from_dict({"modes": "hybrid"})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="TopologySpec"):
            ScenarioSpec.from_dict({"topology": {"devices": 4}})

    def test_engine_selection_key_rejected(self):
        # The transfer engine has one recompute path, so a spec dict
        # that still names one is refused, not silently ignored.
        with pytest.raises(ValueError, match="recompute"):
            ScenarioSpec.from_dict(
                {"transfer": {"model": "time-resolved", "recompute": "full"}}
            )

    def test_null_section_only_for_churn(self):
        assert ScenarioSpec.from_dict({"churn": None}).churn is None
        with pytest.raises(ValueError, match="cannot be null"):
            ScenarioSpec.from_dict({"transfer": None})

    def test_transfer_model_serialises_as_value(self):
        spec = ScenarioSpec(transfer=TransferSpec(model="time-resolved"))
        assert spec.to_dict()["transfer"]["model"] == "time-resolved"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestOverrides:
    def test_dotted_override_resolves_and_parses(self):
        spec = with_overrides(ScenarioSpec(), {
            "transfer.model": "time-resolved",
            "transfer.upload_budget": "2",
            "topology.n_devices": "24",
            "mode": "hybrid",
        })
        assert spec.transfer.model == "time-resolved"
        assert spec.transfer.upload_budget == 2
        assert spec.topology.n_devices == 24
        assert spec.mode == "hybrid"

    def test_churn_section_created_on_demand(self):
        base = ScenarioSpec()
        assert base.churn is None
        spec = with_overrides(base, {"churn.mean_uptime_s": "600"})
        assert spec.churn == ChurnSpec(mean_uptime_s=600)

    def test_churn_clearable_with_none(self):
        base = ScenarioSpec(churn=ChurnSpec())
        assert with_overrides(base, {"churn": "none"}).churn is None

    def test_override_cannot_bypass_validation(self):
        with pytest.raises(ValueError, match="time-resolved"):
            with_overrides(ScenarioSpec(), {"chunks.enabled": "true"})

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "path",
        [
            "discovery.gossip_period_s",
            "discovery.gossip_latency_s",
            "topology.cache_gb",
            "workload.horizon_s",
            "churn.mean_uptime_s",
        ],
    )
    def test_non_finite_values_rejected_naming_the_field(self, path, raw):
        # --set parses values with json.loads, which yields nan/inf
        # floats; NaN slips past plain `<= 0` / `< 0` range checks.
        with pytest.raises(ValueError, match=path.split(".")[1]):
            with_overrides(scenarios.get("p2p-gossip"), {path: raw})

    def test_unknown_paths_rejected(self):
        with pytest.raises(ValueError, match="unknown override section"):
            with_overrides(ScenarioSpec(), {"nonsense.field": "1"})
        with pytest.raises(ValueError, match="unknown field"):
            with_overrides(ScenarioSpec(), {"topology.devices": "4"})
        with pytest.raises(ValueError, match="too deep"):
            with_overrides(ScenarioSpec(), {"a.b.c": "1"})

    def test_parse_set_flags(self):
        assert parse_set_flags(("a.b=1", "c.d=x=y")) == {
            "a.b": "1", "c.d": "x=y",
        }
        with pytest.raises(ValueError, match="bad --set"):
            parse_set_flags(("no-equals-sign",))

    def test_all_problems_reported_in_one_error(self):
        # Three distinct mistakes -> one exception naming all three,
        # not a fix-rerun-fix loop surfacing them one at a time.
        with pytest.raises(ValueError) as excinfo:
            with_overrides(ScenarioSpec(), {
                "nonsense.field": "1",
                "topology.devices": "4",
                "a.b.c": "1",
            })
        message = str(excinfo.value)
        assert message.startswith("3 bad overrides:")
        assert "unknown override section" in message
        assert "unknown field" in message
        assert "too deep" in message

    def test_unknown_paths_suggest_the_nearest_field(self):
        with pytest.raises(ValueError, match="did you mean") as excinfo:
            with_overrides(ScenarioSpec(), {"topology.devices": "4"})
        assert "topology.n_devices" in str(excinfo.value)
        with pytest.raises(ValueError) as excinfo:
            with_overrides(ScenarioSpec(), {"discovery.gossip_fanuot": "2"})
        assert "discovery.gossip_fanout" in str(excinfo.value)
        with pytest.raises(ValueError) as excinfo:
            with_overrides(ScenarioSpec(), {"mod": "hybrid"})
        assert "did you mean 'mode'" in str(excinfo.value)


class TestCacheKey:
    def test_key_order_never_matters(self):
        spec = ScenarioSpec(mode="hybrid+p2p", seed=42)
        data = spec.to_dict()
        reordered = {
            key: (
                dict(reversed(list(value.items())))
                if isinstance(value, dict) else value
            )
            for key in reversed(list(data))
            for value in [data[key]]
        }
        assert list(reordered) != list(data)
        assert canonical_json(reordered) == canonical_json(data)
        assert canonical_hash(reordered) == canonical_hash(data)
        assert canonical_hash(reordered) == spec.cache_key()

    @given(spec=scenario_specs())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_the_key(self, spec):
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.cache_key() == spec.cache_key()

    def test_any_field_change_perturbs_the_key(self):
        base = ScenarioSpec(churn=ChurnSpec())
        perturbations = {
            "mode": "hybrid",
            "seed": 99,
            "topology.n_devices": 33,
            "topology.cache_gb": 7.5,
            "workload.n_images": 11,
            "workload.pulls_per_device": 9,
            "transfer.model": "time-resolved",
            "discovery.backend": "gossip",
            "churn.mean_uptime_s": 123.0,
            "replication.decay": 0.25,
            "replication.hotness": "per-region",
            "chunks.size_bytes": 1_000_000,
        }
        keys = {base.cache_key()}
        for path, value in perturbations.items():
            key = with_overrides(base, {path: value}).cache_key()
            assert key not in keys, f"{path} did not perturb the key"
            keys.add(key)

    def test_key_is_hex_sha256(self):
        key = ScenarioSpec().cache_key()
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_equal_specs_hash_equal(self):
        assert ScenarioSpec(seed=7).cache_key() == replace(
            ScenarioSpec(), seed=7
        ).cache_key()


class TestTelemetrySection:
    def test_default_section_is_omitted_from_to_dict(self):
        # Every pre-telemetry spec dict — and therefore every cache key
        # and sweep-cell content address — must survive bit-for-bit.
        assert "telemetry" not in ScenarioSpec().to_dict()

    def test_default_section_preserves_historical_cache_key(self):
        spec = ScenarioSpec(seed=7)
        historical = dict(spec.to_dict())
        assert spec.cache_key() == canonical_hash(historical)

    def test_non_default_section_round_trips(self):
        spec = ScenarioSpec(
            telemetry=TelemetrySpec(
                trace=True, metrics_period_s=30.0, profile=True
            )
        )
        data = spec.to_dict()
        assert data["telemetry"] == {
            "trace": True, "metrics_period_s": 30.0, "profile": True,
        }
        assert ScenarioSpec.from_dict(json.loads(json.dumps(data))) == spec

    def test_non_default_section_perturbs_the_key(self):
        base = ScenarioSpec()
        keys = {base.cache_key()}
        for telemetry in (
            TelemetrySpec(trace=True),
            TelemetrySpec(metrics_period_s=60.0),
            TelemetrySpec(profile=True),
        ):
            key = replace(base, telemetry=telemetry).cache_key()
            assert key not in keys
            keys.add(key)

    def test_dotted_overrides_reach_telemetry(self):
        spec = with_overrides(
            ScenarioSpec(), {"telemetry.trace": True}
        )
        assert spec.telemetry.trace is True

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySpec(metrics_period_s=0.0)
        with pytest.raises(ValueError):
            TelemetrySpec(metrics_period_s=-1.0)


class TestPresets:
    def test_every_historical_family_has_a_preset(self):
        for name in ("p2p", "p2p-contended", "p2p-gossip", "p2p-chunked"):
            assert name in scenarios.names()

    def test_presets_are_valid_and_fresh(self):
        for name in scenarios.names():
            first, second = scenarios.get(name), scenarios.get(name)
            assert first == second
            assert first is not second  # factories, not shared singletons
            # each preset round-trips like any other spec
            assert ScenarioSpec.from_dict(first.to_dict()) == first

    def test_unknown_preset_raises_with_known_names(self):
        with pytest.raises(KeyError, match="p2p-gossip"):
            scenarios.get("nope")

    def test_chunked_preset_matches_experiment_defaults(self):
        spec = scenarios.get("p2p-chunked")
        assert spec.chunks == ChunkSpec(
            enabled=True, size_bytes=16_000_000, parallel=4
        )
        assert spec.transfer.model == "time-resolved"

    def test_swarm_scale_preset_uses_incremental_engine(self):
        spec = scenarios.get("p2p-swarm-scale")
        assert spec.transfer.model == "time-resolved"
        assert spec.topology.n_devices == 1000
        assert spec.workload.kind == "cold-waves"
        # No hub/regional egress shaping: a shared registry uplink
        # would couple every pull into one connected component and
        # defeat the closure-local recompute the preset exercises.
        assert spec.topology.hub_egress_mbps is None
        assert spec.topology.regional_egress_mbps is None

    def test_derived_variants_via_replace(self):
        base = scenarios.get("p2p")
        hybrid = replace(base, mode="hybrid")
        assert hybrid.mode == "hybrid"
        assert hybrid.topology == base.topology
