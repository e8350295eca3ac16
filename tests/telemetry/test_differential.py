"""Telemetry must never perturb simulation outcomes.

Every probe is read-only and consumes no shared randomness, so a run
with full telemetry (tracing + metrics + profiling) must produce an
outcome **bit-identical** to the same spec with telemetry off — after
stripping the wall-clock / profile keys that are nondeterministic by
nature (``NONDETERMINISTIC_OUTCOME_KEYS``).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.scenarios import TelemetrySpec, deterministic_outcome_dict

FULL_TELEMETRY = TelemetrySpec(trace=True, metrics_period_s=300.0, profile=True)

EXPERIMENT_PRESETS = ("p2p", "p2p-contended", "p2p-gossip", "p2p-chunked")


def _outcome(spec):
    session = scenarios.SimulationSession(spec)
    return session.run(), session


@pytest.mark.parametrize("preset", EXPERIMENT_PRESETS)
def test_full_telemetry_is_bit_identical(preset):
    spec = scenarios.get(preset)
    off, _ = _outcome(spec)
    on, session = _outcome(
        dataclasses.replace(spec, telemetry=FULL_TELEMETRY)
    )
    assert deterministic_outcome_dict(on.to_dict()) == (
        deterministic_outcome_dict(off.to_dict())
    )
    # The telemetry side actually engaged: the traced run owns a
    # recorder and a sampler (otherwise this test proves nothing).
    assert session.trace is not None
    assert session.metrics is not None


def test_quick_swarm_cell_is_bit_identical(quick_swarm_spec):
    off, _ = _outcome(quick_swarm_spec)
    on, session = _outcome(
        dataclasses.replace(quick_swarm_spec, telemetry=FULL_TELEMETRY)
    )
    assert deterministic_outcome_dict(on.to_dict()) == (
        deterministic_outcome_dict(off.to_dict())
    )
    assert len(session.trace) > 0
    assert on.engine_profile is not None
    assert on.engine_profile["recomputes"] > 0


#: Sessions whose engines batch co-started transfers' handshakes, run
#: with a metrics tick on every arrival instant (both presets stagger
#: arrivals by 1 s).  In the contended cell the replicator also cycles
#: every second: at t = 5 s a tick falls between a pull's peer transfer
#: and a replicator copy that share a handshake instant, so a tick that
#: kept them apart would add a recompute and move
#: ``engine_transfers_visited``.
BATCHING_CELLS = [
    ("p2p-chunked", {}),
    ("p2p-contended", {"replication.interval_s": 1.0}),
]


@pytest.mark.parametrize(
    "preset, overrides", BATCHING_CELLS, ids=["chunked", "contended"]
)
def test_sampler_ticks_never_split_a_handshake_batch(preset, overrides):
    spec = scenarios.with_overrides(scenarios.get(preset), overrides)
    off, off_session = _outcome(spec)
    on, on_session = _outcome(
        dataclasses.replace(
            spec, telemetry=TelemetrySpec(trace=True, metrics_period_s=1.0)
        )
    )
    assert deterministic_outcome_dict(on.to_dict()) == (
        deterministic_outcome_dict(off.to_dict())
    )
    assert on_session.engine.recomputes == off_session.engine.recomputes
    assert len(on_session.metrics) > 0


def test_default_spec_keeps_telemetry_off(quick_swarm_spec):
    _, session = _outcome(quick_swarm_spec)
    assert session.trace is None
    assert session.metrics is None
    assert session.engine_profile is None


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_trace_timestamps_monotone_per_device(seed):
    """Per device, traced event timestamps never run backwards.

    The recorder appends in simulation order, so the subsequence of
    events belonging to any one device must carry non-decreasing
    sim-time stamps — for every seed.
    """
    spec = scenarios.get("p2p-swarm-scale")
    spec = dataclasses.replace(
        spec,
        seed=seed,
        topology=dataclasses.replace(
            spec.topology, n_devices=120, n_regions=6
        ),
        telemetry=TelemetrySpec(trace=True),
    )
    session = scenarios.SimulationSession(spec)
    session.run()
    assert len(session.trace) > 0
    last = {}
    for event in session.trace.events:
        assert event.t_s >= last.get(event.device, 0.0)
        last[event.device] = event.t_s
