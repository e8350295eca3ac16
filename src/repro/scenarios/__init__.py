"""Declarative scenario specs and the simulation session facade.

The public face of the swarm stack: describe a run as a frozen,
validated, serializable :class:`ScenarioSpec`, hand it to
:class:`SimulationSession`, and read the :class:`ModeOutcome`::

    from repro import scenarios

    spec = scenarios.get("p2p-gossip")              # a named preset
    spec = scenarios.with_overrides(spec, {"churn.mean_uptime_s": 600})
    outcome = scenarios.SimulationSession(spec).run()
    print(outcome.to_dict())

See ``src/repro/scenarios/README.md`` for spec anatomy, the preset
list, and override examples.
"""

from .build import SwarmDevice, SwarmScenario, build_swarm_scenario
from .presets import (
    Preset,
    entries,
    get,
    names,
    register,
)
from .session import (
    NONDETERMINISTIC_OUTCOME_KEYS,
    ModeOutcome,
    SimulationSession,
    deterministic_outcome_dict,
)
from .spec import (
    DISCOVERY_BACKENDS,
    GOSSIP_EXCHANGES,
    HOTNESS_SCOPES,
    MODES,
    TRANSFER_MODELS,
    WORKLOAD_KINDS,
    ChunkSpec,
    ChurnSpec,
    DiscoverySpec,
    ReplicationSpec,
    ScenarioSpec,
    TelemetrySpec,
    TopologySpec,
    TransferSpec,
    WorkloadSpec,
    canonical_hash,
    canonical_json,
    parse_set_flags,
    with_overrides,
)

__all__ = [
    "DISCOVERY_BACKENDS",
    "GOSSIP_EXCHANGES",
    "HOTNESS_SCOPES",
    "MODES",
    "TRANSFER_MODELS",
    "WORKLOAD_KINDS",
    "ChunkSpec",
    "ChurnSpec",
    "DiscoverySpec",
    "ModeOutcome",
    "NONDETERMINISTIC_OUTCOME_KEYS",
    "Preset",
    "ReplicationSpec",
    "ScenarioSpec",
    "SimulationSession",
    "SwarmDevice",
    "SwarmScenario",
    "TelemetrySpec",
    "TopologySpec",
    "TransferSpec",
    "WorkloadSpec",
    "build_swarm_scenario",
    "canonical_hash",
    "canonical_json",
    "deterministic_outcome_dict",
    "entries",
    "get",
    "names",
    "parse_set_flags",
    "register",
    "with_overrides",
]
