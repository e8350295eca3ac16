"""Shared fixtures for the telemetry suite."""

import dataclasses

import pytest

from repro import scenarios


@pytest.fixture
def quick_swarm_spec():
    """The ``p2p-swarm-scale`` preset shrunk to a quick cell.

    400 devices across 10 regions keeps the closure engine, cold
    waves, churn, and replication all exercised while a full run stays
    well under a second.
    """
    spec = scenarios.get("p2p-swarm-scale")
    return dataclasses.replace(
        spec,
        topology=dataclasses.replace(
            spec.topology, n_devices=400, n_regions=10
        ),
    )
