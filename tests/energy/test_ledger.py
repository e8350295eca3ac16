"""EnergyLedger aggregation over execution records."""

import pytest

from repro.devices.executor import ExecutionRecord
from repro.energy.accounting import EnergyLedger
from repro.model.metrics import EnergyBreakdown, PhaseTimes
from repro.registry.base import ImageReference
from repro.registry.client import PullResult
from repro.registry.images import build_image
from repro.model.device import Arch


def record(service, device, registry, start, deploy=10.0, compute=5.0):
    mlist, _ = build_image(service, 0.1)
    manifest = mlist.for_arch(Arch.AMD64)
    times = PhaseTimes(deploy, 2.0, compute)
    energy = EnergyBreakdown(
        pull_j=deploy * 1.0, transfer_j=2.0 * 0.5,
        compute_j=compute * 10.0, static_j=times.completion_s * 1.0,
    )
    return ExecutionRecord(
        service=service,
        device=device,
        registry=registry,
        start_s=start,
        times=times,
        energy=energy,
        pull=PullResult(
            reference=ImageReference(service),
            registry=registry,
            manifest=manifest,
            bytes_total=manifest.total_layer_bytes,
            bytes_transferred=manifest.total_layer_bytes,
            layers_total=len(manifest.layers),
            layers_transferred=len(manifest.layers),
        ),
        intensity=1.0,
    )


RECORDS = [
    record("a", "medium", "hub", 0.0),
    record("b", "small", "regional", 20.0),
    record("c", "medium", "regional", 40.0, compute=20.0),
]


@pytest.fixture
def ledger():
    l = EnergyLedger()
    for r in RECORDS:
        l.add(r)
    return l


class TestLedger:
    def test_total_is_sum(self, ledger):
        assert ledger.total_j() == pytest.approx(
            sum(r.energy_j for r in RECORDS)
        )

    def test_active_plus_static(self, ledger):
        assert ledger.total_j() == pytest.approx(
            ledger.active_j() + ledger.static_j()
        )

    def test_by_device(self, ledger):
        by_device = ledger.by_device()
        assert set(by_device) == {"medium", "small"}
        assert sum(by_device.values()) == pytest.approx(ledger.total_j())

    def test_by_registry(self, ledger):
        by_registry = ledger.by_registry()
        assert set(by_registry) == {"hub", "regional"}
        assert sum(by_registry.values()) == pytest.approx(ledger.total_j())

    def test_empty_ledger(self):
        empty = EnergyLedger()
        assert empty.total_j() == 0.0
        assert len(empty) == 0

    def test_extend(self):
        l = EnergyLedger()
        l.extend([record("a", "m", "h", 0.0), record("b", "m", "h", 1.0)])
        assert len(l) == 2
