"""Energy measurement substrate: RAPL-style counters (Intel), sampled
wall-plug metering (ARM), and ledger aggregation for the figures."""

from .accounting import EnergyLedger
from .powermeter import MeterReading, PowerMeter, PowerSample
from .rapl import (
    COUNTER_WRAP_UJ,
    MeasurementError,
    RaplMeasurement,
    RaplMeter,
)

__all__ = [
    "COUNTER_WRAP_UJ",
    "EnergyLedger",
    "MeasurementError",
    "MeterReading",
    "PowerMeter",
    "PowerSample",
    "RaplMeasurement",
    "RaplMeter",
]
