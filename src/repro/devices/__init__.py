"""Edge-device simulator: the paper's two-device testbed, power traces,
and the per-device execution runtime."""

from .executor import DeviceRuntime, ExecutionRecord, IntensityFn, unit_intensity
from .power import PowerSegment, PowerTrace
from .specs import (
    MEDIUM_POWER,
    MEDIUM_SPEC,
    MEDIUM_SPEED_MIPS,
    SMALL_POWER,
    SMALL_SPEC,
    SMALL_SPEED_MIPS,
    medium_device,
    small_device,
)

__all__ = [
    "DeviceRuntime",
    "ExecutionRecord",
    "IntensityFn",
    "MEDIUM_POWER",
    "MEDIUM_SPEC",
    "MEDIUM_SPEED_MIPS",
    "PowerSegment",
    "PowerTrace",
    "SMALL_POWER",
    "SMALL_SPEC",
    "SMALL_SPEED_MIPS",
    "medium_device",
    "small_device",
    "unit_intensity",
]
