"""Deterministic discrete-event simulation kernel used by the testbed."""

from .churn import ChurnEvent, ChurnProcess, ChurnSpec
from .engine import AllOf, Process, Simulator
from .events import Event, EventQueue, Timeout
from .resources import Resource
from .rng import DEFAULT_SEED, RngRegistry, default_registry

__all__ = [
    "AllOf",
    "ChurnEvent",
    "ChurnProcess",
    "ChurnSpec",
    "DEFAULT_SEED",
    "Event",
    "EventQueue",
    "Process",
    "Resource",
    "RngRegistry",
    "Simulator",
    "Timeout",
    "default_registry",
]
