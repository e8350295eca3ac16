"""Workloads: Table II data, the two case-study DAGs, Table-II-fitted
calibration, the wired testbed, and synthetic scaling instances."""

from .apps import both_applications, text_processing, video_processing
from .calibration import (
    CalibratedService,
    Calibration,
    CalibrationConfig,
    calibrate,
)
from .synthetic import (
    SyntheticConfig,
    synthetic_application,
    synthetic_environment,
    synthetic_fleet,
)
from .table2 import (
    ALL_ROWS,
    TEXT,
    TEXT_ROWS,
    VIDEO,
    VIDEO_ROWS,
    BenchmarkRow,
    Range,
    hub_repository,
    logical_image,
    regional_repository,
)
from .testbed import HUB_NAME, REGIONAL_NAME, Testbed, build_testbed

__all__ = [
    "ALL_ROWS",
    "BenchmarkRow",
    "CalibratedService",
    "Calibration",
    "CalibrationConfig",
    "HUB_NAME",
    "REGIONAL_NAME",
    "Range",
    "SyntheticConfig",
    "TEXT",
    "TEXT_ROWS",
    "Testbed",
    "VIDEO",
    "VIDEO_ROWS",
    "both_applications",
    "build_testbed",
    "calibrate",
    "hub_repository",
    "logical_image",
    "regional_repository",
    "synthetic_application",
    "synthetic_environment",
    "synthetic_fleet",
    "text_processing",
    "video_processing",
]
