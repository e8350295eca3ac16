"""The paper's Table II, embedded as typed records.

Table II reports, per microservice: image size [GB], processing time
``Tp`` [s], completion time ``CT`` [s], and energy ``EC`` [J] measured
on the medium (Intel, pyRAPL) and small (RPi 4, wall meter) devices.
Values are min–max ranges over the paper's runs.

These numbers are the reproduction's calibration target *and* its
acceptance oracle: the calibration fits model constants so simulated
``Tp``/``CT``/``EC`` land inside (or near) the ranges, and the Table II
experiment re-measures them through the full simulator stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

VIDEO = "video-processing"
TEXT = "text-processing"


@dataclass(frozen=True)
class Range:
    """A published min–max measurement range."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted range [{self.lo}, {self.hi}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, slack: float = 0.0) -> bool:
        """Is ``value`` inside the range, widened by ``slack`` (fraction)?"""
        pad = slack * max(self.mid, 1e-12)
        return self.lo - pad <= value <= self.hi + pad

    def deviation(self, value: float) -> float:
        """Relative distance outside the range (0 when inside)."""
        if self.contains(value):
            return 0.0
        edge = self.lo if value < self.lo else self.hi
        return abs(value - edge) / max(abs(edge), 1e-12)


@dataclass(frozen=True)
class BenchmarkRow:
    """One Table II line."""

    application: str
    service: str
    size_gb: float
    tp_s: Range
    ct_s: Range
    ec_medium_j: Range
    ec_small_j: Range

    def ec_for(self, device: str) -> Range:
        if device == "medium":
            return self.ec_medium_j
        if device == "small":
            return self.ec_small_j
        raise KeyError(f"Table II has no EC column for device {device!r}")


def _row(app, service, size, tp, ct, ec_med, ec_small) -> BenchmarkRow:
    return BenchmarkRow(
        application=app,
        service=service,
        size_gb=size,
        tp_s=Range(*tp),
        ct_s=Range(*ct),
        ec_medium_j=Range(*ec_med),
        ec_small_j=Range(*ec_small),
    )


#: Table II verbatim (video processing block).
VIDEO_ROWS: List[BenchmarkRow] = [
    _row(VIDEO, "transcode", 0.17, (17.5, 19), (82, 85), (856, 859), (340, 355)),
    _row(VIDEO, "frame", 0.70, (10, 20), (147, 184), (355, 378), (557, 679)),
    _row(VIDEO, "ha-train", 5.78, (121, 124), (1071, 1421), (3240, 3288), (4654, 5472)),
    _row(VIDEO, "la-train", 5.78, (87, 97), (1058, 1297), (1834, 1849), (3995, 4700)),
    _row(VIDEO, "ha-infer", 3.53, (38, 41), (356, 435), (849, 850), (1423, 1602)),
    _row(VIDEO, "la-infer", 3.54, (38, 40), (350, 429), (819, 842), (1400, 1590)),
]

#: Table II verbatim (text processing block).
TEXT_ROWS: List[BenchmarkRow] = [
    _row(TEXT, "retrieve", 0.14, (42, 58), (331, 334), (144, 173), (1136, 1183)),
    _row(TEXT, "decompress", 0.78, (27, 55), (290, 331), (415, 432), (1037, 1143)),
    _row(TEXT, "ha-train", 2.36, (139, 144), (427, 507), (3482, 3728), (1638, 1903)),
    _row(TEXT, "la-train", 2.36, (87, 89), (288, 363), (1622, 1642), (870, 985)),
    _row(TEXT, "ha-score", 0.63, (74, 76), (177, 211), (1228, 1319), (675, 786)),
    _row(TEXT, "la-score", 0.63, (75, 78), (175, 210), (1295, 1299), (670, 785)),
]

ALL_ROWS: List[BenchmarkRow] = VIDEO_ROWS + TEXT_ROWS


def rows_for(application: str) -> List[BenchmarkRow]:
    """Table II block for one application."""
    rows = [r for r in ALL_ROWS if r.application == application]
    if not rows:
        raise KeyError(f"unknown application {application!r}")
    return rows


def row(application: str, service: str) -> BenchmarkRow:
    """One Table II line by (application, service)."""
    for r in rows_for(application):
        if r.service == service:
            return r
    raise KeyError(f"no Table II row for {application}/{service}")


#: Table I: image repository names on each registry.  The logical image
#: name (our ``Microservice.image``) maps to per-registry references.
HUB_NAMESPACE = "sina88"
REGIONAL_NAMESPACE = "aau"

IMAGE_PREFIX: Dict[str, str] = {VIDEO: "vp", TEXT: "tp"}


def logical_image(application: str, service: str) -> str:
    """Registry-agnostic image name, e.g. ``vp-ha-train``."""
    return f"{IMAGE_PREFIX[application]}-{service}"


def hub_repository(application: str, service: str) -> str:
    """Docker Hub repository per Table I, e.g. ``sina88/vp-ha-train``."""
    return f"{HUB_NAMESPACE}/{logical_image(application, service)}"


def regional_repository(application: str, service: str) -> str:
    """Regional repository per Table I, e.g. ``aau/vp-ha-train``."""
    return f"{REGIONAL_NAMESPACE}/{logical_image(application, service)}"
