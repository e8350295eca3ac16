"""Registry model of Sec. III-C: the set ``R`` of Docker registries.

This module holds the *model-level* view used by the cost equations and
the scheduler: a registry is a named source of images with channels to
devices.  The behavioural simulation (manifests, blobs, CDN, MinIO) lives
in :mod:`repro.registry`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator


class RegistryKind(enum.Enum):
    """Whether a registry is the public cloud hub or an edge-regional one."""

    HUB = "hub"
    REGIONAL = "regional"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class RegistryInfo:
    """Model-level registry descriptor ``r_g``.

    Attributes
    ----------
    name:
        Unique registry name used in network channels and plans
        (e.g. ``"docker-hub"``, ``"aau-regional"``).
    kind:
        :class:`RegistryKind` — drives reporting (Table III columns).
    endpoint:
        Informational endpoint string (e.g.
        ``"https://hub.docker.com"`` or ``"dcloud2.itec.aau.at:9001"``).
    """

    name: str
    kind: RegistryKind
    endpoint: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("registry name must be non-empty")


class RegistryCatalog:
    """Ordered, name-indexed collection of registries (the set ``R``)."""

    def __init__(self) -> None:
        self._registries: Dict[str, RegistryInfo] = {}

    @classmethod
    def of(cls, *registries: RegistryInfo) -> "RegistryCatalog":
        catalog = cls()
        for reg in registries:
            catalog.add(reg)
        return catalog

    def add(self, registry: RegistryInfo) -> None:
        if registry.name in self._registries:
            raise ValueError(f"duplicate registry {registry.name!r}")
        self._registries[registry.name] = registry

    def __len__(self) -> int:
        return len(self._registries)

    def __iter__(self) -> Iterator[RegistryInfo]:
        return iter(self._registries.values())

    def __contains__(self, name: object) -> bool:
        return name in self._registries

    def __getitem__(self, name: str) -> RegistryInfo:
        return self._registries[name]

    def names(self) -> list:
        return list(self._registries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegistryCatalog({', '.join(self._registries)})"
