"""Tagged repositories: the ``name:tag → manifest list`` mapping.

A :class:`Repository` is a named collection of tags, each resolving to
a multi-arch :class:`~repro.registry.manifest.ManifestList`.  Manifests
are also retrievable by digest, mirroring the Docker Registry HTTP API
(`GET /v2/<name>/manifests/<reference>` accepts either form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from .digest import is_digest
from .manifest import ImageManifest, ManifestList


class ManifestNotFound(KeyError):
    """Raised when a tag or manifest digest cannot be resolved."""


@dataclass
class Repository:
    """One image repository (e.g. ``aau/vp-transcode``)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("repository name must be non-empty")
        self._tags: Dict[str, str] = {}  # tag -> manifest list digest
        self._lists: Dict[str, ManifestList] = {}  # digest -> list
        self._manifests: Dict[str, ImageManifest] = {}  # digest -> manifest

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def put_manifest_list(self, tag: str, mlist: ManifestList) -> str:
        """Publish ``mlist`` under ``tag``; returns the list digest.

        Retagging is allowed (tags are mutable pointers, like Docker's
        ``latest``); manifests themselves are immutable by digest.
        """
        if not tag:
            raise ValueError("tag must be non-empty")
        digest = mlist.digest
        self._lists[digest] = mlist
        for manifest in mlist.manifests:
            self._manifests[manifest.digest] = manifest
        self._tags[tag] = digest
        return digest

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def tags(self) -> List[str]:
        return list(self._tags)

    def resolve_list(self, reference: str) -> ManifestList:
        """Resolve a tag *or* a manifest-list digest to the list."""
        if is_digest(reference):
            try:
                return self._lists[reference]
            except KeyError:
                raise ManifestNotFound(
                    f"{self.name}@{reference}"
                ) from None
        try:
            return self._lists[self._tags[reference]]
        except KeyError:
            raise ManifestNotFound(f"{self.name}:{reference}") from None

    def resolve_manifest(self, digest: str) -> ImageManifest:
        """Resolve a platform manifest by digest."""
        try:
            return self._manifests[digest]
        except KeyError:
            raise ManifestNotFound(f"{self.name}@{digest}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Repository({self.name!r}, tags={list(self._tags)})"


class RepositoryIndex:
    """Name-keyed collection of repositories within one registry."""

    def __init__(self) -> None:
        self._repos: Dict[str, Repository] = {}

    def __len__(self) -> int:
        return len(self._repos)

    def __iter__(self) -> Iterator[Repository]:
        return iter(self._repos.values())

    def __contains__(self, name: object) -> bool:
        return name in self._repos

    def get(self, name: str) -> Repository:
        try:
            return self._repos[name]
        except KeyError:
            raise ManifestNotFound(f"repository {name!r} not found") from None

    def get_or_create(self, name: str) -> Repository:
        if name not in self._repos:
            self._repos[name] = Repository(name)
        return self._repos[name]

    def names(self) -> List[str]:
        return list(self._repos)
