"""OCI-style image manifests and multi-architecture manifest lists.

The paper tags every image for ``amd64`` and ``arm64`` (Sec. IV-C);
here a :class:`ManifestList` maps architectures to per-platform
:class:`ImageManifest` objects, each an ordered list of layers.

Manifests are content-addressed: their digest is the SHA-256 of a
canonical JSON serialisation, so two registries holding the same image
agree on its identity — the property the hybrid deployment and the
layer-dedup extension both rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..model.device import Arch
from .digest import digest_text, validate_digest

MEDIA_TYPE_LAYER = "application/vnd.oci.image.layer.v1.tar+gzip"
MEDIA_TYPE_CONFIG = "application/vnd.oci.image.config.v1+json"
MEDIA_TYPE_MANIFEST = "application/vnd.oci.image.manifest.v1+json"
MEDIA_TYPE_INDEX = "application/vnd.oci.image.index.v1+json"


@dataclass(frozen=True)
class LayerDescriptor:
    """Reference to one image layer blob."""

    digest: str
    size_bytes: int
    media_type: str = MEDIA_TYPE_LAYER

    def __post_init__(self) -> None:
        validate_digest(self.digest)
        if self.size_bytes < 0:
            raise ValueError(f"negative layer size: {self.size_bytes}")

    def to_json_obj(self) -> dict:
        return {
            "mediaType": self.media_type,
            "digest": self.digest,
            "size": self.size_bytes,
        }


@dataclass(frozen=True)
class ImageManifest:
    """A single-platform image: config + ordered layers.

    Attributes
    ----------
    arch:
        Target architecture of this manifest.
    config_digest:
        Digest of the (tiny) config blob.
    layers:
        Ordered layer descriptors; pull order is list order.
    annotations:
        Free-form metadata (e.g. the source repository).
    """

    arch: Arch
    config_digest: str
    layers: Tuple[LayerDescriptor, ...]
    annotations: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_digest(self.config_digest)
        if not self.layers:
            raise ValueError("image manifest must have at least one layer")

    @property
    def total_layer_bytes(self) -> int:
        """Compressed image size (what a cold pull transfers)."""
        return sum(layer.size_bytes for layer in self.layers)

    def layer_digests(self) -> List[str]:
        return [layer.digest for layer in self.layers]

    def canonical_json(self) -> str:
        """Stable serialisation used for content addressing."""
        obj = {
            "schemaVersion": 2,
            "mediaType": MEDIA_TYPE_MANIFEST,
            "architecture": self.arch.value,
            "config": {
                "mediaType": MEDIA_TYPE_CONFIG,
                "digest": self.config_digest,
            },
            "layers": [layer.to_json_obj() for layer in self.layers],
            "annotations": dict(sorted(self.annotations.items())),
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @property
    def digest(self) -> str:
        return digest_text(self.canonical_json())


@dataclass(frozen=True)
class ManifestList:
    """Multi-arch index: architecture → platform manifest.

    Mirrors an OCI image index; a tag points at a manifest list and the
    pulling device selects the entry matching its architecture.
    """

    manifests: Tuple[ImageManifest, ...]
    annotations: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.manifests:
            raise ValueError("manifest list must be non-empty")
        archs = [m.arch for m in self.manifests]
        if len(set(archs)) != len(archs):
            raise ValueError(f"duplicate architectures in manifest list: {archs}")

    def for_arch(self, arch: Arch) -> ImageManifest:
        """Platform manifest for ``arch`` (KeyError if unsupported)."""
        for manifest in self.manifests:
            if manifest.arch is arch:
                return manifest
        raise KeyError(
            f"no manifest for {arch.value}; available: "
            f"{[m.arch.value for m in self.manifests]}"
        )

    def supports(self, arch: Arch) -> bool:
        return any(m.arch is arch for m in self.manifests)

    def canonical_json(self) -> str:
        obj = {
            "schemaVersion": 2,
            "mediaType": MEDIA_TYPE_INDEX,
            "manifests": [
                {
                    "mediaType": MEDIA_TYPE_MANIFEST,
                    "digest": m.digest,
                    "platform": {"architecture": m.arch.value, "os": "linux"},
                }
                for m in self.manifests
            ],
            "annotations": dict(sorted(self.annotations.items())),
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @property
    def digest(self) -> str:
        return digest_text(self.canonical_json())
