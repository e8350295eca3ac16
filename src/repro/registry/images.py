"""Synthetic multi-arch image construction.

The paper builds its microservice images from official bases
(``amd64/ubuntu:18.04``, ``ubuntu:24.10``, ``alpine:3``,
``python:3.9-slim``, ``python:3.9`` — Sec. IV-C) and tags each for
``amd64`` and ``arm64``.  This module fabricates structurally faithful
stand-ins: every image is a shared base-layer stack plus
deterministically sized application layers summing to the Table II
image size.  Sharing base layers across images is what gives the
layer-dedup extension something real to deduplicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.device import Arch
from ..model.units import gb_to_bytes
from .blobstore import BlobRecord
from .digest import digest_text
from .manifest import ImageManifest, LayerDescriptor, ManifestList


def synthetic_blob(identity: str, size_bytes: int) -> BlobRecord:
    """A size-only blob whose digest derives from a stable identity.

    Two calls with the same ``identity`` yield the same digest, which
    is how distinct images share base layers.
    """
    return BlobRecord(
        digest=digest_text(f"blob:{identity}"), size_bytes=size_bytes
    )


def config_blob(repository: str, arch: Arch) -> BlobRecord:
    """A small materialised config blob (real bytes, verifiable digest)."""
    payload = (
        f'{{"image":"{repository}","architecture":"{arch.value}","os":"linux"}}'
    ).encode("utf-8")
    from .digest import digest_bytes

    return BlobRecord(
        digest=digest_bytes(payload), size_bytes=len(payload), data=payload
    )


@dataclass(frozen=True)
class BaseImage:
    """An official base image: a per-arch stack of shared layers."""

    name: str
    layer_sizes_bytes: Tuple[int, ...]

    def layers_for(self, arch: Arch) -> List[BlobRecord]:
        """The (deterministic, arch-specific) base layer blobs."""
        return [
            synthetic_blob(f"base:{self.name}:{arch.value}:layer{i}", size)
            for i, size in enumerate(self.layer_sizes_bytes)
        ]


#: The official bases the paper lists, with representative compressed
#: sizes (layer split is ours; totals approximate the published images).
OFFICIAL_BASES: Dict[str, BaseImage] = {
    "amd64/ubuntu:18.04": BaseImage(
        "amd64/ubuntu:18.04", (26_000_000,)
    ),
    "ubuntu:24.10": BaseImage("ubuntu:24.10", (30_000_000,)),
    "alpine:3": BaseImage("alpine:3", (3_500_000,)),
    "python:3.9-slim": BaseImage(
        "python:3.9-slim", (27_000_000, 3_000_000, 12_000_000, 3_200_000)
    ),
    "python:3.9": BaseImage(
        "python:3.9",
        (55_000_000, 5_200_000, 10_500_000, 54_500_000, 196_000_000, 6_200_000),
    ),
}


def split_sizes(total_bytes: int, parts: int, identity: str) -> List[int]:
    """Deterministically split ``total_bytes`` into ``parts`` chunks.

    The split is uneven (geometric-ish weights seeded by the identity
    hash) so layer sizes look realistic, but it is exact: the chunks
    always sum to ``total_bytes``.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if total_bytes < 0:
        raise ValueError(f"negative total: {total_bytes}")
    if parts == 1:
        return [total_bytes]
    # Stable pseudo-weights in [1, 10] from the identity digest bytes.
    seed = digest_text(f"split:{identity}")
    weights = [1 + (int(seed[8 + 2 * i : 10 + 2 * i], 16) % 10) for i in range(parts)]
    weight_sum = sum(weights)
    sizes = [total_bytes * w // weight_sum for w in weights]
    sizes[-1] += total_bytes - sum(sizes)  # exactness
    return sizes


def build_image(
    repository: str,
    size_gb: float,
    base: Optional[BaseImage] = None,
    archs: Sequence[Arch] = (Arch.AMD64, Arch.ARM64),
    app_layers: int = 3,
    tag: str = "latest",
) -> Tuple[ManifestList, List[BlobRecord]]:
    """Fabricate a multi-arch image of ``size_gb`` total compressed size.

    Parameters
    ----------
    repository:
        Logical repository name (e.g. ``"vp-ha-train"``).
    size_gb:
        Target per-platform compressed size (``Size_mi`` of Table II).
    base:
        Shared base image; its layers count toward the total and are
        identical across images built on the same base.
    archs:
        Platforms to include (the paper tags amd64 + arm64).
    app_layers:
        Number of application layers on top of the base.

    Returns
    -------
    (manifest_list, blobs):
        The multi-arch manifest and every blob it references (config
        blobs materialised, layers synthetic).
    """
    if not archs:
        raise ValueError("at least one architecture required")
    total_bytes = gb_to_bytes(size_gb)
    manifests: List[ImageManifest] = []
    blobs: Dict[str, BlobRecord] = {}
    for arch in archs:
        base_blobs = base.layers_for(arch) if base is not None else []
        base_bytes = sum(b.size_bytes for b in base_blobs)
        app_bytes = max(0, total_bytes - base_bytes)
        app_sizes = split_sizes(app_bytes, app_layers, f"{repository}:{arch.value}")
        app_blobs = [
            synthetic_blob(f"app:{repository}:{arch.value}:layer{i}", size)
            for i, size in enumerate(app_sizes)
        ]
        config = config_blob(repository, arch)
        layer_blobs = base_blobs + app_blobs
        for blob in [config, *layer_blobs]:
            blobs[blob.digest] = blob
        manifests.append(
            ImageManifest(
                arch=arch,
                config_digest=config.digest,
                layers=tuple(
                    LayerDescriptor(b.digest, b.size_bytes) for b in layer_blobs
                ),
                annotations={"org.opencontainers.image.source": repository},
            )
        )
    mlist = ManifestList(
        manifests=tuple(manifests),
        annotations={"repro.repository": repository, "repro.tag": tag},
    )
    return mlist, list(blobs.values())
