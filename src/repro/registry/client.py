"""Pull client: what a device's container runtime does at deploy time.

Two pull policies are supported:

* :attr:`PullPolicy.WHOLE_IMAGE` — the paper's model: an image either
  exists on the device (``Td = 0``) or the full ``Size_mi`` is
  transferred.  This is the default everywhere the paper's numbers are
  reproduced.
* :attr:`PullPolicy.LAYERED` — the content-addressable extension:
  only layers missing from the device cache are transferred, so images
  sharing a base (e.g. the HA/LA train/infer pairs built on
  ``python:3.9``) pay for the base once.  Evaluated in ablation A2.

The client does not know about time or energy: it reports *bytes
moved*, and the orchestrator/cost model turns bytes into seconds and
joules via the network and power models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from ..model.device import Arch
from .base import ImageReference, Registry
from .cache import EvictionRecord, ImageCache
from .manifest import ImageManifest


class PullPolicy(enum.Enum):
    """Granularity at which deployment transfers are charged."""

    WHOLE_IMAGE = "whole-image"
    LAYERED = "layered"


@dataclass(frozen=True)
class PullResult:
    """Outcome of one image pull.

    Attributes
    ----------
    reference:
        What was pulled.
    registry:
        Which registry served it.
    manifest:
        The platform manifest that was resolved.
    bytes_total:
        Full compressed image size (what a cold pull would move).
    bytes_transferred:
        What this pull actually moved given the cache state.
    layers_total / layers_transferred:
        Layer counts behind the byte numbers.
    evictions:
        Cache evictions triggered by admitting the image.
    """

    reference: ImageReference
    registry: str
    manifest: ImageManifest
    bytes_total: int
    bytes_transferred: int
    layers_total: int
    layers_transferred: int
    evictions: Tuple[EvictionRecord, ...] = ()

    @property
    def cache_hit(self) -> bool:
        """True when nothing had to be transferred."""
        return self.bytes_transferred == 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of bytes served locally."""
        if self.bytes_total == 0:
            return 1.0
        return 1.0 - self.bytes_transferred / self.bytes_total


class RegistryClient:
    """Pulls images from a registry into a device-local cache."""

    def __init__(self, policy: PullPolicy = PullPolicy.WHOLE_IMAGE) -> None:
        self.policy = policy

    def pull(
        self,
        registry: Registry,
        reference: ImageReference,
        arch: Arch,
        cache: ImageCache,
        client_name: str = "device",
        now_s: float = 0.0,
    ) -> PullResult:
        """Resolve and (if needed) transfer ``reference`` for ``arch``.

        Cache-hit pulls still resolve the manifest (like ``docker pull``
        revalidating a tag) but move zero bytes and are not metered
        against hub rate limits.
        """
        manifest = registry.resolve(reference, arch)
        total_layers = list(manifest.layers)
        bytes_total = manifest.total_layer_bytes

        if cache.has_image(manifest):
            for digest in manifest.layer_digests():
                cache.touch(digest)
            return PullResult(
                reference=reference,
                registry=registry.name,
                manifest=manifest,
                bytes_total=bytes_total,
                bytes_transferred=0,
                layers_total=len(total_layers),
                layers_transferred=0,
            )

        registry.meter_pull(client_name, now_s)

        if self.policy is PullPolicy.WHOLE_IMAGE:
            transferred_layers = total_layers
            bytes_transferred = bytes_total
        else:
            missing = set(cache.missing_layers(manifest))
            transferred_layers = [
                layer for layer in total_layers if layer.digest in missing
            ]
            bytes_transferred = sum(l.size_bytes for l in transferred_layers)

        # Integrity: every transferred layer must exist in the registry.
        for layer in transferred_layers:
            registry.fetch_blob(layer.digest)

        evictions = cache.admit_image(manifest)
        return PullResult(
            reference=reference,
            registry=registry.name,
            manifest=manifest,
            bytes_total=bytes_total,
            bytes_transferred=bytes_transferred,
            layers_total=len(total_layers),
            layers_transferred=len(transferred_layers),
            evictions=tuple(evictions),
        )
