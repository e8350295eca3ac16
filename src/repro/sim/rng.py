"""Named, seeded random streams.

Every stochastic component of the reproduction (benchmark jitter,
synthetic workload generation, tie-breaking) draws from a *named*
stream derived deterministically from a root seed, so that adding a new
consumer never perturbs the draws of existing ones — the classic
independent-streams discipline from parallel simulation practice.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


class RngRegistry:
    """Factory of independent :class:`numpy.random.Generator` streams.

    Each stream is keyed by a string name; its seed is derived by
    hashing ``(root_seed, name)`` so streams are uncorrelated and
    stable across runs and platforms.
    """

    def __init__(self, root_seed: int = 0) -> None:
        if root_seed < 0:
            raise ValueError(f"root seed must be >= 0, got {root_seed}")
        self._root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def derive_seed(self, name: str) -> int:
        """Deterministic 64-bit seed for stream ``name``."""
        digest = hashlib.sha256(
            f"{self._root_seed}:{name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, name: str) -> np.random.Generator:
        """The (memoised) generator for ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self.derive_seed(name))
        return self._streams[name]

    def fork(self, salt: str) -> "RngRegistry":
        """A new registry whose streams are independent of this one."""
        return RngRegistry(self.derive_seed(f"fork:{salt}") % (2**63))


DEFAULT_SEED = 20250323  # arXiv submission date of the paper


def default_registry() -> RngRegistry:
    """A fresh registry with the library-wide default seed."""
    return RngRegistry(DEFAULT_SEED)
