"""Frozen reference for the Zipf pull schedule.

An unchanged copy of the scenario builder's ``_zipf_schedule`` as it
shipped before its draws were batched: one ``choice`` per pull and one
``exponential`` per gap, drawn pull by pull, device by device.  It
stays here as the oracle the batched draws must match exactly, in
values and in where they leave each stream.
"""

from typing import List, Tuple

import numpy as np

from repro.registry.base import ImageReference


def reference_zipf_schedule(rng, devices, references, work):
    """Zipf-skewed demand with exponential arrivals, sorted by time."""
    n_images = len(references)
    weights = np.array([1.0 / (rank + 1) ** 1.1 for rank in range(n_images)])
    weights /= weights.sum()
    demand = rng.stream("p2p.demand")
    arrivals = rng.stream("p2p.arrivals")
    schedule: List[Tuple[float, str, ImageReference]] = []
    for dev in devices:
        t = float(arrivals.uniform(0.0, work.horizon_s * 0.3))
        for _ in range(work.pulls_per_device):
            ref = references[int(demand.choice(n_images, p=weights))]
            schedule.append((t, dev.name, ref))
            t += float(arrivals.exponential(work.horizon_s * 0.1))
    schedule.sort(key=lambda item: (item[0], item[1]))
    return schedule
