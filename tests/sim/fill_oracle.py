"""Frozen reference for the transfer engine's progressive-filling kernel.

A copy, as a standalone function, of the scalar fill the engine
shipped before its kernel was rewritten: name-keyed bookkeeping,
counts tallied from the fill set, transfers frozen in sorted-id order,
builtin ``max`` clamp.  It stays here unchanged as the oracle the live
kernel must match bit for bit, because ``self_check`` only compares
the engine's kernel with itself.
"""

from typing import Dict, List, Optional


def reference_fill(transfers) -> Dict[int, float]:
    """Max-min fair rates for ``transfers`` (a union of whole
    components of the transfer-link graph), keyed by transfer id."""
    record: Dict[int, float] = {}
    capacity_left: Dict[str, float] = {}
    unfrozen_count: Dict[str, int] = {}
    involved: List = []
    for transfer in transfers.values():
        for link in transfer.links:
            if link.name not in capacity_left:
                capacity_left[link.name] = link.capacity_mbps
                unfrozen_count[link.name] = 0
                involved.append(link)
            unfrozen_count[link.name] += 1
    frozen: Dict[int, bool] = {}
    remaining = len(transfers)
    while remaining > 0:
        # Bottleneck link: the one whose equal split is smallest.
        best_link: Optional[object] = None
        best_share = 0.0
        for link in involved:
            count = unfrozen_count[link.name]
            if count == 0:
                continue
            share = capacity_left[link.name] / count
            if best_link is None or share < best_share or (
                share == best_share and link.name < best_link.name
            ):
                best_link, best_share = link, share
        assert best_link is not None  # remaining > 0 implies a link
        for tid in sorted(best_link.transfers):
            if tid in frozen:
                continue
            transfer = best_link.transfers[tid]
            record[tid] = best_share
            frozen[tid] = True
            remaining -= 1
            for link in transfer.links:
                capacity_left[link.name] = max(
                    0.0, capacity_left[link.name] - best_share
                )
                unfrozen_count[link.name] -= 1
    return record
