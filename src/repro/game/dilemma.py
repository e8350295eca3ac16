"""The DEEP payoff framing: a cost tensor slice as a two-player game.

The paper models registry/device selection "using the prisoner dilemma
model within the nash equilibrium to optimize energy consumption
through cooperation between microservices and devices" (Sec. III-E).

:func:`energy_game` is the transformation DEEP applies to a cost tensor
slice: payoffs are *negated energies* (players maximise, the system
minimises energy), optionally perturbed by congestion penalties that
create the dilemma's cooperate/defect tension.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .normal_form import NormalFormGame


def energy_game(
    energy: np.ndarray,
    row_labels: Optional[Sequence[str]] = None,
    col_labels: Optional[Sequence[str]] = None,
    row_penalty: Optional[np.ndarray] = None,
    col_penalty: Optional[np.ndarray] = None,
) -> NormalFormGame:
    """Build DEEP's per-microservice game from an energy matrix.

    Parameters
    ----------
    energy:
        ``registries × devices`` matrix of ``EC(m_i, r_g, d_j)`` in
        joules; infeasible cells may be ``+inf``.
    row_penalty / col_penalty:
        Optional extra joule-equivalent costs charged to the registry
        player (e.g. bandwidth contention on a registry link) and the
        device player (e.g. occupancy of an already-loaded device).
        These are what turn the aligned minimisation into a dilemma:
        each player would privately dodge its penalty even when that
        raises the partner's (and the system's) cost.

    Returns
    -------
    NormalFormGame
        Row player = registry selector, column player = device
        selector; payoffs are negated (penalised) energies.  Infeasible
        cells become a large finite negative payoff so solvers stay in
        floating-point range while never choosing them when any
        feasible cell exists.
    """
    cost = np.asarray(energy, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"energy matrix must be 2-D, got shape {cost.shape}")
    if np.any(np.isnan(cost)):
        raise ValueError("energy matrix contains NaN")
    row_extra = np.zeros_like(cost) if row_penalty is None else np.asarray(row_penalty, float)
    col_extra = np.zeros_like(cost) if col_penalty is None else np.asarray(col_penalty, float)
    if row_extra.shape != cost.shape or col_extra.shape != cost.shape:
        raise ValueError("penalty shapes must match the energy matrix")

    finite = np.isfinite(cost)
    if not finite.any():
        raise ValueError("no feasible (registry, device) cell")
    # Infeasible sentinel: worse than any feasible outcome by a wide,
    # finite margin (solvers require finite payoffs).
    worst = cost[finite].max() + np.abs(row_extra).max() + np.abs(col_extra).max()
    sentinel = worst * 10.0 + 1e6
    patched = np.where(finite, cost, sentinel)
    return NormalFormGame(
        -(patched + np.where(finite, row_extra, 0.0)),
        -(patched + np.where(finite, col_extra, 0.0)),
        row_labels=row_labels,
        col_labels=col_labels,
    )
