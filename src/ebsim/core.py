"""Phase arithmetic and convergence metrics for pulse-coupled wake-up slots.

A node's phase lives in [0, 1]: it fires (broadcasts) when the phase reaches
1 and resets to 0.  The remaining phase is 1 - phi.  Everything in this
module is a pure function over floats or integer tick counts; nodes, radios
and event queues live elsewhere.
"""

from __future__ import annotations

import math
from typing import Mapping


def advance_remaining_ticks(remaining: int, sigma: float) -> int:
    """Tick-domain advancement: new tick count until the node's next fire.

    Hearing a fire at phase phi advances it to 1 - sigma * (1 - phi), so
    the new remaining is sigma * remaining, rounded half-up, floored at 1
    tick so a reaction never fires within the same tick, and capped at the
    old remaining so phases only move forward.
    """
    if remaining <= 1:
        return remaining
    jumped = int(math.floor(sigma * remaining + 0.5))
    return min(remaining, max(1, jumped))


def in_setw(phi: float, epsilon: float) -> bool:
    """True when the phase sits inside the wake window straddling the fire
    instant: within epsilon of 0 or of 1."""
    return phi <= epsilon or phi >= 1.0 - epsilon


def avg_phase_difference(phases: Mapping[int, float], topology, circular: bool) -> float:
    """Network-average per-neighbourhood phase difference.

    For every node in phases, average |phi_i - phi_j| over its neighbours
    (wrapped onto the circle when circular=True), then average over those
    nodes.  Raises ValueError for nodes without neighbours; callers must
    leave isolated nodes out of phases.
    """
    total = 0.0
    for i, phi in phases.items():
        neigh = topology.neighbors(i)
        if not neigh:
            raise ValueError(f"node {i} has no neighbours; exclude isolated nodes")
        acc = 0.0
        for j in sorted(neigh):
            d = abs(phi - phases[j])
            if circular:
                d = min(d, 1.0 - d)
            acc += d
        total += acc / len(neigh)
    return total / len(phases)
