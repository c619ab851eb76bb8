"""Phase arithmetic and convergence metrics for pulse-coupled wake-up slots.

A node's phase lives in [0, 1]: it fires (broadcasts) when the phase reaches
1 and resets to 0.  The remaining phase is 1 - phi.  Everything in this
module is a pure function over floats or integer tick counts; nodes, radios
and event queues live elsewhere.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence


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


def avg_phase_difference(phases: Mapping[int, float],
                         neighbours: Sequence[tuple[int, Sequence[int]]]) -> tuple[float, float]:
    """Network-average per-neighbourhood phase difference, (literal, circular).

    neighbours holds (node, its neighbour ids in ascending order) for each
    node averaged over.  For each, average |phi_i - phi_j| over its
    neighbours (for the circular value, each distance wrapped onto the
    circle), then average over those nodes.  Raises ValueError for a node
    without neighbours; callers must leave isolated nodes out.
    """
    literal = circular = 0.0
    for i, neigh in neighbours:
        if not neigh:
            raise ValueError(f"node {i} has no neighbours; exclude isolated nodes")
        phi = phases[i]
        lit = circ = 0.0
        for j in neigh:
            d = phi - phases[j]  # abs and min written out: the same floats
            if d < 0.0:
                d = -d
            lit += d
            e = 1.0 - d
            circ += e if e < d else d
        literal += lit / len(neigh)
        circular += circ / len(neigh)
    return literal / len(neighbours), circular / len(neighbours)
