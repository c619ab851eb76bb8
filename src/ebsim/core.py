"""The phase metric the sampler reports each period.

A node's phase lives in [0, 1]: it fires (broadcasts) when the phase reaches
1 and resets to 0.  avg_phase_difference is a pure function over phases;
nodes, radios and event queues live elsewhere, and so does the coupling
jump, which sim.Engine.run applies in its reception step, on integer ticks.
"""

from __future__ import annotations

from typing import Mapping, Sequence


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
