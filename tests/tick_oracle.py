"""Brute-force step-by-step reference simulator.

Advances every node one tick at a time and applies the coupling rule
directly on arrivals, with none of the event-queue machinery: no heap, no
lazy invalidation, no airtime bookkeeping.  Only supports the lossless
configuration without collisions, with a fixed delay per directed link
given as data, which is what the equivalence check needs.

Kept deliberately flat and independent so it can serve as an oracle for
the event-driven engine: same seeded initial phases in, fire times and
per-period average phase differences out.
"""

from __future__ import annotations

import math
import random


class _ONode:
    def __init__(self, nid: int, first_fire: int, degree: int, epsilon: float):
        self.id = nid
        self.next_fire = first_fire
        self.estimate = degree
        self.epsilon = epsilon
        self.steady = False
        self.recovering = False
        self.heard_setw: set[int] = set()
        self.heard_any: set[int] = set()


def run_oracle(topology, period: int, epsilon: float, sigma: float,
               s_th: float, horizon: int, seed: int,
               delays: dict[tuple[int, int], int] | None = None):
    """Run the tick loop; returns (fire_times, dphi_rows).

    delays maps (sender, receiver) to the ticks a fire takes to arrive
    (absent: 0).  fire_times maps node id -> list of absolute fire ticks;
    dphi_rows is a list of (literal, circular) network-average phase
    differences sampled at every period boundary k*T for k = 1..horizon.
    """
    delays = delays or {}
    rng = random.Random(seed)
    ids = sorted(topology.node_ids)
    nodes: dict[int, _ONode] = {}
    for nid in ids:
        first = rng.randint(1, period)
        nodes[nid] = _ONode(nid, first, topology.degree(nid), epsilon)
    fire_times: dict[int, list[int]] = {nid: [] for nid in ids}
    rows: list[tuple[float, float]] = []
    inbox: dict[int, list[tuple[int, int]]] = {}  # tick -> (receiver, sender)

    for t in range(0, horizon * period + 1):
        for nid in ids:
            node = nodes[nid]
            if node.next_fire != t:
                continue
            fire_times[nid].append(t)
            node.next_fire = t + period
            # end-of-period bookkeeping, then a fresh period
            if node.recovering:
                node.estimate = len(node.heard_any)
                node.recovering = False
                node.steady = False
            else:
                if not node.steady and node.heard_any:
                    node.estimate = len(node.heard_any)
                s = 100.0 * len(node.heard_setw) / max(1, node.estimate)
                if s > 100.0:
                    node.estimate = len(node.heard_setw)
                    s = 100.0
                if node.steady and s < s_th:
                    node.recovering = True
                elif not node.steady and s >= s_th:
                    node.steady = True
            node.heard_setw = set()
            node.heard_any = set()
            for recv in topology.neighbors(nid):
                at = t + delays.get((nid, recv), 0)
                inbox.setdefault(at, []).append((recv, nid))
        for recv, sender in sorted(inbox.pop(t, ())):
            node = nodes[recv]
            remaining = node.next_fire - t
            phi = 1.0 - remaining / period
            setw = phi <= node.epsilon or phi >= 1.0 - node.epsilon
            if node.steady and not node.recovering and not setw:
                continue  # asleep
            node.heard_any.add(sender)
            if setw:
                node.heard_setw.add(sender)
            if node.epsilon < phi < 1.0 - node.epsilon:
                if remaining > 1:
                    jumped = int(math.floor(sigma * remaining + 0.5))
                    node.next_fire = t + min(remaining, max(1, jumped))
        if t > 0 and t % period == 0:
            lit = circ = 0.0
            for nid in ids:
                neigh = sorted(topology.neighbors(nid))
                phi_i = 1.0 - (nodes[nid].next_fire - t) / period
                dl = dc = 0.0
                for j in neigh:
                    d = abs(phi_i - (1.0 - (nodes[j].next_fire - t) / period))
                    dl += d
                    dc += min(d, 1.0 - d)
                lit += dl / len(neigh)
                circ += dc / len(neigh)
            rows.append((lit / len(ids), circ / len(ids)))
    return fire_times, rows
