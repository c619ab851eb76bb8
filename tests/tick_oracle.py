"""Brute-force step-by-step reference simulator.

Advances every node one tick at a time and applies the coupling rule
directly on receptions, with none of the event-queue machinery: no heap,
no lazy invalidation, no commit queue.  Only supports the lossless
configuration, with a fixed delay per directed link given as data and,
optionally, collisions with an airtime of beta ticks and an
Initialization of a few listening periods, which is what the equivalence
check needs.

Kept deliberately flat and independent so it can serve as an oracle for
the event-driven engine: same seeded initial phases in, fire times and
per-period average phase differences out.
"""

from __future__ import annotations

import math
import random


class _ONode:
    def __init__(self, nid: int, first_fire: int, estimate: int, epsilon: float,
                 listening: int):
        self.id = nid
        self.next_fire = first_fire
        self.estimate = estimate
        self.epsilon = epsilon
        self.listening = listening  # Initialization periods (fires) still to come
        self.steady = False
        self.recovering = False
        self.heard_setw: set[int] = set()
        self.heard_any: set[int] = set()
        self.busy_until = 0  # the radio is busy before this tick
        self.pending: tuple[int, int] | None = None  # in flight: (sender, commit tick)


def run_oracle(topology, period: int, epsilon: float, sigma: float,
               s_th: float, horizon: int, seed: int,
               delays: dict[tuple[int, int], int] | None = None,
               beta: int | None = None, init_listen_periods: int = 0):
    """Run the tick loop; returns (fire_times, dphi_rows).

    delays maps (sender, receiver) to the ticks a fire takes to arrive
    (absent: 0).  With beta set, an arrival at tick t claims the radio for
    [t, t + beta); one that overlaps a claim destroys itself and the
    reception in flight, and extends the claim.  A reception commits at
    t + beta, after that tick's fires and before its arrivals, in node
    order, and takes the phase at its commit.  With init_listen_periods
    k > 0 every node starts with an estimate of 0 and no coupling, collects
    every sender it hears over its first k periods (fires), and then
    synchronizes with that count, with no S test at that fire.  fire_times
    maps node id -> list of absolute fire ticks; dphi_rows is a list of
    (literal, circular) network-average phase differences sampled at every
    period boundary k*T for k = 1..horizon.
    """
    delays = delays or {}
    rng = random.Random(seed)
    ids = sorted(topology.node_ids)
    nodes: dict[int, _ONode] = {}
    for nid in ids:
        first = rng.randint(1, period)
        estimate = 0 if init_listen_periods else len(topology.adjacency[nid])
        nodes[nid] = _ONode(nid, first, estimate, epsilon, init_listen_periods)
    fire_times: dict[int, list[int]] = {nid: [] for nid in ids}
    rows: list[tuple[float, float]] = []
    # tick -> (0 commit | 1 arrival, receiver, sender): commits sort first
    inbox: dict[int, list[tuple[int, int, int]]] = {}

    for t in range(0, horizon * period + 1):
        for nid in ids:
            node = nodes[nid]
            if node.next_fire != t:
                continue
            fire_times[nid].append(t)
            node.next_fire = t + period
            # end-of-period bookkeeping, then a fresh period
            if node.listening:
                node.listening -= 1
                if not node.listening:
                    node.estimate = len(node.heard_any)
            elif node.recovering:
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
            if not node.listening:
                node.heard_any = set()
            for recv in topology.adjacency[nid]:
                at = t + delays.get((nid, recv), 0)
                inbox.setdefault(at, []).append((1, recv, nid))
        for kind, recv, sender in sorted(inbox.pop(t, ())):
            node = nodes[recv]
            remaining = node.next_fire - t
            phi = 1.0 - remaining / period
            setw = phi <= node.epsilon or phi >= 1.0 - node.epsilon
            if kind == 0:
                if node.pending != (sender, t):
                    continue  # a collision destroyed it
                node.pending = None
            elif node.steady and not node.recovering and not setw:
                continue  # asleep
            elif beta is not None:
                if t < node.busy_until:  # overlapping airtime: both are lost
                    node.pending = None
                    node.busy_until = max(node.busy_until, t + beta)
                else:
                    node.pending = (sender, t + beta)
                    node.busy_until = t + beta
                    inbox.setdefault(t + beta, []).append((0, recv, sender))
                continue
            node.heard_any.add(sender)
            if setw:
                node.heard_setw.add(sender)
            if node.epsilon < phi < 1.0 - node.epsilon and not node.listening:
                if remaining > 1:
                    jumped = int(math.floor(sigma * remaining + 0.5))
                    node.next_fire = t + min(remaining, max(1, jumped))
        if t > 0 and t % period == 0:
            lit = circ = 0.0
            for nid in ids:
                neigh = sorted(topology.adjacency[nid])
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
