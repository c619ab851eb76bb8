"""Network graph model and generators for experiment topologies."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


class TopologyError(ValueError):
    pass


@dataclass
class Topology:
    """Graph with per-node neighbour sets.

    Undirected: adjacency must be symmetric.  Node ids are non-negative
    integers.  Instances are cheap to copy and are treated as
    immutable by everything except the churn machinery in the simulator.
    """

    adjacency: dict[int, set[int]]

    def __post_init__(self) -> None:
        if not self.adjacency:
            raise TopologyError("topology must contain at least one node")
        for u, neigh in self.adjacency.items():
            if u in neigh:
                raise TopologyError(f"self-loop at node {u}")
            for v in neigh:
                if v not in self.adjacency:
                    raise TopologyError(f"edge {u}-{v} references unknown node {v}")
                if u not in self.adjacency[v]:
                    raise TopologyError(f"asymmetric edge {u}-{v}")

    @property
    def node_ids(self) -> list[int]:
        return sorted(self.adjacency)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def neighbors(self, nid: int) -> set[int]:
        return self.adjacency[nid]

    def degree(self, nid: int) -> int:
        return len(self.adjacency[nid])

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2

    @property
    def average_degree(self) -> float:
        return sum(len(v) for v in self.adjacency.values()) / self.n

    def copy(self) -> "Topology":
        return Topology({u: set(v) for u, v in self.adjacency.items()})

    def add_node(self, nid: int, edges: tuple[int, ...] | list[int]) -> None:
        if nid in self.adjacency:
            raise TopologyError(f"node {nid} already exists")
        for v in edges:
            if v == nid:
                raise TopologyError(f"self-loop at node {nid}")
            if v not in self.adjacency:
                raise TopologyError(f"edge {nid}-{v} references unknown node {v}")
        self.adjacency[nid] = set(edges)
        for v in edges:
            self.adjacency[v].add(nid)

    def remove_node(self, nid: int) -> None:
        if nid not in self.adjacency:
            raise TopologyError(f"node {nid} does not exist")
        del self.adjacency[nid]
        for neigh in self.adjacency.values():
            neigh.discard(nid)

    def is_connected(self) -> bool:
        ids = self.node_ids
        seen = {ids[0]}
        frontier = [ids[0]]
        while frontier:
            u = frontier.pop()
            for v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == self.n


def make_regular_grid(rows: int, cols: int, wraparound: bool) -> Topology:
    """Grid of rows x cols nodes, each linked to its 4 nearest neighbours.

    With wraparound=True the grid closes into a torus and every node has
    degree exactly 4.
    """
    if rows < 2 or cols < 2:
        raise TopologyError("grid needs rows >= 2 and cols >= 2")
    adjacency: dict[int, set[int]] = {r * cols + c: set() for r in range(rows) for c in range(cols)}
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                rr, cc = r + dr, c + dc
                if wraparound:
                    rr, cc = rr % rows, cc % cols
                elif not (0 <= rr < rows and 0 <= cc < cols):
                    continue
                other = rr * cols + cc
                if other != nid:
                    adjacency[nid].add(other)
    return Topology(adjacency)


def make_complete(n: int) -> Topology:
    if n < 1:
        raise TopologyError("need n >= 1")
    return Topology({i: set(range(n)) - {i} for i in range(n)})


def make_random_geometric(n: int, radius: float, seed: int) -> Topology:
    """Nodes placed uniformly in the unit square; edges below the radius.

    Deterministic for a given seed.
    """
    if n < 1:
        raise TopologyError("need n >= 1")
    if radius < 0:
        raise TopologyError("radius must be >= 0")
    rng = random.Random(seed)
    pos = [(rng.random(), rng.random()) for _ in range(n)]
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    r2 = radius * radius
    for i in range(n):
        xi, yi = pos[i]
        for j in range(i + 1, n):
            xj, yj = pos[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= r2:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return Topology(adjacency)


def radius_for_average_degree(n: int, target: float, seed: int,
                              tol: float = 0.25, iterations: int = 48) -> float:
    """Bisect the connection radius until the generated graph's average
    degree is within tol of the target (same seed as the final graph)."""
    lo, hi = 0.0, math.sqrt(2.0)
    r = hi
    for _ in range(iterations):
        r = (lo + hi) / 2
        deg = make_random_geometric(n, r, seed).average_degree
        if abs(deg - target) <= tol:
            return r
        if deg < target:
            lo = r
        else:
            hi = r
    return r


def load_topology(path: str) -> Topology:
    """Read an edge-list file: one "u v" pair per line, '#' lines ignored.

    An optional "nodes N" directive (before any edge) declares the id range
    0..N-1 up front; edges outside it are rejected, and ids not touched by
    any edge stay in the graph as isolated nodes.
    """
    adjacency: dict[int, set[int]] = {}
    declared: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "nodes":
                if adjacency:
                    raise TopologyError(f"{path}:{lineno}: 'nodes' directive must precede edges")
                if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                    raise TopologyError(f"{path}:{lineno}: malformed 'nodes' directive")
                declared = int(parts[1])
                adjacency = {i: set() for i in range(declared)}
                continue
            if len(parts) != 2:
                raise TopologyError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise TopologyError(f"{path}:{lineno}: node ids must be integers") from None
            if u < 0 or v < 0:
                raise TopologyError(f"{path}:{lineno}: node ids must be non-negative")
            if u == v:
                raise TopologyError(f"{path}:{lineno}: self-loop {u}-{v}")
            if declared is not None and (u >= declared or v >= declared):
                raise TopologyError(f"{path}:{lineno}: unknown node id (>= declared count {declared})")
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
    if not adjacency:
        raise TopologyError(f"{path}: no nodes found")
    return Topology(adjacency)
