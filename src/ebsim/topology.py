"""Network graph model and generators for experiment topologies."""

from __future__ import annotations

import random


class TopologyError(ValueError):
    pass


class Topology:
    """Graph with per-node neighbour sets, an immutable value.

    Undirected: adjacency, read directly, must be symmetric.  Node ids are
    non-negative integers, node_ids in ascending order.  The simulator reads
    it once; churn edits the engine's own link table, never the topology.
    Equal by adjacency, and unhashable.
    """

    __slots__ = ("adjacency",)

    def __init__(self, adjacency: dict[int, set[int]]) -> None:
        self.adjacency = adjacency
        if not adjacency:
            raise TopologyError("topology must contain at least one node")
        for u, neigh in adjacency.items():
            if u in neigh:
                raise TopologyError(f"self-loop at node {u}")
            for v in neigh:
                if v not in adjacency:
                    raise TopologyError(f"edge {u}-{v} references unknown node {v}")
                if u not in adjacency[v]:
                    raise TopologyError(f"asymmetric edge {u}-{v}")

    def __eq__(self, other: object) -> bool:
        return self.adjacency == other.adjacency if type(other) is Topology else NotImplemented

    def __repr__(self) -> str:
        return f"Topology(adjacency={self.adjacency!r})"

    @property
    def node_ids(self) -> list[int]:
        return sorted(self.adjacency)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def average_degree(self) -> float:
        return sum(len(v) for v in self.adjacency.values()) / self.n


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
                try:
                    declared = int(parts[1]) if len(parts) == 2 and parts[1].isdecimal() else 0
                except ValueError:  # more digits than int() converts
                    declared = 0
                if declared < 1:
                    raise TopologyError(f"{path}:{lineno}: malformed 'nodes' directive")
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
