"""Outside-in tracing for a traced child: span wrappers and a counting heap.

Wrappers are installed from the benchmark's side, at the names the engine
actually calls (``ebsim.protocol.on_message``, ``ebsim.sim.avg_phase_difference``,
``Engine.run`` and so on); the package itself is not edited.  Spans are
kept in compact in-memory arrays (name, parent, run id, start, end) and
reduced once, when the traced repetition ends.
"""

from __future__ import annotations

import heapq
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.run_id = 0

    def wrap(self, fn, span: str, after=None):
        """Return fn recording one span per call; after(args, result) runs
        inside the span."""
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        stack, names, parents, runs = self.stack, self.name, self.parent, self.run
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[i] = perf_counter()
                stack.pop()
        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, and 'outer'
        seconds (inclusive time of spans whose parent is another layer)."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer = [s.split(".", 1)[0] for s in self.names]
        out = {s: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "outer_s": 0.0}
               for s in self.names}
        for i in range(n):
            nid = self.name[i]
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["incl_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or layer[self.name[p]] != layer[nid]:
                rec["outer_s"] += dur[i]
        return out


def install(tracer: Tracer, module, attr: str, span: str, fn=None, after=None) -> bool:
    """Wrap module.attr wherever an ebsim module holds that same object.

    Modules that imported the function by name (``from .core import
    avg_phase_difference``) call it through their own global, so each such
    binding is replaced.  fn, when given, is wrapped in place of the
    original (it calls the original itself).  Returns False when the
    attribute does not exist.
    """
    orig = getattr(module, attr, None)
    if orig is None:
        return False
    wrapped = tracer.wrap(fn or orig, span, after)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("ebsim")
                and getattr(mod, attr, None) is orig):
            setattr(mod, attr, wrapped)
    return True


def public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


class CountingHeap:
    """Stand-in for ``heapq`` bound as ``ebsim.sim.heapq``.

    Counts pushes and pops by event kind (entry[1]), the heap's high-water
    mark, and stale FIRE pops: FIRE entries popped that execute no fire,
    because the node has left, its fire sequence number moved on, or the
    entry lies beyond the horizon.  One record per Engine, in construction
    order.  Entries whose layout it does not recognise are counted as
    'unknown', and a FIRE entry it cannot check marks staleness unknown.
    """

    def __init__(self, kind_names: dict[int, str]) -> None:
        self.kind_names = kind_names
        self.records: list[dict] = []
        self._engine = None
        self._rec: dict | None = None

    def new_run(self, engine) -> None:
        self._engine = engine
        self._rec = {"pushes": Counter(), "pops": Counter(), "heap_peak": 0,
                     "stale_fire_pops": 0, "stale_known": True}
        self.records.append(self._rec)

    def _kind(self, entry) -> str:
        try:
            return self.kind_names[entry[1]]
        except (TypeError, IndexError, KeyError):
            return "unknown"

    def heappush(self, heap, entry) -> None:
        heapq.heappush(heap, entry)
        rec = self._rec
        rec["pushes"][self._kind(entry)] += 1
        if len(heap) > rec["heap_peak"]:
            rec["heap_peak"] = len(heap)

    def heappop(self, heap):
        entry = heapq.heappop(heap)
        rec = self._rec
        kind = self._kind(entry)
        rec["pops"][kind] += 1
        if kind == "fire":
            engine = self._engine
            try:
                node = engine.nodes.get(entry[2])
                if (entry[0] > engine.horizon * engine.T or node is None
                        or entry[-1] != node.fire_seq):
                    rec["stale_fire_pops"] += 1
            except (AttributeError, IndexError, TypeError):
                rec["stale_known"] = False
        return entry

    def __getattr__(self, name):
        return getattr(heapq, name)
