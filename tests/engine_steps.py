"""Single engine steps, for tests of the node transitions.

The engine runs every node transition inline in its event loop: the wake
check, collisions and the coupling jump on an ARRIVAL, the period end and
the mode step on a FIRE.  A test reaches them by queueing those events
alone and running the loop.
"""

import heapq

from ebsim import sim
from ebsim.sim import EventKind


def deliver(eng, end, *arrivals, events=()):
    """Run eng on the given (tick, receiver, sender) arrivals alone, up to
    tick end, a whole number of periods; returns the RunResult.

    The rest of the queue is dropped first, the nodes' FIRE entries with
    it, and, as in every run, a SAMPLE at end closes it and the run adds
    its counts to eng.stats; events holds further whole (tick, kind, node,
    datum) entries, queued as given.  A FIRE among them, its datum a seq,
    becomes the node's one queued entry, due at its tick.  What the
    arrivals queue past end is not processed, so a coupled node keeps the
    next_fire its jump gave it and a reception past end stays in flight.
    """
    periods, rest = divmod(end, eng.T)
    assert rest == 0, "the run must end on a period boundary"
    eng._heap.clear()
    for node in eng.nodes.values():
        node.armed.clear()
    heapq.heappush(eng._heap, (end, EventKind.SAMPLE, -1, None))
    for at, recv, sender in arrivals:
        heapq.heappush(eng._heap, (at, EventKind.ARRIVAL, recv, sender))
    for entry in events:
        at, kind, nid, datum = entry
        if kind == EventKind.FIRE:
            node = eng.nodes[nid]
            node.next_fire, node.armed[:] = at, [(at, datum)]
        heapq.heappush(eng._heap, entry)
    eng.horizon = periods
    return eng.run()


class _HoldArrivals:
    """Stand-in for heapq that holds back the ARRIVAL entries pushed."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self) -> None:
        self.held = []

    def heappush(self, heap, entry) -> None:
        if entry[1] == EventKind.ARRIVAL:
            self.held.append(entry)
        else:
            heapq.heappush(heap, entry)


def fire(eng, nid, now):
    """Run node nid's period end at tick now through the engine loop, as a
    FIRE event delivered alone; returns whether the fire went on air.

    While the loop runs, sim.heapq holds back the ARRIVAL entries the fire
    makes, so none is delivered; they are queued in eng._heap afterwards.
    """
    before, hold = eng.stats["broadcasts"], _HoldArrivals()
    bound, sim.heapq = sim.heapq, hold
    try:
        deliver(eng, -(-now // eng.T) * eng.T, events=[(now, EventKind.FIRE, nid, 0)])
    finally:
        sim.heapq = bound
    for entry in hold.held:
        heapq.heappush(eng._heap, entry)
    return eng.stats["broadcasts"] > before
