"""Single engine steps, for tests of the node transitions.

The engine runs the wake check, collisions and the coupling jump inline in
its event loop, so a test reaches them by queueing ARRIVAL events and
running the loop.  The period end runs in the fire handler, which a test
takes from Engine._fire_handler and calls directly.
"""

from ebsim.sim import EventKind


def deliver(eng, end, *arrivals, events=()):
    """Run eng on the given (tick, receiver, sender) arrivals alone, up to
    tick end, a whole number of periods; returns the RunResult.

    The rest of the queue is dropped first, the nodes' FIRE entries with
    it, and, as in every run, a SAMPLE at end closes it and takes the run's
    counts into eng.stats; events holds further (tick, kind, node, payload)
    entries to queue.  A FIRE among them, its payload a seq, becomes the
    node's one queued entry, due at its tick.  What the arrivals queue past
    end is not processed, so a coupled node keeps the next_fire its jump
    gave it and a reception past end stays in flight.
    """
    periods, rest = divmod(end, eng.T)
    assert rest == 0, "the run must end on a period boundary"
    eng._heap.clear()
    for node in eng.nodes.values():
        node.armed.clear()
    eng._push(end, EventKind.SAMPLE, -1, -1, None)
    for at, recv, sender in arrivals:
        eng._push(at, EventKind.ARRIVAL, recv, sender, None)
    for at, kind, nid, payload in events:
        if kind == EventKind.FIRE:
            node = eng.nodes[nid]
            node.next_fire, node.armed[:] = at, [(at, payload)]
        eng._push(at, kind, nid, -1, payload)
    eng.horizon = periods
    return eng.run()


def fire(eng, nid, now):
    """Run node nid's period end at tick now through the engine's fire
    handler, which leaves re-arming the node to the loop; returns whether
    the fire went on air."""
    before = eng.stats["broadcasts"]
    eng._fire_handler()(now, eng.nodes[nid])
    return eng.stats["broadcasts"] > before
