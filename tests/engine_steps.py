"""Single engine steps, for tests of the node transitions.

The engine runs the wake check, collisions and the coupling jump inline in
its event loop, so a test reaches them by queueing ARRIVAL events and
running the loop.  The period end runs in the fire handler, which a test
calls directly.
"""

from ebsim.sim import EventKind


def deliver(eng, end, *arrivals, events=()):
    """Run eng on the given (tick, receiver, sender) arrivals alone, up to
    tick end, a whole number of periods; returns the RunResult.

    The rest of the queue is dropped first and, as in every run, a SAMPLE
    at end closes it and takes the run's counts into eng.stats; events
    holds further (tick, kind, node, payload) entries to queue, such as a
    FIRE carrying the node's fire_seq.  What the arrivals queue past end
    is not processed, so a coupled node keeps the next_fire its jump gave
    it and a reception past end stays in flight.
    """
    periods, rest = divmod(end, eng.T)
    assert rest == 0, "the run must end on a period boundary"
    eng._heap.clear()
    eng._push(end, EventKind.SAMPLE, -1, -1, None)
    for at, recv, sender in arrivals:
        eng._push(at, EventKind.ARRIVAL, recv, sender, None)
    for at, kind, node, payload in events:
        eng._push(at, kind, node, -1, payload)
    eng.horizon = periods
    return eng.run()


def fire(eng, nid, now):
    """Run node nid's period end at tick now through Engine._handle_fire;
    returns whether the fire went on air."""
    before = eng.stats["broadcasts"]
    eng._handle_fire(now, eng.nodes[nid])
    return eng.stats["broadcasts"] > before
