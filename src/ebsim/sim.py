"""Deterministic discrete-event simulation engine.

A run's inputs are one RunSpec: run_error judges it, Engine(spec) runs
it, and run(topology, protocol, **fields) builds one.  Time is integer
ticks (1 tick = 1 ms of model time by default).  Every queued event is a
(time, kind, node, datum) tuple, ordered as such (see EventKind), so a
run is bitwise reproducible for a given (scenario, seed).  Kind priority
at one tick: churn, then fires (and the period-boundary processing they
imply), then reception commits, then message arrivals, then the metrics
sample.  Commits wait in a FIFO, the rest in a binary heap; the event
loop merges the two by that key.  A node's queued FIRE entries are a
stack (NodeState.armed), earliest on top: a jump queues one only before
the top, a top due at next_fire fires the node and an earlier one wakes
it to re-arm; any other is a predecessor's.  Engine.run handles every
arrival, commit and fire inline, and counts in locals that it adds to
the run's stats once the loop ends.
"""

import heapq
import itertools
import random
from collections import deque
from enum import IntEnum
from typing import NamedTuple

from . import protocol
from .core import avg_phase_difference
from .metrics import MetricsRow, left_sum
from .protocol import Mode, MrfConfig, NodeState, ProtocolConfig, Variant
from .topology import Topology


class SimulationError(RuntimeError):
    pass


class EventKind(IntEnum):
    """The kind of a queued (time, kind, node, datum) entry, in priority order.

    The datum is an ARRIVAL's sender, a FIRE entry's seq (the only numbers
    the engine's counter draws), an RX_COMMIT's pending (sender, arrival
    tick), a CHURN's (schedule index, event) and the SAMPLE's None (node
    -1).  Tied ARRIVAL entries are identical, so the datum ends every tie.  A
    reception whose airtime [arrival, arrival + beta) closes at tick t
    commits before a fresh arrival at t may claim the radio, so
    back-to-back receptions do not collide.  Each commit is made beta after
    the ARRIVAL being handled, at most one per (tick, node), so they come
    in key order and Engine.run queues them in a FIFO, not the heap.
    """

    CHURN = 0
    FIRE = 1
    RX_COMMIT = 2
    ARRIVAL = 3
    SAMPLE = 4


# plain ints for the heap entries and the dispatch in Engine.run
_CHURN, _FIRE, _RX_COMMIT, _ARRIVAL, _SAMPLE = map(int, EventKind)
# an arrival attempt ends lost, dropped_asleep, collided, departed, received or in_flight
_LEDGER = ("broadcasts", "arrival_attempts", "lost", "collisions", "dropped_asleep",
           "received", "collided", "departed", "in_flight")


class DelayModel(NamedTuple):
    """Propagation delay in ticks: per-message jitter (``kind``) plus,
    when link_hi is set, a fixed offset per directed link drawn once from
    [link_lo, link_hi]; the offsets model stable propagation/processing
    skew, so coincidences between senders are stable too.  A plain record:
    run_error judges the values.
    """

    kind: str = "none"  # none | deterministic | uniform
    nu: int = 0
    lo: int = 0
    hi: int = 0
    link_lo: int = 0
    link_hi: int | None = None  # None: no per-link offsets
    link_seed: int = 0

    def link_table(self, topology: Topology) -> dict[tuple[int, int], int]:
        """Each directed link's offset, drawn from Random(link_seed) in
        sorted (sender, receiver) order; empty when link_hi is None."""
        if self.link_hi is None:
            return {}
        rng = random.Random(self.link_seed)
        return {(a, b): rng.randint(self.link_lo, self.link_hi)
                for a in topology.node_ids for b in sorted(topology.adjacency[a])}

    def constant(self) -> int | None:
        """Every message's jitter when it takes no draw; None for uniform."""
        return {"none": 0, "deterministic": self.nu}.get(self.kind)


class LinkFaultModel(NamedTuple):
    """Independent per-(message, receiver) loss plus optional collisions.

    With collisions enabled, two receptions at one node whose airtime
    intervals [arrival, arrival + beta) overlap destroy each other.  A
    plain record: run_error judges the values.
    """

    loss_probability: float = 0.0
    collisions_enabled: bool = False
    airtime_beta: int = 4


class ClockDriftModel(NamedTuple):
    """Per-node rate skew, uniform in [skew_ppm_min, skew_ppm_max]; run_error judges it."""

    skew_ppm_min: float = 0.0
    skew_ppm_max: float = 0.0


class ChurnEvent(NamedTuple):
    """A node leaving, or joining with edges, at the start of a period.  A
    plain record: run_error replays the schedule on the network."""

    at_period: int
    action: str  # join | leave
    node_id: int
    edges: tuple[int, ...] = ()


class RunSpec(NamedTuple):
    """A run's inputs, each stated once (horizon in periods, payload_rate
    the chance that a fire carries a payload); run_error judges them."""

    topology: Topology
    protocol: ProtocolConfig
    mrf: MrfConfig | None = None
    delay: DelayModel = DelayModel()
    fault: LinkFaultModel = LinkFaultModel()
    drift: ClockDriftModel = ClockDriftModel()
    churn: tuple[ChurnEvent, ...] = ()
    horizon: int = 50
    seed: int = 0
    payload_rate: float = 1.0


class RunResult(NamedTuple):
    series: list[MetricsRow]                     # one row per period
    flap_events: list[tuple[int, int]]           # (tick, node id)
    fire_times: dict[int, list[int]]
    final_nodes: dict[int, NodeState]
    warnings: list[str]
    stats: dict[str, int]
    trace: list[str] | None = None


class Engine:
    """Single-threaded event loop over one network.

    Without mrf the nodes run the four-mode protocol; with it, the
    refractory-period baseline (always broadcasting, deaf and asleep for
    the refractory stretch after each own fire).  The engine runs every
    node transition inline in run: reception, the period end and the mode
    step.  What run_error refuses is a SimulationError, raised before any
    event.
    """

    def __init__(self, spec: RunSpec, trace: bool = False) -> None:
        if bad := run_error(spec):
            raise SimulationError(bad[1])
        self.spec = spec
        self.horizon, self.T = spec.horizon, spec.protocol.period_t
        self.rng = random.Random(spec.seed)
        self.trace: list[str] | None = [] if trace else None
        topology = spec.topology
        # thr_pct's divisor per live node: the pre-churn average degree, not a ceiling
        self.avg_degree = topology.average_degree

        self._heap: list = []
        self._counter = itertools.count(1)
        # the live network, the engine's only one, read once from the
        # caller's topology: per sender, (receiver, link offset) in receiver
        # order.  Churn edits it, the sampler reads it each period; offsets
        # are drawn against the initial links only
        offsets = spec.delay.link_table(topology)
        self._fanout = {u: tuple((v, offsets.get((u, v), 0)) for v in sorted(topology.adjacency[u]))
                        for u in topology.node_ids}
        self.nodes: dict[int, NodeState] = {}
        self.warnings: list[str] = []
        self.flap_events: list[tuple[int, int]] = []
        self.series: list[MetricsRow] = []
        self.stats = dict.fromkeys(_LEDGER, 0)

        for nid in topology.node_ids:
            self._spawn_node(nid, 0)
        for i, ev in enumerate(spec.churn):
            heapq.heappush(self._heap, (ev.at_period * self.T, _CHURN, ev.node_id, (i, ev)))
        # each handled sample queues the next one
        heapq.heappush(self._heap, (self.T, _SAMPLE, -1, None))

    # -- plumbing ------------------------------------------------------

    def _spawn_node(self, nid: int, now: int) -> None:
        spec, cfg, rng, low, high = self.spec, self.spec.protocol, self.rng, *self.spec.drift
        # no skew draw when both bounds are 0, so a driftless run leaves the RNG stream alone
        period = skewed_period(self.T, rng.uniform(low, high) if low or high else 0.0)
        node = NodeState(period_ticks=period, next_fire=now + rng.randint(1, period),
                         epsilon_eff=cfg.epsilon, period_start=now)
        if spec.mrf is not None:
            node.mode = Mode.SYNCHRONIZATION  # the coupling gate skips initialization
        elif cfg.init_listen_periods == 0:
            # pre-initialized: coupling from the first tick, the estimate from the network
            node.mode = Mode.SYNCHRONIZATION
            node.neighbor_count_estimate = len(self._fanout[nid])
            node.epsilon_eff = protocol.effective_epsilon(cfg, node.neighbor_count_estimate)
        # no draw at the certain rates, so they leave the RNG stream alone
        rate = spec.payload_rate
        node.pending_payload = rate >= 1.0 or (rate > 0.0 and rng.random() < rate)
        self.nodes[nid] = node
        seq = next(self._counter)  # fresh: a predecessor's entries are foreign
        node.armed.append((node.next_fire, seq))
        heapq.heappush(self._heap, (node.next_fire, _FIRE, nid, seq))

    # -- event handlers --------------------------------------------------

    def run(self) -> RunResult:
        """Process the events up to the horizon.

        An arrival that passes the wake check either claims the radio for
        beta ticks (collisions on; its RX_COMMIT ends the airtime) or is
        received at once.  Both ways end in the one reception step: it
        records the sender and, strictly between the window edges, applies
        the coupling jump (Mirollo & Strogatz 1990): the remaining ticks
        become sigma * remaining, rounded half-up and at least 1, if fewer.
        A FIRE entry is checked against its node's stack; one due at
        next_fire ends the node's period: it counts the ticks the node was
        awake (all, except asleep in a sleeping baseline's refractory
        stretch or outside a steady node's window) and, for EBS, takes the
        mode step.  Every baseline fire goes on air; an EBS fire does
        without reach-back (a fresh sync message, or piggybacking a payload)
        and with partial reach-back only when it carries a pending payload.
        A broadcast draws loss, then jitter, per receiver.
        """
        spec, end = self.spec, self.horizon * self.T
        cfg, rng, heap, nodes, trace = spec.protocol, self.rng, self._heap, self.nodes, self.trace
        warnings, flap_events = self.warnings, self.flap_events
        pop, push, counter, fanouts = heapq.heappop, heapq.heappush, self._counter, self._fanout
        sigma, s_th, adaptive, rate = cfg.sigma, cfg.s_th, cfg.adaptive_c, spec.payload_rate
        # decided once per run: the payload draw per fire (a certain payload
        # is set at spawn), the loss and jitter draws per receiver
        ebs, drawn = spec.mrf is None, rate < 1.0
        every = not ebs or cfg.variant is Variant.NO_REACHBACK
        collide, beta = spec.fault.collisions_enabled, spec.fault.airtime_beta
        loss, lo, hi = spec.fault.loss_probability, spec.delay.lo, spec.delay.hi
        jitter = spec.delay.constant()  # None: one uniform draw per message
        lossy, uniform, fixed = loss > 0, jitter is None, jitter or 0
        # the baseline is uncoupled, and asleep and deaf if it sleeps, for
        # the refractory stretch after each own fire; its window stays epsilon
        refractory = 0 if ebs else spec.mrf.refractory
        sleep = refractory if not ebs and spec.mrf.sleep_during_refractory else 0
        init, sync, steady, recovery = Mode  # locals: a Mode.STEADY read costs ~0.1 us
        arrival, commit, fire = _ARRIVAL, _RX_COMMIT, _FIRE
        received = dropped = collided = departed = popped_past = 0
        broadcasts = attempts = lost = collisions = awake = sampled = 0
        commits = deque()  # RX_COMMITs, made in key order (see EventKind)
        while heap or commits:
            if commits and (not heap or commits[0] < heap[0]):
                time, kind, nid, datum = commits.popleft()
            else:
                time, kind, nid, datum = pop(heap)
            if time > end:
                popped_past = kind == arrival
                break
            if kind == arrival:
                node = nodes.get(nid)
                if node is None:
                    departed += 1
                    continue
                remaining, period, eps = node.next_fire - time, node.period_ticks, node.epsilon_eff
                phi = 1.0 - remaining / period
                in_window = phi <= eps or phi >= 1.0 - eps
                if (sleep and phi * period < sleep) or (not in_window and node.mode is steady):
                    dropped += 1
                    continue
                if collide:
                    busy = node.rx_busy_until
                    if time < busy:
                        # overlapping airtime destroys both the in-flight and the new one
                        collided += 1 if node.rx_pending is None else 2
                        collisions += 1
                        node.rx_pending = None
                        node.rx_busy_until = max(busy, time + beta)
                        if trace is not None:
                            trace.append(f"{time}\tcollision\tnode={nid}\tsender={datum}")
                    else:
                        node.rx_busy_until = time + beta
                        node.rx_pending = pending = (datum, time)
                        commits.append((time + beta, commit, nid, pending))
                    continue
                sender = datum
            elif kind == commit:
                node = nodes.get(nid)
                if node is None or datum != node.rx_pending:
                    continue  # counted when a collision or a leave ended it
                node.rx_pending, sender = None, datum[0]
                remaining, period, eps = node.next_fire - time, node.period_ticks, node.epsilon_eff
                phi = 1.0 - remaining / period
                in_window = phi <= eps or phi >= 1.0 - eps
            elif kind == fire:
                node = nodes.get(nid)
                if node is None or datum != node.armed[-1][1]:
                    continue  # foreign
                node.armed.pop()
                if time == node.next_fire:  # else a wake-up: re-arm only
                    ticks = time - node.period_start
                    if sleep:
                        ticks = ticks - sleep if ticks > sleep else 0
                    elif node.mode is steady and ticks > (  # baseline nodes are never steady
                            cap := int(2 * node.epsilon_eff * node.period_ticks + 0.5)):
                        ticks = cap
                    awake += ticks
                    node.fires.append(time)
                    node.next_fire = time + node.period_ticks
                    node.period_start = time
                    emit = every or node.pending_payload
                    if ebs:
                        # the mode step: initialization counts the neighbours heard
                        # over its listening periods, in one heard_any kept across
                        # them; synchronization promotes to steady at S >= s_th; a
                        # steady node below s_th flaps into recovery, which refreshes
                        # the estimate from one fully awake period, then synchronizes
                        mode = node.mode
                        if mode is init:
                            if len(node.fires) >= cfg.init_listen_periods:
                                node.mode = sync
                                node.neighbor_count_estimate = len(node.heard_any)
                        elif mode is recovery:
                            node.mode = sync
                            node.neighbor_count_estimate = known = len(node.heard_any)
                            if known > 0:
                                node.synchronicity = 100.0 * len(node.heard_this_period) / known
                        else:
                            # a synchronizing node is awake all period, so what it
                            # processed is its working neighbour count (a steady
                            # node's reference set stays fixed); an unlucky (short)
                            # initialization can end before any neighbour fired, and
                            # then everything heard since stands in
                            if mode is sync and node.heard_any:
                                node.neighbor_count_estimate = len(node.heard_any)
                            known, heard = node.neighbor_count_estimate, len(node.heard_this_period)
                            if known > 0:  # else it stays synchronizing; warned at the end
                                if heard > known:  # S above 100 only refreshes the estimate
                                    node.neighbor_count_estimate = heard
                                s = 100.0 * heard / known if heard < known else 100.0
                                node.synchronicity = s
                                if mode is sync and s >= s_th:
                                    node.mode = steady
                                elif mode is steady and s < s_th:
                                    node.mode = recovery
                                    flap_events.append((time, nid))
                                    if trace is not None:
                                        trace.append(f"{time}\tflap\tnode={nid}")
                        node.heard_this_period.clear()
                        if node.mode is not init:
                            node.heard_any.clear()
                        if adaptive:
                            node.epsilon_eff = protocol.effective_epsilon(
                                cfg, node.neighbor_count_estimate)
                        if drawn:  # no draw at rate 0, so it leaves the RNG stream alone
                            node.pending_payload = rate > 0.0 and rng.random() < rate
                    if trace is not None:
                        trace.append(f"{time}\tfire\tnode={nid}\temit={emit}")
                    if emit:
                        fanout = fanouts[nid]
                        broadcasts += 1
                        attempts += len(fanout)
                        at = time + fixed
                        for recv, offset in fanout:
                            if lossy and rng.random() < loss:
                                lost += 1
                                continue
                            if uniform:
                                offset += rng.randint(lo, hi)
                            push(heap, (at + offset, arrival, recv, nid))
                # re-arm: queue an entry at next_fire unless an earlier one is queued
                armed, due = node.armed, node.next_fire
                if not armed or due < armed[-1][0]:
                    seq = next(counter)
                    armed.append((due, seq))
                    push(heap, (due, fire, nid, seq))
                continue
            elif kind == _CHURN:
                departed += self._handle_churn(time, datum[1])
                continue
            else:  # the sample at horizon * T is the last event handled
                self._handle_sample(time, received - sampled, awake)
                sampled, awake = received, 0
                continue
            # the reception step
            received += 1
            node.heard_any.add(sender)
            if in_window:
                if ebs:
                    node.heard_this_period.add(sender)
            elif (not (refractory and phi * period < refractory) and node.mode is not init
                  and (jumped := int(sigma * remaining + 0.5) or 1) < remaining):
                # the advanced node does not fire at once: its shortened
                # remaining time staggers the neighbours' replies
                node.next_fire = due = time + jumped
                node.advance_accum += (jump := (remaining - jumped) / period)
                if trace is not None:
                    trace.append(f"{time}\trx\tnode={nid}\tsender={sender}\tjump={jump}")
                armed = node.armed  # re-arm, as after a fire
                if not armed or due < armed[-1][0]:
                    seq = next(counter)
                    armed.append((due, seq))
                    push(heap, (due, fire, nid, seq))
                continue
            if trace is not None:
                trace.append(f"{time}\trx\tnode={nid}\tsender={sender}\tjump=0.0")
        stats = self.stats
        for key, count in zip(_LEDGER, (broadcasts, attempts, lost, collisions, dropped,
                                        received, collided, departed)):  # all but in_flight
            stats[key] += count
        # past the horizon: queued arrivals, and receptions whose commit waits
        stats["in_flight"] = (popped_past + sum(entry[1] == _ARRIVAL for entry in heap)
                              + sum(node.rx_pending is not None for node in nodes.values()))
        warnings.extend(f"node {nid} has no known neighbours and cannot synchronize"
                        for nid, node in sorted(nodes.items())  # ebs: baseline nodes keep 0
                        if ebs and node.mode is sync and node.neighbor_count_estimate == 0)
        fire_times = {nid: list(node.fires) for nid, node in sorted(nodes.items())}
        return RunResult(series=self.series, flap_events=flap_events, fire_times=fire_times,
                         final_nodes=nodes, warnings=warnings, stats=stats, trace=trace)

    def _handle_churn(self, now: int, ev: ChurnEvent) -> int:
        """A leave drops the node's links from _fanout; a join adds links
        with no offset, so a rejoin starts afresh.  Returns the receptions
        a leave cut short: 1 if the node had one in flight, else 0."""
        fanout, nid, cut = self._fanout, ev.node_id, 0
        if ev.action == "leave":
            for recv, _ in fanout.pop(nid):
                fanout[recv] = tuple(link for link in fanout[recv] if link[0] != nid)
            cut = int(self.nodes.pop(nid).rx_pending is not None)
            if self.trace is not None:
                self.trace.append(f"{now}\tleave\tnode={nid}")
        else:
            fanout[nid] = tuple((v, 0) for v in sorted(set(ev.edges)))
            for v, _ in fanout[nid]:
                fanout[v] = tuple(sorted((*fanout[v], (nid, 0))))
            self._spawn_node(nid, now)
            if self.trace is not None:
                self.trace.append(f"{now}\tjoin\tnode={nid}\tedges={len(ev.edges)}")
        return cut

    def _handle_sample(self, now: int, received: int, awake: int) -> None:
        """One series row from the receptions and awake ticks since the last sample."""
        period_index = now // self.T - 1
        n = len(self.nodes)
        dphi_lit = dphi_circ = 0.0
        if n > 0:
            # what the phase metrics average over: each linked node, in id
            # order, with its receivers in ascending order
            linked = [(u, [v for v, _ in fan]) for u, fan in sorted(self._fanout.items()) if fan]
            isolated = "isolated nodes excluded from phase metrics"
            if len(linked) < n and isolated not in self.warnings:
                self.warnings.append(isolated)
            if linked:
                phases = {nid: self.nodes[nid].phase_at(now) for nid, _ in linked}
                dphi_lit, dphi_circ = avg_phase_difference(phases, linked)
            dplus = left_sum(node.advance_accum for node in self.nodes.values()) / n
            duty = 100.0 * awake / (n * self.T)
            thr = 100.0 * received / (self.avg_degree * n)
            steady = 100.0 * [nd.mode for nd in self.nodes.values()].count(Mode.STEADY) / n
        else:
            dplus = duty = thr = steady = 0.0
        self.series.append(MetricsRow(period_index, dphi_lit, dphi_circ, dplus,
                                      duty, thr, steady, len(self.flap_events)))
        for node in self.nodes.values():
            node.advance_accum = 0.0
        if now < self.horizon * self.T:
            heapq.heappush(self._heap, (now + self.T, _SAMPLE, -1, None))


def skewed_period(period_t: int, skew_ppm: float) -> int:
    """A node's period in ticks under a clock skew of skew_ppm."""
    return int(period_t * (1.0 + skew_ppm * 1e-6) + 0.5)


_MAX_TICKS = 2 ** 53  # the longest duration a float holds to the tick


def _shown(value) -> str:
    """value as a message shows it; an int too long for str() by its size."""
    try:
        return f"{value}"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        sign = "a negative" if value < 0 else "an"
        return f"<{sign} integer of about {int(value.bit_length() * 0.30103) + 1} digits>"


def run_error(spec: RunSpec) -> tuple[str, str] | None:
    """None if a run of spec can start, else (the input at fault: a RunSpec
    field, "<field>.<attribute>" of one of its records, or "churn.<i>",
    the message).  NaN fails every comparison here."""
    cfg, mrf, delay, fault, drift = spec.protocol, spec.mrf, spec.delay, spec.fault, spec.drift
    for name, low in (("period_t", 1), ("c0", 1), ("init_listen_periods", 0)):
        if not low <= (value := getattr(cfg, name)) <= _MAX_TICKS:
            return f"protocol.{name}", f"protocol {name} {_shown(value)} must be in [{low}, 2^53]"
    if not 0.0 < cfg.epsilon <= 0.5:
        return "protocol.epsilon", f"protocol epsilon {_shown(cfg.epsilon)} must be in (0, 0.5]"
    if not 0.0 < cfg.sigma < 1.0:
        return "protocol.sigma", f"protocol sigma {_shown(cfg.sigma)} must be in (0, 1)"
    if not 0.0 <= cfg.s_th <= 100.0:
        return "protocol.s_th", f"protocol s_th {_shown(cfg.s_th)} must be in [0, 100]"
    if mrf is not None and not 0 < mrf.refractory < cfg.period_t:
        return "mrf.refractory", (f"mrf refractory {_shown(mrf.refractory)} must be above 0 "
                                  f"and below the protocol period {cfg.period_t}")
    if delay.kind not in ("none", "deterministic", "uniform"):
        return "delay.kind", f"unknown delay kind {delay.kind!r}"
    for name, kind in (("nu", "deterministic"), ("lo", "uniform"), ("hi", "uniform")):
        if (value := getattr(delay, name)) and delay.kind != kind:
            return f"delay.{name}", (f"delay {name} = {_shown(value)} needs kind {kind!r}, "
                                     f"not {delay.kind!r}")
        if not 0 <= value <= _MAX_TICKS:
            return f"delay.{name}", f"delay {name} {_shown(value)} must be in [0, 2^53]"
    if delay.hi < delay.lo:
        return "delay.hi", f"delay hi {delay.hi} must be >= lo {delay.lo}"
    if delay.link_hi is not None and not 0 <= delay.link_lo <= delay.link_hi <= _MAX_TICKS:
        return ("delay.link_lo" if not 0 <= delay.link_lo <= _MAX_TICKS else "delay.link_hi",
                f"delay needs 0 <= link_lo <= link_hi <= 2^53, got {_shown(delay.link_lo)} "
                f"and {_shown(delay.link_hi)}")
    if not -2 ** 63 <= delay.link_seed < 2 ** 63:
        return "delay.link_seed", (f"delay link_seed {_shown(delay.link_seed)} "
                                   "must be in [-2^63, 2^63)")
    if not 0.0 <= fault.loss_probability <= 1.0:
        return "fault.loss_probability", ("fault loss_probability "
                                          f"{_shown(fault.loss_probability)} must be in [0, 1]")
    if not 1 <= fault.airtime_beta <= _MAX_TICKS:
        return "fault.airtime_beta", (f"fault airtime_beta {_shown(fault.airtime_beta)} "
                                      "must be in [1, 2^53]")
    for name in ("skew_ppm_min", "skew_ppm_max"):
        if not abs(skew := getattr(drift, name)) <= 1e6:
            return f"drift.{name}", (f"drift {name} {_shown(skew)} must be finite and "
                                     "within [-1e6, 1e6] ppm")
    if drift.skew_ppm_min > drift.skew_ppm_max:  # blame a bound off its default 0: one written
        return ("drift.skew_ppm_min" if drift.skew_ppm_min > 0 else "drift.skew_ppm_max",
                f"drift skew_ppm_min {drift.skew_ppm_min} is above the max {drift.skew_ppm_max}")
    if (shortest := skewed_period(cfg.period_t, drift.skew_ppm_min)) < 1:
        return "drift.skew_ppm_min", (f"drift skew_ppm_min {drift.skew_ppm_min} shortens the "
                                      f"period {cfg.period_t} to {shortest} ticks, below 1")
    if not (horizon := spec.horizon) >= 1:
        return "horizon", "horizon must be >= 1 period"
    if not -2 ** 63 <= spec.seed < 2 ** 63:
        return "seed", f"seed {_shown(spec.seed)} must be in [-2^63, 2^63)"
    if not 0.0 <= spec.payload_rate <= 1.0:
        return "payload_rate", ("payload_rate must be a probability in [0, 1], "
                                f"got {_shown(spec.payload_rate)}")
    if not any(spec.topology.adjacency.values()):
        return "topology", "topology: the network has no links: no node can hear another"
    live, churn = set(spec.topology.adjacency), spec.churn  # replayed in the engine's order
    for i in sorted(range(len(churn)), key=lambda i: (churn[i].at_period, churn[i].node_id)):
        ev, nid = churn[i], churn[i].node_id
        if ev.action not in ("join", "leave"):
            problem = "the action must be join or leave"
        elif not ev.at_period >= 0:
            problem = "the period must be >= 0"
        elif ev.at_period >= horizon:
            problem = f"beyond the horizon of {_shown(horizon)} periods"
        elif ev.action == "leave":
            problem = None if nid in live else f"node {_shown(nid)} does not exist"
            live.discard(nid)
        elif not nid >= 0:
            problem = "node ids must be non-negative"
        elif nid in live:
            problem = f"node {_shown(nid)} already exists"
        else:
            v = next((v for v in ev.edges if v == nid or v not in live), None)
            problem = (None if v is None else f"self-loop at node {_shown(nid)}" if v == nid
                       else f"edge {_shown(nid)}-{_shown(v)} references unknown node {_shown(v)}")
            live.add(nid)
        if problem is not None:
            return f"churn.{i}", (f"churn {_shown(ev.action)} of node {_shown(nid)} "
                                  f"at period {_shown(ev.at_period)}: {problem}")
    return None


def run(topology: Topology, protocol: ProtocolConfig, *, trace: bool = False,
        **fields) -> RunResult:
    """Run the RunSpec of these inputs (the other fields by keyword) to the horizon."""
    return Engine(RunSpec(topology, protocol, **fields), trace).run()
