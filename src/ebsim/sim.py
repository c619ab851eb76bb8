"""Deterministic discrete-event simulation engine.

Time is integer ticks (1 tick = 1 ms of model time by default).  Events are
ordered lexicographically by (time, event-type priority, node id, sender
id, insertion counter), so a run is bitwise reproducible for a given
(scenario, seed).  Event-type priority at one tick: churn, then fires (and
the period-boundary processing they imply), then reception commits, then
message arrivals, then the metrics sample.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from enum import IntEnum

from . import protocol
from .core import avg_phase_difference
from .metrics import MetricsRow, MetricsSeries, throughput
from .protocol import (IsolatedNodeError, Mode, MrfConfig, NodeState,
                       ProtocolConfig)
from .topology import Topology, TopologyError


class SimulationError(RuntimeError):
    pass


class EventKind(IntEnum):
    """Priority order for simultaneous events.

    A reception whose airtime interval [arrival, arrival + beta) closes at
    tick t commits before a fresh arrival at t may claim the radio, so
    back-to-back receptions do not collide.
    """

    CHURN = 0
    FIRE = 1
    RX_COMMIT = 2
    ARRIVAL = 3
    SAMPLE = 4


@dataclass(frozen=True)
class DelayModel:
    """Per-message-per-receiver propagation delay in ticks.

    ``overrides`` maps a directed link (sender, receiver) to a fixed offset
    added to every sampled delay on that link; it models stable per-link
    propagation/processing skew, while ``kind`` models per-message jitter.
    """

    kind: str = "none"  # none | deterministic | uniform
    nu: int = 0
    lo: int = 0
    hi: int = 0
    overrides: tuple[tuple[tuple[int, int], int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("none", "deterministic", "uniform"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.nu < 0 or self.lo < 0 or self.hi < self.lo:
            raise ValueError("delays must be non-negative with lo <= hi")
        if any(d < 0 for _, d in self.overrides):
            raise ValueError("link override delays must be non-negative")
        object.__setattr__(self, "_table", dict(self.overrides))

    def sample(self, rng: random.Random, link: tuple[int, int] | None = None) -> int:
        fixed = self._table.get(link, 0) if link is not None else 0
        if self.kind == "none":
            return fixed
        if self.kind == "deterministic":
            return fixed + self.nu
        return fixed + rng.randint(self.lo, self.hi)

    def worst_case(self) -> int:
        base = {"deterministic": self.nu, "uniform": self.hi}.get(self.kind, 0)
        return base + max(self._table.values(), default=0)


def make_link_delay_table(topology: Topology, lo: int, hi: int,
                          seed: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """Fixed delay per directed link, drawn once from [lo, hi].

    Models the stable spread of propagation/processing offsets across
    links; unlike per-message jitter, each link keeps its delay for the
    whole run, so coincidences between senders are stable too.
    """
    rng = random.Random(seed)
    pairs = []
    for a in sorted(topology.node_ids):
        for b in sorted(topology.neighbors(a)):
            pairs.append(((a, b), rng.randint(lo, hi)))
    return tuple(pairs)


@dataclass(frozen=True)
class LinkFaultModel:
    """Independent per-(message, receiver) loss plus optional collisions.

    With collisions enabled, two receptions at one node whose airtime
    intervals [arrival, arrival + beta) overlap destroy each other.
    """

    loss_probability: float = 0.0
    collisions_enabled: bool = False
    airtime_beta: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if self.airtime_beta <= 0:
            raise ValueError("airtime_beta must be positive")


@dataclass(frozen=True)
class ClockDriftModel:
    """Per-node rate skew drawn uniformly from [skew_ppm_min, skew_ppm_max]."""

    skew_ppm_min: float = 0.0
    skew_ppm_max: float = 0.0

    def __post_init__(self) -> None:
        if self.skew_ppm_max < self.skew_ppm_min:
            raise ValueError("skew_ppm_max must be >= skew_ppm_min")

    def sample(self, rng: random.Random) -> float:
        if self.skew_ppm_min == 0.0 and self.skew_ppm_max == 0.0:
            return 0.0
        return rng.uniform(self.skew_ppm_min, self.skew_ppm_max)


@dataclass(frozen=True)
class ChurnEvent:
    at_period: int
    action: str  # join | leave
    node_id: int
    edges: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.action not in ("join", "leave"):
            raise ValueError(f"unknown churn action {self.action!r}")
        if self.at_period < 0:
            raise ValueError("churn period must be >= 0")


@dataclass
class RunResult:
    series: MetricsSeries
    flap_events: list[tuple[int, int]]           # (tick, node id)
    mode_history: list[dict[int, str]]           # one dict per sampled period
    fire_times: dict[int, list[int]]
    final_nodes: dict[int, NodeState]
    warnings: list[str]
    stats: dict[str, int]
    trace: list[str] | None = None


class Engine:
    """Single-threaded event loop over one network.

    scheme selects the node behaviour: "ebs" runs the three-state protocol,
    "mrf" the refractory-period baseline (always broadcasting, deaf and
    asleep for the refractory stretch after each own fire).
    """

    def __init__(self, topology: Topology, cfg: ProtocolConfig, *,
                 scheme: str = "ebs", mrf_cfg: MrfConfig | None = None,
                 delay: DelayModel | None = None,
                 fault: LinkFaultModel | None = None,
                 drift: ClockDriftModel | None = None,
                 churn: tuple[ChurnEvent, ...] = (),
                 horizon: int = 50, seed: int = 0,
                 payload_rate: float = 1.0, trace: bool = False) -> None:
        if horizon < 1:
            raise SimulationError("horizon must be >= 1 period")
        if scheme not in ("ebs", "mrf"):
            raise SimulationError(f"unknown scheme {scheme!r}")
        if scheme == "mrf" and mrf_cfg is None:
            mrf_cfg = MrfConfig(cfg.period_t, cfg.period_t // 2)
        self.topology = topology.copy()
        self.cfg = cfg
        self.scheme = scheme
        self.mrf_cfg = mrf_cfg
        self.delay = delay or DelayModel()
        self.fault = fault or LinkFaultModel()
        self.drift = drift or ClockDriftModel()
        self.horizon = horizon
        self.payload_rate = payload_rate
        self.T = cfg.period_t
        self.rng = random.Random(seed)
        self.trace: list[str] | None = [] if trace else None

        # lossless all-awake ceiling of receptions per node and period
        self.avg_degree = self.topology.average_degree

        self._heap: list = []
        self._counter = 0
        self.nodes: dict[int, NodeState] = {}
        self.warnings: list[str] = []
        self.flap_events: list[tuple[int, int]] = []
        self.mode_history: list[dict[int, str]] = []
        self.series = MetricsSeries()
        self.stats = {"broadcasts": 0, "arrival_attempts": 0, "lost": 0,
                      "collisions": 0, "dropped_asleep": 0, "received": 0}
        self._bucket_awake = 0
        self._bucket_received = 0
        self._isolated_warned: set[int] = set()

        _check_churn(self.topology, churn, horizon)
        for nid in self.topology.node_ids:
            self._spawn_node(nid, 0)
        for ev in churn:
            self._push(ev.at_period * self.T, EventKind.CHURN, ev.node_id, -1, ev)
        for k in range(1, horizon + 1):
            self._push(k * self.T, EventKind.SAMPLE, -1, -1, None)

    # -- plumbing ------------------------------------------------------

    def _push(self, time: int, kind: EventKind, node: int, sender: int, payload) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (time, int(kind), node, sender, self._counter, payload))

    def _log(self, time: int, what: str) -> None:
        if self.trace is not None:
            self.trace.append(f"{time}\t{what}")

    def _draw_payload(self) -> bool:
        # no draw at the certain rates, so they leave the RNG stream alone
        rate = self.payload_rate
        return rate >= 1.0 or (rate > 0.0 and self.rng.random() < rate)

    def _spawn_node(self, nid: int, now: int) -> None:
        skew = self.drift.sample(self.rng)
        period = int(self.T * (1.0 + skew * 1e-6) + 0.5)
        r0 = self.rng.randint(1, period)
        node = NodeState(
            id=nid, period_ticks=period, next_fire=now + r0,
            epsilon_eff=self.cfg.epsilon, period_start=now,
            init_periods_left=self.cfg.init_listen_periods)
        if self.scheme == "mrf":
            node.mode = Mode.SYNCHRONIZATION  # unused by the baseline
        elif self.cfg.init_listen_periods == 0:
            # pre-initialized start: coupling active from the first tick,
            # neighbour count taken from the topology
            node.mode = Mode.SYNCHRONIZATION
            node.neighbor_count_estimate = self.topology.degree(nid)
            node.epsilon_eff = protocol.effective_epsilon(
                self.cfg, node.neighbor_count_estimate)
        node.pending_payload = self._draw_payload()
        self.nodes[nid] = node
        self._push(node.next_fire, EventKind.FIRE, nid, -1, node.fire_seq)

    # -- event handlers --------------------------------------------------

    def run(self) -> RunResult:
        end = self.horizon * self.T
        while self._heap:
            time, kind, nid, sender, _, payload = heapq.heappop(self._heap)
            if time > end:
                break
            if kind == EventKind.FIRE:
                self._handle_fire(time, nid, payload)
            elif kind == EventKind.ARRIVAL:
                self._handle_arrival(time, nid, sender)
            elif kind == EventKind.RX_COMMIT:
                self._handle_commit(time, nid, sender, payload)
            elif kind == EventKind.CHURN:
                self._handle_churn(time, payload)
            else:
                self._handle_sample(time)
        return RunResult(
            series=self.series,
            flap_events=self.flap_events,
            mode_history=self.mode_history,
            fire_times={nid: list(node.fires) for nid, node in sorted(self.nodes.items())},
            final_nodes=self.nodes,
            warnings=self.warnings,
            stats=self.stats,
            trace=self.trace,
        )

    def _attribute_duty(self, node: NodeState, now: int) -> None:
        period_len = now - node.period_start
        if self.scheme == "mrf":
            if self.mrf_cfg.sleep_during_refractory:
                awake = max(0, period_len - self.mrf_cfg.refractory)
            else:
                awake = period_len
        elif node.mode is Mode.STEADY and not node.recovering:
            awake = min(period_len, int(2 * node.epsilon_eff * node.period_ticks + 0.5))
        else:
            awake = period_len
        self._bucket_awake += awake

    def _handle_fire(self, now: int, nid: int, seq) -> None:
        node = self.nodes.get(nid)
        if node is None or seq != node.fire_seq:
            return
        self._attribute_duty(node, now)
        node.fires.append(now)
        if self.scheme == "mrf":
            emit = protocol.mrf_on_fire(node, now)
            node.period_start = now
        else:
            emit = protocol.on_fire(node, self.cfg, now)
            flaps_before = node.flap_count
            try:
                protocol.end_of_period_evaluation(node, self.cfg)
            except IsolatedNodeError:
                if nid not in self._isolated_warned:
                    self._isolated_warned.add(nid)
                    self.warnings.append(
                        f"node {nid} has no known neighbours and cannot synchronize")
            if node.flap_count > flaps_before:
                self.flap_events.append((now, nid))
                self._log(now, f"flap\tnode={nid}")
            protocol.on_period_start(node, self.cfg, now)
            node.pending_payload = self._draw_payload()
        node.fire_seq += 1
        self._push(node.next_fire, EventKind.FIRE, nid, -1, node.fire_seq)
        self._log(now, f"fire\tnode={nid}\temit={emit}")
        if emit:
            self._deliver(now, nid)

    def _deliver(self, now: int, sender: int) -> None:
        self.stats["broadcasts"] += 1
        for recv in sorted(self.topology.neighbors(sender)):
            self.stats["arrival_attempts"] += 1
            if self.fault.loss_probability > 0 and self.rng.random() < self.fault.loss_probability:
                self.stats["lost"] += 1
                continue
            self._push(now + self.delay.sample(self.rng, (sender, recv)),
                       EventKind.ARRIVAL, recv, sender, None)

    def _handle_arrival(self, now: int, recv: int, sender: int) -> None:
        node = self.nodes.get(recv)
        if node is None:
            return
        phi = node.phase_at(now)
        if self.scheme == "mrf":
            awake = protocol.mrf_is_awake(node, phi, self.mrf_cfg)
        else:
            awake = protocol.is_awake(node, phi)
        if not awake:
            self.stats["dropped_asleep"] += 1
            return
        if self.fault.collisions_enabled:
            if now < node.rx_busy_until:
                # overlapping airtime destroys both the in-flight and the new one
                node.rx_pending.clear()
                node.rx_busy_until = max(node.rx_busy_until, now + self.fault.airtime_beta)
                self.stats["collisions"] += 1
                self._log(now, f"collision\tnode={recv}\tsender={sender}")
                return
            node.rx_busy_until = now + self.fault.airtime_beta
            token = (sender, now)
            node.rx_pending.add(token)
            self._push(now + self.fault.airtime_beta, EventKind.RX_COMMIT, recv, sender, token)
        else:
            self._receive(now, node, sender)

    def _handle_commit(self, now: int, recv: int, sender: int, token) -> None:
        node = self.nodes.get(recv)
        if node is None or token not in node.rx_pending:
            return
        node.rx_pending.discard(token)
        self._receive(now, node, sender)

    def _receive(self, now: int, node: NodeState, sender: int) -> None:
        self.stats["received"] += 1
        self._bucket_received += 1
        if self.scheme == "mrf":
            delta = protocol.mrf_on_message(node, sender, self.cfg, now,
                                            self.mrf_cfg.refractory)
        else:
            delta = protocol.on_message(node, sender, self.cfg, now)
        self._log(now, f"rx\tnode={node.id}\tsender={sender}\tjump={delta}")
        if delta > 0.0:
            node.advance_accum += delta
            node.fire_seq += 1
            self._push(node.next_fire, EventKind.FIRE, node.id, -1, node.fire_seq)

    def _handle_churn(self, now: int, ev: ChurnEvent) -> None:
        if ev.action == "leave":
            self.topology.remove_node(ev.node_id)
            del self.nodes[ev.node_id]
            self._log(now, f"leave\tnode={ev.node_id}")
        else:
            self.topology.add_node(ev.node_id, ev.edges)
            self._spawn_node(ev.node_id, now)
            self._log(now, f"join\tnode={ev.node_id}\tedges={len(ev.edges)}")

    def _handle_sample(self, now: int) -> None:
        period_index = now // self.T - 1
        n = len(self.nodes)
        dphi_lit = dphi_circ = 0.0
        if n > 0:
            eligible = [nid for nid in self.topology.node_ids if self.topology.degree(nid) > 0]
            if len(eligible) < n and "isolated nodes excluded from phase metrics" not in self.warnings:
                self.warnings.append("isolated nodes excluded from phase metrics")
            if eligible:
                phases = {nid: self.nodes[nid].phase_at(now) for nid in eligible}
                dphi_lit = avg_phase_difference(phases, self.topology, circular=False)
                dphi_circ = avg_phase_difference(phases, self.topology, circular=True)
            dplus = sum(node.advance_accum for node in self.nodes.values()) / n
            duty = 100.0 * self._bucket_awake / (n * self.T)
            thr = throughput(self._bucket_received, self.avg_degree, n)
            steady = 100.0 * sum(
                1 for nd in self.nodes.values()
                if nd.mode is Mode.STEADY and not nd.recovering) / n
        else:
            dplus = duty = thr = steady = 0.0
        flaps = sum(node.flap_count for node in self.nodes.values())
        self.series.append(MetricsRow(period_index, dphi_lit, dphi_circ, dplus,
                                      duty, thr, steady, flaps))
        self.mode_history.append({nid: node.mode_label()
                                  for nid, node in sorted(self.nodes.items())})
        for node in self.nodes.values():
            node.advance_accum = 0.0
        self._bucket_awake = 0
        self._bucket_received = 0


def _check_churn(topology: Topology, churn: tuple[ChurnEvent, ...],
                 horizon: int) -> None:
    """Replay the churn schedule on a copy of the topology, in the order
    the engine runs it, so that a bad entry fails before the first event."""
    replay = topology.copy()
    for ev in sorted(churn, key=lambda ev: (ev.at_period, ev.node_id)):
        what = f"churn {ev.action} of node {ev.node_id} at period {ev.at_period}"
        if ev.at_period >= horizon:
            raise SimulationError(f"{what}: beyond the horizon of {horizon} periods")
        try:
            if ev.action == "leave":
                replay.remove_node(ev.node_id)
            else:
                replay.add_node(ev.node_id, ev.edges)
        except TopologyError as exc:
            raise SimulationError(f"{what}: {exc}") from None


def run(topology: Topology, cfg: ProtocolConfig, **kwargs) -> RunResult:
    """Build an Engine and run it to the horizon."""
    return Engine(topology, cfg, **kwargs).run()
