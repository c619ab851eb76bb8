"""Per-node duty-cycled broadcast-slot state machine.

Nodes move through three modes: Initialization (awake, counting
neighbours), Synchronization (awake, coupling active) and SteadyDutyCycled
(asleep outside the wake window).  A steady node whose synchronicity drops
below the threshold goes fully awake for one recovery period, refreshes its
neighbour estimate and drops back to Synchronization.

All handlers are synchronous transitions on a NodeState owned by the
simulator; time is integer ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .core import advance_remaining_ticks, in_setw
from .params import adaptive_c


class Mode(Enum):
    INITIALIZATION = "init"
    SYNCHRONIZATION = "sync"
    STEADY = "steady"


class Variant(Enum):
    NO_REACHBACK = "no_reachback"
    PARTIAL_REACHBACK = "partial_reachback"


class IsolatedNodeError(RuntimeError):
    """A node with no known neighbours cannot evaluate synchronicity."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Full parameterization of one node's protocol behaviour.

    period_t and c0 are in ticks; epsilon, sigma are phase fractions;
    s_th is a percentage.
    """

    period_t: int
    epsilon: float
    sigma: float
    s_th: float
    c0: int = 50
    variant: Variant = Variant.NO_REACHBACK
    adaptive_c: bool = False
    init_listen_periods: int = 5

    def __post_init__(self) -> None:
        if self.period_t <= 0:
            raise ValueError("period_t must be positive")
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5], got {self.epsilon}")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must be in (0, 1), got {self.sigma}")
        if not 0.0 <= self.s_th <= 100.0:
            raise ValueError(f"s_th must be within [0, 100], got {self.s_th}")
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")
        if self.init_listen_periods < 0:
            raise ValueError("init_listen_periods must be >= 0")


@dataclass(frozen=True)
class MrfConfig:
    """Refractory-period baseline: coupling is ignored for the first
    refractory ticks after every own fire.

    With sleep_during_refractory the radio also sleeps through that
    stretch (duty cycle (T - refractory)/T); without it the node listens
    continuously (100% duty) and the refractory gates only the coupling,
    as in the original always-on refractory schemes.
    """

    period_t: int
    refractory: int
    sleep_during_refractory: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.refractory < self.period_t:
            raise ValueError("refractory must satisfy 0 < refractory < period_t")


@dataclass
class NodeState:
    """One node's protocol and timing state.

    next_fire is the tick at which the phase reaches 1; the phase at any
    time is 1 - (next_fire - now) / period_ticks.  heard_this_period tracks
    senders heard while inside the wake window (what synchronicity counts);
    heard_any tracks every sender processed this period and feeds neighbour
    estimates during initialization and recovery.
    """

    id: int
    period_ticks: int
    next_fire: int
    epsilon_eff: float
    mode: Mode = Mode.INITIALIZATION
    period_start: int = 0
    neighbor_count_estimate: int = 0
    heard_this_period: set[int] = field(default_factory=set)
    heard_any: set[int] = field(default_factory=set)
    init_heard: set[int] = field(default_factory=set)
    init_periods_left: int = 0
    synchronicity: float = 0.0
    pending_payload: bool = False
    recovering: bool = False
    flap_count: int = 0
    # simulator bookkeeping
    fire_seq: int = 0
    advance_accum: float = 0.0
    rx_busy_until: int = -1
    rx_pending: set = field(default_factory=set)
    fires: list[int] = field(default_factory=list)

    def phase_at(self, now: int) -> float:
        return 1.0 - (self.next_fire - now) / self.period_ticks

    def mode_label(self) -> str:
        if self.mode is Mode.STEADY and self.recovering:
            return "steady_recovering"
        return self.mode.value


def effective_epsilon(cfg: ProtocolConfig, estimate: int) -> float:
    """Window half-width actually used by a node.

    With adaptive C the per-node receive budget C_i = c0 * |N_i| * s_th/100
    widens the window to C_i / (2T) for high-degree nodes; the configured
    epsilon is the floor.
    """
    if cfg.adaptive_c and estimate > 0:
        budget = adaptive_c(cfg.c0, estimate, cfg.s_th)
        return max(cfg.epsilon, budget / (2 * cfg.period_t))
    return cfg.epsilon


def is_awake(node: NodeState, phi: float) -> bool:
    if node.mode is not Mode.STEADY or node.recovering:
        return True
    return in_setw(phi, node.epsilon_eff)


def on_period_start(node: NodeState, cfg: ProtocolConfig, now: int) -> NodeState:
    """Reset per-period bookkeeping right after the phase wrapped to 0."""
    if node.next_fire - now != node.period_ticks:
        raise ValueError(f"node {node.id}: period start with nonzero phase")
    node.period_start = now
    if node.mode is Mode.INITIALIZATION:
        node.init_heard |= node.heard_any
        node.init_periods_left -= 1
        if node.init_periods_left <= 0:
            node.mode = Mode.SYNCHRONIZATION
            node.neighbor_count_estimate = len(node.init_heard)
    node.heard_this_period = set()
    node.heard_any = set()
    node.epsilon_eff = effective_epsilon(cfg, node.neighbor_count_estimate)
    return node


def on_fire(node: NodeState, cfg: ProtocolConfig, now: int) -> bool:
    """Phase reached 1: reset it and decide whether to transmit.

    Without reach-back every fire broadcasts (a fresh sync message when no
    payload is pending, piggybacking otherwise).  With partial reach-back
    only fires carrying an upper-layer payload go on air.
    """
    node.next_fire = now + node.period_ticks
    emit = cfg.variant is Variant.NO_REACHBACK or node.pending_payload
    node.pending_payload = False
    return emit


def _couple(node: NodeState, remaining: int, phi: float, epsilon: float,
            sigma: float, now: int) -> float:
    """The pulse-coupling step (Mirollo & Strogatz 1990) on integer ticks.

    Strictly between the window edges the remaining time shrinks to
    sigma * remaining (advance_remaining_ticks); returns the phase jump.
    """
    if not epsilon < phi < 1.0 - epsilon:
        return 0.0
    new_remaining = advance_remaining_ticks(remaining, sigma)
    node.next_fire = now + new_remaining
    return (remaining - new_remaining) / node.period_ticks


def on_message(node: NodeState, sender: int, cfg: ProtocolConfig, now: int) -> float:
    """Process a broadcast heard while awake; returns the phase jump size.

    Records the sender, and applies the coupling when the phase sits
    strictly between the window edges.  The advanced node does not fire
    immediately: its (shortened) remaining time doubles as the staggering
    delay that keeps neighbours from replying in the same instant.
    """
    remaining = node.next_fire - now
    phi = 1.0 - remaining / node.period_ticks
    node.heard_any.add(sender)
    if in_setw(phi, node.epsilon_eff):
        node.heard_this_period.add(sender)
    if node.mode is Mode.INITIALIZATION:
        return 0.0
    return _couple(node, remaining, phi, node.epsilon_eff, cfg.sigma, now)


def end_of_period_evaluation(node: NodeState, cfg: ProtocolConfig) -> NodeState:
    """Recompute synchronicity at the wrap and steer the mode machine.

    Sync mode promotes to Steady at S >= s_th.  A steady node dropping
    below s_th flags a recovery: one fully awake period, after which the
    neighbour estimate is refreshed from everything heard and the node
    re-enters Synchronization.  S above 100 only refreshes the estimate.
    """
    if node.mode is Mode.INITIALIZATION:
        return node
    if node.mode is Mode.STEADY and node.recovering:
        node.neighbor_count_estimate = len(node.heard_any)
        node.recovering = False
        node.mode = Mode.SYNCHRONIZATION
        if node.neighbor_count_estimate > 0:
            node.synchronicity = 100.0 * len(node.heard_this_period) / node.neighbor_count_estimate
        return node
    if node.mode is Mode.SYNCHRONIZATION and node.heard_any:
        # a synchronizing node is awake all period; what it processed is
        # its working neighbour count (estimates update only in this mode,
        # so a steady node's reference set stays fixed)
        node.neighbor_count_estimate = len(node.heard_any)
    if node.neighbor_count_estimate <= 0:
        # an unlucky (short) initialization can end before any neighbour
        # fired; fall back on everything heard since
        node.neighbor_count_estimate = len(node.heard_any)
        if node.neighbor_count_estimate <= 0:
            raise IsolatedNodeError(f"node {node.id} has no known neighbours")
    s = 100.0 * len(node.heard_this_period) / node.neighbor_count_estimate
    node.synchronicity = s
    if s > 100.0:
        node.neighbor_count_estimate = len(node.heard_this_period)
        node.synchronicity = s = 100.0
    if node.mode is Mode.SYNCHRONIZATION:
        if s >= cfg.s_th:
            node.mode = Mode.STEADY
            node.recovering = False
    else:  # steady
        if s < cfg.s_th:
            node.recovering = True
            node.flap_count += 1
    return node


# --- refractory-period baseline -------------------------------------------

def mrf_is_awake(node: NodeState, phi: float, mrf: MrfConfig) -> bool:
    """Asleep (and deaf) while inside the post-fire refractory stretch,
    unless the always-listening variant is selected."""
    if not mrf.sleep_during_refractory:
        return True
    return phi * node.period_ticks >= mrf.refractory


def mrf_on_message(node: NodeState, sender: int, cfg: ProtocolConfig,
                   now: int, refractory: int = 0) -> float:
    """Outside the refractory stretch the same coupling rule applies, with
    the configured (never adapted) window."""
    remaining = node.next_fire - now
    phi = 1.0 - remaining / node.period_ticks
    node.heard_any.add(sender)
    if phi * node.period_ticks < refractory:
        return 0.0
    return _couple(node, remaining, phi, cfg.epsilon, cfg.sigma, now)


def mrf_on_fire(node: NodeState, now: int) -> bool:
    """The baseline broadcasts on every fire."""
    node.next_fire = now + node.period_ticks
    return True
