"""Per-node configuration and state of the duty-cycled broadcast-slot
protocol, and the window formulas the engine applies.

Nodes move through four modes: Initialization (awake, counting
neighbours), Synchronization (awake, coupling active), SteadyDutyCycled
(asleep outside the wake window) and Recovery, one fully awake period a
steady node spends after its synchronicity dropped below the threshold;
it then refreshes its neighbour estimate and drops back to
Synchronization.

This module holds data only: sim.Engine.run runs every transition in its
event loop, the reception step on an arrival and the period end, mode
step included, on a fire.  Time is integer ticks.
"""

import math
from enum import Enum
from typing import NamedTuple


class Mode(Enum):
    INITIALIZATION = "init"
    SYNCHRONIZATION = "sync"
    STEADY = "steady"
    RECOVERY = "recovery"


class Variant(Enum):
    NO_REACHBACK = "no_reachback"
    PARTIAL_REACHBACK = "partial_reachback"


class ProtocolConfig(NamedTuple):
    """Full parameterization of one node's protocol behaviour.

    period_t and c0 are in ticks; epsilon, sigma are phase fractions;
    s_th is a percentage.  A plain record: sim.run_error judges the values.
    """

    period_t: int
    epsilon: float
    sigma: float
    s_th: float
    c0: int = 50
    variant: Variant = Variant.NO_REACHBACK
    adaptive_c: bool = False
    init_listen_periods: int = 5


class MrfConfig(NamedTuple):
    """Refractory-period baseline: coupling is ignored for the first
    refractory ticks after every own fire.  It runs on the protocol's
    period T; sim.run_error refuses a refractory outside (0, T).

    With sleep_during_refractory the radio also sleeps through that
    stretch (duty cycle (T - refractory)/T); without it the node listens
    continuously (100% duty) and the refractory gates only the coupling,
    as in the original always-on refractory schemes.
    """

    refractory: int
    sleep_during_refractory: bool = True


class NodeState:
    """One node's protocol and timing state.

    The constructor takes the fields a caller sets; the rest start fresh.
    A node holds no id: the engine's tables key each node by its id.
    next_fire is the tick at which the phase reaches 1; the phase at any
    time is 1 - (next_fire - now) / period_ticks.  heard_this_period tracks
    senders heard while inside the wake window (what synchronicity counts);
    heard_any tracks every sender processed this period (all of
    Initialization, while in it), whose count the neighbour estimate
    takes when Initialization, recovery or a synchronizing period ends.
    fires lists the node's own fire ticks, so Initialization ends at its
    init_listen_periods-th entry (a joining node starts with none).
    """

    __slots__ = ("period_ticks", "next_fire", "epsilon_eff", "mode", "period_start",
                 "neighbor_count_estimate", "heard_this_period", "heard_any", "synchronicity",
                 "pending_payload", "armed", "advance_accum", "rx_busy_until", "rx_pending", "fires")

    def __init__(self, period_ticks: int, next_fire: int, epsilon_eff: float,
                 mode: Mode = Mode.INITIALIZATION, period_start: int = 0,
                 neighbor_count_estimate: int = 0) -> None:
        self.period_ticks, self.next_fire, self.epsilon_eff = period_ticks, next_fire, epsilon_eff
        self.mode, self.period_start = mode, period_start
        self.neighbor_count_estimate, self.synchronicity = neighbor_count_estimate, 0.0
        self.heard_this_period, self.heard_any, self.pending_payload = set(), set(), False
        # simulator bookkeeping; armed: (tick, seq) of queued FIRE entries, earliest last
        self.armed = []
        self.advance_accum, self.rx_busy_until = 0.0, -1
        # the reception in flight as (sender, arrival tick): its commit waits in
        # the engine's FIFO, and a collision clears it, so at most one
        self.rx_pending = None
        self.fires = []

    def __repr__(self) -> str:
        return f"NodeState({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    @property
    def fire_seq(self) -> int:
        """The earliest queued FIRE entry's seq if due at next_fire, else -1 (a wake-up)."""
        return self.armed[-1][1] if self.armed and self.armed[-1][0] == self.next_fire else -1

    def phase_at(self, now: int) -> float:
        return 1.0 - (self.next_fire - now) / self.period_ticks


def adaptive_c(cfg: ProtocolConfig, neighborhood: int) -> int:
    """Per-node receive budget: c0 * |N_i| * S_th / 100, in ticks."""
    if neighborhood < 0:
        raise ValueError("neighborhood must be >= 0")
    return int(math.floor(cfg.c0 * neighborhood * cfg.s_th / 100.0 + 0.5))


def effective_epsilon(cfg: ProtocolConfig, estimate: int) -> float:
    """Window half-width actually used by a node.

    With adaptive C the per-node receive budget C_i = c0 * |N_i| * s_th/100
    widens the window to C_i / (2T) for high-degree nodes; the configured
    epsilon is the floor and 0.5, a window over the whole period, the cap.
    """
    if cfg.adaptive_c and estimate > 0:
        budget = adaptive_c(cfg, estimate)
        return min(0.5, max(cfg.epsilon, budget / (2 * cfg.period_t)))
    return cfg.epsilon
