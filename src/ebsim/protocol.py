"""Per-node configuration and state of the duty-cycled broadcast-slot
protocol, and the window formulas the engine applies.

Nodes move through four modes: Initialization (awake, counting
neighbours), Synchronization (awake, coupling active), SteadyDutyCycled
(asleep outside the wake window) and Recovery, one fully awake period a
steady node spends after its synchronicity dropped below the threshold;
it then refreshes its neighbour estimate and drops back to
Synchronization.

This module holds data only: sim.Engine runs every transition, the
reception step in its event loop and the period end in its fire handler.
Time is integer ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class Mode(Enum):
    INITIALIZATION = "init"
    SYNCHRONIZATION = "sync"
    STEADY = "steady"
    RECOVERY = "recovery"


class Variant(Enum):
    NO_REACHBACK = "no_reachback"
    PARTIAL_REACHBACK = "partial_reachback"


@dataclass(frozen=True)
class ProtocolConfig:
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


@dataclass(frozen=True)
class MrfConfig:
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
    # simulator bookkeeping; armed: (tick, seq) of queued FIRE entries, earliest last
    armed: list[tuple[int, int]] = field(default_factory=list)
    advance_accum: float = 0.0
    rx_busy_until: int = -1
    # the reception in flight as (sender, arrival tick): its commit waits in
    # the engine's FIFO, and a collision clears it, so at most one
    rx_pending: tuple[int, int] | None = None
    fires: list[int] = field(default_factory=list)

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
