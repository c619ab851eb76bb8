"""Closed-form parameter calculators and validity predicates.

All helpers are pure; durations are integer ticks (1 tick = 1 ms of model
time by default) and phase quantities are fractions of the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def epsilon_opt(beta: int, neighborhood: int, nu: int, t: int) -> float:
    """Smallest wake-window half-width that fits a full neighbourhood of
    broadcasts plus round-trip propagation: (beta*|N| + 4*nu) / (2*T),
    clamped to the 0.5 ceiling."""
    if t <= 0:
        raise ValueError("period T must be positive")
    raw = (beta * neighborhood + 4 * nu) / (2 * t)
    return min(raw, 0.5)


def _sigma_bound(epsilon: float, delta: float) -> float:
    """Pairwise stability bound: a heard fire lands the listener back inside
    the firer's window while sigma < (epsilon - 2*delta) / (1 - epsilon)."""
    return (epsilon - 2 * delta) / (1.0 - epsilon)


def sigma_max(epsilon: float, nu: int, t: int) -> float:
    """Largest coupling strength that keeps a heard fire inside the firer's
    window under symmetric propagation delay nu."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return _sigma_bound(epsilon, delta_from_ticks(nu, t))


def adaptive_c(c0: int, neighborhood: int, s_th: float) -> int:
    """Per-node receive budget: c0 * |N_i| * S_th / 100, in ticks."""
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    if neighborhood < 0:
        raise ValueError("neighborhood must be >= 0")
    if not 0.0 <= s_th <= 100.0:
        raise ValueError("s_th must be within [0, 100]")
    return int(math.floor(c0 * neighborhood * s_th / 100.0 + 0.5))


def delta_from_ticks(nu: int, t: int) -> float:
    """Propagation delay expressed as a phase fraction."""
    if t <= 0:
        raise ValueError("period T must be positive")
    return nu / t


def check_stability(epsilon: float, sigma: float, delta: float = 0.0) -> tuple[bool, float]:
    """Whether (epsilon, sigma) tolerates a per-hop phase delay delta.

    Stable iff sigma < (epsilon - 2*delta) / (1 - epsilon) and, strictly,
    epsilon > 2*delta.  Returns (stable, margin) where margin is the bound
    minus sigma.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5], got {epsilon}")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    bound = _sigma_bound(epsilon, delta)
    stable = sigma < bound and epsilon > 2 * delta
    return stable, bound - sigma


@dataclass
class ParamReport:
    """Everything the `check` subcommand prints."""

    epsilon: float
    sigma: float
    delta: float
    epsilon_opt: float
    sigma_max: float
    stable: bool
    margin: float
    adaptive_c_per_node: dict[int, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [
            f"epsilon          = {self.epsilon}",
            f"sigma            = {self.sigma}",
            f"delta (nu/T)     = {self.delta}",
            f"epsilon_opt      = {self.epsilon_opt}",
            f"sigma_max        = {self.sigma_max}",
            f"stable           = {'yes' if self.stable else 'NO'}",
            f"stability margin = {self.margin}",
        ]
        if self.adaptive_c_per_node:
            budgets = sorted(set(self.adaptive_c_per_node.values()))
            out.append(f"adaptive C range = {budgets[0]}..{budgets[-1]} ticks "
                       f"({len(self.adaptive_c_per_node)} nodes)")
        for w in self.warnings:
            out.append(f"warning: {w}")
        return out


def build_report(epsilon: float, sigma: float, t: int, c0: int, nu: int,
                 s_th: float, topology=None, adaptive: bool = False) -> ParamReport:
    """Assemble the calculator outputs for one configuration.

    When a topology is supplied, epsilon_opt uses its average degree and,
    with adaptive=True, per-node receive budgets are tabulated.
    """
    warnings: list[str] = []
    avg_deg = topology.average_degree if topology is not None else 1.0
    # c0 ticks of receive budget per neighbour play the role of beta
    eps_opt = epsilon_opt(c0, avg_deg, nu, t)
    if eps_opt == 0.5:
        warnings.append("epsilon_opt reaches the 0.5 ceiling; clamped")
    smax = sigma_max(epsilon, nu, t)
    if smax <= 0:
        warnings.append("no valid sigma: delay consumes the whole window")
    delta = delta_from_ticks(nu, t)
    stable, margin = check_stability(epsilon, sigma, delta)
    per_node: dict[int, int] = {}
    if adaptive and topology is not None:
        per_node = {nid: adaptive_c(c0, topology.degree(nid), s_th)
                    for nid in topology.node_ids}
    if epsilon < eps_opt:
        warnings.append(f"epsilon {epsilon} below epsilon_opt {eps_opt:.4f}; "
                        "expect flapping unless adaptive C widens the window")
    return ParamReport(epsilon, sigma, delta, eps_opt, smax, stable, margin,
                       per_node, warnings)
