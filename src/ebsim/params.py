"""The `check` analysis of a run's RunSpec, as one report.

build_report is pure, and refuses what the engine refuses; durations are
integer ticks (1 tick = 1 ms of model time by default) and phase
quantities are fractions of the period.
"""

from typing import NamedTuple

from .protocol import adaptive_c, effective_epsilon
from .sim import RunSpec, SimulationError, run_error


class ParamReport(NamedTuple):
    """Everything the `check` subcommand prints.  With adaptive C, budgets
    is the (lowest, highest) per-node receive budget in ticks."""

    epsilon: float
    sigma: float
    delta: float
    epsilon_opt: float
    sigma_max: float | None  # None where no node can couple
    stable: bool
    margin: float | None
    warnings: list[str]
    budgets: tuple[int, int] | None
    nodes: int
    epsilon_max: float

    def lines(self) -> list[str]:
        out = [
            f"epsilon          = {self.epsilon}",
            f"sigma            = {self.sigma}",
            f"delta (nu/T)     = {self.delta}",
            f"epsilon_opt      = {self.epsilon_opt}",
            f"sigma_max        = {'n/a' if self.sigma_max is None else self.sigma_max}",
            f"stable           = {'yes' if self.stable else 'NO'}",
            f"stability margin = {'n/a' if self.margin is None else self.margin}",
        ]
        if self.budgets is not None:
            out.append(f"adaptive C range = {self.budgets[0]}..{self.budgets[1]} ticks "
                       f"({self.nodes} nodes)")
            out.append(f"adaptive epsilon = {self.epsilon:.4g}..{self.epsilon_max:.4g} "
                       "(judged at the smallest)")
        for w in self.warnings:
            out.append(f"warning: {w}")
        return out


def build_report(spec: RunSpec) -> ParamReport:
    """The analysis of spec's protocol on its topology under its worst-case
    delay nu: the largest jitter plus the largest link offset.  A spec the
    Engine refuses raises run_error's message as a SimulationError.

    Adaptive C widens each coupled node's window with its degree, so
    stability is judged at the narrowest window any node runs (epsilon) and
    epsilon_max is the widest; epsilon_opt uses the average degree.
    """
    if bad := run_error(spec):
        raise SimulationError(bad[1])
    cfg, topology, delay = spec.protocol, spec.topology, spec.delay
    jitter, offsets = delay.constant(), delay.link_table(topology).values()
    nu = (delay.hi if jitter is None else jitter) + max(offsets, default=0)
    t = cfg.period_t
    degrees = [len(topology.adjacency[nid]) for nid in topology.node_ids]
    windows = [effective_epsilon(cfg, d) for d in degrees if d > 0]  # run_error wants links
    epsilon = min(windows)
    delta = nu / t
    # a heard fire lands the listener back inside the firer's window while
    # sigma < smax and, strictly, epsilon > 2*delta
    smax = (epsilon - 2 * delta) / (1.0 - epsilon)
    stable = cfg.sigma < smax and epsilon > 2 * delta
    margin = smax - cfg.sigma
    warnings: list[str] = []
    # the smallest window that fits a neighbourhood's broadcasts, c0 ticks
    # each, plus round-trip delay: (c0*|N| + 4*nu) / (2*T), at most 0.5
    eps_opt = min((cfg.c0 * topology.average_degree + 4 * nu) / (2 * t), 0.5)
    if eps_opt == 0.5:
        warnings.append("epsilon_opt reaches the 0.5 ceiling; clamped")
    if smax <= 0:
        warnings.append("no valid sigma: delay consumes the whole window")
    if epsilon == 0.5:
        # every window covers the whole period, so the window test always
        # holds and no heard fire is ever coupled: nothing synchronizes, and
        # no coupling strength has a bound or a margin
        stable, smax, margin = False, None, None
        warnings.append("every window is 0.5, the whole period: no node can couple")
    if epsilon < eps_opt:
        warnings.append(f"epsilon {epsilon} below epsilon_opt {eps_opt:.4f}; "
                        "expect flapping unless adaptive C widens the window")
    budgets = None
    if cfg.adaptive_c:
        per_node = [adaptive_c(cfg, d) for d in degrees]
        budgets = (min(per_node), max(per_node))
        capped = sum(1 for budget in per_node if budget > t)
        if capped:
            warnings.append(f"adaptive window capped at 0.5 on {capped} of {topology.n} "
                            "nodes whose budget exceeds the period: they listen all "
                            "period and never couple")
    return ParamReport(epsilon, cfg.sigma, delta, eps_opt, smax, stable,
                       margin, warnings, budgets, topology.n, max(windows))
