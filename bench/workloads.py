"""The benchmark's workloads, as scenario files generated from a seed.

Each workload is a scenario (flat ``key = value`` text, the format
``ebsim.scenario.parse_scenario`` reads) plus the run seeds one repetition
executes.  The run seeds are derived from the workload seed, so the same
workload seed always gives the same inputs.  This module imports nothing
from ``ebsim``: the harness process never imports the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                   # "library": Engine driven by the harness; "cli": ebsim.cli sweep
    keys: tuple[tuple[str, str], ...]
    seeds_per_rep: int
    quick_seeds: int
    quick_horizon: int

    def run_seeds(self, seed: int, quick: bool = False) -> list[int]:
        count = self.quick_seeds if quick else self.seeds_per_rep
        return list(range(seed * self.seeds_per_rep, seed * self.seeds_per_rep + count))

    def scenario_text(self, seed: int, quick: bool = False) -> str:
        keys = dict(self.keys)
        if quick:
            keys["run.horizon"] = str(self.quick_horizon)
        seeds = self.run_seeds(seed, quick)
        keys["run.seed"] = str(seeds[0])
        if self.entry == "cli":
            keys["sweep.parameter"] = "run.seed"
            keys["sweep.values"] = "[" + ", ".join(map(str, seeds)) + "]"
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


_TORUS = (("topology.kind", "grid"), ("topology.rows", "5"),
          ("topology.cols", "5"), ("topology.wraparound", "true"))

WORKLOADS = {w.name: w for w in (
    # C4 at delta = 0.05: one shared link delay keeps coupling active, so
    # about half of all FIRE pops are stale; no collisions, fan-out 4.
    Workload(
        name="torus-delay",
        entry="library",
        keys=_TORUS + (
            ("protocol.period_t", "10000"), ("protocol.epsilon", "0.1"),
            ("protocol.sigma", "0.01"), ("protocol.s_th", "80"),
            ("protocol.init_listen_periods", "0"),
            ("delay.kind", "deterministic"), ("delay.nu", "500"),
            ("run.horizon", "100")),
        seeds_per_rep=5, quick_seeds=1, quick_horizon=5),
    # The configuration of scenarios/mrf_compare.txt, copied so that an edit
    # to the shipped scenario does not silently change the benchmark.
    # ARRIVAL and RX_COMMIT are ~97% of heap pushes; every link has its own
    # delay; the only workload on the mrf_* protocol path.
    Workload(
        name="testbed-collide",
        entry="library",
        keys=(("topology.kind", "random_geometric"), ("topology.n", "87"),
              ("topology.radius", "0.320408"), ("topology.seed", "7"),
              ("protocol.period_t", "30000"), ("protocol.epsilon", "0.0133"),
              ("protocol.sigma", "0.002"), ("protocol.s_th", "80"),
              ("protocol.adaptive_c", "true"), ("protocol.c0", "50"),
              ("protocol.init_listen_periods", "0"),
              ("mrf.enabled", "true"), ("mrf.t_ref", "15000"),
              ("mrf.sleep", "false"),
              ("delay.link_lo", "0"), ("delay.link_hi", "150"),
              ("delay.link_seed", "1000"),
              ("fault.collisions", "true"), ("fault.beta", "1"),
              ("run.horizon", "50")),
        seeds_per_rep=2, quick_seeds=1, quick_horizon=3),
    # C1 with churn, many short runs through the CLI: per-run set-up
    # (override, topology, Engine, sampling, CSV) is 9% or more of the work
    # here and ~1% elsewhere; churn rebuilds the topology mid-run.
    Workload(
        name="cli-seed-sweep",
        entry="cli",
        keys=_TORUS + (
            ("protocol.period_t", "10000"), ("protocol.epsilon", "0.01"),
            ("protocol.sigma", "0.005"), ("protocol.s_th", "80"),
            ("protocol.init_listen_periods", "0"),
            ("churn.1", "leave 12 at 2"),
            ("churn.2", "join 25 at 4 edges 7,11,13,17"),
            ("run.horizon", "6")),
        seeds_per_rep=1000, quick_seeds=3, quick_horizon=6),
)}
