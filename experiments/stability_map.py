"""The stability map: where does `check`'s verdict match what the engine does?

`check` says `stable = yes` when sigma is below its bound sigma_max, which
falls as delta = nu / T grows.  For each point of a grid over epsilon,
delta and sigma at 0.5x, 0.9x, 1.1x and 2x that bound, as build_report
computes it (the 56 points where it is positive), this script judges the
point with build_report and runs scenarios/delay_sweep.txt there (its
epsilon, sigma and delay.nu = round(delta * T) set, T its period) for 60
periods under seeds 0-7.  A seed settles when dplus is 0 in every period
from 20 on.  It prints one row a point and the number of points where the
verdict agrees with the seed majority (more than half the seeds settled,
or not); the wall time goes to stderr.  Tier-1's C4 in
tests/test_acceptance.py is judge() at four delays over 50 seeds and
100 periods, so its settled criterion is stated here only.

    PYTHONPATH=src python experiments/stability_map.py

Stdlib only; the full map takes about 15 s on one core.
"""

import os
import sys
import time

from ebsim.params import build_report
from ebsim.scenario import ScenarioConfig, apply_override, parse_scenario, run_config

SCENARIO = parse_scenario(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                       "scenarios", "delay_sweep.txt"))
EPSILONS = (0.02, 0.05, 0.1, 0.2)
DELTAS = (0.0, 0.005, 0.01, 0.02)
FACTORS = (0.5, 0.9, 1.1, 2.0)  # sigma as a multiple of check's bound
SEEDS = 8
PERIODS = 60


def _point(epsilon: float, delta: float, sigma: float, periods: int = PERIODS) -> ScenarioConfig:
    keys = {"protocol.epsilon": epsilon, "protocol.sigma": sigma,
            "delay.nu": round(delta * SCENARIO.protocol.period_t), "run.horizon": periods}
    cfg = SCENARIO
    for key, value in keys.items():
        cfg = apply_override(cfg, key, value)
    return cfg


def points() -> list[tuple[float, float, float, float]]:
    """Each (epsilon, delta, factor, sigma) of the map whose bound is positive."""
    out = []
    for epsilon in EPSILONS:
        for delta in DELTAS:
            bound = build_report(_point(epsilon, delta, 0.5).spec).sigma_max  # any valid sigma
            if bound > 0:
                out += [(epsilon, delta, factor, factor * bound) for factor in FACTORS]
    return out


def judge(epsilon: float, delta: float, sigma: float, seeds: int = SEEDS,
          periods: int = PERIODS) -> tuple[bool, int]:
    """(check's stable verdict, the number of seeds that settle) at one point."""
    cfg = _point(epsilon, delta, sigma, periods)
    settled = 0
    for seed in range(seeds):
        series = run_config(apply_override(cfg, "run.seed", seed)).series
        settled += all(row.dplus == 0.0 for row in series if row.period >= 20)
    return build_report(cfg.spec).stable, settled


def main() -> int:
    start = time.perf_counter()
    grid = points()
    agree = 0
    print(f"{'epsilon':>7} {'delta':>6} {'x bound':>7} {'sigma':>8}  check  settled  agrees")
    for epsilon, delta, factor, sigma in grid:
        stable, settled = judge(epsilon, delta, sigma)
        agrees = stable == (2 * settled > SEEDS)
        agree += agrees
        print(f"{epsilon:>7} {delta:>6} {factor:>7} {sigma:>8.5f}  {'yes' if stable else 'NO':>5}"
              f"  {settled:>3}/{SEEDS:<3}  {'yes' if agrees else 'no':>6}")
    print(f"check agrees with the seed majority on {agree} of {len(grid)} points")
    print(f"wall time {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
