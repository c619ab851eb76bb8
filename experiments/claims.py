"""The paper's testbed and churn claims over many seeds: C5, C6, C7 and C8
of tests/test_acceptance.py at seeds 0-19.  Tier-1 judges each claim at
its own seeds through this module's c5, c6, c7 and c8, so a claim's
criterion is stated here only, and its runs in a shipped scenario under
scenarios/, run at run.seed = seed (on the 87-node testbed analog, also
at delay.link_seed = 1000 + seed).  Each claim's criterion:
- C5 (mrf_compare.txt, EBS): over the last 10 periods, duty <= 5% and
  throughput >= 80% (the test runs seed 0);
- C6 (sth_sweep.txt at S_Th = 20, 40, 60, 80, 95): over the last 10
  periods, duty nondecreasing in S_Th, throughput in [15, 35]% at 20,
  >= 80% at 80 and rising from 20 to 80 (the test runs seed 1);
- C7 (churn.txt): every node steady 10 periods after each churn event, and
  no flap but by the leaver's neighbours in the 10 periods after it leaves
  (the test runs seeds 0-2);
- C8 (mrf_compare.txt): C5's run has at most a fifth of the duty of the
  refractory baseline and a throughput within 10 points of it (the test
  runs seed 0).
It prints, per claim, the seeds that pass and, per term of the criterion,
the margin over the seeds (min, quartiles, max; a term holds where its
margin is >= 0, a strict one where it is > 0); the wall time goes to
stderr.

    PYTHONPATH=src python experiments/claims.py

Stdlib only; all 20 seeds take 1-1.5 minutes on one core.
"""

import functools
import os
import statistics
import sys
import time

from ebsim.scenario import ScenarioConfig, apply_override, parse_scenario, run_config

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scenarios")
SEEDS = 20
TAIL = 10  # the periods C5, C6 and C8 average
RECOVERY = 10  # the periods C7 allows after each churn event
S_THS = (20, 40, 60, 80, 95)


@functools.cache
def _parsed(name: str) -> ScenarioConfig:
    return parse_scenario(os.path.join(SCENARIOS, name))


def _point(name: str, seed: int, s_th: float | None = None) -> ScenarioConfig:
    """A shipped scenario at a seed, and at an S_Th where one is given."""
    cfg = apply_override(_parsed(name), "run.seed", seed)
    if "delay.link_seed" in cfg.given:
        cfg = apply_override(cfg, "delay.link_seed", 1000 + seed)
    return cfg if s_th is None else apply_override(cfg, "protocol.s_th", s_th)


@functools.lru_cache(maxsize=None)  # C8 reuses C5's runs
def _tail(name: str, seed: int, scheme: str = "ebs", s_th: float | None = None
          ) -> tuple[float, float]:
    """(duty, throughput) of one testbed run, each the mean of the last TAIL periods."""
    series = run_config(_point(name, seed, s_th), scheme).series[-TAIL:]
    return (sum(row.duty_pct for row in series) / len(series),
            sum(row.thr_pct for row in series) / len(series))


def c5(seed: int) -> tuple[bool, dict[str, float]]:
    """(C5 holds, the margin of each term) at one seed."""
    duty, thr = _tail("mrf_compare.txt", seed)
    return duty <= 5.0 and thr >= 80.0, {"duty <= 5%": 5.0 - duty, "thr >= 80%": thr - 80.0}


def c6(seed: int) -> tuple[bool, dict[str, float]]:
    """(C6 holds, the margin of each term) at one seed."""
    duty, thr = zip(*(_tail("sth_sweep.txt", seed, s_th=float(s_th)) for s_th in S_THS))
    rising = thr[0] < thr[1] < thr[2] < thr[3]
    holds = (all(a <= b for a, b in zip(duty, duty[1:]))
             and 15.0 <= thr[0] <= 35.0 and thr[3] >= 80.0 and rising)
    return holds, {"duty nondecreasing": min(b - a for a, b in zip(duty, duty[1:])),
                   "thr(20) >= 15%": thr[0] - 15.0, "thr(20) <= 35%": 35.0 - thr[0],
                   "thr(80) >= 80%": thr[3] - 80.0,
                   "thr rising to 80 (> 0)": min(b - a for a, b in zip(thr, thr[1:4]))}


def c7(seed: int) -> tuple[bool, dict[str, float]]:
    """(C7 holds, the margin of each term) at one seed."""
    cfg = _point("churn.txt", seed)
    result = run_config(cfg)
    leave, join = cfg.churn
    neighbours = cfg.topology.adjacency[leave.node_id]
    start = leave.at_period * cfg.protocol.period_t
    window = range(start, start + RECOVERY * cfg.protocol.period_t)
    stray = sum(not (t in window and nid in neighbours) for t, nid in result.flap_events)
    steady = [result.series[ev.at_period + RECOVERY - 1].steady_pct for ev in (leave, join)]
    return steady == [100.0, 100.0] and not stray, {
        "steady after leave": steady[0] - 100.0, "steady after join": steady[1] - 100.0,
        "no stray flap": float(-stray)}


def c8(seed: int) -> tuple[bool, dict[str, float]]:
    """(C8 holds, the margin of each term) at one seed."""
    ebs_duty, ebs_thr = _tail("mrf_compare.txt", seed)
    mrf_duty, mrf_thr = _tail("mrf_compare.txt", seed, "mrf")
    holds = ebs_duty * 5 <= mrf_duty and abs(ebs_thr - mrf_thr) <= 10.0
    return holds, {"5 x duty <= baseline's": mrf_duty - ebs_duty * 5,
                   "|thr gap| <= 10": 10.0 - abs(ebs_thr - mrf_thr)}


CLAIMS = {"C5": c5, "C6": c6, "C7": c7, "C8": c8}


def main() -> int:
    start = time.perf_counter()
    print(f"{'claim':<5} {'passed':>6}  {'term':<24} {'min':>7} {'q1':>7} {'median':>7} "
          f"{'q3':>7} {'max':>7}  failing seeds")
    for name, claim in CLAIMS.items():
        results = [claim(seed) for seed in range(SEEDS)]
        failing = [seed for seed, (holds, _) in enumerate(results) if not holds]
        for i, term in enumerate(results[0][1]):
            margins = sorted(margin[term] for _, margin in results)
            q1, median, q3 = statistics.quantiles(margins, n=4)
            head = (f"{name:<5} {SEEDS - len(failing):>3}/{SEEDS:<2}" if i == 0 else " " * 12)
            tail = (", ".join(map(str, failing)) or "none") if i == 0 else ""
            print(f"{head}  {term:<24} {margins[0]:>7.2f} {q1:>7.2f} {median:>7.2f} "
                  f"{q3:>7.2f} {margins[-1]:>7.2f}  {tail}".rstrip())
    print(f"wall time {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
