"""End-to-end acceptance checks.

One test per claim, each printing a single PASS/FAIL line (run pytest with
-s or read captured output).  These are the slowest tests in the suite;
together they take on the order of a minute.

C1 to C4 run scenarios/delay_sweep.txt, the 5x5 torus at T = 10000,
through the point builder of experiments/stability_map.py.  C4 to C8 are
judged through that script and experiments/claims.py, which state each
claim's criterion once and run it on a shipped scenario: C5 and C8 on
mrf_compare.txt, C6 on sth_sweep.txt and C7 on churn.txt.
"""

import heapq
import importlib.util
import os
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st

from ebsim.metrics import export_csv
from ebsim.protocol import MrfConfig, ProtocolConfig
from ebsim.scenario import apply_override, parse_scenario_text, run_config
from ebsim import sim
from ebsim.sim import DelayModel, EventKind, LinkFaultModel, run
from ebsim.topology import Topology

from tick_oracle import run_oracle


def _script(name: str):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "experiments", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


claims, stability_map = _script("claims"), _script("stability_map")


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _margins(judged: tuple[bool, dict[str, float]]) -> tuple[bool, str]:
    """A script claim's verdict, and the margin of each term as a report detail."""
    holds, margins = judged
    return holds, ", ".join(f"{term}: margin {margin:.2f}" for term, margin in margins.items())


def _seeds(point) -> list:
    """The series of point's run at each of seeds 0-99."""
    return [run_config(apply_override(point, "run.seed", seed)).series for seed in range(100)]


def test_c1_convergence_speed():
    start = time.perf_counter()
    counts = {}
    for sigma in (0.001, 0.005):
        runs = _seeds(stability_map._point(0.01, 0.0, sigma, periods=6))
        counts[sigma] = sum(any(r.dphi_circular < 0.01 for r in series[:5]) for series in runs)
    elapsed = time.perf_counter() - start
    passed = all(c >= 95 for c in counts.values()) and elapsed < 5.0
    assert _report(
        "C1 convergence speed",
        passed,
        f"circular phase error < 0.01 within 5 periods for "
        f"{counts[0.001]}/100 (sigma=0.001) and {counts[0.005]}/100 "
        f"(sigma=0.005) seeds, need >= 95 each; runtime {elapsed:.2f}s < 5s")


def test_c2_phase_advancement_quiescence():
    runs = _seeds(stability_map._point(0.01, 0.0, 0.005, periods=20))
    bad = sum(any(r.dplus > 0.0 for r in series if r.period > 10) for series in runs)
    assert _report(
        "C2 advancement quiescence",
        bad == 0,
        f"average phase advancement exactly 0 after period 10 in "
        f"{100 - bad}/100 seeds, need 100")


def test_c3_instability_above_bound():
    # sigma = 0.02 is roughly twice the stability bound for epsilon = 0.01.
    # A moderate synchronicity threshold keeps most of the network in the
    # always-awake coupling mode; with a high threshold, nodes that briefly
    # align freeze into duty-cycled sleep and quench the fluctuation instead.
    point = stability_map._point(0.01, 0.0, 0.02, periods=50)
    sustaining = 0
    for series in _seeds(apply_override(point, "protocol.s_th", 60)):
        window = [r for r in series if 10 <= r.period <= 50]
        active = sum(1 for r in window if r.dplus > 0.0)
        if active >= 0.8 * len(window):
            sustaining += 1
    assert _report(
        "C3 instability above bound",
        sustaining >= 90,
        f"advancement stays positive over 80% of periods 10-50 in "
        f"{sustaining}/100 seeds, need >= 90")


def test_c4_delay_dichotomy():
    # check's bound is positive at delta 0 and 0.01, negative at 0.1 and
    # exactly 0 at 0.05 (epsilon = 2 delta), whose verdict is left unpinned
    assert len(stability_map.points()) == 56
    stable, hits = {}, {}
    for delta in (0.0, 0.01, 0.05, 0.1):
        stable[delta], settled = stability_map.judge(0.1, delta, 0.01, seeds=50, periods=100)
        hits[delta] = settled if delta <= 0.01 else 50 - settled
    assert _report(
        "C4 delay dichotomy",
        all(h > 25 for h in hits.values()) and stable[0.0] and stable[0.01] and not stable[0.1],
        "per-seed majority over 50 seeds: settled for delta in {0, 0.01}: "
        f"{hits[0.0]}/50, {hits[0.01]}/50; fluctuating for delta in "
        f"{{0.05, 0.1}}: {hits[0.05]}/50, {hits[0.1]}/50; need > 25 each; check's stable "
        f"verdicts {stable}, need True at 0 and 0.01 and False at 0.1")


def test_c5_duty_throughput_envelope():
    assert _report("C5 duty/throughput envelope", *_margins(claims.c5(0)))


def test_c6_s_th_monotonicity():
    assert _report("C6 S_Th monotonicity", *_margins(claims.c6(1)))


def test_c7_churn_recovery():
    judged = [_margins(claims.c7(seed)) for seed in range(3)]
    assert _report("C7 churn recovery", all(holds for holds, _ in judged),
                   "; ".join(f"seed {seed}: {detail}" for seed, (_, detail) in enumerate(judged)))


def test_c8_mrf_comparison():
    assert _report("C8 refractory-baseline comparison", *_margins(claims.c8(0)))


def test_c9_determinism(tmp_path):
    text = """
topology.kind = grid
topology.rows = 5
topology.cols = 5
topology.wraparound = true
protocol.period_t = 1000
protocol.epsilon = 0.05
protocol.sigma = 0.01
protocol.s_th = 80
protocol.init_listen_periods = 0
delay.kind = uniform
delay.lo = 0
delay.hi = 20
delay.link_hi = 10
fault.loss_probability = 0.05
fault.collisions = true
fault.beta = 2
churn.1 = leave 12 at 10
run.horizon = 25
run.seed = 5
"""
    from ebsim.scenario import run_config
    cfg = parse_scenario_text(text)
    paths = []
    for name in ("a.csv", "b.csv"):
        res = run_config(cfg)
        path = tmp_path / name
        export_csv(res.series, str(path))
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    assert _report(
        "C9 determinism",
        identical,
        "same scenario and seed twice -> byte-identical CSV "
        f"({paths[0].stat().st_size} bytes)")


# the 3-node path plus graphs with branching, a triangle and a wrapping ring
ORACLE_GRAPHS = {
    "path3": {0: {1}, 1: {0, 2}, 2: {1}},
    "path4": {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}},
    "triangle": {0: {1, 2}, 1: {0, 2}, 2: {0, 1}},
    "star5": {0: {1, 2, 3, 4}, 1: {0}, 2: {0}, 3: {0}, 4: {0}},
    "ring6": {i: {(i - 1) % 6, (i + 1) % 6} for i in range(6)},
}


def _oracle_difference(res, fires, rows) -> str | None:
    """What differs between an engine run and the oracle's, if anything."""
    if res.fire_times != fires:
        return "fire times differ"
    for row, (lit, circ) in zip(res.series, rows):
        if abs(row.dphi_literal - lit) > 1e-12 or abs(row.dphi_circular - circ) > 1e-12:
            return "phase metrics differ"
    return None


def test_c10_oracle_equivalence():
    mismatches = []
    cfg = ProtocolConfig(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80.0,
                         init_listen_periods=0)
    for name, adj in ORACLE_GRAPHS.items():
        for seed in range(10):
            # delayed: each directed link takes a fixed 5 ticks plus its own 0..20
            for delay in (DelayModel(), DelayModel(kind="deterministic", nu=5, link_hi=20,
                                                   link_seed=seed)):
                topo = Topology({k: set(v) for k, v in adj.items()})
                table = {link: 5 + offset for link, offset in delay.link_table(topo).items()}
                label = f"{name} seed {seed}{' delayed' if table else ''}"
                res = run(topo, cfg, delay=delay, horizon=20, seed=seed)
                fires, rows = run_oracle(topo, period=1000, epsilon=0.05, sigma=0.01,
                                         s_th=80.0, horizon=20, seed=seed, delays=table)
                if problem := _oracle_difference(res, fires, rows):
                    mismatches.append(f"{label}: {problem}")
    assert _report(
        "C10 oracle equivalence",
        not mismatches,
        "tick-by-tick reference simulator matches the event engine on fire "
        "times and per-period phase differences for 20 periods x 10 seeds, "
        "without delay and with a fixed 5..25-tick delay per link, on "
        + ", ".join(ORACLE_GRAPHS)
        + ("" if not mismatches else "; " + "; ".join(mismatches)))


def test_c10_oracle_equivalence_under_strong_coupling(monkeypatch):
    # sigma above epsilon: a node jumps several times a period, so its stack
    # of queued FIRE entries grows (4-5 deep on star5), and a fire is often
    # reached through wake-ups; the engine still fires when the oracle does
    deepest = 0

    class _DepthHeap:
        """heapq, noting the deepest FIRE stack a push leaves."""
        engine = None
        heappop = staticmethod(heapq.heappop)

        def heappush(self, heap, entry):
            nonlocal deepest
            heapq.heappush(heap, entry)
            if entry[1] == EventKind.FIRE and self.engine is not None:
                deepest = max(deepest, len(self.engine.nodes[entry[2]].armed))

    depth_heap = _DepthHeap()
    monkeypatch.setattr(sim, "heapq", depth_heap)
    mismatches = []
    for sigma, epsilon in ((0.3, 0.05), (0.6, 0.02)):
        cfg = ProtocolConfig(period_t=1000, epsilon=epsilon, sigma=sigma, s_th=80.0,
                             init_listen_periods=0)
        for name, adj in ORACLE_GRAPHS.items():
            for seed in range(5):
                # odd seeds: the fixed 5..25-tick delay per link of C10
                delay = seed % 2 and DelayModel(kind="deterministic", nu=5, link_hi=20,
                                                link_seed=seed) or DelayModel()
                topo = Topology({k: set(v) for k, v in adj.items()})
                table = delay and {link: 5 + offset
                                   for link, offset in delay.link_table(topo).items()}
                depth_heap.engine = None  # while the nodes spawn
                spec = sim.RunSpec(topo, cfg, delay=delay, horizon=20, seed=seed)
                depth_heap.engine = engine = sim.Engine(spec)
                res = engine.run()
                fires, rows = run_oracle(topo, period=1000, epsilon=epsilon, sigma=sigma,
                                         s_th=80.0, horizon=20, seed=seed, delays=table)
                if problem := _oracle_difference(res, fires, rows):
                    mismatches.append(f"sigma {sigma} epsilon {epsilon} {name} seed {seed}: "
                                      + problem)
    assert deepest >= 4
    assert _report(
        "C10 oracle equivalence, strong coupling",
        not mismatches,
        f"the engine matches the tick oracle at sigma 0.3 / epsilon 0.05 and sigma 0.6 / "
        f"epsilon 0.02, 5 seeds each on {', '.join(ORACLE_GRAPHS)}; FIRE stacks reached "
        f"depth {deepest}" + ("" if not mismatches else "; " + "; ".join(mismatches)))


@st.composite
def _connected_graphs(draw) -> dict[int, set[int]]:
    """A connected graph of 3-8 nodes: a random tree plus random extra edges."""
    n = draw(st.integers(3, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= set(draw(st.lists(st.sampled_from([(u, v) for v in range(n) for u in range(v)]),
                               max_size=n)))
    adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_connected_graphs(), st.integers(-2 ** 63, 2 ** 63 - 1),
       # whole ticks of T = 1000 too, where a phase can meet a window edge
       st.integers(1, 500).map(lambda k: k / 1000) | st.floats(0.0, 0.5, exclude_min=True),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.none() | st.integers(-2 ** 63, 2 ** 63 - 1), st.none() | st.integers(1, 30),
       st.integers(0, 3), st.just(0.0) | st.floats(0.0, 1.0),
       # the refractory baseline: (refractory, sleeping) or None for EBS
       st.none() | st.tuples(st.integers(1, 999), st.booleans()),
       st.none() | st.integers(1, 1000), st.sampled_from([0.0, 80.0]))
# the refractory edge: a reception exactly refractory ticks after the
# receiver's own fire couples, and an arrival inside a sleeping baseline's
# stretch claims no airtime (it would collide with a later one)
@example({0: {1, 2, 3}, 1: {0}, 2: {0, 3}, 3: {0, 2}}, 1, 0.001, 0.5, None, None, 0, 0.0,
         (954, True), None, 80.0)
@example({0: {1, 2}, 1: {0}, 2: {0}}, 0, 0.001, 0.671875, None, 2, 0, 0.0, (151, True), None,
         80.0)
# under loss the listening periods hear different senders, and adaptive C
# sets the first window from the estimate of all of them
@example({0: {1, 2, 3, 4, 5, 6}, **{i: {0} for i in range(1, 7)}}, 0, 0.001, 0.03125, None,
         None, 2, 0.75, None, 1, 80.0)
# at S_Th 0 a synchronizing node that has heard nobody keeps synchronizing
@example({0: {1, 2}, 1: {0}, 2: {0}}, 2, 0.05, 0.01, None, None, 1, 0.9, None, None, 0.0)
def test_c10_oracle_equivalence_on_random_graphs(adjacency, seed, epsilon, sigma, link_seed,
                                                 beta, listen, loss, baseline, c0, s_th):
    # C10 beyond its five graphs: any connected graph of 3-8 nodes and any
    # seed, epsilon and sigma run_error admits, with or without the fixed
    # 5..25-tick delay per link (drawn from link_seed), with or without
    # collisions at an airtime of beta ticks, after 0-3 Initialization
    # periods, at any loss, with or without adaptive C at a budget of c0,
    # at S_Th 0 or 80, running EBS or the sleeping or always-listening
    # refractory baseline
    cfg = ProtocolConfig(period_t=1000, epsilon=epsilon, sigma=sigma, s_th=s_th,
                         c0=c0 or 50, adaptive_c=c0 is not None, init_listen_periods=listen)
    topo = Topology(adjacency)
    delay = link_seed is not None and DelayModel(kind="deterministic", nu=5, link_hi=20,
                                                 link_seed=link_seed) or DelayModel()
    table = delay and {link: 5 + offset for link, offset in delay.link_table(topo).items()}
    fault = LinkFaultModel(loss_probability=loss, collisions_enabled=beta is not None,
                           airtime_beta=beta or 4)
    refractory, sleep = baseline or (0, False)
    mrf = baseline and MrfConfig(refractory, sleep)
    res = run(topo, cfg, mrf=mrf, delay=delay, fault=fault, horizon=10, seed=seed)
    fires, rows = run_oracle(topo, period=1000, epsilon=epsilon, sigma=sigma, s_th=s_th,
                             horizon=10, seed=seed, delays=table, beta=beta,
                             init_listen_periods=listen, loss=loss,
                             refractory=refractory, sleep=sleep, adaptive_c0=c0)
    assert _oracle_difference(res, fires, rows) is None
