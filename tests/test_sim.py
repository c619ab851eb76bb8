import heapq
import os
import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ebsim import sim
from ebsim.core import avg_phase_difference
from ebsim.params import build_report
from ebsim.protocol import Mode, MrfConfig, ProtocolConfig
from ebsim.scenario import apply_override, parse_scenario, run_config
from ebsim.sim import (ChurnEvent, ClockDriftModel, DelayModel, Engine,
                       EventKind, LinkFaultModel, RunSpec, SimulationError, run)
from ebsim.topology import (Topology, make_complete, make_random_geometric,
                            make_regular_grid)

from engine_steps import CountingHeap, deliver, fire


def make_cfg(**kw):
    base = dict(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80.0,
                init_listen_periods=0)
    base.update(kw)
    return ProtocolConfig(**base)


def pair():
    return Topology({0: {1}, 1: {0}})


def path3():
    return Topology({0: {1}, 1: {0, 2}, 2: {1}})


def test_invalid_engine_args():
    with pytest.raises(SimulationError):
        run(pair(), make_cfg(), horizon=0)
    with pytest.raises(TypeError):
        run(pair(), make_cfg(), scheme="mrf")  # the baseline is chosen by mrf=


def test_determinism_same_seed():
    topo = make_regular_grid(5, 5, wraparound=True)
    kw = dict(horizon=20, seed=3,
              delay=DelayModel(kind="uniform", lo=0, hi=5),
              fault=LinkFaultModel(loss_probability=0.1))
    a = run(topo, make_cfg(), **kw)
    b = run(topo, make_cfg(), **kw)
    assert a.fire_times == b.fire_times
    assert a.series == b.series
    assert a.stats == b.stats


def test_different_seed_differs():
    topo = make_regular_grid(5, 5, wraparound=True)
    a = run(topo, make_cfg(), horizon=5, seed=0)
    b = run(topo, make_cfg(), horizon=5, seed=1)
    assert a.fire_times != b.fire_times


def test_measure_average_degree():
    # the throughput ceiling is the lossless all-awake reception count:
    # initializing nodes listen all period, so every full period reads 100%
    for topo in (make_regular_grid(5, 5, True), make_complete(4)):
        res = run(topo, make_cfg(init_listen_periods=10), horizon=4, seed=0)
        assert [r.thr_pct for r in res.series][1:] == [100.0] * 3


def test_lossless_delivery_counts():
    # degree-4 nodes, lossless: one arrival attempt per (broadcast, neighbour)
    topo = make_regular_grid(5, 5, wraparound=True)
    res = run(topo, make_cfg(), horizon=10, seed=0)
    assert res.stats["arrival_attempts"] == res.stats["broadcasts"] * 4
    assert res.stats["lost"] == 0


@pytest.mark.parametrize("fault", [
    LinkFaultModel(collisions_enabled=True, airtime_beta=4),
    LinkFaultModel(loss_probability=0.2),
], ids=["collisions", "loss"])
def test_sampled_receptions_add_up_to_received(fault):
    # the run counts receptions in locals and hands them over at each
    # sample and at the end: without churn, the per-period counts that
    # thr_pct reports add up to stats["received"]
    topo = make_regular_grid(5, 5, wraparound=True)
    res = run(topo, make_cfg(), horizon=10, seed=0, fault=fault,
              delay=DelayModel(kind="uniform", lo=0, hi=30))
    ceiling = topo.average_degree * topo.n
    per_period = [round(r.thr_pct * ceiling / 100.0) for r in res.series]
    assert sum(per_period) == res.stats["received"] > 0
    assert res.stats["dropped_asleep"] > 0
    assert res.stats["collisions" if fault.collisions_enabled else "lost"] > 0


def test_total_loss_receives_nothing():
    topo = make_regular_grid(3, 3, wraparound=True)
    res = run(topo, make_cfg(init_listen_periods=2), horizon=5, seed=0,
              fault=LinkFaultModel(loss_probability=1.0))
    assert res.stats["received"] == 0
    assert res.stats["lost"] == res.stats["arrival_attempts"]
    assert any("no known neighbours" in w for w in res.warnings)


def test_deterministic_delay_shifts_arrivals():
    eng = Engine(RunSpec(path3(), make_cfg(), horizon=3, seed=0,
                         delay=DelayModel(kind="deterministic", nu=10)))
    fire(eng, 1, 100)
    arrivals = sorted(ev for ev in eng._heap if ev[1] == 3)  # ARRIVAL kind
    assert [ev[0] for ev in arrivals[-2:]] == [110, 110]


def test_link_delay_table_is_deterministic_and_additive():
    topo = path3()
    model = DelayModel(kind="deterministic", nu=3, link_lo=5, link_hi=25, link_seed=9)
    table = model.link_table(topo)
    # one draw per directed link from Random(link_seed), in sorted link order
    rng = random.Random(9)
    links = [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert table == {link: rng.randint(5, 25) for link in links}
    assert table == model.link_table(topo)
    # check judges at the largest jitter plus the largest offset
    for delay, jitter in ((model, 3), (model._replace(kind="uniform", nu=0, lo=1, hi=7), 7)):
        report = build_report(RunSpec(topo, make_cfg(), delay=delay))
        assert report.delta == (jitter + max(table.values())) / 1000
    assert DelayModel(kind="deterministic", nu=3).link_table(topo) == {}
    eng = Engine(RunSpec(topo, make_cfg(), horizon=3, seed=0, delay=model))
    assert eng._fanout == {0: ((1, table[(0, 1)]),),
                           1: ((0, table[(1, 0)]), (2, table[(1, 2)])),
                           2: ((1, table[(2, 1)]),)}
    fire(eng, 1, 100)
    arrivals = {(ev[0], ev[2]) for ev in eng._heap if ev[1] == EventKind.ARRIVAL}
    assert arrivals == {(100 + table[(1, r)] + 3, r) for r in (0, 2)}


def test_delay_constant_and_draw_split():
    # only uniform jitter draws, once per receiver in receiver order; the
    # other kinds add a constant
    assert DelayModel().constant() == 0
    assert DelayModel(kind="deterministic", nu=7).constant() == 7
    assert DelayModel(kind="uniform", lo=2, hi=9).constant() is None

    def arrivals(delay):
        eng = Engine(RunSpec(make_complete(4), make_cfg(), delay=delay))
        eng.rng = random.Random(4)
        fire(eng, 1, 100)
        return eng.rng, sorted((e[2], e[0]) for e in eng._heap if e[1] == EventKind.ARRIVAL)

    rng, got = arrivals(DelayModel(kind="uniform", lo=2, hi=9))
    ref = random.Random(4)
    assert got == [(recv, 100 + ref.randint(2, 9)) for recv in (0, 2, 3)]
    assert rng.random() == ref.random()
    rng, got = arrivals(DelayModel(kind="deterministic", nu=7))
    assert got == [(0, 107), (2, 107), (3, 107)]
    assert rng.random() == random.Random(4).random()  # the constant took no draw


def test_delay_model_validation():
    # the models are plain records; the engine refuses what no run can use
    def refused(match, **models):
        with pytest.raises(SimulationError, match=match):
            Engine(RunSpec(pair(), make_cfg(), **models))
    refused("unknown delay kind 'gaussian'", delay=DelayModel(kind="gaussian"))
    refused("delay hi 2 must be >= lo 5", delay=DelayModel(kind="uniform", lo=5, hi=2))
    refused("link_lo <= link_hi", delay=DelayModel(link_lo=-3, link_hi=5))
    refused("link_lo <= link_hi", delay=DelayModel(link_lo=5, link_hi=2))
    # a delay value the kind never reads is an error, not silently dropped
    for kwargs in ({"nu": 400}, {"kind": "uniform", "nu": 3, "hi": 9},
                   {"lo": 2, "hi": 5}, {"kind": "deterministic", "nu": 3, "hi": 5}):
        refused("needs kind", delay=DelayModel(**kwargs))
    # zero values are what every kind reads as unset
    assert DelayModel(kind="deterministic", nu=0, lo=0, hi=0).constant() == 0
    assert DelayModel(kind="uniform", nu=0, lo=0, hi=0).constant() is None
    refused("fault loss_probability 1.5", fault=LinkFaultModel(loss_probability=1.5))
    refused("fault airtime_beta 0", fault=LinkFaultModel(airtime_beta=0))
    refused("drift skew_ppm_min 5.0 is above the max 1.0",
            drift=ClockDriftModel(skew_ppm_min=5.0, skew_ppm_max=1.0))


def test_collision_overlapping_airtimes_destroy_both():
    # two arrivals 3 ticks apart with beta = 5 overlap: neither is received
    def engine():
        return Engine(RunSpec(path3(), make_cfg(init_listen_periods=3), horizon=5, seed=0,
                              fault=LinkFaultModel(collisions_enabled=True, airtime_beta=5)))
    eng = engine()
    deliver(eng, 1000, (1000, 1, 0))
    assert eng.nodes[1].rx_pending == (0, 1000)
    eng = engine()
    node = eng.nodes[1]
    # the first arrival's commit at 1005 finds its reception destroyed
    deliver(eng, 2000, (1000, 1, 0), (1003, 1, 2))
    assert eng.stats["collisions"] == 1
    assert node.rx_pending is None
    assert eng.stats["received"] == 0
    assert node.heard_any == set()


def test_back_to_back_receptions_do_not_collide():
    # second arrival lands exactly when the first commits: both received
    eng = Engine(RunSpec(path3(), make_cfg(init_listen_periods=3), horizon=5, seed=0,
                         fault=LinkFaultModel(collisions_enabled=True, airtime_beta=5)))
    node = eng.nodes[1]
    deliver(eng, 2000, (1000, 1, 0), (1005, 1, 2))
    assert eng.stats["collisions"] == 0
    assert eng.stats["received"] == 2
    assert node.heard_any == {0, 2}


def _fire_and_rx_lines(trace):
    return [line for line in trace if "\trx\t" in line or "\tfire\t" in line]


def test_commit_ordered_before_same_tick_arrival():
    # the heap and the commit FIFO merge by (time, kind, ...), so at one
    # tick the kinds' values give the order
    assert EventKind.CHURN < EventKind.FIRE < EventKind.RX_COMMIT
    assert EventKind.RX_COMMIT < EventKind.ARRIVAL < EventKind.SAMPLE
    # node 1's reception of 0 commits at 1000, the tick at which node 2
    # fires and its broadcast lands on node 1: the commit runs after the
    # FIRE, before that ARRIVAL (which would otherwise destroy it) and
    # before the SAMPLE at 1000, whose bucket it counts in
    eng = Engine(RunSpec(path3(), make_cfg(init_listen_periods=3), horizon=5, seed=0,
                         fault=LinkFaultModel(collisions_enabled=True, airtime_beta=5)),
                 trace=True)
    res = deliver(eng, 1000, (995, 1, 0),
                  events=[(1000, EventKind.FIRE, 2, eng.nodes[2].fire_seq)])
    assert _fire_and_rx_lines(res.trace) == [
        "1000\tfire\tnode=2\temit=True", "1000\trx\tnode=1\tsender=0\tjump=0.0"]
    assert eng.stats["received"] == 1 and eng.stats["collisions"] == 0
    assert eng.nodes[1].rx_pending == (2, 1000)  # node 2's reception, in flight
    ceiling = eng.avg_degree * len(eng.nodes)
    assert [row.thr_pct for row in res.series] == [100.0 / ceiling]


def test_same_tick_commits_run_in_node_order():
    eng = Engine(RunSpec(path3(), make_cfg(init_listen_periods=3), horizon=5, seed=0,
                         fault=LinkFaultModel(collisions_enabled=True, airtime_beta=5)),
                 trace=True)
    res = deliver(eng, 1000, (995, 2, 1), (997, 1, 2), (995, 0, 1))
    assert _fire_and_rx_lines(res.trace) == [
        "1000\trx\tnode=0\tsender=1\tjump=0.0", "1000\trx\tnode=2\tsender=1\tjump=0.0"]
    assert eng.nodes[1].rx_pending == (2, 997)


def test_steady_node_sleeps_outside_window():
    eng = Engine(RunSpec(path3(), make_cfg(), horizon=5, seed=0))
    node = eng.nodes[1]
    node.mode = Mode.STEADY
    node.next_fire = 1000 + node.period_ticks // 2  # phi = 0.5 at 1000
    deliver(eng, 1000, (1000, 1, 0))
    assert eng.stats["dropped_asleep"] == 1
    assert node.heard_any == set()


def test_two_nodes_converge_and_duty_cycle():
    res = run(pair(), make_cfg(), horizon=30, seed=4)
    last = res.series[-1]
    assert last.steady_pct == 100.0
    assert last.dphi_circular < 0.05
    # steady wake window is 2 * eps of the period
    assert last.duty_pct == pytest.approx(10.0, abs=2.0)
    final_fires = [res.fire_times[n][-1] for n in (0, 1)]
    assert abs(final_fires[0] - final_fires[1]) <= 0.05 * 1000


def test_churn_leave_and_join():
    topo = make_regular_grid(3, 3, wraparound=True)
    churn = (ChurnEvent(5, "leave", 4),
             ChurnEvent(10, "join", 9, (0, 2, 6)))
    res = run(topo, make_cfg(), horizon=20, seed=0, churn=churn)
    assert 4 not in res.fire_times and 9 in res.fire_times
    assert len(res.final_nodes) == 9
    assert res.final_nodes[9].mode is Mode.STEADY


def test_fanout_follows_churn():
    # 3x3 torus: node 1 links to 0, 2, 4 and 7; node 4 leaves, node 9 joins
    delay = DelayModel(kind="deterministic", nu=3, link_lo=1, link_hi=9, link_seed=2)
    topo = make_regular_grid(3, 3, True)
    eng = Engine(RunSpec(topo, make_cfg(), horizon=20, seed=0, delay=delay))
    table = delay.link_table(topo)

    def broadcast(now, sender):
        # (receiver, delay) of the arrivals one broadcast pushes, in receiver
        # order (the order it pushes them in), and how far arrival_attempts grew
        attempts = eng.stats["arrival_attempts"]
        eng._heap.clear()
        assert fire(eng, sender, now)
        arrivals = sorted((ev for ev in eng._heap if ev[1] == EventKind.ARRIVAL),
                          key=lambda ev: ev[2])
        return ([(ev[2], ev[0] - now) for ev in arrivals],
                eng.stats["arrival_attempts"] - attempts)

    eng._handle_churn(100, ChurnEvent(0, "leave", 4))
    arrivals, attempts = broadcast(200, 1)
    assert [r for r, _ in arrivals] == [0, 2, 7]
    assert attempts == len(eng._fanout[1]) == 3
    assert arrivals == [(r, table[(1, r)] + 3) for r in (0, 2, 7)]

    eng._handle_churn(300, ChurnEvent(0, "join", 9, (6, 0, 2)))
    arrivals, attempts = broadcast(400, 9)
    assert arrivals == [(0, 3), (2, 3), (6, 3)]  # links made by a join: offset 0
    assert attempts == 3
    arrivals, _ = broadcast(500, 0)
    assert [r for r, _ in arrivals] == [1, 2, 3, 6, 9]
    assert arrivals[-1] == (9, 3)


def test_rejoin_under_the_same_id_gets_fresh_links():
    # node 4 leaves and comes back linked to 1 and 3: a join makes both
    # links anew, so neither direction keeps its drawn offset
    eng = Engine(RunSpec(make_regular_grid(3, 3, True), make_cfg(), horizon=20, seed=0,
                         delay=DelayModel(link_lo=5, link_hi=50, link_seed=1)))
    assert dict(eng._fanout[1])[4] == 33 and dict(eng._fanout[4])[1] == 43
    eng._handle_churn(100, ChurnEvent(1, "leave", 4))
    eng._handle_churn(200, ChurnEvent(2, "join", 4, (1, 3)))
    assert eng._fanout[4] == ((1, 0), (3, 0))
    assert (4, 0) in eng._fanout[1] and (4, 0) in eng._fanout[3]


@pytest.mark.parametrize("seed", [47, 67, 86])
def test_rejoined_node_ignores_its_predecessors_fire_entries(seed, monkeypatch):
    # node 3 leaves with a FIRE still queued and rejoins a period later:
    # every fire the engine runs, the rejoined node's included, pops its
    # node's own entry due at next_fire, never one the node that left made
    cfg = make_cfg(period_t=10000, sigma=0.3)
    churn = (ChurnEvent(0, "leave", 3), ChurnEvent(1, "join", 3, (2, 4, 8, 23)))
    counting = CountingHeap()
    monkeypatch.setattr(sim, "heapq", counting)
    eng = Engine(RunSpec(make_regular_grid(5, 5, True), cfg, drift=ClockDriftModel(20000, 50000),
                         churn=churn, horizon=6, seed=seed))
    counting.engine = eng
    res = eng.run()
    fires = sum(len(ts) for ts in res.fire_times.values())
    assert counting.pops[EventKind.FIRE] - counting.stale_fire_pops == fires
    assert res.fire_times[3] and res.fire_times[3][0] >= 10000


@pytest.mark.parametrize("schedule", [
    [("leave", 6, ())],
    [("join", 0, (5, 2))],             # an id below every existing one
    [("join", 11, (2, 2, 9))],         # duplicate edges make one link
    [("leave", 6, ()), ("join", 6, (3, 5))],
    [("leave", 6, ()), ("join", 0, (5, 2)), ("join", 11, (2, 2, 9)),
     ("join", 6, (3, 5, 0))],
], ids=["leave", "join_below", "duplicate_edges", "rejoin", "all"])
def test_tables_follow_churn_exactly(schedule):
    # a 3x3 torus with ids 2..10; after each event _fanout lists every
    # neighbour once, in receiver order, with its drawn offset or 0 for a
    # link made by a join, and the sampler averages over the table built
    # from scratch
    torus = make_regular_grid(3, 3, True)
    topo = Topology({u + 2: {v + 2 for v in nb} for u, nb in torus.adjacency.items()})
    delay = DelayModel(link_lo=1, link_hi=9, link_seed=3)
    offsets = delay.link_table(topo)
    eng = Engine(RunSpec(topo, make_cfg(), horizon=20, seed=0, delay=delay))
    adjacency = {u: set(nb) for u, nb in topo.adjacency.items()}
    joined = set()
    for t, (action, nid, edges) in enumerate(schedule, start=1):
        eng._handle_churn(100 * t, ChurnEvent(t, action, nid, edges))
        for v in adjacency.pop(nid, ()):
            adjacency[v].discard(nid)
        if action == "join":
            adjacency[nid] = set(edges)
            for v in edges:
                adjacency[v].add(nid)
                joined |= {(nid, v), (v, nid)}
        assert eng._fanout == {u: tuple((v, 0 if (u, v) in joined else offsets[u, v])
                                        for v in sorted(nb))
                               for u, nb in adjacency.items()}
        phases = {u: eng.nodes[u].phase_at(100 * t) for u in adjacency}
        eng._handle_sample(100 * t, 0, 0)
        assert eng.series[-1][1:3] == avg_phase_difference(
            phases, tuple((u, tuple(sorted(adjacency[u])))
                          for u in sorted(adjacency) if adjacency[u]))


def test_a_rejoining_node_listens_its_own_initialization_periods():
    # node 2 ends Initialization, departs at period 3 and rejoins at period
    # 4 under the same id; it listens init_listen_periods = 2 of its own
    # periods again, whatever its predecessor fired: still initializing
    # after its first fire, synchronizing from its second with both
    # neighbours counted
    cfg = make_cfg(init_listen_periods=2)
    before = run(make_complete(3), cfg, horizon=3, seed=1).final_nodes[2]
    assert len(before.fires) >= 2 and before.mode is not Mode.INITIALIZATION
    churn = (ChurnEvent(3, "leave", 2), ChurnEvent(4, "join", 2, (0, 1)))
    after = [run(make_complete(3), cfg, churn=churn, horizon=horizon, seed=1).final_nodes[2]
             for horizon in (5, 6)]
    assert [(len(node.fires), node.mode, node.neighbor_count_estimate) for node in after] == [
        (1, Mode.INITIALIZATION, 0), (2, Mode.SYNCHRONIZATION, 2)]


@pytest.mark.parametrize("topology", [make_complete(1), make_random_geometric(5, 0.0, 0)],
                         ids=["complete_1", "geometric_radius_0"])
def test_edgeless_network_is_rejected(topology):
    # no node can hear another: there is nothing to synchronize and no
    # reception ceiling for thr_pct
    with pytest.raises(SimulationError, match="no links"):
        Engine(RunSpec(topology, make_cfg()))


def test_churn_validation():
    with pytest.raises(SimulationError, match="the action must be join or leave"):
        run(pair(), make_cfg(), horizon=10, churn=(ChurnEvent(5, "explode", 0),))
    with pytest.raises(SimulationError):
        run(pair(), make_cfg(), horizon=5,
            churn=(ChurnEvent(7, "leave", 0),))
    with pytest.raises(SimulationError):
        run(pair(), make_cfg(), horizon=5,
            churn=(ChurnEvent(2, "leave", 55),))
    # ids are non-negative, as in a topology file
    with pytest.raises(SimulationError, match="^churn join of node -1 at period 2: "
                                              "node ids must be non-negative$"):
        run(pair(), make_cfg(), horizon=5, churn=(ChurnEvent(2, "join", -1, (0, 1)),))


def test_clock_drift_skews_period():
    res = run(pair(), make_cfg(), horizon=5, seed=0,
              drift=ClockDriftModel(skew_ppm_min=10000, skew_ppm_max=10000))
    assert all(n.period_ticks == 1010 for n in res.final_nodes.values())


def test_trace_capture():
    res = run(pair(), make_cfg(), horizon=3, seed=0, trace=True)
    assert res.trace and any("fire" in line for line in res.trace)
    assert run(pair(), make_cfg(), horizon=3, seed=0).trace is None


def test_mrf_scheme_duty_cycle_near_half():
    topo = make_regular_grid(3, 3, wraparound=True)
    res = run(topo, make_cfg(epsilon=0.01, sigma=0.005),
              mrf=MrfConfig(500), horizon=20, seed=0)
    assert res.series[-1].duty_pct == pytest.approx(50.0, abs=5.0)


def test_mrf_refractory_must_be_below_protocol_period():
    # the baseline runs on the protocol's period; a refractory that fills
    # it leaves no stretch in which the node could listen
    for refractory in (1000, 1500):
        with pytest.raises(SimulationError, match="refractory"):
            run(make_regular_grid(3, 3, True), make_cfg(period_t=1000),
                mrf=MrfConfig(refractory), horizon=5)


def test_mrf_always_listening_duty_is_full():
    topo = make_regular_grid(3, 3, wraparound=True)
    res = run(topo, make_cfg(epsilon=0.01, sigma=0.005),
              mrf=MrfConfig(500, sleep_during_refractory=False),
              horizon=20, seed=0)
    assert res.series[-1].duty_pct == pytest.approx(100.0, abs=1.0)


def test_metrics_sample_resets_buckets():
    res = run(pair(), make_cfg(), horizon=10, seed=0)
    periods = [r.period for r in res.series]
    assert periods == list(range(10))
    # advancement settles to zero once the pair locks
    assert res.series[-1].dplus == 0.0


def test_heap_is_looked_up_through_the_module(monkeypatch):
    # every push and pop goes through ebsim.sim.heapq at call time, so a
    # stand-in bound there sees the whole run and reconciles with the
    # outputs; reception commits wait in the run's FIFO, never on the heap
    for fault in (LinkFaultModel(loss_probability=0.1),
                  LinkFaultModel(loss_probability=0.1, collisions_enabled=True,
                                 airtime_beta=3)):
        counting = CountingHeap()
        monkeypatch.setattr(sim, "heapq", counting)
        eng = Engine(RunSpec(make_regular_grid(5, 5, True), make_cfg(), horizon=10, seed=0,
                             delay=DelayModel(kind="uniform", lo=0, hi=30), fault=fault))
        counting.engine = eng
        res = eng.run()
        assert (res.stats["collisions"] > 0) == fault.collisions_enabled
        assert counting.pushes[EventKind.RX_COMMIT] == counting.pops[EventKind.RX_COMMIT] == 0
        assert sum(counting.pushes.values()) - sum(counting.pops.values()) == len(eng._heap)
        assert counting.pops[EventKind.SAMPLE] == 10
        assert counting.pushes[EventKind.ARRIVAL] == (res.stats["arrival_attempts"]
                                                     - res.stats["lost"]) > 0
        fires = sum(len(ts) for ts in res.fire_times.values())
        assert counting.pops[EventKind.FIRE] - counting.stale_fire_pops == fires > 0


def test_every_queued_entry_is_time_kind_node_datum(monkeypatch):
    # the heap and the commit FIFO hold (time, kind, node, datum) entries, the
    # layout a profiler bound as ebsim.sim.heapq reads: a FIRE entry's datum
    # is the seq its node's stack holds for it when it is pushed, and the
    # engine's counter draws no other number
    pushed, appended, unmatched = [], [], []

    class _RecordingHeap:
        engine = None  # while the first nodes spawn
        heappop = staticmethod(heapq.heappop)

        def heappush(self, heap, entry) -> None:
            if entry[1] == EventKind.FIRE and self.engine is not None:
                if self.engine.nodes[entry[2]].armed[-1] != (entry[0], entry[-1]):
                    unmatched.append(entry)
            pushed.append(entry)
            heapq.heappush(heap, entry)

    class _RecordingDeque(deque):
        def append(self, entry) -> None:
            appended.append(entry)
            super().append(entry)

    recording = _RecordingHeap()
    monkeypatch.setattr(sim, "heapq", recording)
    monkeypatch.setattr(sim, "deque", _RecordingDeque)
    churn = (ChurnEvent(2, "leave", 4), ChurnEvent(2, "leave", 7),
             ChurnEvent(3, "join", 4, (1, 3, 5)))
    eng = Engine(RunSpec(make_regular_grid(5, 5, True), make_cfg(sigma=0.3), horizon=6, seed=0,
                         delay=DelayModel(kind="uniform", lo=0, hi=30), churn=churn,
                         fault=LinkFaultModel(loss_probability=0.1, collisions_enabled=True,
                                              airtime_beta=3)))
    assert all(type(entry) is tuple and len(entry) == 4 for entry in pushed)
    assert all(eng.nodes[nid].armed == [(at, seq)]
               for at, kind, nid, seq in pushed if kind == EventKind.FIRE)
    recording.engine = eng
    res = eng.run()
    assert res.stats["collisions"] > 0 and not unmatched
    assert all(type(entry) is tuple and len(entry) == 4 for entry in pushed + appended)
    by_kind = {kind: [entry for entry in pushed if entry[1] == kind] for kind in EventKind}
    assert appended and all(kind == EventKind.RX_COMMIT and at - 3 == datum[1]
                            and type(datum[0]) is int for at, kind, _, datum in appended)
    assert not by_kind[EventKind.RX_COMMIT]
    assert all(type(sender) is int for *_, sender in by_kind[EventKind.ARRIVAL])
    assert [datum for *_, datum in by_kind[EventKind.CHURN]] == list(enumerate(churn))
    assert {(nid, datum) for _, _, nid, datum in by_kind[EventKind.SAMPLE]} == {(-1, None)}
    seqs = sorted(seq for *_, seq in by_kind[EventKind.FIRE])
    assert seqs == list(range(1, next(eng._counter)))


def test_a_second_run_handles_nothing():
    # the horizon bounds every run: queued FIRE entries past it do not fire
    eng = Engine(RunSpec(path3(), make_cfg(), horizon=3, seed=0))
    first = eng.run()
    rows, fires = list(first.series), {nid: list(ts) for nid, ts in first.fire_times.items()}
    second = eng.run()
    assert second.series == rows and second.fire_times == fires


def test_a_jump_queues_no_fire_entry_behind_an_earlier_one(monkeypatch):
    # the torus-delay benchmark's network at 20 periods: coupling jumps
    # every period, and a node re-armed from the FIRE entries it already
    # has queued leaves few of them stale (one entry per jump left ~1/2)
    counting = CountingHeap()
    monkeypatch.setattr(sim, "heapq", counting)
    eng = Engine(RunSpec(make_regular_grid(5, 5, True), make_cfg(period_t=10000, epsilon=0.1),
                         delay=DelayModel(kind="deterministic", nu=500), horizon=20, seed=0))
    counting.engine = eng
    res = eng.run()
    fire_pops = counting.pops[EventKind.FIRE]
    assert 0 < counting.stale_fire_pops <= fire_pops / 5
    assert sum(counting.pushes.values()) - sum(counting.pops.values()) == len(eng._heap)
    assert counting.pushes[EventKind.ARRIVAL] == (res.stats["arrival_attempts"]
                                                 - res.stats["lost"]) > 0
    fires = sum(len(ts) for ts in res.fire_times.values())
    assert fire_pops - counting.stale_fire_pops == fires


# --- the message ledger --------------------------------------------------------

OUTCOMES = ("lost", "dropped_asleep", "collided", "departed", "received", "in_flight")


def _ledger_gap(stats) -> int:
    """Arrival attempts that no outcome counts (negative: counted twice)."""
    return stats["arrival_attempts"] - sum(stats[k] for k in OUTCOMES)


@st.composite
def _small_runs(draw):
    """Engine arguments for a few periods of a small network: loss,
    collisions with a short or a long airtime, each delay kind with or
    without link offsets, the baseline, and a node that leaves and may
    rejoin, in the same period or a later one."""
    topology = draw(st.sampled_from((make_complete(4), make_regular_grid(3, 3, True), path3())))
    horizon = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(("none", "deterministic", "uniform")))
    delay = DelayModel(kind, nu=draw(st.integers(0, 600)) if kind == "deterministic" else 0,
                       lo=0, hi=draw(st.integers(0, 600)) if kind == "uniform" else 0,
                       link_hi=draw(st.sampled_from((None, 40))))
    fault = LinkFaultModel(draw(st.sampled_from((0.0, 0.2))), draw(st.booleans()),
                           draw(st.sampled_from((1, 30, 400))))
    churn = ()
    if draw(st.booleans()):
        nid = draw(st.sampled_from(sorted(topology.node_ids)))
        left = draw(st.integers(0, horizon - 1))
        churn = (ChurnEvent(left, "leave", nid),)
        if draw(st.booleans()):
            others = [v for v in topology.node_ids if v != nid]
            churn += (ChurnEvent(draw(st.integers(left, horizon - 1)), "join", nid,
                                 tuple(draw(st.lists(st.sampled_from(others), min_size=1,
                                                     max_size=3)))),)
    mrf = draw(st.sampled_from((None, MrfConfig(400), MrfConfig(400, False))))
    cfg = make_cfg(sigma=draw(st.sampled_from((0.01, 0.3))),
                   init_listen_periods=draw(st.sampled_from((0, 2))))
    return dict(topology=topology, cfg=cfg, mrf=mrf, delay=delay, fault=fault, churn=churn,
                horizon=horizon, seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_small_runs())
def test_every_arrival_attempt_ends_in_one_outcome(args):
    res = run(args.pop("topology"), args.pop("cfg"), **args)
    assert _ledger_gap(res.stats) == 0


def test_the_ledger_closes_where_an_in_flight_reception_leaves_and_rejoins():
    # node 1 leaves at period 1 and rejoins at the same tick; a reception
    # in flight at the leave (900-tick airtime) departs with the old node,
    # though its commit finds the new one
    fault = LinkFaultModel(collisions_enabled=True, airtime_beta=900)
    churn = (ChurnEvent(1, "leave", 1), ChurnEvent(1, "join", 1, (0, 2)))
    for seed in range(20):
        res = run(path3(), make_cfg(), fault=fault, churn=churn, horizon=3, seed=seed)
        assert _ledger_gap(res.stats) == 0
        if res.stats["departed"]:
            return
    pytest.fail("no seed left a reception in flight at the leave")


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
def test_the_ledger_closes_on_every_shipped_scenario(name):
    # the file's own values and, for 10 periods, a sweep's last point
    cfg = parse_scenario(os.path.join(SCENARIO_DIR, name))
    points = [cfg]
    if "sweep.parameter" in cfg.given:
        last = apply_override(cfg, cfg.given["sweep.parameter"], cfg.given["sweep.values"][-1])
        points.append(apply_override(last, "run.horizon", 10))
    for point in points:
        for scheme in ("ebs", "mrf") if point.mrf is not None else ("ebs",):
            stats = run_config(point, scheme=scheme).stats
            assert stats["arrival_attempts"] > 0
            assert _ledger_gap(stats) == 0, (scheme, stats)
