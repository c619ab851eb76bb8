import pytest

from ebsim.protocol import Mode, MrfConfig, ProtocolConfig
from ebsim.sim import (ChurnEvent, ClockDriftModel, DelayModel, Engine,
                       LinkFaultModel, SimulationError,
                       make_link_delay_table, run)
from ebsim.topology import Topology, make_complete, make_regular_grid


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
    with pytest.raises(SimulationError):
        run(pair(), make_cfg(), scheme="tdma")


def test_determinism_same_seed():
    topo = make_regular_grid(5, 5, wraparound=True)
    kw = dict(horizon=20, seed=3,
              delay=DelayModel(kind="uniform", lo=0, hi=5),
              fault=LinkFaultModel(loss_probability=0.1))
    a = run(topo, make_cfg(), **kw)
    b = run(topo, make_cfg(), **kw)
    assert a.fire_times == b.fire_times
    assert [r.as_tuple() for r in a.series] == [r.as_tuple() for r in b.series]
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


def test_total_loss_receives_nothing():
    topo = make_regular_grid(3, 3, wraparound=True)
    res = run(topo, make_cfg(init_listen_periods=2), horizon=5, seed=0,
              fault=LinkFaultModel(loss_probability=1.0))
    assert res.stats["received"] == 0
    assert res.stats["lost"] == res.stats["arrival_attempts"]
    assert any("no known neighbours" in w for w in res.warnings)


def test_deterministic_delay_shifts_arrivals():
    eng = Engine(path3(), make_cfg(), horizon=3, seed=0,
                 delay=DelayModel(kind="deterministic", nu=10))
    eng._deliver(100, 1)
    arrivals = sorted(ev for ev in eng._heap if ev[1] == 3)  # ARRIVAL kind
    assert [ev[0] for ev in arrivals[-2:]] == [110, 110]


def test_link_delay_table_is_deterministic_and_additive():
    topo = path3()
    table = make_link_delay_table(topo, 5, 25, seed=9)
    assert table == make_link_delay_table(topo, 5, 25, seed=9)
    assert {link for link, _ in table} == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert all(5 <= d <= 25 for _, d in table)
    model = DelayModel(kind="deterministic", nu=3, overrides=table)
    fixed = dict(table)
    import random
    assert model.sample(random.Random(0), (0, 1)) == fixed[(0, 1)] + 3
    assert model.worst_case() == 3 + max(fixed.values())


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel(kind="gaussian")
    with pytest.raises(ValueError):
        DelayModel(kind="uniform", lo=5, hi=2)
    with pytest.raises(ValueError):
        DelayModel(overrides=(((0, 1), -3),))
    with pytest.raises(ValueError):
        LinkFaultModel(loss_probability=1.5)
    with pytest.raises(ValueError):
        LinkFaultModel(airtime_beta=0)
    with pytest.raises(ValueError):
        ClockDriftModel(skew_ppm_min=5.0, skew_ppm_max=1.0)


def test_collision_overlapping_airtimes_destroy_both():
    # two arrivals 3 ticks apart with beta = 5 overlap: neither is received
    eng = Engine(path3(), make_cfg(init_listen_periods=3), horizon=5, seed=0,
                 fault=LinkFaultModel(collisions_enabled=True, airtime_beta=5))
    node = eng.nodes[1]
    eng._handle_arrival(100, 1, 0)
    assert node.rx_pending == {(0, 100)}
    eng._handle_arrival(103, 1, 2)
    assert eng.stats["collisions"] == 1
    assert node.rx_pending == set()
    eng._handle_commit(105, 1, 0, (0, 100))  # stale commit must be a no-op
    assert eng.stats["received"] == 0
    assert node.heard_any == set()


def test_back_to_back_receptions_do_not_collide():
    # second arrival lands exactly when the first commits: both received
    eng = Engine(path3(), make_cfg(init_listen_periods=3), horizon=5, seed=0,
                 fault=LinkFaultModel(collisions_enabled=True, airtime_beta=5))
    node = eng.nodes[1]
    eng._handle_arrival(100, 1, 0)
    eng._handle_commit(105, 1, 0, (0, 100))
    eng._handle_arrival(105, 1, 2)
    eng._handle_commit(110, 1, 2, (2, 105))
    assert eng.stats["collisions"] == 0
    assert eng.stats["received"] == 2
    assert node.heard_any == {0, 2}


def test_commit_ordered_before_same_tick_arrival():
    # event-queue ordering backs the previous test at the heap level
    from ebsim.sim import EventKind
    assert EventKind.RX_COMMIT < EventKind.ARRIVAL
    assert EventKind.CHURN < EventKind.FIRE < EventKind.RX_COMMIT
    assert EventKind.SAMPLE > EventKind.ARRIVAL


def test_steady_node_sleeps_outside_window():
    eng = Engine(path3(), make_cfg(), horizon=5, seed=0)
    node = eng.nodes[1]
    node.mode = Mode.STEADY
    mid = node.next_fire - node.period_ticks // 2  # phi = 0.5
    eng._handle_arrival(mid, 1, 0)
    assert eng.stats["dropped_asleep"] == 1
    assert node.heard_any == set()


def test_two_nodes_converge_and_duty_cycle():
    res = run(pair(), make_cfg(), horizon=30, seed=4)
    last = res.series.rows[-1]
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
    assert len(res.mode_history[-1]) == 9
    assert res.mode_history[-1][9] == "steady"


def test_churn_validation():
    with pytest.raises(ValueError):
        ChurnEvent(5, "explode", 4)
    with pytest.raises(SimulationError):
        run(pair(), make_cfg(), horizon=5,
            churn=(ChurnEvent(7, "leave", 0),))
    with pytest.raises(SimulationError):
        run(pair(), make_cfg(), horizon=5,
            churn=(ChurnEvent(2, "leave", 55),))


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
    res = run(topo, make_cfg(epsilon=0.01, sigma=0.005), scheme="mrf",
              mrf_cfg=MrfConfig(1000, 500), horizon=20, seed=0)
    assert res.series.rows[-1].duty_pct == pytest.approx(50.0, abs=5.0)


def test_mrf_always_listening_duty_is_full():
    topo = make_regular_grid(3, 3, wraparound=True)
    res = run(topo, make_cfg(epsilon=0.01, sigma=0.005), scheme="mrf",
              mrf_cfg=MrfConfig(1000, 500, sleep_during_refractory=False),
              horizon=20, seed=0)
    assert res.series.rows[-1].duty_pct == pytest.approx(100.0, abs=1.0)


def test_metrics_sample_resets_buckets():
    res = run(pair(), make_cfg(), horizon=10, seed=0)
    periods = [r.period for r in res.series]
    assert periods == list(range(10))
    # advancement settles to zero once the pair locks
    assert res.series.rows[-1].dplus == 0.0
