import pytest
from hypothesis import given, strategies as st

from ebsim.core import advance_remaining_ticks, avg_phase_difference, in_setw
from ebsim.params import check_stability
from ebsim.protocol import (Mode, NodeState, ProtocolConfig, mrf_on_message,
                            on_message)
from ebsim.sim import run
from ebsim.topology import make_regular_grid, make_complete

T = 1000


def _hear(remaining, eps, sigma, mrf=False, period=T):
    """next_fire after a node `remaining` ticks before its fire hears a
    neighbour, through the EBS handler or the baseline's."""
    now = 5 * period
    node = NodeState(id=0, period_ticks=period, next_fire=now + remaining,
                     epsilon_eff=eps, mode=Mode.SYNCHRONIZATION)
    cfg = ProtocolConfig(period_t=period, epsilon=eps, sigma=sigma, s_th=80.0)
    if mrf:
        mrf_on_message(node, 1, cfg, now)
    else:
        on_message(node, 1, cfg, now)
    return node.next_fire - now


def test_coupling_params_validation():
    # the coupling parameters are checked where they are configured
    with pytest.raises(ValueError):
        ProtocolConfig(period_t=T, epsilon=0.0, sigma=0.01, s_th=80.0)
    with pytest.raises(ValueError):
        ProtocolConfig(period_t=T, epsilon=0.6, sigma=0.01, s_th=80.0)
    with pytest.raises(ValueError):
        ProtocolConfig(period_t=T, epsilon=0.01, sigma=0.0, s_th=80.0)
    with pytest.raises(ValueError):
        ProtocolConfig(period_t=T, epsilon=0.01, sigma=1.0, s_th=80.0)
    ProtocolConfig(period_t=T, epsilon=0.5, sigma=0.5, s_th=80.0)
    assert check_stability(0.5, 0.5)[0]  # 0.5 < 0.5/0.5


def test_phase_advance_mid_period():
    # phi = 0.5 -> 1 - 0.01 * 0.5 = 0.995: 5 ticks left of 1000
    assert _hear(500, 0.01, 0.01) == 5
    assert _hear(500, 0.01, 0.01, mrf=True) == 5


def test_phase_advance_inside_window_unchanged():
    assert _hear(995, 0.01, 0.01) == 995   # phi = 0.005
    assert _hear(5, 0.01, 0.01) == 5       # phi = 0.995


def test_phase_advance_wide_window_edge():
    # phi = 0.9 with epsilon = 0.2 sits at/above the upper window edge
    # (1 - eps = 0.8), so the "otherwise" branch applies and the phase is
    # left untouched -- the advancement rule is strict on both edges.
    assert _hear(100, 0.2, 0.1) == 100
    assert _hear(100, 0.2, 0.1, mrf=True) == 100


def test_jump_remaining():
    # remaining after reacting is sigma * (1 - phi) of the period
    assert advance_remaining_ticks(500, 0.01) == 5    # phi = 0.5
    assert advance_remaining_ticks(100, 0.1) == 10    # phi = 0.9


def test_in_setw():
    assert in_setw(0.0, 0.01)
    assert not in_setw(0.5, 0.01)
    assert in_setw(0.991, 0.01)
    assert in_setw(0.01, 0.01)       # inclusive edges
    assert in_setw(0.99, 0.01)


def test_advance_remaining_ticks_basic():
    assert advance_remaining_ticks(500, 0.01) == 5
    assert advance_remaining_ticks(1000, 0.01) == 10


def test_advance_remaining_ticks_floors_at_one():
    # tiny sigma would round to zero ticks; a reaction never fires
    # within the same tick
    assert advance_remaining_ticks(1000, 0.0004) == 1


def test_advance_remaining_ticks_never_increases():
    # rounding half-up could exceed the old remaining for sigma near 1
    assert advance_remaining_ticks(10, 0.95) == 10
    assert advance_remaining_ticks(1, 0.5) == 1
    assert advance_remaining_ticks(0, 0.5) == 0


_coupling = (st.integers(1, T), st.floats(0.001, 0.5), st.floats(0.001, 0.999),
             st.booleans())


@given(*_coupling)
def test_phase_advance_monotone(remaining, eps, sigma, mrf):
    # next_fire never moves later
    assert _hear(remaining, eps, sigma, mrf) <= remaining


@given(*_coupling)
def test_phase_advance_window_idempotent(remaining, eps, sigma, mrf):
    if in_setw(1.0 - remaining / T, eps):
        assert _hear(remaining, eps, sigma, mrf) == remaining


@given(*_coupling)
def test_phase_advance_lands_near_fire(remaining, eps, sigma, mrf):
    # outside the window the remaining time becomes sigma * remaining in
    # ticks, which lands within sigma * (1 - eps) of a period of the fire
    phi = 1.0 - remaining / T
    if eps < phi < 1.0 - eps:
        new = _hear(remaining, eps, sigma, mrf)
        assert new == advance_remaining_ticks(remaining, sigma)
        assert new <= max(1, sigma * (1.0 - eps) * T + 0.5)


@given(st.integers(0, 10**6), st.floats(0.0001, 0.999))
def test_advance_remaining_ticks_bounds(remaining, sigma):
    new = advance_remaining_ticks(remaining, sigma)
    assert new <= remaining
    if remaining >= 1:
        assert new >= 1


def test_circular_distance():
    # the circular metric wraps each neighbour distance onto [0, 0.5]
    pair = make_complete(2)
    for a, b, d in ((0.99, 0.01, 0.02), (0.2, 0.4, 0.2), (0.0, 0.5, 0.5)):
        assert avg_phase_difference({0: a, 1: b}, pair, circular=True) == pytest.approx(d)


def test_avg_phase_difference_pair():
    topo = make_complete(2)
    assert avg_phase_difference({0: 0.2, 1: 0.4}, topo, circular=False) == pytest.approx(0.2)


def test_avg_phase_difference_all_equal():
    topo = make_regular_grid(3, 3, wraparound=True)
    phases = {i: 0.37 for i in topo.node_ids}
    assert avg_phase_difference(phases, topo, circular=False) == 0.0
    assert avg_phase_difference(phases, topo, circular=True) == 0.0


def test_avg_phase_difference_torus_against_double_loop():
    topo = make_regular_grid(5, 5, wraparound=True)
    phases = {i: i / 25 for i in topo.node_ids}
    # independent brute-force over all (i, j in N_i) pairs
    total = 0.0
    for i in topo.node_ids:
        neigh = topo.neighbors(i)
        acc = 0.0
        for j in neigh:
            d = abs(phases[i] - phases[j])
            acc += min(d, 1.0 - d)
        total += acc / len(neigh)
    expected = total / 25
    assert avg_phase_difference(phases, topo, circular=True) == pytest.approx(expected)


def test_avg_phase_difference_rejects_isolated():
    topo = make_complete(2)
    topo.adjacency[0].clear()
    topo.adjacency[1].clear()
    with pytest.raises(ValueError):
        avg_phase_difference({0: 0.1, 1: 0.2}, topo, circular=True)


@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_avg_phase_difference_circular_bounded(vals):
    topo = make_complete(4)
    phases = dict(enumerate(vals))
    d = avg_phase_difference(phases, topo, circular=True)
    assert 0.0 <= d <= 0.5


def test_avg_phase_advancement():
    # the dplus column: one period's summed phase jumps over the node count
    cfg = ProtocolConfig(period_t=T, epsilon=0.01, sigma=0.5, s_th=80.0,
                         init_listen_periods=0)
    res = run(make_complete(3), cfg, horizon=6, seed=2, trace=True)
    jumps = [0.0] * 6
    for line in res.trace:
        tick, what, *fields = line.split("\t")
        if what == "rx":
            jumps[max(0, int(tick) - 1) // T] += float(fields[-1].split("=")[1])
    assert any(jumps)
    assert [r.dplus for r in res.series] == pytest.approx([j / 3 for j in jumps])
