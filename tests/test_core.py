import pytest
from hypothesis import example, given, strategies as st

from ebsim.core import avg_phase_difference
from ebsim.protocol import Mode, MrfConfig, ProtocolConfig
from ebsim.sim import Engine, RunSpec, SimulationError, run
from ebsim.topology import make_regular_grid, make_complete

from engine_steps import deliver
from tick_oracle import advanced_remaining

T = 1000


def neighbour_table(topo):
    # the engine's sampler table: each linked node, in id order, with its sorted neighbours
    return tuple((u, tuple(sorted(topo.adjacency[u]))) for u in topo.node_ids
                 if topo.adjacency[u])


def _engine(eps, sigma, mrf=False, period=T):
    # a synchronizing pair; the baseline listens always, and its 1-tick
    # refractory gates only phase 0, which every window holds
    cfg = ProtocolConfig(period_t=period, epsilon=eps, sigma=sigma, s_th=80.0,
                         init_listen_periods=0)
    return Engine(RunSpec(make_complete(2), cfg,
                          mrf=MrfConfig(1, sleep_during_refractory=False) if mrf else None))


def _hear(remaining, eps, sigma, mrf=False, period=T):
    """next_fire after a node `remaining` ticks before its fire hears a
    neighbour, through the engine's EBS step or the baseline's."""
    now = 5 * period
    eng = _engine(eps, sigma, mrf, period)
    node = eng.nodes[0]
    node.next_fire = now + remaining
    deliver(eng, now, (now, 0, 1))
    return node.next_fire - now


def test_coupling_params_validation():
    # the engine refuses coupling parameters outside the analysis' bounds
    for eps, sigma in ((0.0, 0.01), (0.6, 0.01), (0.01, 0.0), (0.01, 1.0)):
        with pytest.raises(SimulationError, match="protocol (epsilon|sigma)"):
            _engine(eps, sigma)
    _engine(0.5, 0.5)


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
    assert _hear(500, 0.01, 0.01) == 5    # phi = 0.5
    assert _hear(100, 0.01, 0.1) == 10    # phi = 0.9


def test_in_setw():
    # the wake window as a steady node's wake check applies it: within
    # epsilon of 0 or of 1; epsilon = 1/8 puts both edges on whole ticks
    def in_setw(phi, eps):
        eng = _engine(eps, 0.01)
        node = eng.nodes[0]
        node.mode = Mode.STEADY
        node.next_fire = 5 * T + round((1.0 - phi) * T)
        deliver(eng, 5 * T, (5 * T, 0, 1))
        # a reception inside the window counts toward synchronicity
        assert (eng.stats["dropped_asleep"] == 0) == (node.heard_this_period == {1})
        return node.heard_this_period == {1}
    assert in_setw(0.0, 0.125)
    assert not in_setw(0.5, 0.125)
    assert in_setw(0.991, 0.125)
    assert in_setw(0.125, 0.125)     # inclusive edges
    assert in_setw(0.875, 0.125)
    assert not in_setw(0.126, 0.125)
    assert not in_setw(0.874, 0.125)


# the jump through the reception step, at phases between the window edges

def test_advance_remaining_ticks_basic():
    assert _hear(500, 0.01, 0.01) == 5
    assert _hear(1000, 0.01, 0.01, period=2000) == 10
    assert _hear(250, 0.01, 0.01, mrf=True) == 3   # 2.5 rounds half-up


def test_advance_remaining_ticks_floors_at_one():
    # tiny sigma would round to zero ticks; a reaction never fires
    # within the same tick
    assert _hear(1000, 0.01, 0.0004, period=2000) == 1
    assert _hear(1000, 0.01, 0.0004, mrf=True, period=2000) == 1


def test_advance_remaining_ticks_never_increases():
    # rounding half-up could exceed the old remaining for sigma near 1; a
    # jump that would not shorten the remaining time leaves it
    assert _hear(10, 0.005, 0.95) == 10             # phi = 0.99
    assert _hear(1, 0.0005, 0.5) == 1               # phi = 0.999
    assert _hear(1, 0.05, 0.99, period=10) == 1     # phi = 0.9
    assert _hear(1, 0.05, 0.99, mrf=True, period=10) == 1


_coupling = (st.integers(1, T), st.floats(0.001, 0.5), st.floats(0.001, 0.999),
             st.booleans())


@given(*_coupling)
def test_phase_advance_monotone(remaining, eps, sigma, mrf):
    # next_fire never moves later
    assert _hear(remaining, eps, sigma, mrf) <= remaining


@given(*_coupling)
def test_phase_advance_window_idempotent(remaining, eps, sigma, mrf):
    phi = 1.0 - remaining / T
    if phi <= eps or phi >= 1.0 - eps:
        assert _hear(remaining, eps, sigma, mrf) == remaining


@given(*_coupling)
def test_phase_advance_lands_near_fire(remaining, eps, sigma, mrf):
    # outside the window the remaining time becomes sigma * remaining in
    # ticks, which lands within sigma * (1 - eps) of a period of the fire
    phi = 1.0 - remaining / T
    if eps < phi < 1.0 - eps:
        new = _hear(remaining, eps, sigma, mrf)
        assert new == advanced_remaining(remaining, sigma)
        assert new <= max(1, sigma * (1.0 - eps) * T + 0.5)


@given(st.integers(1, 10**6), st.floats(0.0001, 0.999), st.booleans())
def test_advance_remaining_ticks_bounds(remaining, sigma, mrf):
    # a period of 2 * 10**6 ticks and a window of 1e-7 put every remaining
    # time up to 10**6 between the window edges
    new = _hear(remaining, 1e-7, sigma, mrf, period=2 * 10**6)
    assert 1 <= new <= remaining
    assert new == advanced_remaining(remaining, sigma)


def test_circular_distance():
    # the circular metric wraps each neighbour distance onto [0, 0.5]
    pair = make_complete(2)
    for a, b, d in ((0.99, 0.01, 0.02), (0.2, 0.4, 0.2), (0.0, 0.5, 0.5)):
        assert avg_phase_difference({0: a, 1: b}, neighbour_table(pair))[1] == pytest.approx(d)


def test_avg_phase_difference_pair():
    topo = make_complete(2)
    assert avg_phase_difference({0: 0.2, 1: 0.4}, neighbour_table(topo)) == pytest.approx((0.2, 0.2))


def test_avg_phase_difference_all_equal():
    topo = make_regular_grid(3, 3, wraparound=True)
    phases = {i: 0.37 for i in topo.node_ids}
    assert avg_phase_difference(phases, neighbour_table(topo)) == (0.0, 0.0)


def test_avg_phase_difference_torus_against_double_loop():
    topo = make_regular_grid(5, 5, wraparound=True)
    phases = {i: i / 25 for i in topo.node_ids}
    # independent brute-force over all (i, j in N_i) pairs
    literal = circular = 0.0
    for i in topo.node_ids:
        neigh = topo.adjacency[i]
        lit = circ = 0.0
        for j in neigh:
            d = abs(phases[i] - phases[j])
            lit += d
            circ += min(d, 1.0 - d)
        literal += lit / len(neigh)
        circular += circ / len(neigh)
    expected = (literal / 25, circular / 25)
    assert avg_phase_difference(phases, neighbour_table(topo)) == pytest.approx(expected)


def test_avg_phase_difference_rejects_isolated():
    with pytest.raises(ValueError):
        avg_phase_difference({0: 0.1, 1: 0.2}, ((0, ()), (1, ())))


@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_avg_phase_difference_circular_bounded(vals):
    topo = make_complete(4)
    phases = dict(enumerate(vals))
    literal, circular = avg_phase_difference(phases, neighbour_table(topo))
    assert 0.0 <= circular <= 0.5 and circular <= literal


def _builtin_phase_difference(phases, neighbours):
    # the sampler's loop written with abs and min, in the same order
    literal = circular = 0.0
    for i, neigh in neighbours:
        lit = circ = 0.0
        for j in neigh:
            d = abs(phases[i] - phases[j])
            lit += d
            circ += min(d, 1.0 - d)
        literal += lit / len(neigh)
        circular += circ / len(neigh)
    return literal / len(neighbours), circular / len(neighbours)


# the boundaries, equal phases, d = 0.5 and 0 against 1, drawn often
_PHASE = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@given(st.lists(_PHASE, min_size=2, max_size=9))
@example([0.4, 0.4])
@example([0.25, 0.75])
@example([0.0, 0.5, 1.0])
@example([0.0, 1.0])
def test_avg_phase_difference_matches_the_builtins_exactly(vals):
    # every ordered pair, so d takes both signs
    table = neighbour_table(make_complete(len(vals)))
    phases = dict(enumerate(vals))
    assert avg_phase_difference(phases, table) == _builtin_phase_difference(phases, table)


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
