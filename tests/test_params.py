
import pytest
from hypothesis import given, strategies as st

from ebsim.params import build_report
from ebsim.protocol import ProtocolConfig, adaptive_c
from ebsim.sim import DelayModel, Engine, RunSpec, SimulationError, run
from ebsim.topology import make_complete, make_random_geometric, make_regular_grid


def _delay(nu):
    return DelayModel("deterministic", nu=nu)


def _opt(beta, degree, nu, t):
    """epsilon_opt as check reports it: c0 is beta, and a complete network
    of degree + 1 nodes has that average degree."""
    cfg = ProtocolConfig(t, 0.1, 0.01, 80, c0=beta)
    return build_report(RunSpec(make_complete(degree + 1), cfg, delay=_delay(nu))).epsilon_opt


def _judge(eps, sigma, nu=0, t=10000):
    return build_report(RunSpec(make_complete(2), ProtocolConfig(t, eps, sigma, 80),
                                delay=_delay(nu)))


def test_epsilon_opt_zero_airtime():
    # a lone node has no neighbourhood of broadcasts to fit, and no link:
    # the engine cannot run it, so check refuses it too
    with pytest.raises(SimulationError, match="the network has no links"):
        _opt(40, 0, 0, 10000)
    assert _opt(40, 1, 250, 10000) - _opt(40, 1, 0, 10000) == pytest.approx(0.05)  # 4 nu / 2T


def test_epsilon_opt_substitution():
    # 40 ms slots, 20 neighbours, 10 s period -> 800 / 20000
    assert _opt(40, 20, 0, 10000) == pytest.approx(0.04)
    assert _opt(50, 4, 0, 10000) == pytest.approx(0.01)


def test_epsilon_opt_clamped():
    r = build_report(RunSpec(make_complete(101), ProtocolConfig(1000, 0.1, 0.01, 80, c0=1000)))
    assert r.epsilon_opt == 0.5 and any("0.5 ceiling" in w for w in r.warnings)
    with pytest.raises(SimulationError, match="protocol period_t 0"):  # the engine refuses it
        Engine(RunSpec(make_complete(2), ProtocolConfig(0, 0.1, 0.01, 80, c0=10)))


# a degree of 0 is a network without links, which check refuses
@given(st.integers(1, 100), st.integers(1, 50), st.integers(0, 1000),
       st.integers(1, 10**6))
def test_epsilon_opt_monotone(beta, n, nu, t):
    base = _opt(beta, n, nu, t)
    assert _opt(beta + 1, n, nu, t) >= base
    assert _opt(beta, n + 1, nu, t) >= base
    assert _opt(beta, n, nu + 1, t) >= base
    assert _opt(beta, n, nu, t + 1) <= base


def test_sigma_max():
    assert _judge(0.1, 0.01).sigma_max == pytest.approx(1 / 9)
    assert _judge(0.01, 0.001).sigma_max == pytest.approx(0.01 / 0.99)
    # delay eating the whole window: 2 nu / T = epsilon
    assert _judge(0.1, 0.01, nu=500).sigma_max == pytest.approx(0.0)
    # a window is at most half the period, and the period is positive
    for eps, t in ((1.0, 10000), (0.6, 10000), (0.1, 0)):
        with pytest.raises(SimulationError):
            Engine(RunSpec(make_complete(2), ProtocolConfig(t, eps, 0.01, 80)))


def _cfg(c0, s_th):
    return ProtocolConfig(10000, 0.1, 0.01, s_th, c0=c0)


def test_adaptive_c_substitution():
    assert adaptive_c(_cfg(50, 80), 4) == 160
    assert adaptive_c(_cfg(50, 80), 20) == 800
    assert adaptive_c(_cfg(50, 100), 1) == 50


@given(st.integers(1, 500), st.integers(0, 100))
def test_adaptive_c_full_threshold(c0, n):
    assert adaptive_c(_cfg(c0, 100), n) == c0 * n


def test_adaptive_c_validation():
    # the engine refuses a c0 or s_th that ProtocolConfig records
    with pytest.raises(SimulationError, match="protocol c0 0 must be"):
        Engine(RunSpec(make_complete(2), _cfg(0, 80)))
    with pytest.raises(ValueError):
        adaptive_c(_cfg(50, 80), -1)
    with pytest.raises(SimulationError, match="protocol s_th 101 must be"):
        Engine(RunSpec(make_complete(2), _cfg(50, 101)))


def test_check_stability():
    r = _judge(0.1, 0.01, nu=100)  # delta = 0.01
    assert r.stable and r.margin > 0
    # epsilon = 2*delta fails the strict requirement
    assert not _judge(0.1, 0.01, nu=500).stable
    r = _judge(0.25, 0.3)  # bound 0.25 / 0.75
    assert r.stable and r.margin == pytest.approx(1 / 30)


@given(st.floats(0.001, 0.5, exclude_max=True), st.floats(0.0001, 0.999))
def test_check_stability_zero_delay_matches_bound(eps, sigma):
    # at epsilon = 0.5 no node can couple, so the bound says nothing there
    assert _judge(eps, sigma).stable == (sigma < eps / (1.0 - eps))


def _late_fire_gaps(fire_times: dict[int, list[int]], start: int) -> set[int]:
    """Each node's intervals between consecutive fires from tick start on."""
    gaps = set()
    for times in fire_times.values():
        late = [t for t in times if t >= start]
        gaps.update(b - a for a, b in zip(late, late[1:]))
    return gaps


@pytest.mark.parametrize("nu,stable", [(400, True), (500, False), (1000, False)])
def test_two_nodes_echo_exactly_where_check_says_unstable(nu, stable):
    # the delay echo on two nodes: A fires, B hears it nu later outside its
    # window and jumps, firing sigma * remaining after that; A hears B's fire
    # outside its own window and does the same.  In that orbit each node
    # fires d = (nu (1 - sigma) + sigma T) / (1 + sigma) after the other and
    # hears it at phase (2 delta + sigma) / (1 + sigma), above epsilon exactly
    # when sigma > (epsilon - 2 delta) / (1 - epsilon): check's bound.  Below
    # it the echo lands in the window and each node fires once a period
    t, sigma = 10000, 0.01
    cfg = ProtocolConfig(t, 0.1, sigma, 80, init_listen_periods=0)
    topology = make_complete(2)
    assert build_report(RunSpec(topology, cfg, delay=_delay(nu))).stable is stable
    echo = 2 * (nu * (1 - sigma) + sigma * t) / (1 + sigma)  # 1,178 / 2,158 ticks
    for seed in range(5):
        res = run(topology, cfg, delay=DelayModel("deterministic", nu=nu), horizon=50, seed=seed)
        gaps = _late_fire_gaps(res.fire_times, 25 * t)  # periods 25-49
        if stable:
            assert gaps == {t}, seed
        else:
            echoes = {gap for gap in gaps if abs(gap - echo) <= 1}
            assert echoes and gaps - echoes <= {t}, (seed, gaps)


def test_build_report_rejects_negative_delay():
    with pytest.raises(SimulationError, match="delay nu -1 must be in"):
        build_report(RunSpec(make_complete(2), ProtocolConfig(10000, 0.1, 0.01, 80),
                             delay=_delay(-1)))


def test_build_report_stable_case():
    r = build_report(RunSpec(make_complete(2), ProtocolConfig(10000, 0.1, 0.01, 80)))
    assert r.stable
    assert r.sigma_max == pytest.approx(1 / 9)
    assert r.delta == 0.0 and r.budgets is None
    assert any("stable" in line for line in r.lines())


def test_build_report_unstable_and_warning():
    r = build_report(RunSpec(make_complete(2), ProtocolConfig(1000, 0.01, 0.02, 80)))
    assert not r.stable and r.margin < 0


@pytest.mark.parametrize("cfg", [
    # adaptive C: a budget of 600 * 2 * 100 / 100 = 1200 ticks caps every
    # window at 0.5; or the configured window is 0.5 already
    ProtocolConfig(1000, 0.01, 0.01, 100, c0=600, adaptive_c=True),
    ProtocolConfig(1000, 0.5, 0.01, 80),
])
def test_build_report_whole_period_window_cannot_couple(cfg):
    # the closed-form bound alone calls this stable, but a window over the
    # whole period gives the coupling jump no phase to act on
    r = build_report(RunSpec(make_complete(3), cfg))
    assert r.epsilon == 0.5 and not r.stable
    assert "stable           = NO" in r.lines()
    assert any("no node can couple" in w for w in r.warnings)


def test_build_report_whole_period_window_has_no_margin():
    # no node can couple, so there is no coupling strength to bound: the
    # closed form would print sigma_max = 1.0 and a margin of 0.99
    cfg = ProtocolConfig(1000, 0.01, 0.01, 100, c0=600, adaptive_c=True)
    r = build_report(RunSpec(make_complete(3), cfg))
    assert r.sigma_max is None and r.margin is None
    assert "sigma_max        = n/a" in r.lines()
    assert "stability margin = n/a" in r.lines()


def test_build_report_no_valid_sigma_warning():
    r = build_report(RunSpec(make_complete(2), ProtocolConfig(10000, 0.1, 0.01, 80),
                             delay=_delay(500)))
    assert r.delta == pytest.approx(0.05)
    assert any("no valid sigma" in w for w in r.warnings)


def test_build_report_adaptive_table():
    topo = make_regular_grid(5, 5, wraparound=True)
    cfg = ProtocolConfig(10000, 0.05, 0.01, 80, adaptive_c=True)
    r = build_report(RunSpec(topo, cfg))
    assert r.budgets == (160, 160) and r.nodes == 25
    assert any("adaptive C range = 160..160 ticks (25 nodes)" in line for line in r.lines())


def test_build_report_epsilon_below_opt_warning():
    # adaptive C widens the configured 0.001 to at least 0.004, still
    # below epsilon_opt for an average degree of about 20
    topo = make_random_geometric(87, 0.320408, seed=7)
    cfg = ProtocolConfig(30000, 0.001, 0.0005, 80, adaptive_c=True)
    r = build_report(RunSpec(topo, cfg))
    assert r.epsilon == pytest.approx(0.004)
    assert any("below epsilon_opt" in w for w in r.warnings)

