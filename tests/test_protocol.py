import pytest

from ebsim.protocol import (Mode, MrfConfig, NodeState, ProtocolConfig,
                            Variant, effective_epsilon)
from ebsim.sim import Engine, RunSpec, SimulationError
from ebsim.topology import make_complete

from engine_steps import deliver, fire

T = 1000


def make_cfg(**kw):
    base = dict(period_t=T, epsilon=0.01, sigma=0.01, s_th=80.0,
                init_listen_periods=5)
    base.update(kw)
    return ProtocolConfig(**base)


def make_node(mode=Mode.SYNCHRONIZATION, estimate=4, next_fire=2 * T, **kw):
    node = NodeState(period_ticks=T, next_fire=next_fire,
                     epsilon_eff=0.01, mode=mode,
                     neighbor_count_estimate=estimate, **kw)
    return node


def _engine(node, cfg, mrf, payload_rate=1.0):
    # a pair whose node 0 is the given node
    eng = Engine(RunSpec(make_complete(2), cfg or make_cfg(), mrf=mrf,
                         payload_rate=payload_rate))
    eng.nodes[0] = node
    return eng


def end_period(node, now, cfg=None, mrf=None, payload_rate=1.0):
    """Run node's period end at tick now through the engine's fire handler;
    returns (whether the fire went on air, the engine)."""
    eng = _engine(node, cfg, mrf, payload_rate)
    return fire(eng, 0, now), eng


def hear(node, sender, now, cfg=None, mrf=None):
    """Deliver sender's fire to node at tick now through the engine loop
    (EBS, or the baseline with mrf); returns the phase jump applied."""
    before = node.next_fire
    deliver(_engine(node, cfg, mrf), now, (now, 0, sender))
    return (before - node.next_fire) / node.period_ticks


def is_awake(node, phi, mrf=None):
    """Whether node, at phase phi of a fire heard at tick T, takes it in."""
    node.next_fire = T + round((1.0 - phi) * T)
    eng = _engine(node, None, mrf)
    deliver(eng, T, (T, 0, 1))
    return eng.stats["dropped_asleep"] == 0


def test_config_validation():
    # ProtocolConfig is a plain record; the engine refuses each bad value
    for field, value in (("period_t", 0), ("epsilon", 0.7), ("sigma", 1.0), ("s_th", 120.0),
                         ("c0", 0), ("init_listen_periods", -1)):
        with pytest.raises(SimulationError, match=f"^protocol {field} {value} must be"):
            Engine(RunSpec(make_complete(2), make_cfg(**{field: value})))


def test_phase_at():
    node = make_node(next_fire=1500)
    assert node.phase_at(1000) == pytest.approx(0.5)
    assert node.phase_at(1500) == pytest.approx(1.0)


def test_initialization_promotes_with_neighbor_count():
    cfg = make_cfg(init_listen_periods=1)
    node = make_node(mode=Mode.INITIALIZATION, estimate=0, next_fire=2 * T)
    node.heard_any = {1, 2, 3}
    end_period(node, T, cfg)
    assert node.mode is Mode.SYNCHRONIZATION
    assert node.neighbor_count_estimate == 3
    assert node.heard_any == set() and node.heard_this_period == set()


def test_initialization_counts_across_periods():
    cfg = make_cfg(init_listen_periods=2)
    node = make_node(mode=Mode.INITIALIZATION, estimate=0, next_fire=2 * T)
    # the senders heard join the node's set, as a reception adds them; the
    # set spans both listening periods
    node.heard_any.update({1, 2})
    end_period(node, T, cfg)
    assert node.mode is Mode.INITIALIZATION and node.heard_any == {1, 2}
    node.heard_any.update({2, 3})
    end_period(node, 2 * T, cfg)
    assert node.mode is Mode.SYNCHRONIZATION
    assert node.neighbor_count_estimate == 3


def test_is_awake_by_mode():
    # synchronizing nodes listen the whole period
    node = make_node(mode=Mode.SYNCHRONIZATION)
    assert is_awake(node, 0.5)
    # steady nodes only inside the wake window (2 * eps * T of the period)
    node = make_node(mode=Mode.STEADY)
    assert not is_awake(node, 0.5)
    assert is_awake(node, 0.995)
    assert is_awake(node, 0.005)
    # a node in its recovery period is fully awake again
    node.mode = Mode.RECOVERY
    assert is_awake(node, 0.5)


def test_on_fire_no_reachback_always_broadcasts():
    cfg = make_cfg()
    node = make_node(next_fire=T)
    assert end_period(node, T, cfg)[0] is True
    assert node.next_fire == 2 * T


def test_on_fire_no_reachback_piggybacks_payload():
    cfg = make_cfg()
    node = make_node(next_fire=T)
    node.pending_payload = True
    # no new payload arrives, so none is pending for the next period
    assert end_period(node, T, cfg, payload_rate=0.0)[0] is True
    assert not node.pending_payload  # the payload went out with the fire


def test_on_fire_partial_reachback_silent_without_payload():
    cfg = make_cfg(variant=Variant.PARTIAL_REACHBACK)
    node = make_node(next_fire=T)
    assert end_period(node, T, cfg, payload_rate=0.0)[0] is False
    assert node.next_fire == 2 * T
    node.pending_payload = True
    assert end_period(node, 2 * T, cfg, payload_rate=0.0)[0] is True
    assert not node.pending_payload


def test_on_message_couples_mid_period():
    cfg = make_cfg()
    node = make_node(next_fire=1500)
    jump = hear(node, 7, 1000, cfg)  # phi = 0.5, remaining 500
    assert node.next_fire == 1005  # remaining 500 -> 5 ticks
    assert jump == pytest.approx(0.495)
    assert node.heard_any == {7}
    assert node.heard_this_period == set()  # not inside the window


def test_on_message_inside_window_records_only():
    cfg = make_cfg()
    node = make_node(next_fire=1002)  # phi = 0.998 at t=1000
    jump = hear(node, 3, 1000, cfg)
    assert jump == 0.0
    assert node.next_fire == 1002
    assert node.heard_this_period == {3}


def test_on_message_ignored_during_initialization():
    cfg = make_cfg()
    node = make_node(mode=Mode.INITIALIZATION, next_fire=1500)
    assert hear(node, 3, 1000, cfg) == 0.0
    assert node.next_fire == 1500
    assert node.heard_any == {3}


def test_on_message_reachback_stores_advance():
    cfg = make_cfg(variant=Variant.PARTIAL_REACHBACK)
    node = make_node(next_fire=1500)
    # the advance is kept in next_fire; the reply waits for a payload
    assert hear(node, 7, 1000, cfg) == pytest.approx(0.495)
    assert node.next_fire == 1005


def test_evaluation_promotes_at_threshold():
    cfg = make_cfg()
    node = make_node(mode=Mode.SYNCHRONIZATION, estimate=5)
    node.heard_any = {1, 2, 3, 4, 5}
    node.heard_this_period = {1, 2, 3, 4}  # S = 80 >= 80
    end_period(node, T, cfg)
    assert node.mode is Mode.STEADY
    assert node.synchronicity == pytest.approx(80.0)


def test_evaluation_steady_flaps_below_threshold():
    cfg = make_cfg()
    node = make_node(mode=Mode.STEADY, estimate=5)
    node.heard_this_period = {1, 2, 3}  # S = 60 < 80
    _, eng = end_period(node, T, cfg)
    assert node.mode is Mode.RECOVERY
    assert eng.flap_events == [(T, 0)]
    assert node.synchronicity == pytest.approx(60.0)


def test_evaluation_steady_at_threshold_keeps_duty_cycling():
    cfg = make_cfg()
    node = make_node(mode=Mode.STEADY, estimate=5)
    node.heard_this_period = {1, 2, 3, 4}  # S = 80, no flap
    _, eng = end_period(node, T, cfg)
    assert node.mode is Mode.STEADY and eng.flap_events == []


def test_evaluation_over_100_updates_estimate():
    cfg = make_cfg()
    node = make_node(mode=Mode.STEADY, estimate=4)
    node.heard_this_period = {1, 2, 3, 4, 5}  # S = 125
    end_period(node, T, cfg)
    assert node.neighbor_count_estimate == 5
    assert node.synchronicity == pytest.approx(100.0)
    assert node.mode is Mode.STEADY


def test_evaluation_sync_refreshes_estimate():
    # while synchronizing (awake all period) the working neighbour count
    # follows what was actually processed; steady nodes keep theirs fixed
    cfg = make_cfg()
    node = make_node(mode=Mode.SYNCHRONIZATION, estimate=9)
    node.heard_any = {1, 2, 3, 4, 5, 6}
    node.heard_this_period = {1, 2, 3, 4, 5}
    end_period(node, T, cfg)
    assert node.neighbor_count_estimate == 6
    assert node.mode is Mode.STEADY  # 5/6 = 83.3 >= 80


def test_evaluation_recovery_period_resets_to_sync():
    cfg = make_cfg()
    node = make_node(mode=Mode.RECOVERY, estimate=5)
    node.heard_any = {1, 2, 3}
    node.heard_this_period = {1, 2}
    _, eng = end_period(node, T, cfg)
    assert node.mode is Mode.SYNCHRONIZATION
    assert node.neighbor_count_estimate == 3
    assert node.synchronicity == pytest.approx(200.0 / 3)
    assert eng.flap_events == []


def test_evaluation_isolated_node():
    cfg = make_cfg()
    node = make_node(mode=Mode.SYNCHRONIZATION, estimate=0)
    _, eng = end_period(node, T, cfg)
    assert eng.warnings == ["node 0 has no known neighbours and cannot synchronize"]
    assert node.mode is Mode.SYNCHRONIZATION


def test_effective_epsilon_adaptive_widens():
    cfg = make_cfg(epsilon=0.01, adaptive_c=True, c0=50, s_th=80.0)
    # budget 50 * 20 * 0.8 = 800 ticks over 2T = 2000
    assert effective_epsilon(cfg, 20) == pytest.approx(0.4)
    # low degree falls back to the configured floor
    assert effective_epsilon(cfg, 0) == 0.01
    cfg = make_cfg(epsilon=0.01, adaptive_c=False)
    assert effective_epsilon(cfg, 20) == 0.01


def test_effective_epsilon_caps_the_adaptive_window():
    # a budget of 600 * 2 * 100 / 100 = 1200 ticks exceeds T: the window
    # stops at 0.5 of a period on each side, which covers the whole period
    cfg = make_cfg(adaptive_c=True, c0=600, s_th=100.0)
    assert effective_epsilon(cfg, 2) == 0.5
    assert effective_epsilon(cfg, 100) == 0.5
    assert effective_epsilon(cfg, 1) == pytest.approx(0.3)


# --- refractory baseline ---------------------------------------------------

def test_mrf_config_validation():
    # the engine checks the refractory, 0 < refractory < period_t
    for refractory in (0, -T, T):
        with pytest.raises(SimulationError, match=f"mrf refractory {refractory} must be"):
            Engine(RunSpec(make_complete(2), make_cfg(), mrf=MrfConfig(refractory)))


def test_mrf_refractory_blocks_coupling():
    # always listening, so the fire is heard but the refractory gates it
    node = make_node(next_fire=1700)  # phi = 0.3 at t=1000
    jump = hear(node, 2, 1000, mrf=MrfConfig(T // 2, sleep_during_refractory=False))
    assert jump == 0.0 and node.next_fire == 1700
    assert node.heard_any == {2}


def test_mrf_couples_outside_refractory():
    node = make_node(next_fire=1300)  # phi = 0.7 at t=1000
    jump = hear(node, 2, 1000, mrf=MrfConfig(T // 2))
    assert jump > 0.0 and node.next_fire == 1003


def test_mrf_sleep_rule():
    sleeping = MrfConfig(T // 2)
    node = make_node()
    assert not is_awake(node, 0.3, sleeping)
    assert is_awake(node, 0.7, sleeping)
    always_on = MrfConfig(T // 2, sleep_during_refractory=False)
    assert is_awake(node, 0.3, always_on)


def test_mrf_fire_resets_and_broadcasts():
    node = make_node(next_fire=T)
    assert end_period(node, T, mrf=MrfConfig(T // 2))[0] is True
    assert node.next_fire == 2 * T
