import pytest

from ebsim.protocol import (IsolatedNodeError, Mode, MrfConfig, NodeState,
                            ProtocolConfig, Variant, effective_epsilon,
                            end_of_period_evaluation, is_awake, mrf_is_awake,
                            mrf_on_fire, mrf_on_message, on_fire, on_message,
                            on_period_start)

T = 1000


def make_cfg(**kw):
    base = dict(period_t=T, epsilon=0.01, sigma=0.01, s_th=80.0,
                init_listen_periods=5)
    base.update(kw)
    return ProtocolConfig(**base)


def make_node(mode=Mode.SYNCHRONIZATION, estimate=4, next_fire=2 * T, **kw):
    node = NodeState(id=0, period_ticks=T, next_fire=next_fire,
                     epsilon_eff=0.01, mode=mode,
                     neighbor_count_estimate=estimate, **kw)
    return node


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(period_t=0)
    with pytest.raises(ValueError):
        make_cfg(epsilon=0.7)
    with pytest.raises(ValueError):
        make_cfg(sigma=1.0)
    with pytest.raises(ValueError):
        make_cfg(s_th=120.0)
    with pytest.raises(ValueError):
        make_cfg(c0=0)
    with pytest.raises(ValueError):
        make_cfg(init_listen_periods=-1)


def test_phase_at():
    node = make_node(next_fire=1500)
    assert node.phase_at(1000) == pytest.approx(0.5)
    assert node.phase_at(1500) == pytest.approx(1.0)


def test_initialization_promotes_with_neighbor_count():
    cfg = make_cfg()
    node = make_node(mode=Mode.INITIALIZATION, estimate=0, next_fire=2 * T,
                     init_periods_left=1)
    node.heard_any = {1, 2, 3}
    on_period_start(node, cfg, T)
    assert node.mode is Mode.SYNCHRONIZATION
    assert node.neighbor_count_estimate == 3
    assert node.heard_any == set() and node.heard_this_period == set()


def test_initialization_counts_across_periods():
    cfg = make_cfg()
    node = make_node(mode=Mode.INITIALIZATION, estimate=0, next_fire=2 * T,
                     init_periods_left=2)
    node.heard_any = {1, 2}
    on_period_start(node, cfg, T)
    assert node.mode is Mode.INITIALIZATION
    node.heard_any = {3}
    node.next_fire = 3 * T
    on_period_start(node, cfg, 2 * T)
    assert node.mode is Mode.SYNCHRONIZATION
    assert node.neighbor_count_estimate == 3


def test_period_start_requires_wrap():
    cfg = make_cfg()
    node = make_node(next_fire=1500)
    with pytest.raises(ValueError):
        on_period_start(node, cfg, 1000)


def test_is_awake_by_mode():
    # synchronizing nodes listen the whole period
    node = make_node(mode=Mode.SYNCHRONIZATION)
    assert is_awake(node, 0.5)
    # steady nodes only inside the wake window (2 * eps * T of the period)
    node = make_node(mode=Mode.STEADY)
    assert not is_awake(node, 0.5)
    assert is_awake(node, 0.995)
    assert is_awake(node, 0.005)
    # a recovering steady node is fully awake again
    node.recovering = True
    assert is_awake(node, 0.5)


def test_on_fire_no_reachback_always_broadcasts():
    cfg = make_cfg()
    node = make_node(next_fire=T)
    assert on_fire(node, cfg, T) is True
    assert node.next_fire == 2 * T


def test_on_fire_no_reachback_piggybacks_payload():
    cfg = make_cfg()
    node = make_node(next_fire=T)
    node.pending_payload = True
    assert on_fire(node, cfg, T) is True
    assert not node.pending_payload  # the payload went out with the fire


def test_on_fire_partial_reachback_silent_without_payload():
    cfg = make_cfg(variant=Variant.PARTIAL_REACHBACK)
    node = make_node(next_fire=T)
    assert on_fire(node, cfg, T) is False
    assert node.next_fire == 2 * T
    node.pending_payload = True
    node.next_fire = 2 * T
    assert on_fire(node, cfg, 2 * T) is True
    assert not node.pending_payload


def test_on_message_couples_mid_period():
    cfg = make_cfg()
    node = make_node(next_fire=1500)
    jump = on_message(node, 7, cfg, 1000)  # phi = 0.5, remaining 500
    assert node.next_fire == 1005  # remaining 500 -> 5 ticks
    assert jump == pytest.approx(0.495)
    assert node.heard_any == {7}
    assert node.heard_this_period == set()  # not inside the window


def test_on_message_inside_window_records_only():
    cfg = make_cfg()
    node = make_node(next_fire=1002)  # phi = 0.998 at t=1000
    jump = on_message(node, 3, cfg, 1000)
    assert jump == 0.0
    assert node.next_fire == 1002
    assert node.heard_this_period == {3}


def test_on_message_ignored_during_initialization():
    cfg = make_cfg()
    node = make_node(mode=Mode.INITIALIZATION, next_fire=1500)
    assert on_message(node, 3, cfg, 1000) == 0.0
    assert node.next_fire == 1500
    assert node.heard_any == {3}


def test_on_message_reachback_stores_advance():
    cfg = make_cfg(variant=Variant.PARTIAL_REACHBACK)
    node = make_node(next_fire=1500)
    # the advance is kept in next_fire; the reply waits for a payload
    assert on_message(node, 7, cfg, 1000) == pytest.approx(0.495)
    assert node.next_fire == 1005


def test_evaluation_promotes_at_threshold():
    cfg = make_cfg()
    node = make_node(mode=Mode.SYNCHRONIZATION, estimate=5)
    node.heard_any = {1, 2, 3, 4, 5}
    node.heard_this_period = {1, 2, 3, 4}  # S = 80 >= 80
    end_of_period_evaluation(node, cfg)
    assert node.mode is Mode.STEADY
    assert node.synchronicity == pytest.approx(80.0)


def test_evaluation_steady_flaps_below_threshold():
    cfg = make_cfg()
    node = make_node(mode=Mode.STEADY, estimate=5)
    node.heard_this_period = {1, 2, 3}  # S = 60 < 80
    end_of_period_evaluation(node, cfg)
    assert node.recovering and node.flap_count == 1
    assert node.synchronicity == pytest.approx(60.0)


def test_evaluation_steady_at_threshold_keeps_duty_cycling():
    cfg = make_cfg()
    node = make_node(mode=Mode.STEADY, estimate=5)
    node.heard_this_period = {1, 2, 3, 4}  # S = 80, no flap
    end_of_period_evaluation(node, cfg)
    assert not node.recovering and node.flap_count == 0


def test_evaluation_over_100_updates_estimate():
    cfg = make_cfg()
    node = make_node(mode=Mode.STEADY, estimate=4)
    node.heard_this_period = {1, 2, 3, 4, 5}  # S = 125
    end_of_period_evaluation(node, cfg)
    assert node.neighbor_count_estimate == 5
    assert node.synchronicity == pytest.approx(100.0)
    assert node.mode is Mode.STEADY and not node.recovering


def test_evaluation_sync_refreshes_estimate():
    # while synchronizing (awake all period) the working neighbour count
    # follows what was actually processed; steady nodes keep theirs fixed
    cfg = make_cfg()
    node = make_node(mode=Mode.SYNCHRONIZATION, estimate=9)
    node.heard_any = {1, 2, 3, 4, 5, 6}
    node.heard_this_period = {1, 2, 3, 4, 5}
    end_of_period_evaluation(node, cfg)
    assert node.neighbor_count_estimate == 6
    assert node.mode is Mode.STEADY  # 5/6 = 83.3 >= 80


def test_evaluation_recovery_period_resets_to_sync():
    cfg = make_cfg()
    node = make_node(mode=Mode.STEADY, estimate=5)
    node.recovering = True
    node.heard_any = {1, 2, 3}
    node.heard_this_period = {1, 2}
    end_of_period_evaluation(node, cfg)
    assert node.mode is Mode.SYNCHRONIZATION
    assert not node.recovering
    assert node.neighbor_count_estimate == 3


def test_evaluation_isolated_node():
    cfg = make_cfg()
    node = make_node(mode=Mode.SYNCHRONIZATION, estimate=0)
    with pytest.raises(IsolatedNodeError):
        end_of_period_evaluation(node, cfg)


def test_effective_epsilon_adaptive_widens():
    cfg = make_cfg(epsilon=0.01, adaptive_c=True, c0=50, s_th=80.0)
    # budget 50 * 20 * 0.8 = 800 ticks over 2T = 2000
    assert effective_epsilon(cfg, 20) == pytest.approx(0.4)
    # low degree falls back to the configured floor
    assert effective_epsilon(cfg, 0) == 0.01
    cfg = make_cfg(epsilon=0.01, adaptive_c=False)
    assert effective_epsilon(cfg, 20) == 0.01


def test_mode_label():
    node = make_node(mode=Mode.STEADY)
    assert node.mode_label() == "steady"
    node.recovering = True
    assert node.mode_label() == "steady_recovering"


# --- refractory baseline ---------------------------------------------------

def test_mrf_config_validation():
    with pytest.raises(ValueError):
        MrfConfig(T, 0)
    with pytest.raises(ValueError):
        MrfConfig(T, T)


def test_mrf_refractory_blocks_coupling():
    node = make_node(next_fire=1700)  # phi = 0.3 at t=1000
    jump = mrf_on_message(node, 2, make_cfg(), 1000, refractory=T // 2)
    assert jump == 0.0 and node.next_fire == 1700


def test_mrf_couples_outside_refractory():
    node = make_node(next_fire=1300)  # phi = 0.7 at t=1000
    jump = mrf_on_message(node, 2, make_cfg(), 1000, refractory=T // 2)
    assert jump > 0.0 and node.next_fire == 1003


def test_mrf_sleep_rule():
    sleeping = MrfConfig(T, T // 2)
    node = make_node()
    assert not mrf_is_awake(node, 0.3, sleeping)
    assert mrf_is_awake(node, 0.7, sleeping)
    always_on = MrfConfig(T, T // 2, sleep_during_refractory=False)
    assert mrf_is_awake(node, 0.3, always_on)


def test_mrf_fire_resets_and_broadcasts():
    node = make_node(next_fire=T)
    assert mrf_on_fire(node, T) is True
    assert node.next_fire == 2 * T
