import pytest

from ebsim.metrics import COLUMNS, MetricsRow, export_csv, steady_state
from ebsim.protocol import Mode, ProtocolConfig
from ebsim.sim import ChurnEvent, Engine, EventKind, RunSpec, run
from ebsim.topology import Topology, make_complete, make_regular_grid

from engine_steps import deliver


def _row(period, **kw):
    base = dict(period=period, dphi_literal=0.0, dphi_circular=0.0, dplus=0.0,
                duty_pct=0.0, thr_pct=0.0, steady_pct=0.0, flaps=0)
    base.update(kw)
    return MetricsRow(**base)


def _duty(topology, epsilon, horizon, seed=0, **kw):
    cfg = ProtocolConfig(period_t=1000, epsilon=epsilon, sigma=0.01,
                         s_th=80.0, **kw)
    return [r.duty_pct for r in run(topology, cfg, horizon=horizon, seed=seed).series]


def test_duty_cycle_all_awake():
    # initializing nodes listen the whole period; the first row holds only
    # the stretch before each node's first fire
    duty = _duty(make_complete(3), 0.025, horizon=5, init_listen_periods=10)
    assert duty[1:] == [100.0] * 4


def test_duty_cycle_steady_window():
    # a steady node with epsilon = 0.025 is awake 2 * 0.025 of the period
    duty = _duty(Topology({0: {1}, 1: {0}}), 0.025, horizon=30, seed=4,
                 init_listen_periods=0)
    assert duty[-1] == pytest.approx(5.0)


def test_duty_cycle_mixed():
    # one steady node awake 2 * 0.025 of the period, one synchronizing and
    # one recovering node listening all of it
    cfg = ProtocolConfig(period_t=1000, epsilon=0.025, sigma=0.01, s_th=80.0)
    eng = Engine(RunSpec(make_complete(3), cfg, horizon=1, seed=0))
    steady, awake, recovering = eng.nodes[0], eng.nodes[1], eng.nodes[2]
    steady.mode, awake.mode = Mode.STEADY, Mode.SYNCHRONIZATION
    recovering.mode = Mode.RECOVERY
    for node in (steady, awake, recovering):
        node.period_start = 0
    # awake ticks: 50 + 1000 + 1000
    deliver(eng, 1000, events=[(1000, EventKind.FIRE, nid, 0) for nid in range(3)])
    assert eng.series[-1].duty_pct == pytest.approx(205.0 / 3)


def test_duty_cycle_validation():
    # a network emptied by churn reads 0% duty rather than dividing by zero
    churn = (ChurnEvent(1, "leave", 0), ChurnEvent(1, "leave", 1))
    cfg = ProtocolConfig(period_t=1000, epsilon=0.025, sigma=0.01, s_th=80.0)
    res = run(make_complete(2), cfg, horizon=3, seed=0, churn=churn)
    assert [r.duty_pct for r in res.series][1:] == [0.0, 0.0]


def _thr(received):
    # 25 nodes of degree 4: one period's receptions against the ceiling of
    # one broadcast per node heard by every neighbour
    cfg = ProtocolConfig(period_t=1000, epsilon=0.025, sigma=0.01, s_th=80.0)
    eng = Engine(RunSpec(make_regular_grid(5, 5, True), cfg, horizon=1, seed=0))
    eng._handle_sample(1000, received, 0)
    return eng.series[-1].thr_pct


def test_throughput_lossless_ceiling():
    assert _thr(100) == pytest.approx(100.0)


def test_throughput_half_lost():
    assert _thr(50) == pytest.approx(50.0)


def test_series_steady_state_tail():
    s = [_row(k, duty_pct=float(k), flaps=k) for k in range(8)]
    tail = steady_state(s)
    assert list(tail) == list(COLUMNS[1:])  # every column but the period
    assert tail["duty_pct"] == pytest.approx(6.5)  # mean of last 2 rows
    assert tail["flaps"] == 7
    with pytest.raises(ValueError):
        steady_state([])


# 1e16 + 1.0 rounds back to 1e16, so these add up to 0.0 left to right;
# a compensated sum (sum() of floats since CPython 3.12) gives 1.0
UNEVEN = (1e16, 1.0, -1e16)


def test_averages_add_left_to_right():
    # the outputs are the same bytes on every CPython
    rows = [_row(k) for k in range(9)] + [_row(9 + k, dplus=x) for k, x in enumerate(UNEVEN)]
    assert steady_state(rows)["dplus"] == 0.0  # the mean of the last 3 rows
    cfg = ProtocolConfig(period_t=1000, epsilon=0.025, sigma=0.01, s_th=80.0)
    eng = Engine(RunSpec(make_complete(3), cfg, horizon=1, seed=0))
    for node, accum in zip(eng.nodes.values(), UNEVEN):
        node.advance_accum = accum
    eng._handle_sample(1000, 0, 0)
    assert eng.series[-1].dplus == 0.0


def test_export_empty_series_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv([], str(path))
    assert path.read_text() == ",".join(COLUMNS) + "\n"


def test_export_three_periods_four_lines(tmp_path):
    s = [_row(k) for k in range(3)]
    path = tmp_path / "three.csv"
    export_csv(s, str(path))
    assert len(path.read_text().splitlines()) == 4


def test_export_byte_stable(tmp_path):
    s = [_row(k, dphi_circular=k / 7, thr_pct=100.0 * k / 3) for k in range(5)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(s, str(a))
    export_csv(s, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_export_unwritable_path(tmp_path):
    s = []
    with pytest.raises(OSError):
        export_csv(s, str(tmp_path / "missing" / "x.csv"))
