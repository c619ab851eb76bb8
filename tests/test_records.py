"""The records' contract: keyword construction with their defaults, the
Name(field=value, ...) repr, read-only config records that copy with
_replace, and the equality of ScenarioConfig and Topology.  Sweep workers
receive configs by pickle."""

import importlib
import pickle
import pkgutil
import typing

import pytest

import ebsim
from ebsim.params import ParamReport
from ebsim.protocol import Mode, MrfConfig, NodeState, ProtocolConfig
from ebsim.scenario import ScenarioConfig, SweepSpec, parse_scenario_text
from ebsim.sim import (ChurnEvent, ClockDriftModel, DelayModel, LinkFaultModel,
                       RunResult)
from ebsim.topology import Topology, TopologyError

CONFIGS = {
    "ProtocolConfig": (ProtocolConfig(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80),
                       "ProtocolConfig(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80, "
                       "c0=50, variant=<Variant.NO_REACHBACK: 'no_reachback'>, "
                       "adaptive_c=False, init_listen_periods=5)"),
    "MrfConfig": (MrfConfig(refractory=500),
                  "MrfConfig(refractory=500, sleep_during_refractory=True)"),
    "DelayModel": (DelayModel(),
                   "DelayModel(kind='none', nu=0, lo=0, hi=0, link_lo=0, link_hi=None, "
                   "link_seed=0)"),
    "LinkFaultModel": (LinkFaultModel(),
                       "LinkFaultModel(loss_probability=0.0, collisions_enabled=False, "
                       "airtime_beta=4)"),
    "ClockDriftModel": (ClockDriftModel(), "ClockDriftModel(skew_ppm_min=0.0, skew_ppm_max=0.0)"),
    "ChurnEvent": (ChurnEvent(at_period=3, action="leave", node_id=4),
                   "ChurnEvent(at_period=3, action='leave', node_id=4, edges=())"),
    "SweepSpec": (SweepSpec(parameter="run.seed", values=(1, 2)),
                  "SweepSpec(parameter='run.seed', values=(1, 2))"),
}

SCENARIO = """
topology.kind = grid
topology.rows = 3
topology.cols = 3
protocol.period_t = 1000
protocol.epsilon = 0.05
protocol.sigma = 0.01
protocol.s_th = 80
mrf.enabled = true
sweep.parameter = run.seed
sweep.values = [1, 2]
"""


@pytest.mark.parametrize("name", CONFIGS)
def test_a_config_record_is_read_only_and_copies_with_replace(name):
    record, text = CONFIGS[name]
    assert repr(record) == text
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, 7)
    changed = record._replace(**{first: 7})
    assert getattr(changed, first) == 7 and changed[1:] == record[1:]
    assert getattr(record, first) != 7
    assert pickle.loads(pickle.dumps(record)) == record


def test_the_results_construct_by_keyword():
    result = RunResult(series=[], flap_events=[(5, 1)], fire_times={1: [5]},
                       final_nodes={}, warnings=[], stats={"received": 2})
    assert result.trace is None
    assert repr(result) == ("RunResult(series=[], flap_events=[(5, 1)], fire_times={1: [5]}, "
                            "final_nodes={}, warnings=[], stats={'received': 2}, trace=None)")
    report = ParamReport(epsilon=0.05, sigma=0.01, delta=0.0, epsilon_opt=0.1,
                         sigma_max=None, stable=False, margin=None, warnings=[],
                         budgets=None, nodes=9, epsilon_max=0.05)
    assert repr(report).startswith("ParamReport(epsilon=0.05, sigma=0.01, delta=0.0, ")
    assert report.lines()[4] == "sigma_max        = n/a"


def test_a_node_state_starts_with_its_defaults_and_fresh_containers():
    a = NodeState(period_ticks=1000, next_fire=40, epsilon_eff=0.05)
    b = NodeState(period_ticks=1000, next_fire=40, epsilon_eff=0.05,
                  mode=Mode.STEADY, neighbor_count_estimate=2)
    assert (a.mode, a.period_start, a.neighbor_count_estimate,
            a.synchronicity, a.pending_payload, a.advance_accum, a.rx_busy_until,
            a.rx_pending) == (Mode.INITIALIZATION, 0, 0, 0.0, False, 0.0, -1, None)
    assert (b.mode, b.neighbor_count_estimate) == (Mode.STEADY, 2)
    for name in ("heard_this_period", "heard_any", "armed", "fires"):
        assert not getattr(a, name) and getattr(a, name) is not getattr(b, name), name
    a.armed.append((40, 1))
    a.next_fire = 41
    assert (a.fire_seq, a.phase_at(41)) == (-1, 1.0)
    assert repr(b) == ("NodeState(period_ticks=1000, next_fire=40, epsilon_eff=0.05, "
                       "mode=<Mode.STEADY: 'steady'>, period_start=0, "
                       "neighbor_count_estimate=2, heard_this_period=set(), heard_any=set(), "
                       "synchronicity=0.0, "
                       "pending_payload=False, armed=[], advance_accum=0.0, "
                       "rx_busy_until=-1, rx_pending=None, fires=[])")


def test_a_scenario_config_is_read_only_and_equal_without_given():
    cfg = parse_scenario_text(SCENARIO)
    fields = {name: getattr(cfg, name) for name in ScenarioConfig.__slots__}
    assert ScenarioConfig(**fields) == cfg
    assert ScenarioConfig(**{**fields, "given": {}}) == cfg
    assert ScenarioConfig(**{**fields, "seed": 1}) != cfg
    assert repr(cfg).startswith(f"ScenarioConfig(given={cfg.given!r}, topology=Topology(")
    assert repr(cfg).endswith(", horizon=50, seed=0, payload_rate=1.0, "
                              "sweep=SweepSpec(parameter='run.seed', values=(1, 2)))")
    with pytest.raises(AttributeError):
        cfg.seed = 1
    with pytest.raises(TypeError):
        hash(cfg)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and copy.given == cfg.given and copy.mrf == MrfConfig(500)


def test_a_topology_is_equal_by_adjacency_and_unhashable():
    topo = Topology(adjacency={0: {1}, 1: {0}})
    assert topo == Topology({1: {0}, 0: {1}})
    assert topo != Topology({0: {1}, 1: {0, 2}, 2: {1}})
    assert topo != {0: {1}, 1: {0}}
    assert repr(topo) == "Topology(adjacency={0: {1}, 1: {0}})"
    with pytest.raises(TypeError):
        hash(topo)
    assert pickle.loads(pickle.dumps(topo)) == topo


@pytest.mark.parametrize("adjacency,message", [
    ({}, "topology must contain at least one node"),
    ({0: {0}}, "self-loop at node 0"),
    ({0: {7}}, "edge 0-7 references unknown node 7"),
    ({0: {1}, 1: set()}, "asymmetric edge 0-1"),
])
def test_the_topology_checks_in_its_constructor(adjacency, message):
    with pytest.raises(TopologyError) as err:
        Topology(adjacency)
    assert str(err.value) == message


def test_named_tuple_field_annotations_are_evaluated_types():
    # a string annotation (as under `from __future__ import annotations`)
    # makes typing compile a ForwardRef for the field at every import
    modules = [importlib.import_module(f"ebsim.{info.name}")
               for info in pkgutil.iter_modules(ebsim.__path__)]
    tuples = {obj for module in modules for obj in vars(module).values()
              if isinstance(obj, type) and obj.__module__ == module.__name__
              and issubclass(obj, tuple) and hasattr(obj, "_fields")}
    assert {"ProtocolConfig", "MrfConfig", "DelayModel", "RunResult", "SweepSpec",
            "ParamReport", "MetricsRow"} <= {cls.__name__ for cls in tuples}
    deferred = [f"{cls.__name__}.{name}" for cls in tuples
                for name, annotation in cls.__annotations__.items()
                if isinstance(annotation, (str, typing.ForwardRef))]
    assert not deferred
