"""One admission check, sim.run_error, decides whether a run can start.

The engine raises its message as a SimulationError; the scenario parser
raises it as a ScenarioError at the line of the key behind the input, for
a parsed file and for every sweep point alike, so `check` passes exactly
the scenarios that `run` and `sweep` can start.  The config records
themselves accept any value.
"""

import contextlib
import importlib
import io
import os
import pkgutil
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ebsim
from ebsim import cli, scenario
from ebsim.params import ParamReport, build_report
from ebsim.protocol import MrfConfig, ProtocolConfig
from ebsim.scenario import (KEYS, SWEEPABLE, ScenarioError, apply_override,
                            parse_scenario, parse_scenario_text)
from ebsim.sim import (ChurnEvent, ClockDriftModel, DelayModel, Engine,
                       LinkFaultModel, RunSpec, SimulationError, run_error)
from ebsim.topology import make_complete, make_regular_grid

GRID = ("topology.kind = grid\ntopology.rows = 3\ntopology.cols = 3\n"
        "topology.wraparound = false\n")
PROTOCOL = {"protocol.period_t": "1000", "protocol.epsilon": "0.05",
            "protocol.sigma": "0.01", "protocol.s_th": "80"}
BASE = GRID + "".join(f"{key} = {text}\n" for key, text in PROTOCOL.items())
FIRST = BASE.count("\n") + 1  # the line of the first key after BASE
CFG = ProtocolConfig(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80)


def _drift(low, high=None):
    high = low if high is None else high
    return ({"drift": ClockDriftModel(float(low), float(high))},
            f"drift.skew_ppm_min = {low}\ndrift.skew_ppm_max = {high}")


def _protocol(**fields):
    return {"protocol": CFG._replace(**fields)}


HUGE = 10 ** 400  # overflows a float, and a file name as digits
REFRACTORY = "mrf refractory {} must be above 0 and below the protocol period 1000"
OUTSIDE = "drift skew_ppm_{} {} must be finite and within [-1e6, 1e6] ppm"
NEEDS = "delay {} = {} needs kind '{}', not '{}'"

# each rule: the Engine arguments that break it, the scenario lines that do
# (after BASE, less the protocol keys they set), the offset of the line at
# fault among them, and the message
RULES = {
    "period_t_0": (_protocol(period_t=0), "protocol.period_t = 0", 0,
                   "protocol period_t 0 must be in [1, 2^53]"),
    "period_t_huge": (_protocol(period_t=HUGE), f"protocol.period_t = {HUGE}", 0,
                      f"protocol period_t {HUGE} must be in [1, 2^53]"),
    "epsilon": (_protocol(epsilon=0.7), "protocol.epsilon = 0.7", 0,
                "protocol epsilon 0.7 must be in (0, 0.5]"),
    # the closed-form bound alone calls this stable, with sigma_max 9.0
    "epsilon_0.9": (_protocol(epsilon=0.9), "protocol.epsilon = 0.9", 0,
                    "protocol epsilon 0.9 must be in (0, 0.5]"),
    "epsilon_nan": (_protocol(epsilon=float("nan")), "protocol.epsilon = nan", 0,
                    "protocol epsilon nan must be in (0, 0.5]"),
    "sigma": (_protocol(sigma=1.0), "protocol.sigma = 1", 0, "protocol sigma 1.0 must be in (0, 1)"),
    "s_th": (_protocol(s_th=120.0), "protocol.s_th = 120", 0,
             "protocol s_th 120.0 must be in [0, 100]"),
    "c0_0": (_protocol(c0=0), "protocol.c0 = 0", 0, "protocol c0 0 must be in [1, 2^53]"),
    "c0_huge": (_protocol(c0=HUGE), f"protocol.c0 = {HUGE}", 0,
                f"protocol c0 {HUGE} must be in [1, 2^53]"),
    "init_listen_periods": (_protocol(init_listen_periods=-1), "protocol.init_listen_periods = -1",
                            0, "protocol init_listen_periods -1 must be in [0, 2^53]"),
    "delay_kind": ({"delay": DelayModel("gaussian")}, "delay.kind = gaussian", 0,
                   "unknown delay kind 'gaussian'"),
    "delay_needs_kind": ({"delay": DelayModel(nu=400)}, "delay.nu = 400", 0,
                         NEEDS.format("nu", 400, "deterministic", "none")),
    "delay_negative": ({"delay": DelayModel("deterministic", nu=-5)},
                       "delay.kind = deterministic\ndelay.nu = -5", 1, "delay nu -5 must be in [0, 2^53]"),
    "delay_nu_huge": ({"delay": DelayModel("deterministic", nu=HUGE)},
                      f"delay.kind = deterministic\ndelay.nu = {HUGE}", 1,
                      f"delay nu {HUGE} must be in [0, 2^53]"),
    "delay_hi_below_lo": ({"delay": DelayModel("uniform", lo=5, hi=2)},
                          "delay.kind = uniform\ndelay.lo = 5\ndelay.hi = 2", 2,
                          "delay hi 2 must be >= lo 5"),
    "link_lo_negative": ({"delay": DelayModel(link_lo=-3, link_hi=5)},
                         "delay.link_lo = -3\ndelay.link_hi = 5", 0,
                         "delay needs 0 <= link_lo <= link_hi <= 2^53, got -3 and 5"),
    "link_seed_huge": ({"delay": DelayModel(link_hi=5, link_seed=HUGE)},
                       f"delay.link_hi = 5\ndelay.link_seed = {HUGE}", 1,
                       f"delay link_seed {HUGE} must be in [-2^63, 2^63)"),
    "link_hi_huge": ({"delay": DelayModel(link_hi=HUGE)}, f"delay.link_hi = {HUGE}", 0,
                     f"delay needs 0 <= link_lo <= link_hi <= 2^53, got 0 and {HUGE}"),
    "loss": ({"fault": LinkFaultModel(loss_probability=2.0)}, "fault.loss_probability = 2", 0,
             "fault loss_probability 2.0 must be in [0, 1]"),
    "beta": ({"fault": LinkFaultModel(airtime_beta=0)}, "fault.beta = 0", 0,
             "fault airtime_beta 0 must be in [1, 2^53]"),
    "skew_min_above_max": (*_drift(5, 0), 0, "drift skew_ppm_min 5.0 is above the max 0.0"),
    "skew_max_below_min": (*_drift(0, -5), 1, "drift skew_ppm_min 0.0 is above the max -5.0"),
    "seed_huge": ({"seed": HUGE}, f"run.seed = {HUGE}", 0,
                  f"seed {HUGE} must be in [-2^63, 2^63)"),
    "churn_period_negative": ({"churn": (ChurnEvent(-1, "leave", 3),)}, "churn.1 = leave 3 at -1",
                              0, "churn leave of node 3 at period -1: the period must be >= 0"),
    "horizon": ({"horizon": 0}, "run.horizon = 0", 0, "horizon must be >= 1 period"),
    "payload_rate": ({"payload_rate": 1.5}, "run.payload_rate = 1.5", 0,
                     "payload_rate must be a probability in [0, 1], got 1.5"),
    "payload_rate_nan": ({"payload_rate": float("nan")}, "run.payload_rate = nan", 0,
                         "payload_rate must be a probability in [0, 1], got nan"),
    "refractory_0": ({"mrf": MrfConfig(0)}, "mrf.enabled = true\nmrf.t_ref = 0", 1,
                     REFRACTORY.format(0)),
    "refractory_T": ({"mrf": MrfConfig(1000)}, "mrf.enabled = true\nmrf.t_ref = 1000", 1,
                     REFRACTORY.format(1000)),
    "skew_-2e6": (*_drift(-2000000), 0, OUTSIDE.format("min", -2000000.0)),
    "skew_period_0": (*_drift(-999600), 0, "drift skew_ppm_min -999600.0 shortens "
                      "the period 1000 to 0 ticks, below 1"),
    "skew_nan": (*_drift(float("nan")), 0, OUTSIDE.format("min", "nan")),
    "skew_inf": (*_drift(float("inf")), 0, OUTSIDE.format("min", "inf")),
    "skew_max_2e6": (*_drift(0, 2000000), 1, OUTSIDE.format("max", 2000000.0)),
    "churn": ({"churn": (ChurnEvent(2, "leave", 42),)}, "churn.1 = leave 42 at 2", 0,
              "churn leave of node 42 at period 2: node 42 does not exist"),
}


@pytest.mark.parametrize("engine,lines,offset,message", RULES.values(), ids=RULES)
def test_each_rule_holds_in_the_engine_and_at_its_key(engine, lines, offset, message):
    spec = RunSpec(make_regular_grid(3, 3, False), **{"protocol": CFG, **engine})
    for judge in (Engine, build_report):  # check refuses what the engine refuses
        with pytest.raises(SimulationError) as err:
            judge(spec)
        assert str(err.value) == message, judge
    keys = {line.split(" = ")[0] for line in lines.splitlines()}
    base = "".join(line for line in BASE.splitlines(keepends=True)
                   if line.split(" = ")[0] not in keys)
    first = base.count("\n") + 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(base + lines + "\n")
    assert str(err.value) == f"<string>:{first + offset}: {message}"


LONG = 10 ** 5000  # more digits than str() converts
SHOWN = "<an integer of about 5001 digits>"


@pytest.mark.parametrize("engine,message", [
    ({"seed": LONG}, f"seed {SHOWN} must be in [-2^63, 2^63)"),
    (_protocol(period_t=LONG), f"protocol period_t {SHOWN} must be in [1, 2^53]"),
    (_protocol(epsilon=LONG), f"protocol epsilon {SHOWN} must be in (0, 0.5]"),
    ({"delay": DelayModel("deterministic", nu=-LONG)},
     "delay nu <a negative integer of about 5001 digits> must be in [0, 2^53]"),
    ({"delay": DelayModel(link_hi=LONG)},
     f"delay needs 0 <= link_lo <= link_hi <= 2^53, got 0 and {SHOWN}"),
    ({"fault": LinkFaultModel(airtime_beta=LONG)}, f"fault airtime_beta {SHOWN} must be in [1, 2^53]"),
    ({"churn": (ChurnEvent(2, "leave", LONG),)},
     f"churn leave of node {SHOWN} at period 2: node {SHOWN} does not exist"),
    ({"churn": (ChurnEvent(2, "join", 9, (0, LONG)),)},
     f"churn join of node 9 at period 2: edge 9-{SHOWN} references unknown node {SHOWN}"),
], ids=["seed", "period_t", "epsilon", "nu", "link_hi", "beta", "churn_node", "churn_edge"])
def test_a_value_too_long_to_print_is_shown_by_its_size(engine, message):
    # a library caller's int of more than 4,300 digits: str() refuses it,
    # so the message gives its size and the Engine still raises its error
    with pytest.raises(SimulationError) as err:
        Engine(RunSpec(make_regular_grid(3, 3, False), **{"protocol": CFG, **engine}))
    assert str(err.value) == message


def test_a_network_without_links_is_refused_at_the_topology_line():
    message = "topology: the network has no links: no node can hear another"
    with pytest.raises(SimulationError) as err:
        Engine(RunSpec(make_complete(1), CFG))
    assert str(err.value) == message
    text = "topology.kind = complete\ntopology.n = 1\n" + BASE[len(GRID):]
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert str(err.value) == f"<string>:1: {message}"


@pytest.mark.parametrize("parameter,value,message", [
    ("run.horizon", 0, "horizon must be >= 1 period"),
    ("run.payload_rate", 1.5, "payload_rate must be a probability in [0, 1], got 1.5"),
    ("mrf.t_ref", 1000, REFRACTORY.format(1000)),
    # the default refractory, half of a 1-tick period, is 0
    ("protocol.period_t", 1,
     "mrf refractory 0 must be above 0 and below the protocol period 1"),
    ("drift.skew_ppm_min", -999600, "drift skew_ppm_min -999600.0 shortens "
     "the period 1000 to 0 ticks, below 1"),
    ("drift.skew_ppm_min", "nan", OUTSIDE.format("min", "nan")),
    ("drift.skew_ppm_max", "inf", OUTSIDE.format("max", "inf")),
    ("protocol.epsilon", 0.7, "protocol epsilon 0.7 must be in (0, 0.5]"),
    ("delay.nu", 400, NEEDS.format("nu", 400, "deterministic", "none")),
    ("fault.beta", 0, "fault airtime_beta 0 must be in [1, 2^53]"),
    ("drift.skew_ppm_max", -5, "drift skew_ppm_min 0.0 is above the max -5.0"),
])
def test_each_rule_holds_at_a_sweep_point(parameter, value, message):
    cfg = parse_scenario_text(BASE + "mrf.enabled = true\n")
    with pytest.raises(ScenarioError) as err:
        apply_override(cfg, parameter, value)
    assert str(err.value) == f"sweep point {parameter} = {value}: {message}"


@pytest.mark.parametrize("skew", ["-2000000", "-999600", "nan", "inf"])
def test_cli_refuses_a_skew_the_engine_cannot_run(tmp_path, capsys, skew):
    # check used to call these stable and run died in the engine
    path = tmp_path / "scenario.txt"
    path.write_text(BASE + f"drift.skew_ppm_min = {skew}\ndrift.skew_ppm_max = {skew}\n")
    out = tmp_path / "out"
    for argv in (["check", str(path)], ["run", str(path), "--out", str(out)]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:{FIRST}: drift skew_ppm_min ")
    assert not out.exists()


def test_cli_sweep_of_the_seed_refuses_a_seed_option(tmp_path, capsys):
    # every point sets its own run.seed, so --seed would be echoed unused
    path = tmp_path / "scenario.txt"
    path.write_text(BASE + "run.horizon = 2\nsweep.parameter = run.seed\n"
                           "sweep.values = [0, 1]\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", str(path), "--seed", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {path}: --seed does not apply to "
                                       "a run.seed sweep\n")
    assert not out.exists()
    assert cli.main(["sweep", str(path), "--out", str(out)]) == 0
    assert "run.seed = 0\n" in (out / "resolved-config.txt").read_text()


@pytest.mark.parametrize("parameter, values, message", [
    ("protocol.epsilon", "0.1, 0.10, 1e-1", "value 2 (0.1) runs the same point as value 1 (0.1)"),
    ("protocol.s_th", "70, 1, 1.0", "value 3 (1.0) runs the same point as value 2 (1)"),
    ("run.seed", "4, 5, 4", "value 3 (4) runs the same point as value 1 (4)"),
], ids=["epsilon", "int_and_float", "seed"])
def test_a_sweep_refuses_values_that_run_one_point(tmp_path, capsys, parameter, values, message):
    # equal points would write one CSV several times (at once under --jobs)
    # and list it in summary.csv as often
    path = tmp_path / "scenario.txt"
    path.write_text(BASE + f"run.horizon = 2\nsweep.parameter = {parameter}\n"
                           f"sweep.values = [{values}]\n")
    out = tmp_path / "out"
    for argv in (["check", str(path)], ["sweep", str(path), "--out", str(out), "--jobs", "2"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {path}: sweep {message}\n")
    assert not out.exists()


# --- the scenario surface, fuzzed -------------------------------------------

_BOUNDARY = ("0", "-1", "nan", "inf", "-inf", str(2 ** 63), str(HUGE), "1e300", "")
# values that mostly parse and pass, by type and for some keys their own
# edges; run.horizon and protocol.period_t take only their own small
# values, "nan" and "", so no example runs long
_TYPICAL = {scenario._INT: ("1", "2", "40"), scenario._FLOAT: ("0.05", "0.3", "1"),
            scenario._BOOL: ("true", "false")}
_OWN = {"protocol.variant": ("no_reachback", "partial_reachback"),
        "delay.kind": ("none", "deterministic", "uniform"),
        "mrf.t_ref": ("500", "999", "1000"),
        "drift.skew_ppm_min": ("-1000000", "-999600", "-500000", "1000000"),
        "drift.skew_ppm_max": ("-999600", "1000000", "1000001"),
        "run.horizon": ("-1", "0", "1", "3"),
        "protocol.period_t": ("-1", "0", "1", "2", "100", "1000")}
_SMALL = ("run.horizon", "protocol.period_t")


def _text(draw, key: str) -> str:
    """Text for one single-valued key: a boundary value one time in six,
    else one of its typical values."""
    typical = _OWN.get(key, ()) + _TYPICAL.get(KEYS[key].type, ())
    if key in _SMALL:
        return draw(st.sampled_from(typical + ("nan", "")))
    return draw(st.sampled_from(_BOUNDARY if draw(st.integers(0, 5)) == 0 else typical))


_node = st.integers(-1, 10).map(str)
_period = st.integers(0, 3).map(str)
_leave = st.builds("leave {} at {}".format, _node, _period)
_join = st.builds("join {} at {} edges {}".format, _node, _period,
                  st.lists(_node, min_size=1, max_size=3).map(",".join))
_churn = st.one_of(*[_leave, _join] * 3, st.sampled_from(("", "vanish 3 at 2", "leave 3 at -1")))
_FUZZED = [key for key, spec in KEYS.items() if not spec.indexed
           and key.split(".")[0] not in ("topology", "sweep")]


@st.composite
def _scenarios(draw) -> dict[str, str]:
    """Key texts that, added to BASE, make a scenario; a key drawn again
    replaces BASE's line."""
    keys = draw(st.lists(st.sampled_from(_FUZZED), max_size=3, unique=True))
    lines = {key: _text(draw, key) for key in keys}
    if "drift.skew_ppm_min" in lines and draw(st.booleans()):  # one skew for every node
        lines["drift.skew_ppm_max"] = lines["drift.skew_ppm_min"]
    if draw(st.integers(0, 3)) == 0:  # a churn entry one time in four
        lines["churn.1"] = draw(_churn)
    if draw(st.integers(0, 3)) == 0:  # a sweep one time in four
        parameter = draw(st.sampled_from(SWEEPABLE + ("topology.rows",)))
        values = [_text(draw, parameter) if parameter in KEYS else draw(_node)
                  for _ in range(draw(st.integers(1, 3)))]
        lines["sweep.parameter"] = parameter
        lines["sweep.values"] = f"[{', '.join(values)}]"
    return lines


def _main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenarios())
@example({"drift.skew_ppm_min": "-2000000", "drift.skew_ppm_max": "-2000000"})
@example({"drift.skew_ppm_min": "-999600", "drift.skew_ppm_max": "-999600"})
@example({"drift.skew_ppm_min": "nan", "drift.skew_ppm_max": "nan"})
@example({"drift.skew_ppm_min": "inf", "drift.skew_ppm_max": "inf"})
# a float cannot hold these, nor a file name the seed: check died or run failed
@example({"protocol.c0": str(HUGE)})
@example({"delay.kind": "deterministic", "delay.nu": str(HUGE)})
@example({"delay.link_hi": str(HUGE)})
@example({"run.seed": str(HUGE)})
@example({"protocol.period_t": str(HUGE)})
# a sweep value is part of each CSV's file name
@example({"sweep.parameter": "protocol.init_listen_periods", "sweep.values": f"[{HUGE}]"})
@example({"delay.link_hi": "5", "sweep.parameter": "delay.link_seed", "sweep.values": f"[{HUGE}]"})
def test_check_passes_exactly_what_runs(lines):
    # check and the command it vouches for (sweep for a scenario with a
    # sweep, else run) both exit 0, or both exit 1 with an error line
    given = {**PROTOCOL, "run.horizon": "3", **lines}
    text = GRID + "".join(f"{key} = {value}\n" for key, value in given.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            parse_scenario(path)
        except ScenarioError as exc:
            assert str(exc).startswith(path), str(exc)
        command = "sweep" if "sweep.parameter" in lines else "run"
        check = _main(["check", path])
        ran = _main([command, path, "--out", os.path.join(tmp, "out")])
    assert check[0] == ran[0], (text, check, ran)
    for code, err in (check, ran):
        assert code in (0, 1) and "Traceback" not in err
        assert (code == 1) == err.startswith("error: "), (text, err)


# --- the config records, fuzzed ---------------------------------------------

_ODD = (0, -1, float("nan"), float("inf"), float("-inf"), 2 ** 53 + 1, HUGE, LONG)
# each (record, field) the fuzzer may set to an odd value, with those values
_FIELDS = [
    *[("protocol", name, _ODD) for name in ("period_t", "epsilon", "sigma", "s_th", "c0",
                                             "init_listen_periods")],
    ("mrf", "refractory", _ODD), ("delay", "kind", ("gaussian",)),
    *[("delay", name, _ODD) for name in ("nu", "lo", "hi", "link_lo", "link_hi", "link_seed")],
    ("fault", "loss_probability", _ODD), ("fault", "airtime_beta", _ODD),
    ("drift", "skew_ppm_min", _ODD), ("drift", "skew_ppm_max", _ODD),
    ("churn", "action", ("explode",)), ("churn", "at_period", _ODD),
    ("run", "seed", _ODD), ("run", "payload_rate", _ODD),
]
_RECORDS = {"protocol": ProtocolConfig, "mrf": MrfConfig, "delay": DelayModel,
            "fault": LinkFaultModel, "drift": ClockDriftModel, "churn": ChurnEvent}


def _runnable(kind="none", adaptive_c=False, init_listen_periods=0, link_hi=None,
              collisions=False, odd=()) -> dict[str, dict]:
    """Field values of records that run, by delay kind and switch, with
    each (record, field, value) of odd set."""
    fields = {
        "protocol": {"period_t": 1000, "epsilon": 0.05, "sigma": 0.01, "s_th": 80.0,
                     "adaptive_c": adaptive_c, "init_listen_periods": init_listen_periods},
        "mrf": {"refractory": 500},
        "delay": {"kind": kind, "nu": 30 * (kind == "deterministic"),
                  "lo": 1 * (kind == "uniform"), "hi": 20 * (kind == "uniform"),
                  "link_hi": link_hi},
        "fault": {"loss_probability": 0.1, "collisions_enabled": collisions},
        "drift": {"skew_ppm_min": -100.0, "skew_ppm_max": 100.0},
        "churn": {"at_period": 1, "action": "leave", "node_id": 4},
        "run": {"seed": 3, "payload_rate": 0.5},
    }
    for record, name, value in odd:
        fields[record][name] = value
    return fields


@st.composite
def _records(draw) -> dict[str, dict]:
    """Runnable records with up to three fields set to an odd value."""
    odd = [(record, name, draw(st.sampled_from(values))) for record, name, values
           in draw(st.lists(st.sampled_from(_FIELDS), max_size=3, unique=True))]
    return _runnable(draw(st.sampled_from(("none", "deterministic", "uniform"))),
                     draw(st.booleans()), draw(st.sampled_from((0, 2))),
                     draw(st.sampled_from((None, 30))), draw(st.booleans()), odd)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_records(), st.booleans())
# no float holds these: they overflowed in the engine
@example(_runnable(odd=[("protocol", "period_t", HUGE)]), False)
@example(_runnable(adaptive_c=True, odd=[("protocol", "c0", HUGE)]), False)
def test_the_engine_runs_or_refuses_any_record(fields, baseline):
    # the records take any value; the Engine refuses with run_error's
    # message, or the run of two periods completes; build_report refuses
    # exactly what the Engine refuses, with the same message
    args = {name: make(**fields[name]) for name, make in _RECORDS.items()}
    args.update(churn=(args["churn"],), mrf=args["mrf"] if baseline else None,
                horizon=2, **fields["run"])
    spec = RunSpec(make_regular_grid(3, 3, False), **args)
    try:
        report = build_report(spec)
    except SimulationError as exc:
        assert str(exc) == run_error(spec)[1]
        with pytest.raises(SimulationError) as err:
            Engine(spec)
        assert str(err.value) == str(exc)
    else:
        assert isinstance(report, ParamReport)
        assert len(Engine(spec).run().series) == 2


# field values that a value rule would refuse, whatever the field
_REFUSED = (None, -1, 0, float("nan"), HUGE, "", object())


def test_only_the_topology_checks_in_its_constructor():
    # a value rule belongs in run_error, where the parser can name its key:
    # every record (a class with __slots__ of its own: each NamedTuple, built
    # with every field, and each slotted class, with every constructor
    # parameter) but Topology takes any value
    modules = [importlib.import_module(f"ebsim.{info.name}")
               for info in pkgutil.iter_modules(ebsim.__path__)]
    records = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__
               and "__slots__" in vars(obj)}
    assert {"ProtocolConfig", "MrfConfig", "DelayModel", "LinkFaultModel", "ClockDriftModel",
            "ChurnEvent", "RunSpec", "ScenarioConfig", "NodeState",
            "Topology"} <= {record.__name__ for record in records}
    checked = set()
    for record in records:
        count = (len(record._fields) if hasattr(record, "_fields")
                 else record.__init__.__code__.co_argcount - 1)  # all but self
        for value in _REFUSED:
            try:
                record(*[value] * count)
            except Exception:
                checked.add(record.__name__)
    assert checked == {"Topology"}
