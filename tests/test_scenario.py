import os
import re
import subprocess
import sys

import pytest

from ebsim import cli, scenario
from ebsim.cli import main
from ebsim.protocol import MrfConfig, Variant
from ebsim.sim import RunSpec, SimulationError
from ebsim.topology import make_regular_grid
from ebsim.scenario import (KEYS, ScenarioError, apply_override, build_topology,
                            parse_scenario, parse_scenario_text,
                            resolved_text, run_config)

MINIMAL = """
topology.kind = grid
topology.rows = 3
topology.cols = 3
protocol.period_t = 1000
protocol.epsilon = 0.05
protocol.sigma = 0.01
protocol.s_th = 80
"""
WITHOUT_TOPOLOGY = MINIMAL.split("topology.cols = 3\n")[1]

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_minimal_defaults():
    cfg = parse_scenario_text(MINIMAL)
    assert cfg.horizon == 50 and cfg.seed == 0
    assert cfg.protocol.variant is Variant.NO_REACHBACK
    assert cfg.protocol.init_listen_periods == 5
    assert cfg.mrf is None and cfg.delay.link_hi is None
    assert "sweep.parameter" not in cfg.given and "sweep.values" not in cfg.given
    assert cfg.delay.kind == "none"
    assert not cfg.fault.collisions_enabled
    assert cfg.topology.n == 9


def test_comments_and_blank_lines():
    cfg = parse_scenario_text("# header\n\n" + MINIMAL + "run.seed = 7 # eol\n")
    assert cfg.seed == 7


@pytest.mark.parametrize("line,fragment", [
    ("protocol.s_th = 120", "s_th"),
    ("nonsense = 1", "unknown key"),
    ("protocol.epsilon 0.05", "expected 'key = value'"),
    ("run.horizon = soon", "expected int"),
    ("delay.link_hi = -3", "link_lo <= link_hi"),
    ("churn.1 = vanish 3 at 9", "churn entry"),
    # an indexed key is written key.N, N a positive integer, once each
    ("churn = leave 3 at 2", "^<string>:9: unknown key 'churn'$"),
    ("churn.foo = leave 3 at 2", "^<string>:9: unknown key 'churn.foo'$"),
    ("churn.0 = leave 3 at 2", "^<string>:9: unknown key 'churn.0'$"),
    ("churn.1 = leave 3 at 2\nchurn.1 = leave 4 at 2", "^<string>:10: duplicate key 'churn.1'$"),
    ("run.payload_rate = 7", "probability"),
    ("run.payload_rate = -0.5", "probability"),
    ("delay.link_seed = 4", "delay.link_hi"),
    ("mrf.enabled = true\nmrf.t_ref = 1000",
     "<string>:10: mrf refractory 1000 must be above 0 and below the protocol period 1000"),
    # a key that does not apply is refused, not silently dropped
    ("mrf.t_ref = 300", "<string>:9: mrf.t_ref does not apply"),
    ("topology.radius = 0.5", "<string>:9: topology.radius does not apply"),
    # the churn schedule is replayed on the built network at parse time
    ("churn.1 = leave 42 at 2",
     "<string>:9: churn leave of node 42 at period 2: node 42 does not exist"),
    ("churn.1 = leave 4 at 50",
     "<string>:9: churn leave of node 4 at period 50: beyond the horizon of 50"),
    ("churn.1 = leave 4 at 7\nchurn.2 = leave 4 at 5",
     "<string>:9: churn leave of node 4 at period 7: node 4 does not exist"),
    ("churn.1 = join 4 at 2 edges 1",
     "<string>:9: churn join of node 4 at period 2: node 4 already exists"),
    ("churn.1 = join -1 at 2 edges 3,4",
     "^<string>:9: churn join of node -1 at period 2: node ids must be non-negative$"),
    ("churn.1 = join 30 at 2 edges 30",
     "<string>:9: churn join of node 30 at period 2: self-loop at node 30"),
    ("churn.1 = join 30 at 2 edges 1,99",
     "<string>:9: churn join of node 30 at period 2: edge 30-99 references unknown node 99"),
    # a delay value the delay kind never reads
    ("delay.nu = 400", "<string>:9: delay nu = 400 needs kind 'deterministic', not 'none'"),
    ("delay.kind = deterministic\ndelay.nu = 5\ndelay.hi = 9",
     "<string>:11: delay hi = 9 needs kind 'uniform', not 'deterministic'"),
])
def test_parse_errors_name_the_problem(line, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario_text(MINIMAL + line + "\n")


def test_half_given_sweep_names_the_missing_key():
    # giving either sweep key switches both on, so the other is required
    for line, missing in (("sweep.values = [1, 2]", "sweep.parameter"),
                          ("sweep.parameter = run.seed", "sweep.values")):
        with pytest.raises(ScenarioError, match=f"^<string>: missing required key '{missing}'$"):
            parse_scenario_text(MINIMAL + line + "\n")


def test_error_reports_line_number():
    bad = MINIMAL + "run.horizon = soon\n"
    lineno = len(bad.splitlines())  # the appended line (MINIMAL opens blank)
    with pytest.raises(ScenarioError, match=f"<string>:{lineno}"):
        parse_scenario_text(bad)


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario_text(MINIMAL + "protocol.s_th = 70\n")


def test_missing_required_key():
    with pytest.raises(ScenarioError, match="protocol.sigma"):
        parse_scenario_text("topology.kind = complete\ntopology.n = 4\n"
                            "protocol.period_t = 1000\nprotocol.epsilon = 0.05\n"
                            "protocol.s_th = 80\n")


def test_sweep_plan():
    cfg = parse_scenario_text(
        MINIMAL + "sweep.parameter = protocol.s_th\n"
                  "sweep.values = [20, 40, 60, 80, 95]\n")
    assert cfg.given["sweep.parameter"] == "protocol.s_th"
    assert cfg.given["sweep.values"] == (20, 40, 60, 80, 95)
    points = [apply_override(cfg, "protocol.s_th", v) for v in cfg.given["sweep.values"]]
    assert [p.protocol.s_th for p in points] == [20, 40, 60, 80, 95]


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ScenarioError, match="cannot sweep"):
        parse_scenario_text(MINIMAL + "sweep.parameter = topology.rows\n"
                                      "sweep.values = [3, 4]\n")
    with pytest.raises(ScenarioError, match="^cannot sweep 'topology.rows'$"):
        apply_override(parse_scenario_text(MINIMAL), "topology.rows", 4)


def test_churn_entries():
    cfg = parse_scenario_text(MINIMAL + "churn.1 = leave 4 at 5\n"
                                        "churn.2 = join 9 at 10 edges 0,2,6\n")
    assert cfg.churn[0].action == "leave" and cfg.churn[0].at_period == 5
    assert cfg.churn[1].edges == (0, 2, 6)


def test_churn_join_accepts_duplicate_edges():
    # a repeated edge makes one link
    cfg = parse_scenario_text(MINIMAL + "churn.1 = join 30 at 2 edges 1,1,3\n"
                                        "run.horizon = 4\n")
    assert cfg.churn[0].edges == (1, 1, 3)
    assert 30 in run_config(cfg).final_nodes


def test_build_topology_calls_the_builder_through_the_module(monkeypatch):
    # a wrapper bound over the module global is the builder that runs
    from ebsim import scenario
    calls = []

    def counting(**kwargs):
        calls.append(kwargs)
        return make_regular_grid(**kwargs)
    monkeypatch.setattr(scenario, "make_regular_grid", counting)
    assert build_topology("grid", rows=3, cols=2, wraparound=False).n == 6
    assert calls == [{"rows": 3, "cols": 2, "wraparound": False}]
    # parsing builds the network once; sweep points and runs reuse it
    cfg = parse_scenario_text(MINIMAL + "run.horizon = 2\n")
    assert len(calls) == 2 and cfg.topology.n == 9
    point = apply_override(cfg, "run.seed", 4)
    run_config(point)
    assert len(calls) == 2 and point.topology is cfg.topology


@pytest.mark.parametrize("topology,message", [
    ("topology.kind = grid\ntopology.rows = 1\ntopology.cols = 3",
     "grid needs rows >= 2 and cols >= 2"),
    ("topology.kind = random_geometric\ntopology.n = 5\ntopology.radius = -1",
     "radius must be >= 0"),
    ("topology.kind = file\ntopology.path = /nonexistent/edges.txt",
     "No such file or directory"),
    ("topology.kind = complete\ntopology.n = 1",
     "the network has no links: no node can hear another"),
], ids=["grid_rows_1", "geometric_radius_negative", "file_missing", "complete_1"])
def test_topology_errors_name_the_kind_line(topology, message):
    # the network is built and checked at parse time, not when a run starts
    with pytest.raises(ScenarioError, match=f"^<string>:1: topology: .*{message}"):
        parse_scenario_text(topology + "\n" + WITHOUT_TOPOLOGY)


def test_unknown_topology_kind_is_refused_at_its_line():
    with pytest.raises(ScenarioError, match="^<string>:1: topology.kind: expected grid or "
                       "random_geometric or complete or file, got 'hexagon'$"):
        parse_scenario_text("topology.kind = hexagon\n" + WITHOUT_TOPOLOGY)


def test_a_bad_topology_file_is_refused_at_the_kind_line(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 x\n")
    text = f"topology.kind = file\ntopology.path = {edges}\n" + WITHOUT_TOPOLOGY
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert str(err.value) == f"<string>:1: topology: {edges}:2: node ids must be integers"


def test_a_node_count_too_long_to_read_is_refused_at_the_kind_line(tmp_path):
    # int() refuses more than 4,300 digits; that is a malformed directive
    edges = tmp_path / "edges.txt"
    edges.write_text(f"nodes {'9' * 5000}\n0 1\n")
    text = f"topology.kind = file\ntopology.path = {edges}\n" + WITHOUT_TOPOLOGY
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert str(err.value) == f"<string>:1: topology: {edges}:1: malformed 'nodes' directive"


def test_link_delay_parsing_and_override():
    cfg = parse_scenario_text(MINIMAL + "delay.link_hi = 150\n"
                                        "delay.link_seed = 1000\n")
    link = lambda c: (c.delay.link_lo, c.delay.link_hi, c.delay.link_seed)
    assert link(cfg) == (0, 150, 1000)
    cfg2 = apply_override(cfg, "delay.link_hi", 300)
    assert link(cfg2) == (0, 300, 1000)
    with pytest.raises(ScenarioError):
        apply_override(cfg, "delay.link_lo", 500)


def test_mrf_overrides_preserve_sleep_flag():
    cfg = parse_scenario_text(MINIMAL + "mrf.enabled = true\nmrf.sleep = false\n")
    assert not cfg.mrf.sleep_during_refractory
    cfg2 = apply_override(cfg, "mrf.t_ref", 300)
    assert cfg2.mrf.refractory == 300
    assert not cfg2.mrf.sleep_during_refractory
    cfg3 = apply_override(cfg, "protocol.period_t", 2000)
    assert not cfg3.mrf.sleep_during_refractory


def test_resolved_text_round_trips():
    text = (MINIMAL + "mrf.enabled = true\nmrf.sleep = false\n"
            "delay.link_hi = 150\ndelay.link_seed = 9\n"
            "churn.1 = leave 4 at 5\n"
            "sweep.parameter = protocol.sigma\nsweep.values = [0.001, 0.005]\n")
    # the echo builds the same run
    cfg = parse_scenario_text(text)
    assert parse_scenario_text(resolved_text(cfg)).spec == cfg.spec
    for name in sorted(os.listdir(SCENARIO_DIR)):
        cfg = parse_scenario(os.path.join(SCENARIO_DIR, name))
        assert parse_scenario_text(resolved_text(cfg)).spec == cfg.spec, name


def test_sweep_values_are_typed_like_the_file():
    cfg = parse_scenario_text(MINIMAL + "sweep.parameter = fault.collisions\n"
                                        "sweep.values = [false, true]\n")
    points = [apply_override(cfg, "fault.collisions", v) for v in cfg.given["sweep.values"]]
    assert [p.fault.collisions_enabled for p in points] == [False, True]
    assert apply_override(cfg, "protocol.s_th", 20).protocol.s_th == 20.0


@pytest.mark.parametrize("parameter,value,fragment", [
    ("run.horizon", 0, "horizon must be >= 1"),
    ("run.payload_rate", -1, "probability"),
    ("run.payload_rate", 1.5, "probability"),
    ("delay.nu", 2.5, "expected int"),
    ("fault.collisions", "maybe", "expected bool"),
    ("protocol.sigma", 1.0, "sigma"),
])
def test_sweep_points_are_validated(parameter, value, fragment):
    cfg = parse_scenario_text(MINIMAL)
    with pytest.raises(ScenarioError, match=fragment) as err:
        apply_override(cfg, parameter, value)
    assert f"sweep point {parameter} = {value}" in str(err.value)


def test_sweep_file_with_bad_point_fails_before_running(tmp_path, capsys):
    # a bad value, and a horizon that puts a churn entry past its end
    for churn, values, fragment in (
            ("", "[3, 0]", "sweep point run.horizon = 0"),
            ("churn.1 = leave 4 at 3\n", "[5, 2]", "error: sweep point run.horizon = 2: "
             "churn leave of node 4 at period 3: beyond the horizon of 2 periods")):
        path = _write(tmp_path, MINIMAL + churn + "sweep.parameter = run.horizon\n"
                                                  f"sweep.values = {values}\n")
        out = tmp_path / "out"
        assert main(["sweep", path, "--out", str(out)]) == 1
        assert fragment in capsys.readouterr().err
        assert not out.exists()


def test_period_override_below_refractory_is_an_error():
    cfg = parse_scenario_text(MINIMAL + "mrf.enabled = true\nmrf.t_ref = 600\n")
    with pytest.raises(ScenarioError, match="sweep point protocol.period_t = 500"):
        apply_override(cfg, "protocol.period_t", 500)


def test_the_keys_set_every_run_input_and_nothing_else():
    # each key sets a RunSpec field (a record's field through it) or none,
    # and every RunSpec field is set by some key: the topology by the
    # topology.* keys that build it
    heads = {spec.field.split(".")[0] for spec in KEYS.values() if spec.field}
    assert heads <= set(RunSpec._fields)
    assert set(RunSpec._fields) <= heads
    assert [key for key, spec in KEYS.items() if (spec.field or "").startswith("topology.")] == [
        key for key in KEYS if key.startswith("topology.")]


WITH_MRF = (MINIMAL.replace("period_t = 1000", "period_t = 10000")
            + "mrf.enabled = true\nrun.horizon = 2\n")


def test_sweep_points_resolve_defaults_from_the_written_keys():
    # mrf.t_ref is not written: each point's refractory is half its own period
    cfg = parse_scenario_text(WITH_MRF)
    assert cfg.mrf.refractory == 5000
    for period in (1000, 40000):
        point = apply_override(cfg, "protocol.period_t", period)
        assert point.mrf.refractory == period // 2
        assert f"mrf.t_ref = {period // 2}\n" in resolved_text(point)
    # switching the baseline off leaves no mrf.t_ref behind to refuse
    assert apply_override(cfg, "mrf.enabled", False).mrf is None
    assert "mrf.t_ref" not in cfg.given
    # the resolved echo writes every key, yet builds the same run
    assert parse_scenario_text(resolved_text(cfg)).spec == cfg.spec


def test_readme_key_table_matches_registry():
    with open(README, encoding="utf-8") as fh:
        rows = [line for line in fh if line.startswith("| `")]
    documented = set()
    for row in rows:
        for span in re.findall(r"`([^`]+)`", row.split("|")[1]):
            head, *rest = span.split("/")
            section = head.rsplit(".", 1)[0]
            documented |= {head} | {f"{section}.{name}" for name in rest}
    registry = {f"{key}.N" if spec.indexed else key for key, spec in KEYS.items()}
    assert documented == registry


def test_readme_names_the_size_of_all():
    import ebsim
    with open(README, encoding="utf-8") as fh:
        counts = re.findall(r"`ebsim\.__all__` holds the (\d+) names", fh.read())
    assert counts == [str(len(ebsim.__all__))]


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        examples = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert examples
    for example in examples:
        exec(compile(example, README, "exec"), {})


def test_run_config_materializes_link_table():
    cfg = parse_scenario_text(MINIMAL + "delay.link_hi = 20\nrun.horizon = 3\n")
    res = run_config(cfg)
    assert res.stats["received"] > 0


def test_run_config_rejects_unknown_or_disabled_scheme():
    cfg = parse_scenario_text(MINIMAL + "run.horizon = 3\n")
    with pytest.raises(ScenarioError, match="unknown scheme 'tdma'"):
        run_config(cfg, scheme="tdma")
    # without mrf.enabled there is no baseline to run (no silent T/2 default)
    with pytest.raises(ScenarioError, match="mrf.enabled"):
        run_config(cfg, scheme="mrf")
    cfg = parse_scenario_text(MINIMAL + "run.horizon = 3\nmrf.enabled = true\n")
    assert run_config(cfg, scheme="mrf").series[-1].duty_pct < 100.0


def test_parse_scenario_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        parse_scenario("/nonexistent/s.txt")


def test_shipped_scenarios_parse():
    for name in os.listdir(SCENARIO_DIR):
        parse_scenario(os.path.join(SCENARIO_DIR, name))


# --- CLI --------------------------------------------------------------------

def _write(tmp_path, text):
    p = tmp_path / "scenario.txt"
    p.write_text(text)
    return str(p)


def test_cli_run(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL + "run.horizon = 5\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--seed", "2"]) == 0
    assert (out / "ebs_seed2.csv").exists()
    assert (out / "summary.csv").exists()
    assert "run.seed = 2" in (out / "resolved-config.txt").read_text()
    assert "duty=" in capsys.readouterr().out


def test_cli_sweep(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL + "run.horizon = 5\n"
                  "sweep.parameter = protocol.sigma\n"
                  "sweep.values = [0.005, 0.01]\n")
    out = tmp_path / "out"
    assert main(["sweep", path, "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert "ebs_sigma=0.005_seed0.csv" in names
    assert "ebs_sigma=0.01_seed0.csv" in names
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3
    assert "protocol.sigma" in summary[1]


def test_cli_sweep_pool_writes_the_same_bytes(tmp_path, capsys):
    # two worker processes write every CSV, summary.csv and stdout exactly
    # as one process does
    path = _write(tmp_path, MINIMAL + "run.horizon = 5\n"
                  "sweep.parameter = run.seed\n"
                  "sweep.values = [0, 1, 2]\n")
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", path, "--out", str(out), "--jobs", jobs]) == 0
        files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        outputs.append((files, capsys.readouterr().out))
    assert len(outputs[0][0]) == 5  # three CSVs, summary.csv, resolved-config.txt
    assert outputs[0] == outputs[1]


def test_cli_sweep_pool_starts_no_more_workers_than_runs(tmp_path, capsys, monkeypatch):
    # --jobs 64 on a two-run sweep sizes the pool at 2; the stand-in pool
    # records its size and runs each task inline, so no process starts
    import concurrent.futures
    sizes = []

    class _InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    path = _write(tmp_path, MINIMAL + "run.horizon = 5\n"
                  "sweep.parameter = run.seed\n"
                  "sweep.values = [0, 1]\n")
    outputs = []
    for jobs in ("1", "64"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", path, "--out", str(out), "--jobs", jobs]) == 0
        files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        outputs.append((files, capsys.readouterr().out))
    assert sizes == [2]
    assert len(outputs[0][0]) == 4  # two CSVs, summary.csv, resolved-config.txt
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_the_pool_unloaded():
    # only --jobs > 1 loads the worker pool
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys, ebsim.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout == "False\n"


def test_import_loads_no_dataclasses_or_inspect():
    # every run, check and sweep child pays the import: dataclasses brings
    # inspect, ast, dis and tokenize, and its decorations exec source that
    # no .pyc keeps
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ebsim, ebsim.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout == "[]\n"


def test_runtime_imports_only_the_standard_library():
    # the package stays stdlib-only at runtime: importing it and its CLI, or
    # either experiment script that tier-1 judges claims through, in an
    # isolated interpreter loads no other top-level module
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    for modules in (["ebsim", "ebsim.cli"], ["claims"], ["stability_map"]):
        code = ("import sys; before = set(sys.modules); sys.path[:0] = sys.argv[1:]; "
                f"import {', '.join(modules)}; "
                "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
                " - set(sys.stdlib_module_names)))")
        proc = subprocess.run([sys.executable, "-I", "-c", code, os.path.join(root, "src"),
                               os.path.join(root, "experiments")],
                              capture_output=True, text=True, check=True, timeout=60)
        assert proc.stdout == f"{sorted({'ebsim', modules[0]})}\n"


def test_cli_sweep_requires_axis(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    assert main(["sweep", path, "--out", str(tmp_path / "o")]) == 1
    assert "no sweep.parameter" in capsys.readouterr().err


def test_cli_check_strict_exit(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL.replace("protocol.sigma = 0.01",
                                            "protocol.sigma = 0.2"))
    assert main(["check", path, "--strict"]) == 2
    assert "stable           = NO" in capsys.readouterr().out
    path = _write(tmp_path, MINIMAL)
    assert main(["check", path, "--strict"]) == 0
    path = _write(tmp_path, MINIMAL + "sweep.parameter = run.seed\nsweep.values = [1, 2]\n")
    assert main(["check", path, "--strict"]) == 0
    assert capsys.readouterr().err == ""
    # a stable base whose sweep reaches unstable points: --strict judges
    # every point, names the unstable ones and leaves stdout as it was
    path = os.path.join(SCENARIO_DIR, "delay_sweep.txt")
    assert main(["check", path]) == 0
    plain = capsys.readouterr()
    assert "stable           = yes" in plain.out and plain.err == ""
    assert main(["check", path, "--strict"]) == 2
    strict = capsys.readouterr()
    assert strict.out == plain.out
    assert strict.err == "".join(f"{path}: sweep point delay.nu = {nu} is unstable\n"
                                 for nu in (500, 1000))


def test_cli_parse_error_is_reported(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL + "protocol.s_th = 70\n")
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_cli_bad_churn_fails_cleanly(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL + "run.horizon = 5\n"
                                      "churn.1 = join 20 at 2 edges 0,99\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # the entry's file:line, from the replay at parse time
    assert err.startswith(f"error: {path}:10: churn join of node 20 at period 2")
    assert "unknown node 99" in err and "Traceback" not in err
    assert not out.exists()  # it failed before the output directory was made
    # check reads the same scenario, so it fails the same way
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == err


EDGELESS = "error: {}:1: topology: the network has no links: no node can hear another\n"


def test_cli_edgeless_network_fails_cleanly(tmp_path, capsys):
    path = _write(tmp_path, "topology.kind = complete\ntopology.n = 1\n" + WITHOUT_TOPOLOGY)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == EDGELESS.format(path)
    assert not out.exists()  # it failed before the output directory was made


def test_cli_check_edgeless_network_fails_like_run(tmp_path, capsys):
    # the report must describe a configuration that can run
    path = _write(tmp_path, "topology.kind = complete\ntopology.n = 1\n" + WITHOUT_TOPOLOGY)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == EDGELESS.format(path)
    assert captured.out == ""


def test_cli_check_caps_the_adaptive_window(tmp_path, capsys):
    # a budget of 600 * 2 * 100 / 100 = 1200 ticks exceeds T = 1000: the
    # window would be 0.6 of a period on each side
    path = _write(tmp_path, "topology.kind = complete\ntopology.n = 3\n"
                            + MINIMAL.split("topology.cols = 3\n")[1]
                            .replace("protocol.s_th = 80", "protocol.s_th = 100")
                            + "protocol.c0 = 600\nprotocol.adaptive_c = true\n")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "epsilon          = 0.5\n" in out
    assert "adaptive epsilon = 0.5..0.5 " in out
    assert ("warning: adaptive window capped at 0.5 on 3 of 3 nodes whose budget "
            "exceeds the period") in out
    # a window over the whole period leaves no phase to couple in, whatever
    # the closed-form bound says
    assert "stable           = NO\n" in out
    assert "sigma_max        = n/a\n" in out
    assert "stability margin = n/a\n" in out
    assert "warning: every window is 0.5, the whole period: no node can couple\n" in out
    assert main(["check", path, "--strict"]) == 2


def test_cli_check_has_no_seed_option(tmp_path, capsys):
    # check reads no seed, so it takes none; run and sweep keep theirs
    path = _write(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as exc:
        main(["check", path, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert main(["run", path, "--seed", "7", "--out", str(tmp_path / "o")]) == 0
    assert "ebs_seed7.csv" in os.listdir(tmp_path / "o")


def test_cli_failed_sweep_leaves_no_outputs(tmp_path, capsys, monkeypatch):
    # the first point runs and writes its CSV; the second fails in its run
    def second_fails(point, **kwargs):
        if point.horizon == 2:
            raise SimulationError("the run at horizon 2 failed")
        return run_config(point, **kwargs)

    monkeypatch.setattr(cli, "run_config", second_fails)
    path = _write(tmp_path, MINIMAL + "sweep.parameter = run.horizon\n"
                                      "sweep.values = [5, 2]\n")
    out = tmp_path / "out"
    assert main(["sweep", path, "--out", str(out)]) == 1
    assert "the run at horizon 2 failed" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_cli_check_counts_link_delays(capsys):
    assert main(["check", os.path.join(SCENARIO_DIR, "sth_sweep.txt")]) == 0
    assert "delta (nu/T)     = 0.005\n" in capsys.readouterr().out


@pytest.mark.parametrize("name,epsilon,widest", [
    # adaptive C widens the configured 0.001 to at least 240 / (2 * 30000)
    ("sth_sweep.txt", "0.004", "0.02267"),
    # the configured 0.0133 already exceeds the narrowest adaptive window
    ("mrf_compare.txt", "0.0133", "0.02267"),
])
def test_cli_check_judges_the_narrowest_adaptive_window(capsys, name, epsilon, widest):
    assert main(["check", os.path.join(SCENARIO_DIR, name)]) == 0
    out = capsys.readouterr().out
    assert f"epsilon          = {epsilon}\n" in out
    assert f"adaptive epsilon = {epsilon}..{widest} " in out


def test_cli_identical_reruns_are_byte_identical(tmp_path):
    path = _write(tmp_path, MINIMAL + "run.horizon = 5\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(out_a)]) == 0
    assert main(["run", path, "--out", str(out_b)]) == 0
    assert (out_a / "ebs_seed0.csv").read_bytes() == (out_b / "ebs_seed0.csv").read_bytes()


def test_cli_trace_adds_the_run_trace_and_keeps_every_other_byte(tmp_path, capsys):
    # --trace writes <csv stem>.trace.txt, the run's trace lines; every
    # other file holds the bytes a run without it writes
    path = _write(tmp_path, MINIMAL + "run.horizon = 5\n")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert main(["run", path, "--out", str(plain)]) == 0
    assert main(["run", path, "--out", str(traced), "--trace"]) == 0
    lines = (traced / "ebs_seed0.trace.txt").read_text().splitlines()
    assert lines == run_config(parse_scenario(path), trace=True).trace != []
    names = sorted(os.listdir(plain))
    assert names == ["ebs_seed0.csv", "resolved-config.txt", "summary.csv"]
    assert sorted(os.listdir(traced)) == sorted(names + ["ebs_seed0.trace.txt"])
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name


def test_cli_reports_a_runs_warnings_on_stderr(tmp_path, capsys):
    # every message lost: no node learns a neighbour, and each says so
    path = _write(tmp_path, MINIMAL + "run.horizon = 8\nfault.loss_probability = 1\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    warnings = run_config(parse_scenario(path)).warnings
    assert "node 0 has no known neighbours and cannot synchronize" in warnings
    assert capsys.readouterr().err == f"  warning: {'; '.join(warnings)}\n"


def _recorded_runs(monkeypatch):
    """The (scheme, period, mrf) of each run the CLI makes, in order."""
    runs = []

    def recording(point, **kwargs):
        runs.append((kwargs["scheme"], point.protocol.period_t, point.mrf))
        return run_config(point, **kwargs)
    monkeypatch.setattr(cli, "run_config", recording)
    return runs


def test_cli_sweep_of_the_period_moves_the_default_refractory(tmp_path, monkeypatch, capsys):
    runs = _recorded_runs(monkeypatch)
    path = _write(tmp_path, WITH_MRF + "sweep.parameter = protocol.period_t\n"
                                       "sweep.values = [1000, 40000]\n")
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 0
    assert runs == [("ebs", 1000, MrfConfig(500)), ("mrf", 1000, MrfConfig(500)),
                    ("ebs", 40000, MrfConfig(20000)), ("mrf", 40000, MrfConfig(20000))]
    # the echo is the scenario's own: its period and its default refractory
    echo = (tmp_path / "out" / "resolved-config.txt").read_text()
    assert "protocol.period_t = 10000\n" in echo and "mrf.t_ref = 5000\n" in echo


def test_cli_sweep_can_switch_the_baseline_off(tmp_path, monkeypatch, capsys):
    runs = _recorded_runs(monkeypatch)
    path = _write(tmp_path, WITH_MRF + "sweep.parameter = mrf.enabled\n"
                                       "sweep.values = [true, false]\n")
    out = tmp_path / "out"
    assert main(["sweep", path, "--out", str(out)]) == 0
    assert runs == [("ebs", 10000, MrfConfig(5000)), ("mrf", 10000, MrfConfig(5000)),
                    ("ebs", 10000, None)]
    assert sorted(os.listdir(out)) == [
        "ebs_enabled=false_seed0.csv", "ebs_enabled=true_seed0.csv",
        "mrf_enabled=true_seed0.csv", "resolved-config.txt", "summary.csv"]


def test_cli_builds_each_point_once(tmp_path, monkeypatch, capsys):
    builds = []
    build = scenario._build

    def counting(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)
    monkeypatch.setattr(scenario, "_build", counting)
    path = _write(tmp_path, MINIMAL + "run.horizon = 2\n")
    for argv, count in ((["run", path], 1), (["run", path, "--seed", "3"], 2)):
        builds.clear()
        assert main([*argv, "--out", str(tmp_path / "run")]) == 0
        assert len(builds) == count, argv
    path = _write(tmp_path, MINIMAL + "run.horizon = 2\nsweep.parameter = run.seed\n"
                                      "sweep.values = [0, 1, 2]\n")
    builds.clear()
    parse_scenario(path)  # parsing builds the scenario, not its points
    assert len(builds) == 1
    for argv in (["sweep", path, "--out", str(tmp_path / "sweep")], ["check", path]):
        builds.clear()
        assert main(argv) == 0
        assert len(builds) == 1 + 3, argv


def test_cli_check_fails_on_a_bad_sweep_point_like_sweep(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL + "sweep.parameter = run.horizon\n"
                                      "sweep.values = [3, 0]\n")
    out = tmp_path / "out"
    assert main(["sweep", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: sweep point run.horizon = 0: horizon must be >= 1 period\n"
    assert not out.exists()
    assert main(["check", path]) == 1
    assert capsys.readouterr() == ("", err)  # no report for a sweep that cannot run


def test_topology_path_is_relative_to_the_scenario_file(tmp_path, monkeypatch, capsys):
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
    _write(tmp_path, "topology.kind = file\ntopology.path = edges.txt\n"
                     + WITHOUT_TOPOLOGY + "run.horizon = 2\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    path = os.path.join(os.pardir, "scenario.txt")
    assert main(["check", path]) == 0
    assert "delta (nu/T)" in capsys.readouterr().out
    assert main(["run", path, "--out", "out"]) == 0
    # the echo names the file that was read
    echo = (elsewhere / "out" / "resolved-config.txt").read_text()
    assert f"topology.path = {tmp_path / 'edges.txt'}\n" in echo
    # text parsed on its own reads from the working directory, as before
    missing = re.escape(f"No such file or directory: '{elsewhere / 'edges.txt'}'")
    with pytest.raises(ScenarioError, match=missing):
        parse_scenario_text((tmp_path / "scenario.txt").read_text())
