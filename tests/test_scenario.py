import os
import re

import pytest

from ebsim.cli import main
from ebsim.protocol import Variant
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

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_minimal_defaults():
    cfg = parse_scenario_text(MINIMAL)
    assert cfg.horizon == 50 and cfg.seed == 0
    assert cfg.protocol.variant is Variant.NO_REACHBACK
    assert cfg.protocol.init_listen_periods == 5
    assert cfg.mrf is None and cfg.sweep is None and cfg.link_delay is None
    assert cfg.delay.kind == "none"
    assert not cfg.fault.collisions_enabled
    assert build_topology(cfg.topology).n == 9


def test_comments_and_blank_lines():
    cfg = parse_scenario_text("# header\n\n" + MINIMAL + "run.seed = 7 # eol\n")
    assert cfg.seed == 7


@pytest.mark.parametrize("line,fragment", [
    ("protocol.s_th = 120", "s_th"),
    ("nonsense = 1", "unknown key"),
    ("protocol.epsilon 0.05", "expected 'key = value'"),
    ("run.horizon = soon", "expected int"),
    ("sweep.values = [1, 2]", "sweep needs both"),
    ("delay.link_hi = -3", "link_lo <= link_hi"),
    ("churn.1 = vanish 3 at 9", "churn entry"),
    ("run.payload_rate = 7", "probability"),
    ("run.payload_rate = -0.5", "probability"),
    ("delay.link_seed = 4", "delay.link_hi"),
])
def test_parse_errors_name_the_problem(line, fragment):
    with pytest.raises(ScenarioError, match=fragment):
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
    assert cfg.sweep.parameter == "protocol.s_th"
    assert cfg.sweep.values == (20, 40, 60, 80, 95)
    points = [apply_override(cfg, cfg.sweep.parameter, v) for v in cfg.sweep.values]
    assert [p.protocol.s_th for p in points] == [20, 40, 60, 80, 95]


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ScenarioError, match="cannot sweep"):
        parse_scenario_text(MINIMAL + "sweep.parameter = topology.rows\n"
                                      "sweep.values = [3, 4]\n")


def test_churn_entries():
    cfg = parse_scenario_text(MINIMAL + "churn.1 = leave 4 at 5\n"
                                        "churn.2 = join 9 at 10 edges 0,2,6\n")
    assert cfg.churn[0].action == "leave" and cfg.churn[0].at_period == 5
    assert cfg.churn[1].edges == (0, 2, 6)


def test_link_delay_parsing_and_override():
    cfg = parse_scenario_text(MINIMAL + "delay.link_hi = 150\n"
                                        "delay.link_seed = 1000\n")
    assert cfg.link_delay == (0, 150, 1000)
    cfg2 = apply_override(cfg, "delay.link_hi", 300)
    assert cfg2.link_delay == (0, 300, 1000)
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
    cfg = parse_scenario_text(text)
    assert parse_scenario_text(resolved_text(cfg)) == cfg
    for name in sorted(os.listdir(SCENARIO_DIR)):
        cfg = parse_scenario(os.path.join(SCENARIO_DIR, name))
        assert parse_scenario_text(resolved_text(cfg)) == cfg, name


def test_sweep_values_are_typed_like_the_file():
    cfg = parse_scenario_text(MINIMAL + "sweep.parameter = fault.collisions\n"
                                        "sweep.values = [false, true]\n")
    points = [apply_override(cfg, cfg.sweep.parameter, v) for v in cfg.sweep.values]
    assert [p.fault.collisions_enabled for p in points] == [False, True]
    assert apply_override(cfg, "protocol.s_th", 20).protocol.s_th == 20.0


@pytest.mark.parametrize("parameter,value,fragment", [
    ("run.horizon", 0, "int >= 1"),
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
    path = _write(tmp_path, MINIMAL + "sweep.parameter = run.horizon\n"
                                      "sweep.values = [3, 0]\n")
    out = tmp_path / "out"
    assert main(["sweep", path, "--out", str(out)]) == 1
    assert "sweep point run.horizon = 0" in capsys.readouterr().err
    assert not out.exists()


def test_period_override_below_refractory_is_an_error():
    cfg = parse_scenario_text(MINIMAL + "mrf.enabled = true\nmrf.t_ref = 600\n")
    with pytest.raises(ScenarioError, match="sweep point protocol.period_t = 500"):
        apply_override(cfg, "protocol.period_t", 500)


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


def test_run_config_materializes_link_table():
    cfg = parse_scenario_text(MINIMAL + "delay.link_hi = 20\nrun.horizon = 3\n")
    res = run_config(cfg)
    assert res.stats["received"] > 0


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
    assert err.startswith("error: churn join of node 20 at period 2")
    assert "unknown node 99" in err and "Traceback" not in err
    assert os.listdir(out) == []


def test_cli_failed_sweep_leaves_no_outputs(tmp_path, capsys):
    # the first point runs and writes its CSV; the second fails in set-up
    path = _write(tmp_path, MINIMAL + "churn.1 = leave 4 at 3\n"
                                      "sweep.parameter = run.horizon\n"
                                      "sweep.values = [5, 2]\n")
    out = tmp_path / "out"
    assert main(["sweep", path, "--out", str(out)]) == 1
    assert "beyond the horizon" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_cli_check_counts_link_delays(capsys):
    assert main(["check", os.path.join(SCENARIO_DIR, "sth_sweep.txt")]) == 0
    assert "delta (nu/T)     = 0.005\n" in capsys.readouterr().out


def test_cli_identical_reruns_are_byte_identical(tmp_path):
    path = _write(tmp_path, MINIMAL + "run.horizon = 5\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(out_a)]) == 0
    assert main(["run", path, "--out", str(out_b)]) == 0
    assert (out_a / "ebs_seed0.csv").read_bytes() == (out_b / "ebs_seed0.csv").read_bytes()
