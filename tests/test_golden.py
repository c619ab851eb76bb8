"""Golden outputs: every shipped scenario through the CLI, pinned by digest.

The ``check`` report of each shipped scenario is pinned by the digest of
its stdout.

Each digest covers the bytes of every file the CLI writes (per-run CSVs,
``summary.csv``, ``resolved-config.txt``) plus the fire times of every run,
read from ``run_config``'s results during the same invocation.  A change
that alters a single output byte fails here; one that means to alter
outputs re-pins the digests and says which bytes changed and why.

``sth_sweep.txt`` runs from a copy that keeps two of its five sweep values,
which keeps the suite fast.
"""

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

from ebsim import cli, sim
from ebsim.protocol import Mode, MrfConfig, ProtocolConfig, Variant
from ebsim.scenario import ScenarioConfig, parse_scenario_text, run_config
from ebsim.sim import (ChurnEvent, ClockDriftModel, DelayModel, EventKind,
                       LinkFaultModel, RunResult, run)
from ebsim.topology import make_random_geometric, make_regular_grid

from engine_steps import CountingHeap

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

GOLDEN = {
    "churn.txt":
        "b3078a06dabae6f4373c917dc4942d56fddc585a4216a5166310feba64543c1e",
    "convergence_sigma.txt":
        "fb0b8ee73f3721e41c5ad0301b8f5bf2aa3cf79e6bb82530c3ef6b753415ff03",
    "delay_sweep.txt":
        "b8f5562ecbd4133cf4b23f03ba440ad619ac3b1b02404f467717150fad21e71a",
    "mrf_compare.txt":
        "6b4b03a8c940a613cc4f4572b49cf3d79529af26df83285d14b8a6e1824886c9",
    "sth_sweep.txt":
        "9f455c4027452a23c365e515434e47805383ed8727ddfcffc73420b887481e25",
}

# sth_sweep.txt keeps these two of its five values
STH_VALUES = "sweep.values = [20, 95]"


def _scenario(name: str, tmp_path) -> str:
    path = os.path.join(SCENARIO_DIR, name)
    if name != "sth_sweep.txt":
        return path
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert "sweep.values = [20, 40, 60, 80, 95]" in text
    copy = tmp_path / name
    copy.write_text(text.replace("sweep.values = [20, 40, 60, 80, 95]", STH_VALUES))
    return str(copy)


def _digest(name: str, tmp_path, monkeypatch) -> str:
    fires = []
    run_config = cli.run_config

    def recording(*args, **kwargs):
        result = run_config(*args, **kwargs)
        fires.append("".join(f"{nid}:{' '.join(map(str, ts))}\n"
                             for nid, ts in sorted(result.fire_times.items())))
        return result
    monkeypatch.setattr(cli, "run_config", recording)

    path = _scenario(name, tmp_path)
    with open(path, encoding="utf-8") as fh:
        command = "sweep" if "sweep.parameter" in fh.read() else "run"
    out = tmp_path / "out"
    assert cli.main([command, path, "--out", str(out)]) == 0
    h = hashlib.sha256()
    for entry in sorted(os.listdir(out)):
        h.update(entry.encode() + b"\0" + (out / entry).read_bytes())
    for text in fires:
        h.update(text.encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_outputs_are_pinned(name, tmp_path, monkeypatch, capsys):
    assert _digest(name, tmp_path, monkeypatch) == GOLDEN[name]


# the CPython versions the package supports
INTERPRETERS = ("python3.10", "python3.11", "python3.12", "python3.13")


def _other_interpreters() -> list[str]:
    """Each supported CPython on PATH that starts and is not this one's version."""
    other = ("import sys; print(sys.implementation.name == 'cpython' "
             f"and sys.version_info[:2] != {tuple(sys.version_info[:2])})")
    found = []
    for name in INTERPRETERS:
        if (path := shutil.which(name)) is None:
            continue
        try:  # a pyenv shim without that version installed exits non-zero
            probe = subprocess.run([path, "-c", other], capture_output=True, text=True,
                                   timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip() == "True":
            found.append(path)
    return found


def _cli_outputs(python: str, out) -> dict[str, bytes]:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run([python, "-m", "ebsim.cli", "run", os.path.join(SCENARIO_DIR, "churn.txt"),
                    "--out", str(out)], env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
                   capture_output=True, check=True, timeout=120)
    return {entry: (out / entry).read_bytes() for entry in sorted(os.listdir(out))}


def test_other_interpreters_write_the_same_bytes(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other supported CPython starts from PATH")
    expected = _cli_outputs(sys.executable, tmp_path / "this")
    for i, python in enumerate(others):
        outputs = _cli_outputs(python, tmp_path / f"other{i}")
        assert sorted(outputs) == sorted(expected), python
        for entry, data in expected.items():
            assert outputs[entry] == data, f"{python} wrote other bytes to {entry}"


def test_every_shipped_scenario_is_pinned():
    assert sorted(os.listdir(SCENARIO_DIR)) == sorted(GOLDEN) == sorted(CHECK_GOLDEN)


CHECK_GOLDEN = {
    "churn.txt":
        "0ae00f98cb9559f8005741e4c297e798c8f40b8fa364c286f9966ee6fd7e5f86",
    "convergence_sigma.txt":
        "b16f867a4b23fda7ed2c161874b35bb19090fe99aaabf18bf59e93b35b7a55d0",
    "delay_sweep.txt":
        "052419bc3c2758fd8ceb213f32b93eee58ae2d2f3fc0e0e370dab0bfbf42b9ef",
    "mrf_compare.txt":
        "f4f01ce29f4db69bf024b37068d2c610b93cf197e0df616b24536396898c6146",
    "sth_sweep.txt":
        "13b6e4f1886b2f4a5d9de679267e0e2451d293a3e16c07bab75f7bd6aa10f1e3",
}


@pytest.mark.parametrize("name", sorted(CHECK_GOLDEN))
def test_check_report_is_pinned(name, capsys):
    assert cli.main(["check", os.path.join(SCENARIO_DIR, name)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_GOLDEN[name]


# --- library runs through the engine's random paths ------------------------
#
# No shipped scenario draws loss, uniform jitter, link offsets, collisions,
# drift or payloads with partial reach-back, so these configurations pin
# those paths: each digest covers the trace, the series rows, fire times,
# stats, flap events and warnings of one library run.

def _rng_torus(seed: int) -> RunResult:
    cfg = ProtocolConfig(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80.0,
                         variant=Variant.PARTIAL_REACHBACK, init_listen_periods=2)
    churn = (ChurnEvent(10, "leave", 12), ChurnEvent(20, "join", 25, (7, 11, 13, 17)))
    return run(make_regular_grid(5, 5, True), cfg, horizon=30, seed=seed,
               delay=DelayModel(kind="uniform", lo=0, hi=30,
                                link_lo=0, link_hi=20, link_seed=3),
               fault=LinkFaultModel(loss_probability=0.1, collisions_enabled=True,
                                    airtime_beta=3),
               drift=ClockDriftModel(-50, 50), churn=churn,
               payload_rate=0.5, trace=True)


def _rng_mrf(seed: int) -> RunResult:
    cfg = ProtocolConfig(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80.0)
    return run(make_random_geometric(30, 0.35, 2), cfg, mrf=MrfConfig(500),
               horizon=30, seed=seed, delay=DelayModel(kind="deterministic", nu=40),
               fault=LinkFaultModel(loss_probability=0.05), trace=True)


# The engine decides some things once per run: whether it draws loss, draws
# a payload or takes it as certain, and adapts the window; the runs above
# all draw loss or collide.  These three pin the lossless paths without
# collisions: adaptive C with drawn jitter and a payload rate inside (0, 1);
# the no-reachback protocol at payload rate 0, whose nodes fire regardless;
# and the always-listening baseline at rate 0.

def _rng_adaptive(seed: int) -> RunResult:
    cfg = ProtocolConfig(period_t=2000, epsilon=0.05, sigma=0.01, s_th=80.0, c0=200,
                         variant=Variant.PARTIAL_REACHBACK, adaptive_c=True,
                         init_listen_periods=2)
    churn = (ChurnEvent(8, "leave", 4), ChurnEvent(12, "join", 30, (1, 2, 3)))
    return run(make_random_geometric(30, 0.35, 2), cfg, horizon=30, seed=seed,
               delay=DelayModel(kind="uniform", lo=0, hi=20),
               drift=ClockDriftModel(-50, 50), churn=churn, payload_rate=0.3, trace=True)


def _rng_silent(seed: int) -> RunResult:
    cfg = ProtocolConfig(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80.0,
                         init_listen_periods=1)
    return run(make_regular_grid(5, 5, True), cfg, horizon=30, seed=seed,
               delay=DelayModel(kind="uniform", lo=0, hi=30),
               churn=(ChurnEvent(10, "join", 25, (0, 6, 12)),), payload_rate=0.0, trace=True)


def _rng_listening(seed: int) -> RunResult:
    cfg = ProtocolConfig(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80.0)
    return run(make_regular_grid(5, 5, True), cfg,
               mrf=MrfConfig(400, sleep_during_refractory=False), horizon=30, seed=seed,
               delay=DelayModel(kind="uniform", lo=0, hi=10, link_lo=0, link_hi=40,
                                link_seed=5),
               churn=(ChurnEvent(10, "join", 25, (0, 6, 12)),), payload_rate=0.0, trace=True)


_RNG_RUNS = {"torus": _rng_torus, "mrf": _rng_mrf, "adaptive": _rng_adaptive,
             "silent": _rng_silent, "listening": _rng_listening}


# stats keys added after the digests were pinned: the message ledger's
# outcomes, which tests/test_sim.py checks sum to arrival_attempts; LEDGER
# pins them per run
_UNPINNED_STATS = ("collided", "departed", "in_flight")

# (collided, departed, in_flight) of each run pinned by RNG_GOLDEN or BENCH_GOLDEN
LEDGER = {
    ("torus", 0): (112, 0, 4),
    ("torus", 1): (112, 0, 0),
    ("mrf", 0): (0, 0, 0),
    ("mrf", 1): (0, 0, 0),
    ("adaptive", 0): (0, 0, 5),
    ("adaptive", 1): (0, 0, 2),
    ("silent", 0): (0, 0, 0),
    ("silent", 1): (0, 0, 0),
    ("listening", 0): (0, 0, 0),
    ("listening", 1): (0, 0, 0),
    ("testbed-collide", "ebs", 0): (661, 0, 0),
    ("testbed-collide", "ebs", 1): (840, 0, 0),
    ("testbed-collide", "mrf", 0): (863, 0, 0),
    ("testbed-collide", "mrf", 1): (1041, 0, 0),
    ("torus-delay", "ebs", 0): (0, 0, 36),
    ("torus-delay", "ebs", 1): (0, 0, 48),
}


def _ledger(result: RunResult) -> tuple[int, ...]:
    return tuple(result.stats[key] for key in _UNPINNED_STATS)


def _run_digest(result: RunResult) -> str:
    h = hashlib.sha256()
    for part in ("\n".join(result.trace or ()),
                 "\n".join(repr(tuple(row)) for row in result.series),
                 repr(sorted(result.fire_times.items())),
                 repr(sorted((k, v) for k, v in result.stats.items()
                             if k not in _UNPINNED_STATS)),
                 repr(result.flap_events),
                 repr(result.warnings)):
        h.update(part.encode() + b"\0")
    return h.hexdigest()


RNG_GOLDEN = {
    # re-pinned when flaps began counting node 12's flaps after it leaves
    ("torus", 0):
        "5b57ab760e6cb4aa7bf50371a6a75b51b62e8a1b58ae18315efe1d380dbcfa80",
    ("torus", 1):
        "24f950ad6af91805e06b77b5c55071125fd1970850ad1d2780761da91d2019f8",
    ("mrf", 0):
        "5bd3c2167dc3b07a802ffaef8ba1d9e421c642b9ea770605192268e4a499e986",
    ("mrf", 1):
        "1ab6d32497a3272b3cf5b30e30544927ecbe99b2c70f8baaa87288d7b01edba8",
    # re-pinned when the "no known neighbours" warning came to name the
    # nodes that end the run synchronizing with an estimate of 0, once the
    # run is over: seed 0 now warns node 28 (never warned before) and no
    # longer nodes 22 and 30, which end steady or synchronizing with
    # estimates 1 and 2; seed 1 warns no node, where it warned nodes 14, 5
    # and 1, which end synchronizing with estimates 1, 2 and 2.  Digested
    # without warnings, both runs read as before
    ("adaptive", 0):
        "0c89d6eb4f833f6d6b38723a99febf6599b53630e2e9127923d07f90edc2110d",
    ("adaptive", 1):
        "0052834e97404bb3edf2568fda3f65560734bf775f2da58f1923d52102f1f021",
    ("silent", 0):
        "da7d991daa27f8a76b126a10a1e25efdfb882d9de3f4b00723495729e7a3a224",
    ("silent", 1):
        "38243e3dba8821db3c49bb3b9ddba9cb732f44bbdb4f13e9948c154761fe70b5",
    ("listening", 0):
        "e44a7695fa9ce082c040ba00f37b74d46aa3ef42a268e232767d05c228a3cd73",
    ("listening", 1):
        "d0b6578f9f2c4c795635fa69e45a2d075e4c6211bdb58d980606d50408e583da",
}


@pytest.mark.parametrize("config,seed", sorted(RNG_GOLDEN))
def test_rng_path_outputs_are_pinned(config, seed):
    result = _RNG_RUNS[config](seed)
    assert _run_digest(result) == RNG_GOLDEN[config, seed]
    assert _ledger(result) == LEDGER[config, seed]


def test_flaps_column_keeps_the_flaps_of_nodes_that_left():
    # node 12 flaps before it leaves at period 10; each row counts every
    # flap up to its sample tick
    res = _rng_torus(0)
    assert any(nid == 12 for _, nid in res.flap_events)
    assert [row.flaps for row in res.series] == [
        sum(t <= (row.period + 1) * 1000 for t, _ in res.flap_events) for row in res.series]


def test_no_neighbour_warning_names_the_nodes_that_end_without_one():
    # once per EBS node that ends the run synchronizing with an estimate of
    # 0, in node-id order, whatever it went through before
    for seed, warned in ((0, [28]), (1, [])):
        res = _rng_adaptive(seed)
        assert [nid for nid, node in sorted(res.final_nodes.items())
                if node.mode is Mode.SYNCHRONIZATION and node.neighbor_count_estimate == 0] == warned
        assert res.warnings == [f"node {nid} has no known neighbours and cannot synchronize"
                                for nid in warned]
    # the baseline's nodes synchronize with an estimate of 0 and are not warned
    assert _rng_mrf(0).warnings == []


# --- the benchmark's configurations, at short horizons ----------------------
#
# The keys of the torus-delay and testbed-collide workloads in
# bench/workloads.py (the C4 torus at delta = 0.05; the 87-node testbed with
# per-link delays and collisions, as EBS and as the always-listening
# baseline), at two seeds and a short horizon, digested like the runs above.

def _load_workloads():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    # registered first: its dataclasses look their module up by name
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
BENCH_HORIZON = {"torus-delay": 20, "testbed-collide": 5}


def _bench_config(workload: str, seed: int) -> ScenarioConfig:
    keys = {**dict(WORKLOADS[workload].keys), "run.horizon": BENCH_HORIZON[workload],
            "run.seed": seed}
    return parse_scenario_text("".join(f"{key} = {value}\n" for key, value in keys.items()))


BENCH_GOLDEN = {
    ("testbed-collide", "ebs", 0):
        "264ea6e598d1c4a5ae52f65cbfd46b0eafbff19d883e4a9690b242a13476fc54",
    ("testbed-collide", "ebs", 1):
        "e59ad509ed40ff79727e27bc4ea9df0ade41637eb8b7d798e2c345b035542992",
    ("testbed-collide", "mrf", 0):
        "5281a0ae691676db79ca02573145a0ff709b4f2d2ae19956daef3b1b1816965b",
    ("testbed-collide", "mrf", 1):
        "b068d9076f0efa5e7351ccdb0d359185aa8b5d1544d2e69ab32c0c0d0c11f3ca",
    ("torus-delay", "ebs", 0):
        "1ebcd279c763ec2bb9d2f37c17d42fab16d0c411251bc6dd55b56e7684ad2ae3",
    ("torus-delay", "ebs", 1):
        "d1cf46a8ed27c01b0bd6b3e8565b304109c325ba67fbfb590ae86125eca85976",
}


@pytest.mark.parametrize("workload,scheme,seed", sorted(BENCH_GOLDEN))
def test_bench_configurations_are_pinned(workload, scheme, seed):
    result = run_config(_bench_config(workload, seed), scheme=scheme, trace=True)
    assert _run_digest(result) == BENCH_GOLDEN[workload, scheme, seed]
    assert _ledger(result) == LEDGER[workload, scheme, seed]


# --- the heap traffic of those runs -----------------------------------------
#
# bench/run.py --trace 1 rebinds ebsim.sim.heapq to a counting heap and
# reconciles its counts with the run's outputs, so an engine change that
# means to keep the heap traffic keeps every count below: pushes and pops by
# event kind, stale FIRE pops (entries that fire nothing: the node left, the
# entry is not the one due at its next_fire, or it lies past the horizon)
# and the heap's high-water mark.

HEAP_TRAFFIC = {
    ("testbed-collide", "ebs", 0): {
        "pushes": {"ARRIVAL": 10440, "FIRE": 714, "SAMPLE": 5},
        "pops": {"ARRIVAL": 10440, "FIRE": 628, "SAMPLE": 5},
        "stale_fire_pops": 102, "heap_peak": 1044},
    ("testbed-collide", "ebs", 1): {
        "pushes": {"ARRIVAL": 8660, "FIRE": 607, "SAMPLE": 5},
        "pops": {"ARRIVAL": 8660, "FIRE": 521, "SAMPLE": 5},
        "stale_fire_pops": 86, "heap_peak": 1052},
    ("testbed-collide", "mrf", 0): {
        "pushes": {"ARRIVAL": 9387, "FIRE": 676, "SAMPLE": 5},
        "pops": {"ARRIVAL": 9387, "FIRE": 590, "SAMPLE": 5},
        "stale_fire_pops": 119, "heap_peak": 1116},
    ("testbed-collide", "mrf", 1): {
        "pushes": {"ARRIVAL": 9515, "FIRE": 688, "SAMPLE": 5},
        "pops": {"ARRIVAL": 9515, "FIRE": 602, "SAMPLE": 5},
        "stale_fire_pops": 126, "heap_peak": 1090},
    ("torus-delay", "ebs", 0): {
        "pushes": {"ARRIVAL": 14528, "FIRE": 4098, "SAMPLE": 20},
        "pops": {"ARRIVAL": 14493, "FIRE": 4073, "SAMPLE": 20},
        "stale_fire_pops": 441, "heap_peak": 86},
    ("torus-delay", "ebs", 1): {
        "pushes": {"ARRIVAL": 15176, "FIRE": 4282, "SAMPLE": 20},
        "pops": {"ARRIVAL": 15129, "FIRE": 4257, "SAMPLE": 20},
        "stale_fire_pops": 463, "heap_peak": 78},
}


@pytest.mark.parametrize("workload,scheme,seed", sorted(BENCH_GOLDEN))
def test_bench_configurations_keep_their_heap_traffic(workload, scheme, seed, monkeypatch):
    counting = CountingHeap()
    monkeypatch.setattr(sim, "heapq", counting)
    init = sim.Engine.__init__

    def engine_init(engine, *args, **kwargs):
        counting.engine = engine
        init(engine, *args, **kwargs)
    monkeypatch.setattr(sim.Engine, "__init__", engine_init)
    run_config(_bench_config(workload, seed), scheme=scheme)

    def by_kind(counts):
        return {EventKind(kind).name: n for kind, n in sorted(counts.items())}
    assert {"pushes": by_kind(counting.pushes), "pops": by_kind(counting.pops),
            "stale_fire_pops": counting.stale_fire_pops,
            "heap_peak": counting.peak} == HEAP_TRAFFIC[workload, scheme, seed]
