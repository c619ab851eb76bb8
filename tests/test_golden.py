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
import os

import pytest

from ebsim import cli
from ebsim.protocol import MrfConfig, ProtocolConfig, Variant
from ebsim.scenario import apply_override, parse_scenario_text, run_config
from ebsim.sim import (ChurnEvent, ClockDriftModel, DelayModel, LinkFaultModel,
                       RunResult, run)
from ebsim.topology import make_random_geometric, make_regular_grid

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
# drift or payloads with partial reach-back, so these two configurations pin
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


# stats keys added after the digests were pinned: the message ledger's
# outcomes, which tests/test_sim.py checks sum to arrival_attempts
_UNPINNED_STATS = ("collided", "departed", "in_flight")


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
}


@pytest.mark.parametrize("config,seed", sorted(RNG_GOLDEN))
def test_rng_path_outputs_are_pinned(config, seed):
    build = {"torus": _rng_torus, "mrf": _rng_mrf}[config]
    assert _run_digest(build(seed)) == RNG_GOLDEN[config, seed]


def test_flaps_column_keeps_the_flaps_of_nodes_that_left():
    # node 12 flaps before it leaves at period 10; each row counts every
    # flap up to its sample tick
    res = _rng_torus(0)
    assert any(nid == 12 for _, nid in res.flap_events)
    assert [row.flaps for row in res.series] == [
        sum(t <= (row.period + 1) * 1000 for t, _ in res.flap_events) for row in res.series]


# --- the benchmark's configurations, at short horizons ----------------------
#
# The keys of the torus-delay and testbed-collide workloads in
# bench/workloads.py (the C4 torus at delta = 0.05; the 87-node testbed with
# per-link delays and collisions, as EBS and as the always-listening
# baseline), at two seeds and a short horizon, digested like the runs above.

_TORUS_DELAY = """\
topology.kind = grid
topology.rows = 5
topology.cols = 5
topology.wraparound = true
protocol.period_t = 10000
protocol.epsilon = 0.1
protocol.sigma = 0.01
protocol.s_th = 80
protocol.init_listen_periods = 0
delay.kind = deterministic
delay.nu = 500
run.horizon = 20
"""

_TESTBED_COLLIDE = """\
topology.kind = random_geometric
topology.n = 87
topology.radius = 0.320408
topology.seed = 7
protocol.period_t = 30000
protocol.epsilon = 0.0133
protocol.sigma = 0.002
protocol.s_th = 80
protocol.adaptive_c = true
protocol.c0 = 50
protocol.init_listen_periods = 0
mrf.enabled = true
mrf.t_ref = 15000
mrf.sleep = false
delay.link_lo = 0
delay.link_hi = 150
delay.link_seed = 1000
fault.collisions = true
fault.beta = 1
run.horizon = 5
"""

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
    text = {"torus-delay": _TORUS_DELAY, "testbed-collide": _TESTBED_COLLIDE}[workload]
    cfg = apply_override(parse_scenario_text(text), "run.seed", seed)
    result = run_config(cfg, scheme=scheme, trace=True)
    assert _run_digest(result) == BENCH_GOLDEN[workload, scheme, seed]
