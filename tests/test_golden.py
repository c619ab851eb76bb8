"""Golden outputs: every shipped scenario through the CLI, pinned by digest.

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
    assert sorted(os.listdir(SCENARIO_DIR)) == sorted(GOLDEN)
