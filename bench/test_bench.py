"""Tests of the benchmark harness itself (seconds, tiny sizes).

    python3 -m pytest bench/test_bench.py
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_self_check():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--self-check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("self-check ok")


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [False, True])
def test_wrong_pin_is_a_clean_failure(monkeypatch, trace):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    init = run.Session.__init__

    def with_wrong_pin(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.pin = "0" * 64
    monkeypatch.setattr(run.Session, "__init__", with_wrong_pin)
    with pytest.raises(run.Failure, match="differs from the pinned one"):
        run.run_workload("torus-delay", 1, 0, trace=trace, quick=True)
