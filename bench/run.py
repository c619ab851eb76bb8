"""ebsim benchmark harness.

    python3 bench/run.py --workload torus-delay --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seconds 36      # every workload, one table
    python3 bench/run.py --self-check                     # tiny sizes, whole path
    python3 bench/run.py --workload W --update-pins       # re-pin output digests

Run from the root of a checkout.  The harness imports nothing from ebsim:
every repetition is a fresh child process (``bench/child.py`` or
``python -m ebsim.cli``) with ``PYTHONPATH=src``, run one at a time, single
threaded.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separately traced child.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See
bench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = BENCH / "pins.json"
TMP = ROOT / ".bench_tmp"

SETUPS_PER_REP = 4      # fresh set-up children before each repetition
MIN_REPS = 3            # repetitions per run even when --seconds is short
CHILD_TIMEOUT = 150.0   # seconds before a child is killed and counted as failed


class Failure(Exception):
    """The program cannot be run at all; no result is printed."""


def median(values):
    return statistics.median(values) if values else None


class Session:
    """One workload at one seed: spawns children, checks outputs, keeps
    the samples."""

    def __init__(self, workload: Workload, seed: int, quick: bool, tmp: Path,
                 use_pins: bool) -> None:
        self.w = workload
        self.quick = quick
        self.tmp = tmp
        self.scenario = tmp / f"{workload.name}.txt"
        self.scenario.write_text(workload.scenario_text(seed, quick), encoding="utf-8")
        self.seeds = ",".join(map(str, workload.run_seeds(seed, quick)))
        # bytecode is cached as for an installed package; warm_up() writes it
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.expected: dict[str, str] | None = None   # per-run digests of the first repetition
        self.pin = None
        if use_pins and seed == DEFAULT_SEED and not quick and PINS.exists():
            self.pin = json.loads(PINS.read_text(encoding="utf-8")).get(workload.name)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._n = 0

    # -- children ------------------------------------------------------

    def _spawn(self, argv: list[str]) -> dict:
        """Run one child to completion: wall seconds, peak RSS, exit code."""
        self._n += 1
        err_path = self.tmp / f"stderr{self._n}.txt"
        with open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            lock, exited = threading.Lock(), []

            def kill_if_running() -> None:
                with lock:
                    if not exited:
                        proc.kill()
            watchdog = threading.Timer(CHILD_TIMEOUT, kill_if_running)
            watchdog.start()
            # wait without reaping, so the watchdog can never signal a
            # recycled pid; then reap for the child's resource usage
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.monotonic() - t0
            except BaseException:
                proc.kill()  # interrupted: stop the child before leaving
                raise
            finally:
                with lock:
                    exited.append(True)
                watchdog.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
        err_path.unlink()
        return {"t0": t0, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "code": proc.returncode, "stderr": stderr}

    def _child(self, mode: str, out: Path) -> dict:
        result_path = self.tmp / "result.json"
        res = self._spawn([sys.executable, str(BENCH / "child.py"), mode,
                           str(self.scenario), "--entry", self.w.entry,
                           "--seeds", self.seeds, "--out", str(out),
                           "--result", str(result_path)])
        if res["code"] == 0:
            res["data"] = json.loads(result_path.read_text(encoding="utf-8"))
            result_path.unlink()
        return res

    def _cli(self, out: Path) -> dict:
        return self._spawn([sys.executable, "-m", "ebsim.cli", "sweep",
                            str(self.scenario), "--out", str(out), "--jobs", "1"])

    def _out_dir(self) -> Path:
        out = self.tmp / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        return out

    def _record(self, res: dict, what: str, out: Path | None = None) -> bool:
        """Count one attempted child; check its exit code and outputs."""
        self.attempted += 1
        ok = res["code"] == 0
        if not ok:
            last = res["stderr"].splitlines()[-1:] or ["(no stderr)"]
            self.notes.append(f"{what}: exit {res['code']}: {last[0]}")
        elif out is not None:
            digests = digest_dir(out)
            if not digests:
                ok = False
                self.notes.append(f"{what}: wrote no output")
            elif self.pin and combined_digest(digests) != self.pin:
                ok = False
                self.notes.append(f"{what}: output digest differs from the pinned one")
            if self.expected is None:
                if ok:
                    self.expected = digests
            elif digests != self.expected:
                ok = False
                bad = sorted(k for k in self.expected.keys() | digests.keys()
                             if self.expected.get(k) != digests.get(k))
                self.notes.append(f"{what}: output digest differs from the first "
                                  f"repetition's for {', '.join(bad[:5])}")
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        self.failed += not ok
        res["ok"] = ok
        return ok

    def warm_up(self) -> None:
        """One untimed set-up child: compiles bytecode and proves the
        program starts at all."""
        res = self._child("setup", self._out_dir())
        if res["code"] != 0:
            raise Failure(f"{self.w.name}: the program does not start:\n{res['stderr']}")

    def setup_sample(self) -> float | None:
        res = self._child("setup", self._out_dir())
        if not self._record(res, "setup"):
            return None
        return res["data"]["ready"] - res["t0"]

    def rep(self, mode: str) -> dict:
        """One repetition with output check.  mode "plain" is the untraced
        end-to-end run: ``python -m ebsim.cli`` itself for the CLI workload,
        the untraced library child otherwise.  "run" and "trace" are the
        in-process child's untraced (timer around Engine.run only) and
        traced modes."""
        out = self._out_dir()
        if mode == "plain":
            res = self._cli(out) if self.w.entry == "cli" else self._child("run", out)
        else:
            res = self._child(mode, out)
        self._record(res, f"{mode} repetition", out)
        return res


def digest_dir(out: Path) -> dict[str, str]:
    """SHA-256 per run: the bytes of every output file sharing a stem
    (``ebs_seed0.csv`` + ``ebs_seed0.fires``; ``summary.csv``), in name
    order."""
    groups = defaultdict(hashlib.sha256)
    for path in sorted(out.iterdir()):
        groups[path.name.split(".", 1)[0]].update(path.read_bytes())
    return {stem: h.hexdigest() for stem, h in sorted(groups.items())}


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(digests.items()))
                          .encode()).hexdigest()


# -- end-to-end ----------------------------------------------------------

def measure_end_to_end(s: Session, seconds: float) -> dict:
    s.warm_up()
    start = time.monotonic()
    setups, reps = [], []
    min_reps = 2 if s.quick else MIN_REPS
    # set-up samples are spread over the whole run, so that their median and
    # the wall_s median see the same stretch of host speed
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        for _ in range(1 if s.quick else SETUPS_PER_REP):
            x = s.setup_sample()
            if x is not None:
                setups.append(x)
        reps.append(s.rep("plain"))
        if len(reps) >= 2 and not any(r["ok"] for r in reps):
            break
    good = [r for r in reps if r["ok"]]
    if not good or not setups:
        raise Failure(f"{s.w.name}: no repetition succeeded: " + "; ".join(s.notes))
    walls = [r["wall_s"] for r in good]
    print(f"  wall_s samples: {' '.join(f'{x:.4f}' for x in walls)}")
    print(f"  setup_s samples: {' '.join(f'{x:.4f}' for x in setups)}")
    return {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["rss_mb"] for r in good]), "MiB"),
        "failed_run_share": (s.failed / s.attempted, "fraction"),
    }


# -- per layer -------------------------------------------------------------

KINDS = ("fire", "arrival", "rx_commit", "sample", "churn")


def layer_metrics(t: dict, engine_run_s: float, overhead_s: float,
                  untraced_wall: float, heap_trusted: bool) -> dict:
    """Per-layer metrics of one traced repetition.  Heap-derived counts are
    None (unavailable) when the counting heap saw no calls or its counts
    failed the reconciliation."""
    spans, heap, runs = t["spans"], t["heap"], t["runs"]

    def sp(name: str, field: str = "incl_s") -> float:
        return spans.get(name, {}).get(field, 0)

    def layer_self(prefix: str) -> float:
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix))

    def layer_outer(prefix: str) -> float:
        return sum(v["outer_s"] for k, v in spans.items() if k.startswith(prefix))

    stats = defaultdict(int)
    for r in runs:
        for k, v in r["stats"].items():
            stats[k] += v
    heap_seen = heap_trusted and any(rec["pushes"] for rec in heap)
    pops = {k: sum(rec["pops"].get(k, 0) for rec in heap) for k in KINDS}
    total_pops = sum(sum(rec["pops"].values()) for rec in heap)
    stale = (sum(rec["stale_fire_pops"] for rec in heap)
             if all(rec["stale_known"] for rec in heap) else None)
    node_periods = sum(r["node_periods"] for r in runs)

    def heap_only(value):
        return value if heap_seen else None

    m = {
        "sim.run_s": (sp("sim.Engine.run"), "s"),
        "sim.self_s": (sp("sim.Engine.run", "self_s"), "s"),
        **{f"sim.pops.{k}": (heap_only(pops[k]), "count") for k in KINDS},
        "sim.pushes": (heap_only(sum(sum(rec["pushes"].values()) for rec in heap)), "count"),
        "sim.heap_peak": (heap_only(max((rec["heap_peak"] for rec in heap), default=0)), "count"),
        "sim.stale_fire_pops": (heap_only(stale), "count"),
        "sim.fire_useful_ratio": (heap_only(
            (pops["fire"] - stale) / pops["fire"] if stale is not None and pops["fire"]
            else None), "ratio"),
        "sim.rx_useful_ratio": (stats["received"] / stats["arrival_attempts"]
                                if stats["arrival_attempts"] else None, "ratio"),
        "sim.collisions": (stats["collisions"], "count"),
        "sim.dropped_asleep": (stats["dropped_asleep"], "count"),
        "sim.events_per_s": (heap_only(total_pops / engine_run_s), "1/s"),
        "sim.node_periods_per_s": (node_periods / engine_run_s, "1/s"),
        "sim.engine_init_s": (sp("sim.Engine.__init__"), "s"),
        "sim.link_table_s": (sp("sim.make_link_delay_table"), "s"),
        "protocol.self_s": (layer_self("protocol."), "s"),
        "protocol.on_message.calls": (sp("protocol.on_message", "calls"), "count"),
        "protocol.on_message.self_s": (sp("protocol.on_message", "self_s"), "s"),
        "protocol.couplings": (t["tallies"]["couplings"], "count"),
        "protocol.is_awake.calls": (sp("protocol.is_awake", "calls"), "count"),
        "protocol.period.self_s": (sum(sp(f"protocol.{n}", "self_s") for n in (
            "on_fire", "end_of_period_evaluation", "on_period_start")), "s"),
        "protocol.mrf.self_s": (layer_self("protocol.mrf_"), "s"),
        "core.avg_phase_difference.calls": (sp("core.avg_phase_difference", "calls"), "count"),
        "core.avg_phase_difference.self_s": (sp("core.avg_phase_difference", "self_s"), "s"),
        "metrics.export_csv.s": (sp("metrics.export_csv"), "s"),
        "metrics.export_csv.bytes": (t["tallies"]["export_bytes"], "bytes"),
        "scenario.parse_s": (sp("scenario.parse_scenario", "outer_s")
                             + sp("scenario.parse_scenario_text", "outer_s"), "s"),
        "scenario.apply_override.s": (sp("scenario.apply_override"), "s"),
        "topology.build_s": (layer_outer("topology."), "s"),
        "cli.main_s": (sp("cli.main"), "s"),
        "cli.self_s": (sp("cli.main", "self_s"), "s"),
        "cli.import_s": (t["import_s"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_ratio": (overhead_s / untraced_wall, "ratio"),
    }
    return m


def reconcile(t: dict) -> list[str]:
    """Cross-checks of the counting heap against the public outputs of the
    same traced repetition.  When one fails, every heap-derived metric is
    published as unavailable: an engine that batches deliveries by design
    shows no heap counts rather than wrong ones."""
    heap, runs = t["heap"], t["runs"]
    if not any(rec["pushes"] for rec in heap):
        return []  # counting heap unused: heap counts are unavailable
    if len(heap) != len(runs):
        return [f"{len(heap)} engines built but {len(runs)} runs finished"]
    problems = []
    for i, (rec, run) in enumerate(zip(heap, runs)):
        if not rec["pops"].get("churn") and rec["stale_known"]:
            executed = rec["pops"].get("fire", 0) - rec["stale_fire_pops"]
            if executed != run["fires"]:
                problems.append(f"run {i}: FIRE pops - stale = {executed}, "
                                f"but fire_times holds {run['fires']}")
        delivered = run["stats"].get("arrival_attempts", 0) - run["stats"].get("lost", 0)
        if rec["pushes"].get("arrival", 0) != delivered:
            problems.append(f"run {i}: ARRIVAL pushes {rec['pushes'].get('arrival', 0)} "
                            f"!= arrival_attempts - lost = {delivered}")
    return problems


def measure_layers(s: Session, seconds: float) -> dict:
    s.warm_up()
    start = time.monotonic()
    plain, engine, traced = [], [], []
    while not traced or time.monotonic() - start < seconds:
        plain.append(s.rep("plain"))
        engine.append(s.rep("run") if s.w.entry == "cli" else plain[-1])
        traced.append(s.rep("trace"))
        if any(r["code"] != 0 for r in (plain[-1], engine[-1], traced[-1])):
            raise Failure(f"{s.w.name}: " + "; ".join(s.notes))
    for t, u in zip(traced, engine):
        if t["data"]["runs"] != u["data"]["runs"]:
            s.notes.append("exact counts differ between traced and untraced runs")
            s.failed += 1
    if s.expected is None:
        raise Failure(f"{s.w.name}: no repetition passed the output check: "
                      + "; ".join(s.notes))
    problems = [p for t in traced for p in reconcile(t["data"])]
    for problem in dict.fromkeys(problems):
        print(f"  reconciliation does not hold: {problem}")
    if problems:
        print("  heap-derived metrics unavailable: the reconciliation failed")
    untraced_wall = median([r["wall_s"] for r in plain])
    overhead = median([r["wall_s"] for r in traced]) - untraced_wall
    engine_s = median([r["data"]["engine_run_s"] for r in engine])
    per_rep = [layer_metrics(t["data"], engine_s, overhead, untraced_wall,
                             heap_trusted=not problems) for t in traced]
    counts = [{k: v for k, (v, unit) in m.items() if unit in ("count", "bytes")}
              for m in per_rep]
    if any(c != counts[0] for c in counts):
        s.notes.append("exact counts differ between traced repetitions")
        s.failed += 1
    print_heap_counts(traced[0]["data"]["heap"])
    out = {}
    for name, (first, unit) in per_rep[0].items():
        values = [m[name][0] for m in per_rep]
        exact = unit in ("count", "bytes")
        out[name] = (first if exact or None in values else median(values), unit)
    return out


def print_heap_counts(heap: list[dict]) -> None:
    if not any(rec["pushes"] for rec in heap):
        print("  heap counts unavailable: the counting heap saw no calls")
        return
    for i, rec in enumerate(heap[:5]):
        push, pop = rec["pushes"], rec["pops"]
        print(f"  run {i}: FIRE pushes {push.get('fire', 0)} pops {pop.get('fire', 0)} "
              f"stale {rec['stale_fire_pops']}; ARRIVAL {push.get('arrival', 0)}; "
              f"RX_COMMIT {push.get('rx_commit', 0)}; heap peak {rec['heap_peak']}")


# -- command line ----------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 use_pins: bool = True) -> dict:
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        s = Session(WORKLOADS[name], seed, quick, tmp, use_pins)
        print(f"{name} seed {seed} seconds {seconds:g} trace {int(trace)}"
              f"{' quick' if quick else ''}")
        metrics = measure_layers(s, seconds) if trace else measure_end_to_end(s, seconds)
        if len(s.expected) <= 8:
            for key, digest in s.expected.items():
                print(f"  digest {key} {digest}")
        print(f"  digest all {combined_digest(s.expected)} ({len(s.expected)} runs; "
              f"{'pinned' if s.pin else 'not pinned'})")
        for note in s.notes:
            print(f"  FAILED {note}")
        for key, (value, unit) in metrics.items():
            shown = "unavailable" if value is None else f"{value:.6g}"
            print(f"  {key} {shown} {unit}")
        return {"attempted": s.attempted, "failed": s.failed, "metrics": metrics,
                "digests": s.expected}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


def result_line(results: dict[str, dict], names: list[str], prefix: bool) -> str:
    metrics = {}
    for wname, res in results.items():
        for key, (value, unit) in res["metrics"].items():
            if key in names:
                metrics[f"{wname}.{key}" if prefix else key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results.values())
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results.values()),
                       "failed": failed, "metrics": metrics})


def self_check() -> int:
    """Every workload at tiny sizes through the whole path, both trace
    modes, checking the printed metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: not correct: {lines[-3:]}")
            for metric in wanted[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace {trace}: {metric['name']} "
                                    f"missing or wrong unit: {got}")
                elif not isinstance(got["value"], (int, float)):
                    problems.append(f"{name} trace {trace}: {metric['name']} "
                                    f"= {got['value']}")
            print(f"{name} trace {trace}: ok ({result['attempted']} runs)")
    for p in problems:
        print(f"self-check FAILED: {p}")
    print("self-check ok" if not problems else "self-check failed")
    return 1 if problems else 0


def update_pins(name: str) -> int:
    res = run_workload(name, DEFAULT_SEED, 0, trace=False, quick=False, use_pins=False)
    if res["failed"]:
        return 1
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    pins[name] = combined_digest(res["digests"])
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned the output digest of {name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes; outputs checked against the first repetition")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    # on SIGTERM unwind normally, so running children are stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "ebsim" / "__init__.py").is_file():
        print(f"error: no ebsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.update_pins:
            return max(update_pins(n) for n in names)
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.quick)
                   for n in names}
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.workload == "all":
        wanted.append("failed_run_share")
    print(result_line(results, wanted, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
