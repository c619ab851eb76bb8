"""One measured repetition, run by ``bench/run.py`` in a fresh process.

    python3 bench/child.py setup|run|trace <scenario> --entry library|cli --seeds 0,1
        --out DIR --result FILE

``setup`` calls ``ebsim.scenario.run_config`` for one run with
``Engine.run`` replaced by a clock reading, so it stops just before the
first simulated event; ``run`` executes the repetition untraced (a timer
around ``Engine.run`` only); ``trace`` does the same under the span
wrappers and the counting heap.  Library workloads run each point through
``ebsim.scenario.run_config``; the CLI workload calls ``ebsim.cli.main``
in-process.
Every ebsim function is looked up through its module at call time, so the
trace wrappers see the calls.  The result is written as JSON to FILE.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_ebsim(module: str) -> float:
    """Import the package from this checkout's src/, never another copy;
    returns the seconds the import took."""
    t0 = time.perf_counter()
    importlib.import_module(module)
    import_s = time.perf_counter() - t0
    import ebsim
    src = ROOT / "src"
    if Path(ebsim.__file__).resolve().parent.parent != src:
        raise SystemExit(f"ebsim imported from {ebsim.__file__}, not {src}")
    return import_s


def library_runs(cfg, seeds: list[int]):
    from ebsim import scenario
    for seed in seeds:
        point = scenario.apply_override(cfg, "run.seed", seed)
        for scheme in ("ebs", "mrf") if point.mrf is not None else ("ebs",):
            yield f"{scheme}_seed{seed}", point, scheme


def fires_text(fire_times: dict[int, list[int]]) -> str:
    return "".join(f"{nid}:{' '.join(map(str, ts))}\n"
                   for nid, ts in sorted(fire_times.items()))


def entry_module(args) -> str:
    return "ebsim.cli" if args.entry == "cli" else "ebsim"


class Repetition:
    """Drives one repetition and collects what the harness checks."""

    def __init__(self, args) -> None:
        self.args = args
        self.runs: list[dict] = []
        self.engine_run_s = 0.0

    def patch_engine_run(self) -> None:
        from ebsim import sim
        orig = sim.Engine.run
        rep = self

        def timed_run(engine):
            t0 = time.perf_counter()
            result = orig(engine)
            rep.engine_run_s += time.perf_counter() - t0
            rep.runs.append({
                # integer counters only: they must repeat exactly across
                # traced and untraced runs
                "stats": {k: v for k, v in result.stats.items() if isinstance(v, int)},
                "fires": sum(len(ts) for ts in result.fire_times.values()),
                "node_periods": len(result.series) * len(result.fire_times)})
            return result
        sim.Engine.run = timed_run

    def execute(self) -> None:
        args = self.args
        if args.entry == "cli":
            from ebsim import cli
            code = cli.main(["sweep", args.scenario, "--out", args.out, "--jobs", "1"])
            if code != 0:
                raise SystemExit(f"ebsim.cli sweep exited with {code}")
            return
        from ebsim import metrics, scenario
        cfg = scenario.parse_scenario(args.scenario)
        for name, point, scheme in library_runs(cfg, args.seeds):
            result = scenario.run_config(point, scheme=scheme)
            path = os.path.join(args.out, name)
            metrics.export_csv(result.series, path + ".csv")
            with open(path + ".fires", "w", encoding="utf-8") as fh:
                fh.write(fires_text(result.fire_times))


class Ready(Exception):
    """Raised in place of Engine.run: the clock reading at the first event."""


def setup(args) -> dict:
    """Everything a run does before its first event, for one run: the
    program's own run_config, stopped where Engine.run would start."""
    import_ebsim(entry_module(args))
    from ebsim import scenario, sim

    def stop(engine):
        raise Ready(time.monotonic())
    sim.Engine.run = stop
    cfg = scenario.parse_scenario(args.scenario)
    try:
        scenario.run_config(scenario.apply_override(cfg, "run.seed", args.seeds[0]))
    except Ready as ready:
        return {"ready": ready.args[0]}
    raise SystemExit("run_config returned without starting Engine.run")


def run(args) -> dict:
    import_ebsim(entry_module(args))
    rep = Repetition(args)
    rep.patch_engine_run()
    rep.execute()
    return {"runs": rep.runs, "engine_run_s": rep.engine_run_s}


def trace(args) -> dict:
    import_s = import_ebsim("ebsim.cli")
    from ebsim import cli, core, metrics, protocol, scenario, sim, topology
    from spans import CountingHeap, Tracer, install, public_functions

    tracer = Tracer()
    rep = Repetition(args)
    tallies = {"couplings": 0, "export_bytes": 0}

    def count_coupling(_args, delta) -> None:
        if delta > 0:
            tallies["couplings"] += 1

    def count_bytes(call_args, _result) -> None:
        tallies["export_bytes"] += os.path.getsize(call_args[1])

    for name in public_functions(protocol):
        install(tracer, protocol, name, f"protocol.{name}",
                after=count_coupling if name.endswith("on_message") else None)
    install(tracer, core, "avg_phase_difference", "core.avg_phase_difference")
    install(tracer, metrics, "throughput", "metrics.throughput")
    install(tracer, metrics, "export_csv", "metrics.export_csv", after=count_bytes)
    install(tracer, sim, "make_link_delay_table", "sim.make_link_delay_table")
    for name in public_functions(topology):
        install(tracer, topology, name, f"topology.{name}")
    orig_run_config = scenario.run_config

    def run_config(*a, **kw):
        tracer.run_id += 1
        return orig_run_config(*a, **kw)
    for name in public_functions(scenario):
        install(tracer, scenario, name, f"scenario.{name}",
                fn=run_config if name == "run_config" else None)
    install(tracer, cli, "main", "cli.main")

    heap = CountingHeap({int(k): k.name.lower() for k in sim.EventKind})
    sim.heapq = heap
    orig_init = sim.Engine.__init__

    def engine_init(engine, *a, **kw):
        heap.new_run(engine)
        orig_init(engine, *a, **kw)
    sim.Engine.__init__ = tracer.wrap(engine_init, "sim.Engine.__init__")
    rep.patch_engine_run()
    sim.Engine.run = tracer.wrap(sim.Engine.run, "sim.Engine.run")

    rep.execute()
    records = [dict(r, pushes=dict(r["pushes"]), pops=dict(r["pops"]))
               for r in heap.records]
    return {"runs": rep.runs, "engine_run_s": rep.engine_run_s,
            "spans": tracer.summary(), "heap": records, "tallies": tallies,
            "import_s": import_s}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("scenario")
    parser.add_argument("--entry", choices=("library", "cli"), required=True)
    parser.add_argument("--seeds", required=True,
                        type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = {"setup": setup, "run": run, "trace": trace}[args.mode](args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
