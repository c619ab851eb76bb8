"""Command line front end.

    ebs-sim run   scenario.txt --out results/ --seed 3
    ebs-sim sweep scenario.txt --out results/ --jobs 4
    ebs-sim check scenario.txt --strict
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .metrics import export_csv
from .params import build_report
from .scenario import (ScenarioConfig, ScenarioError, apply_override,
                       build_topology, delay_model, parse_scenario,
                       resolved_text, run_config)
from .sim import SimulationError
from .topology import TopologyError


def _run_one(cfg: ScenarioConfig, override: tuple[str, object], scheme: str,
             out_dir: str, name: str, trace: bool, columns: dict) -> dict:
    """Worker: one run of cfg with one key overridden, exported to CSV; its
    summary row carries the point's columns.  Top level for pickling."""
    point = apply_override(cfg, *override)
    result = run_config(point, scheme=scheme, trace=trace)
    path = os.path.join(out_dir, name)
    export_csv(result.series, path)
    row = {"file": name, "scheme": scheme, "seed": point.seed, **columns,
           **result.series.steady_state(), "warnings": "; ".join(result.warnings)}
    if trace and result.trace:
        trace_path = path[:-4] + ".trace.txt"
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.trace) + "\n")
    return row


_SUMMARY_FIELDS = ("file", "scheme", "seed", "parameter", "value",
                   "dphi_literal", "dphi_circular", "dplus", "duty_pct",
                   "thr_pct", "steady_pct", "flaps", "warnings")


def _execute(jobs: int, tasks: list[tuple]) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_one(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_one, *t) for t in tasks]
        return [f.result() for f in futures]


def _execute_points(args: argparse.Namespace, cfg: ScenarioConfig,
                    points: list[tuple[str, dict, tuple[str, object]]]) -> int:
    """Run each (file tag, columns, override) point of cfg under its schemes.

    Every point is checked before anything is written and rebuilt by its
    worker rather than held; a failure removes what this run wrote."""
    tasks, written = [], ["resolved-config.txt"]
    for tag, columns, override in points:
        point = apply_override(cfg, *override)
        for scheme in ("ebs", "mrf") if point.mrf is not None else ("ebs",):
            name = f"{scheme}_{tag}seed{point.seed}.csv"
            tasks.append((cfg, override, scheme, args.out, name, args.trace, columns))
            written += [name, name[:-4] + ".trace.txt"] if args.trace else [name]
    os.makedirs(args.out, exist_ok=True)
    try:
        with open(os.path.join(args.out, "resolved-config.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(resolved_text(cfg))
        rows = _execute(args.jobs, tasks)
    except Exception:
        for name in written:
            try:
                os.remove(os.path.join(args.out, name))
            except OSError:
                pass
        raise
    with open(os.path.join(args.out, "summary.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_FIELDS, restval="",
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(f"{row['scheme']} {row['label']}: "
              f"dphi_circular={row['dphi_circular']:.6f} "
              f"duty={row['duty_pct']:.2f}% thr={row['thr_pct']:.2f}% "
              f"flaps={row['flaps']}")
        if row["warnings"]:
            print(f"  warning: {row['warnings']}", file=sys.stderr)
    return 0


def _scenario(args: argparse.Namespace) -> ScenarioConfig:
    cfg = parse_scenario(args.scenario)
    if args.seed is not None:
        cfg = apply_override(cfg, "run.seed", args.seed)
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _scenario(args)
    return _execute_points(args, cfg, [("", {"label": f"seed={cfg.seed}"},
                                        ("run.seed", cfg.seed))])


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _scenario(args)
    if cfg.sweep is None:
        raise ScenarioError(f"{args.scenario}: no sweep.parameter defined")
    param = cfg.sweep.parameter
    short = param.split(".")[-1]
    return _execute_points(args, cfg, [
        (f"{short}={value}_", {"label": f"{short}={value}", "parameter": param,
                                "value": value}, (param, value))
        for value in cfg.sweep.values])


def cmd_check(args: argparse.Namespace) -> int:
    cfg = parse_scenario(args.scenario)
    topology = build_topology(cfg.topology)
    nu = delay_model(cfg, topology).worst_case()
    report = build_report(epsilon=cfg.protocol.epsilon, sigma=cfg.protocol.sigma,
                          t=cfg.protocol.period_t, c0=cfg.protocol.c0, nu=nu,
                          s_th=cfg.protocol.s_th, topology=topology,
                          adaptive=cfg.protocol.adaptive_c)
    for line in report.lines():
        print(line)
    if args.strict and not report.stable:
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebs-sim",
        description="Duty-cycled firefly synchronization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("scenario", help="scenario file")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        if out:
            p.add_argument("--out", default="results",
                           help="output directory (default: results)")
            p.add_argument("--trace", action="store_true",
                           help="write per-event trace files")
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel worker processes")

    p_run = sub.add_parser("run", help="execute a scenario once")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a scenario's sweep")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="print parameter analysis")
    common(p_check, out=False)
    p_check.add_argument("--strict", action="store_true",
                         help="exit with status 2 if the configuration is unstable")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TopologyError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
