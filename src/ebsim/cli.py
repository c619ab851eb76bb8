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

from .metrics import COLUMNS, export_csv, steady_state
from .params import build_report
from .scenario import (ScenarioConfig, ScenarioError, apply_override,
                       parse_scenario, resolved_text, run_config)
from .sim import SimulationError


def _run_one(point: ScenarioConfig, scheme: str, out_dir: str, name: str,
             trace: bool, columns: dict) -> dict:
    """Worker: one run of a built point, exported to CSV; its summary row
    carries the point's columns.  Top level for pickling."""
    result = run_config(point, scheme=scheme, trace=trace)
    path = os.path.join(out_dir, name)
    export_csv(result.series, path)
    row = {"file": name, "scheme": scheme, "seed": point.seed, **columns,
           **steady_state(result.series), "warnings": "; ".join(result.warnings)}
    if trace and result.trace:
        trace_path = path[:-4] + ".trace.txt"
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.trace) + "\n")
    return row


_SUMMARY_FIELDS = ("file", "scheme", "seed", "parameter", "value",
                   *COLUMNS[1:], "warnings")


def _execute(jobs: int, tasks: list[tuple]) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_one(*t) for t in tasks]
    # imported here: the pool machinery costs every single-process run
    from concurrent.futures import ProcessPoolExecutor
    # the first submit starts every worker, so start no more than there are runs
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(_run_one, *t) for t in tasks]
        return [f.result() for f in futures]


def _execute_points(args: argparse.Namespace, cfg: ScenarioConfig,
                    points: list[tuple[str, dict, ScenarioConfig]]) -> int:
    """Run each (file tag, columns, point) of cfg under its schemes; the
    points come built, once each and all before anything is written, and
    a failure removes what this run wrote."""
    tasks, written = [], ["resolved-config.txt"]
    for tag, columns, point in points:
        for scheme in ("ebs", "mrf") if point.mrf is not None else ("ebs",):
            name = f"{scheme}_{tag}seed{point.seed}.csv"
            tasks.append((point, scheme, args.out, name, args.trace, columns))
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


def _sweep_points(cfg: ScenarioConfig, source: str) -> list[tuple[str, dict, ScenarioConfig]]:
    """Each (file tag, columns, point) of cfg's sweep, the point built; two
    values that build one point would run it twice, and fail."""
    param, values, first = cfg.given["sweep.parameter"], cfg.given["sweep.values"], {}
    short = param.split(".")[-1]
    points = [apply_override(cfg, param, value) for value in values]
    for i, point in enumerate(points):  # they share cfg's network, so compare the rest
        if (j := first.setdefault(point.spec[1:], i)) < i:
            raise ScenarioError(f"{source}: sweep value {i + 1} ({values[i]}) runs the same "
                                f"point as value {j + 1} ({values[j]})")
    return [(f"{short}={value}_", {"label": f"{short}={value}", "parameter": param,
                                   "value": value}, point) for value, point in zip(values, points)]


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _scenario(args)
    return _execute_points(args, cfg, [("", {"label": f"seed={cfg.seed}"}, cfg)])


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _scenario(args)
    if "sweep.parameter" not in cfg.given:
        raise ScenarioError(f"{args.scenario}: no sweep.parameter defined")
    if args.seed is not None and cfg.given["sweep.parameter"] == "run.seed":
        raise ScenarioError(f"{args.scenario}: --seed does not apply to a run.seed sweep")
    return _execute_points(args, cfg, _sweep_points(cfg, args.scenario))


def cmd_check(args: argparse.Namespace) -> int:
    cfg = parse_scenario(args.scenario)
    # a bad point fails here as it fails sweep; --strict also judges each point
    points = _sweep_points(cfg, args.scenario) if "sweep.parameter" in cfg.given else []
    report = build_report(cfg.spec)
    for line in report.lines():
        print(line)
    unstable = [cols for _, cols, point in points
                if args.strict and not build_report(point.spec).stable]
    for cols in unstable:
        print(f"{args.scenario}: sweep point {cols['parameter']} = {cols['value']} is unstable",
              file=sys.stderr)
    return 2 if args.strict and (unstable or not report.stable) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebs-sim",
        description="Duty-cycled firefly synchronization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (("run", cmd_run, "execute a scenario once"),
                             ("sweep", cmd_sweep, "execute a scenario's sweep")):
        p = sub.add_parser(name, help=text)
        p.add_argument("scenario", help="scenario file")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        p.add_argument("--out", default="results",
                       help="output directory (default: results)")
        p.add_argument("--trace", action="store_true",
                       help="write per-event trace files")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes")
        p.set_defaults(func=func)

    p_check = sub.add_parser("check", help="print parameter analysis")
    p_check.add_argument("scenario", help="scenario file")
    p_check.add_argument("--strict", action="store_true",
                         help="exit with status 2 if the base or a sweep point is unstable")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
