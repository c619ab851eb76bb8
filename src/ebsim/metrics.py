"""Per-period measurement rows, their steady-state summary and CSV export."""

import csv
from functools import reduce
from operator import add
from typing import NamedTuple


class MetricsRow(NamedTuple):
    """One period's measurements; the fields are the CSV columns, in order."""

    period: int
    dphi_literal: float
    dphi_circular: float
    dplus: float
    duty_pct: float
    thr_pct: float
    steady_pct: float
    flaps: int


COLUMNS = MetricsRow._fields


# the share of a run's rows, at its end, that steady_state averages
STEADY_TAIL = 0.25


def left_sum(values) -> float:
    """The floats added one by one, left to right, from 0.0: the same bits on
    every CPython, where sum() compensates its rounding since 3.12."""
    return reduce(add, values, 0.0)


def steady_state(rows: list[MetricsRow]) -> dict[str, float]:
    """Mean of each column over the trailing rows (flaps: final value)."""
    if not rows:
        raise ValueError("empty series")
    tail = rows[-max(1, int(len(rows) * STEADY_TAIL)):]
    # every column but the period index and the cumulative flaps
    out = {name: left_sum(getattr(r, name) for r in tail) / len(tail)
           for name in COLUMNS[1:-1]}
    out["flaps"] = rows[-1].flaps
    return out


def export_csv(rows: list[MetricsRow], path: str) -> None:
    """Write the rows with a fixed header; byte-stable for equal inputs."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write metrics CSV {path}: {exc}") from exc
