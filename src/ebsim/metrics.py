"""Per-period measurement series and CSV export."""

from __future__ import annotations

import csv
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


class MetricsSeries:
    """Ordered per-period rows; period indices must strictly increase."""

    def __init__(self) -> None:
        self.rows: list[MetricsRow] = []

    def append(self, row: MetricsRow) -> None:
        if self.rows and row.period <= self.rows[-1].period:
            raise ValueError("period indices must strictly increase")
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def steady_state(self, tail_fraction: float = 0.25) -> dict[str, float]:
        """Mean of each column over the trailing rows (flaps: final value)."""
        if not self.rows:
            raise ValueError("empty series")
        k = max(1, int(len(self.rows) * tail_fraction))
        tail = self.rows[-k:]
        # every column but the period index and the cumulative flaps
        out = {name: sum(getattr(r, name) for r in tail) / len(tail)
               for name in COLUMNS[1:-1]}
        out["flaps"] = self.rows[-1].flaps
        return out


def export_csv(series: MetricsSeries, path: str) -> None:
    """Write the series with a fixed header; byte-stable for equal inputs."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            writer.writerows(series)
    except OSError as exc:
        raise OSError(f"cannot write metrics CSV {path}: {exc}") from exc
