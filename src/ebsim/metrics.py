"""Per-period measurement series and CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

COLUMNS = ("period", "dphi_literal", "dphi_circular", "dplus",
           "duty_pct", "thr_pct", "steady_pct", "flaps")


@dataclass(frozen=True)
class MetricsRow:
    period: int
    dphi_literal: float
    dphi_circular: float
    dplus: float
    duty_pct: float
    thr_pct: float
    steady_pct: float
    flaps: int

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))


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
        out = {}
        for name in ("dphi_literal", "dphi_circular", "dplus",
                     "duty_pct", "thr_pct", "steady_pct"):
            out[name] = sum(getattr(r, name) for r in tail) / len(tail)
        out["flaps"] = self.rows[-1].flaps
        return out


def throughput(received_total: int, avg_degree: float, n: int) -> float:
    """Broadcasts received in one period as a percentage of the lossless
    all-awake ceiling avg_degree * n."""
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    return 100.0 * received_total / (avg_degree * n)


def export_csv(series: MetricsSeries, path: str) -> None:
    """Write the series with a fixed header; byte-stable for equal inputs."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            for row in series:
                writer.writerow(row.as_tuple())
    except OSError as exc:
        raise OSError(f"cannot write metrics CSV {path}: {exc}") from exc
