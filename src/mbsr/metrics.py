"""Slot-completeness metrics over a scope, with an append-only history.

A requirement counts as complete when it carries a structured statement;
the statement type guarantees every mandatory slot of its pattern is
filled. Per-slot counters say how many requirements fill each slot, which
separates "nothing parsed yet" from "three-slot pattern, so no condition".
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime

from .catalog import SLOT_KEYS
from .errors import MetricHistoryError, NoInstancesError, UnknownColumnError
from .model import Model, as_utc

METRIC_TYPE = "slot_completeness"

CSV_COLUMNS = ("timestamp", "scope", "type", "total",
               "sr1", "sr2", "sr3", "sr4", "sr5", "complete", "pct")


@dataclass(frozen=True)
class MetricInstance:
    timestamp: datetime
    scope: str
    metric_type: str
    total: int
    slot_counts: tuple[int, int, int, int, int]
    complete: int
    pct: float

    def row(self) -> list[str]:
        return [self.timestamp.isoformat(), self.scope, self.metric_type,
                str(self.total), *[str(n) for n in self.slot_counts],
                str(self.complete), f"{self.pct:.2f}"]


def compute_slot_completeness(model: Model, scope_id: str | None = None,
                              timestamp: datetime | None = None) -> MetricInstance:
    """Measure the scope now; the caller decides whether to record it."""
    exprs = model.scope_requirements(scope_id)
    total = len(exprs)
    counts = [0, 0, 0, 0, 0]
    complete = 0
    for expr in exprs:
        if expr.statement is None:
            continue
        complete += 1
        for i, key in enumerate(SLOT_KEYS):
            slot = expr.statement.slot(key)
            if slot is not None and slot.text:
                counts[i] += 1
    pct = round(100.0 * complete / total, 2) if total else 0.0
    return MetricInstance(
        timestamp=timestamp if timestamp is not None else model.clock(),
        scope=scope_id if scope_id else "all",
        metric_type=METRIC_TYPE,
        total=total,
        slot_counts=tuple(counts),
        complete=complete,
        pct=pct,
    )


def record_metric(model: Model, instance: MetricInstance) -> None:
    model.metric_history.append(instance)


def burndown(history: list[MetricInstance], scope: str | None = None
             ) -> list[tuple[datetime, int]]:
    """Open-item counts (total minus complete) over time for one scope,
    in time order; a timestamp without a UTC offset sorts as UTC."""
    rows = [m for m in history if scope is None or m.scope == scope]
    if not rows:
        raise NoInstancesError("no metric instances recorded for this scope")
    rows.sort(key=lambda m: as_utc(m.timestamp))
    return [(m.timestamp, m.total - m.complete) for m in rows]


def render_history_csv(history: list[MetricInstance]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for instance in history:
        writer.writerow(instance.row())
    return out.getvalue()


def load_history_csv(text: str) -> list[MetricInstance]:
    """Parse rows written by render_history_csv; the header row is optional.

    Every count must lie between 0 and the row's total, and pct between 0
    and 100."""
    history: list[MetricInstance] = []
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            if not row or row[0] == "timestamp":
                continue
            if len(row) != len(CSV_COLUMNS):
                raise UnknownColumnError(
                    f"metric row has {len(row)} columns, expected {len(CSV_COLUMNS)}")
            instance = MetricInstance(
                timestamp=datetime.fromisoformat(row[0]),
                scope=row[1],
                metric_type=row[2],
                total=int(row[3]),
                slot_counts=tuple(int(n) for n in row[4:9]),
                complete=int(row[9]),
                pct=float(row[10]),
            )
            if not all(0 <= n <= instance.total
                       for n in (*instance.slot_counts, instance.complete)):
                raise ValueError(
                    f"counts {','.join(row[4:10])} must lie between 0 and total {row[3]}")
            if not 0 <= instance.pct <= 100:  # false for nan too
                raise ValueError(f"pct {row[10]!r} is not between 0 and 100")
            history.append(instance)
    except (ValueError, csv.Error) as exc:
        raise MetricHistoryError(
            f"metric history line {reader.line_num}: {exc}") from None
    return history
