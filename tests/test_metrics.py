"""Slot-completeness metric, history CSV, and burndown points."""

import random
from datetime import datetime, timedelta, timezone

import pytest

from mbsr import (
    MetricInstance,
    Model,
    RequirementExpression,
    burndown,
    compute_slot_completeness,
    load_history_csv,
    record_metric,
    render_history_csv,
)
from mbsr.errors import MbsrError, MetricHistoryError, NoInstancesError, UnknownColumnError
from mbsr.metrics import CSV_COLUMNS
from tests.conftest import STAMP, fixed_clock

T1 = datetime(2026, 1, 1, tzinfo=timezone.utc)
T2 = datetime(2026, 2, 1, tzinfo=timezone.utc)


def test_fixture_counts(metrics_model):
    inst = compute_slot_completeness(metrics_model, timestamp=T1)
    assert inst.total == 10
    assert inst.complete == 7
    assert inst.pct == 70.0
    assert inst.slot_counts == (5, 7, 7, 3, 7)
    assert inst.scope == "all"


def test_counts_equal_brute_force(metrics_model):
    inst = compute_slot_completeness(metrics_model, timestamp=T1)
    exprs = [e for e in metrics_model.expressions() if not e.is_set]
    assert inst.total == len(exprs)
    assert inst.complete == sum(1 for e in exprs if e.statement is not None)
    for index, key in enumerate(("SR1", "SR2", "SR3", "SR4", "SR5")):
        filled = sum(1 for e in exprs
                     if e.statement is not None
                     and e.statement.slots()[key] is not None)
        assert inst.slot_counts[index] == filled, key


def test_pct_rounding(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    texts = ["The System shall run within 1 s."] * 1 + ["no pattern"] * 2
    for n, text in enumerate(texts):
        expr = RequirementExpression(f"R-{n}", name=str(n), text=text)
        model.add_expression(expr)
    from mbsr import parse_statement
    statement, _ = parse_statement(texts[0])
    model.set_statement("R-0", statement)
    inst = compute_slot_completeness(model, timestamp=T1)
    assert inst.total == 3 and inst.complete == 1
    assert inst.pct == 33.33
    assert inst.row()[-1] == "33.33"


def test_empty_scope_pct_is_zero(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    inst = compute_slot_completeness(model, timestamp=T1)
    assert inst.total == 0 and inst.pct == 0.0


def test_scope_filtering(metrics_model):
    inst = compute_slot_completeness(metrics_model, "SYS", timestamp=T1)
    assert inst.scope == "SYS"
    assert inst.total < 10 or inst.total == 10  # scope never exceeds the model
    all_inst = compute_slot_completeness(metrics_model, timestamp=T1)
    assert inst.total <= all_inst.total


def test_default_timestamp_uses_model_clock(metrics_model):
    inst = compute_slot_completeness(metrics_model)
    assert inst.timestamp == STAMP


def test_record_metric_appends(metrics_model):
    inst = compute_slot_completeness(metrics_model, timestamp=T1)
    record_metric(metrics_model, inst)
    assert metrics_model.metric_history == [inst]


def test_burndown_two_points(metrics_model):
    first = compute_slot_completeness(metrics_model, timestamp=T1)
    second = compute_slot_completeness(metrics_model, timestamp=T2)
    points = burndown([second, first])
    assert points == [(T1, 3), (T2, 3)]  # 10 total - 7 complete = 3 open
    assert points[0][0] < points[1][0]


def test_burndown_filters_by_scope(metrics_model):
    whole = compute_slot_completeness(metrics_model, timestamp=T1)
    scoped = compute_slot_completeness(metrics_model, "SYS", timestamp=T2)
    points = burndown([whole, scoped], scope="SYS")
    assert len(points) == 1 and points[0][0] == T2


def test_burndown_empty_history_raises():
    with pytest.raises(NoInstancesError):
        burndown([])
    with pytest.raises(NoInstancesError):
        burndown([], scope="SYS")


def test_csv_round_trip(metrics_model):
    rows = [compute_slot_completeness(metrics_model, timestamp=T1),
            compute_slot_completeness(metrics_model, timestamp=T2)]
    text = render_history_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    back = load_history_csv(text)
    assert [r.row() for r in back] == [r.row() for r in rows]


def test_csv_rejects_malformed_rows():
    header = ",".join(CSV_COLUMNS)
    with pytest.raises(UnknownColumnError):
        load_history_csv(header + "\n1,2,3\n")


def test_csv_rejects_bad_values_naming_the_line(metrics_model):
    good = render_history_csv([compute_slot_completeness(metrics_model, timestamp=T1)])
    row = good.strip().split("\n")[1].split(",")
    bad_stamp = ",".join(["not-a-date"] + row[1:])
    with pytest.raises(MetricHistoryError, match="line 3.*not-a-date"):
        load_history_csv(good + bad_stamp + "\n")
    bad_count = ",".join(row[:3] + ["many"] + row[4:])
    with pytest.raises(MetricHistoryError, match="line 1.*many"):
        load_history_csv(bad_count + "\n")


def test_metric_instance_is_frozen(metrics_model):
    inst = compute_slot_completeness(metrics_model, timestamp=T1)
    with pytest.raises(AttributeError):
        inst.total = 99


_HISTORY_BAD_VALUES = ("", "x", "1.5", "-3", "nan", "inf", "1e999", "9" * 5000,
                       "2026-13-01T00:00:00", "2026-01-01T00:00:00+25:00", "２", '"', "\r",
                       "\x00", "a,b", '"quoted, value"', "timestamp")


def _damage_history(rng, text):
    """One to three random edits of a history CSV: garble, drop or add a
    field, truncate, or insert a quote, a carriage return or a NUL."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        fields = lines[i].split(",")
        edit = rng.randrange(5)
        if edit == 0:
            fields[rng.randrange(len(fields))] = rng.choice(_HISTORY_BAD_VALUES)
        elif edit == 1:
            del fields[rng.randrange(len(fields))]
        elif edit == 2:
            fields.insert(rng.randrange(len(fields) + 1), rng.choice(_HISTORY_BAD_VALUES))
        lines[i] = ",".join(fields)
        text = "\n".join(lines)
        if edit == 3:
            text = text[:rng.randrange(len(text) + 1)]
        elif edit == 4:
            j = rng.randrange(len(text) + 1)
            text = text[:j] + rng.choice(('"', "\r", "\x00", "\n", ",")) + text[j:]
    return text


def test_load_history_csv_fuzz_raises_only_mbsr_errors(metrics_model):
    history = [compute_slot_completeness(metrics_model, scope, timestamp=stamp)
               for scope, stamp in ((None, T1), (None, T2), ("SYS", T2))]
    source = render_history_csv(history)
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(400):
        text = _damage_history(rng, source)
        try:
            load_history_csv(text)
            outcomes.add("loaded")
        except MbsrError as exc:
            outcomes.add(type(exc).__name__)
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} escaped load_history_csv for:\n{text!r}")
    assert {"loaded", "MetricHistoryError", "UnknownColumnError"} <= outcomes
