"""Spans around calls into the program's layers, recorded from outside it.

`instrument(tracer)` replaces the public functions listed in `LAYER_CALLS`
with wrappers that open a span for the call, in every `mbsr` module that
holds a reference to them, so calls made from inside the package are
traced too. The program itself is not changed. A span holds its name,
start, end and parent; spans stay in memory until `dump`.

Span names are `<module>.<function>`; a few calls get a variant name from
their arguments (`parser.parse_statement_default` when no catalog is
passed, `rules.reapply_verdicts` for every apply after a model's first).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from collections import Counter
from contextlib import contextmanager

# (module, attribute): the public calls timed per layer
LAYER_CALLS = (
    ("blockfile", "parse_blocks"),
    ("catalog", "default_catalog"),
    ("catalog", "load_catalog"),
    ("parser", "parse_statement"),
    ("rules", "check_scope"),
    ("rules", "apply_verdicts"),
    ("model", "Model.set_text"),
    ("model", "Model.set_statement"),
    ("model", "Model.set_attribute"),
    ("trace", "add_link"),
    ("trace", "remove_link"),
    ("trace", "bidirectional_trace"),
    ("trace", "matrix_rows"),
    ("trace", "kdr_view"),
    ("glossary", "annotate"),
    ("metrics", "compute_slot_completeness"),
    ("interchange", "loads_corpus"),
    ("interchange", "serialize_corpus"),
    ("interchange", "export_xmi"),
    ("interchange", "import_xmi"),
    ("interchange", "export_reqif"),
    ("interchange", "export_dot"),
    ("interchange", "export_table"),
    ("interchange", "generate_report"),
    ("cli", "main"),
)

_VERDICT_COLUMNS = {"R1", "R2", "R10", "R16", "TBX"}


class Tracer:
    """In-memory span list plus counters, both keyed by the current round."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, round]
        self.counts: list[Counter] = [Counter()]
        self.round = 0
        self._stack: list[int] = []
        self._applied: weakref.WeakSet = weakref.WeakSet()

    def start_round(self, index: int) -> None:
        self.round = index
        while len(self.counts) <= index:
            self.counts.append(Counter())

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.round][name] += n

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.round])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def adopt(self, child: dict, parent: int) -> None:
        """Append what a child process recorded (see write_child) under a
        span of ours; both clocks are the system-wide monotonic clock."""
        base = len(self.spans)
        for name, start, end, cparent, _ in child["spans"]:
            self.spans.append([name, start, end,
                               parent if cparent < 0 else base + cparent, self.round])
        for name, n in child["counts"].items():
            self.count(name, n)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "round"],
                       "spans": self.spans,
                       "counts": [dict(c) for c in self.counts]}, fh)

    # --- per-call naming and counting ---

    def _name(self, layer: str, func: str, args: tuple, kwargs: dict) -> str:
        if func == "parse_statement":
            catalog = args[2] if len(args) > 2 else kwargs.get("catalog")
            return f"{layer}.parse_statement" + ("_default" if catalog is None else "")
        if func == "apply_verdicts":
            return f"{layer}.{'reapply' if args[0] in self._applied else 'apply'}_verdicts"
        if func == "export_table":
            columns = args[2] if len(args) > 2 else kwargs.get("columns", ())
            verdicts = any(c in _VERDICT_COLUMNS for c in columns)
            return f"{layer}.export_table" + ("" if verdicts else "_text")
        if func == "generate_report":
            template = args[2] if len(args) > 2 else kwargs.get("template")
            return f"{layer}.report_{str(template).lower()}"
        return f"{layer}.{func.split('.')[-1]}"

    def _after(self, func: str, args: tuple, result) -> None:
        if func == "parse_blocks":
            self.count("blockfile.blocks", len(result))
        elif func == "check_scope":
            self.count("rules.findings", len(result))
            self.count("rules.violations",
                       sum(1 for f in result if f.verdict.value == "Violate"))
        elif func == "apply_verdicts":
            self._applied.add(args[0])
            self.count("rules.links_changed", result)

    def wrap(self, layer: str, func: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(self._name(layer, func, args, kwargs))
            try:
                result = original(*args, **kwargs)
            except Exception:
                if func == "add_link":
                    self.count("trace.add_link_rejected")
                raise
            finally:
                self.close(index)
            self._after(func, args, result)
            return result
        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap every call in LAYER_CALLS, wherever the package refers to it."""
    modules = [importlib.import_module(f"mbsr.{layer}")
               for layer in sorted({layer for layer, _ in LAYER_CALLS})]
    modules.append(importlib.import_module("mbsr"))
    for layer, func in LAYER_CALLS:
        module = importlib.import_module(f"mbsr.{layer}")
        if "." in func:
            cls_name, meth = func.split(".")
            cls = getattr(module, cls_name)
            original = getattr(cls, meth)
            setattr(cls, meth, tracer.wrap(layer, func, original))
            continue
        original = getattr(module, func)
        wrapper = tracer.wrap(layer, func, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def inclusive_totals(spans: list[list], rounds: list[int]) -> dict[int, Counter]:
    """Round -> span name -> summed duration in seconds."""
    out: dict[int, Counter] = {r: Counter() for r in rounds}
    for name, start, end, _, rnd in spans:
        if rnd in out:
            out[rnd][name] += (end - start) / 1e9
    return out


def self_times(spans: list[list]) -> Counter:
    """Span name -> summed self time in seconds: a span's duration minus the
    part of it its child spans cover."""
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start - covered[i]) / 1e9
    return out


def write_child(tracer: Tracer, path) -> None:
    """Child side of adopt: the spans and counts of one process, as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts[0])}, fh)
