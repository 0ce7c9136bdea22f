"""Command-line front end: batch lint, parse, metrics, trace, and exports.

Machine output (csv, xmi, reqif, dot) goes to stdout or --out unchanged;
human diagnostics go to stderr. Repeated runs over the same inputs produce
byte-identical data output: the clock defaults to a fixed epoch and can be
pinned to a specific instant with --now.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from datetime import datetime
from functools import cache
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from .blockfile import split_list
from .catalog import SLOT_KEYS, TBX_ID, load_catalog
from .errors import MbsrError, TraceDiscouragedWarning, UnknownIdError
from .glossary import find_undefined
from .interchange import (
    REPORT_TEMPLATES,
    export_dot,
    export_reqif,
    export_table,
    export_xmi,
    generate_report,
    load_attribute_mapping,
    load_corpus,
    markdown_table,
    serialize_corpus,
    table_rows,
)
from .model import FIXED_EPOCH, Model, as_utc
from .trace import TraceView, bidirectional_trace

# The commands that run the rule checkers, the parser or the metrics import
# them inside, so that `validate` and the exporters start sooner.


def non_negative_int(value: str) -> int:
    """The --depth value: an integer, 0 or more."""
    depth = int(value)
    if depth < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {depth}")
    return depth


# built once per process: parsing leaves the parser unchanged, and building
# it costs more than most commands over a small corpus
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbsr",
        description="Structured-requirements toolkit: lint, parse, trace, export.")
    parser.add_argument("--corpus", required=True, help="corpus file (.mbsr)")
    parser.add_argument("--config", help="catalog override file "
                        "(falls back to the MBSR_CONFIG environment variable)")
    parser.add_argument("--scope", help="requirement set id limiting the scope")
    parser.add_argument("--out", help="write data output to this file instead of stdout")
    parser.add_argument("--strict", action="store_true",
                        help="treat discouraged-practice warnings as errors")
    parser.add_argument("--now", help="ISO-8601 instant used as the clock "
                        "(default: a fixed epoch, for reproducible output)")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("lint", help="run the automated writing rules")

    p_parse = sub.add_parser("parse", help="show a requirement's slot decomposition")
    p_parse.add_argument("req_id", help="requirement id")

    p_metrics = sub.add_parser("metrics", help="compute slot completeness")
    p_metrics.add_argument("--history", help="append the instance to this CSV file "
                           "and print the whole history")

    p_trace = sub.add_parser("trace", help="bidirectional trace for a requirement")
    p_trace.add_argument("req_id", help="expression id")
    p_trace.add_argument("--depth", type=non_negative_int, help="maximum derive distance")

    p_matrix = sub.add_parser("matrix", help="verdict matrix for the scope")
    p_matrix.add_argument("--format", choices=("csv", "md"), default="csv")

    p_export = sub.add_parser("export", help="write the scope in another format")
    p_export.add_argument("--format", choices=("csv", "md", "xmi", "reqif", "dot", "mbsr"),
                          required=True)
    p_export.add_argument("--columns", help="comma-separated columns for csv export")
    p_export.add_argument("--template", choices=REPORT_TEMPLATES,
                          default="Overview", help="report template for md export")
    p_export.add_argument("--mapping", help="attribute mapping file for reqif export")

    p_glossary = sub.add_parser("glossary", help="term listing or usage check")
    p_glossary.add_argument("--check", action="store_true",
                            help="report undefined terms in requirement texts")

    sub.add_parser("validate", help="load and validate the corpus, nothing else")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _load_model(args: argparse.Namespace) -> Model:
    config_path = args.config or os.environ.get("MBSR_CONFIG")
    catalog = load_catalog(config_path) if config_path else None
    instant = as_utc(datetime.fromisoformat(args.now)) if args.now else FIXED_EPOCH
    return load_corpus(args.corpus, catalog=catalog, clock=lambda: instant)


def _cmd_lint(model: Model, args: argparse.Namespace) -> int:
    # Output comes from the findings alone; verdict links would be stored in
    # a model that is thrown away at exit, so none are applied.
    from .rules import Verdict, check_scope

    lines: list[str] = []
    violations = 0
    # check_scope gives each requirement's findings together, in id order
    for expr_id, group in groupby(check_scope(model, args.scope), attrgetter("expression_id")):
        expr, found = model.expression(expr_id), list(group)
        summary = " ".join(
            f"{f.rule_id}={'S' if f.verdict is Verdict.SATISFY else 'V'}" for f in found)
        lines.append(f"{expr_id} {summary}")
        for finding in found:
            if finding.verdict is not Verdict.VIOLATE:
                continue
            violations += 1
            span = finding.span if finding.span is not None else (0, len(expr.text))
            evidence = expr.text[span[0]:span[1]]
            lines.append(f"  {finding.rule_id} violation at {span[0]}..{span[1]}: "
                         f"{finding.message} [{evidence}]")
    _emit("\n".join(lines) + "\n" if lines else "", args.out)
    return 1 if violations else 0


def _cmd_parse(model: Model, args: argparse.Namespace) -> int:
    from .parser import parse_statement

    expr = model.expression(args.req_id)
    if expr.is_set:
        raise UnknownIdError(f"{expr.id!r} is a set; parse takes a requirement id")
    lines = [f"id: {expr.id}", f"text: {expr.text}"]
    try:
        statement, diag = parse_statement(expr.text, model.glossary, model.catalog)
    except MbsrError as exc:
        lines.append(f"parse error: {exc}")
        _emit("\n".join(lines) + "\n", args.out)
        return 1
    shown = expr.statement if expr.statement is not None else statement
    lines.append(f"pattern: {shown.pattern}")
    lines.append(f"shall_count: {diag.shall_count}")
    for key in model.catalog.patterns[shown.pattern].slot_order:
        slot = shown.slot(key)
        if slot is None:
            continue
        lines.append(f"{key}: {slot.text}")
        if slot.binding is not None:
            lines.append(f"{key}_ref: {slot.binding}")
    if diag.unconsumed:
        ranges = ", ".join(f"{s}..{e}" for s, e in diag.unconsumed)
        lines.append(f"unconsumed: {ranges}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_metrics(model: Model, args: argparse.Namespace) -> int:
    from .metrics import compute_slot_completeness, load_history_csv, render_history_csv

    # the model is dropped at exit, so the instance is not recorded in it
    instance = compute_slot_completeness(model, args.scope)
    path = Path(args.history) if args.history else None
    history = load_history_csv(path.read_text(encoding="utf-8")) if path and path.exists() else []
    text = render_history_csv(history + [instance])
    if path:
        path.write_text(text, encoding="utf-8")
    _emit(text, args.out)
    return 0


def _cmd_trace(model: Model, args: argparse.Namespace) -> int:
    view = bidirectional_trace(model, args.req_id, max_depth=args.depth)
    lines = [f"id: {view.expression_id}\n"]
    lines += [f"{field}: {', '.join(getattr(view, field)) or '-'}\n"
              for field in TraceView._fields[1:]]
    _emit("".join(lines), args.out)
    return 0


# the scope as a table in args.format, csv or md, for matrix and the csv export
def _table(model: Model, args: argparse.Namespace, columns: list[str]) -> int:
    _emit(export_table(model, args.scope, columns) if args.format == "csv" else
          markdown_table(columns, table_rows(model, args.scope, columns)), args.out)
    return 0


def _cmd_matrix(model: Model, args: argparse.Namespace) -> int:
    # every automated rule keeps its column, a disabled one too
    return _table(model, args, ["id", *(rule.rule_id for rule in model.catalog.automated_rules()),
                                TBX_ID])


def _cmd_export(model: Model, args: argparse.Namespace) -> int:
    if args.format == "csv":
        return _table(model, args, ["id", "name", "text", *SLOT_KEYS] if args.columns is None
                      else list(split_list(args.columns)))
    if args.format == "xmi":
        _emit(export_xmi(model, args.scope), args.out)
    elif args.format == "reqif":
        mapping = None
        if args.mapping:
            mapping = load_attribute_mapping(
                Path(args.mapping).read_text(encoding="utf-8"))
        _emit(export_reqif(model, args.scope, mapping), args.out)
    elif args.format == "md":
        _emit(generate_report(model, args.scope, args.template), args.out)
    elif args.format == "dot":
        _emit(export_dot(model, args.scope), args.out)
    else:
        _emit(serialize_corpus(model), args.out)
    return 0


def _cmd_glossary(model: Model, args: argparse.Namespace) -> int:
    if not args.check:
        lines = []
        for term in model.glossary.terms():
            parts = [term.term]
            if term.synonyms:
                parts.append("(= " + ", ".join(sorted(term.synonyms)) + ")")
            if term.allocations:
                parts.append("-> " + ", ".join(sorted(term.allocations)))
            if term.definition:
                parts.append(f": {term.definition}")
            lines.append(" ".join(parts))
        _emit("\n".join(lines) + "\n" if lines else "", args.out)
        return 0
    element_names = {e.name for e in model.elements()}
    lines = []
    total = 0
    for expr in model.scope_requirements(args.scope):
        undefined = find_undefined(expr.text, model.glossary, element_names)
        for token in undefined:
            lines.append(f"{expr.id}: {token}")
            total += 1
    _emit("\n".join(lines) + "\n" if lines else "", args.out)
    print(f"{total} undefined term(s)", file=sys.stderr)
    return 1 if total else 0


def _cmd_validate(model: Model, args: argparse.Namespace) -> int:
    exprs = model.expressions()
    sets = sum(1 for e in exprs if e.is_set)
    print(f"ok: {len(model.elements())} element(s), {len(exprs) - sets} "
          f"requirement(s), {sets} set(s), {len(model.glossary)} term(s), "
          f"{len(model.links())} link(s)", file=sys.stderr)
    return 0


_COMMANDS = {
    "lint": _cmd_lint,
    "parse": _cmd_parse,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "matrix": _cmd_matrix,
    "export": _cmd_export,
    "glossary": _cmd_glossary,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        if args.strict:
            warnings.simplefilter("error", TraceDiscouragedWarning)
        try:
            return _COMMANDS[args.command](_load_model(args), args)
        except (MbsrError, TraceDiscouragedWarning, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
