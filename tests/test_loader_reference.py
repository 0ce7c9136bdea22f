"""Corpus loading: seeded equivalence with the reference loader.

The reference below is `loads_corpus` as first written (per-attribute
decoding, per-key regex test, Enum-call kind lookup, one error wrapper per
model call), kept here in full so that it shares no loader code with the
package. Over seeded mutations of a corpus, `loads_corpus` must build the
same model or raise the same error, with the same message and line.
"""

import random
import re
from datetime import datetime

import pytest

from mbsr import AttributeDef, ValueKind, default_catalog, loads_corpus, serialize_corpus
from mbsr.errors import CorpusValidationError, MbsrError
from mbsr.glossary import GlossaryTerm
from mbsr.model import (
    AttributeValue,
    ElementKind,
    ExpressionKind,
    LinkKind,
    Model,
    ModelElement,
    RequirementExpression,
    RequirementSet,
    SlotValue,
    StructuredStatement,
)
from mbsr.trace import add_link
from tests.conftest import fixed_clock
from tests.test_blockfile import reference_parse_blocks

BLOCK_KINDS = ("element", "requirement", "set", "term", "link")
_SLOT_TEXT_KEYS = {f"sr{n}": f"SR{n}" for n in range(1, 6)}
_SLOT_REF_KEYS = {f"sr{n}_ref": f"SR{n}" for n in range(1, 6)}


def _wrap(block, exc):
    return CorpusValidationError(
        f"[{block.kind} {block.ident}] {type(exc).__name__}: {exc}", block.line)


def _split_list(value):
    return [item.strip() for item in value.split(",") if item.strip()]


def _attribute_value(catalog, key, raw, block):
    attr_def = catalog.attributes.get(key)
    if attr_def is None:
        raise CorpusValidationError(
            f"[{block.kind} {block.ident}] unknown attribute key {key!r}",
            block.field_lines.get(key, block.line))
    if attr_def.value_kind == ValueKind.ENUM:
        return AttributeValue.enum(raw)
    if attr_def.value_kind == ValueKind.ELEMENT_REF:
        return AttributeValue.ref(raw)
    if attr_def.value_kind == ValueKind.TIMESTAMP:
        try:
            return AttributeValue.stamp(datetime.fromisoformat(raw))
        except ValueError:
            raise CorpusValidationError(
                f"[{block.kind} {block.ident}] {key}: not an ISO-8601 timestamp: {raw!r}",
                block.field_lines.get(key, block.line)) from None
    return AttributeValue.text(raw)


def _is_attribute_key(key):
    return bool(re.match(r"^[AX][A-Za-z0-9]", key))


def _expression_kind(block):
    raw = block.fields.get("kind", ExpressionKind.REQUIREMENT.value)
    try:
        return ExpressionKind(raw)
    except ValueError:
        raise CorpusValidationError(
            f"[{block.kind} {block.ident}] unknown expression kind {raw!r}",
            block.line) from None


def _statement_from_fields(block):
    pattern = block.fields.get("pattern")
    slot_values = {}
    for low, key in _SLOT_TEXT_KEYS.items():
        text = block.fields.get(low)
        ref = block.fields.get(f"{low}_ref")
        if text is None:
            if ref is not None:
                raise CorpusValidationError(
                    f"[{block.kind} {block.ident}] {low}_ref given without {low}",
                    block.field_lines.get(f"{low}_ref", block.line))
            continue
        slot_values[key] = SlotValue(text, ref)
    if pattern is None:
        if slot_values:
            raise CorpusValidationError(
                f"[{block.kind} {block.ident}] slot values given without a pattern",
                block.line)
        return None
    try:
        return StructuredStatement(pattern, slot_values)
    except MbsrError as exc:
        raise _wrap(block, exc) from exc


def _load_requirement(model, block):
    reserved = {"name", "kind", "text", "pattern"}
    attributes = {}
    for key, raw in block.fields.items():
        if key in reserved or key in _SLOT_TEXT_KEYS or key in _SLOT_REF_KEYS:
            continue
        if not _is_attribute_key(key):
            raise CorpusValidationError(
                f"[requirement {block.ident}] unknown key {key!r}",
                block.field_lines.get(key, block.line))
        attributes[key] = _attribute_value(model.catalog, key, raw, block)
    expr = RequirementExpression(
        id=block.ident,
        name=block.fields.get("name", block.ident),
        text=block.fields.get("text", ""),
        statement=_statement_from_fields(block),
        attributes=attributes,
        kind=_expression_kind(block),
    )
    try:
        model.add_expression(expr)
    except MbsrError as exc:
        raise _wrap(block, exc) from exc


def _load_set_shell(model, block):
    reserved = {"name", "kind", "members"}
    attributes = {}
    for key, raw in block.fields.items():
        if key in reserved:
            continue
        if not _is_attribute_key(key):
            raise CorpusValidationError(
                f"[set {block.ident}] unknown key {key!r}",
                block.field_lines.get(key, block.line))
        attributes[key] = _attribute_value(model.catalog, key, raw, block)
    rset = RequirementSet(
        id=block.ident,
        name=block.fields.get("name", block.ident),
        attributes=attributes,
        kind=_expression_kind(block),
    )
    try:
        model.add_set(rset)
    except MbsrError as exc:
        raise _wrap(block, exc) from exc


def _load_element(model, block):
    known = {"name", "kind"}
    for key in block.fields:
        if key not in known:
            raise CorpusValidationError(
                f"[element {block.ident}] unknown key {key!r}",
                block.field_lines.get(key, block.line))
    try:
        kind = ElementKind(block.fields.get("kind", "Other"))
    except ValueError:
        raise CorpusValidationError(
            f"[element {block.ident}] unknown element kind {block.fields.get('kind')!r}",
            block.line) from None
    try:
        model.add_element(ModelElement(block.ident, block.fields.get("name", block.ident), kind))
    except MbsrError as exc:
        raise _wrap(block, exc) from exc


def _load_term(model, block):
    known = {"definition", "source", "synonyms", "allocations"}
    for key in block.fields:
        if key not in known:
            raise CorpusValidationError(
                f"[term {block.ident}] unknown key {key!r}",
                block.field_lines.get(key, block.line))
    allocations = tuple(_split_list(block.fields.get("allocations", "")))
    for element_id in allocations:
        if not model.has_element(element_id):
            raise CorpusValidationError(
                f"[term {block.ident}] allocation {element_id!r} is not a known element",
                block.line)
    term = GlossaryTerm(
        term=block.ident,
        synonyms=tuple(_split_list(block.fields.get("synonyms", ""))),
        definition=block.fields.get("definition", ""),
        source=block.fields.get("source", ""),
        allocations=allocations,
    )
    try:
        model.glossary.add_term(term)
    except MbsrError as exc:
        raise _wrap(block, exc) from exc


def _fill_set(model, block):
    members = _split_list(block.fields.get("members", ""))
    if not members:
        return
    try:
        model.set_members(block.ident, members, touch=False)
    except MbsrError as exc:
        raise _wrap(block, exc) from exc


def _load_link(model, block):
    known = {"kind", "source", "target"}
    for key in block.fields:
        if key not in known:
            raise CorpusValidationError(
                f"[link {block.ident}] unknown key {key!r}",
                block.field_lines.get(key, block.line))
    missing = known - set(block.fields)
    if missing:
        raise CorpusValidationError(
            f"[link {block.ident}] missing key(s) {sorted(missing)}", block.line)
    try:
        kind = LinkKind(block.fields["kind"])
    except ValueError:
        raise CorpusValidationError(
            f"[link {block.ident}] unknown link kind {block.fields['kind']!r}",
            block.line) from None
    try:
        add_link(model, kind, block.fields["source"], block.fields["target"],
                 link_id=block.ident, touch=False)
    except MbsrError as exc:
        raise _wrap(block, exc) from exc


def reference_loads_corpus(text, catalog=None, clock=None):
    model = Model(catalog=catalog, clock=clock)
    blocks = reference_parse_blocks(text)
    by_kind = {kind: [] for kind in BLOCK_KINDS}
    for block in blocks:
        if block.kind not in by_kind:
            raise CorpusValidationError(f"unknown block kind {block.kind!r}", block.line)
        by_kind[block.kind].append(block)
    for block in by_kind["element"]:
        _load_element(model, block)
    for block in by_kind["term"]:
        _load_term(model, block)
    for block in by_kind["requirement"]:
        _load_requirement(model, block)
    for block in by_kind["set"]:
        _load_set_shell(model, block)
    for block in by_kind["set"]:
        _fill_set(model, block)
    for block in by_kind["link"]:
        _load_link(model, block)
    return model


BASE = """\
[element blk-sc]
name = Spacecraft
kind = Block

[element mode-safe]
name = Safe
kind = Mode

[term Spacecraft]
allocations = blk-sc

[term Heaters]
definition = Survival heaters
synonyms = Heater

[requirement R-1]
text = The Spacecraft shall log Events within 1 s.
pattern = Iso1
sr2 = Spacecraft
sr2_ref = blk-sc
sr3 = log Events
sr5 = within 1 s
A01 = Flows down from objective 1
A30 = Draft
A34 = High
X02 = blk-sc

[requirement R-2]
kind = Need
text = While in Safe mode, the Spacecraft shall keep Heaters on within 5 s.
A14 = 2001-02-03T04:05:06+00:00
A40 = Functional
A34 = High

[requirement R-3]
text = The Spacecraft shall TBD.
A01 = Flows down from objective 1

[set S-1]
name = Leaf
members = R-1, R-3
A30 = Draft

[set S-0]
members = S-1
A01 = Top

[link lk-1]
kind = Derive
source = R-3
target = R-1

[link lk-2]
kind = Refine
source = mode-safe
target = R-2
"""

_KEYS = ("A01", "A08", "A14", "A15", "A30", "A34", "A99", "X02", "Xq", "Ab", "A", "B1", "x1",
         "kind", "pattern", "sr1", "sr1_ref", "sr4", "sr4_ref", "members", "name", "text",
         "sr6", "source", "target", "definition", "synonyms", "allocations")
# no Trace link kind: its discouraged-practice warning is an error under -W error
_VALUES = ("", "High", "Low", "Bogus", "Draft", "Test", "not-a-date", "2026-01-01",
           "2026-01-01T00:00:00+00:00", "blk-sc", "mode-safe", "blk-none", "Need",
           "Requirement", "Wish", "Iso1", "Iso2", "Carson", "Nope", "Spacecraft",
           "R-1", "R-2, R-3", "S-1", "TBD margin", "Block", "Mode", "Gadget", "Derive",
           "Refine", "Satisfy", "Copy", "Containment", "Relates", "R1", "R-9",
           "R-1, R-1", "Heater", "Heaters, Heater")


def _mutate(rng, text):
    lines = text.split("\n")
    for _ in range(rng.randrange(1, 4)):
        body = [i for i, line in enumerate(lines) if " = " in line]
        roll = rng.random()
        if roll < 0.4:
            i = rng.choice(body)
            lines[i] = lines[i].split(" = ")[0] + " = " + rng.choice(_VALUES)
        elif roll < 0.8:
            i = rng.choice(body)
            key = rng.choice(_KEYS)
            if not any(line.startswith(key + " = ") for line in lines[:i + 1][-12:]):
                lines.insert(i + 1, f"{key} = {rng.choice(_VALUES)}")
        else:
            del lines[rng.choice(body)]
    return "\n".join(lines)


def _outcome(load, text, catalog):
    try:
        model = load(text, catalog, clock=fixed_clock)
    except MbsrError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return serialize_corpus(model), [(e.id, e.kind, e.attributes) for e in model.expressions()]


@pytest.fixture(scope="module")
def ref_catalog():
    catalog = default_catalog()
    catalog.attributes["X02"] = AttributeDef("X02", "Owner", value_kind=ValueKind.ELEMENT_REF)
    return catalog


def test_base_corpus_loads(ref_catalog):
    assert len(loads_corpus(BASE, ref_catalog).expressions()) == 5


@pytest.mark.parametrize("seed", [7, 19, 2026])
def test_loads_corpus_matches_reference(seed, ref_catalog):
    rng = random.Random(seed)
    for _ in range(600):
        text = _mutate(rng, BASE)
        assert _outcome(loads_corpus, text, ref_catalog) == \
            _outcome(reference_loads_corpus, text, ref_catalog), text
