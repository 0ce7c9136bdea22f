"""File formats: corpus load/save, XMI, ReqIF-lite, CSV tables, reports.

The corpus block format is the storage format and the only one that is
loaded as well as saved with full fidelity. XMI export follows the profile
element layout (one Requirement_Expression per requirement, slot references
by internal id, mangled attribute names) and can re-import its own output.
ReqIF export is deliberately lossy: slot structure flattens to statement
text and model element references are dropped, which mirrors how generic
requirement interchange loses the model-based content; the mapping file
controls attribute naming. No exporter changes the model's data. Tables
with a rule or characteristic column and the SetReview report run the rule
checkers, through `rules.scope_verdicts`, which fill the model's findings memo.
"""

from __future__ import annotations

import io
import re
import uuid
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterator

from .blockfile import Block, parse_blocks, render_blocks, split_list
from .catalog import SLOT_KEYS, AttributeDef, Catalog, ValueKind
from .errors import (
    CorpusValidationError,
    InvariantViolationError,
    MappingMissingError,
    MbsrError,
    UnknownColumnError,
)
from .glossary import GlossaryTerm, annotate
from .model import (
    FIXED_EPOCH,
    WHOLE_CORPUS,
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
    is_whole_corpus,
)
from .trace import add_link, kdr_view

# The modules that only some readers and writers use (parser, rules, metrics,
# csv and xml.etree) are imported inside those functions, so that loading a
# corpus and the plain exporters start sooner.

# (slot key, text field, binding field) per slot
_SLOT_FIELD_KEYS = tuple((key, key.lower(), f"{key.lower()}_ref") for key in SLOT_KEYS)
# block keys that are not attributes
_REQUIREMENT_KEYS = frozenset({"name", "kind", "text", "pattern"}.union(
    *((low, ref) for _, low, ref in _SLOT_FIELD_KEYS)))
_SET_KEYS = frozenset({"name", "kind", "members"})
_ELEMENT_KEYS = frozenset({"name", "kind"})
_TERM_KEYS = frozenset({"definition", "source", "synonyms", "allocations"})
_LINK_KEYS = frozenset({"kind", "source", "target"})

XMI_NS = "http://www.omg.org/spec/XMI/20131001"
PROFILE = "Model_Based_Structured_Requirements_Profile"
PROFILE_NS = "urn:mbsr:profile"
REQIF_NS = "http://www.omg.org/spec/ReqIF/20110401/reqif.xsd"

# profile tag -> (is a set, expression kind); export_xmi reads the inverse
_XMI_TAGS = {
    "Requirement_Expression": (False, ExpressionKind.REQUIREMENT),
    "Need": (False, ExpressionKind.NEED),
    "Requirement_Set": (True, ExpressionKind.REQUIREMENT),
    "Need_Set": (True, ExpressionKind.NEED),
}
_XMI_TAG_OF = {shape: tag for tag, shape in _XMI_TAGS.items()}

XMI_SLOT_NAMES = {
    "SR1": "SR1_Condition",
    "SR2": "SR2_Subject",
    "SR3": "SR3_Action",
    "SR4": "SR4_Object",
    "SR5": "SR5_Constraint_of_Action",
}


# --- corpus loading ---


def _block_error(block: Block, message: str, key: str | None = None) -> CorpusValidationError:
    """A load error naming the block, at the line of its field key, else its own."""
    return CorpusValidationError(f"[{block.kind} {block.ident}] {message}",
                                 block.field_lines.get(key, block.line))


def _decode_attribute(attr_def: AttributeDef, raw: str) -> AttributeValue:
    """Typed value of a stored attribute string; ValueError for a timestamp
    that is not ISO-8601."""
    if attr_def.value_kind == ValueKind.TIMESTAMP:
        return AttributeValue.stamp(datetime.fromisoformat(raw))
    return AttributeValue(attr_def.value_kind, raw)


_ATTRIBUTE_KEY_RE = re.compile(r"[AX][A-Za-z0-9]")


def _check_keys(block: Block, known: frozenset[str]) -> None:
    for key in block.fields:
        if key not in known:
            raise _block_error(block, f"unknown key {key!r}", key)


def _load_element(model: Model, block: Block) -> None:
    _check_keys(block, _ELEMENT_KEYS)
    try:
        kind = ElementKind(block.fields.get("kind", "Other"))
    except ValueError:
        raise _block_error(block, f"unknown element kind {block.fields.get('kind')!r}") from None
    model.add_element(ModelElement(block.ident, block.fields.get("name", block.ident), kind))


def _load_term(model: Model, block: Block) -> None:
    _check_keys(block, _TERM_KEYS)
    allocations = split_list(block.fields.get("allocations", ""))
    for element_id in allocations:
        if not model.has_element(element_id):
            raise _block_error(block, f"allocation {element_id!r} is not a known element")
    term = GlossaryTerm(
        term=block.ident,
        synonyms=split_list(block.fields.get("synonyms", "")),
        definition=block.fields.get("definition", ""),
        source=block.fields.get("source", ""),
        allocations=allocations,
    )
    model.glossary.add_term(term)


def _expression_kind(block: Block) -> ExpressionKind:
    raw = block.fields.get("kind", ExpressionKind.REQUIREMENT.value)
    try:
        return ExpressionKind(raw)
    except ValueError:
        raise _block_error(block, f"unknown expression kind {raw!r}") from None


def _statement_from_fields(block: Block) -> StructuredStatement | None:
    pattern = block.fields.get("pattern")
    slot_values: dict[str, SlotValue] = {}
    for key, low, ref_key in _SLOT_FIELD_KEYS:
        text = block.fields.get(low)
        ref = block.fields.get(ref_key)
        if text is None:
            if ref is not None:
                raise _block_error(block, f"{ref_key} given without {low}", ref_key)
            continue
        slot_values[key] = SlotValue(text, ref)
    if pattern is None:
        if slot_values:
            raise _block_error(block, "slot values given without a pattern")
        return None
    return StructuredStatement(pattern, slot_values)


def _read_attributes(catalog: Catalog, block: Block,
                     reserved: frozenset[str]) -> dict[str, AttributeValue]:
    """Attribute fields of a requirement or set block; any other key must be
    reserved."""
    attributes: dict[str, AttributeValue] = {}
    for key, raw in block.fields.items():
        if key in reserved:
            continue
        if not _ATTRIBUTE_KEY_RE.match(key):
            raise _block_error(block, f"unknown key {key!r}", key)
        attr_def = catalog.attributes.get(key)
        if attr_def is None:
            raise _block_error(block, f"unknown attribute key {key!r}", key)
        try:
            attributes[key] = _decode_attribute(attr_def, raw)
        except ValueError:
            raise _block_error(block, f"{key}: not an ISO-8601 timestamp: {raw!r}", key) from None
    return attributes


def _load_requirement(model: Model, block: Block) -> None:
    attributes = _read_attributes(model.catalog, block, _REQUIREMENT_KEYS)
    expr = RequirementExpression(
        id=block.ident,
        name=block.fields.get("name", block.ident),
        text=block.fields.get("text", ""),
        statement=_statement_from_fields(block),
        attributes=attributes,
        kind=_expression_kind(block),
    )
    model.add_expression(expr)


def _load_set_shell(model: Model, block: Block) -> None:
    rset = RequirementSet(
        id=block.ident,
        name=block.fields.get("name", block.ident),
        attributes=_read_attributes(model.catalog, block, _SET_KEYS),
        kind=_expression_kind(block),
    )
    model.add_set(rset)


def _fill_set(model: Model, block: Block) -> None:
    members = split_list(block.fields.get("members", ""))
    if members:
        model.set_members(block.ident, list(members), touch=False)


def _load_link(model: Model, block: Block) -> None:
    _check_keys(block, _LINK_KEYS)
    missing = _LINK_KEYS - block.fields.keys()
    if missing:
        raise _block_error(block, f"missing key(s) {sorted(missing)}")
    try:
        kind = LinkKind(block.fields["kind"])
    except ValueError:
        raise _block_error(block, f"unknown link kind {block.fields['kind']!r}") from None
    add_link(model, kind, block.fields["source"], block.fields["target"],
             link_id=block.ident, touch=False)


# (block kind, loader) per pass, in load order: set members and links need
# every node they may name
_PASSES = (
    ("element", _load_element),
    ("term", _load_term),
    ("requirement", _load_requirement),
    ("set", _load_set_shell),
    ("set", _fill_set),
    ("link", _load_link),
)


def loads_corpus(text: str, catalog: Catalog | None = None,
                 clock: Callable[[], datetime] | None = None,
                 model_uuid: uuid.UUID | None = None) -> Model:
    """Build a fully validated model from corpus text.

    A model error from loading a block is re-raised as a
    CorpusValidationError naming the block and its line."""
    model = Model(catalog=catalog, clock=clock, model_uuid=model_uuid)
    blocks = parse_blocks(text)
    by_kind: dict[str, list[Block]] = {kind: [] for kind, _ in _PASSES}
    for block in blocks:
        if block.kind not in by_kind:
            raise CorpusValidationError(
                f"unknown block kind {block.kind!r}", block.line)
        by_kind[block.kind].append(block)
    for kind, load in _PASSES:
        for block in by_kind[kind]:
            try:
                load(model, block)
            except CorpusValidationError:
                raise
            except MbsrError as exc:
                raise _block_error(block, f"{type(exc).__name__}: {exc}") from exc
    return model


def load_corpus(path: str | Path, catalog: Catalog | None = None,
                clock: Callable[[], datetime] | None = None,
                model_uuid: uuid.UUID | None = None) -> Model:
    return loads_corpus(Path(path).read_text(encoding="utf-8"),
                        catalog=catalog, clock=clock, model_uuid=model_uuid)


# --- corpus serialization ---


def _expression_block(expr: RequirementExpression) -> Block:
    fields: dict[str, str] = {"name": expr.name}
    if expr.kind != ExpressionKind.REQUIREMENT:
        fields["kind"] = expr.kind.value
    if expr.is_set:
        if expr.members:
            fields["members"] = ", ".join(expr.members)
    else:
        if expr.text:
            fields["text"] = expr.text
        if expr.statement is not None:
            fields["pattern"] = expr.statement.pattern
            for key, low, ref_key in _SLOT_FIELD_KEYS:
                slot = expr.statement.slot(key)
                if slot is not None:
                    fields[low] = slot.text
                    if slot.binding is not None:
                        fields[ref_key] = slot.binding
    for key in sorted(expr.attributes):
        fields[key] = expr.attributes[key].display()
    return Block("set" if expr.is_set else "requirement", expr.id, 0, fields)


def serialize_corpus(model: Model) -> str:
    """Canonical corpus text: blocks grouped by kind, ids sorted, fixed keys."""
    blocks: list[Block] = []

    for element in model.elements():
        blocks.append(Block("element", element.element_id, 0, {
            "name": element.name, "kind": element.kind.value}))

    expressions = model.expressions()
    blocks.extend(_expression_block(e) for e in expressions if not e.is_set)
    blocks.extend(_expression_block(e) for e in expressions if e.is_set)

    for term in model.glossary.terms():
        fields: dict[str, str] = {}
        if term.definition:
            fields["definition"] = term.definition
        if term.source:
            fields["source"] = term.source
        if term.synonyms:
            fields["synonyms"] = ", ".join(sorted(term.synonyms))
        if term.allocations:
            fields["allocations"] = ", ".join(sorted(term.allocations))
        blocks.append(Block("term", term.term, 0, fields))

    for link in model.links():
        blocks.append(Block("link", link.link_id, 0, {
            "kind": link.kind.value, "source": link.source_id,
            "target": link.target_id}))

    return render_blocks(blocks)


def save_corpus(model: Model, path: str | Path) -> None:
    Path(path).write_text(serialize_corpus(model), encoding="utf-8")


# --- XMI export / import ---


def internal_id(model: Model, any_id: str) -> str:
    """Stable opaque id derived from (model uuid, public id)."""
    return "_" + uuid.uuid5(model.model_uuid, any_id).hex


def mangled_attribute_name(attr_def: AttributeDef) -> str:
    """Profile attribute name: key + display name, non-alphanumerics to '_',
    trailing '_' marking minimum-set membership."""
    base = re.sub(r"[^A-Za-z0-9]", "_", f"{attr_def.attribute_key} {attr_def.name}")
    return base + ("_" if attr_def.minimum_set else "")


# the characters XML 1.0 forbids, even as character references
_XML_FORBIDDEN_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_escape(value: str, kind: str, ident: str) -> str:
    """value escaped for a single-quoted XML attribute; CorpusValidationError
    naming the kind and id that hold it for a character XML 1.0 forbids."""
    if bad := _XML_FORBIDDEN_RE.search(value):
        raise CorpusValidationError(
            f"{kind} {ident!r}: character U+{ord(bad.group()):04X} cannot be written to XML 1.0")
    return (value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace("'", "&apos;").replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#9;"))


def _xml_element(tag: str, attrs: list[tuple[str, str]], kind: str, ident: str) -> str:
    lines = [f"  <{tag}"]
    for name, value in attrs:
        lines.append(f"      {name}='{_xml_escape(value, kind, ident)}'")
    lines.append("  />")
    return "\n".join(lines)


def export_xmi(model: Model, scope_id: str | None = None) -> str:
    """Profile XMI for the scope: named elements, requirements, sets.

    Requirement elements carry exactly the published attribute layout:
    xmi:id, base_Class, Id, Text, bound slots as SRn references, then
    attributes in ascending key order under mangled names. Attribute order
    is a documented normalization; emission is deterministic.
    """
    exprs = model.scope_expressions(scope_id)
    out: list[str] = [
        "<?xml version='1.0' encoding='UTF-8'?>",
        f"<xmi:XMI xmi:version='2.5' xmlns:xmi='{XMI_NS}' xmlns:{PROFILE}='{PROFILE_NS}'>",
    ]
    for element in model.elements():
        out.append(_xml_element(f"{PROFILE}:Named_Element", [
            ("xmi:id", internal_id(model, element.element_id)),
            ("Id", element.element_id),
            ("Name", element.name),
            ("Kind", element.kind.value),
        ], "element", element.element_id))
    for expr in exprs:
        base = internal_id(model, expr.id)
        attrs: list[tuple[str, str]] = [
            ("xmi:id", base + "_"),
            ("base_Class", base),
            ("Id", expr.id),
        ]
        if expr.is_set:
            attrs.append(("Name", expr.name))
            members = " ".join(internal_id(model, m) for m in expr.members)
            attrs.append(("Members", members))
        else:
            attrs.append(("Text", expr.text))
            if expr.statement is not None:
                for key in SLOT_KEYS:
                    slot = expr.statement.slot(key)
                    if slot is not None and slot.binding is not None:
                        attrs.append((XMI_SLOT_NAMES[key],
                                      internal_id(model, slot.binding)))
            for key in sorted(expr.attributes):
                attr_def = model.catalog.attributes[key]
                attrs.append((mangled_attribute_name(attr_def),
                              expr.attributes[key].display()))
        out.append(_xml_element(f"{PROFILE}:{_XMI_TAG_OF[expr.is_set, expr.kind]}", attrs,
                                "set" if expr.is_set else "requirement", expr.id))
    out.append("</xmi:XMI>")
    return "\n".join(out) + "\n"


def import_xmi(text: str, catalog: Catalog | None = None,
               clock: Callable[[], datetime] | None = None,
               model_uuid: uuid.UUID | None = None) -> Model:
    """Rebuild a model from XMI produced by export_xmi.

    Statement slots are re-derived by parsing Text; slot bindings are then
    restored from the SRn references. Requirement names are not carried by
    the profile layout, so the public id doubles as the name. Trace links
    are not part of the XMI surface. Every entry must be a profile entry
    that export_xmi writes. An error names the requirement, set or unknown
    entry by its Id, or by its xmi:id when the Id is blank.
    """
    from xml.etree import ElementTree

    from .parser import parse_statement

    model = Model(catalog=catalog, clock=clock, model_uuid=model_uuid)
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise CorpusValidationError(f"not well-formed XMI: {exc}") from exc

    xmi_id_key = f"{{{XMI_NS}}}id"
    q = f"{{{PROFILE_NS}}}"
    reverse_attr = {mangled_attribute_name(d): key
                    for key, d in model.catalog.attributes.items()}
    reverse_slot = {name: key for key, name in XMI_SLOT_NAMES.items()}
    fixed_names = {xmi_id_key, "base_Class", "Id", "Text", "Name", "Members", *reverse_slot}

    def _label(entry) -> str:
        """The message prefix naming an entry: its Id, else its xmi:id."""
        public = entry.get("Id")
        return f"{public}:" if public else f"xmi:id {entry.get(xmi_id_key, '')!r}:"

    public_of: dict[str, str] = {}
    elements, requirements, sets = [], [], []  # sets and requirements as (entry, kind)
    for entry in root:
        iid, public = entry.get(xmi_id_key), entry.get("Id")
        local = entry.tag[len(q):] if entry.tag.startswith(q) else None
        if iid and public:
            public_of[iid] = public
            if local != "Named_Element":
                public_of[iid.rstrip("_")] = public
        if local == "Named_Element":
            elements.append(entry)
        elif (shape := _XMI_TAGS.get(local)) is not None:
            (sets if shape[0] else requirements).append((entry, shape[1]))
        else:
            raise CorpusValidationError(f"{_label(entry)} unknown entry {entry.tag!r}")

    for entry in elements:
        label = f"element {entry.get('Id')!r}:"
        try:
            kind = ElementKind(entry.get("Kind", "Other"))
        except ValueError:
            raise CorpusValidationError(
                f"{label} unknown element kind {entry.get('Kind')!r}") from None
        with _naming(label):
            model.add_element(ModelElement(entry.get("Id", ""), entry.get("Name", ""), kind))

    def _resolve(ref: str, label: str, what: str) -> str:
        if ref not in public_of:
            raise CorpusValidationError(f"{label} {what} reference {ref!r} does not resolve")
        return public_of[ref]

    def _read_attrs(entry, label: str) -> dict[str, AttributeValue]:
        out: dict[str, AttributeValue] = {}
        for name, raw in entry.attrib.items():
            if name in fixed_names:
                continue
            key = reverse_attr.get(name)
            if key is None:
                raise CorpusValidationError(f"{label} unknown profile attribute {name!r}")
            try:
                out[key] = _decode_attribute(model.catalog.attributes[key], raw)
            except ValueError:
                raise CorpusValidationError(
                    f"{label} {name} is not an ISO-8601 timestamp: {raw!r}") from None
        return out

    for entry, kind in requirements:
        public = entry.get("Id", "")
        label = _label(entry)
        text_value = entry.get("Text", "")
        bindings = {key: _resolve(entry.get(name), label, "slot")
                    for name, key in reverse_slot.items() if entry.get(name) is not None}
        statement = None
        if bindings:
            try:
                parsed, _ = parse_statement(text_value, None, model.catalog)
            except MbsrError as exc:
                raise CorpusValidationError(
                    f"{label} slot references given but the text does not parse: "
                    f"{type(exc).__name__}: {exc}") from exc
            statement = StructuredStatement(parsed.pattern, {
                key: SlotValue(slot.text, bindings.get(key))
                for key, slot in parsed.slots().items() if slot is not None})
        attributes = _read_attrs(entry, label)
        with _naming(label):
            model.add_expression(RequirementExpression(
                id=public, name=public, text=text_value, statement=statement,
                attributes=attributes, kind=kind))

    for entry, kind in sets:
        set_id = entry.get("Id", "")
        label = _label(entry)
        attributes = _read_attrs(entry, label)
        with _naming(label):
            model.add_set(RequirementSet(
                id=set_id, name=entry.get("Name", set_id), attributes=attributes,
                kind=kind))
    for entry, _ in sets:
        label = _label(entry)
        members = [_resolve(ref, label, "member") for ref in entry.get("Members", "").split()]
        if members:
            with _naming(label):
                model.set_members(entry.get("Id", ""), members, touch=False)
    return model


@contextmanager
def _naming(label: str) -> Iterator[None]:
    """Re-raise a model error from importing one XMI entry, named by label."""
    try:
        yield
    except MbsrError as exc:
        raise CorpusValidationError(f"{label} {type(exc).__name__}: {exc}") from exc


# --- ReqIF-lite export ---


def load_attribute_mapping(text: str) -> dict[str, str]:
    """Parse 'KEY = ReqIF name' lines; '#' comments and blanks are skipped."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorpusValidationError(
                f"expected 'KEY = name': {line!r}", lineno)
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _identifier(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


def export_reqif(model: Model, scope_id: str | None = None,
                 mapping: dict[str, str] | None = None) -> str:
    """Minimal ReqIF: mapped attribute values and set hierarchy only.

    Slot structure flattens to the statement text and element references
    are dropped; that loss is inherent to the target format. Populated
    attributes without a mapping entry fail loudly rather than silently
    dropping data. CREATION-TIME is the fixed epoch.
    """
    mapping = dict(mapping or {})
    stamp = FIXED_EPOCH.isoformat()
    exprs = model.scope_requirements(scope_id)
    # (kind, name) -> IDENTIFIER, for the ...-REFs; ids are plain (model.ID_RE)
    # and so are the identifiers made from names, so none needs escaping
    ids: dict[tuple[str, str], str] = {}
    taken = {"export", "sot-requirement"}

    def identify(kind: str, name: str, base: str) -> str:
        """Hand out the IDENTIFIER of (kind, name), in output order: base, or
        the first free base-2, base-3, ... when an earlier one took base. An
        xsd:ID may not start with a digit, so a base that does gets "id-"."""
        if base[0].isdigit():
            base = f"id-{base}"
        ident, n = base, 1
        while ident in taken:
            n += 1
            ident = f"{base}-{n}"
        taken.add(ident)
        ids[kind, name] = ident
        return ident

    used_names: dict[str, None] = {"ReqIF.Text": None}  # in first-use order
    for expr in exprs:
        for key in sorted(expr.attributes):
            if key not in mapping:
                raise MappingMissingError(key)
            used_names.setdefault(mapping[key])

    out: list[str] = [
        "<?xml version='1.0' encoding='UTF-8'?>",
        f"<REQ-IF xmlns='{REQIF_NS}'>",
        "  <THE-HEADER>",
        "    <REQ-IF-HEADER IDENTIFIER='export'>",
        f"      <CREATION-TIME>{stamp}</CREATION-TIME>",
        "      <TITLE>Requirement export</TITLE>",
        "    </REQ-IF-HEADER>",
        "  </THE-HEADER>",
        "  <CORE-CONTENT>",
        "    <REQ-IF-CONTENT>",
        "      <SPEC-TYPES>",
        "        <SPEC-OBJECT-TYPE IDENTIFIER='sot-requirement' LONG-NAME='Requirement'>",
        "          <SPEC-ATTRIBUTES>",
    ]
    for name in used_names:
        ident = identify("ad", name, f"ad-{_identifier(name)}")
        long_name = _xml_escape(name, "mapping name", name)
        out.append(f"            <ATTRIBUTE-DEFINITION-STRING "
                   f"IDENTIFIER='{ident}' LONG-NAME='{long_name}' />")
    out.extend([
        "          </SPEC-ATTRIBUTES>",
        "        </SPEC-OBJECT-TYPE>",
        "      </SPEC-TYPES>",
        "      <SPEC-OBJECTS>",
    ])

    for expr in exprs:
        last_change = expr.attributes["A14"].display() if "A14" in expr.attributes else stamp
        ident = identify("object", expr.id, expr.id)
        out.append(f"        <SPEC-OBJECT IDENTIFIER='{ident}' LAST-CHANGE='{last_change}'>")
        out.append("          <TYPE><SPEC-OBJECT-TYPE-REF>sot-requirement"
                   "</SPEC-OBJECT-TYPE-REF></TYPE>")
        out.append("          <VALUES>")
        pairs = [("ReqIF.Text", expr.text)]
        for key in sorted(expr.attributes):
            pairs.append((mapping[key], expr.attributes[key].display()))
        for name, value in pairs:
            value = _xml_escape(value, "requirement", expr.id)
            out.append(f"            <ATTRIBUTE-VALUE-STRING THE-VALUE='{value}'>")
            out.append(f"              <DEFINITION><ATTRIBUTE-DEFINITION-STRING-REF>"
                       f"{ids['ad', name]}</ATTRIBUTE-DEFINITION-STRING-REF></DEFINITION>")
            out.append("            </ATTRIBUTE-VALUE-STRING>")
        out.append("          </VALUES>")
        out.append("        </SPEC-OBJECT>")
    out.append("      </SPEC-OBJECTS>")

    out.append("      <SPECIFICATIONS>")
    closers: list[str] = []  # the closing lines of the sets open above the next entry
    for node_id, depth in model.set_forest(scope_id):
        out.extend(reversed(closers[depth:]))
        del closers[depth:]
        expr = model.expression(node_id)
        # a top set is a SPECIFICATION, anything below it a SPEC-HIERARCHY
        pad = " " * (10 + 4 * depth if depth else 8)
        tag, kind, base = (("SPEC-HIERARCHY", "h", _identifier(f"h-{node_id}")) if depth
                           else ("SPECIFICATION", "specification", node_id))
        ident = identify(kind, node_id, base)
        if expr.is_set:
            out.append(f"{pad}<{tag} IDENTIFIER='{ident}' "
                       f"LONG-NAME='{_xml_escape(expr.name, 'set', node_id)}'>")
            out.append(f"{pad}  <CHILDREN>")
            closers.append(f"{pad}  </CHILDREN>\n{pad}</{tag}>")
        else:
            out.append(f"{pad}<SPEC-HIERARCHY IDENTIFIER='{ident}'>")
            out.append(f"{pad}  <OBJECT><SPEC-OBJECT-REF>{ids['object', node_id]}"
                       f"</SPEC-OBJECT-REF></OBJECT>")
            out.append(f"{pad}</SPEC-HIERARCHY>")
    out.extend(reversed(closers))
    out.append("      </SPECIFICATIONS>")
    out.extend([
        "    </REQ-IF-CONTENT>",
        "  </CORE-CONTENT>",
        "</REQ-IF>",
    ])
    return "\n".join(out) + "\n"


# --- requirement table CSV ---


def _verdict_letter(verdicts: dict, expr_id: str, node_id: str) -> str:
    """S (Satisfy), V (Violate) or M (none): the expression's verdict for the
    node in verdicts, a rules.scope_verdicts map."""
    verdict = verdicts[expr_id].get(node_id)
    return verdict.value[0] if verdict is not None else "M"


def table_rows(model: Model, scope_id: str | None, columns: list[str]) -> list[list[str]]:
    """The cells of export_table's data rows, header excluded."""
    if not columns:
        raise UnknownColumnError("no table columns given")
    for column in columns:
        if column in ("id", "name", "text") or column in SLOT_KEYS:
            continue
        if column in model.catalog.attributes or model.catalog.is_graph_node(column):
            continue
        raise UnknownColumnError(f"unknown table column {column!r}")
    verdicts: dict = {}
    if any(map(model.catalog.is_graph_node, columns)):  # only then load the rule checkers
        from .rules import scope_verdicts

        verdicts = scope_verdicts(model, scope_id)

    def cell(expr: RequirementExpression, column: str) -> str:
        if column == "id":
            return expr.id
        if column == "name":
            return expr.name
        if column == "text":
            return expr.text
        if column in SLOT_KEYS:
            if expr.statement is None:
                return ""
            slot = expr.statement.slot(column)
            return slot.text if slot is not None else ""
        if column in model.catalog.attributes:
            value = model.get_attribute(expr.id, column)
            return value.display() if value is not None else ""
        return _verdict_letter(verdicts, expr.id, column)

    return [[cell(expr, column) for column in columns]
            for expr in model.scope_requirements(scope_id)]


def export_table(model: Model, scope_id: str | None, columns: list[str]) -> str:
    """One CSV row per non-set expression in scope.

    Columns: id, name, text, SR1..SR5, any attribute key, or a rule or
    characteristic node id rendered as S/V/M (M = no verdict) from
    `rules.scope_verdicts`: a checked requirement's current findings, a
    Need's stored verdict links.
    """
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows([columns] + table_rows(model, scope_id, columns))
    return out.getvalue()


def markdown_table(header: list[str], rows: list[list[str]]) -> str:
    """A Markdown table: the header, its rule line, then one line per row."""
    return "".join(f"| {' | '.join(row)} |\n" for row in [header, ["---"] * len(header), *rows])


# --- Markdown reports ---


def _underline_terms(text: str, model: Model) -> str:
    spans = annotate(text, model.glossary)
    out: list[str] = []
    cursor = 0
    for start, end, _term in spans:
        out.append(text[cursor:start])
        out.append(f"<u>{text[start:end]}</u>")
        cursor = end
    out.append(text[cursor:])
    return "".join(out)


def _overview_report(model: Model, scope_id: str | None) -> str:
    from .metrics import compute_slot_completeness

    exprs = model.scope_requirements(scope_id)
    lines = ["# Requirements Overview", "",
             f"Scope: {scope_id or WHOLE_CORPUS}", "",
             "## Requirements", ""]
    for expr in exprs:
        lines.append(f"### {expr.id} {expr.name}".rstrip())
        lines.append("")
        lines.append(_underline_terms(expr.text, model) if expr.text else "(no text)")
        lines.append("")
    metric = compute_slot_completeness(model, scope_id)
    lines.extend([
        "## Completeness", "",
        f"Total requirements: {metric.total}",
        f"Pattern-complete: {metric.complete} ({metric.pct:.2f}%)",
        "Slot fill: " + ", ".join(
            f"{key} {count}" for key, count in zip(SLOT_KEYS, metric.slot_counts)),
        "",
        "## Key and Driving Requirements", "",
    ])
    rows = kdr_view(model, scope_id)
    if rows:
        for row in rows:
            chain = f" derives from {' -> '.join(row.derives_from)}" if row.derives_from else ""
            lines.append(f"- {row.expression_id} ({row.marker}){chain}")
    else:
        lines.append("(none flagged via A38)")
    lines.append("")
    return "\n".join(lines)


def _set_review_report(model: Model, scope_id: str | None) -> str:
    from .rules import TBX_RE, _attribute_placeholders, _plan, scope_verdicts

    # each set's requirement rows, in one pass over the set forest: a
    # requirement joins the rows of every set above it
    sections: dict[str, list[RequirementExpression]] = {}
    above: list[list[RequirementExpression]] = []
    for node_id, depth in model.set_forest(scope_id):
        del above[depth:]
        expr = model.expression(node_id)
        if expr.is_set:
            above.append(sections.setdefault(node_id, []))
        else:
            for rows in above:
                rows.append(expr)
    if not sections:
        return "# Set Review\n\n(no sets in scope)\n"
    # only the rules that run get a column, then TBX
    node_ids = [node_id for node_id, _, _ in _plan(model)[0]]
    verdicts = scope_verdicts(model, scope_id)
    lines = ["# Set Review", ""]

    # the whole corpus lists its sets in id order, a scope in pre-order
    for set_id in sorted(sections) if is_whole_corpus(scope_id) else sections:
        rset = model.expression(set_id)
        rows = sections[set_id]
        lines.append(f"## Set {set_id} ({rset.name})")
        lines.append("")
        lines.append(f"Direct members: {len(rset.members)}; "
                     f"transitive requirements: {len(rows)}")
        lines.append("")
        lines.append("### Satisfaction Matrix")
        lines.append("")
        lines.append(markdown_table(["requirement", *node_ids], [
            [expr.id, *(_verdict_letter(verdicts, expr.id, n) for n in node_ids)]
            for expr in rows]))
        lines.append("### TBX Summary")
        lines.append("")
        occurrences: list[str] = []
        for expr in rows:
            for match in TBX_RE.finditer(expr.text):
                occurrences.append(f"- {expr.id}: {match[0]} (text {match.start()}..{match.end()})")
            for key, match in _attribute_placeholders(expr):
                occurrences.append(f"- {expr.id}: {match[0]} (attribute {key})")
        lines.append(f"{len(occurrences)} unresolved placeholder(s)")
        lines.extend(occurrences)
        lines.append("")
    return "\n".join(lines)


def export_dot(model: Model, scope_id: str | None = None) -> str:
    """Graphviz digraph of the scope: expressions as boxes, elements as
    ellipses, one labeled edge per stored or synthesized containment link."""
    from .trace import all_links

    scoped = {e.id for e in model.scope_expressions(scope_id)}
    shown: set[str] = set(scoped)
    edges: list[tuple[str, str, str]] = []
    for link in all_links(model):
        if link.source_id in scoped or link.target_id in scoped:
            edges.append((link.source_id, link.target_id, link.kind.value))
            shown.add(link.source_id)
            shown.add(link.target_id)

    lines = ["digraph requirements {", "    rankdir=LR;"]
    for node_id in sorted(shown):
        if model.has_element(node_id):
            shape = "ellipse"
            # ids are plain (model.ID_RE); a name may hold a quote or backslash
            name = model.element(node_id).name.replace("\\", "\\\\").replace('"', '\\"')
            label = f"{node_id}\\n{name}"
        elif model.has_expression(node_id):
            shape = "box"
            label = node_id
        else:
            shape = "diamond"
            label = node_id
        lines.append(f'    "{node_id}" [shape={shape}, label="{label}"];')
    for source, target, kind in sorted(edges):
        lines.append(f'    "{source}" -> "{target}" [label="{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


REPORT_TEMPLATES = ("Overview", "SetReview")


def generate_report(model: Model, scope_id: str | None, template: str) -> str:
    """Markdown report; SetReview's verdict cells come from
    `rules.scope_verdicts`, as export_table's do."""
    if template == "Overview":
        return _overview_report(model, scope_id)
    if template == "SetReview":
        return _set_review_report(model, scope_id)
    raise InvariantViolationError(
        f"unknown report template {template!r}; expected one of {REPORT_TEMPLATES}")
