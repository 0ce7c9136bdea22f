"""Registries for guide rules, quality characteristics, attributes, and patterns.

The default catalog carries exactly 42 rules, 15 characteristics, 49 attributes,
and 3 statement patterns. Entries whose content is not publicly evidenced ship
as named placeholders and are meant to be overridden from a configuration file
in the block format (see blockfile).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .blockfile import Block, parse_blocks, split_list
from .errors import CatalogParseError, InvariantViolationError

# Rules with a checker implementation; catalog automation flags must agree.
AUTOMATED_RULE_IDS = frozenset({"R1", "R2", "R10", "R16"})

# Reserved id for the open-item token check; not one of R1..R42.
TBX_ID = "TBX"

SLOT_KEYS = ("SR1", "SR2", "SR3", "SR4", "SR5")


class PatternShape(NamedTuple):
    slot_order: tuple[str, ...]  # every slot is mandatory; no other slot is allowed
    template: str                # renders the slots back to statement text


# The one definition of each statement pattern's slots and their rendering.
PATTERNS: dict[str, PatternShape] = {
    "Iso1": PatternShape(("SR2", "SR3", "SR5"), "The {SR2} shall {SR3} {SR5}."),
    "Iso2": PatternShape(SLOT_KEYS, "{SR1}, the {SR2} shall {SR3} {SR4} {SR5}."),
    "Carson": PatternShape(("SR2", "SR3", "SR5", "SR1"),
                           "The {SR2} shall {SR3} {SR5} under {SR1}."),
}

_X_KEY_RE = re.compile(r"^X[A-Za-z0-9]+$")


class Automation(Enum):
    AUTOMATED = "Automated"
    MANUAL = "Manual"


class Applicability(Enum):
    INDIVIDUAL = "Individual"
    SET = "Set"


class Derivation(Enum):
    FORMAL_TRANSFORMATION = "FormalTransformation"
    AGREED_TO_OBLIGATION = "AgreedToObligation"


class ValueKind(Enum):
    ENUM = "Enum"
    TEXT = "Text"
    ELEMENT_REF = "ElementRef"
    TIMESTAMP = "Timestamp"


@dataclass(frozen=True)
class RuleDef:
    rule_id: str
    name: str
    description: str
    automation: Automation
    contributes_to: frozenset[str] = frozenset()
    enabled: bool = True
    # checker tuning knobs, e.g. phrase lists; keys depend on the rule
    params: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class CharacteristicDef:
    characteristic_id: str
    name: str
    applicability: Applicability
    derivation: Derivation
    nasa_mapped: bool
    iso_mapped: bool


@dataclass(frozen=True)
class AttributeDef:
    attribute_key: str
    name: str
    group: str = ""
    minimum_set: bool = False
    value_kind: ValueKind = ValueKind.TEXT
    value_set: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PatternDef:
    pattern_id: str
    slot_order: tuple[str, ...]
    # slot key -> leading keywords that introduce the slot in statement text
    connective_words: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class Catalog:
    rules: dict[str, RuleDef]
    characteristics: dict[str, CharacteristicDef]
    attributes: dict[str, AttributeDef]
    patterns: dict[str, PatternDef]
    case_insensitive_terms: bool = False
    forbid_trace_links: bool = False

    def characteristics_for(self, applicability: Applicability) -> list[CharacteristicDef]:
        return [c for c in self.characteristics.values() if c.applicability == applicability]

    def is_graph_node(self, node_id: str) -> bool:
        """True for rule/characteristic/TBX ids addressable as trace endpoints."""
        return node_id == TBX_ID or node_id in self.rules or node_id in self.characteristics


CONDITION_MARKERS = ("While", "When", "If", "During", "Where", "Upon", "Under")

CONSTRAINT_MARKERS = (
    "with", "within", "in less than", "in under", "at least", "at most",
    "no more than", "no less than", "between", "to within", "every", "per",
)

_IRREGULAR_PARTICIPLES = (
    "done", "made", "given", "taken", "sent", "held", "kept", "set", "put",
    "built", "shown",
)

_SUPERFLUOUS_PHRASES = ("be capable of", "be able to")

# (key, name, minimum_set, value_kind, value_set) for attributes with known content
_NAMED_ATTRIBUTES: dict[str, tuple[str, bool, ValueKind, tuple[str, ...] | None]] = {
    "A01": ("Rationale Statement", True, ValueKind.TEXT, None),
    "A08": ("System V&V Primary Method", True, ValueKind.ENUM,
            ("Test", "Analysis", "Inspection", "Demonstration")),
    "A10": ("System V&V Level", False, ValueKind.TEXT, None),
    "A14": ("Date of Last Change", False, ValueKind.TIMESTAMP, None),
    "A15": ("Unique Identifier", True, ValueKind.TEXT, None),
    "A16": ("Unique Name", True, ValueKind.TEXT, None),
    "A28": ("Need or Requirement Verification Status", True, ValueKind.ENUM,
            ("NotStarted", "InProgress", "Complete")),
    "A30": ("Status of the Need or Requirement", False, ValueKind.ENUM,
            ("Draft", "Reviewed", "Approved", "Baselined")),
    "A34": ("Priority", True, ValueKind.ENUM, ("High", "Medium", "Low")),
    "A38": ("Key & Driving", False, ValueKind.ENUM, ("K", "D", "K+D", "None")),
    "A40": ("Type", True, ValueKind.TEXT, None),
}

_NAMED_RULES: dict[str, tuple[str, str, frozenset[str], dict[str, tuple[str, ...]]]] = {
    "R1": ("Structured Statement",
           "Statement decomposes into the pattern slots with a single 'shall'.",
           frozenset({"C3", "C4", "C5", "C7", "C9"}), {}),
    "R2": ("Active Voice",
           "Statement avoids passive constructions (be-verb + participle + 'by').",
           frozenset({"C3"}), {"participles": _IRREGULAR_PARTICIPLES}),
    "R10": ("Superfluous Verbiage",
            "Statement avoids configured filler phrases.",
            frozenset({"C3"}), {"phrases": _SUPERFLUOUS_PHRASES}),
    "R16": ("Avoid Shall Not",
            "Statement does not contain 'shall not'.",
            frozenset({"C3"}), {}),
}

_CHARACTERISTIC_ROWS = (
    ("C1", "Necessary", Applicability.INDIVIDUAL, Derivation.FORMAL_TRANSFORMATION, True, True),
    ("C2", "Appropriate", Applicability.INDIVIDUAL, Derivation.FORMAL_TRANSFORMATION, True, True),
    ("C3", "Unambiguous", Applicability.INDIVIDUAL, Derivation.AGREED_TO_OBLIGATION, True, True),
    ("C4", "Complete", Applicability.INDIVIDUAL, Derivation.AGREED_TO_OBLIGATION, True, True),
    ("C5", "Singular", Applicability.INDIVIDUAL, Derivation.FORMAL_TRANSFORMATION, True, True),
    ("C6", "Feasible", Applicability.INDIVIDUAL, Derivation.AGREED_TO_OBLIGATION, True, True),
    ("C7", "Verifiable", Applicability.INDIVIDUAL, Derivation.AGREED_TO_OBLIGATION, True, True),
    ("C8", "Correct", Applicability.INDIVIDUAL, Derivation.FORMAL_TRANSFORMATION, True, True),
    ("C9", "Conforming", Applicability.INDIVIDUAL, Derivation.FORMAL_TRANSFORMATION, True, True),
    ("C10", "Complete", Applicability.SET, Derivation.FORMAL_TRANSFORMATION, True, True),
    ("C11", "Consistent", Applicability.SET, Derivation.FORMAL_TRANSFORMATION, True, True),
    ("C12", "Feasible", Applicability.SET, Derivation.AGREED_TO_OBLIGATION, True, True),
    ("C13", "Comprehensible", Applicability.SET, Derivation.AGREED_TO_OBLIGATION, True, True),
    ("C14", "Able to be validated", Applicability.SET, Derivation.AGREED_TO_OBLIGATION, True, True),
    ("C15", "Correct", Applicability.SET, Derivation.FORMAL_TRANSFORMATION, True, False),
)


def _default_rules() -> dict[str, RuleDef]:
    rules: dict[str, RuleDef] = {}
    for n in range(1, 43):
        rid = f"R{n}"
        if rid in _NAMED_RULES:
            name, desc, links, params = _NAMED_RULES[rid]
            rules[rid] = RuleDef(rid, name, desc, Automation.AUTOMATED, links, True, dict(params))
        else:
            rules[rid] = RuleDef(rid, f"GtWR Rule {rid}",
                                 "Placeholder entry; organizations supply content by override.",
                                 Automation.MANUAL)
    return rules


def _default_attributes() -> dict[str, AttributeDef]:
    attrs: dict[str, AttributeDef] = {}
    for n in range(1, 50):
        key = f"A{n:02d}"
        if key in _NAMED_ATTRIBUTES:
            name, minimum, kind, values = _NAMED_ATTRIBUTES[key]
            attrs[key] = AttributeDef(key, name, "", minimum, kind, values)
        else:
            attrs[key] = AttributeDef(key, f"GtWR Attribute {key}")
    return attrs


# pattern id -> slot key -> default connective words: exactly the lists the
# parser reads. Carson statements are found with Iso1's SR5 markers.
_PATTERN_MARKERS: dict[str, dict[str, tuple[str, ...]]] = {
    "Iso1": {"SR5": CONSTRAINT_MARKERS},
    "Iso2": {"SR1": CONDITION_MARKERS, "SR5": CONSTRAINT_MARKERS},
    "Carson": {"SR1": ("under",)},
}


def default_catalog() -> Catalog:
    return load_catalog()


def validate_catalog(catalog: Catalog) -> None:
    rules = catalog.rules
    if len(rules) != 42 or set(rules) != {f"R{n}" for n in range(1, 43)}:
        raise InvariantViolationError(f"rule registry must hold exactly R1..R42, got {len(rules)} entries")
    for rule in rules.values():
        is_auto = rule.automation == Automation.AUTOMATED
        if is_auto != (rule.rule_id in AUTOMATED_RULE_IDS):
            raise InvariantViolationError(
                f"{rule.rule_id}: automation flag must match checker availability")
        missing = rule.contributes_to - set(catalog.characteristics)
        if missing:
            raise InvariantViolationError(
                f"{rule.rule_id}: contributes_to references unknown characteristics {sorted(missing)}")

    chars = catalog.characteristics
    if len(chars) != 15 or set(chars) != {f"C{n}" for n in range(1, 16)}:
        raise InvariantViolationError(f"characteristic registry must hold exactly C1..C15, got {len(chars)}")
    for cid, char in chars.items():
        n = int(cid[1:])
        expected = Applicability.INDIVIDUAL if n <= 9 else Applicability.SET
        if char.applicability != expected:
            raise InvariantViolationError(f"{cid}: applicability must be {expected.value}")
        if not char.nasa_mapped:
            raise InvariantViolationError(f"{cid}: NASA mapping must be set")
        if char.iso_mapped != (cid != "C15"):
            raise InvariantViolationError(f"{cid}: ISO mapping wrong")

    attrs = catalog.attributes
    required = {f"A{n:02d}" for n in range(1, 50)}
    if not required <= set(attrs):
        raise InvariantViolationError(f"attribute registry missing {sorted(required - set(attrs))}")
    for key, attr in attrs.items():
        if key not in required and not _X_KEY_RE.match(key):
            raise InvariantViolationError(f"attribute key {key!r} is neither A01..A49 nor an X extension")
        has_values = bool(attr.value_set)
        if has_values != (attr.value_kind == ValueKind.ENUM):
            raise InvariantViolationError(f"{key}: value_set must be non-empty iff value_kind is Enum")

    if set(catalog.patterns) != set(PATTERNS):
        raise InvariantViolationError("pattern registry must hold exactly Iso1, Iso2, Carson")
    for pid, pattern in catalog.patterns.items():
        if pattern.slot_order != PATTERNS[pid].slot_order:
            raise InvariantViolationError(f"{pid}: slot order is fixed to {PATTERNS[pid].slot_order}")
        markers = pattern.connective_words
        if markers.keys() != _PATTERN_MARKERS[pid].keys() or not all(markers.values()):
            raise InvariantViolationError(
                f"{pid}: marker lexicons must be {sorted(_PATTERN_MARKERS[pid])}, each non-empty")


def _parse_bool(value: str, line: int) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise CatalogParseError(f"expected boolean, got {value!r}", line)


def _override_rule(catalog: Catalog, block: Block) -> None:
    rid = block.ident
    if rid not in catalog.rules:
        raise InvariantViolationError(f"line {block.line}: cannot add rule {rid!r}; the registry is fixed at R1..R42")
    rule = catalog.rules[rid]
    for key, value in block.fields.items():
        line = block.field_lines[key]
        if key == "name":
            rule = replace(rule, name=value)
        elif key == "description":
            rule = replace(rule, description=value)
        elif key == "enabled":
            rule = replace(rule, enabled=_parse_bool(value, line))
        elif key == "contributes_to":
            rule = replace(rule, contributes_to=frozenset(split_list(value)))
        elif key == "automation":
            try:
                rule = replace(rule, automation=Automation(value))
            except ValueError:
                raise CatalogParseError(f"unknown automation {value!r}", line) from None
        elif key in ("phrases", "participles"):
            params = dict(rule.params)
            params[key] = split_list(value)
            rule = replace(rule, params=params)
        else:
            raise CatalogParseError(f"unknown rule field {key!r}", line)
    catalog.rules[rid] = rule


def _override_attribute(catalog: Catalog, block: Block) -> None:
    key = block.ident
    existing = catalog.attributes.get(key)
    if existing is None:
        if not _X_KEY_RE.match(key):
            raise InvariantViolationError(
                f"line {block.line}: cannot add attribute {key!r}; only X-prefixed extensions may be added")
        existing = AttributeDef(key, key)
    attr = existing
    for fkey, value in block.fields.items():
        line = block.field_lines[fkey]
        if fkey == "name":
            attr = replace(attr, name=value)
        elif fkey == "group":
            attr = replace(attr, group=value)
        elif fkey == "minimum":
            attr = replace(attr, minimum_set=_parse_bool(value, line))
        elif fkey == "kind":
            try:
                attr = replace(attr, value_kind=ValueKind(value))
            except ValueError:
                raise CatalogParseError(f"unknown value kind {value!r}", line) from None
        elif fkey == "values":
            attr = replace(attr, value_set=split_list(value) or None)
        else:
            raise CatalogParseError(f"unknown attribute field {fkey!r}", line)
    catalog.attributes[key] = attr


def _override_characteristic(catalog: Catalog, block: Block) -> None:
    cid = block.ident
    if cid not in catalog.characteristics:
        raise InvariantViolationError(
            f"line {block.line}: cannot add characteristic {cid!r}; the registry is fixed at C1..C15")
    char = catalog.characteristics[cid]
    for key, value in block.fields.items():
        line = block.field_lines[key]
        if key == "name":
            char = replace(char, name=value)
        elif key == "derivation":
            try:
                char = replace(char, derivation=Derivation(value))
            except ValueError:
                raise CatalogParseError(f"unknown derivation {value!r}", line) from None
        else:
            raise CatalogParseError(f"unknown characteristic field {key!r}", line)
    catalog.characteristics[cid] = char


def _override_pattern(catalog: Catalog, block: Block) -> None:
    pid = block.ident
    if pid not in catalog.patterns:
        raise InvariantViolationError(f"line {block.line}: unknown pattern {pid!r}")
    pattern = catalog.patterns[pid]
    words = dict(pattern.connective_words)
    for key, value in block.fields.items():
        line = block.field_lines[key]
        if key not in ("sr1_markers", "sr5_markers"):
            raise CatalogParseError(f"unknown pattern field {key!r}", line)
        slot = key[:3].upper()
        if slot not in words:
            raise CatalogParseError(f"{pid} does not read {key}", line)
        words[slot] = split_list(value)
    catalog.patterns[pid] = replace(pattern, connective_words=words)


def _override_flags(catalog: Catalog, block: Block) -> None:
    for key, value in block.fields.items():
        line = block.field_lines[key]
        if key == "case_insensitive_terms":
            catalog.case_insensitive_terms = _parse_bool(value, line)
        elif key == "forbid_trace_links":
            catalog.forbid_trace_links = _parse_bool(value, line)
        else:
            raise CatalogParseError(f"unknown flag {key!r}", line)


def load_catalog(config_path: str | Path | None = None) -> Catalog:
    """Build the default catalog, apply overrides from config_path, validate."""
    catalog = Catalog(
        rules=_default_rules(),
        characteristics={row[0]: CharacteristicDef(*row) for row in _CHARACTERISTIC_ROWS},
        attributes=_default_attributes(),
        patterns={pid: PatternDef(pid, shape.slot_order, dict(_PATTERN_MARKERS[pid]))
                  for pid, shape in PATTERNS.items()},
    )
    if config_path is not None:
        text = Path(config_path).read_text(encoding="utf-8")
        try:
            blocks = parse_blocks(text)
        except Exception as exc:
            raise CatalogParseError(str(exc)) from exc
        handlers = {
            "rule": _override_rule,
            "attribute": _override_attribute,
            "characteristic": _override_characteristic,
            "pattern": _override_pattern,
            "flags": _override_flags,
        }
        for block in blocks:
            handler = handlers.get(block.kind)
            if handler is None:
                raise CatalogParseError(f"unknown section kind {block.kind!r}", block.line)
            handler(catalog, block)
    validate_catalog(catalog)
    return catalog
