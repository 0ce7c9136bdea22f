"""Registries for guide rules, quality characteristics, attributes, and patterns.

The default catalog carries exactly 42 rules, 15 characteristics, 49 attributes,
and 3 statement patterns. Entries whose content is not publicly evidenced ship
as named placeholders and are meant to be overridden from a configuration file
in the block format (see blockfile).
"""

from __future__ import annotations

import re
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

from .blockfile import Block, parse_blocks, split_list
from .errors import CatalogParseError, InvariantViolationError
from .records import Record

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


class RuleDef(NamedTuple):
    rule_id: str
    name: str
    description: str
    automation: Automation
    contributes_to: frozenset[str] = frozenset()
    enabled: bool = True
    # checker tuning knobs, e.g. phrase lists; keys depend on the rule. The
    # default dict is shared by every RuleDef built without one: never mutate it.
    params: dict[str, tuple[str, ...]] = {}


class CharacteristicDef(NamedTuple):
    characteristic_id: str
    name: str
    applicability: Applicability
    derivation: Derivation
    nasa_mapped: bool
    iso_mapped: bool


class AttributeDef(NamedTuple):
    attribute_key: str
    name: str
    group: str = ""
    minimum_set: bool = False
    value_kind: ValueKind = ValueKind.TEXT
    value_set: tuple[str, ...] | None = None


class PatternDef(NamedTuple):
    pattern_id: str
    # slot key -> leading keywords that introduce the slot in statement text;
    # the default dict is shared, as RuleDef.params is
    connective_words: dict[str, tuple[str, ...]] = {}

    @property
    def slot_order(self) -> tuple[str, ...]:
        return PATTERNS[self.pattern_id].slot_order


class Catalog(Record):
    __slots__ = _fields = ("rules", "characteristics", "attributes", "patterns",
                           "case_insensitive_terms", "forbid_trace_links")

    def __init__(self, rules: dict[str, RuleDef],
                 characteristics: dict[str, CharacteristicDef],
                 attributes: dict[str, AttributeDef], patterns: dict[str, PatternDef],
                 case_insensitive_terms: bool = False, forbid_trace_links: bool = False):
        self.rules, self.characteristics = rules, characteristics
        self.attributes, self.patterns = attributes, patterns
        self.case_insensitive_terms = case_insensitive_terms
        self.forbid_trace_links = forbid_trace_links

    def automated_rules(self) -> list[RuleDef]:
        """The rules marked Automated, disabled ones too, in rule-number
        order: the order load_catalog builds the registry in."""
        return [rule for rule in self.rules.values() if rule.automation == Automation.AUTOMATED]

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

# A rule with a "phrases" list is a phrase rule: it is violated by the first
# listed phrase found in the text. "messages" holds its Violate message, with
# {!r} standing for the phrase found, then its Satisfy message.
_NAMED_RULES: dict[str, tuple[str, str, frozenset[str], dict[str, tuple[str, ...]]]] = {
    "R1": ("Structured Statement",
           "Statement decomposes into the pattern slots with a single 'shall'.",
           frozenset({"C3", "C4", "C5", "C7", "C9"}), {}),
    "R2": ("Active Voice",
           "Statement avoids passive constructions (be-verb + participle + 'by').",
           frozenset({"C3"}), {"participles": _IRREGULAR_PARTICIPLES}),
    "R10": ("Superfluous Verbiage",
            "Statement avoids configured filler phrases.",
            frozenset({"C3"}), {"phrases": _SUPERFLUOUS_PHRASES,
                                "messages": ("superfluous phrase {!r}",
                                             "no superfluous phrase found")}),
    "R16": ("Avoid Shall Not",
            "Statement does not contain 'shall not'.",
            frozenset({"C3"}), {"phrases": ("shall not",),
                                "messages": ("'shall not' states what must not happen; "
                                             "state the required behavior instead",
                                             "no 'shall not' found")}),
}

# The rules that rules._CHECKERS checks by code; every other automated rule
# is a phrase rule.
_CODE_CHECKED_RULE_IDS = frozenset({"R1", "R2"})

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


# The default registries, built once. Their records are immutable and every
# catalog starts from them; load_catalog gives each catalog its own dicts,
# the params dicts of the named rules included.
_DEFAULT_RULES = _default_rules()
_DEFAULT_CHARACTERISTICS = {row[0]: CharacteristicDef(*row) for row in _CHARACTERISTIC_ROWS}
_DEFAULT_ATTRIBUTES = _default_attributes()

_RULE_IDS = frozenset(_DEFAULT_RULES)
_CHARACTERISTIC_IDS = frozenset(_DEFAULT_CHARACTERISTICS)
_ATTRIBUTE_KEYS = frozenset(_DEFAULT_ATTRIBUTES)


def default_catalog() -> Catalog:
    return load_catalog()


def validate_catalog(catalog: Catalog) -> None:
    rules = catalog.rules
    if len(rules) != 42 or rules.keys() != _RULE_IDS:
        raise InvariantViolationError(f"rule registry must hold exactly R1..R42, got {len(rules)} entries")
    known = catalog.characteristics.keys()
    for rule in rules.values():
        if (rule.automation == Automation.AUTOMATED and not rule.params.get("phrases")
                and rule.rule_id not in _CODE_CHECKED_RULE_IDS):
            raise InvariantViolationError(
                f"{rule.rule_id}: an automated rule needs a code checker or phrases")
        missing = rule.contributes_to - known
        if missing:
            raise InvariantViolationError(
                f"{rule.rule_id}: contributes_to references unknown characteristics {sorted(missing)}")

    chars = catalog.characteristics
    if len(chars) != 15 or chars.keys() != _CHARACTERISTIC_IDS:
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
    if not _ATTRIBUTE_KEYS <= attrs.keys():
        raise InvariantViolationError(f"attribute registry missing {sorted(_ATTRIBUTE_KEYS - attrs.keys())}")
    for key, attr in attrs.items():
        if key not in _ATTRIBUTE_KEYS and not _X_KEY_RE.match(key):
            raise InvariantViolationError(f"attribute key {key!r} is neither A01..A49 nor an X extension")
        has_values = bool(attr.value_set)
        if has_values != (attr.value_kind == ValueKind.ENUM):
            raise InvariantViolationError(f"{key}: value_set must be non-empty iff value_kind is Enum")

    if set(catalog.patterns) != set(PATTERNS):
        raise InvariantViolationError("pattern registry must hold exactly Iso1, Iso2, Carson")
    for pid, pattern in catalog.patterns.items():
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


def _enum(kind: type[Enum], label: str) -> Callable[[str, int], Enum]:
    """A field reader that takes an enum member by its value."""
    def read(value: str, line: int) -> Enum:
        try:
            return kind(value)
        except ValueError:
            raise CatalogParseError(f"unknown {label} {value!r}", line) from None
    return read


def _text(value: str, line: int) -> str:
    return value


def _list(value: str, line: int) -> tuple[str, ...]:
    return split_list(value)


# section kind -> config key -> (record field, reader of (value, line)); a
# rule's phrase lists go into its params under their own key
_OVERRIDE_FIELDS: dict[str, dict[str, tuple[str, Callable[[str, int], object]]]] = {
    "rule": {
        "name": ("name", _text),
        "description": ("description", _text),
        "enabled": ("enabled", _parse_bool),
        "contributes_to": ("contributes_to", lambda value, line: frozenset(split_list(value))),
        "automation": ("automation", _enum(Automation, "automation")),
        "phrases": ("params", _list),
        "participles": ("params", _list),
    },
    "attribute": {
        "name": ("name", _text),
        "group": ("group", _text),
        "minimum": ("minimum_set", _parse_bool),
        "kind": ("value_kind", _enum(ValueKind, "value kind")),
        "values": ("value_set", lambda value, line: split_list(value) or None),
    },
    "characteristic": {
        "name": ("name", _text),
        "derivation": ("derivation", _enum(Derivation, "derivation")),
    },
}
# section kind -> (Catalog registry, why an id outside it cannot be added)
_OVERRIDE_REGISTRIES = {
    "rule": ("rules", "the registry is fixed at R1..R42"),
    "attribute": ("attributes", "only X-prefixed extensions may be added"),
    "characteristic": ("characteristics", "the registry is fixed at C1..C15"),
}


def _override_record(catalog: Catalog, block: Block) -> None:
    """Apply one rule, attribute or characteristic section; only an
    X-prefixed attribute may be added."""
    registry_name, fixed = _OVERRIDE_REGISTRIES[block.kind]
    registry = getattr(catalog, registry_name)
    record = registry.get(block.ident)
    if record is None:
        if block.kind != "attribute" or not _X_KEY_RE.match(block.ident):
            raise InvariantViolationError(
                f"line {block.line}: cannot add {block.kind} {block.ident!r}; {fixed}")
        record = AttributeDef(block.ident, block.ident)
    fields = _OVERRIDE_FIELDS[block.kind]
    for key, value in block.fields.items():
        line = block.field_lines[key]
        if key not in fields:
            raise CatalogParseError(f"unknown {block.kind} field {key!r}", line)
        field, read = fields[key]
        value = read(value, line)
        if field == "params":
            value = {**record.params, key: value}
        record = record._replace(**{field: value})
    registry[block.ident] = record


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
    catalog.patterns[pid] = pattern._replace(connective_words=words)


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
        rules={rid: rule._replace(params=dict(rule.params)) if rid in _NAMED_RULES else rule
               for rid, rule in _DEFAULT_RULES.items()},
        characteristics=dict(_DEFAULT_CHARACTERISTICS),
        attributes=dict(_DEFAULT_ATTRIBUTES),
        patterns={pid: PatternDef(pid, dict(_PATTERN_MARKERS[pid])) for pid in PATTERNS},
    )
    if config_path is not None:
        text = Path(config_path).read_text(encoding="utf-8")
        try:
            blocks = parse_blocks(text)
        except Exception as exc:
            raise CatalogParseError(str(exc)) from exc
        handlers = {"pattern": _override_pattern, "flags": _override_flags,
                    **dict.fromkeys(_OVERRIDE_FIELDS, _override_record)}
        for block in blocks:
            handler = handlers.get(block.kind)
            if handler is None:
                raise CatalogParseError(f"unknown section kind {block.kind!r}", block.line)
            handler(catalog, block)
    validate_catalog(catalog)
    return catalog
