"""The record types' contract: field names, keyword construction, defaults,
value equality, hashing and read-only fields.

The frozen records are NamedTuples or FrozenRecord classes; the mutable ones
are slotted Record classes. Either way a caller sees the same behaviour, so
one table covers nineteen of the twenty.
"""

import copy
import pickle
from datetime import datetime, timezone

import pytest

from mbsr import (
    Applicability,
    AttributeDef,
    AttributeValue,
    Automation,
    Catalog,
    CharacteristicDef,
    Derivation,
    ElementKind,
    ExpressionKind,
    Glossary,
    GlossaryTerm,
    KdrRow,
    LinkKind,
    MetricInstance,
    ModelElement,
    ParseDiagnostics,
    PatternDef,
    RequirementExpression,
    RequirementSet,
    RuleDef,
    RuleFinding,
    SlotValue,
    StructuredStatement,
    TraceLink,
    TraceView,
    ValueKind,
    Verdict,
    serialize_corpus,
)
from mbsr.blockfile import Block

STAMP = datetime(2026, 3, 14, 12, 0, tzinfo=timezone.utc)
ISO1 = {"SR2": SlotValue("System"), "SR3": SlotValue("run"), "SR5": SlotValue("within 1 s")}

# class -> (required fields, other fields with non-default values, those
# fields' defaults, whether the record is frozen); fields in declaration order
RECORDS = {
    Block: ({"kind": "requirement", "ident": "R-1", "line": 3},
            {"fields": {"text": "t"}, "field_lines": {"text": 4}},
            {"fields": {}, "field_lines": {}}, False),
    RuleDef: ({"rule_id": "R1", "name": "n", "description": "d",
               "automation": Automation.AUTOMATED},
              {"contributes_to": frozenset({"C3"}), "enabled": False,
               "params": {"phrases": ("x",)}},
              {"contributes_to": frozenset(), "enabled": True, "params": {}}, True),
    CharacteristicDef: ({"characteristic_id": "C1", "name": "Necessary",
                         "applicability": Applicability.INDIVIDUAL,
                         "derivation": Derivation.FORMAL_TRANSFORMATION,
                         "nasa_mapped": True, "iso_mapped": True}, {}, {}, True),
    AttributeDef: ({"attribute_key": "A34", "name": "Priority"},
                   {"group": "g", "minimum_set": True, "value_kind": ValueKind.ENUM,
                    "value_set": ("High",)},
                   {"group": "", "minimum_set": False, "value_kind": ValueKind.TEXT,
                    "value_set": None}, True),
    PatternDef: ({"pattern_id": "Iso1"}, {"connective_words": {"SR5": ("with",)}},
                 {"connective_words": {}}, True),
    Catalog: ({"rules": {}, "characteristics": {}, "attributes": {}, "patterns": {}},
              {"case_insensitive_terms": True, "forbid_trace_links": True},
              {"case_insensitive_terms": False, "forbid_trace_links": False}, False),
    GlossaryTerm: ({"term": "Spacecraft"},
                   {"synonyms": ("craft",), "definition": "d", "source": "s",
                    "allocations": ("blk-1",)},
                   {"synonyms": (), "definition": "", "source": "", "allocations": ()}, False),
    Glossary: ({}, {"case_insensitive": True, "_terms": {"T": GlossaryTerm("T")}},
               {"case_insensitive": False, "_terms": {}}, False),
    MetricInstance: ({"timestamp": STAMP, "scope": "all", "metric_type": "slot_completeness",
                      "total": 2, "slot_counts": (0, 1, 1, 0, 1), "complete": 1,
                      "pct": 50.0}, {}, {}, True),
    ModelElement: ({"element_id": "blk-1", "name": "Block", "kind": ElementKind.BLOCK},
                   {}, {}, True),
    SlotValue: ({"text": "System"}, {"binding": "blk-1"}, {"binding": None}, True),
    AttributeValue: ({"kind": ValueKind.TEXT, "value": "x"}, {}, {}, True),
    RequirementExpression: ({"id": "R-1"},
                            {"name": "n", "text": "t",
                             "statement": StructuredStatement("Iso1", ISO1),
                             "attributes": {"A01": AttributeValue.text("why")},
                             "kind": ExpressionKind.NEED},
                            {"name": "", "text": "", "statement": None, "attributes": {},
                             "kind": ExpressionKind.REQUIREMENT}, False),
    RequirementSet: ({"id": "S-1"},
                     {"name": "n", "text": "t", "statement": None,
                      "attributes": {"A01": AttributeValue.text("why")},
                      "kind": ExpressionKind.NEED, "members": ["R-1"]},
                     {"name": "", "text": "", "statement": None, "attributes": {},
                      "kind": ExpressionKind.REQUIREMENT, "members": []}, False),
    TraceLink: ({"link_id": "lnk-0001", "kind": LinkKind.DERIVE, "source_id": "a",
                 "target_id": "b"}, {}, {}, True),
    ParseDiagnostics: ({}, {"matched_pattern": "Iso1", "shall_count": 1,
                            "unconsumed": [(0, 1)], "slot_spans": {"SR2": (4, 10)}},
                       {"matched_pattern": None, "shall_count": 0, "unconsumed": [],
                        "slot_spans": {}}, False),
    RuleFinding: ({"rule_id": "R1", "expression_id": "R-1", "verdict": Verdict.SATISFY,
                   "message": "m"}, {"span": (0, 3)}, {"span": None}, True),
    TraceView: ({"expression_id": "R-1"},
                {name: [name.upper()] for name in ("derives_from", "derived_by", "member_of",
                                                   "satisfied_by", "verified_by",
                                                   "refined_by", "copies")},
                {name: [] for name in ("derives_from", "derived_by", "member_of",
                                       "satisfied_by", "verified_by", "refined_by",
                                       "copies")}, False),
    KdrRow: ({"expression_id": "R-1", "marker": "K", "derives_from": ("R-0",)}, {}, {}, True),
}
# hashing a record hashes its fields, so a dict field makes it unhashable
UNHASHABLE = (RuleDef, PatternDef)
FROZEN = [cls for cls, entry in RECORDS.items() if entry[3]]


def test_the_table_covers_every_record_type():
    # StructuredStatement, frozen too, takes a slot mapping and has its own test
    assert len(RECORDS) + 1 == 20
    assert len(FROZEN) + 1 == 12


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keyword_construction_sets_each_field(cls):
    required, optional, _, _ = RECORDS[cls]
    values = {**required, **optional}
    record = cls(**values)
    assert {name: getattr(record, name) for name in values} == values
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(record) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_defaults(cls):
    required, _, defaults, frozen = RECORDS[cls]
    record = cls(**required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    if not frozen:  # a mutable default is a fresh object per record
        other = cls(**required)
        assert all(getattr(record, name) is not getattr(other, name)
                   for name, value in defaults.items() if isinstance(value, (list, dict)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_is_by_value(cls):
    required, optional, _, _ = RECORDS[cls]
    values = {**required, **optional}
    assert cls(**values) == cls(**values)
    name = next(iter(values))
    changed = {**values, name: values[name] + "x" if isinstance(values[name], str)
               else not values[name]}
    assert cls(**values) != cls(**changed)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_hash_by_value_and_refuse_assignment(cls):
    required, optional, _, _ = RECORDS[cls]
    values = {**required, **optional}
    record = cls(**values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**values))
    for name in values:
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls not in FROZEN],
                         ids=lambda cls: cls.__name__)
def test_mutable_records_take_assignment_and_are_unhashable(cls):
    required, optional, _, _ = RECORDS[cls]
    values = {**required, **optional}
    record = cls(**required)
    for name, value in values.items():
        setattr(record, name, value)
    assert record == cls(**values)
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_keep_the_value(cls):
    required, optional, _, _ = RECORDS[cls]
    record = cls(**required, **optional)
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


def test_a_loaded_model_deep_copies(asteroid_model):
    clone = copy.deepcopy(asteroid_model)
    assert serialize_corpus(clone) == serialize_corpus(asteroid_model)
    statement = StructuredStatement("Iso1", ISO1)
    assert pickle.loads(pickle.dumps(statement)) == copy.copy(statement) == statement


def test_structured_statement_is_frozen_and_compares_its_slots():
    statement = StructuredStatement(pattern="Iso1", values=ISO1)
    assert statement.pattern == "Iso1"
    assert statement.slot("SR3") == SlotValue("run")
    assert statement == StructuredStatement("Iso1", dict(ISO1))
    assert hash(statement) == hash(StructuredStatement("Iso1", dict(ISO1)))
    assert statement != StructuredStatement("Iso1", {**ISO1, "SR3": SlotValue("stop")})
    with pytest.raises(AttributeError):
        statement.pattern = "Iso2"
    with pytest.raises(AttributeError):
        del statement.pattern


def test_a_set_never_equals_a_requirement_with_the_same_fields():
    assert RequirementSet("X") != RequirementExpression("X")
    assert RequirementSet("X").is_set and not RequirementExpression("X").is_set
