"""Corpus format round trips, XMI export/import, ReqIF, tables, reports."""

import csv
import random
import re
import time
import uuid
from dataclasses import replace
from xml.etree import ElementTree

import pytest

from bench.corpus import CHARACTERISTICS, RULES, SHAPES, generate
from mbsr import (
    TBX_ID,
    AttributeValue,
    LinkKind,
    Model,
    RequirementExpression,
    Verdict,
    add_link,
    apply_verdicts,
    check_scope,
    compute_slot_completeness,
    export_dot,
    export_reqif,
    export_table,
    export_xmi,
    generate_report,
    import_xmi,
    load_attribute_mapping,
    load_catalog,
    load_corpus,
    loads_corpus,
    rollup,
    save_corpus,
    serialize_corpus,
)
from mbsr.errors import (
    CorpusValidationError,
    MappingMissingError,
    MbsrError,
    UnknownColumnError,
    UnknownScopeError,
)
from mbsr.interchange import (
    PROFILE,
    PROFILE_NS,
    REQIF_NS,
    XMI_NS,
    XMI_SLOT_NAMES,
    _decode_attribute,
    _naming,
    internal_id,
    mangled_attribute_name,
)
from mbsr.model import (
    ElementKind,
    ExpressionKind,
    ModelElement,
    RequirementSet,
    SlotValue,
    StructuredStatement,
)
from mbsr.parser import parse_statement
from mbsr.cli import main
from tests.conftest import CORPUS_DIR, FIXTURES_DIR, fixed_clock

FIXTURE_NAMES = ("asteroid", "tracechain", "metrics10", "mixed", "mixed_fixed", "verdicts")


# --- corpus round trips ---


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_load_serialize_load_equality(name, catalog):
    model1 = load_corpus(CORPUS_DIR / f"{name}.mbsr", catalog, clock=fixed_clock)
    text1 = serialize_corpus(model1)
    model2 = loads_corpus(text1, catalog, clock=fixed_clock)
    text2 = serialize_corpus(model2)
    assert text1 == text2

    assert [e.element_id for e in model2.elements()] == \
        [e.element_id for e in model1.elements()]
    assert [e.id for e in model2.expressions()] == \
        [e.id for e in model1.expressions()]
    for expr in model1.expressions():
        twin = model2.expression(expr.id)
        assert twin.text == expr.text
        assert twin.statement == expr.statement
        assert twin.attributes == expr.attributes


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_canonical_serialization_is_stable(name, catalog):
    model = load_corpus(CORPUS_DIR / f"{name}.mbsr", catalog, clock=fixed_clock)
    assert serialize_corpus(model) == serialize_corpus(model)


def test_serialization_orders_blocks_canonically(catalog):
    scrambled = """\
[requirement R-B]
text = The System shall stop within 2 s.

[set S-1]
name = All
members = R-B, R-A

[requirement R-A]
text = The System shall run within 1 s.

[element blk-z]
name = Zulu
kind = Block

[element blk-a]
name = Alpha
kind = Block
"""
    model = loads_corpus(scrambled, catalog, clock=fixed_clock)
    text = serialize_corpus(model)
    order = [line for line in text.splitlines() if line.startswith("[")]
    assert order == ["[element blk-a]", "[element blk-z]",
                     "[requirement R-A]", "[requirement R-B]", "[set S-1]"]
    # stored member order is meaningful and survives
    assert "members = R-B, R-A" in text


@pytest.fixture()
def new_york_local_time(monkeypatch):
    """Local time five hours behind UTC in February, for one test. A POSIX
    rule string, so no time zone database is needed."""
    monkeypatch.setenv("TZ", "EST+05EDT,M3.2.0,M11.1.0")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


def test_naive_timestamps_read_as_utc_in_any_local_zone(catalog, new_york_local_time):
    assert time.timezone == 5 * 3600
    model = loads_corpus("[requirement R-1]\n"
                         "text = The System shall run within 1 s.\n"
                         "A14 = 2001-02-03T04:05:06\n", catalog, clock=fixed_clock)
    assert "A14 = 2001-02-03T04:05:06+00:00\n" in serialize_corpus(model)
    assert "='2001-02-03T04:05:06+00:00'" in export_xmi(model)


def test_save_corpus_writes_utf8(tmp_path, asteroid_model):
    out = tmp_path / "out.mbsr"
    save_corpus(asteroid_model, out)
    assert out.read_text(encoding="utf-8") == serialize_corpus(asteroid_model)


def test_parsed_statement_fields_round_trip(asteroid_model, catalog):
    text = serialize_corpus(asteroid_model)
    assert "pattern = Iso2" in text
    assert "sr2 = Spacecraft" in text
    assert "sr2_ref = blk-spacecraft" in text
    model2 = loads_corpus(text, catalog, clock=fixed_clock)
    stmt = model2.expression("L3-EX.1").statement
    assert stmt.slot("SR2").binding == "blk-spacecraft"


# --- corpus validation errors ---


def test_unknown_block_kind_rejected(catalog):
    with pytest.raises(CorpusValidationError) as err:
        loads_corpus("[widget w-1]\nname = W\n", catalog)
    assert "widget" in str(err.value)


def test_unknown_requirement_key_rejected(catalog):
    with pytest.raises(CorpusValidationError) as err:
        loads_corpus("[requirement R-1]\nseverity = high\n", catalog)
    assert "severity" in str(err.value)


def test_slot_ref_without_slot_text_rejected(catalog):
    bad = ("[requirement R-1]\n"
           "text = The System shall run within 1 s.\n"
           "pattern = Iso1\n"
           "sr2 = System\n"
           "sr2_ref = blk-missing\n"
           "sr3 = run\n"
           "sr5 = within 1 s\n")
    with pytest.raises(CorpusValidationError):
        loads_corpus(bad, catalog)


def test_slots_without_pattern_rejected(catalog):
    bad = ("[requirement R-1]\n"
           "text = The System shall run within 1 s.\n"
           "sr2 = System\n")
    with pytest.raises(CorpusValidationError) as err:
        loads_corpus(bad, catalog)
    assert "pattern" in str(err.value)


def test_bad_attribute_value_names_block_and_line(catalog):
    bad = "[requirement R-1]\ntext = x shall y within 1 s.\nA34 = Bogus\n"
    with pytest.raises(CorpusValidationError) as err:
        loads_corpus(bad, catalog)
    message = str(err.value)
    assert "[requirement R-1]" in message and "A34" in message
    assert err.value.line == 1


def test_unknown_set_member_rejected(catalog):
    bad = "[set S-1]\nname = All\nmembers = ghost\n"
    with pytest.raises(CorpusValidationError):
        loads_corpus(bad, catalog)


def test_forward_set_references_allowed(catalog):
    text = ("[set S-1]\nname = All\nmembers = R-1\n\n"
            "[requirement R-1]\ntext = The System shall run within 1 s.\n")
    model = loads_corpus(text, catalog)
    assert model.expression("S-1").members == ["R-1"]


def test_term_allocation_must_exist(catalog):
    bad = "[term Spacecraft]\ndefinition = d\nallocations = blk-ghost\n"
    with pytest.raises(CorpusValidationError):
        loads_corpus(bad, catalog)


def test_loading_does_not_stamp_a14(catalog):
    text = ("[requirement R-1]\ntext = The System shall run within 1 s.\n\n"
            "[requirement R-2]\ntext = The System shall stop within 1 s.\n\n"
            "[set S-1]\nname = All\nmembers = R-1\n\n"
            "[set S-2]\nname = Other\n\n"
            "[link c-1]\nkind = Containment\nsource = S-2\ntarget = R-2\n")
    model = loads_corpus(text, catalog, clock=fixed_clock)
    assert model.expression("S-2").members == ["R-2"]
    for expr_id in ("S-1", "S-2", "R-1", "R-2"):
        assert model.get_attribute(expr_id, "A14") is None


COPY_CORPUS = ("[requirement R-1]\ntext = The System shall run within 1 s.\n\n"
               "[requirement R-2]\ntext = The System shall stop within 2 s.\n\n"
               "[link lnk-01]\nkind = Copy\nsource = R-2\ntarget = R-1\n")


def test_loading_a_diverged_copy_syncs_text_without_stamping_a14(catalog):
    model = loads_corpus(COPY_CORPUS, catalog, clock=fixed_clock)
    assert model.expression("R-2").text == "The System shall run within 1 s."
    assert model.get_attribute("R-2", "A14") is None
    assert "A14" not in serialize_corpus(model)

    model.set_text("R-1", "The System shall run within 3 s.")
    assert model.expression("R-2").text == "The System shall run within 3 s."
    assert model.get_attribute("R-2", "A14").value == fixed_clock()


def test_serialize_rejects_text_ending_in_carriage_return(catalog):
    model = loads_corpus(COPY_CORPUS, catalog, clock=fixed_clock)
    model.set_text("R-1", "The System shall run within 1 s.\r")
    with pytest.raises(CorpusValidationError, match="'text' has a line ending"):
        serialize_corpus(model)


# --- XMI export ---


def test_xmi_requirement_attribute_names(asteroid_model):
    xmi = export_xmi(asteroid_model)
    for attr in ("A01_Rationale_Statement_", "A08_System_V_V_Primary_Method_",
                 "A10_System_V_V_Level",
                 "A28_Need_or_Requirement_Verification_Status_",
                 "A30_Status_of_the_Need_or_Requirement", "A34_Priority_",
                 "A38_Key___Driving", "A40_Type_"):
        assert f"{attr}=" in xmi, attr


def test_xmi_slot_attributes_carry_internal_ids(asteroid_model):
    xmi = export_xmi(asteroid_model)
    subject = internal_id(asteroid_model, "blk-spacecraft")
    assert f"SR2_Subject='{subject}'" in xmi
    assert re.search(r"SR1_Condition='_[0-9a-f]{32}'", xmi)


def test_xmi_internal_ids_are_deterministic(asteroid_model, catalog):
    again = load_corpus(CORPUS_DIR / "asteroid.mbsr", catalog, clock=fixed_clock)
    assert internal_id(asteroid_model, "L3-EX.1") == internal_id(again, "L3-EX.1")
    other = Model(catalog=catalog, model_uuid=uuid.uuid4())
    other.add_expression(RequirementExpression("L3-EX.1"))
    assert internal_id(other, "L3-EX.1") != internal_id(asteroid_model, "L3-EX.1")


def test_xmi_escapes_quotes_and_newlines(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_expression(RequirementExpression(
        "R-1", name="O'Brien", text="The System shall log 'a<b' within 1 s."))
    model.set_attribute("R-1", "A01", AttributeValue.text("line one\nline two"))
    xmi = export_xmi(model)
    assert "&apos;a&lt;b&apos;" in xmi
    assert "line one&#10;line two" in xmi
    import_xmi(xmi, catalog)  # escaping must stay parseable


_TEXT = "The System shall log data within 1 s."

# case -> (corpus text, the holder and code point named by the error)
_XML_FORBIDDEN = {
    "requirement text": ("[requirement R-1]\ntext = The System shall log\x01 data within 1 s.\n",
                         "requirement 'R-1'", "U+0001"),
    "text attribute": (f"[requirement R-1]\ntext = {_TEXT}\nA01 = margin\x1b TBD\n",
                       "requirement 'R-1'", "U+001B"),
    "set name": (f"[requirement R-1]\ntext = {_TEXT}\n\n"
                 "[set S-1]\nname = All\x08 of them\nmembers = R-1\n", "set 'S-1'", "U+0008"),
    "element name": ("[element blk-a]\nname = Log\x02ger\nkind = Block\n",
                     "element 'blk-a'", "U+0002"),
}


@pytest.mark.parametrize("case", _XML_FORBIDDEN)
def test_xml_exports_reject_a_character_xml_1_0_forbids(case, catalog):
    text, holder, code_point = _XML_FORBIDDEN[case]
    model = loads_corpus(text, catalog, clock=fixed_clock)
    # the corpus format carries the character
    assert serialize_corpus(loads_corpus(serialize_corpus(model), catalog)) == \
        serialize_corpus(model)
    message = f"{holder}: character {code_point} cannot be written to XML 1.0"
    with pytest.raises(CorpusValidationError) as exc:
        export_xmi(model)
    assert str(exc.value) == message
    if case != "element name":  # ReqIF carries no element
        with pytest.raises(CorpusValidationError) as exc:
            export_reqif(model, mapping={"A01": "Rationale"})
        assert str(exc.value) == message


def test_reqif_rejects_a_mapped_name_xml_1_0_forbids(catalog):
    model = loads_corpus(f"[requirement R-1]\ntext = {_TEXT}\nA01 = why\n", catalog)
    with pytest.raises(CorpusValidationError) as exc:
        export_reqif(model, mapping={"A01": "Ratio\x7f\x00nale"})
    assert str(exc.value) == ("mapping name 'Ratio\\x7f\\x00nale': "
                              "character U+0000 cannot be written to XML 1.0")


def test_xml_exports_keep_every_character_xml_1_0_allows(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    odd = "tab\there\rcr\x7f\x85\ud7ff\ue000\ufffd\U0001f600 end"
    model.add_expression(RequirementExpression("R-1", text=_TEXT))
    model.set_attribute("R-1", "A01", AttributeValue.text(odd))
    back = import_xmi(export_xmi(model), catalog)
    assert back.expression("R-1").attributes["A01"].value == odd
    reqif = ElementTree.fromstring(export_reqif(model, mapping={"A01": "Why", "A14": "When"}))
    values = [e.get("THE-VALUE") for e in reqif.iter(f"{{{REQIF_NS}}}ATTRIBUTE-VALUE-STRING")]
    assert odd in values


def test_xmi_set_members_are_space_separated_internal_ids(asteroid_model):
    xmi = export_xmi(asteroid_model)
    member = internal_id(asteroid_model, "L3-EX.1")
    assert f"Members='{member}'" in xmi


def test_xmi_import_round_trip(asteroid_model, catalog):
    xmi = export_xmi(asteroid_model)
    back = import_xmi(xmi, catalog)
    assert export_xmi(back) == xmi
    expr = back.expression("L3-EX.1")
    assert expr.statement is not None
    assert expr.statement.slot("SR2").binding == "blk-spacecraft"
    assert back.expression("L3-EX").members == ["L3-EX.1"]


def test_xmi_import_rejects_unknown_element_kind(asteroid_model, catalog):
    xmi = export_xmi(asteroid_model)
    assert "Kind='Block'" in xmi
    with pytest.raises(CorpusValidationError, match="Gizmo"):
        import_xmi(xmi.replace("Kind='Block'", "Kind='Gizmo'", 1), catalog)


def test_xmi_import_rejects_bad_timestamp(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_expression(RequirementExpression("R-1", text="The System shall run within 1 s."))
    model.set_text("R-1", "The System shall run within 2 s.")
    xmi = export_xmi(model)
    stamp = model.get_attribute("R-1", "A14").display()
    assert stamp in xmi
    with pytest.raises(CorpusValidationError) as exc:
        import_xmi(xmi.replace(stamp, "not-a-date"), catalog)
    name = mangled_attribute_name(catalog.attributes["A14"])
    assert str(exc.value) == f"R-1: {name} is not an ISO-8601 timestamp: 'not-a-date'"


def test_xmi_import_rejects_unresolved_member_ref(tracechain_model, catalog):
    xmi = export_xmi(tracechain_model)
    member = internal_id(tracechain_model, "L3-A")
    assert f"Members='{member}" in xmi
    with pytest.raises(CorpusValidationError, match=r"SET-ALL: member reference 'NOPE'"):
        import_xmi(xmi.replace(f"Members='{member}", "Members='NOPE", 1), catalog)


def test_xmi_import_names_the_entry_whose_bound_text_does_not_parse(asteroid_model, catalog):
    xmi = export_xmi(asteroid_model)
    text = asteroid_model.expression("L3-EX.1").text
    assert f"Text='{text}'" in xmi and "SR2_Subject=" in xmi
    with pytest.raises(CorpusValidationError, match=r"L3-EX\.1: .*NoShallKeywordError"):
        import_xmi(xmi.replace(text, "The thing does a thing", 1), catalog)


def test_xmi_import_names_the_entry_with_a_bad_enum_token(tracechain_model, catalog):
    xmi = export_xmi(tracechain_model)
    assert "A38_Key___Driving='K+D'" in xmi
    with pytest.raises(CorpusValidationError, match=r"L3-A: InvalidAttributeTokenError: .*'Q'"):
        import_xmi(xmi.replace("A38_Key___Driving='K+D'", "A38_Key___Driving='Q'", 1), catalog)


def test_xmi_import_names_the_entry_storing_a_derived_attribute(tracechain_model, catalog):
    xmi = export_xmi(tracechain_model)
    a15 = mangled_attribute_name(catalog.attributes["A15"])
    assert "A38_Key___Driving='D'" in xmi
    bad = xmi.replace("A38_Key___Driving='D'", f"A38_Key___Driving='D' {a15}='L4-A'", 1)
    with pytest.raises(CorpusValidationError, match=r"L4-A: DerivedAttributeError: A15"):
        import_xmi(bad, catalog)


def test_xmi_import_names_the_set_whose_members_are_rejected(tracechain_model, catalog):
    xmi = export_xmi(tracechain_model)
    member = internal_id(tracechain_model, "L3-A")
    own = internal_id(tracechain_model, "SET-ALL")
    assert f"Members='{member}" in xmi
    with pytest.raises(CorpusValidationError, match=r"SET-ALL: MembershipCycleError"):
        import_xmi(xmi.replace(f"Members='{member}", f"Members='{own}", 1), catalog)
    # a set whose id is taken is rejected when it is added
    assert "Id='SET-ALL'" in xmi
    with pytest.raises(CorpusValidationError, match=r"L3-A: DuplicateIdError"):
        import_xmi(xmi.replace("Id='SET-ALL'", "Id='L3-A'", 1), catalog)


def test_mangled_attribute_name_rules(catalog):
    a01 = catalog.attributes["A01"]
    assert mangled_attribute_name(a01) == "A01_Rationale_Statement_"
    a10 = catalog.attributes["A10"]
    assert mangled_attribute_name(a10) == "A10_System_V_V_Level"


# --- ReqIF ---


def test_reqif_requires_mapping_for_populated_attributes(asteroid_model):
    with pytest.raises(MappingMissingError) as err:
        export_reqif(asteroid_model)
    assert err.value.attribute_key == "A01"


def test_reqif_export_structure(asteroid_model):
    mapping = {key: f"Col{key}" for key in
               ("A01", "A08", "A10", "A28", "A30", "A34", "A38", "A40")}
    text = export_reqif(asteroid_model, mapping=mapping)
    assert text.count("<SPEC-OBJECT ") == 1
    assert "IDENTIFIER='L3-EX.1'" in text
    assert "ReqIF.Text" in text
    assert "ColA34" in text
    assert "<SPEC-HIERARCHY" in text


def _reqif_identifiers(text):
    """Every IDENTIFIER of a ReqIF export, and each attribute value's
    definition LONG-NAME and each hierarchy leaf's object id, read through
    the ...-REF elements."""
    from xml.etree import ElementTree

    ns = "{http://www.omg.org/spec/ReqIF/20110401/reqif.xsd}"
    root = ElementTree.fromstring(text)
    idents = [e.get("IDENTIFIER") for e in root.iter() if e.get("IDENTIFIER") is not None]
    by_ident = {e.get("IDENTIFIER"): e for e in root.iter() if e.get("IDENTIFIER")}
    values = [(by_ident[v.find(f"{ns}DEFINITION/{ns}ATTRIBUTE-DEFINITION-STRING-REF").text]
               .get("LONG-NAME"), v.get("THE-VALUE"))
              for v in root.iter(f"{ns}ATTRIBUTE-VALUE-STRING")]
    leaves = [by_ident[ref.text].tag for ref in root.iter(f"{ns}SPEC-OBJECT-REF")]
    return idents, values, leaves


def test_reqif_identifiers_are_unique_when_mapped_names_clash(catalog):
    model = loads_corpus(
        "[requirement R-1]\nname = One\ntext = The System shall run within 1 s.\n"
        "A01 = why\nA08 = Test\n", catalog, clock=fixed_clock)
    text = export_reqif(model, mapping={"A01": "V&V Method", "A08": "V-V Method"})
    idents, values, _ = _reqif_identifiers(text)
    assert len(idents) == len(set(idents))
    assert "IDENTIFIER='ad-V-V-Method'" in text and "IDENTIFIER='ad-V-V-Method-2'" in text
    assert values == [("ReqIF.Text", "The System shall run within 1 s."),
                      ("V&V Method", "why"), ("V-V Method", "Test")]


def test_reqif_identifiers_are_unique_when_hierarchy_ids_clash(catalog):
    model = loads_corpus(
        "[requirement A.1]\nname = One\ntext = The System shall run within 1 s.\n\n"
        "[requirement A-1]\nname = Two\ntext = The System shall stop within 2 s.\n\n"
        "[requirement export]\nname = Three\ntext = The System shall rest within 3 s.\n\n"
        "[set S]\nname = Set\nmembers = A.1, A-1, export\n", catalog, clock=fixed_clock)
    text = export_reqif(model)
    idents, _, leaves = _reqif_identifiers(text)
    assert len(idents) == len(set(idents))
    assert "IDENTIFIER='h-A-1'" in text and "IDENTIFIER='h-A-1-2'" in text
    assert "<SPEC-OBJECT IDENTIFIER='export-2' " in text
    assert "<SPEC-OBJECT-REF>export-2</SPEC-OBJECT-REF>" in text
    assert len(leaves) == 3 and {tag.rsplit("}", 1)[1] for tag in leaves} == {"SPEC-OBJECT"}


def test_reqif_hierarchy_writes_each_node_once(catalog):
    model = loads_corpus(
        "[requirement R-1]\nname = One\ntext = The System shall run within 1 s.\n\n"
        "[set S-1]\nname = Inner\nmembers = R-1\n\n"
        "[set S-0]\nname = Outer\nmembers = S-1\n", catalog, clock=fixed_clock)
    # members is a public list: edited in place, it can name an ancestor
    # and list a member twice, and the walk must still end
    model.expression("S-1").members.extend(["S-0", "R-1"])
    text = export_reqif(model)
    ElementTree.fromstring(text)
    assert re.findall(r"<SPEC-HIERARCHY IDENTIFIER='([^']+)'", text) == ["h-S-1", "h-R-1", "h-S-0"]


def test_reqif_identifiers_start_with_a_letter(catalog):
    model = loads_corpus(
        "[requirement 1.2]\nname = One\ntext = The System shall run within 1 s.\n\n"
        "[requirement id-1.2]\nname = Two\ntext = The System shall stop within 2 s.\n\n"
        "[set 2026]\nname = Set\nmembers = 1.2, id-1.2\n", catalog, clock=fixed_clock)
    text = export_reqif(model)
    idents, _, leaves = _reqif_identifiers(text)
    assert len(idents) == len(set(idents))
    assert all(ident[0].isalpha() for ident in idents)
    assert "<SPEC-OBJECT IDENTIFIER='id-1.2' " in text
    assert "<SPEC-OBJECT IDENTIFIER='id-1.2-2' " in text
    assert "<SPECIFICATION IDENTIFIER='id-2026' " in text
    assert ["<SPEC-OBJECT-REF>id-1.2</SPEC-OBJECT-REF>",
            "<SPEC-OBJECT-REF>id-1.2-2</SPEC-OBJECT-REF>"] == re.findall(
                r"<SPEC-OBJECT-REF>[^<]*</SPEC-OBJECT-REF>", text)
    assert len(leaves) == 2


def test_load_attribute_mapping():
    mapping = load_attribute_mapping("# comment\nA01 = Rationale\n\nA34=Prio\n")
    assert mapping == {"A01": "Rationale", "A34": "Prio"}


# --- tables ---


def test_export_table_default_columns(asteroid_model):
    csv_text = export_table(
        asteroid_model, None, ["id", "name", "SR2", "A34"])
    lines = csv_text.strip().split("\n")
    assert lines[0] == "id,name,SR2,A34"
    assert lines[1].startswith("L3-EX.1,")
    assert "Spacecraft" in lines[1] and "High" in lines[1]


def test_export_table_derived_attribute_columns(asteroid_model):
    csv_text = export_table(asteroid_model, None, ["A15", "A16"])
    assert csv_text.strip().split("\n")[1] == \
        "L3-EX.1,Collect Asteroid Regolith"


def test_export_table_unknown_column(asteroid_model):
    with pytest.raises(UnknownColumnError):
        export_table(asteroid_model, None, ["id", "bogus"])


def test_export_table_needs_a_column(asteroid_model):
    with pytest.raises(UnknownColumnError, match="no table columns given"):
        export_table(asteroid_model, None, [])


def test_export_table_verdict_columns(mixed_model):
    from mbsr import apply_verdicts, check_scope

    apply_verdicts(mixed_model, check_scope(mixed_model))
    csv_text = export_table(mixed_model, None, ["id", "R16", "TBX"])
    rows = dict(line.split(",", 1) for line in csv_text.strip().split("\n")[1:])
    assert rows["M-02"] == "V,S"
    assert rows["M-03"] == "S,V"


def test_verdict_letter_is_the_first_verdict_link_in_id_order(catalog):
    # a Need is not checked, so its cells come from its stored links
    text = ("[requirement N-1]\nkind = Need\ntext = Operators need timely data.\n\n"
            "[set S-1]\nname = All\nmembers = N-1\n\n"
            "[link lnk-9999]\nkind = Satisfy\nsource = N-1\ntarget = R16\n\n"
            "[link lnk-10000]\nkind = Violate\nsource = N-1\ntarget = R16\n\n"
            "[link a-1]\nkind = Satisfy\nsource = N-1\ntarget = C3\n\n"
            "[link b-1]\nkind = Violate\nsource = N-1\ntarget = C3\n")
    model = loads_corpus(text, catalog, clock=fixed_clock)
    # "lnk-10000" sorts before "lnk-9999" as a string, so Violate comes first
    csv_text = export_table(model, None, ["id", "R16", "C3", "R1"])
    assert csv_text.splitlines()[1] == "N-1,V,S,M"
    report = generate_report(model, None, "SetReview")
    assert "| N-1 | M | M | M | V | M |" in report


def test_library_tables_read_findings_over_a_stored_verdict_link(catalog, tmp_path, capsys):
    """A Violate link stored by hand against a rule that the text satisfies
    shows as S in the library's csv table and SetReview, as in the CLI's."""
    model = loads_corpus("[requirement R-1]\ntext = The System shall run within 1 s.\n\n"
                         "[set S-1]\nname = All\nmembers = R-1\n", catalog, clock=fixed_clock)
    add_link(model, LinkKind.VIOLATE, "R-1", "R16")
    table = export_table(model, None, ["id", "R16"])
    report = generate_report(model, None, "SetReview")
    assert table == "id,R16\nR-1,S\n"
    assert "| R-1 | S | S | S | S | S |" in report
    save_corpus(model, tmp_path / "hand.mbsr")
    corpus = ["--corpus", str(tmp_path / "hand.mbsr")]
    assert _cli_out(capsys, [*corpus, "export", "--format", "csv", "--columns", "id,R16"]) == table
    assert _cli_out(capsys, [*corpus, "export", "--format", "md",
                             "--template", "SetReview"]) == report


# --- reports ---


def test_overview_report_sections(asteroid_model):
    report = generate_report(asteroid_model, None, "Overview")
    assert "## Requirements" in report
    assert "## Completeness" in report
    assert "## Key and Driving Requirements" in report
    assert "<u>Spacecraft</u>" in report
    assert "L3-EX.1 (K+D)" in report


def test_overview_report_empty_scope(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    report = generate_report(model, None, "Overview")
    assert "Total requirements: 0" in report


def test_set_review_counts_tbx_occurrences(catalog):
    text = ("[requirement R-1]\n"
            "text = The System shall hold TBD units within 1 s.\n"
            "A01 = margin is TBR\n\n"
            "[set S-1]\nname = All\nmembers = R-1\n")
    model = loads_corpus(text, catalog, clock=fixed_clock)
    report = generate_report(model, None, "SetReview")
    assert "2 unresolved placeholder(s)" in report
    assert "TBD (text" in report
    assert "TBR (attribute A01)" in report


@pytest.mark.parametrize("scoped", [
    lambda model, scope: generate_report(model, scope, "Overview"),
    lambda model, scope: generate_report(model, scope, "SetReview"),
    lambda model, scope: export_reqif(model, scope, {"A01": "Rationale", "A38": "Marker"}),
    lambda model, scope: compute_slot_completeness(model, scope, fixed_clock()),
])
def test_whole_corpus_is_none_or_all_and_nothing_else(scoped, tracechain_model):
    whole = scoped(tracechain_model, None)
    assert scoped(tracechain_model, "all") == whole
    with pytest.raises(UnknownScopeError):
        scoped(tracechain_model, "")


def test_unknown_template_rejected(asteroid_model):
    from mbsr.errors import MbsrError

    with pytest.raises(MbsrError):
        generate_report(asteroid_model, None, "Digest")


# --- set membership: SetReview and ReqIF against references ---


def _random_forest(seed):
    """A random forest, built leaves first: each new set takes some of the
    requirements and sets that no set holds yet."""
    rng = random.Random(seed)
    model = Model(clock=fixed_clock)
    free = [f"R-{i}" for i in range(40)]
    for rid in free:
        model.add_expression(RequirementExpression(rid))
    for i in range(30):
        members = rng.sample(free, rng.randint(0, min(4, len(free))))
        free = [f for f in free if f not in members] + [f"S-{i}"]
        model.add_set(RequirementSet(f"S-{i}", members=members))
    return model


def _set_review_sections(report):
    """(set id, direct member count, requirement row ids) per report section."""
    sections = []
    for chunk in report.split("\n## Set ")[1:]:
        direct, transitive = map(int, re.search(
            r"Direct members: (\d+); transitive requirements: (\d+)", chunk).groups())
        rows = re.findall(r"^\| ([^ |]+) \|", chunk.split("### TBX")[0], re.M)[2:]
        assert transitive == len(rows)
        sections.append((chunk.split()[0], direct, rows))
    return sections


def _set_review_reference(model, scope):
    """The sections SetReview lists, built set by set from transitive_members:
    every set in id order, or the scope set and then its sets in pre-order."""
    if scope is None:
        set_ids = [e.id for e in model.expressions() if e.is_set]
    else:
        set_ids = [scope] + [i for i in model.transitive_members(scope)
                             if model.expression(i).is_set]
    return [(set_id, len(model.expression(set_id).members),
             [i for i in model.transitive_members(set_id) if not model.expression(i).is_set])
            for set_id in set_ids]


def _reqif_nesting(text):
    """The SPECIFICATIONS of a ReqIF export as nested (id, children) pairs,
    children None for a requirement."""
    ns = f"{{{REQIF_NS}}}"

    def node(element):
        ref = element.find(f"{ns}OBJECT/{ns}SPEC-OBJECT-REF")
        if ref is not None:
            return ref.text, None
        return (element.get("IDENTIFIER").removeprefix("h-"),
                [node(child) for child in element.find(f"{ns}CHILDREN")])

    return [node(spec) for spec in ElementTree.fromstring(text).iter(f"{ns}SPECIFICATION")]


def _members_nesting(model, set_id):
    """A set and its members as nested (id, children) pairs, by recursion."""
    return set_id, [_members_nesting(model, m) if model.expression(m).is_set else (m, None)
                    for m in model.expression(set_id).members]


@pytest.mark.parametrize("seed", [1, 7, 2026])
def test_set_review_and_reqif_match_references_on_random_forests(seed):
    model = _random_forest(seed)
    held = {m for e in model.expressions() if e.is_set for m in e.members}
    tops = [e.id for e in model.expressions() if e.is_set and e.id not in held]
    assert _reqif_nesting(export_reqif(model)) == [_members_nesting(model, t) for t in tops]
    for scope in [None, *tops]:
        report = generate_report(model, scope, "SetReview")
        assert _set_review_sections(report) == _set_review_reference(model, scope)
        if scope is not None:
            assert _reqif_nesting(export_reqif(model, scope)) == [_members_nesting(model, scope)]


def test_set_review_of_an_empty_set_and_of_no_sets():
    model = Model(clock=fixed_clock)
    model.add_expression(RequirementExpression("R-1"))
    assert generate_report(model, None, "SetReview") == "# Set Review\n\n(no sets in scope)\n"
    model.add_set(RequirementSet("S-1"))
    assert _set_review_sections(generate_report(model, "S-1", "SetReview")) == [("S-1", 0, [])]


# --- dot ---


def test_export_dot_shapes(tracechain_model):
    dot = export_dot(tracechain_model)
    assert dot.startswith("digraph requirements {")
    assert '"L3-A" [shape=box' in dot
    assert '"blk-controller" [shape=ellipse' in dot
    assert '"L4-A" -> "L3-A" [label="Derive"];' in dot
    assert '"SET-ALL" -> "L3-A" [label="Containment"];' in dot


_DOT_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def test_export_dot_escapes_quotes_and_backslashes_in_names(catalog):
    model = loads_corpus(
        '[element blk-a]\nname = Flight "Main" \\ Computer\nkind = Block\n\n'
        "[requirement R-1]\ntext = The System shall log data within 1 s.\n\n"
        "[link L-1]\nkind = Refine\nsource = blk-a\ntarget = R-1\n",
        catalog, clock=fixed_clock)
    dot = export_dot(model)
    assert '"blk-a" [shape=ellipse, label="blk-a\\nFlight \\"Main\\" \\\\ Computer"];' in dot
    # every line is made of whole quoted strings: no quote is left unpaired
    for line in dot.splitlines():
        assert '"' not in _DOT_STRING_RE.sub("", line), line


# --- generated corpora: verdict sources and round trips ---


def _generated(workload, seed, tmp_path):
    """A benchmark corpus at a fifth of its workload's size, for the suite's
    budget, and the model loaded from it with its catalog override."""
    shape = SHAPES[workload]
    corpus = generate(workload, seed, replace(shape, n=shape.n // 5))
    config = None
    if corpus.config_text is not None:
        config = tmp_path / "catalog.cfg"
        config.write_text(corpus.config_text, encoding="utf-8")
    return corpus, loads_corpus(corpus.text(), load_catalog(config), clock=fixed_clock)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["bulk-lint", "trace-review"])
def test_verdict_map_renders_like_applied_verdict_links(workload, seed, tmp_path):
    """apply_verdicts changes no byte of export_table or SetReview, which read
    the verdict map of rules.scope_verdicts and not the stored links: render,
    apply, render again, first for one leaf set, then for the whole corpus
    over the links the first apply stored."""
    corpus, model = _generated(workload, seed, tmp_path)
    columns = ["id", *RULES, *CHARACTERISTICS]
    for scope in (corpus.leaf_sets()[0], None):
        table = export_table(model, scope, columns)
        report = generate_report(model, scope, "SetReview")
        assert apply_verdicts(model, check_scope(model, scope)) > 0
        assert export_table(model, scope, columns) == table
        assert generate_report(model, scope, "SetReview") == report


def _cli_out(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name,config", [
    *((name, config) for name in FIXTURE_NAMES for config in (None, "r2_disabled.cfg")),
    ("bulk-lint", None), ("trace-review", None)])
def test_matrix_and_csv_export_read_the_same_verdicts(name, config, tmp_path, capsys):
    """On every shipped fixture, with and without R2 disabled, and on both
    generated workloads with their own catalog override: `matrix --format
    csv` equals the csv export of the same columns byte for byte, and each
    characteristic cell of a checked requirement is the rollup of its row's
    rule cells."""
    if name in SHAPES:
        corpus, _ = _generated(name, 1, tmp_path)
        path = tmp_path / "corpus.mbsr"
        path.write_text(corpus.text(), encoding="utf-8")
        config = tmp_path / "catalog.cfg" if corpus.config_text is not None else None
    else:
        path = CORPUS_DIR / f"{name}.mbsr"
        config = FIXTURES_DIR / config if config else None
    model = load_corpus(path, load_catalog(config), clock=fixed_clock)
    argv = ["--corpus", str(path), *(["--config", str(config)] if config else [])]
    rules = [rule.rule_id for rule in model.catalog.automated_rules()]
    matrix = _cli_out(capsys, [*argv, "matrix", "--format", "csv"])
    export = _cli_out(capsys, [*argv, "export", "--format", "csv",
                               "--columns", ",".join(["id", *rules, TBX_ID])])
    assert export == matrix

    chars = sorted(model.catalog.characteristics)
    columns = ["id", *rules, *chars]
    table = _cli_out(capsys, [*argv, "export", "--format", "csv", "--columns", ",".join(columns)])
    checked = {e.id for e in model.scope_requirements(None)
               if e.kind == ExpressionKind.REQUIREMENT}
    verdict_of = {"S": Verdict.SATISFY, "V": Verdict.VIOLATE}
    letter_of = {verdict: letter for letter, verdict in verdict_of.items()}
    rows = [dict(zip(columns, row)) for row in csv.reader(table.splitlines()[1:])]
    assert checked and {row["id"] for row in rows} >= checked
    for row in rows:
        if row["id"] in checked:
            implied = rollup(model.catalog, {rule: verdict_of[row[rule]]
                                             for rule in rules if row[rule] in verdict_of})
            assert [row[c] for c in chars] == [letter_of.get(implied.get(c), "M")
                                               for c in chars], row["id"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["bulk-lint", "trace-review"])
def test_generated_corpus_text_is_a_fixed_point(workload, seed, tmp_path):
    """Serializing a reloaded corpus gives the text it was loaded from."""
    _, model = _generated(workload, seed, tmp_path)
    text = serialize_corpus(model)
    assert serialize_corpus(loads_corpus(text, model.catalog, clock=fixed_clock)) == text


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["bulk-lint", "trace-review"])
def test_generated_xmi_round_trips(workload, seed, tmp_path):
    _, model = _generated(workload, seed, tmp_path)
    xmi = export_xmi(model)
    assert export_xmi(import_xmi(xmi, model.catalog, clock=fixed_clock)) == xmi


# --- import_xmi on damaged input ---

_XMI_BAD_VALUES = ("", "Q", "K+D", "Gizmo", "not-a-date", "2026-13-40T00:00:00",
                   "-1", "1e999", "&amp;", "_deadbeef", "L3-A", "SET-ALL _x", "é ")
_XMI_BAD_TAGS = ("Need", "Need_Set", "Requirement_Set", "Requirement_Expression",
                 "Named_Element", "Widget", "")
_XMI_BAD_ATTRS = ("Kind", "Id", "Members", "Text", "SR2", "A38_Key___Driving",
                  "A14_Date_Last_Modified_", "A15_Unique_Identifier_", "Bogus_Name")
# a match starts at a word's first character: without the lookbehind each
# shorter suffix of a long name that is not an attribute is retried
_XMI_ATTR_RE = re.compile(r"(?<!\w)(\w+(?::\w+)?)='([^']*)'")


def _damage_xmi(rng, text):
    """One to three random edits: drop or garble an attribute, rename an
    element, add an attribute line, drop, double or repeat lines, and more
    rarely truncate or insert a markup character, which rarely parses."""
    for _ in range(rng.randint(1, 3)):
        attrs = list(_XMI_ATTR_RE.finditer(text))
        lines = text.split("\n")
        edit = rng.choice((0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7))
        if edit == 0:
            text = text[:rng.randrange(len(text))]
        elif edit == 1 and attrs:
            m = rng.choice(attrs)
            text = text[:m.start()] + text[m.end():]
        elif edit == 2 and attrs:
            m = rng.choice(attrs)
            text = text[:m.start(2)] + rng.choice(_XMI_BAD_VALUES) + text[m.end(2):]
        elif edit == 3:
            old = rng.choice(_XMI_BAD_TAGS[:5])
            text = text.replace(f"Profile:{old}\n", f"Profile:{rng.choice(_XMI_BAD_TAGS)}\n", 1)
        elif edit == 4:
            i = rng.randrange(len(lines))
            lines.insert(i, f"      {rng.choice(_XMI_BAD_ATTRS)}='{rng.choice(_XMI_BAD_VALUES)}'")
            text = "\n".join(lines)
        elif edit == 5:
            i = rng.randrange(len(lines))
            lines[i:i + 1] = [lines[i]] * rng.choice((0, 2))
            text = "\n".join(lines)
        elif edit == 6:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(("<", ">", "&", "'", '"', "/>", "\x00")) + text[i:]
        else:
            i = rng.randrange(len(lines))
            block = lines[max(0, i - 6):i]
            lines[i:i] = block
            text = "\n".join(lines)
    return text


# import_xmi as first written: four passes over the entries, the profile
# tags spelt out, two copies of the reference check. The model calls, the
# attribute decoder and the error naming are the package's own, unchanged.
# Since first written, an entry outside the profile tags is an error.
def _reference_import_xmi(text, catalog, clock, model_uuid):
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

    public_of = {}
    for entry in root:
        iid = entry.get(xmi_id_key)
        public = entry.get("Id")
        if entry.tag not in {q + tag for tag in ("Named_Element", "Requirement_Expression",
                                                 "Need", "Requirement_Set", "Need_Set")}:
            label = f"{public}:" if public else f"xmi:id {entry.get(xmi_id_key, '')!r}:"
            raise CorpusValidationError(f"{label} unknown entry {entry.tag!r}")
        if iid and public:
            public_of[iid] = public
            if entry.tag != q + "Named_Element":
                public_of[iid.rstrip("_")] = public

    for entry in root:
        if entry.tag != q + "Named_Element":
            continue
        label = f"element {entry.get('Id')!r}:"
        try:
            kind = ElementKind(entry.get("Kind", "Other"))
        except ValueError:
            raise CorpusValidationError(
                f"{label} unknown element kind {entry.get('Kind')!r}") from None
        with _naming(label):
            model.add_element(ModelElement(entry.get("Id", ""), entry.get("Name", ""), kind))

    def _label(entry):
        """The message prefix naming an entry: its Id, else its xmi:id."""
        public = entry.get("Id")
        return f"{public}:" if public else f"xmi:id {entry.get(xmi_id_key, '')!r}:"

    def _read_attrs(entry, label):
        out = {}
        for name, raw in entry.attrib.items():
            if name in (xmi_id_key, "base_Class", "Id", "Text", "Name", "Members"):
                continue
            if name in reverse_slot:
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

    set_entries = []
    for entry in root:
        local = entry.tag[len(q):] if entry.tag.startswith(q) else entry.tag
        if local in ("Requirement_Set", "Need_Set"):
            set_entries.append((entry, local))
            continue
        if local not in ("Requirement_Expression", "Need"):
            continue
        public = entry.get("Id", "")
        label = _label(entry)
        text_value = entry.get("Text", "")
        kind = (ExpressionKind.REQUIREMENT if local == "Requirement_Expression"
                else ExpressionKind.NEED)
        bindings = {}
        for name, key in reverse_slot.items():
            ref = entry.get(name)
            if ref is not None:
                if ref not in public_of:
                    raise CorpusValidationError(
                        f"{label} slot reference {ref!r} does not resolve")
                bindings[key] = public_of[ref]
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

    for entry, local in set_entries:
        kind = (ExpressionKind.REQUIREMENT if local == "Requirement_Set"
                else ExpressionKind.NEED)
        set_id = entry.get("Id", "")
        label = _label(entry)
        attributes = _read_attrs(entry, label)
        with _naming(label):
            model.add_set(RequirementSet(
                id=set_id, name=entry.get("Name", set_id), attributes=attributes,
                kind=kind))
    for entry, _ in set_entries:
        label = _label(entry)
        members = []
        for ref in entry.get("Members", "").split():
            if ref not in public_of:
                raise CorpusValidationError(
                    f"{label} member reference {ref!r} does not resolve")
            members.append(public_of[ref])
        if members:
            with _naming(label):
                model.set_members(entry.get("Id", ""), members, touch=False)
    return model


def _import_outcome(import_, text, catalog):
    """The imported model's corpus and XMI, or the error's type and message."""
    try:
        model = import_(text, catalog, fixed_clock, uuid.UUID(int=7))
    except MbsrError as exc:
        return type(exc).__name__, str(exc)
    return "imported", serialize_corpus(model), export_xmi(model)


def test_import_xmi_fuzz_raises_only_mbsr_errors(catalog):
    """Every damaged XMI imports as the reference imports it: the same
    corpus and XMI, or the same error and message."""
    sources = [export_xmi(load_corpus(CORPUS_DIR / f"{name}.mbsr", catalog,
                                      clock=fixed_clock))
               for name in ("asteroid", "tracechain", "verdicts")]
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(400):
        text = _damage_xmi(rng, rng.choice(sources))
        try:
            got = _import_outcome(import_xmi, text, catalog)
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} escaped import_xmi for:\n{text}")
        assert got == _import_outcome(_reference_import_xmi, text, catalog), text
        outcomes.add(got[0])
    assert outcomes == {"imported", "CorpusValidationError"}


def test_import_xmi_names_a_blank_or_repeated_element_id(catalog):
    text = export_xmi(load_corpus(CORPUS_DIR / "tracechain.mbsr", catalog, clock=fixed_clock))
    entry = re.search(r"  <\S+:Named_Element\n[^>]*Id='blk-controller'\n[^>]*/>\n", text).group(0)
    blank = text.replace(entry, entry.replace("Id='blk-controller'", "Id=''"))
    with pytest.raises(CorpusValidationError) as exc:
        import_xmi(blank, catalog, clock=fixed_clock)
    assert str(exc.value) == "element '': InvariantViolationError: bad element id ''"
    repeated = text.replace(entry, entry * 2)
    with pytest.raises(CorpusValidationError) as exc:
        import_xmi(repeated, catalog, clock=fixed_clock)
    assert str(exc.value).startswith("element 'blk-controller': DuplicateIdError: ")


@pytest.mark.parametrize("public", ["L4-A", "SET-ALL"])
def test_import_xmi_names_an_entry_with_a_blank_id_by_its_xmi_id(public, tracechain_model,
                                                                 catalog):
    xmi = export_xmi(tracechain_model)
    assert f"Id='{public}'" in xmi
    with pytest.raises(CorpusValidationError) as exc:
        import_xmi(xmi.replace(f"Id='{public}'", "Id=''", 1), catalog, clock=fixed_clock)
    xmi_id = internal_id(tracechain_model, public) + "_"
    assert str(exc.value) == f"xmi:id '{xmi_id}': InvariantViolationError: bad id ''"


@pytest.mark.parametrize("old, new, tag", [
    (f"{PROFILE}:Requirement_Expression", f"{PROFILE}:Widget", f"{{{PROFILE_NS}}}Widget"),
    (f"{PROFILE}:Requirement_Expression", "Requirement_Expression", "Requirement_Expression"),
    (f"{PROFILE}:Requirement_Expression", "Need", "Need"),
    (f"{PROFILE}:Named_Element", "Named_Element", "Named_Element"),
], ids=["profile-widget", "bare-requirement", "bare-need", "bare-element"])
def test_import_xmi_names_an_entry_outside_the_profile(old, new, tag, tracechain_model,
                                                       catalog):
    xmi = export_xmi(tracechain_model)
    entry = re.search(rf"  <{old}\n[^>]*/>\n", xmi).group(0)
    public = re.search(r"Id='([^']*)'", entry).group(1)
    bad = xmi.replace(entry, entry.replace(old, new), 1)
    with pytest.raises(CorpusValidationError) as exc:
        import_xmi(bad, catalog, clock=fixed_clock)
    assert str(exc.value) == f"{public}: unknown entry {tag!r}"


def test_import_xmi_names_the_entry_with_an_unknown_attribute(tracechain_model, catalog):
    xmi = export_xmi(tracechain_model)
    bad = xmi.replace("A38_Key___Driving='D'", "A38_Key___Driving='D' Bogus_Name='x'", 1)
    with pytest.raises(CorpusValidationError) as exc:
        import_xmi(bad, catalog, clock=fixed_clock)
    assert str(exc.value) == "L4-A: unknown profile attribute 'Bogus_Name'"


def test_import_xmi_reports_an_unresolved_slot_reference_before_an_unknown_attribute(
        asteroid_model, catalog):
    xmi = export_xmi(asteroid_model)
    ref = f"SR2_Subject='{internal_id(asteroid_model, 'blk-spacecraft')}'"
    assert xmi.index(ref) > xmi.index("Id='L3-EX.1'")
    bad = xmi.replace(ref, "SR2_Subject='NOPE' Bogus_Name='x'", 1)
    with pytest.raises(CorpusValidationError) as exc:
        import_xmi(bad, catalog, clock=fixed_clock)
    assert str(exc.value) == "L3-EX.1: slot reference 'NOPE' does not resolve"
