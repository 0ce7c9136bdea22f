"""Corpus format round trips, XMI export/import, ReqIF, tables, reports."""

import random
import re
import time
import uuid
from dataclasses import replace

import pytest

from bench.corpus import CHARACTERISTICS, RULES, SHAPES, generate
from mbsr import (
    AttributeValue,
    Model,
    RequirementExpression,
    apply_verdicts,
    check_scope,
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
)
from mbsr.interchange import internal_id, mangled_attribute_name
from mbsr.rules import verdict_map
from tests.conftest import CORPUS_DIR, fixed_clock

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


def test_export_table_verdict_columns(mixed_model):
    from mbsr import apply_verdicts, check_scope

    apply_verdicts(mixed_model, check_scope(mixed_model))
    csv_text = export_table(mixed_model, None, ["id", "R16", "TBX"])
    rows = dict(line.split(",", 1) for line in csv_text.strip().split("\n")[1:])
    assert rows["M-02"] == "V,S"
    assert rows["M-03"] == "S,V"


def test_verdict_letter_is_the_first_verdict_link_in_id_order(catalog):
    text = ("[requirement R-1]\ntext = The System shall run within 1 s.\n\n"
            "[set S-1]\nname = All\nmembers = R-1\n\n"
            "[link lnk-9999]\nkind = Satisfy\nsource = R-1\ntarget = R16\n\n"
            "[link lnk-10000]\nkind = Violate\nsource = R-1\ntarget = R16\n\n"
            "[link a-1]\nkind = Satisfy\nsource = R-1\ntarget = C3\n\n"
            "[link b-1]\nkind = Violate\nsource = R-1\ntarget = C3\n")
    model = loads_corpus(text, catalog, clock=fixed_clock)
    # "lnk-10000" sorts before "lnk-9999" as a string, so Violate comes first
    csv_text = export_table(model, None, ["id", "R16", "C3", "R1"])
    assert csv_text.splitlines()[1] == "R-1,V,S,M"
    report = generate_report(model, None, "SetReview")
    assert "| R-1 | M | M | M | V | M |" in report


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


def test_unknown_template_rejected(asteroid_model):
    from mbsr.errors import MbsrError

    with pytest.raises(MbsrError):
        generate_report(asteroid_model, None, "Digest")


# --- dot ---


def test_export_dot_shapes(tracechain_model):
    dot = export_dot(tracechain_model)
    assert dot.startswith("digraph requirements {")
    assert '"L3-A" [shape=box' in dot
    assert '"blk-controller" [shape=ellipse' in dot
    assert '"L4-A" -> "L3-A" [label="Derive"];' in dot
    assert '"SET-ALL" -> "L3-A" [label="Containment"];' in dot


# --- verdict source against stored verdict links, on generated corpora ---


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["bulk-lint", "trace-review"])
def test_verdict_map_renders_like_applied_verdict_links(workload, seed, tmp_path):
    """export_table and SetReview read from a verdict map give what they give
    after apply_verdicts stored the same findings: first for one leaf set,
    so the other requirements fall back to their (absent) links, then for
    the whole corpus, over the links the first apply stored. The corpora keep
    their workload's make-up at a fifth of its size, for the suite's budget."""
    shape = SHAPES[workload]
    corpus = generate(workload, seed, replace(shape, n=shape.n // 5))
    config = None
    if corpus.config_text is not None:
        config = tmp_path / "catalog.cfg"
        config.write_text(corpus.config_text, encoding="utf-8")
    model = loads_corpus(corpus.text(), load_catalog(config), clock=fixed_clock)
    columns = ["id", *RULES, *CHARACTERISTICS]
    for scope in (corpus.leaf_sets()[0], None):
        findings = check_scope(model, scope)
        verdicts = verdict_map(findings)
        with_rollup = {eid: {**v, **rollup(model.catalog, v)} for eid, v in verdicts.items()}
        table = export_table(model, None, columns, with_rollup)
        report = generate_report(model, None, "SetReview", verdicts)
        assert apply_verdicts(model, findings) > 0
        assert export_table(model, None, columns) == table
        assert generate_report(model, None, "SetReview") == report


# --- import_xmi on damaged input ---

_XMI_BAD_VALUES = ("", "Q", "K+D", "Gizmo", "not-a-date", "2026-13-40T00:00:00",
                   "-1", "1e999", "&amp;", "_deadbeef", "L3-A", "SET-ALL _x", "é ")
_XMI_BAD_TAGS = ("Need", "Need_Set", "Requirement_Set", "Requirement_Expression",
                 "Named_Element", "Widget", "")
_XMI_BAD_ATTRS = ("Kind", "Id", "Members", "Text", "SR2", "A38_Key___Driving",
                  "A14_Date_Last_Modified_", "A15_Unique_Identifier_", "Bogus_Name")
_XMI_ATTR_RE = re.compile(r"(\w+(?::\w+)?)='([^']*)'")


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


def test_import_xmi_fuzz_raises_only_mbsr_errors(catalog):
    sources = [export_xmi(load_corpus(CORPUS_DIR / f"{name}.mbsr", catalog,
                                      clock=fixed_clock))
               for name in ("asteroid", "tracechain", "verdicts")]
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(200):
        text = _damage_xmi(rng, rng.choice(sources))
        try:
            import_xmi(text, catalog, clock=fixed_clock)
            outcomes.add("imported")
        except CorpusValidationError:
            outcomes.add("CorpusValidationError")
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} escaped import_xmi for:\n{text}")
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


def test_import_xmi_names_the_entry_with_an_unknown_attribute(tracechain_model, catalog):
    xmi = export_xmi(tracechain_model)
    bad = xmi.replace("A38_Key___Driving='D'", "A38_Key___Driving='D' Bogus_Name='x'", 1)
    with pytest.raises(CorpusValidationError) as exc:
        import_xmi(bad, catalog, clock=fixed_clock)
    assert str(exc.value) == "L4-A: unknown profile attribute 'Bogus_Name'"
