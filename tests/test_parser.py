"""Statement parsing against the hand-annotated golden fixture, rendering,
diagnostics, and a seeded generator round-trip property."""

import json
import random
import re

import pytest

from mbsr import (
    ElementKind,
    Glossary,
    GlossaryTerm,
    Model,
    ModelElement,
    count_shall,
    parse_statement,
    render_statement,
)
from mbsr.errors import EmptySlotError, NoShallKeywordError
from tests.conftest import FIXTURES_DIR

GOLDEN = json.loads((FIXTURES_DIR / "parser_golden.json").read_text())["cases"]

SLOT_KEYS = ("sr1", "sr2", "sr3", "sr4", "sr5")


def slot_texts(statement):
    return {key.lower(): (slot.text if slot else None)
            for key, slot in statement.slots().items()}


@pytest.mark.parametrize("case", GOLDEN, ids=[c["id"] for c in GOLDEN])
def test_golden_slot_decomposition(case):
    statement, diagnostics = parse_statement(case["text"])
    assert statement.pattern == case["pattern"]
    got = slot_texts(statement)
    for key in SLOT_KEYS:
        assert got[key] == case.get(key), key


@pytest.mark.parametrize("case", GOLDEN, ids=[c["id"] for c in GOLDEN])
def test_golden_render_round_trip(case):
    statement, _ = parse_statement(case["text"])
    normalized = " ".join(case["text"].split())
    assert render_statement(statement) == normalized


@pytest.mark.parametrize("case", GOLDEN, ids=[c["id"] for c in GOLDEN])
def test_diagnostics_spans_cover_slots(case):
    statement, diagnostics = parse_statement(case["text"])
    assert diagnostics.matched_pattern == case["pattern"]
    assert diagnostics.shall_count == 1
    assert diagnostics.unconsumed == []
    got = slot_texts(statement)
    for key, (start, end) in diagnostics.slot_spans.items():
        assert case["text"][start:end] == got[key.lower()]


def test_no_shall_keyword():
    with pytest.raises(NoShallKeywordError):
        parse_statement("The product must be safe.")


def test_missing_constraint_marker_is_an_empty_slot():
    with pytest.raises(EmptySlotError) as err:
        parse_statement("The Spacecraft shall not exceed 100 kg.")
    assert err.value.slot == "SR5"


def test_missing_subject_is_an_empty_slot():
    with pytest.raises(EmptySlotError) as err:
        parse_statement("The shall run within 1 s.")
    assert err.value.slot == "SR2"


def test_condition_requires_leading_keyword_and_comma():
    # leading keyword but no comma before shall: falls back to a plain
    # subject-action reading with everything before shall as the subject
    statement, _ = parse_statement("While idle the System shall wait within 1 s.")
    assert statement.pattern == "Iso1"
    assert statement.slot("SR2").text == "While idle the System"
    statement, _ = parse_statement("While idle, the System shall log Events within 1 s.")
    assert statement.pattern == "Iso2"


def test_iso2_without_object_is_an_empty_slot():
    with pytest.raises(EmptySlotError) as err:
        parse_statement("While idle, the System shall wait within 1 s.")
    assert err.value.slot == "SR4"


def test_condition_keyword_is_case_insensitive():
    statement, _ = parse_statement(
        "WHEN armed, the Launcher shall fire Flare within 1 s.")
    assert statement.pattern == "Iso2"
    assert statement.slot("SR1").text == "WHEN armed"


def test_carson_condition_needs_trailing_words():
    # "under" as the last word cannot open a condition
    with pytest.raises(EmptySlotError):
        parse_statement("The System shall operate beneath the sea under.")


def test_longest_constraint_marker_wins():
    statement, _ = parse_statement(
        "The Recorder shall capture Audio_Stream in less than 5 ms.")
    assert statement.slot("SR5").text == "in less than 5 ms"


def test_multi_shall_counts():
    assert count_shall("The A shall run and shall stop.") == 2
    assert count_shall("Shall we? We shall.") == 2
    assert count_shall("Marshall shall proceed.") == 1
    assert count_shall("No keyword here.") == 0


def test_glossary_binding_resolves_slots(catalog):
    model = Model(catalog=catalog)
    model.add_element(ModelElement("blk-sys", "System", ElementKind.BLOCK))
    model.glossary.add_term(GlossaryTerm(
        "System", definition="the product", allocations=("blk-sys",)))
    statement, _ = parse_statement(
        "The System shall run within 1 s.", glossary=model.glossary)
    assert statement.slot("SR2").binding == "blk-sys"
    # unresolved fragments simply stay unbound
    assert statement.slot("SR3").binding is None


def test_binding_requires_unique_allocation(catalog):
    glossary = Glossary()
    glossary.add_term(GlossaryTerm(
        "System", definition="ambiguous", allocations=("blk-a", "blk-b")))
    statement, _ = parse_statement(
        "The System shall run within 1 s.", glossary=glossary)
    assert statement.slot("SR2").binding is None


# --- seeded generator property ---

SUBJECTS = ("Spacecraft", "Ground_Station", "Flight_Computer", "Rover",
            "Power_Manager", "Seal_Monitor")
ACTIONS = ("collect", "transmit", "archive", "deploy", "monitor", "persist")
OBJECTS = ("Telemetry_Frames", "Regolith_Sample", "Main_Chute",
           "Event_Log", "Pressure_Report")
CONSTRAINTS = ("within 5 s", "at least every 10 s", "in less than 2 min",
               "between 1 bar and 2 bar", "at most 200 m per sol")
CONDITIONS = ("While in the Survey mode", "When the battery drops low",
              "If the abort command is received", "During descent",
              "Upon receipt of the signal")
CARSON_CONDITIONS = ("Survey mode", "eclipse conditions", "nominal load")


def generate_statement(rng):
    shape = rng.choice(("Iso1", "Iso2", "Carson"))
    subject = rng.choice(SUBJECTS)
    action = rng.choice(ACTIONS)
    constraint = rng.choice(CONSTRAINTS)
    if shape == "Iso1":
        obj = rng.choice(OBJECTS)
        return f"The {subject} shall {action} {obj} {constraint}."
    if shape == "Iso2":
        condition = rng.choice(CONDITIONS)
        obj = rng.choice(OBJECTS)
        return f"{condition}, the {subject} shall {action} {obj} {constraint}."
    condition = rng.choice(CARSON_CONDITIONS)
    obj = rng.choice(OBJECTS)
    return f"The {subject} shall {action} {obj} {constraint} under {condition}."


def test_generated_statements_round_trip():
    rng = random.Random(20260314)
    for _ in range(200):
        text = generate_statement(rng)
        statement, _ = parse_statement(text)
        assert render_statement(statement) == " ".join(text.split()), text


def test_fuzz_inputs_never_crash_uncontrolled():
    """Arbitrary text must either parse or raise a package error."""
    from mbsr.errors import MbsrError

    rng = random.Random(99)
    alphabet = "abz AB.,;:!?_-0129é中\U0001f680\n\t'\"<>&"
    for _ in range(500):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 60)))
        try:
            statement, _ = parse_statement(text)
            render_statement(statement)
        except MbsrError:
            pass


def test_marker_lexicon_overrides_do_not_share_cached_markers(tmp_path):
    from mbsr import default_catalog, load_catalog

    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[pattern Iso1]\nsr5_markers = within\n", encoding="utf-8")
    narrow = load_catalog(cfg)
    text = "The System shall run with power within 1 s."
    for _ in range(2):
        default, _ = parse_statement(text, None, default_catalog())
        assert default.slot("SR3").text == "run"
        assert default.slot("SR5").text == "with power within 1 s"
        overridden, _ = parse_statement(text, None, narrow)
        assert overridden.slot("SR3").text == "run with power"
        assert overridden.slot("SR5").text == "within 1 s"


def _reference_uncovered(text, covered):
    """_uncovered as first written: a mask of covered characters, then one
    scan of the text."""
    mask = bytearray(len(text))
    for start, end in covered:
        for i in range(max(start, 0), min(end, len(text))):
            mask[i] = 1
    out = []
    run_start = None
    for i, ch in enumerate(text):
        if not mask[i] and not ch.isspace():
            if run_start is None:
                run_start = i
        else:
            if run_start is not None:
                out.append((run_start, i))
                run_start = None
    if run_start is not None:
        out.append((run_start, len(text)))
    return out


def test_uncovered_matches_the_mask_scan():
    """Every whitespace character, and spans that are empty, reversed,
    negative, overlapping or past the end of the text."""
    from mbsr.parser import _uncovered

    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    alphabet = spaces + list("ab.,_-0é中\U0001f680\x00") + ["\u200b", "\ufeff"]
    rng = random.Random(20261019)
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))
        bound = len(text) + 3
        covered = [(rng.randint(-3, bound), rng.randint(-3, bound))
                   for _ in range(rng.randrange(0, 5))]
        assert _uncovered(text, covered) == _reference_uncovered(text, covered), (text, covered)
