"""Catalog registries: rules, characteristics, attributes, patterns, overrides."""

import random
import string

import pytest

from mbsr import (
    AUTOMATED_RULE_IDS,
    Applicability,
    Automation,
    Derivation,
    ValueKind,
    default_catalog,
    load_catalog,
    validate_catalog,
)
from mbsr.catalog import CONSTRAINT_MARKERS, PATTERNS
from mbsr.errors import CatalogParseError, InvariantViolationError, MbsrError


def test_rule_registry_is_r1_to_r42(catalog):
    assert set(catalog.rules) == {f"R{n}" for n in range(1, 43)}


def test_automated_rules_have_checkers(catalog):
    assert AUTOMATED_RULE_IDS == frozenset({"R1", "R2", "R10", "R16"})
    for rid, rule in catalog.rules.items():
        expected = Automation.AUTOMATED if rid in AUTOMATED_RULE_IDS else Automation.MANUAL
        assert rule.automation is expected, rid


def test_every_rule_contributes_to_known_characteristics(catalog):
    for rule in catalog.rules.values():
        for cid in rule.contributes_to:
            assert cid in catalog.characteristics


def test_characteristics_applicability_split(catalog):
    chars = catalog.characteristics
    assert len(chars) == 15
    for n in range(1, 10):
        assert chars[f"C{n}"].applicability is Applicability.INDIVIDUAL
    for n in range(10, 16):
        assert chars[f"C{n}"].applicability is Applicability.SET


def test_characteristics_standard_mappings(catalog):
    for cid, char in catalog.characteristics.items():
        assert char.nasa_mapped is True, cid
        assert char.iso_mapped is (cid != "C15"), cid


def test_characteristics_for_filters(catalog):
    individual = catalog.characteristics_for(Applicability.INDIVIDUAL)
    assert [c.characteristic_id for c in individual] == [f"C{n}" for n in range(1, 10)]


def test_attribute_registry_is_a01_to_a49(catalog):
    assert set(catalog.attributes) == {f"A{n:02d}" for n in range(1, 50)}


def test_minimum_attribute_set(catalog):
    minimum = {k for k, a in catalog.attributes.items() if a.minimum_set}
    assert minimum == {"A01", "A08", "A15", "A16", "A28", "A34", "A40"}


def test_enumerated_attributes_carry_value_sets(catalog):
    a34 = catalog.attributes["A34"]
    assert a34.value_kind is ValueKind.ENUM
    assert a34.value_set is not None
    a38 = catalog.attributes["A38"]
    assert {"K", "D", "K+D"}.issubset(a38.value_set)
    a14 = catalog.attributes["A14"]
    assert a14.value_kind is ValueKind.TIMESTAMP


def test_patterns_and_slot_orders(catalog):
    assert set(catalog.patterns) == {"Iso1", "Iso2", "Carson"}
    assert catalog.patterns["Iso1"].slot_order == ("SR2", "SR3", "SR5")
    assert catalog.patterns["Iso2"].slot_order == ("SR1", "SR2", "SR3", "SR4", "SR5")
    assert catalog.patterns["Carson"].slot_order == ("SR2", "SR3", "SR5", "SR1")


def test_iso2_condition_markers(catalog):
    markers = catalog.patterns["Iso2"].connective_words["SR1"]
    for word in ("While", "When", "If", "During", "Where", "Upon"):
        assert word in markers


def test_validate_accepts_default(catalog):
    validate_catalog(catalog)


def test_load_catalog_without_config_matches_default(catalog):
    loaded = load_catalog()
    assert set(loaded.rules) == set(catalog.rules)
    assert loaded.attributes["A34"] == catalog.attributes["A34"]
    assert loaded == catalog
    assert loaded == default_catalog()


@pytest.mark.parametrize("pid", sorted(PATTERNS))
def test_pattern_table_drives_slot_order_and_template(pid):
    shape = PATTERNS[pid]
    assert default_catalog().patterns[pid].slot_order == shape.slot_order
    fields = [name for _, name, _, _ in string.Formatter().parse(shape.template)
              if name is not None]
    assert sorted(fields) == sorted(shape.slot_order)


def test_pattern_override_does_not_leak_into_later_defaults(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[pattern Iso1]\nsr5_markers = within\n", encoding="utf-8")
    loaded = load_catalog(cfg)
    assert loaded.patterns["Iso1"].connective_words["SR5"] == ("within",)
    loaded.patterns["Iso2"].connective_words["SR5"] = ("every",)
    fresh = default_catalog()
    assert fresh.patterns["Iso1"].connective_words["SR5"] == CONSTRAINT_MARKERS
    assert fresh.patterns["Iso2"].connective_words["SR5"] == CONSTRAINT_MARKERS


@pytest.mark.parametrize("pid, key", [("Carson", "sr5_markers"), ("Iso1", "sr1_markers")])
def test_pattern_override_rejects_markers_the_parser_never_reads(tmp_path, pid, key):
    # Carson statements are found with Iso1's SR5 markers; Iso1 has no SR1
    cfg = tmp_path / "cat.cfg"
    cfg.write_text(f"# unread markers\n[pattern {pid}]\n{key} = before\n",
                   encoding="utf-8")
    with pytest.raises(CatalogParseError, match=f"^line 3: {pid} does not read {key}"):
        load_catalog(cfg)


def test_override_disables_rule(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R10]\nenabled = false\n", encoding="utf-8")
    catalog = load_catalog(cfg)
    assert catalog.rules["R10"].enabled is False
    assert catalog.rules["R2"].enabled is True


def test_override_extends_phrase_list(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R10]\nphrases = be capable of, as appropriate\n",
                   encoding="utf-8")
    catalog = load_catalog(cfg)
    assert catalog.rules["R10"].params["phrases"] == ("be capable of", "as appropriate")


def test_override_adds_extension_attribute(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[attribute X01]\nname = Review Board\nkind = Text\n",
                   encoding="utf-8")
    catalog = load_catalog(cfg)
    assert catalog.attributes["X01"].name == "Review Board"


def test_override_rejects_new_a_attribute(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[attribute A50]\nname = Bogus\n", encoding="utf-8")
    with pytest.raises(InvariantViolationError):
        load_catalog(cfg)


def test_override_rejects_unknown_rule(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R43]\nenabled = false\n", encoding="utf-8")
    with pytest.raises(InvariantViolationError):
        load_catalog(cfg)


def test_override_rejects_unknown_field(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R1]\nseverity = high\n", encoding="utf-8")
    with pytest.raises(CatalogParseError):
        load_catalog(cfg)


def test_override_flags(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[flags config]\nforbid_trace_links = true\n", encoding="utf-8")
    catalog = load_catalog(cfg)
    assert catalog.forbid_trace_links is True


def test_is_graph_node(catalog):
    assert catalog.is_graph_node("R1")
    assert catalog.is_graph_node("C15")
    assert not catalog.is_graph_node("A01")
    assert not catalog.is_graph_node("REQ-1")


# the fuzz below draws configs from these: per section kind, its ids and, per
# field, valid and broken values; plus headers and lines wrong in any section
_FUZZ_SECTIONS = {
    "rule": (("R1", "R2", "R10", "R16", "R7"), {
        "enabled": ("true", "no", "maybe"), "automation": ("Manual", "Automated", "Sometimes"),
        "contributes_to": ("C3, C4", "C99", ""), "phrases": ("be able to", ""),
        "participles": (", ,",), "name": ("New name",), "description": ("Text", "<<<")}),
    "attribute": (("A34", "A14", "A01", "XRisk", "XCost"), {
        "name": ("Risk",), "group": ("G",), "minimum": ("yes", "perhaps"),
        "kind": ("Enum", "Text", "Timestamp", "Blob"), "values": ("High, Low", "")}),
    "characteristic": (("C3", "C10", "C15"), {
        "name": ("Clear",), "derivation": ("FormalTransformation", "Guess")}),
    "pattern": (("Iso1", "Iso2", "Carson"), {
        "sr1_markers": ("When, If", ""), "sr5_markers": ("within", ","), "sr3_markers": ("x",)}),
    "flags": (("config",), {
        "case_insensitive_terms": ("true", "2"), "forbid_trace_links": ("false", "nope")}),
}
_FUZZ_BAD_HEADERS = ("[rule R99]", "[rule R43]", "[attribute A50]", "[characteristic C16]",
                     "[pattern Iso9]", "[widget W1]", "[Rule R1]", "[rule]")
_FUZZ_ANY_LINES = ("bogus = 1", "no equals sign", "= empty key", "# comment",
                   "fenced line", ">>>", "<<<")


def _fuzz_config(rng):
    lines = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(sorted(_FUZZ_SECTIONS))
        ids, fields = _FUZZ_SECTIONS[kind]
        lines.append(f"[{kind} {rng.choice(ids)}]" if rng.random() < 0.9
                     else rng.choice(_FUZZ_BAD_HEADERS))
        for key in rng.sample(sorted(fields), min(len(fields), rng.randint(0, 4))):
            lines.append(f"{key} = {rng.choice(fields[key])}".rstrip())
            if rng.random() < 0.1:
                lines.append(rng.choice(_FUZZ_ANY_LINES))
        if rng.random() < 0.9:
            lines.append("")
    return "\n".join(lines) + "\n"


def test_load_catalog_fuzz_raises_only_mbsr_errors(tmp_path):
    rng = random.Random(20261018)
    cfg = tmp_path / "cat.cfg"
    outcomes = set()
    for _ in range(400):
        text = _fuzz_config(rng)
        cfg.write_text(text, encoding="utf-8")
        try:
            load_catalog(cfg)
            outcomes.add("loaded")
        except MbsrError as exc:
            outcomes.add(type(exc).__name__)
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} escaped load_catalog for:\n{text}")
    assert {"loaded", "CatalogParseError", "InvariantViolationError"} <= outcomes
