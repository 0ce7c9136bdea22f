"""Catalog registries: rules, characteristics, attributes, patterns, overrides."""

import random
import string

import pytest

from mbsr import (
    Applicability,
    Automation,
    Derivation,
    ValueKind,
    default_catalog,
    load_catalog,
    validate_catalog,
)
from mbsr.blockfile import parse_blocks, split_list
from mbsr.catalog import (
    _X_KEY_RE,
    CONSTRAINT_MARKERS,
    PATTERNS,
    AttributeDef,
    Catalog,
    _parse_bool,
)
from mbsr.errors import CatalogParseError, InvariantViolationError, MbsrError


def test_rule_registry_is_r1_to_r42(catalog):
    assert set(catalog.rules) == {f"R{n}" for n in range(1, 43)}


def test_automated_rules_have_checkers(catalog):
    from mbsr.rules import _CHECKERS

    automated = [rule.rule_id for rule in catalog.automated_rules()]
    assert automated == ["R1", "R2", "R10", "R16"]
    for rid, rule in catalog.rules.items():
        expected = Automation.AUTOMATED if rid in automated else Automation.MANUAL
        assert rule.automation is expected, rid
    # every automated rule without code is a phrase rule
    assert [rid for rid in automated if rid not in _CHECKERS] == ["R10", "R16"]
    assert catalog.rules["R16"].params["phrases"] == ("shall not",)


def test_automated_rule_ids_are_the_checker_table():
    # validate_catalog lets a rule without phrases be automated only when
    # the rule checker has code for it, in its own table
    from mbsr.catalog import _CODE_CHECKED_RULE_IDS
    from mbsr.rules import _CHECKERS

    assert set(_CHECKERS) == _CODE_CHECKED_RULE_IDS


def test_override_makes_a_manual_rule_a_phrase_rule(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R7]\nautomation = Automated\nphrases = some, several\n",
                   encoding="utf-8")
    catalog = load_catalog(cfg)
    assert [r.rule_id for r in catalog.automated_rules()] == ["R1", "R2", "R7", "R10", "R16"]
    assert catalog.rules["R7"].params == {"phrases": ("some", "several")}


@pytest.mark.parametrize("rid, phrases", [
    pytest.param("R7", "", id="R7"), pytest.param("R42", "", id="R42"),
    # an empty phrase list counts as none: the rule would satisfy on every text
    pytest.param("R7", "phrases =\n", id="R7-empty"),
    pytest.param("R10", "phrases =\n", id="R10-empty")])
def test_automated_rule_without_code_or_phrases_is_rejected(tmp_path, rid, phrases):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text(f"[rule {rid}]\nautomation = Automated\n{phrases}", encoding="utf-8")
    with pytest.raises(InvariantViolationError,
                       match=f"^{rid}: an automated rule needs a code checker or phrases$"):
        load_catalog(cfg)


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
        "contributes_to": ("C3, C4", "C99", ""), "phrases": ("be able to", "etc., 100%", ""),
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


# configs the random draw seldom reaches: a manual rule made a phrase rule,
# a rule made automated without phrases, and a code-checked rule made manual
_FUZZ_SEEDS = ("[rule R7]\nautomation = Automated\nphrases = etc., 100%\n",
               "[rule R26]\nautomation = Automated\n",
               "[rule R1]\nautomation = Manual\n")


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


# The five override handlers and the loop of load_catalog as first written,
# one hand-written branch per field, kept as the reference that the
# table-driven overrides must match.


def _reference_override_rule(catalog, block):
    rid = block.ident
    if rid not in catalog.rules:
        raise InvariantViolationError(f"line {block.line}: cannot add rule {rid!r}; the registry is fixed at R1..R42")
    rule = catalog.rules[rid]
    for key, value in block.fields.items():
        line = block.field_lines[key]
        if key == "name":
            rule = rule._replace(name=value)
        elif key == "description":
            rule = rule._replace(description=value)
        elif key == "enabled":
            rule = rule._replace(enabled=_parse_bool(value, line))
        elif key == "contributes_to":
            rule = rule._replace(contributes_to=frozenset(split_list(value)))
        elif key == "automation":
            try:
                rule = rule._replace(automation=Automation(value))
            except ValueError:
                raise CatalogParseError(f"unknown automation {value!r}", line) from None
        elif key in ("phrases", "participles"):
            params = dict(rule.params)
            params[key] = split_list(value)
            rule = rule._replace(params=params)
        else:
            raise CatalogParseError(f"unknown rule field {key!r}", line)
    catalog.rules[rid] = rule


def _reference_override_attribute(catalog, block):
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
            attr = attr._replace(name=value)
        elif fkey == "group":
            attr = attr._replace(group=value)
        elif fkey == "minimum":
            attr = attr._replace(minimum_set=_parse_bool(value, line))
        elif fkey == "kind":
            try:
                attr = attr._replace(value_kind=ValueKind(value))
            except ValueError:
                raise CatalogParseError(f"unknown value kind {value!r}", line) from None
        elif fkey == "values":
            attr = attr._replace(value_set=split_list(value) or None)
        else:
            raise CatalogParseError(f"unknown attribute field {fkey!r}", line)
    catalog.attributes[key] = attr


def _reference_override_characteristic(catalog, block):
    cid = block.ident
    if cid not in catalog.characteristics:
        raise InvariantViolationError(
            f"line {block.line}: cannot add characteristic {cid!r}; the registry is fixed at C1..C15")
    char = catalog.characteristics[cid]
    for key, value in block.fields.items():
        line = block.field_lines[key]
        if key == "name":
            char = char._replace(name=value)
        elif key == "derivation":
            try:
                char = char._replace(derivation=Derivation(value))
            except ValueError:
                raise CatalogParseError(f"unknown derivation {value!r}", line) from None
        else:
            raise CatalogParseError(f"unknown characteristic field {key!r}", line)
    catalog.characteristics[cid] = char


def _reference_override_pattern(catalog, block):
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


def _reference_override_flags(catalog, block):
    for key, value in block.fields.items():
        line = block.field_lines[key]
        if key == "case_insensitive_terms":
            catalog.case_insensitive_terms = _parse_bool(value, line)
        elif key == "forbid_trace_links":
            catalog.forbid_trace_links = _parse_bool(value, line)
        else:
            raise CatalogParseError(f"unknown flag {key!r}", line)


_REFERENCE_HANDLERS = {
    "rule": _reference_override_rule,
    "attribute": _reference_override_attribute,
    "characteristic": _reference_override_characteristic,
    "pattern": _reference_override_pattern,
    "flags": _reference_override_flags,
}


def _reference_load_catalog(text):
    catalog = load_catalog()
    try:
        blocks = parse_blocks(text)
    except Exception as exc:
        raise CatalogParseError(str(exc)) from exc
    for block in blocks:
        handler = _REFERENCE_HANDLERS.get(block.kind)
        if handler is None:
            raise CatalogParseError(f"unknown section kind {block.kind!r}", block.line)
        handler(catalog, block)
    validate_catalog(catalog)
    return catalog


def _outcome(load, *args):
    """The loaded catalog, or the error's type, message and line."""
    try:
        return load(*args)
    except MbsrError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def test_load_catalog_fuzz_raises_only_mbsr_errors(tmp_path):
    """Every generated config loads as the reference loads it: the same
    catalog, or the same error with the same message and line."""
    rng = random.Random(20261018)
    cfg = tmp_path / "cat.cfg"
    outcomes = set()
    for text in [*_FUZZ_SEEDS, *(_fuzz_config(rng) for _ in range(800))]:
        cfg.write_text(text, encoding="utf-8")
        try:
            got = _outcome(load_catalog, cfg)
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} escaped load_catalog for:\n{text}")
        assert got == _outcome(_reference_load_catalog, text), text
        if isinstance(got, Catalog):
            outcomes.add("loaded")
            if got.rules["R7"].automation is Automation.AUTOMATED:
                outcomes.add("R7 is a phrase rule")
        else:
            outcomes.add(got[0])
            if got[1].endswith("an automated rule needs a code checker or phrases"):
                outcomes.add("automated without code or phrases")
    assert {"loaded", "R7 is a phrase rule", "CatalogParseError", "InvariantViolationError",
            "automated without code or phrases"} <= outcomes
