"""Writing-rule checkers against the hand-labeled fixture, verdict links,
rollup, and randomized check/apply properties."""

import json
import random
import re

import pytest

from mbsr import (
    AttributeValue,
    ExpressionKind,
    LinkKind,
    Model,
    RequirementExpression,
    RequirementSet,
    TBX_ID,
    ValueKind,
    Verdict,
    apply_verdicts,
    check_expression,
    check_scope,
    check_text,
    generate_report,
    load_catalog,
    load_corpus,
    rollup,
)
from mbsr.rules import verdict_map
from tests.conftest import CORPUS_DIR, FIXTURES_DIR, fixed_clock

LABELED = json.loads((FIXTURES_DIR / "rules_labeled.json").read_text())["cases"]

LETTER = {"S": Verdict.SATISFY, "V": Verdict.VIOLATE}


@pytest.mark.parametrize("case", LABELED, ids=[c["id"] for c in LABELED])
def test_labeled_verdicts_match(case, catalog):
    findings = check_text(case["text"], catalog)
    got = {f.rule_id: f.verdict for f in findings}
    for rule_id, letter in case["labels"].items():
        assert got[rule_id] is LETTER[letter], rule_id


@pytest.mark.parametrize("case", LABELED, ids=[c["id"] for c in LABELED])
def test_violation_spans_lie_inside_text(case, catalog):
    for finding in check_text(case["text"], catalog):
        if finding.span is None:
            continue
        start, end = finding.span
        assert 0 <= start < end <= len(case["text"])
        assert case["text"][start:end].strip()


def test_r16_span_quotes_the_phrase(catalog):
    text = "The System shall not overheat within 5 min."
    finding = next(f for f in check_text(text, catalog) if f.rule_id == "R16")
    assert finding.verdict is Verdict.VIOLATE
    start, end = finding.span
    assert text[start:end].lower() == "shall not"


def test_r10_matches_word_bounded_only(catalog):
    clean = "The Archivist shall label samples within 1 hr."
    got = {f.rule_id: f.verdict for f in check_text(clean, catalog)}
    assert got["R10"] is Verdict.SATISFY
    dirty = "The System shall be able to route packets within 1 s."
    got = {f.rule_id: f.verdict for f in check_text(dirty, catalog)}
    assert got["R10"] is Verdict.VIOLATE


def test_r2_passive_voice_detection(catalog):
    passive = "The Report shall be generated by the Ground_Segment within 1 day."
    got = {f.rule_id: f.verdict for f in check_text(passive, catalog)}
    assert got["R2"] is Verdict.VIOLATE
    # passive marker without an agent stays a satisfy; R2 flags agent passives
    agentless = "The Report shall be generated daily within 1 day."
    got = {f.rule_id: f.verdict for f in check_text(agentless, catalog)}
    assert got["R2"] is Verdict.SATISFY


def test_tbx_is_case_sensitive_and_word_bounded(catalog):
    hit = "The Probe shall sample TBD sites within 1 sol."
    got = {f.rule_id: f.verdict for f in check_text(hit, catalog)}
    assert got[TBX_ID] is Verdict.VIOLATE
    for clean in ("The Probe shall avoid tbd sites within 1 sol.",
                  "The Probe shall visit STBD sites within 1 sol."):
        got = {f.rule_id: f.verdict for f in check_text(clean, catalog)}
        assert got[TBX_ID] is Verdict.SATISFY, clean


def test_tbx_scans_text_attributes(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_expression(RequirementExpression(
        "R-1", name="One", text="The System shall run within 1 s."))
    model.set_attribute("R-1", "A01", AttributeValue.text("Rationale is TBR."))
    findings = check_expression(model, model.expression("R-1"))
    tbx = next(f for f in findings if f.rule_id == TBX_ID)
    assert tbx.verdict is Verdict.VIOLATE
    assert "A01" in tbx.message


def test_tbx_in_text_wins_over_attributes(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_expression(RequirementExpression(
        "R-1", name="One", text="The System shall run within TBC s."))
    model.set_attribute("R-1", "A01", AttributeValue.text("Also TBR here."))
    findings = check_expression(model, model.expression("R-1"))
    tbx = next(f for f in findings if f.rule_id == TBX_ID)
    assert tbx.verdict is Verdict.VIOLATE
    assert tbx.span is not None  # span points into the statement text


_PLACEHOLDER_WORDS = ("TBD", "TBC", "TBR", "TBN", "tbd", "STBD", "TBX", "TBDs", "plain")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tbx_violates_exactly_when_set_review_lists_a_placeholder(catalog, seed):
    """The TBX finding and the SetReview summary read one placeholder scan."""
    rng = random.Random(seed)
    text_keys = [k for k, d in catalog.attributes.items()
                 if d.value_kind is ValueKind.TEXT and k not in ("A15", "A16")]
    model = Model(catalog=catalog, clock=fixed_clock)
    ids = [f"R-{n:02d}" for n in range(60)]
    for expr_id in ids:
        word = rng.choice(_PLACEHOLDER_WORDS) if rng.random() < 0.2 else "1"
        model.add_expression(RequirementExpression(
            expr_id, text=f"The System shall run within {word} s."))
        for key in rng.sample(text_keys, rng.randrange(4)):
            words = rng.choices(_PLACEHOLDER_WORDS, k=rng.randrange(1, 4))
            model.set_attribute(expr_id, key, AttributeValue.text(" ".join(words)))
        if rng.random() < 0.5:
            model.set_attribute(expr_id, "A34", AttributeValue.enum("High"))
    model.add_set(RequirementSet("S-1", name="All", members=ids))
    report = generate_report(model, None, "SetReview")
    listed = {line[2:].split(":")[0] for line in report.split("\n") if line.startswith("- ")}
    violated = set()
    for expr_id in ids:
        tbx = check_expression(model, model.expression(expr_id))[-1]
        assert tbx.rule_id == TBX_ID
        if tbx.verdict is Verdict.VIOLATE:
            violated.add(expr_id)
    assert violated == listed
    assert 0 < len(violated) < len(ids)


def test_disabled_rule_is_skipped(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R16]\nenabled = false\n", encoding="utf-8")
    catalog = load_catalog(cfg)
    findings = check_text("The System shall not fail within 1 yr.", catalog)
    assert all(f.rule_id != "R16" for f in findings)


def test_check_scope_skips_sets_and_needs(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_expression(RequirementExpression(
        "R-1", name="One", text="The System shall run within 1 s."))
    model.add_expression(RequirementExpression(
        "N-1", name="Wish", text="Users want speed.", kind=ExpressionKind.NEED))
    model.add_set(RequirementSet("SET-A", name="All", members=["R-1", "N-1"]))
    findings = check_scope(model)
    assert {f.expression_id for f in findings} == {"R-1"}


def test_check_scope_orders_by_id(mixed_model, tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R2]\nenabled = false\n", encoding="utf-8")
    no_r2 = load_corpus(CORPUS_DIR / "mixed.mbsr", load_catalog(cfg), clock=fixed_clock)
    for model, rule_order in ((mixed_model, ["R1", "R2", "R10", "R16", TBX_ID]),
                              (no_r2, ["R1", "R10", "R16", TBX_ID])):
        findings = check_scope(model)
        ids = [f.expression_id for f in findings]
        assert ids == sorted(ids)
        # within one requirement: rule-number order, then TBX
        for expr_id in set(ids):
            assert [f.rule_id for f in findings if f.expression_id == expr_id] == rule_order


# --- verdict links ---


def test_apply_verdicts_creates_rule_and_characteristic_links(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_expression(RequirementExpression(
        "R-1", name="One", text="The System shall not fail within 1 yr."))
    changed = apply_verdicts(model, check_scope(model))
    assert changed > 0
    links = model.links_from("R-1")
    by_target = {l.target_id: l.kind for l in links}
    assert by_target["R16"] is LinkKind.VIOLATE
    assert by_target["R1"] is LinkKind.SATISFY
    # R16 contributes to C3 (and more); a violated rule drags them down
    contributing = catalog.rules["R16"].contributes_to
    for cid in contributing:
        assert by_target[cid] is LinkKind.VIOLATE, cid


def test_apply_verdicts_is_idempotent(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_expression(RequirementExpression(
        "R-1", name="One", text="The System shall run within 1 s."))
    findings = check_scope(model)
    assert apply_verdicts(model, findings) > 0
    before = {l.link_id: l for l in model.links()}
    assert apply_verdicts(model, check_scope(model)) == 0
    assert {l.link_id: l for l in model.links()} == before


def test_apply_verdicts_replaces_flipped_verdicts(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_expression(RequirementExpression(
        "R-1", name="One", text="The System shall run within TBD s."))
    apply_verdicts(model, check_scope(model))
    assert any(l.target_id == TBX_ID and l.kind is LinkKind.VIOLATE
               for l in model.links_from("R-1"))

    model.set_text("R-1", "The System shall run within 3 s.")
    apply_verdicts(model, check_scope(model))
    tbx_links = [l for l in model.links_from("R-1") if l.target_id == TBX_ID]
    assert len(tbx_links) == 1 and tbx_links[0].kind is LinkKind.SATISFY


def test_verdict_links_are_exclusive_per_node(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_expression(RequirementExpression(
        "R-1", name="One", text="The System shall be tracked by radar within 1 s."))
    apply_verdicts(model, check_scope(model))
    seen: dict[tuple[str, str], int] = {}
    for link in model.links():
        if link.kind in (LinkKind.SATISFY, LinkKind.VIOLATE):
            key = (link.source_id, link.target_id)
            seen[key] = seen.get(key, 0) + 1
    assert all(count == 1 for count in seen.values())


def reference_apply_verdicts(model, findings):
    """apply_verdicts as first written; the current one must return the same
    counts and leave the same links, ids included."""
    from mbsr.model import TraceLink
    from mbsr.rules import _contributors, _rollup

    by_expr = {}
    for finding in findings:
        if not finding.expression_id:
            continue
        by_expr.setdefault(finding.expression_id, {})[finding.rule_id] = finding.verdict

    contributors = _contributors(model.catalog)
    changed = 0
    for expr_id in sorted(by_expr):
        desired = dict(by_expr[expr_id])
        rule_only = {k: v for k, v in desired.items() if k in model.catalog.rules}
        desired.update(_rollup(contributors, rule_only))

        existing = [link for link in model.links_from(expr_id)
                    if link.kind in (LinkKind.SATISFY, LinkKind.VIOLATE)
                    and model.catalog.is_graph_node(link.target_id)]
        for link in existing:
            want = desired.get(link.target_id)
            if want is not None and want.link_kind == link.kind:
                del desired[link.target_id]
            else:
                model.remove_link(link.link_id)
                changed += 1
        for node_id in sorted(desired):
            model.store_link(TraceLink(model.next_link_id(), desired[node_id].link_kind,
                                       expr_id, node_id))
            changed += 1
    return changed


@pytest.mark.parametrize("seed", [8, 77, 2026])
def test_apply_verdicts_matches_reference(seed, catalog):
    """Random findings (partial rule sets, characteristic ids, no expression
    id) and stray verdict or other links between applies."""
    from mbsr.model import TraceLink
    from mbsr.rules import RuleFinding

    rng = random.Random(seed)
    nodes = ["R1", "R2", "R10", "R16", TBX_ID, "C3", "C4", "R5"]
    models = [Model(catalog=catalog, clock=fixed_clock) for _ in range(2)]
    for model in models:
        for n in range(6):
            model.add_expression(RequirementExpression(f"Q-{n}", text="The Q shall run."))
    ids = [f"Q-{n}" for n in range(6)] + [""]
    for _ in range(80):
        if rng.random() < 0.3:
            source, target = rng.choice(ids[:-1]), rng.choice(nodes)
            kind = rng.choice((LinkKind.SATISFY, LinkKind.VIOLATE, LinkKind.VERIFY))
            for model in models:
                model.store_link(TraceLink(model.next_link_id(), kind, source, target))
        findings = [RuleFinding(rng.choice(nodes), rng.choice(ids),
                                rng.choice((Verdict.SATISFY, Verdict.VIOLATE)), "m")
                    for _ in range(rng.randrange(0, 25))]
        assert apply_verdicts(models[0], findings) == \
            reference_apply_verdicts(models[1], findings)
        assert models[0].links() == models[1].links()


def test_rollup_requires_all_contributors_clean(catalog):
    auto = {"R1", "R2", "R10", "R16"}
    verdicts = {rid: Verdict.SATISFY for rid in auto}
    clean = rollup(catalog, verdicts)
    assert clean and all(v is Verdict.SATISFY for v in clean.values())

    verdicts["R2"] = Verdict.VIOLATE
    tainted = rollup(catalog, verdicts)
    hit = {cid for cid, v in tainted.items() if v is Verdict.VIOLATE}
    assert hit == {cid for cid in catalog.rules["R2"].contributes_to
                   if catalog.characteristics[cid].applicability.value == "Individual"}


def test_verdict_map_shape(catalog):
    findings = check_text("The System shall run within 1 s.", catalog, "R-1")
    mapped = verdict_map(findings)
    assert set(mapped) == {"R-1"}
    assert set(mapped["R-1"]) == {"R1", "R2", "R10", "R16", TBX_ID}


def test_randomized_check_apply_cycles(catalog):
    """Seeded mutation loop: after every apply, links mirror findings and a
    second apply changes nothing."""
    texts = [
        "The System shall run within 1 s.",
        "The System shall not fail within 1 yr.",
        "The Report shall be produced by the Processor within 1 day.",
        "The Probe shall be capable of hovering within 2 m.",
        "The Probe shall sample TBD sites within 1 sol.",
        "The System must hum.",
    ]
    rng = random.Random(424242)
    model = Model(catalog=catalog, clock=fixed_clock)
    for n in range(4):
        model.add_expression(RequirementExpression(
            f"R-{n}", name=f"Req {n}", text=rng.choice(texts)))
    for _ in range(60):
        expr_id = f"R-{rng.randrange(4)}"
        model.set_text(expr_id, rng.choice(texts))
        findings = check_scope(model)
        apply_verdicts(model, findings)
        assert apply_verdicts(model, check_scope(model)) == 0
        expected = verdict_map(findings)
        for eid, rules in expected.items():
            stored = {l.target_id: l.kind
                      for l in model.links_from(eid)
                      if catalog.is_graph_node(l.target_id)
                      and l.target_id in rules}
            for rid, verdict in rules.items():
                assert stored[rid] is verdict.link_kind


# --- R1 against the parser, and one tokenization per text ---

_R1_SUBJECTS = ("System", "Orbiter", "Ground_System", "Probe")
_R1_ACTIONS = ("log", "transmit", "image", "store")
_R1_OBJECTS = ("Events", "Telemetry", "Raw_Images", "samples")
_R1_CONSTRAINTS = ("within 1 s", "at least 3 times per pass", "every 12 hours",
                   "in less than 5 min", "with 2 m accuracy", "no more than 4 kg")
_R1_CONDITIONS = ("While in Survey mode", "When the Probe lands", "During descent",
                  "Upon receipt of the signal")
_R1_ENDINGS = (".", "", "!", ";", "..", " .", ".\n")
_SHALL_TOKEN = re.compile(r"(?<!\S)shall[.,;:!?]*(?!\S)", re.IGNORECASE)


def _r1_text(rng):
    subject, action = rng.choice(_R1_SUBJECTS), rng.choice(_R1_ACTIONS)
    obj, constraint = rng.choice(_R1_OBJECTS), rng.choice(_R1_CONSTRAINTS)
    shape = rng.choice(("Iso1", "Iso2", "Carson", "no-shall", "two-shall",
                        "passive", "shall-not", "placeholder", "mangled"))
    verb = "Shall" if rng.random() < 0.1 else "shall"
    body = f"{verb} {action} {obj} {constraint}"
    if shape == "Iso2":
        text = f"{rng.choice(_R1_CONDITIONS)}, the {subject} {body}"
    elif shape == "Carson":
        text = f"The {subject} {body} under {rng.choice(('eclipse', 'nominal load'))}"
    elif shape == "no-shall":
        text = f"The {subject} {rng.choice(('must', 'will', 'Marshall'))} {action} {constraint}"
    elif shape == "two-shall":
        second = rng.choice(("shall", "Shall", "shall,", "shall."))
        text = f"The {subject} {body} and {second} {rng.choice(_R1_ACTIONS)} {obj}"
    elif shape == "passive":
        text = f"The {obj} shall be {action}ed by the {subject} {constraint}"
    elif shape == "shall-not":
        text = f"The {subject} shall not {action} {obj} {constraint}"
    elif shape == "placeholder":
        text = f"The {subject} {body} with TBD {rng.choice(('margin', 'TBC'))}"
    else:
        words = f"The {subject} {body}".split()
        for _ in range(rng.randrange(1, 3)):
            del words[rng.randrange(len(words))]
        if rng.random() < 0.5:
            words.insert(rng.randrange(len(words) + 1), "shall")
        text = " ".join(words)
    return text + rng.choice(_R1_ENDINGS)


@pytest.mark.parametrize("seed", [4, 17, 2026])
def test_r1_satisfies_exactly_when_parse_succeeds_with_one_shall(catalog, seed):
    from mbsr import count_shall, parse_statement
    from mbsr.errors import MbsrError

    rng = random.Random(seed)
    for _ in range(400):
        text = _r1_text(rng)
        finding = next(f for f in check_text(text, catalog) if f.rule_id == "R1")
        try:
            parse_statement(text, None, catalog)
            parses = True
        except MbsrError:
            parses = False
        shalls = [m.start() for m in _SHALL_TOKEN.finditer(text)]
        assert count_shall(text) == len(shalls), text
        expected = Verdict.SATISFY if parses and len(shalls) == 1 else Verdict.VIOLATE
        assert finding.verdict is expected, text
        if parses and len(shalls) > 1:
            assert finding.span == (shalls[1], shalls[1] + len("shall")), text
            assert finding.message.startswith(f"{len(shalls)} 'shall' keywords"), text
        else:
            assert finding.span is None, text


def test_check_text_tokenizes_each_text_once(catalog, monkeypatch):
    import mbsr.parser
    import mbsr.rules

    calls = []
    original = mbsr.rules.tokenize

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(mbsr.rules, "tokenize", counting)
    monkeypatch.setattr(mbsr.parser, "tokenize", counting)
    texts = ["The System shall run within 1 s.",
             "While idle, the System shall log Events within 1 s.",
             "The Report shall be produced by the Processor within 1 day.",
             "The System shall run and shall stop within 1 s.",
             "The System must hum.", ""]
    for text in texts:
        calls.clear()
        check_text(text, catalog)
        assert calls == [text]
