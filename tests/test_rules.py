"""Writing-rule checkers against the hand-labeled fixture, verdict links,
rollup, and randomized check/apply properties."""

import json
import random
import re

import pytest

import mbsr.rules
from mbsr import (
    Applicability,
    AttributeValue,
    ExpressionKind,
    LinkKind,
    Model,
    RequirementExpression,
    RequirementSet,
    TBX_ID,
    ValueKind,
    Verdict,
    add_link,
    apply_verdicts,
    check_expression,
    check_scope,
    check_text,
    generate_report,
    load_catalog,
    load_corpus,
    loads_corpus,
    parse_statement,
    remove_link,
    rollup,
    serialize_corpus,
)
from mbsr.errors import MbsrError, UnknownIdError
from mbsr.rules import scope_verdicts, verdict_map
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
    for text in ("The System shall not overheat within 5 min.",
                 "The System SHALL  NOT overheat within 5 min.",
                 "The System shall\tnot overheat within 5 min."):
        finding = next(f for f in check_text(text, catalog) if f.rule_id == "R16")
        assert finding.verdict is Verdict.VIOLATE
        assert finding.message == ("'shall not' states what must not happen; "
                                   "state the required behavior instead")
        start, end = finding.span
        assert text[start:end].lower().split() == ["shall", "not"], text


def test_r10_matches_word_bounded_only(catalog):
    clean = "The Archivist shall label samples within 1 hr."
    got = {f.rule_id: f.verdict for f in check_text(clean, catalog)}
    assert got["R10"] is Verdict.SATISFY
    dirty = "The System shall be able to route packets within 1 s."
    got = {f.rule_id: f.verdict for f in check_text(dirty, catalog)}
    assert got["R10"] is Verdict.VIOLATE


def test_phrase_rule_matches_phrases_with_non_word_edges(tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R10]\nphrases = etc., 100%\n", encoding="utf-8")
    text = "The System shall log A, B, etc. within 100% of cases."
    finding = next(f for f in check_text(text, load_catalog(cfg)) if f.rule_id == "R10")
    assert finding.verdict is Verdict.VIOLATE
    assert finding.message == "superfluous phrase 'etc.'"
    assert text[slice(*finding.span)] == "etc."


# pieces of generated phrases and texts; several start or end with a
# non-word character, and the gaps give whitespace runs of every shape
_PHRASE_PIECES = ("etc.", "100%", "and/or", "(s)", "be", "able", "to", "Shall", "not",
                  "x_y", "-", "9", "a")
_PHRASE_GAPS = (" ", "  ", "\t", "\n ", "", ",", "_", ".")


def _phrase(rng):
    words = [rng.choice(_PHRASE_PIECES) for _ in range(rng.randint(1, 3))]
    return "".join(w + rng.choice((" ", "  ", "\t")) for w in words[:-1]) + words[-1]


def _first_phrase(text, phrases):
    """Brute force: the span of the first listed phrase found, at its first
    place. Words compare case-blind, each whitespace run of the phrase takes
    one or more whitespace characters, and no word character may touch
    either end."""
    def is_word(i):
        return 0 <= i < len(text) and (text[i].isalnum() or text[i] == "_")

    for phrase in phrases:
        words = phrase.lower().split()
        for start in range(len(text)):
            if is_word(start - 1):
                continue
            end = start
            for n, word in enumerate(words):
                if n:
                    gap = end
                    while end < len(text) and text[end].isspace():
                        end += 1
                    if end == gap:
                        break
                if text[end:end + len(word)].lower() != word:
                    break
                end += len(word)
            else:
                if not is_word(end):
                    return start, end
    return None


def test_phrase_checker_matches_a_brute_force_scan(catalog):
    from mbsr.rules import _check_phrases

    rng = random.Random(20261019)
    verdicts = []
    for _ in range(400):
        phrases = tuple(_phrase(rng) for _ in range(rng.randint(1, 3)))
        pieces = [rng.choice(_PHRASE_PIECES) + rng.choice(_PHRASE_GAPS)
                  for _ in range(rng.randint(0, 8))]
        if rng.random() < 0.5:  # plant a phrase, its case and whitespace changed
            planted = " \t "[rng.randrange(3)].join(rng.choice(phrases).split())
            pieces.insert(rng.randint(0, len(pieces)), planted.upper() + rng.choice(_PHRASE_GAPS))
        text = "".join(pieces)
        rule = catalog.rules["R7"]._replace(params={"phrases": phrases})
        verdict, message, span = _check_phrases(text, [], [], catalog, rule)
        expected = _first_phrase(text, phrases)
        assert span == expected, (phrases, text)
        if expected is None:
            assert (verdict, message) == (Verdict.SATISFY, "no listed phrase found")
        else:
            assert verdict is Verdict.VIOLATE
            assert message == f"listed phrase {text[slice(*span)]!r}"
        verdicts.append(verdict)
    assert 100 < verdicts.count(Verdict.VIOLATE) < 300


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
    # a manual rule does not run either, even one with a code checker
    for rule_id, override in (("R16", "enabled = false"), ("R1", "automation = Manual")):
        cfg.write_text(f"[rule {rule_id}]\n{override}\n", encoding="utf-8")
        catalog = load_catalog(cfg)
        findings = check_text("The System shall not fail within 1 yr.", catalog)
        assert {f.rule_id for f in findings} == {"R1", "R2", "R10", "R16", TBX_ID} - {rule_id}


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


def test_apply_verdicts_refuses_an_unknown_expression_id_and_changes_nothing(catalog):
    model = load_corpus(CORPUS_DIR / "asteroid.mbsr", catalog, clock=fixed_clock)
    known = model.expressions()[0]
    before = model.links()
    findings = [*check_expression(model, known),
                *check_text("The System shall run within TBD s.", catalog, "NOPE")]
    with pytest.raises(UnknownIdError, match="NOPE"):
        apply_verdicts(model, findings)
    assert model.links() == before


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


def test_scope_verdicts_reads_findings_for_requirements_and_links_for_needs(catalog):
    """The one verdict lookup: a checked requirement's entry comes from its
    findings, a Need's from its stored verdict links, and every non-set
    expression in scope has one."""
    text = (CORPUS_DIR / "verdicts.mbsr").read_text(encoding="utf-8")
    model = loads_corpus(text + "\n[requirement N-02]\nkind = Need\n"
                         "text = Operators need a pass log.\n", catalog, clock=fixed_clock)
    verdicts = scope_verdicts(model)
    assert set(verdicts) == {"N-01", "N-02", "V-01", "V-02", "V-03"}
    assert verdicts["N-01"] == {"R1": Verdict.SATISFY, TBX_ID: Verdict.VIOLATE}
    assert verdicts["N-02"] == {}
    # V-01 stores a Violate link to R16, but its text holds no 'shall not'
    assert verdicts["V-01"]["R16"] is Verdict.SATISFY
    checked = verdict_map(check_scope(model))["V-01"]
    assert verdicts["V-01"] == {**checked, **rollup(catalog, checked)}
    assert set(scope_verdicts(model, "V-SET")) == {"N-01", "V-01", "V-02"}


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


# --- the findings memo: a re-check of one model against a fresh model ---

_MEMO_TEXTS = (
    "The System shall provide Capability_A within 1 s.",
    "The Segment shall allocate Capability_A as appropriate within 800 ms.",
    "The Report shall be produced by the Processor within 1 day.",
    "The Subsystem shall not execute Capability_A within TBD ms.",
    "The System must hum.",
)


def _reloaded(model):
    return loads_corpus(serialize_corpus(model), model.catalog, clock=fixed_clock)


def _link_ends(model):
    """The model's links without their ids, which a reload numbers afresh."""
    return sorted((link.kind.value, link.source_id, link.target_id) for link in model.links())


def _toggle_link(model, kind, source_id, target_id):
    for link in model.links_from(source_id):
        if link.kind is kind and link.target_id == target_id:
            remove_link(model, link.link_id)
            return
    add_link(model, kind, source_id, target_id)


@pytest.mark.parametrize("seed", [3, 11, 2026])
def test_memoized_findings_equal_a_fresh_models(seed, monkeypatch):
    """After every kind of edit, a re-check of the edited model gives what a
    model loaded from its serialized text gives, and it tokenizes only the
    texts that changed."""
    model = load_corpus(CORPUS_DIR / "tracechain.mbsr", load_catalog(), clock=fixed_clock)
    # L6-A copies L4-A while the Copy link is there; L5-A is never a copy or a source
    model.add_expression(RequirementExpression("L6-A", name="Spare", text=_MEMO_TEXTS[0]))
    a01 = model.get_attribute("L3-A", "A01")
    rng = random.Random(seed)

    def set_statement(_text):
        statement = None
        if model.expression("L4-A").statement is None:
            try:
                statement, _ = parse_statement(model.expression("L4-A").text, model.glossary)
            except MbsrError:
                pass
        model.set_statement("L4-A", statement)

    edits = {
        "set_text": lambda text: model.set_text(rng.choice(["L3-A", "L4-A"]), text),
        "tbd": lambda _: model.set_attribute(
            "L3-A", "A01", a01 if model.get_attribute("L3-A", "A01") != a01
            else AttributeValue.text(f"{a01.value} TBD")),
        "statement": set_statement,
        "assign": lambda text: setattr(model.expression("L5-A"), "text", text),
        # L5-A has no A01: the first assignment adds one, the second deletes it
        "assign_attribute": lambda _: (
            model.expression("L5-A").attributes.pop("A01", None)
            or model.expression("L5-A").attributes.update(
                A01=AttributeValue.text("Margin TBD pending analysis"))),
        "copy_link": lambda _: _toggle_link(model, LinkKind.COPY, "L6-A", "L4-A"),
        "derive_link": lambda _: _toggle_link(model, LinkKind.DERIVE, "L5-A", "L3-A"),
    }
    kinds = sorted(edits) * 2
    rng.shuffle(kinds)
    for kind in kinds:
        edits[kind](rng.choice(_MEMO_TEXTS))
        fresh = _reloaded(model)
        for scope in (None, "SET-ALL"):
            assert check_scope(model, scope) == check_scope(fresh, scope), kind
        # what a caller does to a returned list does not reach the next check
        check_scope(model).clear()
        check_expression(model, model.expression("L5-A"))[-1] = None
        assert check_scope(model) == check_scope(fresh), kind
        assert check_expression(model, model.expression("L5-A")) == \
            check_expression(fresh, fresh.expression("L5-A")), kind

    tokenized = []
    tokenize = mbsr.rules.tokenize
    monkeypatch.setattr(mbsr.rules, "tokenize", lambda text: tokenized.append(text) or tokenize(text))
    check_scope(model)
    assert tokenized == []
    text = next(t for t in _MEMO_TEXTS if t != model.expression("L3-A").text)
    model.set_text("L3-A", text)
    check_scope(model)
    assert tokenized == [text, text]  # L3-A and its copy


def test_a_catalog_change_between_checks_is_seen():
    """Replacing a rule, a characteristic or a pattern between two checks of
    one model gives a fresh model's findings, from check_scope and
    check_expression alike, and a fresh model's verdict links."""
    catalog = load_catalog()
    scoped, single = (load_corpus(CORPUS_DIR / "verdicts.mbsr", catalog, clock=fixed_clock)
                      for _ in range(2))
    r2, r10, iso1 = catalog.rules["R2"], catalog.rules["R10"], catalog.patterns["Iso1"]
    ids = ["V-01", "V-02", "V-03"]
    # the last two change no finding, only the characteristic links
    for table, key, value, findings_change in (
            (catalog.rules, "R10", r10._replace(params={**r10.params, "phrases": ("shall",)}),
             True),
            (catalog.rules, "R10", r10._replace(enabled=False), True),
            (catalog.patterns, "Iso1", iso1._replace(connective_words={"SR5": ("per",)}), True),
            (catalog.characteristics, "C3",
             catalog.characteristics["C3"]._replace(applicability=Applicability.SET), False),
            (catalog.rules, "R2", r2._replace(contributes_to=r2.contributes_to | {"C1"}), False)):
        before = check_scope(scoped)
        apply_verdicts(scoped, before)
        links_before = _link_ends(scoped)
        for expr_id in ids:
            check_expression(single, single.expression(expr_id))
        table[key] = value
        fresh = _reloaded(scoped)
        after = check_scope(scoped)
        assert after == check_scope(fresh), key
        assert ([check_expression(single, single.expression(i)) for i in ids]
                == [check_expression(fresh, fresh.expression(i)) for i in ids]), key
        apply_verdicts(scoped, after)
        apply_verdicts(fresh, check_scope(fresh))
        assert _link_ends(scoped) == _link_ends(fresh) != links_before, key
        assert (after != before) is findings_change, key


def test_a_warm_recheck_reuses_the_stored_findings(catalog, monkeypatch):
    """With no edit in between, a re-check tokenizes nothing, scans no
    attribute and returns the very findings the first check built; two
    verdict applies under one catalog derive the contributors once."""
    model = load_corpus(CORPUS_DIR / "tracechain.mbsr", catalog, clock=fixed_clock)
    calls = []
    for name in ("tokenize", "_attribute_placeholders", "_contributors"):
        original = getattr(mbsr.rules, name)
        monkeypatch.setattr(mbsr.rules, name, lambda *args, _name=name, _original=original:
                            calls.append(_name) or _original(*args))
    first = check_scope(model)
    assert calls.count("_contributors") == 1
    calls.clear()
    second = check_scope(model)
    assert calls == []
    assert len(first) == len(second) and all(a is b for a, b in zip(first, second))
    assert apply_verdicts(model, second) > 0
    assert apply_verdicts(model, check_scope(model)) == 0
    assert calls == []


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
    from mbsr.errors import MbsrError, UnknownIdError

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
