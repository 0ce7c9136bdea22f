"""Automated writing-rule checkers and verdict rollup.

The catalog decides which rules run: every enabled rule marked Automated,
in rule-number order. Two of them need code: R1 (the text decomposes into
a pattern with one 'shall') and R2 (a passive-voice heuristic). Every other
automated rule is a phrase rule, violated by the first phrase of its
`phrases` list that occurs in the text. The stock catalog has two, R10
(filler phrases) and R16 ('shall not'), and a config override turns any
manual rule into one by giving it `automation = Automated` and phrases. A
fifth check, the TBX placeholder scan, is not a numbered rule; it reports
under the reserved node id "TBX". Every other catalog rule is manual and
produces no finding.

`check_text` tokenizes a text once and hands the tokens to every checker. R1
runs the parser's decomposition on them without building a statement, and
counts and locates 'shall' from the same tokens.

A model remembers each requirement's finished findings, the TBX scan of its
text attributes included, with the text and a copy of the attributes they
came from; a re-check reuses them while both still compare equal, so it
costs in proportion to the requirements changed since. The model also keeps
its check plan: the enabled checks, the characteristic contributors and that
memo, rebuilt with the memo emptied when the catalog's rules,
characteristics or patterns stop comparing equal to the copies the plan was
built from. So once a model uses a catalog, change it by replacing a
`RuleDef`, `CharacteristicDef` or `PatternDef`, not by mutating their dicts
in place.

Verdicts persist as Satisfy/Violate links from the requirement to the rule
node, plus one rolled-up link per individual characteristic that at least
one automated rule contributes to. Re-applying identical verdicts keeps the
existing links, ids included.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cache
from typing import Callable, Iterator, NamedTuple

from .catalog import TBX_ID, Applicability, Catalog, RuleDef, ValueKind
from .errors import MbsrError, NoShallKeywordError
from .model import ExpressionKind, LinkKind, Model, RequirementExpression, TraceLink
from .parser import _decompose, _word_set
from .textscan import Token, tokenize

_BE_VERBS = frozenset({"be", "is", "are", "was", "were", "been"})
TBX_RE = re.compile(r"\bTB[CDRN]\b")
_VERDICT_LINK_KINDS = (LinkKind.SATISFY, LinkKind.VIOLATE)
_PARTICIPLE_WINDOW = 3
_AGENT_WINDOW = 3


class Verdict(Enum):
    SATISFY = "Satisfy"
    VIOLATE = "Violate"

    @property
    def link_kind(self) -> LinkKind:
        return LinkKind.SATISFY if self is Verdict.SATISFY else LinkKind.VIOLATE


class RuleFinding(NamedTuple):
    rule_id: str
    expression_id: str
    verdict: Verdict
    message: str
    span: tuple[int, int] | None = None


_Outcome = tuple[Verdict, str, tuple[int, int] | None]


@cache
def _satisfied(message: str) -> _Outcome:
    """The one Satisfy outcome with this message, built once."""
    return Verdict.SATISFY, message, None


_NO_PASSIVE = _satisfied("no passive construction found")


def _check_r1(text: str, tokens: list[Token], lower: list[str],
              catalog: Catalog, rule: RuleDef) -> _Outcome:
    try:
        shall_idxs = _decompose(text, tokens, lower, catalog).shall_idxs
    except NoShallKeywordError:
        return Verdict.VIOLATE, "no 'shall' keyword", None
    except MbsrError as exc:
        return Verdict.VIOLATE, f"does not decompose into a pattern ({exc})", None
    if len(shall_idxs) != 1:
        extra = tokens[shall_idxs[1]]
        return (Verdict.VIOLATE,
                f"{len(shall_idxs)} 'shall' keywords, statement is not singular",
                (extra.start, extra.end))
    return _satisfied("decomposes into a pattern with a single 'shall'")


def _check_r2(text: str, tokens: list[Token], lower: list[str],
              catalog: Catalog, rule: RuleDef) -> _Outcome:
    if _BE_VERBS.isdisjoint(lower):
        return _NO_PASSIVE
    irregular = _word_set(rule.params.get("participles", ()))
    for i, word in enumerate(lower):
        if word not in _BE_VERBS:
            continue
        for j in range(i + 1, min(i + 1 + _PARTICIPLE_WINDOW, len(tokens))):
            cand = lower[j]
            if not (cand.endswith("ed") or cand in irregular):
                continue
            for k in range(j + 1, min(j + 1 + _AGENT_WINDOW, len(tokens))):
                if lower[k] == "by":
                    phrase = text[tokens[i].start:tokens[k].end]
                    return (Verdict.VIOLATE, f"passive construction {phrase!r}",
                            (tokens[i].start, tokens[k].end))
    return _NO_PASSIVE


@cache
def _phrase_patterns(phrases: tuple[str, ...]) -> tuple[re.Pattern[str], ...]:
    """One case-blind pattern per phrase: no word character may touch either
    end, and each whitespace run in the phrase matches any whitespace run."""
    return tuple(re.compile(r"(?<!\w)" + r"\s+".join(map(re.escape, phrase.split()))
                            + r"(?!\w)", re.IGNORECASE)
                 for phrase in phrases)


_PHRASE_MESSAGES = ("listed phrase {!r}", "no listed phrase found")


def _check_phrases(text: str, tokens: list[Token], lower: list[str],
                   catalog: Catalog, rule: RuleDef) -> _Outcome:
    """A phrase rule: violated by the first listed phrase found in the text."""
    violate, satisfy = rule.params.get("messages", _PHRASE_MESSAGES)
    for pattern in _phrase_patterns(rule.params["phrases"]):
        if match := pattern.search(text):
            return Verdict.VIOLATE, violate.format(match.group(0)), match.span()
    return _satisfied(satisfy)


def _check_tbx(text: str, tokens: list[Token], lower: list[str],
               catalog: Catalog, rule: None) -> _Outcome:
    match = TBX_RE.search(text) if "TB" in text else None
    if match:
        return Verdict.VIOLATE, f"unresolved placeholder {match.group(0)!r}", match.span()
    return _satisfied("no TBC/TBD/TBR/TBN placeholder")


# the rules that need code; catalog._CODE_CHECKED_RULE_IDS names the same ones
_CHECKERS = {
    "R1": _check_r1,
    "R2": _check_r2,
}


_Checks = list[tuple[str, Callable[..., _Outcome], RuleDef | None]]
_Entry = tuple  # (*findings, text, attributes copy)
_Plan = tuple  # (checks, contributors, expression id -> entry)


def _enabled_checks(catalog: Catalog) -> _Checks:
    """(node id, checker, rule) for each enabled automated rule, in run
    order, then for the TBX scan."""
    return [*((rule.rule_id, _CHECKERS.get(rule.rule_id, _check_phrases), rule)
              for rule in catalog.automated_rules() if rule.enabled),
            (TBX_ID, _check_tbx, None)]


def _findings(text: str, catalog: Catalog, checks: _Checks,
              expression_id: str) -> list[RuleFinding]:
    tokens = tokenize(text)
    lower = [t.text.lower() for t in tokens]
    return [RuleFinding(node_id, expression_id, *checker(text, tokens, lower, catalog, rule))
            for node_id, checker, rule in checks]


def check_text(text: str, catalog: Catalog, expression_id: str = "") -> list[RuleFinding]:
    """Findings for one statement text: enabled automated rules, then TBX."""
    return _findings(text, catalog, _enabled_checks(catalog), expression_id)


def _attribute_placeholders(expr: RequirementExpression) -> Iterator[tuple[str, re.Match[str]]]:
    """(attribute key, match) for each placeholder in the expression's text
    attributes, in key order, then text order."""
    for key in sorted(expr.attributes):
        value = expr.attributes[key]
        if value.kind == ValueKind.TEXT:
            for match in TBX_RE.finditer(str(value.value)):
                yield key, match


def _plan(model: Model) -> _Plan:
    """The model's check plan, rebuilt with an empty memo when the catalog's
    rules, characteristics or patterns changed since it was built."""
    catalog = model.catalog
    state, plan = model._check_plan
    if state != (catalog.rules, catalog.characteristics, catalog.patterns):
        plan = _enabled_checks(catalog), _contributors(catalog), {}
        model._check_plan = (dict(catalog.rules), dict(catalog.characteristics),
                             dict(catalog.patterns)), plan
    return plan


def _check_expression(model: Model, expr: RequirementExpression, checks: _Checks,
                      memo: dict[str, _Entry]) -> tuple[RuleFinding, ...]:
    """The expression's findings, from its memo entry while the entry's text
    and attributes still equal the expression's, else from a fresh check."""
    entry = memo.get(expr.id)
    if entry is None or entry[-2] != expr.text or entry[-1] != expr.attributes:
        findings = _findings(expr.text, model.catalog, checks, expr.id)
        if findings[-1].verdict is Verdict.SATISFY:  # TBX comes last
            for key, match in _attribute_placeholders(expr):
                findings[-1] = RuleFinding(
                    TBX_ID, expr.id, Verdict.VIOLATE,
                    f"unresolved placeholder {match.group(0)!r} in attribute {key}", None)
                break
        entry = memo[expr.id] = (*findings, expr.text, dict(expr.attributes))
    return entry[:-2]


def check_expression(model: Model, expr: RequirementExpression) -> list[RuleFinding]:
    """Findings for a stored requirement; TBX also scans text attributes."""
    checks, _, memo = _plan(model)
    return list(_check_expression(model, expr, checks, memo))


def check_scope(model: Model, scope_id: str | None = None) -> list[RuleFinding]:
    """Findings for every non-set requirement in scope, in id order; each
    requirement's findings come in rule-number order, then TBX."""
    checks, _, memo = _plan(model)
    findings: list[RuleFinding] = []
    for expr in model.scope_requirements(scope_id):
        if expr.kind == ExpressionKind.REQUIREMENT:
            findings.extend(_check_expression(model, expr, checks, memo))
    return findings


def _contributors(catalog: Catalog) -> dict[str, list[str]]:
    """Individual characteristic id -> the enabled automated rules that
    contribute to it; characteristics with no such rule are absent."""
    automated = [rule for rule in catalog.automated_rules() if rule.enabled]
    out: dict[str, list[str]] = {}
    for char in catalog.characteristics_for(Applicability.INDIVIDUAL):
        rule_ids = [r.rule_id for r in automated
                    if char.characteristic_id in r.contributes_to]
        if rule_ids:
            out[char.characteristic_id] = rule_ids
    return out


def _rollup(contributors: dict[str, list[str]],
            verdicts: dict[str, Verdict]) -> dict[str, Verdict]:
    satisfied = {rule_id for rule_id, v in verdicts.items() if v is Verdict.SATISFY}
    return {char_id: Verdict.SATISFY if satisfied.issuperset(rule_ids) else Verdict.VIOLATE
            for char_id, rule_ids in contributors.items()}


def _with_rollup(contributors: dict[str, list[str]],
                 verdicts: dict[str, Verdict]) -> dict[str, Verdict]:
    return {**verdicts, **_rollup(contributors, verdicts)}


def rollup(catalog: Catalog, verdicts: dict[str, Verdict]) -> dict[str, Verdict]:
    """Per-characteristic verdicts implied by per-rule verdicts.

    A characteristic gets Satisfy only when every enabled automated rule
    that contributes to it satisfied; characteristics no automated rule
    contributes to stay unevaluated and are absent from the result.
    """
    return _rollup(_contributors(catalog), verdicts)


def apply_verdicts(model: Model, findings: list[RuleFinding]) -> int:
    """Persist findings as links to rule and characteristic nodes.

    For each checked expression the desired link set is computed, existing
    identical links are kept, stale ones removed, missing ones added.
    Returns the number of links added or removed. Raises UnknownIdError,
    before any change, when a finding names an expression the model lacks.
    """
    by_expr = verdict_map(findings)
    by_expr.pop("", None)  # check_text findings name no expression
    for expr_id in by_expr:
        model.expression(expr_id)

    catalog = model.catalog
    _, contributors, _ = _plan(model)
    # node id -> wanted link kind, per distinct verdict set; few distinct sets occur
    wanted: dict[tuple, dict[str, LinkKind]] = {}
    changed = 0
    for expr_id in sorted(by_expr):
        verdicts = by_expr[expr_id]
        key = tuple(verdicts.items())
        if key not in wanted:
            wanted[key] = {node_id: v.link_kind
                           for node_id, v in _with_rollup(contributors, verdicts).items()}
        desired = dict(wanted[key])

        for link in model.links_from(expr_id):
            if link.kind not in _VERDICT_LINK_KINDS or not catalog.is_graph_node(link.target_id):
                continue
            if desired.get(link.target_id) is link.kind:
                del desired[link.target_id]
            else:
                model.remove_link(link.link_id)
                changed += 1
        for node_id in sorted(desired):
            model.store_link(TraceLink(model.next_link_id(), desired[node_id],
                                       expr_id, node_id))
            changed += 1
    return changed


def verdict_map(findings: list[RuleFinding]) -> dict[str, dict[str, Verdict]]:
    """expression id -> rule/TBX node id -> verdict, for report rendering."""
    out: dict[str, dict[str, Verdict]] = {}
    for finding in findings:
        out.setdefault(finding.expression_id, {})[finding.rule_id] = finding.verdict
    return out


def scope_verdicts(model: Model, scope_id: str | None = None) -> dict[str, dict[str, Verdict]]:
    """expression id -> node id -> verdict for every non-set expression in
    scope, the one verdict lookup of every table and report: a checked
    requirement's current findings with its characteristic rollup, and a
    Need's first stored Satisfy or Violate link (link-id order) to each node."""
    _, contributors, _ = _plan(model)
    out = {expr_id: _with_rollup(contributors, verdicts)
           for expr_id, verdicts in verdict_map(check_scope(model, scope_id)).items()}
    for expr in model.scope_requirements(scope_id):
        if expr.kind == ExpressionKind.NEED:  # read last to first, so the first link wins
            out[expr.id] = {link.target_id: Verdict(link.kind.value)
                            for link in reversed(model.links_from(expr.id))
                            if link.kind in _VERDICT_LINK_KINDS
                            and model.catalog.is_graph_node(link.target_id)}
    return out
