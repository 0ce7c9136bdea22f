"""Automated writing-rule checkers and verdict rollup.

Four rules run as code: R1 (the text decomposes into a pattern with one
'shall'), R2 (a passive-voice heuristic), R10 (configured filler phrases),
R16 ('shall not'). A fifth check, the TBX placeholder scan, is not a
numbered rule; it reports under the reserved node id "TBX". Every other
catalog rule is manual and produces no finding.

`check_text` tokenizes a text once and hands the tokens to every checker. R1
runs the parser's decomposition on them without building a statement, and
counts and locates 'shall' from the same tokens.

Verdicts persist as Satisfy/Violate links from the requirement to the rule
node, plus one rolled-up link per individual characteristic that at least
one automated rule contributes to. Re-applying identical verdicts keeps the
existing links, ids included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Callable

from .catalog import TBX_ID, Applicability, Automation, Catalog, RuleDef, ValueKind
from .errors import MbsrError, NoShallKeywordError
from .model import ExpressionKind, LinkKind, Model, RequirementExpression, TraceLink
from .parser import _decompose, _word_set
from .textscan import Token, tokenize

_BE_VERBS = frozenset({"be", "is", "are", "was", "were", "been"})
TBX_RE = re.compile(r"\bTB[CDRN]\b")
_SHALL_NOT_RE = re.compile(r"\bshall\s+not\b", re.IGNORECASE)
_VERDICT_LINK_KINDS = (LinkKind.SATISFY, LinkKind.VIOLATE)
_PARTICIPLE_WINDOW = 3
_AGENT_WINDOW = 3


class Verdict(Enum):
    SATISFY = "Satisfy"
    VIOLATE = "Violate"

    @property
    def link_kind(self) -> LinkKind:
        return LinkKind.SATISFY if self is Verdict.SATISFY else LinkKind.VIOLATE


@dataclass(frozen=True)
class RuleFinding:
    rule_id: str
    expression_id: str
    verdict: Verdict
    message: str
    span: tuple[int, int] | None = None


_Outcome = tuple[Verdict, str, tuple[int, int] | None]
_NO_PASSIVE: _Outcome = (Verdict.SATISFY, "no passive construction found", None)


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
    return Verdict.SATISFY, "decomposes into a pattern with a single 'shall'", None


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
    return tuple(re.compile(r"\b" + re.escape(phrase) + r"\b", re.IGNORECASE)
                 for phrase in phrases)


def _check_r10(text: str, tokens: list[Token], lower: list[str],
               catalog: Catalog, rule: RuleDef) -> _Outcome:
    for pattern in _phrase_patterns(rule.params.get("phrases", ())):
        match = pattern.search(text)
        if match:
            return (Verdict.VIOLATE, f"superfluous phrase {match.group(0)!r}",
                    match.span())
    return Verdict.SATISFY, "no superfluous phrase found", None


def _check_r16(text: str, tokens: list[Token], lower: list[str],
               catalog: Catalog, rule: RuleDef) -> _Outcome:
    match = _SHALL_NOT_RE.search(text)
    if match:
        return (Verdict.VIOLATE, "'shall not' states what must not happen; "
                "state the required behavior instead", match.span())
    return Verdict.SATISFY, "no 'shall not' found", None


_CHECKERS = {
    "R1": _check_r1,
    "R2": _check_r2,
    "R10": _check_r10,
    "R16": _check_r16,
}


_Checks = list[tuple[str, Callable[..., _Outcome], RuleDef]]


def _enabled_checks(catalog: Catalog) -> _Checks:
    """(rule id, checker, rule) for each enabled automated rule, in run order."""
    out: _Checks = []
    for rule_id, checker in _CHECKERS.items():
        rule = catalog.rules[rule_id]
        if rule.automation == Automation.AUTOMATED and rule.enabled:
            out.append((rule_id, checker, rule))
    return out


def _check(text: str, catalog: Catalog, expression_id: str,
           checks: _Checks) -> list[RuleFinding]:
    tokens = tokenize(text)
    lower = [t.text.lower() for t in tokens]
    findings = [RuleFinding(rule_id, expression_id,
                            *checker(text, tokens, lower, catalog, rule))
                for rule_id, checker, rule in checks]
    match = TBX_RE.search(text) if "TB" in text else None
    if match:
        findings.append(RuleFinding(TBX_ID, expression_id, Verdict.VIOLATE,
                                    f"unresolved placeholder {match.group(0)!r}",
                                    match.span()))
    else:
        findings.append(RuleFinding(TBX_ID, expression_id, Verdict.SATISFY,
                                    "no TBC/TBD/TBR/TBN placeholder", None))
    return findings


def check_text(text: str, catalog: Catalog, expression_id: str = "") -> list[RuleFinding]:
    """Findings for one statement text: enabled automated rules, then TBX."""
    return _check(text, catalog, expression_id, _enabled_checks(catalog))


def _check_expression(model: Model, expr: RequirementExpression,
                      checks: _Checks) -> list[RuleFinding]:
    findings = _check(expr.text, model.catalog, expr.id, checks)
    if findings[-1].verdict is Verdict.SATISFY:  # TBX comes last
        for key in sorted(expr.attributes):
            value = expr.attributes[key]
            if value.kind != ValueKind.TEXT:
                continue
            match = TBX_RE.search(str(value.value))
            if match:
                findings[-1] = RuleFinding(
                    TBX_ID, expr.id, Verdict.VIOLATE,
                    f"unresolved placeholder {match.group(0)!r} in attribute {key}",
                    None)
                break
    return findings


def check_expression(model: Model, expr: RequirementExpression) -> list[RuleFinding]:
    """Findings for a stored requirement; TBX also scans text attributes."""
    return _check_expression(model, expr, _enabled_checks(model.catalog))


def check_scope(model: Model, scope_id: str | None = None) -> list[RuleFinding]:
    """Findings for every non-set requirement in scope, in id order; each
    requirement's findings come in rule-number order, then TBX."""
    checks = _enabled_checks(model.catalog)
    findings: list[RuleFinding] = []
    for expr in model.scope_requirements(scope_id):
        if expr.kind == ExpressionKind.REQUIREMENT:
            findings.extend(_check_expression(model, expr, checks))
    return findings


def _contributors(catalog: Catalog) -> dict[str, list[str]]:
    """Individual characteristic id -> the enabled automated rules that
    contribute to it; characteristics with no such rule are absent."""
    automated = [r for r in catalog.rules.values()
                 if r.automation == Automation.AUTOMATED and r.enabled]
    out: dict[str, list[str]] = {}
    for char in catalog.characteristics_for(Applicability.INDIVIDUAL):
        rule_ids = [r.rule_id for r in automated
                    if char.characteristic_id in r.contributes_to]
        if rule_ids:
            out[char.characteristic_id] = rule_ids
    return out


def _rollup(contributors: dict[str, list[str]],
            verdicts: dict[str, Verdict]) -> dict[str, Verdict]:
    return {char_id: (Verdict.SATISFY
                      if all(verdicts.get(r) is Verdict.SATISFY for r in rule_ids)
                      else Verdict.VIOLATE)
            for char_id, rule_ids in contributors.items()}


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
    Returns the number of links added or removed.
    """
    by_expr: dict[str, dict[str, Verdict]] = {}
    for finding in findings:
        if not finding.expression_id:
            continue
        by_expr.setdefault(finding.expression_id, {})[finding.rule_id] = finding.verdict

    catalog = model.catalog
    contributors = _contributors(catalog)
    graph_nodes = {TBX_ID, *catalog.rules, *catalog.characteristics}
    # node id -> wanted link kind, per distinct verdict set; few distinct sets occur
    wanted: dict[tuple, dict[str, LinkKind]] = {}
    changed = 0
    for expr_id in sorted(by_expr):
        verdicts = by_expr[expr_id]
        key = tuple(verdicts.items())
        if key not in wanted:
            rule_only = {k: v for k, v in verdicts.items() if k in catalog.rules}
            merged = {**verdicts, **_rollup(contributors, rule_only)}
            wanted[key] = {node_id: v.link_kind for node_id, v in merged.items()}
        desired = dict(wanted[key])

        for link in model.links_from(expr_id):
            if link.kind not in _VERDICT_LINK_KINDS or link.target_id not in graph_nodes:
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
