"""The authoring loop: seeded edits on a loaded model, each followed by a re-check.

One edit is one of:

- `text`: `Model.set_text` with a freshly composed statement, then
  `parse_statement(text, model.glossary)` (the quick-start form, no catalog)
  and `Model.set_statement` with the result (or None when the text has no
  "shall" and the parse is rejected);
- `attribute`: `Model.set_attribute` of the priority A34;
- `derive_add`: `trace.add_link` of a Derive link that keeps the graph acyclic;
- `derive_cycle`: `trace.add_link` of a Derive link that would close a cycle,
  which must raise CycleDetectedError;
- `derive_remove`: `trace.remove_link` of an existing Derive link;
- `copy_text`: `Model.set_text` on a copy, which must raise ReadOnlyCopyError.

After each edit, `check_scope` runs on the edited requirement's leaf set, then
`apply_verdicts` on that requirement's findings and `bidirectional_trace` on
it. The edit's latency covers the edit and those three calls. The outputs are
then checked against the session's own record of texts and Derive edges.

The kinds come in fixed numbers per session and targets are spread evenly
over Derive depth, so every seed gives the same mix of cheap edits (leaves)
and expensive ones (requirements with large subtrees).
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

import mbsr

import checks
from corpus import TEMPLATES, Composer, Corpus, quota

# text edits cost more than the others (the parse builds a default catalog);
# at 70% the median edit lies well inside them rather than at their edge
EDIT_WEIGHTS = {"text": 70, "attribute": 10, "derive_add": 5, "derive_cycle": 5,
                "derive_remove": 5, "copy_text": 5}


class Session:
    def __init__(self, model, corpus: Corpus, plan: int, count: int, tracer=None):
        self.model = model
        self.corpus = corpus
        self.tracer = tracer
        # each plan number gives another edit sequence over the same corpus
        self.rng = random.Random(f"{corpus.workload}:{corpus.seed}:edits:{plan}")
        self.composer = Composer(self.rng)
        self.graph = checks.Graph(corpus.derive_edges())
        self.derive_links = {lid: (s, t) for lid, kind, s, t in corpus.links if kind == "Derive"}
        self.copies: dict[str, list[str]] = {}
        for req in corpus.reqs.values():
            if req.copy_of is not None:
                self.copies.setdefault(req.copy_of, []).append(req.id)
        self.originals = [r for r in corpus.reqs.values() if r.copy_of is None]
        self.subtree = {r.id: len(self.graph.closure(r.id, downward=True)) for r in self.originals}
        self.latencies: list[float] = []
        self.problems: list[str] = []
        self.failed = 0
        self.templates = [t for t, n in quota(count, {t: 1 for t in TEMPLATES}).items()
                          for _ in range(n)]
        self.rng.shuffle(self.templates)
        self.pending = self.plan(count)

    def _stratified(self, candidates, k: int) -> list[str]:
        """k ids with a fixed number from each group of equal Derive depth and
        subtree size (copies are one more group), so every seed edits the
        same mix of requirements with large and small subtrees."""
        groups: dict[tuple[int, int], list[str]] = {}
        for req in candidates:
            key = (-1, 0) if req.copy_of else (req.depth, self.subtree[req.id])
            groups.setdefault(key, []).append(req.id)
        out: list[str] = []
        for key, n in quota(k, {key: len(ids) for key, ids in groups.items()}).items():
            out += self.rng.sample(sorted(groups[key]), n)
        self.rng.shuffle(out)
        return out

    def plan(self, count: int) -> list[tuple[str, str]]:
        kinds = [kind for kind, n in quota(count, EDIT_WEIGHTS).items() for _ in range(n)]
        self.rng.shuffle(kinds)
        parents = [r for r in self.originals if self.graph.down.get(r.id)]
        leaves = [r for r in self.originals if not self.graph.down.get(r.id)]
        targets = {
            "text": self._stratified(self.originals, kinds.count("text")),
            "attribute": self._stratified(self.corpus.reqs.values(), kinds.count("attribute")),
            # new and removed Derive links hang under leaves, so they change
            # the subtree sizes later edits walk by one node at most
            "derive_add": self._stratified(leaves, kinds.count("derive_add")),
            "derive_cycle": self._stratified(parents, kinds.count("derive_cycle")),
            "derive_remove": [""] * kinds.count("derive_remove"),
            "copy_text": self._stratified([r for r in self.corpus.reqs.values() if r.copy_of],
                                          kinds.count("copy_text")),
        }
        return [(kind, targets[kind].pop()) for kind in kinds]

    def run(self, count: int) -> int:
        """Make up to count of the planned edits; returns how many it made."""
        batch, self.pending = self.pending[:count], self.pending[count:]
        for kind, target in batch:
            span = self.tracer.span(f"run.edit.{kind}") if self.tracer else nullcontext()
            with span:
                try:
                    problems = getattr(self, f"_{kind}")(target, self.templates)
                except Exception as exc:  # an undocumented error fails the edit
                    problems = [f"{kind} {target}: {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return len(batch)

    # --- edits: each returns the problems its checks found ---

    def _recheck(self, rid: str, started: float) -> list[str]:
        model = self.model
        leaf = self.corpus.reqs[rid].set_id
        findings = mbsr.check_scope(model, leaf)
        mbsr.apply_verdicts(model, [f for f in findings if f.expression_id == rid])
        view = mbsr.bidirectional_trace(model, rid)
        self.latencies.append(time.perf_counter() - started)

        problems = []
        for finding in findings:
            want = self.corpus.reqs[finding.expression_id].labels[finding.rule_id]
            if finding.verdict.value[0] != want:
                problems.append(f"{finding.expression_id} {finding.rule_id}: "
                                f"{finding.verdict.value}, label {want}")
        problems += checks.verdict_links(model, [rid], self.corpus)
        problems += checks.trace_view(view, rid, self.corpus, self.graph,
                                      sorted(self.copies.get(rid, [])))
        return problems

    def _text(self, rid: str, templates: list[str]) -> list[str]:
        template = templates.pop()
        text, pattern, slots = self.composer.compose(template)
        started = time.perf_counter()
        self.model.set_text(rid, text)
        try:
            statement, _ = mbsr.parse_statement(text, self.model.glossary)
        except mbsr.NoShallKeywordError:
            statement = None
        self.model.set_statement(rid, statement)
        for cid in [rid] + self.copies.get(rid, []):
            self.corpus.reqs[cid].text = text
            self.corpus.reqs[cid].template = template
        problems = self._recheck(rid, started)
        if (statement is None) != (template == "no_shall"):
            problems.append(f"{rid}: parse of a {template} text returned {statement}")
        if pattern is not None:
            problems += checks.parsed_slots(statement, pattern, slots)
        for cid in self.copies.get(rid, []):
            if self.model.expression(cid).text != text:
                problems.append(f"copy {cid} did not follow its source {rid}")
        return problems

    def _attribute(self, rid: str, templates) -> list[str]:
        current = self.corpus.reqs[rid].attrs["A34"]
        value = self.rng.choice([v for v in ("High", "Medium", "Low") if v != current])
        started = time.perf_counter()
        self.model.set_attribute(rid, "A34", mbsr.AttributeValue.enum(value))
        self.corpus.reqs[rid].attrs["A34"] = value
        return self._recheck(rid, started)

    def _derive_add(self, rid: str, templates) -> list[str]:
        below = set(self.graph.closure(rid, downward=True)) | {rid}
        below |= self.graph.up.get(rid, set())
        choices = [r.id for r in self.originals if r.id not in below]
        target = self.rng.choice(choices)
        started = time.perf_counter()
        link = mbsr.add_link(self.model, mbsr.LinkKind.DERIVE, rid, target)
        self.graph.add(rid, target)
        self.derive_links[link.link_id] = (rid, target)
        return self._recheck(rid, started)

    def _derive_cycle(self, rid: str, templates) -> list[str]:
        target = self.rng.choice(sorted(self.graph.closure(rid, downward=True)))
        started = time.perf_counter()
        try:
            mbsr.add_link(self.model, mbsr.LinkKind.DERIVE, rid, target)
        except mbsr.CycleDetectedError:
            return self._recheck(rid, started)
        return [f"Derive {rid} -> {target} closes a cycle and was accepted"]

    def _derive_remove(self, _target, templates) -> list[str]:
        # a leaf's link to a parent that keeps another child, so every
        # requirement planned for a cycle edit still has descendants
        link_id = self.rng.choice(sorted(
            lid for lid, (source, target) in self.derive_links.items()
            if not self.graph.down.get(source) and len(self.graph.down[target]) > 1))
        source, target = self.derive_links.pop(link_id)
        started = time.perf_counter()
        mbsr.remove_link(self.model, link_id)
        self.graph.remove(source, target)
        return self._recheck(source, started)

    def _copy_text(self, rid: str, templates) -> list[str]:
        text, _, _ = self.composer.compose("iso1")
        started = time.perf_counter()
        try:
            self.model.set_text(rid, text)
        except mbsr.ReadOnlyCopyError:
            return self._recheck(rid, started)
        return [f"set_text on copy {rid} was accepted"]

    def final_check(self) -> list[str]:
        """One full re-check; every verdict link then matches the current
        labels and every copy's text equals its source's."""
        model = self.model
        mbsr.apply_verdicts(model, mbsr.check_scope(model))
        problems = checks.verdict_links(model, sorted(self.corpus.reqs), self.corpus)
        for source, copies in self.copies.items():
            for cid in copies:
                if model.expression(cid).text != model.expression(source).text:
                    problems.append(f"copy {cid} differs from its source {source}")
        return problems
