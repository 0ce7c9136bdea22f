"""Output checks against the generator's labels and the method's properties.

Each check takes a program output and returns a list of problems (empty when
the output is right). Expected values come from the corpus generator's own
records (see corpus.py) or from properties the program documents, never
from a saved copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import re
from xml.etree import ElementTree

from corpus import RULES, VERDICT_NODES, Corpus


class Graph:
    """Derive edges as the generator (and the edit session) recorded them."""

    def __init__(self, edges):
        self.up: dict[str, set[str]] = {}
        self.down: dict[str, set[str]] = {}
        for source, target in edges:
            self.add(source, target)

    def add(self, source: str, target: str) -> None:
        self.up.setdefault(source, set()).add(target)
        self.down.setdefault(target, set()).add(source)

    def remove(self, source: str, target: str) -> None:
        self.up[source].discard(target)
        self.down[target].discard(source)

    def closure(self, start: str, downward: bool = False) -> list[str]:
        """Breadth-first closure, each layer in id order."""
        adjacency = self.down if downward else self.up
        seen = {start}
        frontier = [start]
        out: list[str] = []
        while frontier:
            layer = {n for node in frontier for n in adjacency.get(node, ()) if n not in seen}
            frontier = sorted(layer)
            seen.update(frontier)
            out.extend(frontier)
        return out


def _first_difference(want: list, got: list) -> str:
    for i, (w, g) in enumerate(zip(want, got)):
        if w != g:
            return f"line {i}: want {w!r}, got {g!r}"
    return f"want {len(want)} lines, got {len(got)}"


def scope_reqs(corpus: Corpus, scope: str | None) -> list[str]:
    """Requirement ids in scope, in id order (the order every report uses)."""
    ids = corpus.transitive_reqs(scope) if scope else list(corpus.reqs)
    return sorted(ids)


def scope_sets(corpus: Corpus, scope: str | None) -> list[str]:
    """Set ids a SetReview report covers, in the report's order."""
    if not scope:
        return sorted(corpus.sets)
    out = [scope]

    def walk(set_id: str) -> None:
        for member in corpus.sets[set_id]:
            if member in corpus.sets:
                out.append(member)
                walk(member)
    walk(scope)
    return out


def lint(stdout: str, code: int, corpus: Corpus) -> list[str]:
    problems: list[str] = []
    ids = sorted(corpus.reqs)
    want = [f"{rid} " + " ".join(f"{r}={corpus.reqs[rid].labels[r]}" for r in RULES)
            for rid in ids]
    lines = stdout.splitlines()
    got = [line for line in lines if not line.startswith(" ")]
    if got != want:
        problems.append(f"lint summary differs from labels: {_first_difference(want, got)}")
    violations = sum(corpus.reqs[rid].labels[r] == "V" for rid in ids for r in RULES)
    shown = sum(1 for line in lines if re.match(r"^  \S+ violation at \d+\.\.\d+: ", line))
    if shown != violations:
        problems.append(f"lint shows {shown} violation lines, labels have {violations}")
    if code != (1 if violations else 0):
        problems.append(f"lint exit code {code} with {violations} labelled violations")
    return problems


def matrix(stdout: str, corpus: Corpus, scope: str | None) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    want = [["id", *RULES]] + [[rid, *(corpus.reqs[rid].labels[r] for r in RULES)]
                                    for rid in scope_reqs(corpus, scope)]
    if rows != want:
        return [f"matrix differs from labels: {_first_difference(want, rows)}"]
    return []


def _kdr_lines(corpus: Corpus, graph: Graph, scope: str | None) -> list[str]:
    lines = []
    for rid in scope_reqs(corpus, scope):
        marker = corpus.reqs[rid].attrs.get("A38")
        if marker in ("K", "D", "K+D"):
            chain = graph.closure(rid)
            lines.append(f"- {rid} ({marker})"
                         + (f" derives from {' -> '.join(chain)}" if chain else ""))
    return lines


def overview(stdout: str, corpus: Corpus, scope: str | None) -> list[str]:
    problems = []
    ids = scope_reqs(corpus, scope)
    complete = sum(corpus.reqs[rid].slot_fields for rid in ids)
    pct = round(100.0 * complete / len(ids), 2)
    for line in (f"Total requirements: {len(ids)}", f"Pattern-complete: {complete} ({pct:.2f}%)"):
        if line not in stdout.splitlines():
            problems.append(f"overview lacks {line!r}")
    headings = re.findall(r"^### (\S+)", stdout, re.MULTILINE)
    if headings != ids:
        problems.append(f"overview lists {len(headings)} requirements, scope has {len(ids)}")
    section = stdout.split("## Key and Driving Requirements", 1)[-1]
    got = [line for line in section.splitlines() if line.startswith("- ")]
    want = _kdr_lines(corpus, Graph(corpus.derive_edges()), scope)
    if got != want:
        problems.append(f"key/driving chains differ: want {want[:2]}, got {got[:2]}")
    return problems


def set_review(stdout: str, corpus: Corpus, scope: str | None) -> list[str]:
    problems = []
    sections = re.split(r"^## Set (\S+) .*$", stdout, flags=re.MULTILINE)
    found = sections[1::2]
    want_sets = scope_sets(corpus, scope)
    if found != want_sets:
        return [f"set review covers {found[:3]}..., want {want_sets[:3]}..."]
    for set_id, body in zip(found, sections[2::2]):
        members = corpus.transitive_reqs(set_id)
        head = (f"Direct members: {len(corpus.sets[set_id])}; "
                f"transitive requirements: {len(members)}")
        if head not in body:
            problems.append(f"set {set_id}: missing {head!r}")
        rows = re.findall(r"^\| (\S+) \| ([SVM](?: \| [SVM])*) \|$", body, re.MULTILINE)
        want_rows = [(rid, " | ".join(corpus.reqs[rid].labels[r] for r in RULES))
                     for rid in members]
        if rows != want_rows:
            problems.append(f"set {set_id}: satisfaction matrix differs from labels")
        tbx = sum(corpus.reqs[rid].placeholders for rid in members)
        if f"\n{tbx} unresolved placeholder(s)" not in body:
            problems.append(f"set {set_id}: want {tbx} unresolved placeholder(s)")
    return problems


def table_csv(stdout: str, corpus: Corpus) -> list[str]:
    """The default csv export: id, name, text and the five slot fragments."""
    rows = list(csv.reader(io.StringIO(stdout)))
    want = [["id", "name", "text", "SR1", "SR2", "SR3", "SR4", "SR5"]]
    for rid in sorted(corpus.reqs):
        req = corpus.reqs[rid]
        slots = req.slots if req.slot_fields else {}
        want.append([rid, f"Requirement {rid}", req.text,
                     *(slots.get(f"SR{k}", "") for k in range(1, 6))])
    return [] if rows == want else ["csv table differs from the generated requirements"]


def reqif(stdout: str, corpus: Corpus) -> list[str]:
    try:
        root = ElementTree.fromstring(stdout)
    except ElementTree.ParseError as exc:
        return [f"reqif is not well-formed XML: {exc}"]
    objects = [e for e in root.iter() if e.tag.rsplit("}", 1)[-1] == "SPEC-OBJECT"]
    want = len(corpus.reqs)
    return [] if len(objects) == want else [f"reqif has {len(objects)} SPEC-OBJECTs, want {want}"]


def dot(stdout: str, corpus: Corpus) -> list[str]:
    """Edges are the stored links touching a requirement or set, plus one
    per set membership."""
    shown = set(corpus.reqs) | set(corpus.sets)
    want = sum(1 for _, _, s, t in corpus.links if s in shown or t in shown)
    want += sum(1 for set_id, members in corpus.sets.items() for m in members
                if set_id in shown or m in shown)
    got = sum(1 for line in stdout.splitlines() if " -> " in line)
    return [] if got == want else [f"dot has {got} edges, want {want}"]


def xmi_import(model, corpus: Corpus) -> list[str]:
    """import_xmi(export_xmi(m)) keeps ids, texts and attribute values."""
    ids = sorted(corpus.reqs)
    want_sets = sorted(corpus.sets)
    got = [e.id for e in model.expressions()]
    if got != sorted(ids + want_sets):
        return [f"xmi import holds {len(got)} expressions, want {len(ids) + len(want_sets)}"]
    for rid in ids:
        expr = model.expression(rid)
        attrs = {k: v.display() for k, v in expr.attributes.items()}
        if expr.text != corpus.reqs[rid].text or attrs != corpus.reqs[rid].attrs:
            return [f"xmi import changed {rid}"]
    for set_id in want_sets:
        if model.expression(set_id).members != corpus.sets[set_id]:
            return [f"xmi import changed the members of {set_id}"]
    return []


def canonical(stdout: str, reserialized: str, corpus: Corpus) -> list[str]:
    problems = []
    if reserialized != stdout:
        problems.append("export --format mbsr does not reload and reserialize byte-identically")
    if "\nA14 = " in stdout:
        problems.append("loading stamped A14 (Date of Last Change) on an unchanged requirement")
    if stdout.count("\n[requirement ") != len(corpus.reqs):
        problems.append("canonical corpus lost requirements")
    return problems


def parsed_slots(statement, pattern: str, slots: dict[str, str]) -> list[str]:
    """A clean text parses to the pattern and fragments the generator composed."""
    if statement.pattern != pattern:
        return [f"parsed as {statement.pattern}, composed as {pattern}"]
    got = {k: s.text for k, s in statement.slots().items() if s is not None}
    return [] if got == slots else [f"slots {got} differ from composed {slots}"]


def verdict_links(model, ids, corpus: Corpus) -> list[str]:
    """Each requirement holds exactly one verdict link per node, matching its
    labels; never both Satisfy and Violate for one node."""
    held: dict[str, dict[str, list[str]]] = {}
    for link in model.links():
        if link.kind.value in ("Satisfy", "Violate") and link.target_id in VERDICT_NODES:
            held.setdefault(link.source_id, {}).setdefault(link.target_id, []).append(
                link.kind.value[0])
    for rid in ids:
        want = {node: [letter] for node, letter in corpus.reqs[rid].labels.items()}
        if held.get(rid, {}) != want:
            return [f"verdict links of {rid} are {held.get(rid)}, labels say {want}"]
    return []


def trace_view(view, rid: str, corpus: Corpus, graph: Graph, copies: list[str]) -> list[str]:
    """bidirectional_trace against closures over the recorded edges."""
    problems = []
    if view.derives_from != graph.closure(rid):
        problems.append(f"{rid}: derives_from {view.derives_from} != {graph.closure(rid)}")
    if view.derived_by != graph.closure(rid, downward=True):
        problems.append(f"{rid}: derived_by differs from the closure over recorded edges")
    if view.copies != copies:
        problems.append(f"{rid}: copies {view.copies} != {copies}")
    chain = []
    node = corpus.reqs[rid].set_id
    while node:
        chain.append(node)
        node = corpus.set_parent.get(node, "")
    if view.member_of != chain:
        problems.append(f"{rid}: member_of {view.member_of} != {chain}")
    return problems


def kdr_rows(rows, corpus: Corpus, graph: Graph) -> list[str]:
    got = [f"- {r.expression_id} ({r.marker})"
           + (f" derives from {' -> '.join(r.derives_from)}" if r.derives_from else "")
           for r in rows]
    want = _kdr_lines(corpus, graph, None)
    return [] if got == want else ["kdr_view chains differ from closures over recorded edges"]
