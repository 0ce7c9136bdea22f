"""Trace link semantics: kind constraints, cycle checks, bidirectional views.

The model stores links mechanically; this module is the write path that
enforces what each kind may connect and which kinds must stay acyclic.
Containment is never stored: membership is the single source of truth, and
containment edges are synthesized from it on demand.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    CycleDetectedError,
    KindConstraintViolationError,
    TraceDiscouragedWarning,
    UnknownEndpointError,
    UnknownIdError,
    UnknownRootError,
)
from .model import LinkKind, Model, RequirementSet, TraceLink

ACYCLIC_KINDS = (LinkKind.DERIVE, LinkKind.CONTAINMENT, LinkKind.COPY)


def _known(model: Model, any_id: str) -> bool:
    return (model.has_expression(any_id) or model.has_element(any_id)
            or model.catalog.is_graph_node(any_id))


def _require_expression(model: Model, any_id: str, role: str, kind: LinkKind) -> None:
    if not model.has_expression(any_id):
        raise KindConstraintViolationError(
            f"{kind.value} {role} {any_id!r} must be a requirement expression")


def _require_element(model: Model, any_id: str, role: str, kind: LinkKind) -> None:
    if not model.has_element(any_id):
        raise KindConstraintViolationError(
            f"{kind.value} {role} {any_id!r} must be a model element")


def derive_reachable(model: Model, start: str, kind: LinkKind) -> set[str]:
    """Ids reachable from start by following kind edges source-to-target."""
    seen: set[str] = set()
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for link in model.links_from(current):
            if link.kind == kind and link.target_id not in seen:
                seen.add(link.target_id)
                queue.append(link.target_id)
    return seen


def synthesized_containment(model: Model) -> list[TraceLink]:
    """One containment edge per direct set membership, container as source."""
    out: list[TraceLink] = []
    for expr in model.expressions():
        if isinstance(expr, RequirementSet):
            for member in expr.members:
                out.append(TraceLink(f"cnt:{expr.id}:{member}", LinkKind.CONTAINMENT,
                                     expr.id, member))
    return out


def all_links(model: Model) -> list[TraceLink]:
    """Stored links plus synthesized containment, id-sorted."""
    return sorted(model.links() + synthesized_containment(model),
                  key=lambda l: l.link_id)


def add_link(model: Model, kind: LinkKind, source_id: str, target_id: str,
             link_id: str | None = None, touch: bool = True) -> TraceLink:
    """Validate endpoints and kind constraints, then store the link.

    Containment delegates to set membership and returns the synthesized
    edge. Copy syncs the copy's text from the original immediately.
    touch=False skips the change stamps either makes (used by loaders).
    """
    for any_id in (source_id, target_id):
        if not _known(model, any_id):
            raise UnknownEndpointError(f"unknown link endpoint {any_id!r}")
    if source_id == target_id:
        raise CycleDetectedError(f"link endpoints are both {source_id!r}")

    if kind == LinkKind.CONTAINMENT:
        _require_expression(model, source_id, "source", kind)
        _require_expression(model, target_id, "target", kind)
        container = model.expression(source_id)
        if not isinstance(container, RequirementSet):
            raise KindConstraintViolationError(
                f"Containment source {source_id!r} must be a set")
        model.set_members(source_id, list(container.members) + [target_id], touch=touch)
        return TraceLink(f"cnt:{source_id}:{target_id}", kind, source_id, target_id)

    if kind in (LinkKind.DERIVE, LinkKind.COPY):
        _require_expression(model, source_id, "source", kind)
        _require_expression(model, target_id, "target", kind)
    elif kind == LinkKind.REFINE:
        _require_element(model, source_id, "source", kind)
        _require_expression(model, target_id, "target", kind)
    elif kind in (LinkKind.SATISFY, LinkKind.VIOLATE, LinkKind.VERIFY):
        if model.catalog.is_graph_node(target_id):
            _require_expression(model, source_id, "source", kind)
        elif kind == LinkKind.VIOLATE:
            raise KindConstraintViolationError(
                "Violate links only connect expressions to rule nodes")
        else:
            _require_element(model, source_id, "source", kind)
            _require_expression(model, target_id, "target", kind)
    elif kind == LinkKind.TRACE:
        if model.catalog.forbid_trace_links:
            raise KindConstraintViolationError(
                "generic Trace links are disabled by configuration")
        warnings.warn(
            f"generic Trace link {source_id} -> {target_id}: prefer a specific kind",
            TraceDiscouragedWarning, stacklevel=2)

    if kind == LinkKind.COPY:
        for link in model.links_from(source_id):
            if link.kind == LinkKind.COPY:
                raise KindConstraintViolationError(
                    f"{source_id!r} already mirrors {link.target_id!r}")

    if kind in ACYCLIC_KINDS and source_id in derive_reachable(model, target_id, kind):
        raise CycleDetectedError(
            f"{kind.value} link {source_id} -> {target_id} would close a cycle")

    link = TraceLink(link_id or model.next_link_id(), kind, source_id, target_id)
    model.store_link(link)
    if kind == LinkKind.COPY:
        model.sync_copies_of(target_id, touch=touch)
    return link


def remove_link(model: Model, link_id: str) -> None:
    """Remove a stored link, or undo the membership behind a synthesized
    containment edge (the `cnt:<set>:<member>` ids reported by all_links).
    A real membership wins over a stored link with the same id."""
    prefix, _, rest = link_id.partition(":")
    set_id, _, member = rest.partition(":")
    if prefix == "cnt" and model.has_expression(set_id):
        container = model.expression(set_id)
        if isinstance(container, RequirementSet) and member in container.members:
            model.set_members(set_id, [m for m in container.members if m != member])
            return
    if not model.has_link(link_id):
        raise UnknownIdError(f"no link with id {link_id!r}")
    model.remove_link(link_id)


def _bfs(model: Model, start: str, kind: LinkKind, reverse: bool,
         max_depth: int | None = None) -> list[str]:
    """Transitive closure over one kind, BFS order, ties id-sorted per layer."""
    out: list[str] = []
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        layer: set[str] = set()
        for node in frontier:
            if reverse:
                neighbors = [l.source_id for l in model.links_to(node) if l.kind == kind]
            else:
                neighbors = [l.target_id for l in model.links_from(node) if l.kind == kind]
            layer.update(n for n in neighbors if n not in seen)
        frontier = sorted(layer)
        seen.update(frontier)
        out.extend(frontier)
    return out


@dataclass
class TraceView:
    expression_id: str
    derives_from: list[str] = field(default_factory=list)
    derived_by: list[str] = field(default_factory=list)
    member_of: list[str] = field(default_factory=list)
    satisfied_by: list[str] = field(default_factory=list)
    verified_by: list[str] = field(default_factory=list)
    refined_by: list[str] = field(default_factory=list)
    copies: list[str] = field(default_factory=list)

    @property
    def upstream(self) -> list[str]:
        return self.derives_from + self.member_of

    @property
    def downstream(self) -> list[str]:
        return (self.derived_by + self.satisfied_by + self.verified_by
                + self.refined_by + self.copies)


def bidirectional_trace(model: Model, expr_id: str,
                        max_depth: int | None = None) -> TraceView:
    """Upstream and downstream neighbors of one expression.

    Derive closure is transitive in both directions (max_depth caps the
    link distance when given); satisfaction, verification, refinement,
    and copies are direct incoming links.
    """
    if not model.has_expression(expr_id):
        raise UnknownRootError(f"unknown trace root {expr_id!r}")
    view = TraceView(expression_id=expr_id)
    view.derives_from = _bfs(model, expr_id, LinkKind.DERIVE, reverse=False,
                             max_depth=max_depth)
    view.derived_by = _bfs(model, expr_id, LinkKind.DERIVE, reverse=True,
                           max_depth=max_depth)
    view.member_of = model.containing_sets(expr_id)
    for link in model.links_to(expr_id):
        if link.kind == LinkKind.SATISFY and model.has_element(link.source_id):
            view.satisfied_by.append(link.source_id)
        elif link.kind == LinkKind.VERIFY and model.has_element(link.source_id):
            view.verified_by.append(link.source_id)
        elif link.kind == LinkKind.REFINE:
            view.refined_by.append(link.source_id)
        elif link.kind == LinkKind.COPY:
            view.copies.append(link.source_id)
    view.satisfied_by.sort()
    view.verified_by.sort()
    view.refined_by.sort()
    view.copies.sort()
    return view


@dataclass(frozen=True)
class KdrRow:
    expression_id: str
    marker: str
    derives_from: tuple[str, ...]


def kdr_view(model: Model, scope_id: str | None = None) -> list[KdrRow]:
    """Key and driving requirements (A38) with their derive chains."""
    rows: list[KdrRow] = []
    for expr in model.scope_expressions(scope_id):
        if expr.is_set:
            continue
        value = expr.attributes.get("A38")
        if value is None or value.value not in ("K", "D", "K+D"):
            continue
        rows.append(KdrRow(expr.id, str(value.value),
                           tuple(_bfs(model, expr.id, LinkKind.DERIVE, reverse=False))))
    rows.sort(key=lambda r: r.expression_id)
    return rows


def matrix_rows(model: Model, scope_id: str | None = None) -> list[TraceView]:
    """One TraceView per non-set expression in scope, id order."""
    return [bidirectional_trace(model, expr.id)
            for expr in sorted(model.scope_expressions(scope_id), key=lambda e: e.id)
            if not expr.is_set]
