"""Trace link semantics: kind constraints, cycle checks, bidirectional views.

The model stores links mechanically; this module is the write path that
enforces what each kind may connect and which kinds must stay acyclic.
Containment is never stored: membership is the single source of truth, and
containment edges are synthesized from it on demand.
"""

from __future__ import annotations

import warnings
from itertools import islice
from typing import NamedTuple

from .errors import (
    CycleDetectedError,
    KindConstraintViolationError,
    TraceDiscouragedWarning,
    UnknownEndpointError,
    UnknownIdError,
    UnknownRootError,
)
from .model import LinkKind, Model, TraceLink
from .records import Record

# Containment is absent: set membership checks its own cycles
ACYCLIC_KINDS = (LinkKind.DERIVE, LinkKind.COPY)


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


def synthesized_containment(model: Model) -> list[TraceLink]:
    """One containment edge per direct set membership, container as source."""
    out: list[TraceLink] = []
    for expr in model.expressions():
        if expr.is_set:
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
        if not container.is_set:
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

    if kind == LinkKind.COPY and (mirrored := model.copy_source_of(source_id)) is not None:
        raise KindConstraintViolationError(f"{source_id!r} already mirrors {mirrored!r}")

    # a cycle through the new link ends in a kind link into its source
    if kind in ACYCLIC_KINDS and any(l.kind == kind for l in model.links_to(source_id)):
        for layer in model.link_layers(target_id, kind):
            if source_id in layer:
                raise CycleDetectedError(
                    f"{kind.value} link {source_id} -> {target_id} would close a cycle")

    link = TraceLink(link_id or model.next_link_id(), kind, source_id, target_id)
    model.store_link(link)
    if kind == LinkKind.COPY:
        # only the new copy and its own copies can change, and none when the
        # copy holds its source's text already, since its copies mirror it
        text = model.expression(target_id).text
        if model.expression(source_id).text != text:
            model.sync_copies_of(source_id, touch, text)
    return link


def remove_link(model: Model, link_id: str) -> None:
    """Remove a stored link, or undo the membership behind a synthesized
    containment edge (the `cnt:<set>:<member>` ids reported by all_links).
    A real membership wins over a stored link with the same id."""
    prefix, _, rest = link_id.partition(":")
    set_id, _, member = rest.partition(":")
    if prefix == "cnt" and model.has_expression(set_id):
        container = model.expression(set_id)
        if container.is_set and member in container.members:
            model.set_members(set_id, [m for m in container.members if m != member])
            return
    if not model.has_link(link_id):
        raise UnknownIdError(f"no link with id {link_id!r}")
    model.remove_link(link_id)


def _bfs(model: Model, start: str, kind: LinkKind, reverse: bool,
         max_depth: int | None = None) -> list[str]:
    """Transitive closure over one kind, BFS order, ties id-sorted per layer,
    at most max_depth layers when given."""
    layers = model.link_layers(start, kind, reverse)
    if max_depth is not None:
        layers = islice(layers, max(max_depth, 0))
    return [node for layer in layers for node in sorted(layer)]


class TraceView(Record):
    __slots__ = _fields = ("expression_id", "derives_from", "derived_by", "member_of",
                           "satisfied_by", "verified_by", "refined_by", "copies")

    def __init__(self, expression_id: str, derives_from: list[str] | None = None,
                 derived_by: list[str] | None = None, member_of: list[str] | None = None,
                 satisfied_by: list[str] | None = None, verified_by: list[str] | None = None,
                 refined_by: list[str] | None = None, copies: list[str] | None = None):
        self.expression_id = expression_id
        self.derives_from = [] if derives_from is None else derives_from
        self.derived_by = [] if derived_by is None else derived_by
        self.member_of = [] if member_of is None else member_of
        self.satisfied_by = [] if satisfied_by is None else satisfied_by
        self.verified_by = [] if verified_by is None else verified_by
        self.refined_by = [] if refined_by is None else refined_by
        self.copies = [] if copies is None else copies


# incoming link kind -> (TraceView field listing its sources, element sources only)
_INCOMING = {
    LinkKind.SATISFY: ("satisfied_by", True),
    LinkKind.VERIFY: ("verified_by", True),
    LinkKind.REFINE: ("refined_by", False),
    LinkKind.COPY: ("copies", False),
}


def bidirectional_trace(model: Model, expr_id: str,
                        max_depth: int | None = None) -> TraceView:
    """Upstream and downstream neighbors of one expression.

    Derive closure is transitive in both directions (max_depth caps the
    link distance when given); satisfaction, verification, refinement,
    and copies are direct incoming links.
    """
    if not model.has_expression(expr_id):
        raise UnknownRootError(f"unknown trace root {expr_id!r}")
    view = TraceView(expr_id,
                     _bfs(model, expr_id, LinkKind.DERIVE, reverse=False, max_depth=max_depth),
                     _bfs(model, expr_id, LinkKind.DERIVE, reverse=True, max_depth=max_depth),
                     model.containing_sets(expr_id))
    for link in model.links_to(expr_id):
        if link.kind in _INCOMING:
            field, elements_only = _INCOMING[link.kind]
            if not elements_only or model.has_element(link.source_id):
                getattr(view, field).append(link.source_id)
    for field, _ in _INCOMING.values():
        getattr(view, field).sort()
    return view


class KdrRow(NamedTuple):
    expression_id: str
    marker: str
    derives_from: tuple[str, ...]


def kdr_view(model: Model, scope_id: str | None = None) -> list[KdrRow]:
    """Key and driving requirements (A38) with their derive chains."""
    rows: list[KdrRow] = []
    for expr in model.scope_requirements(scope_id):
        value = expr.attributes.get("A38")
        if value is None or value.value not in ("K", "D", "K+D"):
            continue
        rows.append(KdrRow(expr.id, str(value.value),
                           tuple(_bfs(model, expr.id, LinkKind.DERIVE, reverse=False))))
    return rows


def matrix_rows(model: Model, scope_id: str | None = None) -> list[TraceView]:
    """One TraceView per non-set expression in scope, id order."""
    return [bidirectional_trace(model, expr.id)
            for expr in model.scope_requirements(scope_id)]
