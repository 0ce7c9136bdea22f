"""Core domain types and the in-memory model store.

Holds elements, requirement expressions and sets, trace links, the glossary,
and the metric history. Mutations validate first and then apply, so a failed
call leaves the model unchanged. A single writer is assumed; queries are pure.
Links are also indexed by source and by target id, each bucket kept in
link-id order, so a node's link lookups cost in proportion to its own links.
"""

from __future__ import annotations

import re
import uuid
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Mapping

from .catalog import PATTERNS, SLOT_KEYS, Catalog, ValueKind, default_catalog
from .errors import (
    DerivedAttributeError,
    DuplicateIdError,
    EmptySlotError,
    InvalidAttributeTokenError,
    InvariantViolationError,
    KindConstraintViolationError,
    MembershipCycleError,
    MissingMandatorySlotError,
    ReadOnlyCopyError,
    SlotNotAllowedError,
    UnknownAttributeKeyError,
    UnknownIdError,
    UnknownMemberError,
    UnknownScopeError,
)
from .glossary import Glossary

ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

# model uuid is fixed by default so exports are deterministic across loads
DEFAULT_MODEL_UUID = uuid.UUID("6ba7b810-9dad-11d1-80b4-00c04fd430c8")

# wall-clock epoch used when a caller wants reproducible output
FIXED_EPOCH = datetime(2000, 1, 1, tzinfo=timezone.utc)


def as_utc(instant: datetime) -> datetime:
    """The instant, read as UTC when it carries no UTC offset."""
    return instant if instant.tzinfo is not None else instant.replace(tzinfo=timezone.utc)

_SLOT_INDEX = {key: i for i, key in enumerate(SLOT_KEYS)}


class ElementKind(Enum):
    BLOCK = "Block"
    MODE = "Mode"
    QUANTITY = "Quantity"
    ACTIVITY = "Activity"
    OTHER = "Other"


class ExpressionKind(Enum):
    REQUIREMENT = "Requirement"
    NEED = "Need"


class LinkKind(Enum):
    CONTAINMENT = "Containment"
    DERIVE = "Derive"
    REFINE = "Refine"
    SATISFY = "Satisfy"
    VERIFY = "Verify"
    COPY = "Copy"
    TRACE = "Trace"
    VIOLATE = "Violate"


@dataclass(frozen=True)
class ModelElement:
    element_id: str
    name: str
    kind: ElementKind

    def __post_init__(self):
        if not ID_RE.match(self.element_id):
            raise InvariantViolationError(f"bad element id {self.element_id!r}")
        if not self.name.strip():
            raise InvariantViolationError(f"element {self.element_id}: empty name")


@dataclass(frozen=True)
class SlotValue:
    text: str
    binding: str | None = None


@dataclass(frozen=True, init=False)
class StructuredStatement:
    """StructuredStatement(pattern, {slot key: SlotValue}): exactly the
    pattern's slots, each with text. The mapping is copied, not kept."""
    pattern: str
    # one entry per SLOT_KEYS key, None where the pattern has no such slot
    _slots: tuple[SlotValue | None, ...]

    def __init__(self, pattern: str, values: Mapping[str, SlotValue | None] | None = None):
        shape = PATTERNS.get(pattern)
        if shape is None:
            raise InvariantViolationError(f"unknown pattern {pattern!r}")
        values = values or {}
        for key in values:
            if key not in _SLOT_INDEX:
                raise SlotNotAllowedError(key, pattern)
        slots = tuple(map(values.get, SLOT_KEYS))
        for key, slot in zip(SLOT_KEYS, slots):
            if key in shape.slot_order:
                if slot is None:
                    raise MissingMandatorySlotError(key, pattern)
                if not slot.text:
                    raise EmptySlotError(key)
            elif slot is not None:
                raise SlotNotAllowedError(key, pattern)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "_slots", slots)

    def slot(self, key: str) -> SlotValue | None:
        return self._slots[_SLOT_INDEX[key]]

    def slots(self) -> dict[str, SlotValue | None]:
        return dict(zip(SLOT_KEYS, self._slots))


@dataclass(frozen=True)
class AttributeValue:
    kind: ValueKind
    value: str | datetime

    @classmethod
    def enum(cls, token: str) -> AttributeValue:
        return cls(ValueKind.ENUM, token)

    @classmethod
    def text(cls, value: str) -> AttributeValue:
        return cls(ValueKind.TEXT, value)

    @classmethod
    def ref(cls, element_id: str) -> AttributeValue:
        return cls(ValueKind.ELEMENT_REF, element_id)

    @classmethod
    def stamp(cls, instant: datetime) -> AttributeValue:
        return cls(ValueKind.TIMESTAMP, instant)

    def display(self) -> str:
        if isinstance(self.value, datetime):
            return as_utc(self.value).astimezone(timezone.utc).isoformat()
        return self.value


@dataclass
class RequirementExpression:
    id: str
    name: str = ""
    text: str = ""
    statement: StructuredStatement | None = None
    attributes: dict[str, AttributeValue] = field(default_factory=dict)
    kind: ExpressionKind = ExpressionKind.REQUIREMENT

    @property
    def is_set(self) -> bool:
        return isinstance(self, RequirementSet)


@dataclass
class RequirementSet(RequirementExpression):
    members: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class TraceLink:
    link_id: str
    kind: LinkKind
    source_id: str
    target_id: str


_link_id = attrgetter("link_id")
_expr_id = attrgetter("id")


class Model:
    def __init__(self, catalog: Catalog | None = None,
                 clock: Callable[[], datetime] | None = None,
                 model_uuid: uuid.UUID | None = None):
        self.catalog = catalog if catalog is not None else default_catalog()
        self.clock = clock if clock is not None else (lambda: datetime.now(timezone.utc))
        self.model_uuid = model_uuid if model_uuid is not None else DEFAULT_MODEL_UUID
        self.glossary = Glossary(case_insensitive=self.catalog.case_insensitive_terms)
        self._elements: dict[str, ModelElement] = {}
        self._expressions: dict[str, RequirementExpression] = {}
        self._links: dict[str, TraceLink] = {}
        # node id -> its outgoing / incoming links, each list in link-id order
        self._links_by_source: dict[str, list[TraceLink]] = {}
        self._links_by_target: dict[str, list[TraceLink]] = {}
        self._parent: dict[str, str] = {}  # member id -> containing set id
        self.metric_history: list = []
        self._link_counter = 0

    # --- lookups ---

    def has_element(self, element_id: str) -> bool:
        return element_id in self._elements

    def element(self, element_id: str) -> ModelElement:
        try:
            return self._elements[element_id]
        except KeyError:
            raise UnknownIdError(f"unknown element {element_id!r}") from None

    def elements(self) -> list[ModelElement]:
        return sorted(self._elements.values(), key=lambda e: e.element_id)

    def has_expression(self, expr_id: str) -> bool:
        return expr_id in self._expressions

    def expression(self, expr_id: str) -> RequirementExpression:
        try:
            return self._expressions[expr_id]
        except KeyError:
            raise UnknownIdError(f"unknown expression {expr_id!r}") from None

    def expressions(self) -> list[RequirementExpression]:
        return sorted(self._expressions.values(), key=_expr_id)

    def display_name(self, any_id: str) -> str:
        if any_id in self._expressions:
            return self._expressions[any_id].name
        if any_id in self._elements:
            return self._elements[any_id].name
        return ""

    def links(self) -> list[TraceLink]:
        return sorted(self._links.values(), key=lambda l: l.link_id)

    def has_link(self, link_id: str) -> bool:
        return link_id in self._links

    def links_from(self, source_id: str) -> list[TraceLink]:
        return list(self._links_by_source.get(source_id, ()))

    def links_to(self, target_id: str) -> list[TraceLink]:
        return list(self._links_by_target.get(target_id, ()))

    def parent_set(self, expr_id: str) -> str | None:
        return self._parent.get(expr_id)

    # --- validation helpers ---

    def _check_new_id(self, any_id: str) -> None:
        if not ID_RE.match(any_id):
            raise InvariantViolationError(f"bad id {any_id!r}")
        if self.catalog.is_graph_node(any_id):
            raise DuplicateIdError(
                f"id {any_id!r} is reserved for a rule or characteristic node")
        if any_id in self._elements or any_id in self._expressions:
            raise DuplicateIdError(f"id {any_id!r} already in use")

    def _validate_attribute(self, key: str, value: AttributeValue) -> None:
        attr_def = self.catalog.attributes.get(key)
        if attr_def is None:
            raise UnknownAttributeKeyError(f"unknown attribute key {key!r}")
        if key in ("A15", "A16"):
            raise DerivedAttributeError(f"{key} is derived and cannot be stored")
        if value.kind != attr_def.value_kind:
            raise InvalidAttributeTokenError(
                f"{key} expects {attr_def.value_kind.value}, got {value.kind.value}")
        if attr_def.value_kind == ValueKind.ENUM and value.value not in (attr_def.value_set or ()):
            raise InvalidAttributeTokenError(
                f"{key}: token {value.value!r} not in {list(attr_def.value_set or ())}")
        if attr_def.value_kind == ValueKind.ELEMENT_REF and value.value not in self._elements:
            raise UnknownIdError(f"{key}: referenced element {value.value!r} does not exist")
        if attr_def.value_kind == ValueKind.TIMESTAMP and not isinstance(value.value, datetime):
            raise InvalidAttributeTokenError(f"{key}: timestamp value required")

    def _validate_statement(self, statement: StructuredStatement) -> None:
        for key, slot in statement.slots().items():
            if slot is not None and slot.binding is not None and slot.binding not in self._elements:
                raise UnknownIdError(f"slot {key} binding {slot.binding!r} does not exist")

    def _touch(self, expr: RequirementExpression) -> None:
        expr.attributes["A14"] = AttributeValue.stamp(self.clock())

    # --- mutations ---

    def add_element(self, element: ModelElement) -> None:
        self._check_new_id(element.element_id)
        self._elements[element.element_id] = element

    def add_expression(self, expr: RequirementExpression) -> None:
        """Add a requirement, or a set whose members then belong to it."""
        self._check_new_id(expr.id)
        for key, value in expr.attributes.items():
            self._validate_attribute(key, value)
        if expr.statement is not None:
            self._validate_statement(expr.statement)
        if isinstance(expr, RequirementSet):
            self._check_members(expr.id, expr.members)
            for member in expr.members:
                self._parent[member] = expr.id
        self._expressions[expr.id] = expr

    def add_set(self, rset: RequirementSet) -> None:
        self.add_expression(rset)

    def _check_members(self, set_id: str, members: Iterable[str]) -> None:
        seen: set[str] = set()
        for member in members:
            if member == set_id:
                raise MembershipCycleError(f"set {set_id!r} cannot contain itself")
            if member in seen:
                raise DuplicateIdError(f"set {set_id!r} lists member {member!r} twice")
            seen.add(member)
            if member not in self._expressions:
                raise UnknownMemberError(f"set {set_id!r}: member {member!r} does not exist")
            parent = self._parent.get(member)
            if parent is not None and parent != set_id:
                raise KindConstraintViolationError(
                    f"member {member!r} is already contained in set {parent!r}")
            if self._reaches(member, set_id):
                raise MembershipCycleError(
                    f"adding {member!r} to {set_id!r} would close a membership cycle")

    def _reaches(self, start: str, goal: str) -> bool:
        stack = [start]
        visited: set[str] = set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in visited:
                continue
            visited.add(node)
            expr = self._expressions.get(node)
            if isinstance(expr, RequirementSet):
                stack.extend(expr.members)
        return False

    def set_members(self, set_id: str, members: list[str], touch: bool = True) -> None:
        """Replace a set's member list; touch=False skips the change stamp
        (used when loaders rebuild state rather than mutate it)."""
        rset = self.expression(set_id)
        if not isinstance(rset, RequirementSet):
            raise UnknownScopeError(f"{set_id!r} is not a set")
        self._check_members(set_id, members)
        if members != rset.members:
            for member in rset.members:
                del self._parent[member]
            rset.members = list(members)
            for member in members:
                self._parent[member] = set_id
            if touch:
                self._touch(rset)

    def set_text(self, expr_id: str, text: str) -> None:
        expr = self.expression(expr_id)
        if self.copy_source_of(expr_id) is not None:
            raise ReadOnlyCopyError(f"{expr_id!r} mirrors a Copy source; edit the source instead")
        if expr.text != text:
            expr.text = text
            self._touch(expr)
            self.sync_copies_of(expr_id)

    def set_statement(self, expr_id: str, statement: StructuredStatement | None) -> None:
        expr = self.expression(expr_id)
        if statement is not None:
            self._validate_statement(statement)
        if expr.statement != statement:
            expr.statement = statement
            self._touch(expr)

    def set_attribute(self, expr_id: str, key: str, value: AttributeValue) -> None:
        expr = self.expression(expr_id)
        self._validate_attribute(key, value)
        if expr.attributes.get(key) != value:
            expr.attributes[key] = value
            if key != "A14":
                self._touch(expr)

    def get_attribute(self, expr_id: str, key: str) -> AttributeValue | None:
        expr = self.expression(expr_id)
        if key in ("A15", "A16"):
            return AttributeValue.text(expr.id if key == "A15" else expr.name)
        if key not in self.catalog.attributes:
            raise UnknownAttributeKeyError(f"unknown attribute key {key!r}")
        return expr.attributes.get(key)

    # --- copy mirroring ---

    def copy_source_of(self, expr_id: str) -> str | None:
        """Source id when expr_id is the read-only copy end of a Copy link."""
        for link in self._links_by_source.get(expr_id, ()):
            if link.kind == LinkKind.COPY:
                return link.target_id
        return None

    def copied_id(self, expr_id: str) -> str:
        """Display id: a copy mirrors its source's id, others show their own."""
        source = self.copy_source_of(expr_id)
        return source if source is not None else expr_id

    def sync_copies_of(self, source_id: str, touch: bool = True) -> None:
        """Push text to all transitive copies of source_id; touch=False skips
        the copies' change stamps (used when loaders rebuild state)."""
        pending = [source_id]
        visited: set[str] = set()
        while pending:
            current = pending.pop()
            if current in visited:
                continue
            visited.add(current)
            src = self._expressions[current]
            for link in self._links_by_target.get(current, ()):
                if link.kind == LinkKind.COPY:
                    copy = self._expressions[link.source_id]
                    if copy.text != src.text:
                        copy.text = src.text
                        if touch:
                            self._touch(copy)
                    pending.append(copy.id)

    # --- link storage (semantics live in trace) ---

    def next_link_id(self) -> str:
        while True:
            self._link_counter += 1
            candidate = f"lnk-{self._link_counter:04d}"
            if candidate not in self._links:
                return candidate

    def store_link(self, link: TraceLink) -> None:
        if link.link_id in self._links:
            raise DuplicateIdError(f"link id {link.link_id!r} already in use")
        self._links[link.link_id] = link
        insort(self._links_by_source.setdefault(link.source_id, []), link, key=_link_id)
        insort(self._links_by_target.setdefault(link.target_id, []), link, key=_link_id)

    def remove_link(self, link_id: str) -> None:
        link = self._links.pop(link_id, None)
        if link is not None:
            _unindex(self._links_by_source, link.source_id, link_id)
            _unindex(self._links_by_target, link.target_id, link_id)

    # --- scopes ---

    def transitive_members(self, set_id: str) -> list[str]:
        expr = self._expressions.get(set_id)
        if not isinstance(expr, RequirementSet):
            raise UnknownScopeError(f"{set_id!r} is not a known set")
        out: list[str] = []
        seen: set[str] = set()

        def walk(rset: RequirementSet) -> None:
            for member in rset.members:
                if member in seen:
                    continue
                seen.add(member)
                out.append(member)
                child = self._expressions[member]
                if isinstance(child, RequirementSet):
                    walk(child)

        walk(expr)
        return out

    def scope_expressions(self, scope_id: str | None) -> list[RequirementExpression]:
        """Expressions in scope, in id order: a set's transitive members, or all."""
        if scope_id is None or scope_id == "all":
            return self.expressions()
        return sorted(map(self._expressions.__getitem__, self.transitive_members(scope_id)),
                      key=_expr_id)

    def scope_requirements(self, scope_id: str | None) -> list[RequirementExpression]:
        """The non-set expressions in scope, in id order."""
        return [e for e in self.scope_expressions(scope_id) if not e.is_set]

    def containing_sets(self, expr_id: str) -> list[str]:
        """Ancestor set chain, nearest first."""
        out: list[str] = []
        current = self._parent.get(expr_id)
        while current is not None and current not in out:
            out.append(current)
            current = self._parent.get(current)
        return out


def _unindex(index: dict[str, list[TraceLink]], node_id: str, link_id: str) -> None:
    bucket = index[node_id]
    del bucket[bisect_left(bucket, link_id, key=_link_id)]
    if not bucket:
        del index[node_id]
