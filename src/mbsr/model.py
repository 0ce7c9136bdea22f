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
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterator, Mapping, NamedTuple

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
from .records import FrozenRecord, Record

ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

# model uuid is fixed by default so exports are deterministic across loads
DEFAULT_MODEL_UUID = uuid.UUID("6ba7b810-9dad-11d1-80b4-00c04fd430c8")

# wall-clock epoch used when a caller wants reproducible output
FIXED_EPOCH = datetime(2000, 1, 1, tzinfo=timezone.utc)

# the scope id that means the whole corpus, so no id may take it
WHOLE_CORPUS = "all"


def is_whole_corpus(scope_id: str | None) -> bool:
    return scope_id is None or scope_id == WHOLE_CORPUS


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


class ModelElement(FrozenRecord):
    __slots__ = _fields = ("element_id", "name", "kind")

    def __init__(self, element_id: str, name: str, kind: ElementKind):
        if not ID_RE.match(element_id):
            raise InvariantViolationError(f"bad element id {element_id!r}")
        if not name.strip():
            raise InvariantViolationError(f"element {element_id}: empty name")
        object.__setattr__(self, "element_id", element_id)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)


class SlotValue(NamedTuple):
    text: str
    binding: str | None = None


class StructuredStatement(FrozenRecord):
    """StructuredStatement(pattern, {slot key: SlotValue}): exactly the
    pattern's slots, each with text. The mapping is copied, not kept."""
    # _slots holds one entry per SLOT_KEYS key, None where the pattern has no such slot
    __slots__ = _fields = ("pattern", "_slots")

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


class AttributeValue(NamedTuple):
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


class RequirementExpression(Record):
    __slots__ = _fields = ("id", "name", "text", "statement", "attributes", "kind")
    is_set = False

    def __init__(self, id: str, name: str = "", text: str = "",
                 statement: StructuredStatement | None = None,
                 attributes: dict[str, AttributeValue] | None = None,
                 kind: ExpressionKind = ExpressionKind.REQUIREMENT):
        self.id, self.name, self.text, self.statement = id, name, text, statement
        self.attributes = {} if attributes is None else attributes
        self.kind = kind


class RequirementSet(RequirementExpression):
    __slots__ = ("members",)
    _fields = (*RequirementExpression._fields, "members")
    is_set = True

    def __init__(self, id: str, name: str = "", text: str = "",
                 statement: StructuredStatement | None = None,
                 attributes: dict[str, AttributeValue] | None = None,
                 kind: ExpressionKind = ExpressionKind.REQUIREMENT,
                 members: list[str] | None = None):
        super().__init__(id, name, text, statement, attributes, kind)
        self.members = [] if members is None else members


class TraceLink(NamedTuple):
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
        # rules' check plan: (copies of the catalog's rules, characteristics
        # and patterns it was built from, (enabled checks, characteristic
        # contributors, expression id -> (*findings, text, attributes copy))).
        # An entry is reused while its text and attributes compare equal to the
        # expression's; the whole plan is rebuilt when one of the three catalog
        # dicts stops comparing equal to its copy, so replace a RuleDef,
        # CharacteristicDef or PatternDef, never mutate one. Only rules reads
        # or writes it.
        self._check_plan: tuple = (None, None)

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
        if any_id == WHOLE_CORPUS:
            raise DuplicateIdError(f"id {any_id!r} is reserved for the whole-corpus scope")
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
        if expr.is_set:
            self._check_members(expr.id, expr.members)
            for member in expr.members:
                self._parent[member] = expr.id
        self._expressions[expr.id] = expr

    def add_set(self, rset: RequirementSet) -> None:
        self.add_expression(rset)

    def _check_members(self, set_id: str, members: list[str]) -> None:
        # membership is a tree, so a member closes a cycle exactly when it is
        # one of the set's ancestors; each of those holds members, so the walk
        # up is left out when no member does, as in a tree filled top-down
        ancestors = set(self.containing_sets(set_id)) if any(
            getattr(self._expressions.get(m), "members", None) for m in members) else ()
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
            if member in ancestors:
                raise MembershipCycleError(
                    f"adding {member!r} to {set_id!r} would close a membership cycle")

    def set_members(self, set_id: str, members: list[str], touch: bool = True) -> None:
        """Replace a set's member list; touch=False skips the change stamp
        (used when loaders rebuild state rather than mutate it)."""
        rset = self.expression(set_id)
        if not rset.is_set:
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
            self.sync_copies_of(expr_id, text=text)

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

    def sync_copies_of(self, source_id: str, touch: bool = True,
                       text: str | None = None) -> None:
        """Write text, by default source_id's own, to source_id and then to its
        transitive copies, breadth first, where it differs; touch=False skips
        the change stamps (used when loaders rebuild state)."""
        text = self._expressions[source_id].text if text is None else text
        for layer in [[source_id], *self.link_layers(source_id, LinkKind.COPY, reverse=True)]:
            for copy_id in layer:
                copy = self._expressions[copy_id]
                if copy.text != text:
                    copy.text = text
                    if touch:
                        self._touch(copy)

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

    def link_layers(self, start: str, kind: LinkKind,
                    reverse: bool = False) -> Iterator[list[str]]:
        """Breadth-first layers of the closure from start over kind links, target
        to source when reverse; each id comes once, and start never."""
        index = self._links_by_target if reverse else self._links_by_source
        seen = {start}
        layer = [start]
        while layer:
            frontier, layer = layer, []
            for node in frontier:
                for link in index.get(node, ()):
                    if link.kind == kind:
                        next_id = link.source_id if reverse else link.target_id
                        if next_id not in seen:
                            seen.add(next_id)
                            layer.append(next_id)
            if layer:
                yield layer

    # --- scopes ---

    def set_forest(self, scope_id: str | None) -> list[tuple[str, int]]:
        """(id, depth) pairs in pre-order over set membership: at depth 0 the
        scope set, or for the whole corpus each set that no set holds, in id
        order; below each, its members and theirs, each id once, at its first place."""
        if is_whole_corpus(scope_id):
            tops = [e.id for e in self.expressions() if e.is_set and e.id not in self._parent]
        else:
            expr = self._expressions.get(scope_id)
            if expr is None or not expr.is_set:
                raise UnknownScopeError(f"{scope_id!r} is not a known set")
            tops = [scope_id]
        out: list[tuple[str, int]] = []
        seen: set[str] = set()
        pending = [(top, 0) for top in reversed(tops)]
        while pending:
            node_id, depth = pending.pop()
            # depth-0 entries never count as seen, so a members list edited in
            # place to hold an ancestor lists that ancestor once more below
            if depth:
                if node_id in seen:
                    continue
                seen.add(node_id)
            out.append((node_id, depth))
            expr = self._expressions[node_id]
            if expr.is_set:
                pending.extend((member, depth + 1) for member in reversed(expr.members))
        return out

    def transitive_members(self, set_id: str) -> list[str]:
        """A set's members and theirs, in pre-order, each once."""
        if is_whole_corpus(set_id):
            raise UnknownScopeError(f"{set_id!r} is not a known set")
        return [node_id for node_id, depth in self.set_forest(set_id) if depth]

    def scope_expressions(self, scope_id: str | None) -> list[RequirementExpression]:
        """Expressions in scope, in id order: a set's transitive members, or all."""
        if is_whole_corpus(scope_id):
            return self.expressions()
        return sorted(map(self._expressions.__getitem__, self.transitive_members(scope_id)),
                      key=_expr_id)

    def scope_requirements(self, scope_id: str | None) -> list[RequirementExpression]:
        """The non-set expressions in scope, in id order."""
        return [e for e in self.scope_expressions(scope_id) if not e.is_set]

    def containing_sets(self, expr_id: str) -> list[str]:
        """Ancestor set chain, nearest first."""
        # the test stops a cycle that a members list edited in place let through
        out: dict[str, None] = {}
        current = self._parent.get(expr_id)
        while current is not None and current not in out:
            out[current] = None
            current = self._parent.get(current)
        return list(out)


def _unindex(index: dict[str, list[TraceLink]], node_id: str, link_id: str) -> None:
    bucket = index[node_id]
    del bucket[bisect_left(bucket, link_id, key=_link_id)]
    if not bucket:
        del index[node_id]
