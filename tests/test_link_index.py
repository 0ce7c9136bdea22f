"""Per-node link indexes: they always agree with a filter of every stored
link, and the per-node read paths never fall back to a full link scan.

The random walk also edits set membership, adds expressions and sets, and
edits copies; every rejected step must leave the corpus text unchanged, and
the model invariants must hold after every step."""

import random

import pytest

from mbsr import (
    ElementKind,
    LinkKind,
    MbsrError,
    Model,
    ModelElement,
    RequirementExpression,
    RequirementSet,
    apply_verdicts,
    bidirectional_trace,
    check_scope,
    export_table,
    generate_report,
    kdr_view,
    serialize_corpus,
)
from mbsr import trace
from mbsr.catalog import TBX_ID
from mbsr.errors import CycleDetectedError, KindConstraintViolationError, ReadOnlyCopyError
from tests.conftest import fixed_clock

TEXTS = (
    "The System shall run within 1 s.",
    "The System shall not stop within 1 s.",
    "The Pump shall be capable of pumping within 2 s.",
    "The Valve shall close within TBD s.",
    "The Door is opened by the Operator.",
)


def all_node_ids(model):
    catalog = model.catalog
    return ([e.element_id for e in model.elements()]
            + [e.id for e in model.expressions()]
            + list(catalog.rules) + list(catalog.characteristics) + [TBX_ID])


def assert_indexes_match_scan(model):
    links = model.links()
    for node_id in all_node_ids(model):
        assert model.links_from(node_id) == [l for l in links if l.source_id == node_id]
        assert model.links_to(node_id) == [l for l in links if l.target_id == node_id]


def is_copy(model, expr_id):
    return model.copy_source_of(expr_id) is not None


def build(catalog, n=10):
    model = Model(catalog=catalog, clock=fixed_clock)
    for i in range(3):
        model.add_element(ModelElement(f"blk-{i}", f"Block_{i}", ElementKind.BLOCK))
    for i in range(n):
        model.add_expression(RequirementExpression(f"Q-{i:02d}", text=TEXTS[i % len(TEXTS)]))
    return model


def assert_model_invariants(model):
    """No membership cycle, one parent per member that parent_set agrees
    with, copies in sync with their sources, and no node with both a
    Satisfy and a Violate link to one target."""
    holders = {}
    for rset in model.expressions():
        for member in rset.members if rset.is_set else ():
            assert member not in holders, f"{member} in {holders.get(member)} and {rset.id}"
            holders[member] = rset.id
    for expr in model.expressions():
        assert model.parent_set(expr.id) == holders.get(expr.id)
        assert expr.id not in model.containing_sets(expr.id)
        source = model.copy_source_of(expr.id)
        if source is not None:
            assert expr.text == model.expression(source).text
    for node_id in all_node_ids(model):
        verdicts = {}
        for link in model.links_from(node_id):
            if link.kind in (LinkKind.SATISFY, LinkKind.VIOLATE):
                verdicts.setdefault(link.target_id, set()).add(link.kind)
        assert all(len(kinds) == 1 for kinds in verdicts.values()), (node_id, verdicts)


def random_members(rng, reqs):
    """A member list that may move members from other sets, close a cycle,
    repeat a member or name an unknown one."""
    members = rng.sample(reqs, rng.randint(0, min(4, len(reqs))))
    if members and rng.random() < 0.2:
        members.append(rng.choice(members))
    if rng.random() < 0.1:
        members.append("Q-unknown")
    return members


# the steps whose random input the model may reject; every other step must succeed
MAY_BE_REJECTED = {"derive", "copy", "members", "contain", "add_set", "add_expression"}


def random_step(model, rng):
    """One random operation; a rejected one must leave the corpus unchanged."""
    reqs = [e.id for e in model.expressions()]
    sets = [e.id for e in model.expressions() if e.is_set]
    links = model.links()
    before = serialize_corpus(model)
    op = rng.choice(("derive", "derive", "copy", "element", "remove", "apply",
                     "edit", "cycle", "second_copy", "members", "members",
                     "contain", "add_set", "add_expression", "copy_edit"))
    try:
        if op in ("derive", "copy"):
            kind = LinkKind.DERIVE if op == "derive" else LinkKind.COPY
            source, target = rng.sample(reqs, 2)
            # user-chosen ids, some past lnk-9999 where string order differs
            link_id = rng.choice((None, f"lnk-{rng.randint(9995, 10005)}",
                                  f"zz-{rng.randint(0, 9)}"))
            if link_id is not None and model.has_link(link_id):
                link_id = None
            trace.add_link(model, kind, source, target, link_id=link_id)
        elif op == "element":
            kind = rng.choice((LinkKind.SATISFY, LinkKind.VERIFY, LinkKind.REFINE))
            trace.add_link(model, kind, f"blk-{rng.randrange(3)}", rng.choice(reqs))
        elif op == "remove":
            every = trace.all_links(model)
            if every:
                trace.remove_link(model, rng.choice(every).link_id)
        elif op == "apply":
            apply_verdicts(model, check_scope(model))
        elif op == "edit":
            sources = [r for r in reqs if not is_copy(model, r)]
            model.set_text(rng.choice(sources), rng.choice(TEXTS) + f" #{rng.randrange(99)}")
        elif op == "cycle":
            derives = [l for l in links if l.kind == LinkKind.DERIVE]
            if derives:
                link = rng.choice(derives)
                with pytest.raises(CycleDetectedError):
                    trace.add_link(model, LinkKind.DERIVE, link.target_id, link.source_id)
                assert serialize_corpus(model) == before
        elif op == "second_copy":
            copies = [r for r in reqs if is_copy(model, r)]
            if copies:
                copy = rng.choice(copies)
                other = rng.choice([r for r in reqs if r != copy])
                with pytest.raises(KindConstraintViolationError):
                    trace.add_link(model, LinkKind.COPY, copy, other)
                assert serialize_corpus(model) == before
        elif op == "members" and sets:
            model.set_members(rng.choice(sets), random_members(rng, reqs))
        elif op == "contain" and sets:
            trace.add_link(model, LinkKind.CONTAINMENT, rng.choice(sets), rng.choice(reqs))
        elif op in ("add_set", "add_expression"):
            # a fresh id, or one an expression, element or rule node already holds
            new_id = rng.choice((f"S-{len(reqs):02d}", f"S-{len(reqs):02d}",
                                 rng.choice(reqs), "blk-1", "R1"))
            if op == "add_expression":
                model.add_expression(RequirementExpression(new_id, text=rng.choice(TEXTS)))
            else:
                add = rng.choice((model.add_set, model.add_expression))
                add(RequirementSet(new_id, members=random_members(rng, reqs)))
        elif op == "copy_edit":
            copies = [r for r in reqs if is_copy(model, r)]
            if copies:
                with pytest.raises(ReadOnlyCopyError):
                    model.set_text(rng.choice(copies), "The System shall stop.")
                assert serialize_corpus(model) == before
    except MbsrError:
        assert op in MAY_BE_REJECTED, op
        assert serialize_corpus(model) == before


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_indexes_match_a_full_scan_after_every_step(seed, catalog):
    rng = random.Random(seed)
    model = build(catalog)
    for _ in range(120):
        random_step(model, rng)
        assert_indexes_match_scan(model)
        assert_model_invariants(model)


def test_indexes_order_user_link_ids_as_strings(catalog):
    model = build(catalog, n=3)
    for link_id in ("lnk-9999", "lnk-10000", "a-1", "lnk-0002"):
        trace.add_link(model, LinkKind.SATISFY, "blk-0", "Q-00", link_id=link_id)
    assert [l.link_id for l in model.links_from("blk-0")] == \
        ["a-1", "lnk-0002", "lnk-10000", "lnk-9999"]
    trace.remove_link(model, "lnk-10000")
    assert [l.link_id for l in model.links_to("Q-00")] == ["a-1", "lnk-0002", "lnk-9999"]


def test_per_node_read_paths_do_not_scan_every_link(tracechain_model, monkeypatch):
    model = tracechain_model
    findings = check_scope(model)

    def no_full_scan(self):
        raise AssertionError("full link scan on a per-node read path")

    monkeypatch.setattr(Model, "links", no_full_scan)
    apply_verdicts(model, findings)
    table = export_table(model, None, ["id", "R1", "R2", "R10", "R16", "TBX", "C3"])
    report = generate_report(model, None, "SetReview")
    view = bidirectional_trace(model, "L5-A")
    rows = kdr_view(model)
    trace.remove_link(model, "lnk-02")
    model.set_text("L3-A", "The System shall provide Capability_B within 1 s.")

    assert "L5-A,S,S,S,S,S,S" in table
    assert "| L5-A | S | S | S | S | S |" in report
    assert view.derives_from == ["L4-A", "L3-A"]
    assert [r.expression_id for r in rows] == ["L3-A", "L4-A"]
    assert model.expression("L3-A-copy").text.endswith("Capability_B within 1 s.")
