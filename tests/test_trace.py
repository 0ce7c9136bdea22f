"""Typed relationship store: kind constraints, acyclicity, containment
synthesis, copy mirroring, and closure queries against a brute-force oracle."""

import random
import warnings
from collections import deque

import pytest

from mbsr import (
    CycleDetectedError,
    ElementKind,
    ExpressionKind,
    LinkKind,
    Model,
    ModelElement,
    RequirementExpression,
    RequirementSet,
    TraceDiscouragedWarning,
    TraceLink,
    add_link,
    all_links,
    bidirectional_trace,
    kdr_view,
    matrix_rows,
    remove_link,
    serialize_corpus,
)
from mbsr import AttributeValue, trace
from mbsr.errors import (
    KindConstraintViolationError,
    UnknownEndpointError,
    UnknownIdError,
    UnknownRootError,
)
from tests.conftest import fixed_clock


def chain_model(catalog):
    model = Model(catalog=catalog, clock=fixed_clock)
    model.add_element(ModelElement("blk-x", "Unit", ElementKind.BLOCK))
    model.add_element(ModelElement("act-t", "Test_Campaign", ElementKind.ACTIVITY))
    for n in (1, 2, 3):
        model.add_expression(RequirementExpression(
            f"L{n}", name=f"Level {n}",
            text=f"The System shall run within {n} s."))
    add_link(model, LinkKind.DERIVE, "L2", "L1")
    add_link(model, LinkKind.DERIVE, "L3", "L2")
    return model


# --- kind constraints ---


def test_satisfy_requires_element_source(catalog):
    model = chain_model(catalog)
    add_link(model, LinkKind.SATISFY, "blk-x", "L3")
    with pytest.raises(KindConstraintViolationError):
        add_link(model, LinkKind.SATISFY, "L1", "L2")


def test_verify_requires_element_source(catalog):
    model = chain_model(catalog)
    add_link(model, LinkKind.VERIFY, "act-t", "L3")
    with pytest.raises(KindConstraintViolationError):
        add_link(model, LinkKind.VERIFY, "L1", "L3")


def test_refine_requires_element_source(catalog):
    model = chain_model(catalog)
    add_link(model, LinkKind.REFINE, "blk-x", "L2")
    with pytest.raises(KindConstraintViolationError):
        add_link(model, LinkKind.REFINE, "L1", "L2")


def test_derive_requires_expression_endpoints(catalog):
    model = chain_model(catalog)
    with pytest.raises(KindConstraintViolationError):
        add_link(model, LinkKind.DERIVE, "blk-x", "L1")
    with pytest.raises(KindConstraintViolationError):
        add_link(model, LinkKind.DERIVE, "L1", "blk-x")


def test_violate_targets_catalog_nodes_only(catalog):
    model = chain_model(catalog)
    add_link(model, LinkKind.VIOLATE, "L1", "R16")
    with pytest.raises(KindConstraintViolationError):
        add_link(model, LinkKind.VIOLATE, "L1", "L2")


def test_unknown_endpoints_rejected(catalog):
    model = chain_model(catalog)
    with pytest.raises(UnknownEndpointError):
        add_link(model, LinkKind.DERIVE, "ghost", "L1")
    with pytest.raises(UnknownEndpointError):
        add_link(model, LinkKind.DERIVE, "L1", "ghost")


def test_self_loop_rejected(catalog):
    model = chain_model(catalog)
    with pytest.raises(CycleDetectedError):
        add_link(model, LinkKind.DERIVE, "L1", "L1")


def test_trace_kind_is_discouraged(catalog):
    model = chain_model(catalog)
    with pytest.warns(TraceDiscouragedWarning):
        add_link(model, LinkKind.TRACE, "L1", "L2")


def test_trace_kind_can_be_forbidden(tmp_path):
    from mbsr import load_catalog

    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[flags config]\nforbid_trace_links = true\n", encoding="utf-8")
    model = chain_model(load_catalog(cfg))
    with pytest.raises(KindConstraintViolationError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            add_link(model, LinkKind.TRACE, "L1", "L2")


# --- acyclicity ---


def test_derive_cycle_rejected(catalog):
    model = chain_model(catalog)
    with pytest.raises(CycleDetectedError):
        add_link(model, LinkKind.DERIVE, "L1", "L3")


def test_copy_cycle_rejected(catalog):
    model = chain_model(catalog)
    add_link(model, LinkKind.COPY, "L2", "L1")
    with pytest.raises(CycleDetectedError):
        add_link(model, LinkKind.COPY, "L1", "L2")


def test_second_copy_of_same_mirror_rejected(catalog):
    model = chain_model(catalog)
    add_link(model, LinkKind.COPY, "L2", "L1")
    with pytest.raises(KindConstraintViolationError):
        add_link(model, LinkKind.COPY, "L2", "L3")


def test_copy_syncs_text_on_creation(catalog):
    model = chain_model(catalog)
    add_link(model, LinkKind.COPY, "L2", "L1")
    assert model.expression("L2").text == model.expression("L1").text


# --- containment synthesis ---


def test_containment_goes_through_membership(catalog):
    model = chain_model(catalog)
    model.add_set(RequirementSet("SET-A", name="Top"))
    add_link(model, LinkKind.CONTAINMENT, "SET-A", "L1")
    assert model.expression("SET-A").members == ["L1"]
    # nothing stored for containment; all_links synthesizes the edge
    assert all(l.kind is not LinkKind.CONTAINMENT for l in model.links())
    edges = [(l.kind, l.source_id, l.target_id) for l in all_links(model)]
    assert (LinkKind.CONTAINMENT, "SET-A", "L1") in edges


def test_containment_cycle_rejected_via_links(catalog):
    model = chain_model(catalog)
    model.add_set(RequirementSet("SET-A", name="Outer"))
    model.add_set(RequirementSet("SET-B", name="Inner"))
    add_link(model, LinkKind.CONTAINMENT, "SET-A", "SET-B")
    from mbsr.errors import MembershipCycleError
    with pytest.raises(MembershipCycleError):
        add_link(model, LinkKind.CONTAINMENT, "SET-B", "SET-A")


def test_remove_synthesized_containment_updates_members(catalog):
    model = chain_model(catalog)
    model.add_set(RequirementSet("SET-A", name="Top", members=["L1", "L2"]))
    remove_link(model, "cnt:SET-A:L1")
    assert model.expression("SET-A").members == ["L2"]


@pytest.mark.parametrize("link_id", ["cnt:SET-A:L3", "cnt:SET-B:L1", "cnt:L1:L2",
                                     "cnt:SET-A", "cnt:", "cnt:SET-A:L1:x"])
def test_remove_containment_id_without_membership_raises(catalog, link_id):
    model = chain_model(catalog)
    model.add_set(RequirementSet("SET-A", name="Top", members=["L1", "L2"]))
    before = serialize_corpus(model)
    with pytest.raises(UnknownIdError):
        remove_link(model, link_id)
    assert serialize_corpus(model) == before


def test_remove_containment_does_not_synthesize_every_edge(catalog, monkeypatch):
    model = chain_model(catalog)
    model.add_set(RequirementSet("SET-A", name="Top", members=["L1", "L2"]))
    link = add_link(model, LinkKind.SATISFY, "blk-x", "L1")

    def refuse(model):
        raise AssertionError("remove_link must not synthesize every containment edge")

    monkeypatch.setattr(trace, "synthesized_containment", refuse)
    remove_link(model, "cnt:SET-A:L2")
    remove_link(model, link.link_id)
    assert model.expression("SET-A").members == ["L1"]
    assert not model.has_link(link.link_id)


def test_membership_wins_over_stored_link_with_containment_id(catalog):
    model = chain_model(catalog)
    model.add_set(RequirementSet("SET-A", name="Top", members=["L1", "L2"]))
    model.store_link(TraceLink("cnt:SET-A:L1", LinkKind.SATISFY, "blk-x", "L1"))
    remove_link(model, "cnt:SET-A:L1")
    assert model.expression("SET-A").members == ["L2"]
    assert model.has_link("cnt:SET-A:L1")
    remove_link(model, "cnt:SET-A:L1")
    assert not model.has_link("cnt:SET-A:L1")


def test_remove_unknown_link_raises(catalog):
    model = chain_model(catalog)
    with pytest.raises(UnknownIdError):
        remove_link(model, "lnk-9999")


def test_remove_stored_link(catalog):
    model = chain_model(catalog)
    link = add_link(model, LinkKind.SATISFY, "blk-x", "L1")
    remove_link(model, link.link_id)
    assert model.links_from("blk-x") == []


# --- closures ---


def test_bidirectional_trace_on_chain(catalog):
    model = chain_model(catalog)
    view = bidirectional_trace(model, "L3")
    assert view.derives_from == ["L2", "L1"]
    assert view.derived_by == []
    view = bidirectional_trace(model, "L1")
    assert view.derives_from == []
    assert view.derived_by == ["L2", "L3"]


def test_trace_depth_limit(catalog):
    model = chain_model(catalog)
    view = bidirectional_trace(model, "L3", max_depth=1)
    assert view.derives_from == ["L2"]
    assert bidirectional_trace(model, "L3", max_depth=5).derives_from == ["L2", "L1"]
    # a depth below 1 gives no layers, also a negative one from a library caller
    for depth in (0, -1):
        assert bidirectional_trace(model, "L3", max_depth=depth).derives_from == []


def test_unknown_root_raises(catalog):
    model = chain_model(catalog)
    with pytest.raises(UnknownRootError):
        bidirectional_trace(model, "ghost")
    with pytest.raises(UnknownRootError):
        bidirectional_trace(model, "blk-x")  # elements are not roots


def test_direct_relations_in_view(tracechain_model):
    view = bidirectional_trace(tracechain_model, "L5-A")
    assert view.satisfied_by == ["blk-controller"]
    assert view.verified_by == ["act-qual-test"]
    assert view.member_of == ["SET-ALL"]
    view = bidirectional_trace(tracechain_model, "L4-A")
    assert view.refined_by == ["blk-architecture"]
    view = bidirectional_trace(tracechain_model, "L3-A")
    assert view.copies == ["L3-A-copy"]


def oracle_closure(edges, start, forward):
    """Plain BFS over (source, target) pairs, following forward or reverse."""
    reached = []
    seen = {start}
    frontier = deque([start])
    while frontier:
        layer = []
        for _ in range(len(frontier)):
            node = frontier.popleft()
            for src, dst in edges:
                nxt = None
                if forward and src == node:
                    nxt = dst
                elif not forward and dst == node:
                    nxt = src
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    layer.append(nxt)
        for nxt in sorted(set(layer)):
            reached.append(nxt)
            frontier.append(nxt)
    return reached


def test_random_dags_match_oracle(catalog):
    rng = random.Random(31415)
    for _ in range(20):
        model = Model(catalog=catalog, clock=fixed_clock)
        count = rng.randrange(4, 12)
        ids = [f"N{n}" for n in range(count)]
        for expr_id in ids:
            model.add_expression(RequirementExpression(
                expr_id, name=expr_id,
                text="The System shall run within 1 s."))
        edges = []
        for _ in range(rng.randrange(3, count * 2)):
            a, b = rng.sample(range(count), 2)
            # later index derives from earlier keeps the graph acyclic
            if a < b:
                a, b = b, a
            if (ids[a], ids[b]) in edges:
                continue
            add_link(model, LinkKind.DERIVE, ids[a], ids[b])
            edges.append((ids[a], ids[b]))
        root = rng.choice(ids)
        view = bidirectional_trace(model, root)
        assert view.derives_from == oracle_closure(edges, root, forward=True)
        assert view.derived_by == oracle_closure(edges, root, forward=False)


# --- views ---


def test_kdr_view(tracechain_model):
    rows = kdr_view(tracechain_model)
    assert [(r.expression_id, r.marker) for r in rows] == \
        [("L3-A", "K+D"), ("L4-A", "D")]
    assert rows[1].derives_from == ("L3-A",)


def test_kdr_view_ignores_unmarked(catalog):
    model = chain_model(catalog)
    assert kdr_view(model) == []
    model.set_attribute("L1", "A38", AttributeValue.enum("K"))
    assert [r.expression_id for r in kdr_view(model)] == ["L1"]
    model.set_attribute("L1", "A38", AttributeValue.enum("None"))
    assert kdr_view(model) == []


def test_matrix_rows_cover_scope(tracechain_model):
    rows = matrix_rows(tracechain_model)
    assert [r.expression_id for r in rows] == \
        ["L3-A", "L3-A-copy", "L4-A", "L5-A"]
    rows = matrix_rows(tracechain_model, "SET-ALL")
    assert len(rows) == 4
