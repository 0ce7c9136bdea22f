"""Per-node link indexes: they always agree with a filter of every stored
link, and the per-node read paths never fall back to a full link scan."""

import random

import pytest

from mbsr import (
    ElementKind,
    LinkKind,
    MbsrError,
    Model,
    ModelElement,
    RequirementExpression,
    apply_verdicts,
    bidirectional_trace,
    check_scope,
    export_table,
    generate_report,
    kdr_view,
)
from mbsr import trace
from mbsr.catalog import TBX_ID
from mbsr.errors import CycleDetectedError, KindConstraintViolationError
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


def random_step(model, rng):
    """One random operation; rejected ones must leave the links unchanged."""
    reqs = [e.id for e in model.expressions()]
    links = model.links()
    op = rng.choice(("derive", "derive", "copy", "element", "remove", "apply",
                     "edit", "cycle", "second_copy"))
    if op in ("derive", "copy"):
        kind = LinkKind.DERIVE if op == "derive" else LinkKind.COPY
        source, target = rng.sample(reqs, 2)
        # user-chosen ids, some past lnk-9999 where string order differs
        link_id = rng.choice((None, f"lnk-{rng.randint(9995, 10005)}",
                              f"zz-{rng.randint(0, 9)}"))
        if link_id is not None and model.has_link(link_id):
            link_id = None
        try:
            trace.add_link(model, kind, source, target, link_id=link_id)
        except MbsrError:
            assert model.links() == links
    elif op == "element":
        kind = rng.choice((LinkKind.SATISFY, LinkKind.VERIFY, LinkKind.REFINE))
        trace.add_link(model, kind, f"blk-{rng.randrange(3)}", rng.choice(reqs))
    elif op == "remove" and links:
        trace.remove_link(model, rng.choice(links).link_id)
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
            assert model.links() == links
    elif op == "second_copy":
        copies = [r for r in reqs if is_copy(model, r)]
        if copies:
            copy = rng.choice(copies)
            other = rng.choice([r for r in reqs if r != copy])
            with pytest.raises(KindConstraintViolationError):
                trace.add_link(model, LinkKind.COPY, copy, other)
            assert model.links() == links


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_indexes_match_a_full_scan_after_every_step(seed, catalog):
    rng = random.Random(seed)
    model = build(catalog)
    for _ in range(120):
        random_step(model, rng)
        assert_indexes_match_scan(model)
        for expr in model.expressions():
            source = model.copy_source_of(expr.id)
            if source is not None:
                assert expr.text == model.expression(source).text


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
