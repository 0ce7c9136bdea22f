"""Model store: ids, attributes, membership, copy mirroring, change stamps."""

import random
from datetime import datetime, timedelta, timezone

import pytest

from mbsr import (
    AttributeValue,
    DuplicateIdError,
    ElementKind,
    ExpressionKind,
    LinkKind,
    Model,
    ModelElement,
    RequirementExpression,
    RequirementSet,
    SlotValue,
    StructuredStatement,
    TraceLink,
    load_catalog,
    loads_corpus,
)
from mbsr.errors import (
    DerivedAttributeError,
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
from tests.conftest import STAMP, fixed_clock


def build_model():
    model = Model(clock=fixed_clock)
    model.add_element(ModelElement("blk-sys", "System", ElementKind.BLOCK))
    model.add_expression(RequirementExpression(
        "R-1", name="First", text="The System shall run within 1 s."))
    model.add_expression(RequirementExpression(
        "R-2", name="Second", text="The System shall stop within 2 s."))
    return model


def test_add_and_lookup():
    model = build_model()
    assert model.element("blk-sys").name == "System"
    assert model.expression("R-1").name == "First"
    assert model.has_element("blk-sys")
    assert not model.has_element("R-1")


def test_duplicate_ids_rejected():
    model = build_model()
    with pytest.raises(DuplicateIdError):
        model.add_element(ModelElement("blk-sys", "Again", ElementKind.BLOCK))
    with pytest.raises(DuplicateIdError):
        model.add_expression(RequirementExpression("R-1"))
    # element and expression ids share one namespace
    with pytest.raises(DuplicateIdError):
        model.add_expression(RequirementExpression("blk-sys"))


def test_catalog_node_ids_are_reserved():
    model = build_model()
    with pytest.raises(DuplicateIdError):
        model.add_expression(RequirementExpression("R1"))
    with pytest.raises(DuplicateIdError):
        model.add_element(ModelElement("C3", "Clash", ElementKind.BLOCK))


def test_whole_corpus_id_is_reserved():
    # "all" as a scope means the whole corpus, so no set may be called that
    model = build_model()
    with pytest.raises(DuplicateIdError, match="whole-corpus scope"):
        model.add_set(RequirementSet("all", members=["R-1"]))
    with pytest.raises(DuplicateIdError):
        model.add_element(ModelElement("all", "Everything", ElementKind.BLOCK))
    assert model.parent_set("R-1") is None


def test_malformed_ids_rejected():
    model = build_model()
    with pytest.raises(InvariantViolationError):
        model.add_expression(RequirementExpression("has space"))
    with pytest.raises(InvariantViolationError):
        ModelElement("-lead", "X", ElementKind.BLOCK)


def test_unknown_lookups_raise():
    model = build_model()
    with pytest.raises(UnknownIdError):
        model.element("nope")
    with pytest.raises(UnknownIdError):
        model.expression("nope")


# --- statements ---


def test_statement_mandatory_slots_enforced():
    with pytest.raises(MissingMandatorySlotError):
        StructuredStatement("Iso1", {"SR2": SlotValue("System")})
    with pytest.raises(SlotNotAllowedError):
        StructuredStatement(
            "Iso1", {"SR2": SlotValue("System"), "SR3": SlotValue("run"),
                     "SR5": SlotValue("within 1 s"), "SR4": SlotValue("x")})
    with pytest.raises(InvariantViolationError):
        StructuredStatement("Nope")


def _iso1_slots():
    return {"SR2": SlotValue("System"), "SR3": SlotValue("run"),
            "SR5": SlotValue("within 1 s")}


def test_statement_errors_come_in_slot_order():
    # Carson needs SR1, SR2, SR3 and SR5; with SR1 and SR2 both missing, SR1 is named
    with pytest.raises(MissingMandatorySlotError) as err:
        StructuredStatement("Carson", {"SR3": SlotValue("run"), "SR5": SlotValue("within 1 s")})
    assert err.value.slot == "SR1"
    # a missing SR3 is named before a not-allowed SR4
    with pytest.raises(MissingMandatorySlotError) as err:
        StructuredStatement("Iso1", {"SR5": SlotValue("within 1 s"), "SR4": SlotValue("x"),
                                     "SR2": SlotValue("System")})
    assert err.value.slot == "SR3"
    # a not-allowed SR1 is named before an empty SR2
    with pytest.raises(SlotNotAllowedError) as err:
        StructuredStatement("Iso1", {**_iso1_slots(), "SR2": SlotValue(""), "SR1": SlotValue("x")})
    assert err.value.slot == "SR1"
    with pytest.raises(EmptySlotError) as err:
        StructuredStatement("Iso1", {**_iso1_slots(), "SR3": SlotValue("")})
    assert err.value.slot == "SR3"


@pytest.mark.parametrize("key", ["SR6", "sr2", "SR0", "sr2_subject", ""])
def test_statement_rejects_unknown_slot_keys(key):
    for value in (SlotValue("x"), None):
        with pytest.raises(SlotNotAllowedError) as err:
            StructuredStatement("Iso1", {**_iso1_slots(), key: value})
        assert err.value.slot == key


def test_statement_copies_its_slot_mapping():
    values = _iso1_slots()
    stmt = StructuredStatement("Iso1", values)
    values["SR2"] = SlotValue("Other")
    values["SR4"] = SlotValue("x")
    del values["SR3"]
    assert stmt.slot("SR2") == SlotValue("System")
    assert stmt.slot("SR3") == SlotValue("run")
    assert stmt.slot("SR4") is None
    stmt.slots()["SR2"] = SlotValue("Other")
    assert stmt.slot("SR2") == SlotValue("System")
    with pytest.raises(AttributeError):
        stmt.pattern = "Iso2"


def test_statement_slots_lists_all_five_keys():
    stmt = StructuredStatement("Iso1", {**_iso1_slots(), "SR4": None})
    assert stmt.slots() == {"SR1": None, "SR2": SlotValue("System"), "SR3": SlotValue("run"),
                            "SR4": None, "SR5": SlotValue("within 1 s")}
    assert list(stmt.slots()) == ["SR1", "SR2", "SR3", "SR4", "SR5"]


def test_equal_statements_hash_equal():
    first = StructuredStatement("Iso1", _iso1_slots())
    second = StructuredStatement("Iso1", dict(reversed(list(_iso1_slots().items()))))
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    bound = StructuredStatement("Iso1", {**_iso1_slots(), "SR2": SlotValue("System", "blk-sys")})
    assert bound != first
    assert len({first, bound}) == 2


def test_statement_binding_must_exist():
    model = build_model()
    stmt = StructuredStatement(
        "Iso1", {"SR2": SlotValue("System", binding="blk-ghost"),
                 "SR3": SlotValue("run"), "SR5": SlotValue("within 1 s")})
    with pytest.raises(UnknownIdError):
        model.set_statement("R-1", stmt)


# --- attributes ---


def test_attribute_validation():
    model = build_model()
    model.set_attribute("R-1", "A34", AttributeValue.enum("High"))
    assert model.get_attribute("R-1", "A34").value == "High"

    with pytest.raises(UnknownAttributeKeyError):
        model.set_attribute("R-1", "A99", AttributeValue.text("x"))
    with pytest.raises(InvalidAttributeTokenError):
        model.set_attribute("R-1", "A34", AttributeValue.enum("Sideways"))
    with pytest.raises(InvalidAttributeTokenError):
        model.set_attribute("R-1", "A34", AttributeValue.text("High"))


def test_derived_attributes_cannot_be_stored():
    model = build_model()
    for key in ("A15", "A16"):
        with pytest.raises(DerivedAttributeError):
            model.set_attribute("R-1", key, AttributeValue.text("x"))
    # reads are synthesized from the expression itself
    assert model.get_attribute("R-1", "A15").value == "R-1"
    assert model.get_attribute("R-1", "A16").value == "First"


def test_element_ref_attribute_checks_target(tmp_path):
    # no stock attribute is a reference, so register an extension that is
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[attribute X01]\nname = Allocated To\nkind = ElementRef\n",
                   encoding="utf-8")
    model = Model(catalog=load_catalog(cfg), clock=fixed_clock)
    model.add_element(ModelElement("blk-sys", "System", ElementKind.BLOCK))
    model.add_expression(RequirementExpression("R-1", name="First"))
    model.set_attribute("R-1", "X01", AttributeValue.ref("blk-sys"))
    with pytest.raises(UnknownIdError):
        model.set_attribute("R-1", "X01", AttributeValue.ref("blk-ghost"))


def test_mutations_stamp_a14():
    model = build_model()
    assert model.get_attribute("R-1", "A14") is None
    model.set_text("R-1", "The System shall run within 3 s.")
    stamped = model.get_attribute("R-1", "A14")
    assert stamped is not None and stamped.value == STAMP


def test_setting_a14_does_not_restamp_itself():
    model = build_model()
    other = datetime(2020, 5, 5, tzinfo=timezone.utc)
    model.set_attribute("R-1", "A14", AttributeValue.stamp(other))
    assert model.get_attribute("R-1", "A14").value == other


# --- sets and membership ---


def test_set_membership_and_parents():
    model = build_model()
    model.add_set(RequirementSet("SET-A", name="Top", members=["R-1"]))
    assert model.parent_set("R-1") == "SET-A"
    assert model.containing_sets("R-1") == ["SET-A"]
    model.set_members("SET-A", ["R-1", "R-2"])
    assert model.transitive_members("SET-A") == ["R-1", "R-2"]


def test_member_in_two_sets_rejected():
    model = build_model()
    model.add_set(RequirementSet("SET-A", name="Top", members=["R-1"]))
    with pytest.raises(KindConstraintViolationError):
        model.add_set(RequirementSet("SET-B", name="Other", members=["R-1"]))


def test_unknown_member_rejected():
    model = build_model()
    with pytest.raises(UnknownMemberError):
        model.add_set(RequirementSet("SET-A", name="Top", members=["ghost"]))


def test_membership_cycle_rejected():
    model = build_model()
    model.add_set(RequirementSet("SET-A", name="Outer"))
    model.add_set(RequirementSet("SET-B", name="Inner"))
    model.set_members("SET-A", ["SET-B"])
    with pytest.raises(MembershipCycleError):
        model.set_members("SET-B", ["SET-A"])
    with pytest.raises(MembershipCycleError):
        model.set_members("SET-A", ["SET-B", "SET-A"])

    # a three-level chain TOP > MID > LOW, with SIDE beside MID
    for set_id in ("SET-TOP", "SET-MID", "SET-LOW", "SET-SIDE"):
        model.add_set(RequirementSet(set_id))
    model.set_members("SET-TOP", ["SET-MID", "SET-SIDE"])
    model.set_members("SET-MID", ["SET-LOW"])
    with pytest.raises(MembershipCycleError):
        model.set_members("SET-LOW", ["R-1", "SET-TOP"])
    # MID closes a cycle too, but its parent is checked first
    with pytest.raises(KindConstraintViolationError):
        model.set_members("SET-LOW", ["R-1", "SET-MID"])
    assert model.expression("SET-LOW").members == []
    # a set that is not an ancestor moves from TOP down into LOW
    model.set_members("SET-TOP", ["SET-MID"])
    model.set_members("SET-LOW", ["SET-SIDE", "R-1"])
    assert model.containing_sets("SET-SIDE") == ["SET-LOW", "SET-MID", "SET-TOP"]


def test_ancestor_walk_ends_after_members_edited_in_place():
    model = build_model()
    model.add_set(RequirementSet("SET-B", members=["R-1"]))
    model.add_set(RequirementSet("SET-A", members=["SET-B"]))
    # members is a public list; emptied in place, SET-A no longer holds
    # SET-B, so SET-B may take it, and SET-B's stale parent entry remains
    model.expression("SET-A").members.clear()
    model.set_members("SET-B", ["R-1", "SET-A"])
    assert model.containing_sets("R-1") == ["SET-B", "SET-A"]
    assert model.transitive_members("SET-B") == ["R-1", "SET-A"]


def test_failed_member_update_leaves_model_unchanged():
    model = build_model()
    model.add_set(RequirementSet("SET-A", name="Top", members=["R-1"]))
    with pytest.raises(UnknownMemberError):
        model.set_members("SET-A", ["R-2", "ghost"])
    assert model.expression("SET-A").members == ["R-1"]
    assert model.parent_set("R-1") == "SET-A"
    assert model.parent_set("R-2") is None


def test_set_members_touch_flag():
    model = build_model()
    model.add_set(RequirementSet("SET-A", name="Top"))
    model.set_members("SET-A", ["R-1"], touch=False)
    assert model.get_attribute("SET-A", "A14") is None
    model.set_members("SET-A", ["R-1", "R-2"])
    assert model.get_attribute("SET-A", "A14").value == STAMP


def test_transitive_members_nested():
    model = build_model()
    model.add_set(RequirementSet("SET-B", name="Inner", members=["R-2"]))
    model.add_set(RequirementSet("SET-A", name="Outer", members=["R-1", "SET-B"]))
    assert model.transitive_members("SET-A") == ["R-1", "SET-B", "R-2"]
    with pytest.raises(UnknownScopeError):
        model.transitive_members("R-1")


def _members_reference(model, set_id):
    """transitive_members as the recursive walk it replaced."""
    out, seen = [], set()

    def walk(rset):
        for member in rset.members:
            if member not in seen:
                seen.add(member)
                out.append(member)
                if model.expression(member).is_set:
                    walk(model.expression(member))

    walk(model.expression(set_id))
    return out


@pytest.mark.parametrize("seed", [1, 7, 2026])
def test_transitive_members_matches_a_recursive_walk(seed):
    rng = random.Random(seed)
    model = Model(clock=fixed_clock)
    # a random forest, built leaves first: each new set takes some of the
    # requirements and sets that no set holds yet
    free = [f"R-{i}" for i in range(40)]
    for rid in free:
        model.add_expression(RequirementExpression(rid))
    for i in range(30):
        members = rng.sample(free, rng.randint(0, min(4, len(free))))
        free = [f for f in free if f not in members] + [f"S-{i}"]
        model.add_set(RequirementSet(f"S-{i}", members=members))
    set_ids = [e.id for e in model.expressions() if e.is_set]
    for set_id in set_ids:
        assert model.transitive_members(set_id) == _members_reference(model, set_id)
    # members is a public list: one edited in place to share a member, or
    # to hold an ancestor, still lists each id once
    for _ in range(5):
        model.expression(rng.choice(set_ids)).members.append(rng.choice(set_ids))
    for set_id in set_ids:
        assert model.transitive_members(set_id) == _members_reference(model, set_id)


def test_scope_expressions():
    model = build_model()
    model.add_set(RequirementSet("SET-A", name="Top", members=["R-2"]))
    everything = [e.id for e in model.scope_expressions(None)]
    assert everything == ["R-1", "R-2", "SET-A"]
    scoped = [e.id for e in model.scope_expressions("SET-A")]
    assert scoped == ["R-2"]


# --- copy mirroring ---


def test_copy_mirrors_and_rejects_direct_edits():
    model = build_model()
    model.add_expression(RequirementExpression("R-1c", name="Mirror"))
    model.store_link(TraceLink("lnk-c", LinkKind.COPY, "R-1c", "R-1"))
    model.sync_copies_of("R-1")
    assert model.expression("R-1c").text == model.expression("R-1").text

    model.set_text("R-1", "The System shall run within 9 s.")
    assert model.expression("R-1c").text == "The System shall run within 9 s."
    with pytest.raises(ReadOnlyCopyError):
        model.set_text("R-1c", "tampered")


def test_chained_copies_sync_transitively():
    # R-1 has copies C-1 and C-2, C-1 has C-11 and C-12, C-2 has C-21, which has C-211
    tree = {"C-1": "R-1", "C-2": "R-1", "C-11": "C-1", "C-12": "C-1", "C-21": "C-2",
            "C-211": "C-21"}
    blocks = ["[requirement R-1]\ntext = The System shall run within 1 s.\n"]
    blocks += [f"[requirement {copy}]\ntext = stale\n" for copy in tree]
    blocks += [f"[link lnk-{copy}]\nkind = Copy\nsource = {copy}\ntarget = {source}\n"
               for copy, source in tree.items()]
    ticks: list[datetime] = []

    def ticking_clock():
        ticks.append(STAMP + timedelta(seconds=len(ticks)))
        return ticks[-1]

    model = loads_corpus("\n".join(blocks), clock=ticking_clock)
    assert ticks == []  # loading mirrors the texts without a stamp
    assert {model.expression(c).text for c in tree} == {"The System shall run within 1 s."}

    model.set_text("R-1", "The System shall idle within 4 s.")
    assert {model.expression(c).text for c in tree} == {"The System shall idle within 4 s."}
    stamps = {c: model.get_attribute(c, "A14").value for c in tree}
    # the source and then each copy once, nearer copies first
    assert len(ticks) == 1 + len(tree)
    assert sorted(stamps.values()) == ticks[1:]
    layers = [["C-1", "C-2"], ["C-11", "C-12", "C-21"], ["C-211"]]
    for near, far in zip(layers, layers[1:]):
        assert max(stamps[c] for c in near) < min(stamps[c] for c in far)


@pytest.mark.parametrize("root_text", ["The System shall run within 1 s.",
                                       "The System shall run within 2 s."],
                         ids=["mirrored", "root-edited"])
def test_loading_a_copy_chain_far_end_first_walks_each_copy_at_most_once(root_text, monkeypatch):
    """A Copy chain whose copies hold one text, written from the far end as
    the link ids order it: each new link changes only the new copy and its
    own copies, and none when the copy holds its source's text already, so
    loading walks fewer copies than the chain holds, whether the root holds
    the copies' text or a newer one."""
    n = 2000
    text = "The System shall run within 1 s."
    blocks = [f"[requirement C-0000]\ntext = {root_text}\n"]
    blocks += [f"[requirement C-{i:04d}]\ntext = {text}\n" for i in range(1, n + 1)]
    blocks += [f"[link lnk-{n - i:04d}]\nkind = Copy\nsource = C-{i:04d}\n"
               f"target = C-{i - 1:04d}\n" for i in range(n, 0, -1)]
    walked = []
    link_layers = Model.link_layers

    def counting_layers(self, *args, **kwargs):
        for layer in link_layers(self, *args, **kwargs):
            walked.extend(layer)
            yield layer

    monkeypatch.setattr(Model, "link_layers", counting_layers)
    model = loads_corpus("\n".join(blocks), clock=fixed_clock)
    assert len(walked) < n
    assert [model.copy_source_of(f"C-{i:04d}") for i in (1, n)] == ["C-0000", f"C-{n - 1:04d}"]
    assert all(model.expression(f"C-{i:04d}").text == root_text for i in range(n + 1))
    assert model.get_attribute(f"C-{n:04d}", "A14") is None  # loading stamps no copy


def test_next_link_id_skips_taken_ids():
    model = build_model()
    model.store_link(TraceLink("lnk-0001", LinkKind.DERIVE, "R-2", "R-1"))
    assert model.next_link_id() == "lnk-0002"


def test_expression_kind_default_and_need():
    expr = RequirementExpression("N-1", kind=ExpressionKind.NEED)
    assert expr.kind is ExpressionKind.NEED
    assert RequirementExpression("R-9").kind is ExpressionKind.REQUIREMENT
    assert RequirementSet("S-1").is_set and not RequirementExpression("R-8").is_set
