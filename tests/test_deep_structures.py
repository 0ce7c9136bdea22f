"""Deep structures: no walk over set membership or a link chain recurses.

A set chain nested deeper than Python's default recursion limit, written
top-down, and Copy and Derive chains 2,000 links long run through the
commands that walk them. Each command exits with its documented code, and
the library calls raise nothing but `MbsrError`.
"""

import pytest

from mbsr import (
    CycleDetectedError,
    LinkKind,
    MembershipCycleError,
    add_link,
    bidirectional_trace,
    compute_slot_completeness,
    export_reqif,
    loads_corpus,
)
from mbsr.cli import main
from tests.conftest import fixed_clock

# A walk that recursed once per level of 2,000 would need twice the frames
# that Python's default limit of 1,000 allows. Every membership reader walks
# `Model.set_forest` once, so each command here runs in time linear in its
# output; ReqIF's output alone grows with the square of the depth, since each
# level is indented further.
SET_DEPTH = 2000
CHAIN = 2000
TEXT = "The System shall run within {} s."


def requirement(i: int) -> str:
    return f"[requirement R-{i}]\ntext = {TEXT.format(i)}\n"


def set_chain() -> str:
    """S-0 holds S-1, which holds S-2, ... down to the last set, which holds
    R-0; each set is written before the sets it holds."""
    blocks = [requirement(0)]
    for i in range(SET_DEPTH):
        member = f"S-{i + 1}" if i + 1 < SET_DEPTH else "R-0"
        blocks.append(f"[set S-{i}]\nmembers = {member}\n")
    return "\n".join(blocks)


def link_chain(kind: LinkKind) -> str:
    """R-1 links to R-0, R-2 to R-1, and so on, in that order."""
    blocks = [requirement(i) for i in range(CHAIN)]
    for i in range(1, CHAIN):
        blocks.append(f"[link L-{i}]\nkind = {kind.value}\nsource = R-{i}\ntarget = R-{i - 1}\n")
    return "\n".join(blocks)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    folder = tmp_path_factory.mktemp("deep")
    texts = {"sets": set_chain(), "copy": link_chain(LinkKind.COPY),
             "derive": link_chain(LinkKind.DERIVE)}
    for name, text in texts.items():
        (folder / f"{name}.mbsr").write_text(text, encoding="utf-8")
    return folder, texts


@pytest.mark.parametrize("corpus, argv", [
    ("sets", ["validate"]),
    ("sets", ["--scope", "S-0", "lint"]),
    ("sets", ["--scope", "S-0", "matrix"]),
    ("sets", ["export", "--format", "reqif"]),
    ("sets", ["--scope", "S-0", "export", "--format", "xmi"]),
    ("sets", ["export", "--format", "md", "--template", "SetReview"]),
    ("sets", ["trace", "R-0"]),
    ("copy", ["trace", f"R-{CHAIN - 1}"]),
    ("derive", ["trace", f"R-{CHAIN - 1}"]),
])
def test_cli_walks_deep_corpora(corpora, corpus, argv):
    folder, _ = corpora
    out = str(folder / f"{corpus}.out")
    # every text passes the rules, so lint exits 0 as well
    assert main(["--corpus", str(folder / f"{corpus}.mbsr"), "--out", out, *argv]) == 0


def test_library_walks_a_deep_set_chain(corpora):
    _, texts = corpora
    model = loads_corpus(texts["sets"], clock=fixed_clock)
    assert model.transitive_members("S-0") == [f"S-{i}" for i in range(1, SET_DEPTH)] + ["R-0"]
    assert model.containing_sets("R-0") == [f"S-{i}" for i in reversed(range(SET_DEPTH))]
    assert bidirectional_trace(model, "R-0").member_of == model.containing_sets("R-0")
    assert compute_slot_completeness(model, "S-0").total == 1
    reqif = export_reqif(model)
    assert reqif.count("<SPEC-HIERARCHY ") == reqif.count("</SPEC-HIERARCHY>") == SET_DEPTH
    with pytest.raises(MembershipCycleError):
        model.set_members(f"S-{SET_DEPTH - 1}", ["R-0", "S-0"])


def test_library_walks_deep_link_chains(corpora):
    _, texts = corpora
    derive = loads_corpus(texts["derive"], clock=fixed_clock)
    view = bidirectional_trace(derive, f"R-{CHAIN - 1}")
    assert view.derives_from == [f"R-{i}" for i in reversed(range(CHAIN - 1))]
    assert bidirectional_trace(derive, "R-0", max_depth=3).derived_by == ["R-1", "R-2", "R-3"]
    with pytest.raises(CycleDetectedError):
        add_link(derive, LinkKind.DERIVE, "R-0", f"R-{CHAIN - 1}")

    copy = loads_corpus(texts["copy"], clock=fixed_clock)
    assert {expr.text for expr in copy.expressions()} == {TEXT.format(0)}
    copy.set_text("R-0", "The System shall stop within 2 s.")
    assert {expr.text for expr in copy.expressions()} == {"The System shall stop within 2 s."}
    with pytest.raises(CycleDetectedError):
        add_link(copy, LinkKind.COPY, "R-0", f"R-{CHAIN - 1}")
