"""Block-file tokenizer: headers, key/value fields, fenced text, comments."""

import random
import re

import pytest

from mbsr.blockfile import Block, parse_blocks, render_blocks
from mbsr.errors import CorpusSyntaxError, CorpusValidationError

SAMPLE = """\
# leading comment

[element blk-a]
name = Alpha
kind = Block

[requirement R-1]
text = The Alpha shall run within 1 s.
A01 = <<<
line one
line two
>>>
"""


def test_parse_sample_blocks():
    blocks = parse_blocks(SAMPLE)
    assert [(b.kind, b.ident) for b in blocks] == [
        ("element", "blk-a"), ("requirement", "R-1")]
    assert blocks[0].fields == {"name": "Alpha", "kind": "Block"}
    assert blocks[1].fields["A01"] == "line one\nline two"


def test_header_line_numbers_are_recorded():
    blocks = parse_blocks(SAMPLE)
    assert blocks[0].line == 3
    assert blocks[1].line == 7
    assert blocks[1].field_lines["text"] == 8


def test_blank_line_ends_a_block():
    # after the blank line the block is closed, so the stray field errors out
    with pytest.raises(CorpusSyntaxError) as err:
        parse_blocks("[element a]\nname = A\n\nname = B\n")
    assert err.value.line == 4


def test_duplicate_key_rejected():
    with pytest.raises(CorpusSyntaxError) as err:
        parse_blocks("[element a]\nname = A\nname = B\n")
    assert "name" in str(err.value)
    assert err.value.line == 3


def test_field_outside_block_rejected():
    with pytest.raises(CorpusSyntaxError):
        parse_blocks("name = A\n")


def test_bad_header_rejected():
    with pytest.raises(CorpusSyntaxError):
        parse_blocks("[element]\n")
    with pytest.raises(CorpusSyntaxError):
        parse_blocks("[Element a]\n")


def test_unterminated_fence_rejected():
    with pytest.raises(CorpusSyntaxError) as err:
        parse_blocks("[requirement r]\nA01 = <<<\nno closing\n")
    assert err.value.line == 2


def test_comments_and_blank_lines_ignored():
    text = "# top\n\n[element a]\n# inside\nname = A\n\n# tail\n"
    blocks = parse_blocks(text)
    assert blocks[0].fields == {"name": "A"}


def test_render_round_trips_plain_fields():
    blocks = parse_blocks(SAMPLE)
    again = parse_blocks(render_blocks(blocks))
    assert [(b.kind, b.ident, b.fields) for b in again] == \
        [(b.kind, b.ident, b.fields) for b in blocks]


def test_render_fences_values_that_need_them():
    block = Block("requirement", "r", 1,
                  {"text": "plain", "A01": "two\nlines", "A02": " padded "})
    rendered = render_blocks([block])
    assert "A01 = <<<" in rendered
    assert "A02 = <<<" in rendered
    assert parse_blocks(rendered)[0].fields["A02"] == " padded "


def test_render_empty_value():
    block = Block("requirement", "r", 1, {"text": ""})
    rendered = render_blocks([block])
    assert "text =" in rendered
    assert parse_blocks(rendered)[0].fields["text"] == ""


def test_render_rejects_fence_terminator_in_value():
    block = Block("requirement", "r", 1, {"A01": "a\n>>>\nb"})
    with pytest.raises(CorpusValidationError):
        render_blocks([block])


@pytest.mark.parametrize("value", ["run within 1 s.\r", "two\r\nlines", " a\rb\r"])
def test_render_rejects_carriage_return_at_line_end(value):
    # the reader drops it, so the value would not survive a round trip
    block = Block("requirement", "r", 1, {"text": value})
    with pytest.raises(CorpusValidationError, match="'text' has a line ending in a carriage"):
        render_blocks([block])


def test_render_keeps_carriage_return_inside_a_line():
    block = Block("requirement", "r", 1, {"text": "a\rb"})
    assert parse_blocks(render_blocks([block]))[0].fields["text"] == "a\rb"


# --- seeded equivalence with the reference reader ---

_REFERENCE_HEADER = re.compile(r"^\[([a-z]+) ([^\]\s]+)\]$")


def reference_parse_blocks(text):
    """The reader as first written; parse_blocks must agree with it on every
    input, errors included."""
    blocks = []
    current = None
    fence_key = None
    fence_lines = []
    fence_start = 0

    lines = text.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw[:-1] if raw.endswith("\r") else raw

        if fence_key is not None:
            if line == ">>>":
                current.fields[fence_key] = "\n".join(fence_lines)
                current.field_lines[fence_key] = fence_start
                fence_key = None
                fence_lines = []
            else:
                fence_lines.append(line)
            continue

        stripped = line.strip()
        if not stripped:
            current = None
            continue
        if stripped.startswith("#"):
            continue

        if stripped.startswith("["):
            m = _REFERENCE_HEADER.match(stripped)
            if not m:
                raise CorpusSyntaxError(f"malformed block header: {stripped!r}", lineno)
            if current is not None:
                raise CorpusSyntaxError("block header without preceding blank line", lineno)
            current = Block(kind=m.group(1), ident=m.group(2), line=lineno)
            blocks.append(current)
            continue

        if current is None:
            raise CorpusSyntaxError(f"body line outside any block: {stripped!r}", lineno)
        if "=" not in line:
            raise CorpusSyntaxError(f"expected 'key = value': {stripped!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise CorpusSyntaxError("empty key", lineno)
        if key in current.fields:
            raise CorpusSyntaxError(f"duplicate key {key!r} in block [{current.kind} {current.ident}]", lineno)
        if value == "<<<":
            fence_key = key
            fence_start = lineno
            fence_lines = []
        else:
            current.fields[key] = value
            current.field_lines[key] = lineno
    if fence_key is not None:
        raise CorpusSyntaxError(f"unterminated fence for key {fence_key!r}", fence_start)
    return blocks


_HEADERS = ("[element a]", "[requirement R-1]", "[set S]", " [term t] ")
_BAD_HEADERS = ("[Element a]", "[element]", "[x y z]", "[ bad")
_FIELDS = ("name = A", "name = B", "text = The A shall run.", " key=value ", "a = b = c",
           "name =", "k = v\r", "= empty key", "novalue", "A01 = <<<", "x = <<< ")
_NOISE = ("", " ", "\t", "# note", "  # indented note", "<<<", ">>>", " >>>", "\r",
          "line one", "# [element a]") + _HEADERS + _BAD_HEADERS + _FIELDS


def _block_text(rng):
    """Mostly well-formed blocks, with fences, plus a few lines anywhere."""
    lines = []
    for _ in range(rng.randrange(0, 5)):
        if rng.random() < 0.3:
            lines.append("# note")
        lines.append(rng.choice(_HEADERS))
        for _ in range(rng.randrange(0, 5)):
            lines.append(rng.choice(_FIELDS))
            if lines[-1].rstrip().endswith("<<<"):
                lines += [rng.choice(_NOISE) for _ in range(rng.randrange(0, 3))]
                if rng.random() < 0.9:
                    lines.append(">>>")
        lines.append(rng.choice(("", " ", "\t")))
    for _ in range(rng.randrange(0, 3)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_NOISE))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))


def _outcome(parse, text):
    try:
        return [(b.kind, b.ident, b.line, b.fields, b.field_lines) for b in parse(text)]
    except CorpusSyntaxError as exc:
        return type(exc), str(exc), exc.line


@pytest.mark.parametrize("seed", [5, 23, 2026])
def test_parse_blocks_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(2000):
        text = _block_text(rng)
        assert _outcome(parse_blocks, text) == _outcome(reference_parse_blocks, text), \
            repr(text)
