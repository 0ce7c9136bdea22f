"""Line-oriented block file reader and writer.

The on-disk shape shared by corpus files and catalog overrides: UTF-8 text,
LF line endings, `[kind ident]` headers, `key = value` body lines, `<<<`/`>>>`
fences for multi-line values, `#` comment lines, and a blank line closing each
block. A list value separates its items with commas. This module only
tokenizes; meaning is assigned by the callers.
"""

from __future__ import annotations

import re

from .errors import CorpusSyntaxError, CorpusValidationError
from .records import Record

_HEADER_RE = re.compile(r"^\[([a-z]+) ([^\]\s]+)\]$")

FENCE_OPEN = "<<<"
FENCE_CLOSE = ">>>"


class Block(Record):
    __slots__ = _fields = ("kind", "ident", "line", "fields", "field_lines")

    def __init__(self, kind: str, ident: str, line: int, fields: dict[str, str] | None = None,
                 field_lines: dict[str, int] | None = None):
        self.kind, self.ident = kind, ident
        self.line = line  # 1-based line of the header
        self.fields = {} if fields is None else fields
        self.field_lines = {} if field_lines is None else field_lines


def parse_blocks(text: str) -> list[Block]:
    """Tokenize block-file text; raises CorpusSyntaxError with a line number."""
    blocks: list[Block] = []
    current: Block | None = None
    fence_key: str | None = None
    fence_lines: list[str] = []
    fence_start = 0

    lines = text.split("\n")
    if "\r" in text:
        lines = [raw[:-1] if raw.endswith("\r") else raw for raw in lines]
    for lineno, line in enumerate(lines, start=1):
        if fence_key is not None:
            if line == FENCE_CLOSE:
                assert current is not None
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
        lead = stripped[0]
        if lead == "#":
            continue

        if lead == "[":
            m = _HEADER_RE.match(stripped)
            if not m:
                raise CorpusSyntaxError(f"malformed block header: {stripped!r}", lineno)
            if current is not None:
                raise CorpusSyntaxError("block header without preceding blank line", lineno)
            current = Block(kind=m.group(1), ident=m.group(2), line=lineno)
            blocks.append(current)
            continue

        if current is None:
            raise CorpusSyntaxError(f"body line outside any block: {stripped!r}", lineno)
        key, eq, value = line.partition("=")
        if not eq:
            raise CorpusSyntaxError(f"expected 'key = value': {stripped!r}", lineno)
        key = key.strip()
        if not key:
            raise CorpusSyntaxError("empty key", lineno)
        if key in current.fields:
            raise CorpusSyntaxError(f"duplicate key {key!r} in block [{current.kind} {current.ident}]", lineno)
        value = value.strip()
        if value == FENCE_OPEN:
            fence_key = key
            fence_start = lineno
            fence_lines = []
        else:
            current.fields[key] = value
            current.field_lines[key] = lineno
    if fence_key is not None:
        raise CorpusSyntaxError(f"unterminated fence for key {fence_key!r}", fence_start)
    return blocks


def split_list(value: str) -> tuple[str, ...]:
    """The items of a comma-separated list value, stripped; empty items drop."""
    return tuple(item.strip() for item in value.split(",") if item.strip())


def _write_value(out: list[str], key: str, value: str) -> None:
    needs_fence = "\n" in value or value != value.strip() or value == FENCE_OPEN
    if needs_fence:
        for vline in value.split("\n"):
            if vline == FENCE_CLOSE:
                raise CorpusValidationError(
                    f"value of {key!r} contains a fence terminator line and cannot be serialized")
            # parse_blocks drops a carriage return at a line end
            if vline.endswith("\r"):
                raise CorpusValidationError(
                    f"value of {key!r} has a line ending in a carriage return and cannot be serialized")
        out.append(f"{key} = {FENCE_OPEN}")
        out.extend(value.split("\n"))
        out.append(FENCE_CLOSE)
    else:
        out.append(f"{key} = {value}" if value else f"{key} =")


def render_blocks(blocks: list[Block]) -> str:
    """Serialize blocks in the given order; fields keep their dict order."""
    out: list[str] = []
    for block in blocks:
        if out:
            out.append("")
        out.append(f"[{block.kind} {block.ident}]")
        for key, value in block.fields.items():
            _write_value(out, key, value)
    out.append("")
    return "\n".join(out)
