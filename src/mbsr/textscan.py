"""Tokenization shared by the statement parser, rule checkers, and glossary.

Whitespace-split tokens with trailing punctuation stripped per token;
underscore compounds stay single tokens. Spans index the original string.
"""

from __future__ import annotations

import re
from typing import NamedTuple

_TOKEN_RE = re.compile(r"\S+")
_TRAILING_PUNCT = ".,;:!?"


class Token(NamedTuple):
    text: str    # token with trailing punctuation stripped
    start: int   # offset of text start in the source string
    end: int     # offset just past the stripped text
    raw_end: int # offset just past the raw token (including stripped punctuation)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        raw = m.group(0)
        stripped = raw.rstrip(_TRAILING_PUNCT)
        if not stripped:
            continue
        tokens.append(Token(stripped, m.start(), m.start() + len(stripped), m.end()))
    return tokens
