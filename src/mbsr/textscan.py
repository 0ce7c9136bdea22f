"""Tokenization shared by the statement parser, rule checkers, and glossary.

Whitespace-split tokens with trailing punctuation stripped per token;
underscore compounds stay single tokens. Spans index the original string.
"""

from __future__ import annotations

import re
from typing import NamedTuple

_TOKEN_RE = re.compile(r"\S+")
_TRAILING_PUNCT = ".,;:!?"
# Token(...) goes through a Python-level __new__; tuple.__new__ builds the same
# Token without that call, and tokenize runs on every checked text
_new_token = tuple.__new__


class Token(NamedTuple):
    text: str    # token with trailing punctuation stripped
    start: int   # offset of text start in the source string
    end: int     # offset just past the stripped text


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        stripped = m[0].rstrip(_TRAILING_PUNCT)
        if stripped:
            start = m.start()
            tokens.append(_new_token(Token, (stripped, start, start + len(stripped))))
    return tokens
