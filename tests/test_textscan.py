"""Tokenizer: seeded equivalence with the plain-constructor reference."""

import random
import re

import pytest

from mbsr.textscan import Token, tokenize

_RAW_TOKEN = re.compile(r"\S+")


def reference_tokenize(text):
    """The tokenizer as first written; tokenize must return the same tokens."""
    tokens = []
    for m in _RAW_TOKEN.finditer(text):
        raw = m.group(0)
        stripped = raw.rstrip(".,;:!?")
        if not stripped:
            continue
        tokens.append(Token(stripped, m.start(), m.start() + len(stripped)))
    return tokens


# letters, digits, every stripped punctuation mark, other punctuation, ASCII
# and Unicode whitespace, non-ASCII letters
_ALPHABET = ("a", "Z", "7", "_", "shall", ".", ",", ";", ":", "!", "?", "'", "(", ")",
             "-", " ", "  ", "\t", "\n", "\r", "\x0b", "\u00a0", "\u2003", "\u3000",
             "\u00e9", "\u0130", "\u00df")


@pytest.mark.parametrize("seed", [3, 41, 2026])
def test_tokenize_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(3000):
        text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(0, 30)))
        tokens = tokenize(text)
        assert tokens == reference_tokenize(text), repr(text)
        assert all(type(t) is Token for t in tokens)

