"""Defined terms with synonyms, definition sources, and element allocations.

annotate() marks defined-term spans in statement text for report underlining;
find_undefined() flags identifier-shaped tokens that lack a definition.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .errors import DuplicateIdError, UnknownIdError
from .records import Record
from .textscan import tokenize

_WORD_CHARS = re.compile(r"[A-Za-z0-9_]")
# lower-to-upper case change inside a token, e.g. FlightComputer
_INTERCAP = re.compile(r"[a-z][A-Z]")
_LEADING_PUNCT = "\"'([{<"


class GlossaryTerm(Record):
    __slots__ = _fields = ("term", "synonyms", "definition", "source", "allocations")

    def __init__(self, term: str, synonyms: tuple[str, ...] = (), definition: str = "",
                 source: str = "", allocations: tuple[str, ...] = ()):
        self.term, self.synonyms, self.allocations = term, synonyms, allocations
        self.definition, self.source = definition, source


class Glossary(Record):
    _fields = ("case_insensitive", "_terms")
    __slots__ = (*_fields, "_by_name", "_by_folded")

    def __init__(self, case_insensitive: bool = False,
                 _terms: dict[str, GlossaryTerm] | None = None):
        self.case_insensitive = case_insensitive
        self._terms = {} if _terms is None else _terms
        # every term name and synonym -> its term, as written and lower-cased;
        # on a lower-cased collision the term added first keeps the name
        self._by_name: dict[str, GlossaryTerm] = {}
        self._by_folded: dict[str, GlossaryTerm] = {}
        for term in self._terms.values():
            self._index(term)

    def _index(self, term: GlossaryTerm) -> None:
        for name in (term.term, *term.synonyms):
            self._by_name[name] = term
            self._by_folded.setdefault(name.lower(), term)

    def add_term(self, term: GlossaryTerm) -> None:
        names = {term.term, *term.synonyms}
        if not names.isdisjoint(self._by_name):
            for existing in self._terms.values():
                clash = names & {existing.term, *existing.synonyms}
                if clash:
                    raise DuplicateIdError(
                        f"glossary name(s) {sorted(clash)} already used by term {existing.term!r}")
        if len(names) != 1 + len(term.synonyms):
            raise DuplicateIdError(f"term {term.term!r} collides with its own synonyms")
        self._terms[term.term] = term
        self._index(term)

    def terms(self) -> list[GlossaryTerm]:
        return sorted(self._terms.values(), key=lambda t: t.term)

    def get(self, term: str) -> GlossaryTerm:
        try:
            return self._terms[term]
        except KeyError:
            raise UnknownIdError(f"unknown glossary term {term!r}") from None

    def __len__(self) -> int:
        return len(self._terms)

    def resolve(self, name: str) -> GlossaryTerm | None:
        """Look up a term by its own name or any synonym."""
        if self.case_insensitive:
            return self._by_folded.get(name.lower())
        return self._by_name.get(name)


def _word_bounded(text: str, start: int, end: int) -> bool:
    if start > 0 and _WORD_CHARS.match(text[start - 1]):
        return False
    if end < len(text) and _WORD_CHARS.match(text[end]):
        return False
    return True


def annotate(text: str, glossary: Glossary) -> list[tuple[int, int, str]]:
    """Longest-match, word-bounded, non-overlapping term spans.

    Synonym hits annotate to their canonical term name.
    """
    haystack = text.lower() if glossary.case_insensitive else text
    # lower() lengthens a few characters ("\u0130" -> "i\u0307"); then a match
    # maps back to the text only from offsets where a text character starts
    to_text = None
    if len(haystack) != len(text):
        to_text = {at: i for i, at in enumerate(accumulate(map(len, map(str.lower, text)), initial=0))}
    candidates: list[tuple[int, int, str]] = []
    # every name once: add_term rejects a name that is already taken
    for name, term in glossary._by_name.items():
        needle = name.lower() if glossary.case_insensitive else name
        if not needle:
            continue
        pos = haystack.find(needle)
        while pos != -1:
            end = pos + len(needle)
            span = (pos, end) if to_text is None else (to_text.get(pos, -1), to_text.get(end, -1))
            if min(span) >= 0 and _word_bounded(text, *span):
                candidates.append((*span, term.term))
            pos = haystack.find(needle, pos + 1)
    # leftmost first; longer span wins at equal starts; term name breaks ties
    candidates.sort(key=lambda c: (c[0], -(c[1] - c[0]), c[2]))
    spans: list[tuple[int, int, str]] = []
    cursor = 0
    for start, end, name in candidates:
        if start >= cursor:
            spans.append((start, end, name))
            cursor = end
    return spans


def find_undefined(text: str, glossary: Glossary,
                   element_names: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Identifier-shaped tokens with no definition, in first-appearance order.

    A candidate contains an underscore or an interior lower-to-upper case
    change; known glossary names and model element names are excluded.
    """
    if glossary.case_insensitive:
        element_names = {name.lower() for name in element_names}
    seen: set[str] = set()
    out: list[str] = []
    for token in tokenize(text):
        word = token.text.lstrip(_LEADING_PUNCT)
        if "_" not in word and not _INTERCAP.search(word):
            continue
        key = word.lower() if glossary.case_insensitive else word
        if word in seen or key in element_names or glossary.resolve(word) is not None:
            continue
        seen.add(word)
        out.append(word)
    return out

