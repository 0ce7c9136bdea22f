"""Decompose "shall" statements into pattern slots; render slots back to text.

Detection is positional, not grammatical: a leading condition keyword with a
comma before "shall" selects the five-slot form; a trailing "under <condition>"
after the constraint selects the Carson form; anything else is the three-slot
form. The token after "shall" is taken as the action head. No marker is ever
guessed: a missing mandatory region raises EmptySlot instead.

The decomposition itself (`_decompose`) works on a tokenized text and builds
no statement, so the R1 checker can reuse the tokens every rule reads;
`parse_statement` adds the diagnostics and the statement on top of it.
Marker lexicons are pre-split once per distinct lexicon tuple.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .catalog import PATTERNS, default_catalog
from .errors import EmptySlotError, NoShallKeywordError
from .model import SlotValue, StructuredStatement
from .records import Record
from .textscan import _TOKEN_RE, Token, tokenize

if TYPE_CHECKING:
    from .catalog import Catalog
    from .glossary import Glossary

ARTICLES = ("The", "the", "A", "An")

Span = tuple[int, int]


class ParseDiagnostics(Record):
    __slots__ = _fields = ("matched_pattern", "shall_count", "unconsumed", "slot_spans")

    def __init__(self, matched_pattern: str | None = None, shall_count: int = 0,
                 unconsumed: list[Span] | None = None,
                 slot_spans: dict[str, Span] | None = None):
        self.matched_pattern, self.shall_count = matched_pattern, shall_count
        self.unconsumed = [] if unconsumed is None else unconsumed
        self.slot_spans = {} if slot_spans is None else slot_spans


@cache
def _marker_sequences(lexicon: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Lower-cased marker word sequences, longest first; one entry per lexicon."""
    seqs = [tuple(m.lower().split()) for m in lexicon if m.strip()]
    seqs.sort(key=len, reverse=True)
    return tuple(seqs)


@cache
def _word_set(lexicon: tuple[str, ...]) -> frozenset[str]:
    return frozenset(w.lower() for w in lexicon)


def _find_marker(lower: list[str], start: int,
                 sequences: tuple[tuple[str, ...], ...]) -> tuple[int, int] | None:
    """First (index, length-in-tokens) marker match at or after start."""
    for k in range(start, len(lower)):
        word = lower[k]
        for seq in sequences:
            if seq[0] == word and tuple(lower[k:k + len(seq)]) == seq:
                return k, len(seq)
    return None


def _span_of(tokens: list[Token], first: int, last: int) -> Span:
    return tokens[first].start, tokens[last].end


def _bind(slot_text: str, glossary: Glossary | None) -> str | None:
    if glossary is None:
        return None
    term = glossary.resolve(slot_text)
    if term is not None and len(term.allocations) == 1:
        return term.allocations[0]
    return None


def _uncovered(text: str, covered: list[Span]) -> list[Span]:
    """Runs of non-space text outside every covered span, in text order."""
    out: list[Span] = []
    pos = 0
    for start, end in sorted(covered):
        if start < end:  # an empty span covers nothing and must not split a run
            out.extend(m.span() for m in _TOKEN_RE.finditer(text, pos, start))
            pos = max(pos, end)
    out.extend(m.span() for m in _TOKEN_RE.finditer(text, pos))
    return out


@cache
def _default_catalog() -> Catalog:
    """Built once; never handed out, and only its patterns are read."""
    return default_catalog()


class _Decomposition(NamedTuple):
    pattern: str
    shall_idxs: list[int]           # token indexes of every 'shall'
    slot_spans: dict[str, Span]
    connectives: list[Span]         # articles, commas, 'shall', 'under', final period


def _decompose(text: str, tokens: list[Token], lower: list[str],
               catalog: Catalog) -> _Decomposition:
    """Pattern, slot spans and connective spans of a tokenized text.

    lower holds each token's text lower-cased. Raises NoShallKeyword or
    EmptySlot when the text does not decompose.
    """
    shall_idxs = [i for i, word in enumerate(lower) if word == "shall"]
    if not shall_idxs:
        raise NoShallKeywordError(f"no 'shall' keyword in {text!r}")
    shall = shall_idxs[0]

    connectives: list[Span] = []
    slot_spans: dict[str, Span] = {}

    # five-slot form: leading condition keyword, comma before the first shall
    iso2 = False
    region_start = 0
    if lower[0] in _word_set(catalog.patterns["Iso2"].connective_words["SR1"]):
        comma_pos = text.find(",")
        if 0 <= comma_pos < tokens[shall].start:
            cond_last = -1
            for i in range(shall):
                if tokens[i].end <= comma_pos:
                    cond_last = i
            if cond_last >= 0:
                iso2 = True
                slot_spans["SR1"] = _span_of(tokens, 0, cond_last)
                connectives.append((comma_pos, comma_pos + 1))
                region_start = cond_last + 1

    # subject region, one leading article stripped
    if region_start < shall and tokens[region_start].text in ARTICLES:
        art = tokens[region_start]
        connectives.append((art.start, art.end))
        region_start += 1
    if region_start >= shall:
        raise EmptySlotError("SR2")
    slot_spans["SR2"] = _span_of(tokens, region_start, shall - 1)
    connectives.append((tokens[shall].start, tokens[shall].end))

    action = shall + 1
    if action >= len(tokens):
        raise EmptySlotError("SR3")

    scan_pattern = "Iso2" if iso2 else "Iso1"
    sequences = _marker_sequences(catalog.patterns[scan_pattern].connective_words["SR5"])
    found = _find_marker(lower, action + 1, sequences)
    if found is None:
        raise EmptySlotError("SR5")
    marker, marker_len = found

    pattern: str
    if iso2:
        pattern = "Iso2"
        if marker == action + 1:
            raise EmptySlotError("SR4")
        slot_spans["SR3"] = _span_of(tokens, action, action)
        slot_spans["SR4"] = _span_of(tokens, action + 1, marker - 1)
        slot_spans["SR5"] = _span_of(tokens, marker, len(tokens) - 1)
    else:
        carson_words = _word_set(catalog.patterns["Carson"].connective_words["SR1"])
        trailing = None
        for u in range(marker + marker_len, len(tokens) - 1):
            if lower[u] in carson_words:
                trailing = u
        if trailing is not None:
            pattern = "Carson"
            slot_spans["SR3"] = _span_of(tokens, action, marker - 1)
            slot_spans["SR5"] = _span_of(tokens, marker, trailing - 1)
            kw = tokens[trailing]
            connectives.append((kw.start, kw.end))
            slot_spans["SR1"] = _span_of(tokens, trailing + 1, len(tokens) - 1)
        else:
            pattern = "Iso1"
            slot_spans["SR3"] = _span_of(tokens, action, marker - 1)
            slot_spans["SR5"] = _span_of(tokens, marker, len(tokens) - 1)

    stripped = text.rstrip()
    if stripped.endswith("."):
        connectives.append((len(stripped) - 1, len(stripped)))
    return _Decomposition(pattern, shall_idxs, slot_spans, connectives)


def parse_statement(text: str, glossary: Glossary | None = None,
                    catalog: Catalog | None = None
                    ) -> tuple[StructuredStatement, ParseDiagnostics]:
    if catalog is None:
        catalog = _default_catalog()
    tokens = tokenize(text)
    parts = _decompose(text, tokens, [t.text.lower() for t in tokens], catalog)

    slot_spans = parts.slot_spans
    covered = list(slot_spans.values()) + parts.connectives
    diag = ParseDiagnostics(
        matched_pattern=parts.pattern,
        shall_count=len(parts.shall_idxs),
        unconsumed=_uncovered(text, covered),
        slot_spans={key: slot_spans[key]
                    for key in catalog.patterns[parts.pattern].slot_order},
    )

    values: dict[str, SlotValue] = {}
    for key, span in slot_spans.items():
        fragment = text[span[0]:span[1]]
        values[key] = SlotValue(fragment, _bind(fragment, glossary))
    return StructuredStatement(parts.pattern, values), diag


def render_statement(statement: StructuredStatement) -> str:
    """Derived text from slots; the statement's pattern picks the template."""
    return PATTERNS[statement.pattern].template.format_map(
        {key: slot.text for key, slot in statement.slots().items() if slot is not None})


def count_shall(text: str) -> int:
    """Word-bounded 'shall' occurrences; R1 reads them from _decompose instead."""
    return sum(1 for t in tokenize(text) if t.text.lower() == "shall")
