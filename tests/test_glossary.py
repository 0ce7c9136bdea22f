"""Glossary terms, annotation spans and undefined-token detection."""

import json
import random

import pytest

from mbsr import (
    DuplicateIdError,
    Glossary,
    GlossaryTerm,
    annotate,
    find_undefined,
)
from mbsr.errors import UnknownIdError
from mbsr.glossary import (
    _INTERCAP,
    _LEADING_PUNCT,
    _word_bounded,
)
from mbsr.textscan import tokenize
from tests.conftest import FIXTURES_DIR

UNDEFINED = json.loads((FIXTURES_DIR / "undefined_tokens.json").read_text())


def fixture_glossary():
    glossary = Glossary()
    synonyms = UNDEFINED["synonyms"]
    for name in UNDEFINED["glossary_terms"]:
        syns = tuple(s for s, canon in synonyms.items() if canon == name)
        glossary.add_term(GlossaryTerm(name, synonyms=syns, definition="d"))
    return glossary


def test_add_get_resolve():
    glossary = Glossary()
    glossary.add_term(GlossaryTerm("Spacecraft", synonyms=("SC",),
                                   definition="the flight system"))
    assert glossary.get("Spacecraft").definition == "the flight system"
    assert glossary.resolve("SC").term == "Spacecraft"
    assert glossary.resolve("Rover") is None
    with pytest.raises(UnknownIdError):
        glossary.get("SC")  # get() is by canonical name only
    assert len(glossary) == 1


def test_name_collisions_rejected():
    glossary = Glossary()
    glossary.add_term(GlossaryTerm("Spacecraft", synonyms=("SC",)))
    with pytest.raises(DuplicateIdError):
        glossary.add_term(GlossaryTerm("SC"))
    with pytest.raises(DuplicateIdError):
        glossary.add_term(GlossaryTerm("Lander", synonyms=("Spacecraft",)))
    with pytest.raises(DuplicateIdError):
        glossary.add_term(GlossaryTerm("Probe", synonyms=("Probe",)))


def test_case_insensitive_resolution():
    glossary = Glossary(case_insensitive=True)
    glossary.add_term(GlossaryTerm("Spacecraft"))
    assert glossary.resolve("SPACECRAFT").term == "Spacecraft"
    strict = Glossary()
    strict.add_term(GlossaryTerm("Spacecraft"))
    assert strict.resolve("SPACECRAFT") is None


class ScanGlossary:
    """Term storage and lookup as first written, by a scan over every term;
    Glossary must add, reject and resolve exactly as it does."""

    def __init__(self, case_insensitive):
        self.case_insensitive = case_insensitive
        self._terms = {}

    def add_term(self, term):
        names = {term.term, *term.synonyms}
        for existing in self._terms.values():
            taken = {existing.term, *existing.synonyms}
            clash = names & taken
            if clash:
                raise DuplicateIdError(
                    f"glossary name(s) {sorted(clash)} already used by term {existing.term!r}")
        if len(names) != 1 + len(term.synonyms):
            raise DuplicateIdError(f"term {term.term!r} collides with its own synonyms")
        self._terms[term.term] = term

    def resolve(self, name):
        fold = (lambda s: s.lower()) if self.case_insensitive else (lambda s: s)
        wanted = fold(name)
        for term in self._terms.values():
            if fold(term.term) == wanted:
                return term
            if any(fold(s) == wanted for s in term.synonyms):
                return term
        return None


def scan_annotate(text, glossary):
    """annotate by brute force: each word-bounded window of the text whose
    lower-cased form (when the glossary folds case) equals that of a name of
    some term, by a scan over glossary.terms()."""
    fold = (lambda s: s.lower()) if glossary.case_insensitive else (lambda s: s)
    windows = {}
    for start in range(len(text)):
        for end in range(start + 1, len(text) + 1):
            if _word_bounded(text, start, end):
                windows.setdefault(fold(text[start:end]), []).append((start, end))
    candidates = [(start, end, term.term)
                  for term in glossary.terms() for name in (term.term, *term.synonyms)
                  for start, end in windows.get(fold(name), ())]
    candidates.sort(key=lambda c: (c[0], -(c[1] - c[0]), c[2]))
    spans, cursor = [], 0
    for start, end, name in candidates:
        if start >= cursor:
            spans.append((start, end, name))
            cursor = end
    return spans


def scan_find_undefined(text, glossary, element_names):
    """find_undefined as first written: the set of every defined name,
    rebuilt from glossary.terms() on each call."""
    fold = (lambda s: s.lower()) if glossary.case_insensitive else (lambda s: s)
    defined = set(element_names)
    for term in glossary.terms():
        defined.update((term.term, *term.synonyms))
    defined = {fold(d) for d in defined}
    out = []
    for token in tokenize(text):
        word = token.text.lstrip(_LEADING_PUNCT)
        if ("_" in word or _INTERCAP.search(word)) and fold(word) not in defined \
                and word not in out:
            out.append(word)
    return out


# few letters in mixed case, so names often collide once lower-cased
_NAME_PARTS = ("a", "A", "b", "B", "_", "\u0130")
_SEPARATORS = (" ", " ", ". ", ", ", "-", "(", "\"", "")


@pytest.mark.parametrize("case_insensitive", [False, True])
@pytest.mark.parametrize("seed", [2, 31])
def test_resolve_matches_a_scan_of_every_term(seed, case_insensitive):
    rng = random.Random(seed)

    def name():
        return "".join(rng.choice(_NAME_PARTS) for _ in range(rng.randrange(1, 4)))

    for _ in range(40):
        glossary = Glossary(case_insensitive=case_insensitive)
        reference = ScanGlossary(case_insensitive)
        for _ in range(rng.randrange(1, 12)):
            term = GlossaryTerm(name(), synonyms=tuple(name() for _ in range(rng.randrange(3))))
            outcomes = []
            for target in (glossary, reference):
                try:
                    target.add_term(term)
                    outcomes.append(None)
                except DuplicateIdError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        assert len(glossary) == len(reference._terms)
        for _ in range(30):
            query = name()
            assert glossary.resolve(query) is reference.resolve(query), query
        elements = {name() for _ in range(rng.randrange(3))}
        for _ in range(10):
            text = "".join(name() + rng.choice(_SEPARATORS) for _ in range(rng.randrange(1, 9)))
            assert annotate(text, glossary) == scan_annotate(text, glossary), text
            assert find_undefined(text, glossary, elements) == \
                scan_find_undefined(text, glossary, elements), text


def test_case_insensitive_collision_resolves_to_the_first_term():
    glossary = Glossary(case_insensitive=True)
    glossary.add_term(GlossaryTerm("Rover", synonyms=("RV",)))
    glossary.add_term(GlossaryTerm("rover"))
    glossary.add_term(GlossaryTerm("Lander", synonyms=("rv",)))
    assert glossary.resolve("ROVER").term == "Rover"
    assert glossary.resolve("rover").term == "Rover"
    assert glossary.resolve("rv").term == "Rover"


def test_annotate_spans_match_text():
    glossary = fixture_glossary()
    text = ("The Spacecraft shall collect Asteroid_A_Regolith in "
            "Sample_Collection mode.")
    glossary.add_term(GlossaryTerm("Spacecraft"))
    spans = annotate(text, glossary)
    names = [name for _, _, name in spans]
    assert names == ["Spacecraft", "Asteroid_A_Regolith", "Sample_Collection"]
    for start, end, name in spans:
        assert text[start:end] in (name, "SC_Mode")


def test_annotate_prefers_longest_match():
    glossary = Glossary()
    glossary.add_term(GlossaryTerm("Sample"))
    glossary.add_term(GlossaryTerm("Sample_Collection"))
    spans = annotate("Sample_Collection begins.", glossary)
    assert spans == [(0, 17, "Sample_Collection")]


def test_annotate_is_word_bounded():
    glossary = Glossary()
    glossary.add_term(GlossaryTerm("Arm"))
    assert annotate("Army Armchair Disarm", glossary) == []
    assert annotate("The Arm moves.", glossary) == [(4, 7, "Arm")]


def test_annotate_case_insensitive_spans_index_the_text():
    """Lower-casing "\u0130" gives two characters, so offsets in the
    lower-cased text run ahead of the text's own; spans index the text."""
    glossary = Glossary(case_insensitive=True)
    glossary.add_term(GlossaryTerm("Rover", synonyms=("\u0130",)))
    text = "x\u0130 rover \u0130."
    assert annotate(text, glossary) == [(3, 8, "Rover"), (9, 10, "Rover")]


def test_annotate_maps_synonyms_to_canonical_name():
    glossary = fixture_glossary()
    spans = annotate("Enter SC_Mode now.", glossary)
    assert spans == [(6, 13, "Sample_Collection")]


@pytest.mark.parametrize("case", UNDEFINED["cases"],
                         ids=[c["text"][:25] for c in UNDEFINED["cases"]])
def test_undefined_tokens_fixture(case):
    glossary = fixture_glossary()
    names = frozenset(UNDEFINED["known_element_names"])
    assert find_undefined(case["text"], glossary, names) == case["expected"]
