from __future__ import annotations

import pytest

from crashdeid.corpus import Narrative
from crashdeid.extract import Candidate, CandidateSet, SOURCE_LLM_SINGLE, SOURCE_RULE
from crashdeid.redact import (
    PLACEHOLDERS,
    RedactionStyle,
    render,
)
from crashdeid.tags import (
    PiiCategory,
    TagError,
    contains_delimiter_sequence,
    detag_equals,
    parse_tagged,
)

NAME = PiiCategory.NAME
PHONE = PiiCategory.PHONE

TAGGED = RedactionStyle(mode="tagged")
PLACEHOLDER = RedactionStyle(mode="placeholder")


def _set(narrative_id: str, **by_cat) -> CandidateSet:
    mapping = {}
    for key, surfaces in by_cat.items():
        category = PiiCategory(key)
        source = SOURCE_RULE if category in (PiiCategory.PHONE, PiiCategory.EMAIL) else SOURCE_LLM_SINGLE
        mapping[category] = tuple(Candidate(s, source) for s in surfaces)
    return CandidateSet(narrative_id=narrative_id, by_category=mapping)


def test_tagged_single_name():
    narrative = Narrative("n1", "DRIVER JOHN SMITH FLED")
    out = render(narrative, _set("n1", name=["JOHN SMITH"]), TAGGED)
    assert out == "DRIVER @@@JOHN SMITH@@@ FLED"


def test_empty_set_returns_input_unchanged():
    narrative = Narrative("n1", "NOTHING TO SEE")
    assert render(narrative, _set("n1"), TAGGED) == narrative.text
    assert render(narrative, _set("n1"), PLACEHOLDER) == narrative.text


def test_placeholder_mode_substitutes():
    narrative = Narrative("n1", "CALL 608-733-8366 FOR JOHN")
    out = render(
        narrative, _set("n1", phone=["608-733-8366"], name=["JOHN"]), PLACEHOLDER
    )
    assert out == "CALL [PHONE] FOR [NAME]"


def test_all_occurrences_are_redacted():
    narrative = Narrative("n1", "JOHN MET JOHN NEAR JOHN'S CAR")
    out = render(narrative, _set("n1", name=["JOHN"]), TAGGED)
    assert out == "@@@JOHN@@@ MET @@@JOHN@@@ NEAR @@@JOHN@@@'S CAR"


def test_longest_first_no_nested_tags():
    narrative = Narrative("n1", "DRIVER JOHN SMITH AND SMITH AGAIN")
    out = render(narrative, _set("n1", name=["JOHN SMITH", "SMITH"]), TAGGED)
    assert out == "DRIVER @@@JOHN SMITH@@@ AND @@@SMITH@@@ AGAIN"
    clean, spans = parse_tagged(out)
    assert clean == narrative.text
    assert [s.surface for s in spans] == ["JOHN SMITH", "SMITH"]


def test_partial_overlap_earlier_longer_wins():
    narrative = Narrative("n1", "ABC")
    out = render(narrative, _set("n1", name=["AB"], alphanumeric=["BC"]), TAGGED)
    assert out == "@@@AB@@@C"


def test_surface_not_found():
    narrative = Narrative("n1", "SOME TEXT")
    with pytest.raises(ValueError) as err:
        render(narrative, _set("n1", name=["ABSENT"]), TAGGED)
    assert str(err.value) == "a name candidate is not found in narrative 'n1'"
    assert "ABSENT" not in str(err.value)


def test_tagged_output_round_trips():
    narrative = Narrative(
        "n1", "CALL 608-733-8366 FOR JOHN SMITH AT 123 ELM ST, PLATE AB1234"
    )
    final = _set(
        "n1",
        phone=["608-733-8366"],
        name=["JOHN SMITH"],
        home_address=["123 ELM ST"],
        alphanumeric=["AB1234"],
    )
    out = render(narrative, final, TAGGED)
    assert detag_equals(out, narrative.text)
    clean, spans = parse_tagged(out)
    assert clean == narrative.text
    assert {(s.category, s.surface) for s in spans} == {
        (PHONE, "608-733-8366"),
        (NAME, "JOHN SMITH"),
        (PiiCategory.HOME_ADDRESS, "123 ELM ST"),
        (PiiCategory.ALPHANUMERIC, "AB1234"),
    }


def test_placeholder_mode_is_idempotent():
    narrative = Narrative("n1", "CALL 608-733-8366")
    final = _set("n1", phone=["608-733-8366"])
    once = render(narrative, final, PLACEHOLDER)
    again = render(Narrative("n1", once), _set("n1"), PLACEHOLDER)
    assert once == again == "CALL [PHONE]"


def test_tagged_mode_refuses_delimiter_collision():
    # "@@" next to a span boundary would merge with the inserted tag.
    narrative = Narrative("n1", "ODD @@TEXT HERE")
    with pytest.raises(TagError):
        render(narrative, _set("n1", name=["TEXT"]), TAGGED)


def test_placeholder_mode_handles_delimiter_text():
    narrative = Narrative("n1", "ODD @@TEXT HERE")
    out = render(narrative, _set("n1", name=["TEXT"]), PLACEHOLDER)
    assert out == "ODD @@[NAME] HERE"


def test_randomized_collisions_never_nest():
    import random

    rng = random.Random(99)
    alphabet = "ABCDE "
    categories = list(PiiCategory)
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        surfaces = set()
        for _ in range(rng.randint(0, 4)):
            i = rng.randrange(len(text))
            j = rng.randint(i + 1, min(len(text), i + 6))
            piece = text[i:j]
            if piece.strip():
                surfaces.add(piece)
        by_cat: dict[PiiCategory, list[Candidate]] = {}
        for surface in surfaces:
            category = rng.choice(categories)
            source = SOURCE_RULE if category in (PiiCategory.PHONE, PiiCategory.EMAIL) else SOURCE_LLM_SINGLE
            by_cat.setdefault(category, []).append(Candidate(surface, source))
        final = CandidateSet(
            narrative_id="n1",
            by_category={c: tuple(v) for c, v in by_cat.items()},
        )
        out = render(Narrative("n1", text), final, TAGGED)
        clean, spans = parse_tagged(out)  # nested tags would raise here
        assert clean == text
        assert {s.surface for s in spans} <= surfaces
        for left, right in zip(spans, spans[1:]):
            assert left.end <= right.start


def test_fixed_placeholders_and_mode_validated():
    assert set(PLACEHOLDERS) == set(PiiCategory)
    for placeholder in PLACEHOLDERS.values():
        assert placeholder and not contains_delimiter_sequence(placeholder)
    with pytest.raises(ValueError):
        RedactionStyle(mode="nonsense")
