from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crashdeid.tags import (
    DELIMITERS,
    PiiCategory,
    PiiSpan,
    TagError,
    contains_delimiter_sequence,
    detag_equals,
    parse_tagged,
    read_tagged,
    serialize_spans,
    strip_delimiters,
)

import tag_oracle

CATEGORIES = list(PiiCategory)
# Free of delimiter characters, so tagging can never collide.
SAFE_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,-'/#ÉÑ"


def test_parse_single_name_tag():
    clean, spans = parse_tagged("DRIVER @@@John Smith@@@ FLED")
    assert clean == "DRIVER John Smith FLED"
    assert spans == [PiiSpan(PiiCategory.NAME, 7, 17, "John Smith")]


def test_parse_untagged_text_is_identity():
    assert parse_tagged("NO PII HERE") == ("NO PII HERE", [])


def test_parse_two_categories():
    clean, spans = parse_tagged("CALL &&&608-733-8366&&& OR %%%jsmith@gmail.com%%%")
    assert clean == "CALL 608-733-8366 OR jsmith@gmail.com"
    assert [(s.category, s.surface) for s in spans] == [
        (PiiCategory.PHONE, "608-733-8366"),
        (PiiCategory.EMAIL, "jsmith@gmail.com"),
    ]


@pytest.mark.parametrize(
    "raw,message",
    [
        ("@@@@@@", "empty name span at raw offset 3"),
        ("&&&&&&", "empty phone span at raw offset 3"),
        ("@@@John", "unclosed name delimiter"),
        ("a@@@b$$$c$$$d@@@", "home_address delimiter inside open name span at raw offset 5"),
        ("@@@a$$$b@@@c$$$", "home_address delimiter inside open name span at raw offset 4"),
    ],
)
def test_parse_rejects_malformed(raw, message):
    with pytest.raises(TagError, match=f"^{message}$"):
        parse_tagged(raw)


def test_parse_adjacent_same_category_spans():
    clean, spans = parse_tagged("@@@a@@@@@@b@@@")
    assert clean == "ab"
    assert [(s.start, s.end) for s in spans] == [(0, 1), (1, 2)]


def test_serialize_single_span():
    tagged = serialize_spans(
        "DRIVER John Smith FLED", [PiiSpan(PiiCategory.NAME, 7, 17, "John Smith")]
    )
    assert tagged == "DRIVER @@@John Smith@@@ FLED"


def test_serialize_empty_spans_is_identity():
    assert serialize_spans("ANY TEXT AT ALL", []) == "ANY TEXT AT ALL"


@pytest.mark.parametrize(
    "spans",
    [
        [PiiSpan(PiiCategory.NAME, 0, 5, "ABCDE"), PiiSpan(PiiCategory.NAME, 3, 8, "DEFGH")],
        [PiiSpan(PiiCategory.NAME, 5, 99, "x")],
        [PiiSpan(PiiCategory.NAME, 0, 0, "")],
        [PiiSpan(PiiCategory.NAME, 0, 3, "XYZ")],
    ],
    ids=["overlapping", "out-of-range", "empty", "surface-mismatch"],
)
def test_serialize_rejects_bad_spans(spans):
    # The round-trip check alone refuses each of these.
    with pytest.raises(TagError):
        serialize_spans("ABCDEFGHIJ", spans)


def test_serialize_detects_delimiter_collision():
    # Text legally contains "@@" (not a full sequence); wrapping the
    # adjacent span would form one and shift parse offsets.
    with pytest.raises(TagError):
        serialize_spans("a@@bc", [PiiSpan(PiiCategory.NAME, 3, 5, "bc")])
    # A span whose surface is itself a delimiter sequence.
    with pytest.raises(TagError):
        serialize_spans("a@@@b", [PiiSpan(PiiCategory.HOME_ADDRESS, 1, 4, "@@@")])


def test_detag_equals_basic():
    assert detag_equals("DRIVER @@@John Smith@@@ FLED", "DRIVER John Smith FLED")
    assert not detag_equals("DRIVER @@@Jon Smith@@@ FLED", "DRIVER John Smith FLED")


def test_detag_equals_is_deletion_not_parsing():
    # Malformed tagging still yields a deterministic answer.
    assert detag_equals("@@@abc", "abc")
    assert not detag_equals("@@abc", "abc")


def test_contains_delimiter_sequence():
    assert contains_delimiter_sequence("already has @@@ inside")
    assert not contains_delimiter_sequence("only @@ two")


def test_strip_delimiters_deletes_every_sequence():
    assert strip_delimiters("a@@@b$$$c^^^d&&&e%%%f") == "abcdef"


def _random_spans(rng: random.Random, text: str) -> list[PiiSpan]:
    spans = []
    cursor = 0
    while cursor < len(text):
        start = rng.randint(cursor, len(text))
        end = rng.randint(start, min(len(text), start + 12))
        if end > start and rng.random() < 0.6:
            spans.append(
                PiiSpan(rng.choice(CATEGORIES), start, end, text[start:end])
            )
            cursor = end
        else:
            cursor = start + 1
    return spans


def test_round_trip_randomized_bulk():
    rng = random.Random(20260809)
    for _ in range(2000):
        text = "".join(
            rng.choice(SAFE_ALPHABET) for _ in range(rng.randint(0, 60))
        )
        spans = _random_spans(rng, text)
        tagged = serialize_spans(text, spans)
        assert parse_tagged(tagged) == (text, spans)
        assert detag_equals(tagged, text)
        assert len(tagged) == len(text) + 6 * len(spans)


@settings(max_examples=200)
@given(data=st.data())
def test_round_trip_property(data):
    text = data.draw(st.text(alphabet=SAFE_ALPHABET, max_size=50))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    spans = _random_spans(rng, text)
    tagged = serialize_spans(text, spans)
    clean, parsed = parse_tagged(tagged)
    assert (clean, parsed) == (text, spans)
    for span in parsed:
        assert clean[span.start : span.end] == span.surface


@settings(max_examples=300)
@given(
    original=st.text(alphabet=SAFE_ALPHABET, max_size=40),
    inserts=st.lists(
        st.tuples(st.integers(0, 40), st.sampled_from(sorted(DELIMITERS.values()))),
        max_size=4,
    ),
    corrupt=st.booleans(),
    corrupt_char=st.sampled_from("XYZ@&"),
)
def test_detag_fuzz_true_iff_only_delimiters_inserted(
    original, inserts, corrupt, corrupt_char
):
    # Insertion points are original-string coordinates (descending apply
    # order), so sequences never split one another.
    mutated = original
    for position, delim in sorted(inserts, reverse=True):
        position = min(position, len(original))
        mutated = mutated[:position] + delim + mutated[position:]
    if corrupt:
        # One stray char can merge with an inserted sequence but always
        # leaves a residue after deletion, so equality must fail.
        mutated += corrupt_char
        assert not detag_equals(mutated, original)
    else:
        assert detag_equals(mutated, original)


def _outcome(parse, raw: str):
    try:
        return parse(raw)
    except TagError as exc:
        return type(exc), str(exc)


# Stray delimiter characters and whole delimiters, dense enough that
# well-formed, empty, nested and unclosed tags all occur.
DENSE_TOKENS = list("@&%$^ab ") + sorted(DELIMITERS.values())


@settings(max_examples=500)
@given(tokens=st.lists(st.sampled_from(DENSE_TOKENS), max_size=40))
def test_parse_matches_oracle_property(tokens):
    raw = "".join(tokens)
    assert _outcome(parse_tagged, raw) == _outcome(tag_oracle.parse_tagged, raw)


def test_read_tagged_refuses_a_tagging_whose_parse_differs():
    # Deleting the delimiters gives the text back, but the parse pairs the
    # "@@@"s around "&&Ann&" and keeps the stray "&"s in the text.
    raw = "Driver &@@@&&Ann&@@@&& at home"
    assert detag_equals(raw, "Driver Ann at home")
    assert parse_tagged(raw)[0] == "Driver &&&Ann&&& at home"
    with pytest.raises(TagError):
        read_tagged(raw, "Driver Ann at home")
    assert read_tagged("Driver @@@Ann@@@ at home", "Driver Ann at home") == [
        PiiSpan(PiiCategory.NAME, 7, 10, "Ann")
    ]


@settings(max_examples=500)
@given(
    base=st.text(alphabet="@&$a", max_size=12),
    inserts=st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(sorted(DELIMITERS.values()))),
        max_size=4,
    ),
    pick=st.integers(0, 2),
)
# "&@@@&&Ann&@@@&&": a "@@@" pair splits each "&&&", which deletion rejoins.
@example(base="Ann", inserts=[(0, "&&&"), (1, "@@@"), (9, "&&&"), (10, "@@@")], pick=1)
def test_read_tagged_accepts_exactly_what_parses_back(base, inserts, pick):
    # Delimiters inserted among stray delimiter characters: the parse may
    # pair them other than as inserted, give back another text, or fail.
    raw = base
    for position, delim in inserts:
        position = min(position, len(raw))
        raw = raw[:position] + delim + raw[position:]
    try:
        parsed_text = parse_tagged(raw)[0]
    except TagError:
        parsed_text = None
    text = [base if parsed_text is None else parsed_text, base, strip_delimiters(raw)][pick]
    try:
        spans = read_tagged(raw, text)
    except TagError:
        spans = None
    if spans is not None:
        assert all(text[s.start : s.end] == s.surface for s in spans)
    if not contains_delimiter_sequence(text):
        assert (spans is not None) == (parsed_text == text)


def _bulk_tagged_text(rng: random.Random, size: int) -> str:
    """Mostly well-formed tagging of about ``size`` chars: stray delimiter
    characters, which can merge into a delimiter, and rare lone ones."""
    delimiters = sorted(DELIMITERS.values())
    parts: list[str] = []
    length = 0
    while length < size:
        chunk = "".join(rng.choice(SAFE_ALPHABET) for _ in range(rng.randint(1, 40)))
        if rng.random() < 0.1:
            at = rng.randint(0, len(chunk))
            chunk = chunk[:at] + rng.choice("@&%$^") + chunk[at:]
        roll = rng.random()
        if roll < 0.3:
            delim = rng.choice(delimiters)
            chunk = delim + chunk + delim
        elif roll < 0.302:
            chunk += rng.choice(delimiters)
        parts.append(chunk)
        length += len(chunk)
    return "".join(parts)


def test_parse_matches_oracle_bulk():
    rng = random.Random(20261018)
    parsed = failed = 0
    for _ in range(120):
        raw = _bulk_tagged_text(rng, 5000)
        outcome = _outcome(parse_tagged, raw)
        assert outcome == _outcome(tag_oracle.parse_tagged, raw)
        if isinstance(outcome[1], list):
            parsed += 1
        else:
            failed += 1
    assert parsed and failed
