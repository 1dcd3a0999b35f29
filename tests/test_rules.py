from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashdeid.rules import (
    find_emails,
    find_phones,
)
from crashdeid.tags import PiiCategory

from rule_oracle import (
    email_full_match,
    find_email_surfaces,
    find_phone_surfaces,
    phone_full_match,
)

FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "rule_fixtures.json").read_text()
)
PHONE_FIXTURES = [f for f in FIXTURES if f["category"] == "phone"]
EMAIL_FIXTURES = [f for f in FIXTURES if f["category"] == "email"]


def _finder(category: str):
    return find_phones if category == "phone" else find_emails


def test_fixture_inventory_is_large_enough():
    positives = [f for f in FIXTURES if f["matches"]]
    negatives = [f for f in FIXTURES if not f["matches"]]
    assert len(positives) >= 50
    assert len(negatives) >= 50
    assert any("608-733-8366" in f["matches"] for f in PHONE_FIXTURES)
    assert any("jsmith@gmail.com" in f["matches"] for f in EMAIL_FIXTURES)


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f"{f['category']}:{f['text'][:30]}")
def test_fixtures_against_recognizers(fixture):
    matches = _finder(fixture["category"])(fixture["text"])
    assert [m.span.surface for m in matches] == fixture["matches"]


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f"{f['category']}:{f['text'][:30]}")
def test_fixtures_against_independent_oracle(fixture):
    # The committed expectations are themselves re-derived from the
    # declared grammar by the brute-force oracle.
    text = fixture["text"]
    oracle = find_phone_surfaces(text) if fixture["category"] == "phone" else find_email_surfaces(text)
    assert [text[i:j] for i, j in oracle] == fixture["matches"]


def test_match_metadata():
    (match,) = find_phones("CALL 608-733-8366 NOW")
    assert match.span.category is PiiCategory.PHONE
    assert (match.span.start, match.span.end) == (5, 17)
    (match,) = find_emails("EMAILED jsmith@gmail.com TODAY")
    assert match.span.category is PiiCategory.EMAIL
    assert match.span.surface == "jsmith@gmail.com"


def test_empty_input():
    assert find_phones("") == []
    assert find_emails("") == []


def test_twelve_digit_run_has_no_valid_substring():
    text = "MILE MARKER 123456789012"
    assert find_phone_surfaces(text) == []
    assert find_phones(text) == []


@pytest.mark.parametrize(
    "text, expected",
    [
        ("+1 (212) 555-1234", ["+1 (212) 555-1234"]),
        ("1-212-555-1234", ["1-212-555-1234"]),
        ("x2125551234", []),
        ("(212)555-1234 5678", ["(212)555-1234"]),
        ("212-555-1234-5678", ["212-555-1234"]),
        ("212-555.1234", []),
        ("2125551234 (212) 555-1234", ["2125551234", "(212) 555-1234"]),
        ("+1(212)555-1234", []),
        ("A2125551234", []),
        ("9(212)555-1234", []),
        ("x(212)555-1234", ["(212)555-1234"]),
        ("1 212 555 1234", ["1 212 555 1234"]),
        ("+1.212.555.1234", ["+1.212.555.1234"]),
    ],
)
def test_overlapping_and_nested_phone_forms(text, expected):
    assert [m.span.surface for m in find_phones(text)] == expected
    assert [text[i:j] for i, j in find_phone_surfaces(text)] == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("call ٣608-733-8366 now", ["608-733-8366"]),
        ("x 608-733-8366٣ y", ["608-733-8366"]),
        ("call 6٠8-733-8366 now", []),
        ("tel ６08-733-8366", []),
    ],
    ids=["arabic-indic-before", "arabic-indic-after", "arabic-indic-inside", "fullwidth"],
)
def test_only_ascii_digits_are_phone_digits(text, expected):
    # The grammar's digits are [0-9]: another script's digit next to a phone
    # is no digit boundary, and inside one it is no part of the number.
    assert [m.span.surface for m in find_phones(text)] == expected
    assert [text[i:j] for i, j in find_phone_surfaces(text)] == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a@b.co1x@d.ee", ["a@b.co", "1x@d.ee"]),
        ("a@b.cc.d@e.ff", ["a@b.cc", "d@e.ff"]),
        ("a@b.co@x.cc", ["a@b.co"]),
        ("a@b.c@d.ee", ["b.c@d.ee"]),
        ("..a@b.co", ["a@b.co"]),
        ("a..b@c.de", ["b@c.de"]),
        ("x.@y.co", []),
    ],
)
def test_adjacent_and_dotted_email_forms(text, expected):
    # A match's local part starts no earlier than the end of the match
    # before it, and never spans two dots in a row.
    assert [m.span.surface for m in find_emails(text)] == expected
    assert [text[i:j] for i, j in find_email_surfaces(text)] == expected


_DENSE_ALPHABET = "0123456789()+-. 1a@x.c"
_DENSE_SEEDS = (
    "212-555-1234", "212.555.1234", "212 555 1234", "(212) 555-1234",
    "(212)555.1234", "2125551234", "+1 212-555-1234", "1-(212) 555 1234",
    "a@x.cc", "a.1@x-a.cc",
)


_EMAIL_SEEDS = ("a@x.cc", "a.1@x-a.cc", "1x@d.ee", "b.c@d-e.ff")


def _edited(rng: random.Random, seed: str) -> str:
    """``seed`` with up to three point edits."""
    chars = list(seed)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(chars))
        edit = rng.randrange(3)
        if edit == 0:
            chars.insert(i, rng.choice(_DENSE_ALPHABET))
        elif edit == 1:
            del chars[i]
        else:
            chars[i] = rng.choice(_DENSE_ALPHABET)
    return "".join(chars)


def _dense_string(rng: random.Random) -> str:
    """A valid phone or email, up to three point edits, random padding."""
    core = _edited(rng, rng.choice(_DENSE_SEEDS))

    def pad() -> str:
        return "".join(rng.choices(_DENSE_ALPHABET, k=rng.randint(0, 8)))

    return (pad() + core + pad())[:30]


def test_bulk_seeded_strings_agree_with_oracle():
    # Near-misses of every phone form next to digits, letters and each
    # other; uniform random strings over this alphabet almost never hold a
    # phone. 306 of the 3,000 strings contain a phone and 279 an email.
    rng = random.Random(7)
    for _ in range(3000):
        text = _dense_string(rng)
        phones = [(m.span.start, m.span.end) for m in find_phones(text)]
        emails = [(m.span.start, m.span.end) for m in find_emails(text)]
        assert phones == find_phone_surfaces(text), text
        assert emails == find_email_surfaces(text), text


def test_bulk_back_to_back_emails_agree_with_oracle():
    # Two edited emails with nothing between them: the second "@" sits
    # next to, or inside, the first match, so these strings check where
    # the next local part may begin. 1,417 of the 2,000 strings hold an
    # email and 366 hold two.
    rng = random.Random(11)
    for _ in range(2000):
        text = _edited(rng, rng.choice(_EMAIL_SEEDS)) + _edited(rng, rng.choice(_EMAIL_SEEDS))
        emails = [(m.span.start, m.span.end) for m in find_emails(text)]
        assert emails == find_email_surfaces(text), text


def test_scans_are_linear_on_long_runs():
    # A scan that restarts at every position and re-reads the run ahead of
    # it is quadratic here: a regex email scan of that kind needs minutes
    # on the first input. These scans take about 50 ms for all six inputs
    # on a 2-vCPU Xeon, so the 2 s bound leaves a 40x margin for a slow or
    # busy machine and still fails a quadratic scan by orders of magnitude.
    n = 100_000
    dotted = "a." * (n // 2) + "b@b.co"
    started = time.perf_counter()
    assert find_emails("a" * n + "@") == []
    assert [m.span.surface for m in find_emails("a" * n + "@b.co")] == ["a" * n + "@b.co"]
    assert [m.span.surface for m in find_emails(dotted)] == [dotted]
    assert find_emails("x@" + "a-" * (n // 2)) == []
    assert find_phones("1" * n) == []
    assert find_phones("(" * n) == []
    assert time.perf_counter() - started < 2.0


_NOISE = st.text(
    alphabet="0123456789()-. ABCDEFGHIJKLMNOPQRSTUVWXYZ@_%+abcdefghij,",
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(text=_NOISE)
def test_phone_recognizer_agrees_with_oracle(text):
    impl = [(m.span.start, m.span.end) for m in find_phones(text)]
    assert impl == find_phone_surfaces(text)


@settings(max_examples=300, deadline=None)
@given(text=_NOISE)
def test_email_recognizer_agrees_with_oracle(text):
    impl = [(m.span.start, m.span.end) for m in find_emails(text)]
    assert impl == find_email_surfaces(text)


@settings(max_examples=200, deadline=None)
@given(text=_NOISE)
def test_matches_are_self_consistent_and_disjoint(text):
    for finder in (find_phones, find_emails):
        matches = finder(text)
        for match in matches:
            rescan = finder(match.span.surface)
            assert [m.span.surface for m in rescan] == [match.span.surface]
        for left, right in zip(matches, matches[1:]):
            assert left.span.end <= right.span.start


@settings(max_examples=200, deadline=None)
@given(
    local=st.text(alphabet="ab1._%+-", min_size=1, max_size=8),
    domain=st.text(alphabet="ab1.-", min_size=1, max_size=8),
    tld=st.text(alphabet="abcX2.", min_size=1, max_size=5),
)
def test_fuzzed_email_shapes_match_iff_grammar_valid(local, domain, tld):
    candidate = f"{local}@{domain}.{tld}"
    full = [
        m for m in find_emails(candidate)
        if m.span.start == 0 and m.span.end == len(candidate)
    ]
    assert bool(full) == email_full_match(candidate)


@settings(max_examples=200, deadline=None)
@given(
    digits=st.text(alphabet="0123456789", min_size=7, max_size=12),
    sep=st.sampled_from(["-", ".", " ", ""]),
    prefix=st.sampled_from(["", "+1 ", "1-", "+1-"]),
)
def test_fuzzed_phone_shapes_match_iff_grammar_valid(digits, sep, prefix):
    if len(digits) == 10:
        body = digits[:3] + sep + digits[3:6] + sep + digits[6:]
    else:
        body = digits
    candidate = prefix + body
    full = [
        m for m in find_phones(candidate)
        if m.span.start == 0 and m.span.end == len(candidate)
    ]
    assert bool(full) == phone_full_match(candidate)


def test_determinism():
    text = "CALL 608-733-8366 OR EMAIL jsmith@gmail.com"
    assert find_phones(text) == find_phones(text)
    assert find_emails(text) == find_emails(text)
