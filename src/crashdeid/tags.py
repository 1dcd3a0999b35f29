"""Span-tag wire protocol for PII-marked narrative text.

Detected PII spans travel between components as inline-tagged text: each
span is wrapped in a category-specific three-character delimiter. The five
categories and their delimiters are fixed:

    name            @@@ ... @@@
    phone           &&& ... &&&
    email           %%% ... %%%
    home_address    $$$ ... $$$
    alphanumeric    ^^^ ... ^^^

Tags are flat: no nesting, no overlap. ``read_tagged`` is the one reader
of tagged text: it accepts a tagging only when deleting its delimiters and
parsing it both give back the untagged text exactly. Tagged text that
cannot be used, read or written, raises ``TagError``. This module also owns
the text surgery on surfaces: ``occurrences`` is the one scan for a surface
and ``splice`` the one walk that replaces spans, shared by the tag writer
and placeholder output.

Texts that already contain a delimiter sequence cannot be tagged
unambiguously. ``contains_delimiter_sequence`` flags them so callers can
route such records around the tag protocol instead of mis-parsing them.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, Iterable, Iterator, NamedTuple


class PiiCategory(enum.Enum):
    """The five PII categories handled by the pipeline."""

    NAME = "name"
    PHONE = "phone"
    EMAIL = "email"
    HOME_ADDRESS = "home_address"
    ALPHANUMERIC = "alphanumeric"

    __hash__ = object.__hash__  # members are singletons compared by identity; C-level hash


#: Categories recognized by deterministic rules; the rest belong to the LLM channel.
RULE_CATEGORIES = frozenset({PiiCategory.PHONE, PiiCategory.EMAIL})
LLM_CATEGORIES = frozenset(PiiCategory) - RULE_CATEGORIES
#: The two ambiguous LLM categories: the only ones pooled over the K tagging
#: runs and the only ones the verifier reviews.
AMBIGUOUS_CATEGORIES = (PiiCategory.HOME_ADDRESS, PiiCategory.ALPHANUMERIC)

#: Canonical display/report order: the enum's declaration order.
CATEGORY_ORDER = tuple(PiiCategory)

DELIMITERS: dict[PiiCategory, str] = {
    PiiCategory.NAME: "@@@",
    PiiCategory.PHONE: "&&&",
    PiiCategory.EMAIL: "%%%",
    PiiCategory.HOME_ADDRESS: "$$$",
    PiiCategory.ALPHANUMERIC: "^^^",
}

_DELIM_TO_CATEGORY = {d: c for c, d in DELIMITERS.items()}
#: Splits tagged text into text, delimiter, text, ...: the group keeps the delimiters.
_DELIMITER_SPLIT = re.compile("(" + "|".join(re.escape(d) for d in DELIMITERS.values()) + ")")


class TagError(ValueError):
    """Tagged text the program cannot use: a malformed tag (an empty span,
    a delimiter inside another category's open span, an unclosed
    delimiter), a tagging that does not read back to its text, spans the
    writer cannot tag (out of range, empty, overlapping, disagreeing with
    the text, or colliding with delimiter characters already in it), or a
    text that already holds a delimiter or is too long to tag (longer than
    ``gateway.MAX_OUTPUT_CHARS``). The message names the broken rule and its
    category, never the text."""


class PiiSpan(NamedTuple):
    """One detected entity, anchored to the untagged text.

    ``start``/``end`` are Unicode scalar-value offsets (Python string
    indices), end-exclusive; ``surface`` equals ``text[start:end]``.
    """

    category: PiiCategory
    start: int
    end: int
    surface: str


def contains_delimiter_sequence(text: str) -> bool:
    """True when the text already holds any three-character delimiter."""
    return any(d in text for d in DELIMITERS.values())


def parse_tagged(raw: str) -> tuple[str, list[PiiSpan]]:
    """Parse tagged text into the untagged string and its spans.

    One ``re.split`` cuts ``raw`` at its delimiters, found left to right
    (leftmost, non-overlapping), into text, delimiter, text and so on. Each
    delimiter either opens a span of its category or closes the currently
    open one, whose surface is the text piece before it. The untagged text
    is the text pieces joined, and a delimiter's raw offset, which only an
    error message needs, follows from the piece lengths. Returns spans in
    ascending start order with offsets into the returned untagged text.

    Raises TagError on malformed tagging.
    """
    pieces = _DELIMITER_SPLIT.split(raw)
    spans: list[PiiSpan] = []
    open_category: PiiCategory | None = None
    open_at = 0
    clean_len = len(pieces[0])
    # Delimiter n sits at raw offset clean_len + 3 * n: n three-character ones precede it.
    for n, delimiter in enumerate(pieces[1::2]):
        category = _DELIM_TO_CATEGORY[delimiter]
        if open_category is None:
            open_category = category
            open_at = clean_len
        elif category is open_category:
            if clean_len == open_at:
                raise TagError(
                    f"empty {category.value} span at raw offset {clean_len + 3 * n}"
                )
            spans.append(PiiSpan(category, open_at, clean_len, pieces[2 * n]))
            open_category = None
        else:
            raise TagError(
                f"{category.value} delimiter inside open "
                f"{open_category.value} span at raw offset {clean_len + 3 * n}"
            )
        clean_len += len(pieces[2 * n + 2])
    if open_category is not None:
        raise TagError(f"unclosed {open_category.value} delimiter")
    return "".join(pieces[::2]), spans


def serialize_spans(clean_text: str, spans: list[PiiSpan]) -> str:
    """Render spans as tagged text; the exact inverse of ``parse_tagged``.

    ``read_tagged`` must accept the result and give back exactly the given
    spans; any other result raises TagError. That one round-trip
    check refuses out-of-range, empty, overlapping and mismatched spans as
    well as delimiter characters in the text that would merge with the
    inserted tags.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    result = splice(
        clean_text, ordered,
        lambda s: DELIMITERS[s.category] + s.surface + DELIMITERS[s.category],
    )
    if read_tagged(result, clean_text) != ordered:
        raise TagError("tagged text parses to different spans")
    return result


def splice(text: str, spans: Iterable[PiiSpan], insert: Callable[[PiiSpan], str]) -> str:
    """``text`` with each span, given in ascending order, replaced by
    ``insert(span)``; what lies between the spans is copied unchanged."""
    parts: list[str] = []
    cursor = 0
    for span in spans:
        parts.append(text[cursor : span.start])
        parts.append(insert(span))
        cursor = span.end
    parts.append(text[cursor:])
    return "".join(parts)


def occurrences(text: str, surface: str) -> Iterator[int]:
    """Start offset of every occurrence of ``surface``, overlapping ones too."""
    hit = text.find(surface)
    while hit != -1:
        yield hit
        hit = text.find(surface, hit + 1)


def read_tagged(raw: str, text: str) -> list[PiiSpan]:
    """The spans of ``raw`` in ascending order, each a slice of ``text``;
    TagError unless deleting the delimiters of ``raw`` and parsing it both
    give back exactly ``text``, or when a tag is malformed."""
    if not detag_equals(raw, text):
        raise TagError("tagged text does not detag to its input")
    parsed_text, spans = parse_tagged(raw)
    if parsed_text != text:
        raise TagError("tagged text parses to a different text")
    return spans


def strip_delimiters(raw: str) -> str:
    """Delete every delimiter sequence (plain left-to-right deletion)."""
    for delim in DELIMITERS.values():
        raw = raw.replace(delim, "")
    return raw


def detag_equals(tagged: str, original: str) -> bool:
    """Does deleting the delimiters of ``tagged`` give ``original``? Never raises."""
    return strip_delimiters(tagged) == original
