"""Span-tag wire protocol for PII-marked narrative text.

Detected PII spans travel between components as inline-tagged text: each
span is wrapped in a category-specific three-character delimiter. The five
categories and their delimiters are fixed:

    name            @@@ ... @@@
    phone           &&& ... &&&
    email           %%% ... %%%
    home_address    $$$ ... $$$
    alphanumeric    ^^^ ... ^^^

Tags are flat: no nesting, no overlap. Removing all delimiter sequences
from a well-formed tagged string must reproduce the untagged text exactly;
``detag_equals`` is the hallucination guard built on that property.

Texts that already contain a delimiter sequence cannot be tagged
unambiguously. ``contains_delimiter_sequence`` flags them so callers can
route such records around the tag protocol instead of mis-parsing them.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class PiiCategory(enum.Enum):
    """The five PII categories handled by the pipeline."""

    NAME = "name"
    PHONE = "phone"
    EMAIL = "email"
    HOME_ADDRESS = "home_address"
    ALPHANUMERIC = "alphanumeric"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Categories recognized by deterministic rules; the rest belong to the LLM channel.
RULE_CATEGORIES = frozenset({PiiCategory.PHONE, PiiCategory.EMAIL})
LLM_CATEGORIES = frozenset(
    {PiiCategory.NAME, PiiCategory.HOME_ADDRESS, PiiCategory.ALPHANUMERIC}
)
#: The two ambiguous LLM categories: the only ones pooled over the K tagging
#: runs and the only ones the verifier reviews.
AMBIGUOUS_CATEGORIES = (PiiCategory.HOME_ADDRESS, PiiCategory.ALPHANUMERIC)

#: Canonical display/report order.
CATEGORY_ORDER = (
    PiiCategory.NAME,
    PiiCategory.PHONE,
    PiiCategory.EMAIL,
    PiiCategory.HOME_ADDRESS,
    PiiCategory.ALPHANUMERIC,
)

DELIMITERS: dict[PiiCategory, str] = {
    PiiCategory.NAME: "@@@",
    PiiCategory.PHONE: "&&&",
    PiiCategory.EMAIL: "%%%",
    PiiCategory.HOME_ADDRESS: "$$$",
    PiiCategory.ALPHANUMERIC: "^^^",
}

_DELIM_TO_CATEGORY = {d: c for c, d in DELIMITERS.items()}
_DELIMITER_RE = re.compile("|".join(re.escape(d) for d in DELIMITERS.values()))


class TagError(ValueError):
    """Base error for tag-protocol violations."""


class UnbalancedDelimiter(TagError):
    """A category's delimiters do not pair up (odd count)."""


class NestedOrOverlappingTags(TagError):
    """A tag opened inside another category's open tag."""


class EmptySpan(TagError):
    """Two adjacent delimiters enclose nothing."""


class OverlappingSpans(TagError):
    """Input spans overlap each other."""


class OffsetOutOfRange(TagError):
    """Span offsets fall outside the text."""


class SurfaceMismatch(TagError):
    """Span surface disagrees with the text at its offsets."""


class AmbiguousTagging(TagError):
    """Inserting delimiters would collide with delimiter characters already
    present in the text, so the result would not parse back to the input."""


@dataclass(frozen=True)
class PiiSpan:
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

    One regex pass finds the delimiters left to right (leftmost,
    non-overlapping); a delimiter either opens a span of its category or
    closes the currently open one. The untagged text and each span's
    surface are sliced out of ``raw`` between delimiters. Returns spans in
    ascending start order with offsets into the returned untagged text.

    Raises UnbalancedDelimiter, NestedOrOverlappingTags or EmptySpan on
    malformed tagging.
    """
    pieces: list[str] = []
    spans: list[PiiSpan] = []
    open_category: PiiCategory | None = None
    open_at = 0
    clean_len = 0
    cursor = 0
    for match in _DELIMITER_RE.finditer(raw):
        i = match.start()
        pieces.append(raw[cursor:i])
        clean_len += i - cursor
        category = _DELIM_TO_CATEGORY[match.group()]
        if open_category is None:
            open_category = category
            open_at = clean_len
        elif category is open_category:
            if clean_len == open_at:
                raise EmptySpan(
                    f"empty {category.value} span at raw offset {i}"
                )
            spans.append(PiiSpan(category, open_at, clean_len, raw[cursor:i]))
            open_category = None
        else:
            raise NestedOrOverlappingTags(
                f"{category.value} delimiter inside open "
                f"{open_category.value} span at raw offset {i}"
            )
        cursor = match.end()
    if open_category is not None:
        raise UnbalancedDelimiter(
            f"unclosed {open_category.value} delimiter"
        )
    pieces.append(raw[cursor:])
    return "".join(pieces), spans


def serialize_spans(clean_text: str, spans: list[PiiSpan]) -> str:
    """Render spans as tagged text; the exact inverse of ``parse_tagged``.

    Spans must be in-range, non-empty, non-overlapping and agree with
    ``clean_text`` at their offsets. The result is verification-parsed so
    the round-trip guarantee holds; a delimiter-character collision in the
    surrounding text raises AmbiguousTagging instead of corrupting spans.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    prev_end = -1
    for span in ordered:
        if not (0 <= span.start < span.end <= len(clean_text)):
            raise OffsetOutOfRange(
                f"span [{span.start},{span.end}) outside text of length "
                f"{len(clean_text)}"
            )
        if clean_text[span.start : span.end] != span.surface:
            raise SurfaceMismatch(
                f"span surface {span.surface!r} != text at "
                f"[{span.start},{span.end})"
            )
        if contains_delimiter_sequence(span.surface):
            raise SurfaceMismatch(
                f"span surface {span.surface!r} contains a delimiter sequence"
            )
        if span.start < prev_end:
            raise OverlappingSpans(
                f"span [{span.start},{span.end}) overlaps previous span"
            )
        prev_end = span.end
    parts: list[str] = []
    cursor = 0
    for span in ordered:
        delim = DELIMITERS[span.category]
        parts.append(clean_text[cursor : span.start])
        parts.append(delim)
        parts.append(span.surface)
        parts.append(delim)
        cursor = span.end
    parts.append(clean_text[cursor:])
    result = "".join(parts)
    try:
        back_text, back_spans = parse_tagged(result)
    except TagError as exc:
        raise AmbiguousTagging(str(exc)) from exc
    if back_text != clean_text or back_spans != ordered:
        raise AmbiguousTagging(
            "delimiter characters in the text collide with inserted tags"
        )
    return result


def strip_delimiters(raw: str) -> str:
    """Delete every delimiter sequence (plain left-to-right deletion)."""
    for delim in DELIMITERS.values():
        raw = raw.replace(delim, "")
    return raw


def detag_equals(tagged: str, original: str) -> bool:
    """Hallucination guard: does delimiter deletion recover the original?

    Total on malformed input; no parsing is attempted.
    """
    return strip_delimiters(tagged) == original
