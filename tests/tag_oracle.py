"""Reference parser for the span-tag protocol.

The original character-at-a-time scan: at each position it either
consumes a whole three-character delimiter or one character of text. It
shares no regex machinery with ``crashdeid.tags.parse_tagged`` and serves
as an oracle for it, down to exception type and message.
"""

from __future__ import annotations

from crashdeid.tags import DELIMITERS, PiiCategory, PiiSpan, TagError

_DELIM_TO_CATEGORY = {d: c for c, d in DELIMITERS.items()}
DELIMITER_LENGTH = 3


def parse_tagged(raw: str) -> tuple[str, list[PiiSpan]]:
    clean: list[str] = []
    spans: list[PiiSpan] = []
    open_category: PiiCategory | None = None
    open_at = 0
    i = 0
    n = len(raw)
    while i < n:
        chunk = raw[i : i + DELIMITER_LENGTH]
        category = _DELIM_TO_CATEGORY.get(chunk)
        if category is None:
            clean.append(raw[i])
            i += 1
            continue
        if open_category is None:
            open_category = category
            open_at = len(clean)
        elif category is open_category:
            if len(clean) == open_at:
                raise TagError(f"empty {category.value} span at raw offset {i}")
            surface = "".join(clean[open_at:])
            spans.append(PiiSpan(category, open_at, len(clean), surface))
            open_category = None
        else:
            raise TagError(
                f"{category.value} delimiter inside open "
                f"{open_category.value} span at raw offset {i}"
            )
        i += DELIMITER_LENGTH
    if open_category is not None:
        raise TagError(f"unclosed {open_category.value} delimiter")
    return "".join(clean), spans
