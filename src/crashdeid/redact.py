"""Materialize final candidate sets as redacted output text.

Every occurrence of every final candidate surface is redacted, not just
the first; surfaces are applied longest-first and regions already redacted
are skipped, so tags never nest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Narrative
from .extract import CandidateSet
from .tags import (
    CATEGORY_ORDER,
    DELIMITERS,
    PiiCategory,
    TagError,
    detag_equals,
    parse_tagged,
)

#: Placeholder-mode replacement per category; none holds a tag delimiter.
PLACEHOLDERS: dict[PiiCategory, str] = {
    PiiCategory.NAME: "[NAME]",
    PiiCategory.PHONE: "[PHONE]",
    PiiCategory.EMAIL: "[EMAIL]",
    PiiCategory.HOME_ADDRESS: "[HOME_ADDRESS]",
    PiiCategory.ALPHANUMERIC: "[ID]",
}


class SurfaceNotFound(ValueError):
    """A final candidate surface does not occur in the narrative text."""


class RedactionCollision(TagError):
    """Tagged-mode output would not parse back to the claimed spans."""


@dataclass(frozen=True)
class RedactionStyle:
    mode: str = "tagged"  # "tagged" | "placeholder"

    def __post_init__(self) -> None:
        if self.mode not in ("tagged", "placeholder"):
            raise ValueError("mode must be 'tagged' or 'placeholder'")


def _claim_occurrences(
    text: str, final: CandidateSet
) -> list[tuple[int, int, PiiCategory, str]]:
    surfaces: list[tuple[str, PiiCategory]] = []
    for category in CATEGORY_ORDER:
        for candidate in final.candidates(category):
            if candidate.surface not in text:
                raise SurfaceNotFound(
                    f"candidate {candidate.surface!r} not found in narrative "
                    f"{final.narrative_id!r}"
                )
            surfaces.append((candidate.surface, category))
    surfaces.sort(key=lambda item: (-len(item[0]), CATEGORY_ORDER.index(item[1]), item[0]))

    claimed: list[tuple[int, int, PiiCategory, str]] = []

    def overlaps(start: int, end: int) -> bool:
        return any(start < c_end and c_start < end for c_start, c_end, _, _ in claimed)

    for surface, category in surfaces:
        idx = 0
        while (hit := text.find(surface, idx)) != -1:
            end = hit + len(surface)
            if overlaps(hit, end):
                idx = hit + 1
            else:
                claimed.append((hit, end, category, surface))
                idx = end
    claimed.sort()
    return claimed


def render(narrative: Narrative, final: CandidateSet, style: RedactionStyle) -> str:
    """Redact all occurrences of the final candidates in the narrative."""
    claimed = _claim_occurrences(narrative.text, final)
    parts: list[str] = []
    cursor = 0
    for start, end, category, surface in claimed:
        parts.append(narrative.text[cursor:start])
        if style.mode == "tagged":
            delim = DELIMITERS[category]
            parts.append(f"{delim}{surface}{delim}")
        else:
            parts.append(PLACEHOLDERS[category])
        cursor = end
    parts.append(narrative.text[cursor:])
    output = "".join(parts)

    if style.mode == "tagged":
        if not detag_equals(output, narrative.text):
            raise RedactionCollision(
                f"tagged output for {narrative.id!r} does not detag to the input"
            )
        try:
            _, spans = parse_tagged(output)
        except TagError as exc:
            raise RedactionCollision(
                f"tagged output for {narrative.id!r} does not parse: {exc}"
            ) from exc
        recovered = [(s.start, s.end, s.category, s.surface) for s in spans]
        if recovered != claimed:
            raise RedactionCollision(
                f"tagged output for {narrative.id!r} parses to different spans"
            )
    return output
