"""Materialize final candidate sets as redacted output text.

Every occurrence of every final candidate surface is redacted, not just
the first; surfaces are applied longest-first and regions already redacted
are skipped, so tags never nest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Narrative
from .extract import CandidateSet
from .tags import CATEGORY_ORDER, PiiCategory, PiiSpan, serialize_spans

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


@dataclass(frozen=True)
class RedactionStyle:
    mode: str = "tagged"  # "tagged" | "placeholder"

    def __post_init__(self) -> None:
        if self.mode not in ("tagged", "placeholder"):
            raise ValueError("mode must be 'tagged' or 'placeholder'")


def _claim_occurrences(text: str, final: CandidateSet) -> list[PiiSpan]:
    surfaces: list[tuple[str, PiiCategory]] = []
    for category in CATEGORY_ORDER:
        for candidate in final.candidates(category):
            if candidate.surface not in text:
                raise SurfaceNotFound(
                    f"a {category.value} candidate is not found in narrative "
                    f"{final.narrative_id!r}"
                )
            surfaces.append((candidate.surface, category))
    surfaces.sort(key=lambda item: (-len(item[0]), CATEGORY_ORDER.index(item[1]), item[0]))

    claimed: list[PiiSpan] = []

    def overlaps(start: int, end: int) -> bool:
        return any(start < c.end and c.start < end for c in claimed)

    for surface, category in surfaces:
        idx = 0
        while (hit := text.find(surface, idx)) != -1:
            end = hit + len(surface)
            if overlaps(hit, end):
                idx = hit + 1
            else:
                claimed.append(PiiSpan(category, hit, end, surface))
                idx = end
    claimed.sort(key=lambda span: span.start)
    return claimed


def render(narrative: Narrative, final: CandidateSet, style: RedactionStyle) -> str:
    """Redact all occurrences of the final candidates in the narrative.

    Tagged output is written by ``tags.serialize_spans``, whose round-trip
    check raises AmbiguousTagging rather than emit text that would not
    parse back to the claimed spans.
    """
    spans = _claim_occurrences(narrative.text, final)
    if style.mode == "tagged":
        return serialize_spans(narrative.text, spans)
    parts: list[str] = []
    cursor = 0
    for span in spans:
        parts.append(narrative.text[cursor : span.start])
        parts.append(PLACEHOLDERS[span.category])
        cursor = span.end
    parts.append(narrative.text[cursor:])
    return "".join(parts)
