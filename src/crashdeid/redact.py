"""Materialize final candidate sets as redacted output text.

Every occurrence of every final candidate surface is redacted, not just
the first; surfaces are applied longest-first and regions already redacted
are skipped, so tags never nest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Narrative
from .extract import CandidateSet
from .tags import CATEGORY_ORDER, PiiCategory, PiiSpan, occurrences, serialize_spans, splice

#: Placeholder-mode replacement per category; none holds a tag delimiter.
PLACEHOLDERS: dict[PiiCategory, str] = {
    PiiCategory.NAME: "[NAME]",
    PiiCategory.PHONE: "[PHONE]",
    PiiCategory.EMAIL: "[EMAIL]",
    PiiCategory.HOME_ADDRESS: "[HOME_ADDRESS]",
    PiiCategory.ALPHANUMERIC: "[ID]",
}
MODES = ("tagged", "placeholder")  # what ``RedactionStyle.mode`` takes


@dataclass(frozen=True)
class RedactionStyle:
    mode: str = "tagged"  # one of MODES

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError("mode must be 'tagged' or 'placeholder'")


def _claim_occurrences(text: str, final: CandidateSet) -> list[PiiSpan]:
    surfaces: list[tuple[str, PiiCategory]] = []
    for category in CATEGORY_ORDER:
        for candidate in final.candidates(category):
            if candidate.surface not in text:
                raise ValueError(
                    f"a {category.value} candidate is not found in narrative "
                    f"{final.narrative_id!r}"
                )
            surfaces.append((candidate.surface, category))
    surfaces.sort(key=lambda item: (-len(item[0]), CATEGORY_ORDER.index(item[1]), item[0]))

    claimed: list[PiiSpan] = []

    def overlaps(start: int, end: int) -> bool:
        return any(start < c.end and c.start < end for c in claimed)

    for surface, category in surfaces:
        for hit in occurrences(text, surface):
            end = hit + len(surface)
            if not overlaps(hit, end):
                claimed.append(PiiSpan(category, hit, end, surface))
    claimed.sort(key=lambda span: span.start)
    return claimed


def render(narrative: Narrative, final: CandidateSet, style: RedactionStyle) -> str:
    """Redact all occurrences of the final candidates; ValueError if one is absent.

    Tagged output is written by ``tags.serialize_spans``, whose round-trip
    check raises TagError rather than emit text that would not
    parse back to the claimed spans; placeholder output goes through the
    same ``tags.splice`` walk, with each span's category placeholder.
    """
    spans = _claim_occurrences(narrative.text, final)
    if style.mode == "tagged":
        return serialize_spans(narrative.text, spans)
    return splice(narrative.text, spans, lambda span: PLACEHOLDERS[span.category])
