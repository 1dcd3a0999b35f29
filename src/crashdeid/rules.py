"""Deterministic recognizers for structure-dominant PII: U.S. phone numbers
and email addresses.

Both grammars are declared here and are the normative definition the
recognizers implement (test oracles re-derive matches from these rules
independently).

Strict U.S. phone grammar::

    phone  := prefix? "(" area ")" " "? exch psep line     (parenthesized)
            | prefix? area sep exch sep line               (same sep twice)
            | area exch line                               (bare 10 digits)
    prefix := ("+1" | "1") sep
    area   := [2-9][0-9]{2}        exch := [2-9][0-9]{2}
    line   := [0-9]{4}
    sep    := "-" | "." | " "      psep := sep | ""

    The character before and after a match must not be a digit; the bare
    form additionally requires non-alphanumeric boundaries. Seven-digit
    local numbers (no area code) are never matched.

Email grammar::

    email  := local "@" (label ".")+ tld
    local  := atom ("." atom)*     atom := [A-Za-z0-9_%+-]+
    label  := alnum (alnum | "-")* alnum | alnum
    tld    := [A-Za-z]{2,}

    No leading, trailing or consecutive dots in the local part; matching
    is leftmost-longest; the surface is preserved as written.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .tags import PiiCategory, PiiSpan

_PREFIX = r"(?:\+?1[-. ])?"
_AREA = r"[2-9]\d{2}"
_EXCH = r"[2-9]\d{2}"

_PHONE_PAREN = re.compile(
    rf"(?<!\d){_PREFIX}\({_AREA}\) ?{_EXCH}[-. ]?\d{{4}}(?!\d)"
)
_PHONE_SEPARATED = re.compile(
    rf"(?<!\d){_PREFIX}{_AREA}([-. ]){_EXCH}\1\d{{4}}(?!\d)"
)
_PHONE_BARE = re.compile(
    rf"(?<![0-9A-Za-z]){_AREA}{_EXCH}\d{{4}}(?![0-9A-Za-z])"
)

_EMAIL = re.compile(
    r"[A-Za-z0-9_%+-]+(?:\.[A-Za-z0-9_%+-]+)*"
    r"@(?:[A-Za-z0-9](?:[A-Za-z0-9-]*[A-Za-z0-9])?\.)+[A-Za-z]{2,}"
)


@dataclass(frozen=True)
class RuleMatch:
    """One rule-recognizer hit."""

    category: PiiCategory
    span: PiiSpan


def _leftmost_longest(raw: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Greedy non-overlapping selection: earlier start wins, longer wins ties."""
    chosen: list[tuple[int, int]] = []
    for start, end in sorted(raw, key=lambda m: (m[0], -m[1])):
        if not chosen or start >= chosen[-1][1]:
            chosen.append((start, end))
    return chosen


def find_phones(text: str) -> list[RuleMatch]:
    """All strict-grammar U.S. phone matches, ascending, non-overlapping."""
    raw = [
        m.span()
        for pattern in (_PHONE_PAREN, _PHONE_SEPARATED, _PHONE_BARE)
        for m in pattern.finditer(text)
    ]
    return [
        RuleMatch(
            PiiCategory.PHONE,
            PiiSpan(PiiCategory.PHONE, start, end, text[start:end]),
        )
        for start, end in _leftmost_longest(raw)
    ]


def find_emails(text: str) -> list[RuleMatch]:
    """All email-grammar matches, ascending, non-overlapping."""
    return [
        RuleMatch(
            PiiCategory.EMAIL,
            PiiSpan(PiiCategory.EMAIL, m.start(), m.end(), m.group()),
        )
        for m in _EMAIL.finditer(text)
    ]
