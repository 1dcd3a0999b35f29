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

Matching is leftmost-longest for both: of two overlapping matches, the
one that starts first wins, and the longer one when two start together.
The three phone forms are one alternation scanned once, left to right.
That scan is the leftmost-longest selection because at any start position
at most one form can match, with one length. A prefix starts with "+" or
"1" and an unprefixed form with "(" or [2-9], so a prefixed and an
unprefixed match never share a start. After the optional prefix, "("
selects the parenthesized form; otherwise the character after the area
code selects the separated form (a separator) or the bare one (a digit).
Each optional part after that is decided by the next character, so no
form matches with two lengths.

Each scan opens with a lookahead: a phone starts with a digit, "+" or
"(", and an email's local part is its character class and dots up to an
"@". Both are necessary conditions of a match, not heuristics, so they
only reject positions sooner and never change the result set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .tags import PiiCategory, PiiSpan

_PREFIX = r"(?:\+?1[-. ])?"
_AREA = r"[2-9]\d{2}"
_EXCH = r"[2-9]\d{2}"

_PHONE = re.compile(
    rf"(?<!\d)(?=[\d+(])(?:"
    rf"{_PREFIX}\({_AREA}\) ?{_EXCH}[-. ]?\d{{4}}"
    rf"|{_PREFIX}{_AREA}([-. ]){_EXCH}\1\d{{4}}"
    rf"|(?<![A-Za-z]){_AREA}{_EXCH}\d{{4}}(?![A-Za-z])"
    rf")(?!\d)"
)

_EMAIL = re.compile(
    r"(?=[A-Za-z0-9_%+.-]*@)"
    r"[A-Za-z0-9_%+-]+(?:\.[A-Za-z0-9_%+-]+)*"
    r"@(?:[A-Za-z0-9](?:[A-Za-z0-9-]*[A-Za-z0-9])?\.)+[A-Za-z]{2,}"
)


@dataclass(frozen=True)
class RuleMatch:
    """One rule-recognizer hit."""

    span: PiiSpan


def _scan(pattern: re.Pattern[str], category: PiiCategory, text: str) -> list[RuleMatch]:
    return [
        RuleMatch(PiiSpan(category, m.start(), m.end(), m.group()))
        for m in pattern.finditer(text)
    ]


def find_phones(text: str) -> list[RuleMatch]:
    """All strict-grammar U.S. phone matches, ascending, non-overlapping."""
    return _scan(_PHONE, PiiCategory.PHONE, text)


def find_emails(text: str) -> list[RuleMatch]:
    """All email-grammar matches, ascending, non-overlapping."""
    return _scan(_EMAIL, PiiCategory.EMAIL, text)
