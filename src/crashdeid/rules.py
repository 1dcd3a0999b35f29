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

Phones are one compiled pattern scanned once, left to right. It opens
with the character class of every phone's first character, [+1(2-9], so
the regex engine skips every other position in C. The lookbehind after
it is the shared rule that no digit comes before the match, and each
branch names the character it consumed with a one-character lookbehind
(the table at ``_PHONE``). The scan is the leftmost-longest selection
because at any start at most one branch can match, with one length. The
first character selects the branch: a prefix starts with "+" or "1", and
an area code never starts with "1". After a prefix, "(" selects the
parenthesized body and a digit the separated one; after an area code, a
separator selects the separated form and a digit the bare one. Each
optional part after that is decided by the next character, so no branch
matches with two lengths.

Emails are found from their "@": a match holds exactly one, since the
local part and the domain cannot contain one. For each "@" the cheap
local-part test comes first (the character before it is a local
character and lies after the previous match), then the domain is
matched with a regex anchored just past the "@". Only when both hold is
the local part walked left, over local characters and single dots,
never below the end of the previous match, and a leading dot is
stepped over; that walk ends at the leftmost start any match through
this "@" could have. The scan then goes on from the end of the match,
or from the next "@" when there is none. Since a local part holds no
"@", a match through one "@" starts before any match through a later
one, so taking the "@"s in order is the leftmost-longest selection. A
walk never crosses an "@" or the previous match, and a domain match
stops at the next "@", so each character is read a bounded number of
times and the scan is linear in the input. Its worst case is text dense
with "@", at one Python iteration per "@".
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .tags import PiiCategory, PiiSpan

_AREA = r"[2-9]\d{2}"
_EXCH = r"[2-9]\d{2}"
_SEP = r"[-. ]"
_PAREN_TAIL = rf"{_AREA}\) ?{_EXCH}{_SEP}?\d{{4}}"

# One branch per first character, each named by a lookbehind on it:
#   "+"    "1" sep, then the parenthesized or the separated body
#   "1"    sep, then the parenthesized or the separated body
#   "("    area ")" " "? exch psep line
#   [2-9]  the area's last two digits, then sep exch sep line, or the bare
#          exch line, whose area has no letter before it
_PHONE = re.compile(
    rf"[+1(2-9](?<!\d.)(?:"
    rf"(?:(?<=\+)1|(?<=1)){_SEP}"
    rf"(?:\({_PAREN_TAIL}|{_AREA}({_SEP}){_EXCH}\1\d{{4}})"
    rf"|(?<=\(){_PAREN_TAIL}"
    rf"|(?<=[2-9])\d\d"
    rf"(?:({_SEP}){_EXCH}\2\d{{4}}|(?<![A-Za-z]\d{{3}}){_EXCH}\d{{4}}(?![A-Za-z]))"
    rf")(?!\d)",
    re.ASCII,  # \d is the grammar's [0-9], not every Unicode decimal digit
)

_LOCAL_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_%+-"
)
_DOMAIN = re.compile(r"(?:[A-Za-z0-9](?:[A-Za-z0-9-]*[A-Za-z0-9])?\.)+[A-Za-z]{2,}")


class RuleMatch(NamedTuple):
    """One rule-recognizer hit."""

    span: PiiSpan


def find_phones(text: str) -> list[RuleMatch]:
    """All strict-grammar U.S. phone matches, ascending, non-overlapping."""
    return [
        RuleMatch(PiiSpan(PiiCategory.PHONE, m.start(), m.end(), m.group()))
        for m in _PHONE.finditer(text)
    ]


def find_emails(text: str) -> list[RuleMatch]:
    """All email-grammar matches, ascending, non-overlapping."""
    matches: list[RuleMatch] = []
    floor = 0
    at = text.find("@")
    while at != -1:
        if at > floor and text[at - 1] in _LOCAL_CHARS:
            domain = _DOMAIN.match(text, at + 1)
            if domain is not None:
                start = at - 1
                while start > floor and (
                    text[start - 1] in _LOCAL_CHARS
                    or (text[start - 1] == "." and text[start] != ".")
                ):
                    start -= 1
                if text[start] == ".":
                    start += 1
                floor = domain.end()
                matches.append(
                    RuleMatch(PiiSpan(PiiCategory.EMAIL, start, floor, text[start:floor]))
                )
                at = text.find("@", floor)
                continue
        at = text.find("@", at + 1)
    return matches
