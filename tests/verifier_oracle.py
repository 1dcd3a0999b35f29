"""Reference acceptance rule for verifier completions.

It checks every rule of the output contract at once, in no order, and
only decides whether a completion is accepted; it shares no code with
``crashdeid.verify.parse_verifier_output`` and serves as an oracle for
the set of completions that parser accepts and the reviews it returns.
"""

from __future__ import annotations

import json

LIST_NAMES = ("home_address_reviews", "alphanumeric_reviews")
FIELDS = ("text", "decision", "reason", "evidence")
DECISIONS = ("KEEP", "DROP", "UNCERTAIN")


def _is_valid_unicode(value: str) -> bool:
    """No lone surrogate, which a JSON escape can carry and UTF-8 cannot."""
    return not any(0xD800 <= ord(ch) <= 0xDFFF for ch in value)


def _review_ok(item: object) -> bool:
    return (
        isinstance(item, dict)
        and sorted(item) == sorted(FIELDS)
        and all(isinstance(item[f], str) and _is_valid_unicode(item[f]) for f in FIELDS)
        and item["decision"] in DECISIONS
        and item["text"] != ""
        # KEEP and DROP carry evidence; UNCERTAIN carries none.
        and (item["evidence"] == "") == (item["decision"] == "UNCERTAIN")
    )


def accepted_reviews(
    completion_text: str, home: list[str], alnum: list[str]
) -> dict[str, list[tuple[str, str, str, str]]] | None:
    """Each list's reviews as ``(text, decision, reason, evidence)`` tuples,
    keyed by list name, or None when the completion is refused."""
    try:
        obj = json.loads(completion_text)
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict) or sorted(obj) != sorted(LIST_NAMES):
        return None
    lists = [obj[name] for name in LIST_NAMES]
    if not all(isinstance(reviews, list) for reviews in lists):
        return None
    if not all(_review_ok(review) for reviews in lists for review in reviews):
        return None
    if [[review["text"] for review in reviews] for reviews in lists] != [home, alnum]:
        return None
    return {
        name: [tuple(review[f] for f in FIELDS) for review in reviews]
        for name, reviews in zip(LIST_NAMES, lists)
    }
