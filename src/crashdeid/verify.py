"""Layer 2: evidence-checked review of home-address and alphanumeric
candidates.

The verifier backend must answer with JSON of exactly this shape::

    {"home_address_reviews": [{"text", "decision", "reason", "evidence"}, ...],
     "alphanumeric_reviews": [...]}

``parse_verifier_output`` enforces every narrative-independent rule, one
list at a time, home before alphanumeric: the list's shape, then each
review (exactly the four string fields, a KEEP/DROP/UNCERTAIN decision,
non-empty text, KEEP/DROP carry non-empty evidence, UNCERTAIN carries ""),
then its alignment (one review per candidate, in candidate order, text
matching character-for-character). Its error names the first broken rule,
which the repair prompt quotes. ``check_evidence`` demotes to UNCERTAIN,
rather than failing, a KEEP or DROP whose evidence is not a verbatim
substring of the narrative and a DROP whose evidence omits the candidate.

Malformed completions are re-prompted with the validation error appended,
up to ``MAX_REPAIR_ATTEMPTS`` times; after that, or on a backend failure,
every candidate is UNCERTAIN and retained under either policy (fail-safe:
never a silent DROP). Otherwise ``verify_candidates`` settles each one:
KEEP retains, DROP removes, UNCERTAIN follows the ``VerifierPolicy``, and
each decision is one ``AuditRecord``. Name, phone and email candidates
pass through untouched.
"""

from __future__ import annotations

import enum
import json
from dataclasses import replace
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import gateway
from .corpus import JSON_DECODE_ERRORS, is_unicode
from .extract import Candidate, CandidateSet
from .gateway import BackendConfig, GatewayError
from .tags import AMBIGUOUS_CATEGORIES, PiiCategory

if TYPE_CHECKING:
    from .corpus import Narrative

KEEP = "KEEP"
DROP = "DROP"
UNCERTAIN = "UNCERTAIN"
DECISIONS = (KEEP, DROP, UNCERTAIN)

RETAINED = "retained"
REMOVED = "removed"

#: Repair prompts sent after a malformed verifier completion.
MAX_REPAIR_ATTEMPTS = 2

#: In the order checked, so a review with several bad fields always names
#: the same one, and its repair prompt and degraded reason are reproducible.
_REVIEW_FIELDS = ("text", "decision", "reason", "evidence")
_OUTPUT_KEYS = tuple(f"{category.value}_reviews" for category in AMBIGUOUS_CATEGORIES)


class VerifierFormatError(ValueError):
    """A completion breaks the output contract; the message names the
    broken rule and is the text of the repair prompt."""


class VerifierReview(NamedTuple):
    text: str
    decision: str
    reason: str
    evidence: str


#: One review per candidate, in candidate order, for each ambiguous category.
VerifierOutput = dict[PiiCategory, tuple[VerifierReview, ...]]


class VerifierPolicy(enum.Enum):
    """What to do with UNCERTAIN reviews: keep them (recall-first) or drop
    them (precision-first). The value is the label that the manifest and
    the audit log record."""

    RECALL_FIRST = "recall_first"
    PRECISION_FIRST = "precision_first"


class AuditRecord(NamedTuple):
    narrative_id: str
    category: PiiCategory
    review: VerifierReview
    policy_applied: str
    final_action: str
    backend_id: str
    timestamp: str

    def to_json_line(self) -> str:
        flat = {  # insertion order is the audit line's field order
            "narrative_id": self.narrative_id,
            "category": self.category.value,
            "text": self.review.text,
            "decision": self.review.decision,
            "reason": self.review.reason,
            "evidence": self.review.evidence,
            "policy_applied": self.policy_applied,
            "final_action": self.final_action,
            "backend_id": self.backend_id,
            "timestamp": self.timestamp,
        }
        return json.dumps(flat, ensure_ascii=False, separators=(",", ":"))


def rfc3339_now() -> str:
    return (
        datetime.now(timezone.utc).isoformat(timespec="seconds").replace("+00:00", "Z")
    )


def _parse_review(item: object, list_name: str, index: int) -> VerifierReview:
    if not isinstance(item, dict):
        raise VerifierFormatError(f"{list_name}[{index}] is not an object")
    if item.keys() != set(_REVIEW_FIELDS):
        raise VerifierFormatError(
            f"{list_name}[{index}] must have exactly the fields "
            f"text, decision, reason, evidence"
        )
    for fieldname in _REVIEW_FIELDS:
        if not isinstance(item[fieldname], str):
            raise VerifierFormatError(f"{list_name}[{index}].{fieldname} is not a string")
        if not is_unicode(item[fieldname]):
            raise VerifierFormatError(
                f"{list_name}[{index}].{fieldname} is not valid Unicode"
            )
    if item["decision"] not in DECISIONS:
        raise VerifierFormatError(
            f"{list_name}[{index}].decision is {item['decision']!r}, "
            f"expected KEEP, DROP or UNCERTAIN"
        )
    if item["text"] == "":
        raise VerifierFormatError(f"{list_name}[{index}].text is an empty string")
    if item["decision"] in (KEEP, DROP) and item["evidence"] == "":
        raise VerifierFormatError(
            f"{list_name}[{index}] has decision {item['decision']} "
            f"without evidence"
        )
    if item["decision"] == UNCERTAIN and item["evidence"] != "":
        raise VerifierFormatError(
            f"{list_name}[{index}] is UNCERTAIN but carries non-empty evidence"
        )
    return VerifierReview(**item)


def parse_verifier_output(
    completion_text: str,
    home_candidates: list[str],
    alnum_candidates: list[str],
) -> VerifierOutput:
    """Validate a completion against the output contract.

    Raises VerifierFormatError; the message is suitable for feeding back
    to the backend in a repair prompt.
    """
    try:
        obj = json.loads(completion_text)
    except JSON_DECODE_ERRORS:
        raise VerifierFormatError("completion is not valid JSON") from None
    if not isinstance(obj, dict):
        raise VerifierFormatError("completion is not a JSON object")
    if obj.keys() != set(_OUTPUT_KEYS):
        raise VerifierFormatError(
            f"completion must have exactly the keys {' and '.join(_OUTPUT_KEYS)}"
        )
    output: VerifierOutput = {}
    for category, list_name, candidates in zip(
        AMBIGUOUS_CATEGORIES, _OUTPUT_KEYS, (home_candidates, alnum_candidates)
    ):
        raw = obj[list_name]
        if not isinstance(raw, list):
            raise VerifierFormatError(f"{list_name} is not a list")
        reviews = tuple(_parse_review(item, list_name, i) for i, item in enumerate(raw))
        if len(reviews) != len(candidates):
            raise VerifierFormatError(
                f"{list_name} has {len(reviews)} reviews for {len(candidates)} candidates"
            )
        for index, (review, candidate) in enumerate(zip(reviews, candidates)):
            if review.text != candidate:
                raise VerifierFormatError(
                    f"{list_name}[{index}].text {review.text!r} does not equal "
                    f"candidate {candidate!r}"
                )
        output[category] = reviews
    return output


DEMOTION_NOTE = "[demoted: evidence not found verbatim in narrative]"
UNGROUNDED_DROP_NOTE = "[demoted: DROP evidence does not contain the candidate]"


def check_evidence(review: VerifierReview, narrative_text: str) -> VerifierReview:
    """Enforce verbatim evidence, and DROP evidence that contains the candidate
    (a removal needs grounds); violations demote to UNCERTAIN, never fail."""
    if review.decision not in (KEEP, DROP):
        return review
    if not (review.evidence and review.evidence in narrative_text):
        note = DEMOTION_NOTE
    elif review.decision == DROP and review.text not in review.evidence:
        note = UNGROUNDED_DROP_NOTE
    else:
        return review
    return VerifierReview(review.text, UNCERTAIN, f"{review.reason} {note}".strip(), "")


def repair_user_content(base_user_content: str, error_text: str) -> str:
    return (
        f"{base_user_content}\n\n"
        f"Your previous output was invalid: {error_text}. "
        f"Output JSON only, matching the schema exactly."
    )


class VerificationResult(NamedTuple):
    final: CandidateSet
    audit: list[AuditRecord]
    degraded: bool


def verify_candidates(
    narrative: "Narrative",
    candidates: CandidateSet,
    backend: BackendConfig,
    policy: VerifierPolicy,
    *,
    timestamp_fn: Callable[[], str] = rfc3339_now,
) -> VerificationResult:
    """Run the full verification stage for one narrative.

    Short-circuits without a backend call when both ambiguous categories
    are empty. Unrecoverable output or transport failure reviews every
    candidate UNCERTAIN and retains it, flagged degraded in the result and
    in ``policy_applied``; otherwise each is retained on KEEP, or on
    UNCERTAIN under ``RECALL_FIRST``, and removed otherwise, with one audit
    record each; other categories pass through untouched.
    """
    surfaces = [candidates.surfaces(category) for category in AMBIGUOUS_CATEGORIES]
    if not any(surfaces):
        return VerificationResult(candidates, [], False)

    base = gateway.build_verifier_prompt(narrative.text, *surfaces)
    request = base
    output: VerifierOutput | None = None
    for _ in range(MAX_REPAIR_ATTEMPTS + 1):
        try:
            output = parse_verifier_output(gateway.complete(request, backend).text, *surfaces)
            break
        except GatewayError as exc:
            failure = f"verifier backend unavailable: {exc}"
            break
        except VerifierFormatError as exc:
            failure = str(exc)
            request = replace(base, user_content=repair_user_content(base.user_content, failure))

    degraded = output is None
    label = f"{policy.value}+uncertain_fallback" if degraded else policy.value
    timestamp = timestamp_fn()
    by_category = dict(candidates.by_category)
    audit: list[AuditRecord] = []
    for category in AMBIGUOUS_CATEGORIES:
        kept: list[Candidate] = []
        held = candidates.candidates(category)
        # Degraded: no reviews, so pair each candidate with itself. Strict: a
        # review list of the wrong length raises instead of dropping one.
        for candidate, parsed in zip(held, held if degraded else output[category], strict=True):
            if degraded:
                reason = f"verifier unavailable or output unrecoverable: {failure}"
                review = VerifierReview(candidate.surface, UNCERTAIN, reason, "")
            else:
                review = check_evidence(parsed, narrative.text)
            retained = degraded or review.decision == KEEP or (
                review.decision == UNCERTAIN and policy is VerifierPolicy.RECALL_FIRST
            )
            if retained:
                kept.append(candidate)
            audit.append(
                AuditRecord(
                    narrative_id=candidates.narrative_id,
                    category=category,
                    review=review,
                    policy_applied=label,
                    final_action=RETAINED if retained else REMOVED,
                    backend_id=backend.backend_id,
                    timestamp=timestamp,
                )
            )
        by_category[category] = tuple(kept)
    final = CandidateSet(narrative_id=candidates.narrative_id, by_category=by_category)
    return VerificationResult(final, audit, degraded)
