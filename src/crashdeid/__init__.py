"""crashdeid: locally-deployable PII de-identification for crash narratives.

Structured PII (phone, email) goes to deterministic rule recognizers;
context-dependent PII (name, home address, alphanumeric identifier) goes
to an LLM tagging channel with ensemble pooling for the two most ambiguous
categories and an evidence-checked verifier gate on top. Outputs are
tagged or placeholder-redacted text, a per-decision audit log and metric
reports.

Records that check nothing, such as ``PiiSpan``, ``Narrative``,
``Candidate`` and ``AuditRecord``, are ``typing.NamedTuple``s: immutable,
and built, unpacked and compared as tuples at C speed. Configs that
validate themselves stay frozen dataclasses.
"""

__version__ = "0.1.0"

from .corpus import Corpus, GoldAnnotation, Narrative, load_corpus
from .extract import Candidate, CandidateSet, EnsembleConfig, hybrid_extract
from .gateway import BackendConfig, ChatRequest, ChatResponse
from .redact import RedactionStyle, render
from .tags import PiiCategory, PiiSpan, detag_equals, parse_tagged, serialize_spans
from .verify import AuditRecord, VerifierPolicy, VerifierReview, verify_candidates

__all__ = [
    "__version__",
    "AuditRecord",
    "BackendConfig",
    "Candidate",
    "CandidateSet",
    "ChatRequest",
    "ChatResponse",
    "Corpus",
    "EnsembleConfig",
    "GoldAnnotation",
    "Narrative",
    "PiiCategory",
    "PiiSpan",
    "RedactionStyle",
    "VerifierPolicy",
    "VerifierReview",
    "detag_equals",
    "hybrid_extract",
    "load_corpus",
    "parse_tagged",
    "render",
    "serialize_spans",
    "verify_candidates",
]
