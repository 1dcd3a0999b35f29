"""Layer 1: hybrid extraction under the fixed responsibility split.

Phone and email candidates come from the rule recognizers only; name,
home-address and alphanumeric candidates come from the LLM channel only.
The split is decided once, where the runs are pooled: a tagging run keeps
every tag of its completion, ``extract_ensemble`` pools only the LLM-owned
categories, and a CandidateSet refuses a candidate from a non-owning source.

The LLM tagger runs K times. For the ambiguous categories
(``tags.AMBIGUOUS_CATEGORIES``) the union of candidate surfaces across
runs is kept, with ``run_votes`` counting how many runs produced each
surface; names come from the first useful run in seed order. A run is
hallucinated, and discarded wholesale, unless deleting its delimiters and
parsing it both give back the narrative (``tags.read_tagged``): once the
model rewrote the text, its spans cannot be trusted. A narrative with no
useful run at all raises ``AllRunsFailed``. A narrative's runs read each
distinct completion once, and a repeat still counts as a run of its own.

``hybrid_extract`` is the one extraction path of every preset: without a
backend it yields rule candidates only, with ``rules=False`` LLM
candidates only, and a single-run baseline is ``EnsembleConfig(k_runs=1)``.
Text that already holds a tag delimiter, or is too long to tag, cannot go
through the LLM channel and raises ``TagError`` there, so the narrative
fails instead of being emitted with its contextual PII in clear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import gateway, rules
from .corpus import Narrative
from .gateway import BackendConfig, GatewayError
from .tags import (
    AMBIGUOUS_CATEGORIES,
    LLM_CATEGORIES,
    RULE_CATEGORIES,
    CATEGORY_ORDER,
    PiiCategory,
    PiiSpan,
    TagError,
    contains_delimiter_sequence,
    occurrences,
    read_tagged,
)

SOURCE_RULE = "rule"
SOURCE_LLM_SINGLE = "llm_single"
SOURCE_LLM_ENSEMBLE = "llm_ensemble"

_RULE_SOURCES = {SOURCE_RULE}
_LLM_SOURCES = {SOURCE_LLM_SINGLE, SOURCE_LLM_ENSEMBLE}


class AllRunsFailed(RuntimeError):
    """No tagging run was usable: each one failed at the gateway or was
    discarded as hallucinated."""


class Candidate(NamedTuple):
    """One candidate PII surface for a narrative."""

    surface: str
    source: str
    run_votes: int = 1


@dataclass(frozen=True)
class CandidateSet:
    """Per-narrative candidates: the set's own mapping of every category, in
    ``CATEGORY_ORDER``, to one deduplicated list of non-empty surfaces."""

    narrative_id: str
    by_category: dict[PiiCategory, tuple[Candidate, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        given = self.by_category
        object.__setattr__(self, "by_category", {c: given.get(c, ()) for c in CATEGORY_ORDER})
        for category, candidates in self.by_category.items():
            owners = _RULE_SOURCES if category in RULE_CATEGORIES else _LLM_SOURCES
            seen: set[str] = set()
            for candidate in candidates:
                # Messages never quote the surface: a candidate surface is PII.
                if not candidate.surface:
                    raise ValueError(
                        f"empty {category.value} surface in narrative {self.narrative_id!r}"
                    )
                if candidate.source not in owners:
                    raise ValueError(
                        f"{category.value} candidate from non-owning source "
                        f"{candidate.source!r} in narrative {self.narrative_id!r}"
                    )
                if candidate.surface in seen:
                    raise ValueError(
                        f"duplicate {category.value} surface from source "
                        f"{candidate.source!r} in narrative {self.narrative_id!r}"
                    )
                seen.add(candidate.surface)

    def candidates(self, category: PiiCategory) -> tuple[Candidate, ...]:
        return self.by_category[category]

    def surfaces(self, category: PiiCategory) -> list[str]:
        return [c.surface for c in self.candidates(category)]

    def total(self) -> int:
        return sum(len(v) for v in self.by_category.values())


@dataclass(frozen=True)
class EnsembleConfig:
    k_runs: int = 5

    def __post_init__(self) -> None:
        if type(self.k_runs) is not int or self.k_runs < 1:
            raise ValueError("k_runs must be an integer >= 1")


class SingleRun(NamedTuple):
    spans: list[PiiSpan]
    hallucinated: bool


def extract_single_run(
    narrative: Narrative,
    backend: BackendConfig,
    *,
    seed: int | None = None,
    readings: dict[str, SingleRun],
) -> SingleRun:
    """One tagging run: prompt, complete, read.

    Returns every span of the completion; ``extract_ensemble`` pools the
    LLM-owned ones. The run is hallucinated, and contributes no spans,
    unless deleting its delimiters and parsing it both give back the
    narrative (``read_tagged``); so every span it returns is a slice of the
    narrative. Gateway errors propagate. A completion already in
    ``readings`` (this narrative's table) is not read again; the shared
    run and its spans are read-only.
    """
    request = gateway.build_extraction_prompt(narrative.text, seed=seed)
    response = gateway.complete(request, backend)
    if response.text not in readings:
        try:
            run = SingleRun(read_tagged(response.text, narrative.text), False)
        except TagError:
            run = SingleRun([], True)
        readings[response.text] = run
    return readings[response.text]


class EnsembleResult(NamedTuple):
    """LLM-channel candidate fragment plus per-run accounting."""

    by_category: dict[PiiCategory, tuple[Candidate, ...]]
    runs_failed: int
    runs_discarded: int


def _candidates_from_votes(
    narrative: Narrative,
    votes: dict[str, int],
    source: str,
) -> tuple[Candidate, ...]:
    """Candidates in order of first occurrence, ties by surface; verifier
    prompts list them in this order."""
    ordered = sorted(votes, key=lambda surface: (narrative.text.find(surface), surface))
    return tuple(Candidate(surface, source, votes[surface]) for surface in ordered)


def extract_ensemble(
    narrative: Narrative,
    backend: BackendConfig,
    cfg: EnsembleConfig,
    *,
    base_seed: int | None = None,
) -> EnsembleResult:
    """Run the tagger K times and pool candidates.

    A run is useful unless it failed at the gateway or was discarded as
    hallucinated; with no useful run, AllRunsFailed is raised. The
    ambiguous categories take the union of surfaces across useful runs
    (``run_votes`` = number of producing runs, source ``llm_ensemble`` when
    K > 1); names come from the first useful run in seed order (source
    ``llm_single``). With ``base_seed`` set, run i uses seed
    ``base_seed + i`` so scripted mocks can represent distinct sampled
    runs. The runs are independent, so ``gateway.fan_out`` overlaps them on
    an HTTP backend, unless this narrative is already overlapped with
    others; they are merged in seed order whatever order they finish in.
    They share one table of readings: a repeated completion is read once
    (or twice, when overlapped runs both miss) and counts once per run.
    """
    readings: dict[str, SingleRun] = {}

    def attempt(i: int) -> SingleRun | None:
        seed = base_seed + i if base_seed is not None else None
        try:
            return extract_single_run(narrative, backend, seed=seed, readings=readings)
        except GatewayError:
            return None

    runs = gateway.fan_out(attempt, range(cfg.k_runs), backend)
    useful = [run for run in runs if run is not None and not run.hallucinated]
    if not useful:
        raise AllRunsFailed(
            f"none of {cfg.k_runs} extraction runs was usable for narrative "
            f"{narrative.id!r}"
        )
    failed = runs.count(None)

    by_category: dict[PiiCategory, tuple[Candidate, ...]] = {}
    for category in (c for c in CATEGORY_ORDER if c in LLM_CATEGORIES):
        pooled = category in AMBIGUOUS_CATEGORIES
        votes: dict[str, int] = {}
        for run in useful if pooled else useful[:1]:
            for surface in {s.surface for s in run.spans if s.category is category}:
                votes[surface] = votes.get(surface, 0) + 1
        source = SOURCE_LLM_ENSEMBLE if pooled and cfg.k_runs > 1 else SOURCE_LLM_SINGLE
        by_category[category] = _candidates_from_votes(narrative, votes, source)
    return EnsembleResult(
        by_category=by_category,
        runs_failed=failed,
        runs_discarded=cfg.k_runs - failed - len(useful),
    )


def rule_candidates(text: str) -> dict[PiiCategory, tuple[Candidate, ...]]:
    """Phone/email candidates from the rule recognizers, deduped by surface."""
    out: dict[PiiCategory, tuple[Candidate, ...]] = {}
    for category, matches in (
        (PiiCategory.PHONE, rules.find_phones(text)),
        (PiiCategory.EMAIL, rules.find_emails(text)),
    ):
        candidates: list[Candidate] = []
        seen: set[str] = set()
        for match in matches:
            if match.span.surface in seen:
                continue
            seen.add(match.span.surface)
            candidates.append(Candidate(match.span.surface, SOURCE_RULE))
        out[category] = tuple(candidates)
    return out


def hybrid_extract(
    narrative: Narrative,
    backend: BackendConfig | None,
    cfg: EnsembleConfig,
    *,
    base_seed: int | None = None,
    rules: bool = True,
) -> CandidateSet:
    """Rules for phone/email, LLM channel for the rest, merged into one set.

    ``backend=None`` turns the LLM channel off and ``rules=False`` the rule
    channel; empty text skips the LLM channel, so an empty narrative costs
    no backend call under any preset. An LLM candidate is suppressed only
    when every occurrence of its surface lies inside an occurrence of a rule
    surface: rules are the authority for their own span text, and render
    redacts those regions longest-first. A surface with any occurrence
    outside them is kept, so that occurrence is redacted too.
    With a backend set, text that already contains a tag delimiter, or is
    too long for any accepted completion to tag, raises TagError before any
    call: emitting it with rule candidates only would leave its contextual
    PII in clear.
    """
    merged = rule_candidates(narrative.text) if rules else {}
    if backend is None or not narrative.text:
        return CandidateSet(narrative_id=narrative.id, by_category=merged)
    if contains_delimiter_sequence(narrative.text):
        raise TagError(f"narrative {narrative.id!r} already holds a tag delimiter")
    if len(narrative.text) > gateway.MAX_OUTPUT_CHARS:  # a tagging is at least as long
        raise TagError(f"narrative {narrative.id!r} is too long to tag")

    ensemble = extract_ensemble(narrative, backend, cfg, base_seed=base_seed)
    text = narrative.text
    rule_surfaces = [c.surface for candidates in merged.values() for c in candidates]

    def inside_rule_matches(surface: str) -> bool:
        regions = [
            (hit, hit + len(rule_surface))
            for rule_surface in rule_surfaces
            if surface in rule_surface
            for hit in occurrences(text, rule_surface)
        ]
        return bool(regions) and all(
            any(start <= hit and hit + len(surface) <= end for start, end in regions)
            for hit in occurrences(text, surface)
        )

    for category, candidates in ensemble.by_category.items():
        merged[category] = tuple(
            c for c in candidates if not inside_rule_matches(c.surface)
        )
    return CandidateSet(narrative_id=narrative.id, by_category=merged)
