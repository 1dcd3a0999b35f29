"""End-to-end orchestration of the de-identification workflow.

Presets are data: each row of ``PRESETS`` switches stages of one workflow
on or off (the phone/email rules; LLM tagging, either one run or the
configured K runs pooled on the ambiguous categories; the verifier on
those categories), and every preset extracts through
``extract.hybrid_extract``.

A run writes ``redacted.jsonl``, ``audit.jsonl`` (when the verifier ran)
and ``manifest.json`` into the output directory; ``run_eval --out`` writes
the very results it scores, through the same writer as ``run_pipeline``.
The manifest snapshot fully determines the run and can be replayed.
Narratives that fail are listed as unprocessed; they are never emitted
unredacted.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .corpus import Corpus, Narrative, load_corpus, write_audit_log, write_redacted
from .evalkit import MetricsReport, build_report, write_report
from .extract import AllRunsFailed, CandidateSet, EnsembleConfig, hybrid_extract
from .gateway import BackendConfig, GatewayError
from .redact import PLACEHOLDERS, RedactionStyle, RedactionCollision, SurfaceNotFound, render
from .tags import AMBIGUOUS_CATEGORIES, PiiCategory
from .verify import AuditRecord, VerifierPolicy, rfc3339_now, verify_candidates


class Preset(NamedTuple):
    rules: bool
    llm: bool
    ensemble: bool
    verify: bool


PRESETS: dict[str, Preset] = {
    "rules_only": Preset(rules=True, llm=False, ensemble=False, verify=False),
    "llm_single": Preset(rules=False, llm=True, ensemble=False, verify=False),
    "hybrid": Preset(rules=True, llm=True, ensemble=True, verify=False),
    "hybrid_ev": Preset(rules=True, llm=True, ensemble=True, verify=True),
}
MASKED_TIMESTAMP = "1970-01-01T00:00:00Z"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """A run's configuration, holding only what its preset's stages use.

    The extractor backend is dropped unless the preset tags with the LLM,
    the verifier backend and policy unless it verifies, and the ensemble
    becomes one run unless it pools K runs; so the manifest records exactly
    the stages that ran. Which categories are pooled and reviewed
    (``tags.AMBIGUOUS_CATEGORIES``) and the placeholders
    (``redact.PLACEHOLDERS``) are fixed, not configured.
    """

    preset: str
    ensemble: EnsembleConfig = EnsembleConfig()
    policy: VerifierPolicy | None = VerifierPolicy.RECALL_FIRST
    extractor_backend: BackendConfig | None = None
    verifier_backend: BackendConfig | None = None
    output_style: RedactionStyle = RedactionStyle()
    parallelism: int = 1
    seed: int | None = None
    mask_timestamps: bool = False

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        stages = PRESETS[self.preset]
        if stages.llm and self.extractor_backend is None:
            raise ConfigError(f"preset {self.preset} requires an extractor backend")
        if stages.verify and self.verifier_backend is None:
            raise ConfigError(f"preset {self.preset} requires a verifier backend")
        if stages.verify and self.policy is None:
            raise ConfigError(f"preset {self.preset} requires a verifier policy")
        if not stages.llm:
            object.__setattr__(self, "extractor_backend", None)
        if not stages.verify:
            object.__setattr__(self, "verifier_backend", None)
            object.__setattr__(self, "policy", None)
        if not stages.ensemble:
            object.__setattr__(self, "ensemble", EnsembleConfig(k_runs=1))


@dataclass
class NarrativeResult:
    narrative: Narrative
    final: CandidateSet | None = None
    audit: list[AuditRecord] = field(default_factory=list)
    degraded: bool = False
    error: str | None = None


def process_narrative(narrative: Narrative, config: PipelineConfig) -> NarrativeResult:
    result = NarrativeResult(narrative=narrative)
    if not narrative.text:
        result.final = CandidateSet(narrative_id=narrative.id)
        return result
    stages = PRESETS[config.preset]
    try:
        candidates = hybrid_extract(
            narrative,
            config.extractor_backend,
            config.ensemble,
            base_seed=config.seed,
            rules=stages.rules,
        )
        if stages.verify:
            timestamp_fn = (
                (lambda: MASKED_TIMESTAMP) if config.mask_timestamps else rfc3339_now
            )
            verification = verify_candidates(
                narrative,
                candidates,
                config.verifier_backend,
                config.policy,
                timestamp_fn=timestamp_fn,
            )
            result.final = verification.final
            result.audit = verification.audit
            result.degraded = verification.degraded
        else:
            result.final = candidates
    except (GatewayError, AllRunsFailed, ValueError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def execute(corpus: Corpus, config: PipelineConfig) -> list[NarrativeResult]:
    """Process every narrative, preserving input order in the results."""
    if config.parallelism == 1:
        return [process_narrative(n, config) for n in corpus.narratives]
    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        return list(pool.map(lambda n: process_narrative(n, config), corpus.narratives))


_BACKEND_FIELDS = tuple(f.name for f in dataclasses.fields(BackendConfig))


def _backend_snapshot(backend: BackendConfig | None) -> dict | None:
    """Every ``BackendConfig`` field, in declaration order; paths as strings."""
    if backend is None:
        return None
    values = {name: getattr(backend, name) for name in _BACKEND_FIELDS}
    if values["fixture_path"] is not None:
        values["fixture_path"] = str(values["fixture_path"])
    return values


def _backend_from_snapshot(obj: dict | None) -> BackendConfig | None:
    """Inverse of ``_backend_snapshot``; a field the manifest lacks (one
    added after it was written) takes its default."""
    if obj is None:
        return None
    return BackendConfig(**{name: obj[name] for name in _BACKEND_FIELDS if name in obj})


def config_snapshot(
    config: PipelineConfig, input_path: str, fmt: str | None, gold_path: str | None
) -> dict:
    pooled = AMBIGUOUS_CATEGORIES if PRESETS[config.preset].ensemble else ()
    return {
        "preset": config.preset,
        "k_runs": config.ensemble.k_runs,
        "ensemble_categories": sorted(c.value for c in pooled),
        "policy": config.policy.value if config.policy else None,
        "redaction": {
            "mode": config.output_style.mode,
            "placeholders": {c.value: p for c, p in PLACEHOLDERS.items()},
        },
        "parallelism": config.parallelism,
        "seed": config.seed,
        "mask_timestamps": config.mask_timestamps,
        "extractor_backend": _backend_snapshot(config.extractor_backend),
        "verifier_backend": _backend_snapshot(config.verifier_backend),
        "input": input_path,
        "format": fmt,
        "gold": gold_path,
    }


def config_from_snapshot(snapshot: dict) -> PipelineConfig:
    if snapshot.get("discard_hallucinated_runs") is False:
        raise ConfigError(
            "manifest was recorded with discard_hallucinated_runs=false "
            "(salvage mode), which no longer exists; the run cannot be reproduced"
        )
    label = snapshot["policy"]
    config = PipelineConfig(
        preset=snapshot["preset"],
        ensemble=EnsembleConfig(k_runs=snapshot["k_runs"]),
        policy=None if label is None else VerifierPolicy(label),
        extractor_backend=_backend_from_snapshot(snapshot.get("extractor_backend")),
        verifier_backend=_backend_from_snapshot(snapshot.get("verifier_backend")),
        output_style=RedactionStyle(mode=snapshot["redaction"]["mode"]),
        parallelism=snapshot["parallelism"],
        seed=snapshot.get("seed"),
        mask_timestamps=snapshot.get("mask_timestamps", False),
    )
    # The pooled categories and the placeholders follow from the preset and
    # fixed constants; a manifest that records others cannot be reproduced.
    rebuilt = config_snapshot(config, "", None, None)
    if any(snapshot.get(key) != rebuilt[key] for key in ("ensemble_categories", "redaction")):
        raise ConfigError(
            "manifest records ensemble categories or placeholders other than "
            "the fixed ones; the run cannot be reproduced"
        )
    return config


@dataclass
class RunSummary:
    narratives: int
    processed: int
    failed_narratives: list[str]
    counts: dict
    wall_time_s: float
    output_dir: Path

    @property
    def ok(self) -> bool:
        return not self.failed_narratives


def run_pipeline(
    config: PipelineConfig,
    input_path: str | Path,
    output_dir: str | Path,
    fmt: str | None = None,
    gold_path: str | Path | None = None,
) -> RunSummary:
    """Process the corpus and write redacted output, audit log and manifest."""
    started = time.monotonic()
    corpus = load_corpus(input_path, fmt=fmt, gold_path=gold_path)
    results = execute(corpus, config)
    return _write_outputs(
        config, results, output_dir, started, input_path, fmt, gold_path
    )


def _write_outputs(
    config: PipelineConfig,
    results: list[NarrativeResult],
    output_dir: str | Path,
    started: float,
    input_path: str | Path,
    fmt: str | None,
    gold_path: str | Path | None,
) -> RunSummary:
    """Render the results and write redacted output, audit log and manifest.

    A narrative whose rendering fails gets its ``error`` set and is listed
    as failed. The audit log is written for presets with a verifier and
    removed otherwise, so no earlier run's log outlives its manifest.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    audit: list[AuditRecord] = []
    failed: list[str] = []
    candidates_by_category = {c.value: 0 for c in PiiCategory}
    decisions = {"kept": 0, "dropped": 0, "uncertain": 0}
    degraded = 0
    for result in results:
        if result.error is not None or result.final is None:
            failed.append(result.narrative.id)
            continue
        try:
            redacted = render(result.narrative, result.final, config.output_style)
        except (RedactionCollision, SurfaceNotFound) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
            failed.append(result.narrative.id)
            continue
        rows.append((result.narrative.id, redacted, result.final.total() > 0))
        for category in PiiCategory:
            candidates_by_category[category.value] += len(
                result.final.candidates(category)
            )
        audit.extend(result.audit)
        degraded += int(result.degraded)
    for record in audit:
        if record.review.decision == "KEEP":
            decisions["kept"] += 1
        elif record.review.decision == "DROP":
            decisions["dropped"] += 1
        else:
            decisions["uncertain"] += 1

    write_redacted(output_dir / "redacted.jsonl", rows)
    audit_path = output_dir / "audit.jsonl"
    audit_path.unlink(missing_ok=True)
    if PRESETS[config.preset].verify:
        write_audit_log(audit_path, audit)

    counts = {
        "narratives": len(results),
        "processed": len(rows),
        "failed": len(failed),
        "degraded": degraded,
        "candidates_by_category": candidates_by_category,
        **decisions,
    }
    wall_time = 0.0 if config.mask_timestamps else time.monotonic() - started
    manifest = {
        "tool": "crashdeid",
        "version": __version__,
        "config": config_snapshot(
            config,
            str(input_path),
            fmt,
            str(gold_path) if gold_path else None,
        ),
        "counts": counts,
        "failed_narratives": failed,
        "wall_time_s": wall_time,
        "started_at": MASKED_TIMESTAMP if config.mask_timestamps else rfc3339_now(),
    }
    (output_dir / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    return RunSummary(
        narratives=len(results),
        processed=len(rows),
        failed_narratives=failed,
        counts=counts,
        wall_time_s=wall_time,
        output_dir=output_dir,
    )


def replay_manifest(manifest_path: str | Path, output_dir: str | Path) -> RunSummary:
    """Re-run a recorded manifest; outputs are reproduced byte-for-byte."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    snapshot = manifest["config"]
    config = config_from_snapshot(snapshot)
    return run_pipeline(
        config,
        snapshot["input"],
        output_dir,
        fmt=snapshot.get("format"),
        gold_path=snapshot.get("gold"),
    )


def run_eval(
    config: PipelineConfig,
    input_path: str | Path,
    gold_path: str | Path,
    report_path: str | Path,
    fmt: str | None = None,
    output_dir: str | Path | None = None,
) -> MetricsReport:
    """Run the pipeline and score it against gold; writes JSON + text reports.

    With ``output_dir`` set, the scored results are also written there,
    exactly as ``run_pipeline`` writes them.
    """
    started = time.monotonic()
    corpus = load_corpus(input_path, fmt=fmt, gold_path=gold_path)
    results = execute(corpus, config)
    predictions = {
        r.narrative.id: r.final for r in results if r.final is not None
    }
    report = build_report(corpus.gold, predictions, corpus, config.preset)
    report_path = Path(report_path)
    write_report(report, report_path, report_path.with_suffix(".txt"))
    if output_dir is not None:
        _write_outputs(
            config, results, output_dir, started, input_path, fmt, gold_path
        )
    return report
