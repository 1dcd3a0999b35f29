"""End-to-end orchestration of the de-identification workflow.

Presets are data: each row of ``PRESETS`` switches stages of one workflow
on or off (the phone/email rules; LLM tagging, either one run or the
configured K runs pooled on the ambiguous categories; the verifier on
those categories), and every preset extracts through
``extract.hybrid_extract``.

``run_pipeline`` is the one run path of ``run``, ``eval`` and replay. It
executes the corpus, renders every result once, and then scores and writes
the same settled results: ``redacted.jsonl``, ``audit.jsonl`` (when the
verifier ran) and ``manifest.json`` into the output directory, and a report
that scores only the narratives it emits.
``config_snapshot`` is the one description of a run: the manifest records
it, and replay rebuilds the config from it and refuses any manifest whose
snapshot that config would not write back unchanged. Narratives that fail
are listed as unprocessed; they are never emitted unredacted.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .corpus import (
    JSON_DECODE_ERRORS, Corpus, Narrative, load_corpus, write_audit_log, write_json,
    write_redacted,
)
from .extract import AllRunsFailed, CandidateSet, EnsembleConfig, hybrid_extract
from .gateway import BackendConfig, fan_out
from .redact import PLACEHOLDERS, RedactionStyle, render
from .tags import AMBIGUOUS_CATEGORIES, CATEGORY_ORDER, TagError
from .verify import (
    DROP, KEEP, UNCERTAIN, AuditRecord, VerifierPolicy, rfc3339_now, verify_candidates,
)

if TYPE_CHECKING:
    from .evalkit import MetricsReport


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
        if type(self.parallelism) is not int or self.parallelism < 1:
            raise ConfigError("parallelism must be an integer >= 1")
        if self.seed is not None and type(self.seed) is not int:
            raise ConfigError("seed must be an integer or null")
        if type(self.mask_timestamps) is not bool:
            raise ConfigError("mask_timestamps must be true or false")
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
        if self.verifier_backend == self.extractor_backend:
            # One object for both roles, so a fixture file is read once.
            object.__setattr__(self, "verifier_backend", self.extractor_backend)


@dataclass
class NarrativeResult:
    narrative: Narrative
    final: CandidateSet | None = None
    audit: list[AuditRecord] = field(default_factory=list)
    degraded: bool = False
    error: str | None = None
    redacted: str | None = None


def process_narrative(narrative: Narrative, config: PipelineConfig) -> NarrativeResult:
    """Extract and, when the preset verifies, review one narrative.

    The narrative fails only for a named reason: no usable tagging run
    (``AllRunsFailed``; a run that fails at the backend is not usable), or
    text that holds a tag delimiter or is too long to tag (``TagError``). A
    verifier backend error degrades the review, which is retained. ``error``
    then holds the exception's type name alone, since messages may quote what
    the backend sent. Any other exception is a bug and propagates.
    """
    result = NarrativeResult(narrative=narrative)
    stages = PRESETS[config.preset]
    try:
        final = hybrid_extract(
            narrative, config.extractor_backend, config.ensemble,
            base_seed=config.seed, rules=stages.rules,
        )
        if stages.verify:
            stamp = (lambda: MASKED_TIMESTAMP) if config.mask_timestamps else rfc3339_now
            final, result.audit, result.degraded = verify_candidates(
                narrative, final, config.verifier_backend, config.policy, timestamp_fn=stamp
            )
        result.final = final
    except (AllRunsFailed, TagError) as exc:
        result.error = type(exc).__name__
    return result


def execute(corpus: Corpus, config: PipelineConfig) -> list[NarrativeResult]:
    """Process every narrative through ``gateway.fan_out``, preserving input
    order. Over HTTP, ``2 * MAX_IN_FLIGHT`` are in progress at once, each
    running its K runs inline, and a lone one overlaps its K runs instead;
    otherwise they run one at a time here."""
    return fan_out(lambda n: process_narrative(n, config), corpus.narratives,
                   config.extractor_backend, config.verifier_backend)


def config_snapshot(
    config: PipelineConfig,
    input_path: str | Path,
    fmt: str | None,
    gold_path: str | Path | None,
) -> dict:
    """The manifest's record of a run: every settable value of ``config``,
    what follows from its preset and fixed constants, and the files read."""
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
        "extractor_backend": config.extractor_backend and asdict(config.extractor_backend),
        "verifier_backend": config.verifier_backend and asdict(config.verifier_backend),
        "input": str(input_path),
        "format": fmt,
        "gold": str(gold_path) if gold_path else None,
    }


def config_from_snapshot(snapshot: dict) -> PipelineConfig:
    """Rebuild the config a manifest's snapshot records.

    The rebuilt config is written back with the snapshot's own ``input``,
    ``format`` and ``gold``, and every key that comes out different is
    refused: a value the preset overrides, a derived entry other than the
    fixed one, a value of the wrong type. Keys no snapshot writes are
    ignored.
    """
    if not isinstance(snapshot, dict):
        raise ConfigError("manifest has no config object")
    if snapshot.get("discard_hallucinated_runs") is False:
        raise ConfigError(
            "manifest was recorded with discard_hallucinated_runs=false "
            "(salvage mode), which no longer exists; the run cannot be reproduced"
        )
    try:
        label = snapshot["policy"]
        backends = {
            key: None if snapshot[key] is None else BackendConfig(**snapshot[key])
            for key in ("extractor_backend", "verifier_backend")
        }
        config = PipelineConfig(
            preset=snapshot["preset"],
            ensemble=EnsembleConfig(k_runs=snapshot["k_runs"]),
            policy=None if label is None else VerifierPolicy(label),
            output_style=RedactionStyle(mode=snapshot["redaction"]["mode"]),
            parallelism=snapshot["parallelism"],
            seed=snapshot["seed"],
            mask_timestamps=snapshot["mask_timestamps"],
            **backends,
        )
        rebuilt = config_snapshot(
            config, snapshot["input"], snapshot["format"], snapshot["gold"]
        )
    except KeyError as exc:
        raise ConfigError(f"manifest config lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"manifest config cannot be replayed: {exc}") from None
    differing = [key for key, value in rebuilt.items() if snapshot.get(key) != value]
    if differing:
        raise ConfigError(
            "manifest config records values its run would not: "
            + ", ".join(differing)
        )
    return config


@dataclass
class RunSummary:
    failed_narratives: list[str]
    counts: dict
    output_dir: Path | None
    report: MetricsReport | None = None

    @property
    def ok(self) -> bool:
        return not self.failed_narratives


def run_pipeline(
    config: PipelineConfig,
    input_path: str | Path,
    output_dir: str | Path | None,
    fmt: str | None = None,
    gold_path: str | Path | None = None,
    report_path: str | Path | None = None,
    replayed: str | Path | None = None,
) -> RunSummary:
    """Process the corpus, score it when ``report_path`` is set (JSON there,
    text beside it as ``.txt``) and write the outputs when ``output_dir`` is.
    The report covers emitted narratives only: a failed one has none. A
    ``.txt`` report path, one with no file name, any output path the run
    could not write, and any two paths (input, gold, the ``replayed``
    manifest, report and its ``.txt``, the three outputs) that are one file
    are refused before any is read."""
    started = time.monotonic()
    if report_path is not None and not Path(report_path).name:
        raise ConfigError(f"report path {str(report_path)!r} has no file name")
    if report_path is not None and Path(report_path).suffix == ".txt":
        raise ConfigError(f"report path {report_path} ends in .txt, the text report's own path")
    text_path = report_path and Path(report_path).with_suffix(".txt")
    outputs = [] if output_dir is None else [
        Path(output_dir, name) for name in ("redacted.jsonl", "audit.jsonl", "manifest.json")]
    for path, is_dir in ((output_dir, True), *((p, False) for p in outputs),
                         (report_path, False), (text_path, False)):
        # The nearest path that exists must be of the kind written there.
        found = path and next((p for p in (Path(path), *Path(path).parents) if p.exists()), None)
        if found and found.is_dir() != (is_dir or found != Path(path)):
            raise ConfigError(f"{path} cannot be written: {found} is "
                              + ("a directory" if found.is_dir() else "not a directory"))
    paths = [Path(p) for p in (input_path, gold_path, replayed, report_path, text_path)
             if p is not None] + outputs
    for n, path in enumerate(paths):
        for other in paths[:n]:  # samefile: no link, hard or soft, hides a clash
            if path.resolve() == other.resolve() or (
                    path.exists() and other.exists() and path.samefile(other)):
                raise ConfigError(f"{path} is the same file as {other}")
    corpus = load_corpus(input_path, fmt=fmt, gold_path=gold_path)
    results = execute(corpus, config)
    # Settle on this thread, in input order: a text the writer refuses
    # fails its narrative, so ``redacted`` is set exactly when ``error`` is not.
    # Every surface is a slice of its narrative, so render finds each one.
    for result in results:
        if result.error is None:
            try:
                result.redacted = render(result.narrative, result.final, config.output_style)
            except TagError as exc:
                result.error = type(exc).__name__
    emitted = [result for result in results if result.error is None]
    summary = RunSummary(
        failed_narratives=[r.narrative.id for r in results if r.error is not None],
        counts=_counts(results, emitted),
        output_dir=None if output_dir is None else Path(output_dir),
    )
    if report_path is not None:
        from .evalkit import build_report, write_report
        predictions = {r.narrative.id: r.final for r in emitted}
        label = f"{config.preset} ({config.policy.value})" if config.policy else config.preset
        summary.report = build_report(predictions, corpus, label)
        write_report(summary.report, report_path, text_path)
    if summary.output_dir is not None:
        snapshot = config_snapshot(config, input_path, fmt, gold_path)
        _write_outputs(config, emitted, summary, snapshot, started, outputs)
    return summary


def _counts(results: list[NarrativeResult], emitted: list[NarrativeResult]) -> dict:
    decisions = Counter(record.review.decision for result in emitted for record in result.audit)
    return {
        "narratives": len(results),
        "processed": len(emitted),
        "failed": len(results) - len(emitted),
        "degraded": sum(result.degraded for result in emitted),
        "candidates_by_category": {
            category.value: sum(len(result.final.candidates(category)) for result in emitted)
            for category in CATEGORY_ORDER
        },
        "kept": decisions[KEEP],
        "dropped": decisions[DROP],
        "uncertain": decisions[UNCERTAIN],
    }


def _write_outputs(
    config: PipelineConfig,
    emitted: list[NarrativeResult],
    summary: RunSummary,
    snapshot: dict,
    started: float,
    outputs: list[Path],
) -> None:
    """Write ``outputs``: the emitted results, their audit log and the run's manifest.

    The audit log is written for presets with a verifier and removed
    otherwise, so no earlier run's log outlives its manifest.
    """
    redacted_path, audit_path, manifest_path = outputs
    summary.output_dir.mkdir(parents=True, exist_ok=True)
    write_redacted(
        redacted_path,
        [(r.narrative.id, r.redacted, r.final.total() > 0) for r in emitted],
    )
    if PRESETS[config.preset].verify:
        write_audit_log(audit_path, [record for r in emitted for record in r.audit])
    else:
        audit_path.unlink(missing_ok=True)
    manifest = {
        "tool": "crashdeid",
        "version": __version__,
        "config": snapshot,
        "counts": summary.counts,
        "failed_narratives": summary.failed_narratives,
        "wall_time_s": 0.0 if config.mask_timestamps else time.monotonic() - started,
        "started_at": MASKED_TIMESTAMP if config.mask_timestamps else rfc3339_now(),
    }
    write_json(manifest_path, manifest)


def replay_manifest(manifest_path: str | Path, output_dir: str | Path) -> RunSummary:
    """Re-run a recorded manifest; outputs are reproduced byte-for-byte."""
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        snapshot = manifest.get("config") if isinstance(manifest, dict) else None
        config = config_from_snapshot(snapshot)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except JSON_DECODE_ERRORS:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"{path}: manifest is not UTF-8 JSON") from None
    return run_pipeline(config, snapshot["input"], output_dir, fmt=snapshot["format"],
                        gold_path=snapshot["gold"], replayed=path)
