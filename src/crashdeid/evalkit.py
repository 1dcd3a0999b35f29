"""Scoring of predictions against gold, per PII type and per narrative.

Per-type matching is exact-string multiset matching within each
(narrative, category) pair: matched instances are TP, unmatched
predictions FP, unmatched gold FN. Narrative-level scoring is binary
(does the narrative contain any PII at all) and includes accuracy.

Ratios with zero denominators are reported as ``None`` and rendered as
``-``; display values are rounded half-up to two decimals, internal
values never are.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import Corpus, GoldAnnotation
from .extract import CandidateSet
from .tags import AMBIGUOUS_CATEGORIES, CATEGORY_ORDER, PiiCategory


@dataclass(frozen=True)
class TypeCounts:
    category: PiiCategory
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class TypeMetrics:
    counts: TypeCounts
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class NarrativeMetrics:
    precision: float | None
    recall: float | None
    f1: float | None
    accuracy: float | None
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class MetricsReport:
    config_label: str
    per_type: tuple[TypeMetrics, ...]
    narrative_level: NarrativeMetrics


def safe_ratio(numerator: int, denominator: int) -> float | None:
    return numerator / denominator if denominator else None


def f1_score(precision: float | None, recall: float | None) -> float | None:
    if precision is None or recall is None or precision + recall == 0:
        return None
    return 2 * precision * recall / (precision + recall)


def round_half_up(value: float, places: int = 2) -> float:
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def format_ratio(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{round_half_up(value):.2f}"


def score_per_type(
    gold: Iterable[GoldAnnotation],
    predictions: Mapping[str, CandidateSet],
) -> list[TypeCounts]:
    """TP/FP/FN per category via multiset matching per (narrative, category)."""
    gold_by_key: dict[tuple[str, PiiCategory], Counter[str]] = {}
    for annotation in gold:
        key = (annotation.narrative_id, annotation.category)
        gold_by_key.setdefault(key, Counter())[annotation.surface] += 1

    pred_by_key: dict[tuple[str, PiiCategory], Counter[str]] = {}
    for narrative_id, candidates in predictions.items():
        for category in CATEGORY_ORDER:
            surfaces = candidates.surfaces(category)
            if surfaces:
                pred_by_key[(narrative_id, category)] = Counter(surfaces)

    totals = {category: [0, 0, 0] for category in CATEGORY_ORDER}
    for key in gold_by_key.keys() | pred_by_key.keys():
        gold_counts = gold_by_key.get(key, Counter())
        pred_counts = pred_by_key.get(key, Counter())
        matched = sum((gold_counts & pred_counts).values())
        tally = totals[key[1]]
        tally[0] += matched
        tally[1] += sum(pred_counts.values()) - matched
        tally[2] += sum(gold_counts.values()) - matched
    return [
        TypeCounts(category, *totals[category]) for category in CATEGORY_ORDER
    ]


def metrics_from_counts(counts: TypeCounts) -> TypeMetrics:
    precision = safe_ratio(counts.tp, counts.tp + counts.fp)
    recall = safe_ratio(counts.tp, counts.tp + counts.fn)
    return TypeMetrics(counts, precision, recall, f1_score(precision, recall))


def score_narrative_level(
    gold: Iterable[GoldAnnotation],
    predictions: Mapping[str, CandidateSet],
    corpus: Corpus,
) -> NarrativeMetrics:
    """Binary contains-any-PII scoring over all narratives in the corpus."""
    gold_positive = {annotation.narrative_id for annotation in gold}
    predicted_positive = {
        narrative_id
        for narrative_id, candidates in predictions.items()
        if candidates.total() > 0
    }
    tp = fp = fn = tn = 0
    for narrative in corpus.narratives:
        is_gold = narrative.id in gold_positive
        is_pred = narrative.id in predicted_positive
        if is_gold and is_pred:
            tp += 1
        elif is_pred:
            fp += 1
        elif is_gold:
            fn += 1
        else:
            tn += 1
    precision = safe_ratio(tp, tp + fp)
    recall = safe_ratio(tp, tp + fn)
    total = tp + fp + fn + tn
    return NarrativeMetrics(
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        accuracy=safe_ratio(tp + tn, total),
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
    )


def build_report(
    gold: Iterable[GoldAnnotation],
    predictions: Mapping[str, CandidateSet],
    corpus: Corpus,
    config_label: str,
) -> MetricsReport:
    gold = list(gold)
    per_type = tuple(
        metrics_from_counts(counts) for counts in score_per_type(gold, predictions)
    )
    return MetricsReport(
        config_label=config_label,
        per_type=per_type,
        narrative_level=score_narrative_level(gold, predictions, corpus),
    )


_CATEGORY_TITLES = {
    PiiCategory.NAME: "Name",
    PiiCategory.PHONE: "Phone Number",
    PiiCategory.EMAIL: "Email",
    PiiCategory.HOME_ADDRESS: "Home address",
    PiiCategory.ALPHANUMERIC: "Alphanumeric",
}


def render_report(report: MetricsReport) -> str:
    """Plain-text metric table: one row per category plus the overall row."""
    header = f"{'PII Category':<16} {'Precision':>9} {'Recall':>9} {'F1-score':>9} {'Accuracy':>9}"
    lines = [f"Model: {report.config_label}", header, "-" * len(header)]
    for entry in report.per_type:
        lines.append(
            f"{_CATEGORY_TITLES[entry.counts.category]:<16} "
            f"{format_ratio(entry.precision):>9} "
            f"{format_ratio(entry.recall):>9} "
            f"{format_ratio(entry.f1):>9} "
            f"{'-':>9}"
        )
    overall = report.narrative_level
    lines.append(
        f"{'Overall':<16} "
        f"{format_ratio(overall.precision):>9} "
        f"{format_ratio(overall.recall):>9} "
        f"{format_ratio(overall.f1):>9} "
        f"{format_ratio(overall.accuracy):>9}"
    )
    return "\n".join(lines)


def report_to_dict(report: MetricsReport) -> dict:
    """Machine-readable report; values are unrounded."""
    return {
        "config_label": report.config_label,
        "per_type": [
            {
                "category": entry.counts.category.value,
                "tp": entry.counts.tp,
                "fp": entry.counts.fp,
                "fn": entry.counts.fn,
                "precision": entry.precision,
                "recall": entry.recall,
                "f1": entry.f1,
            }
            for entry in report.per_type
        ],
        "narrative_level": {
            "tp": report.narrative_level.tp,
            "fp": report.narrative_level.fp,
            "fn": report.narrative_level.fn,
            "tn": report.narrative_level.tn,
            "precision": report.narrative_level.precision,
            "recall": report.narrative_level.recall,
            "f1": report.narrative_level.f1,
            "accuracy": report.narrative_level.accuracy,
        },
    }


def write_report(report: MetricsReport, json_path, text_path) -> None:
    """Write the JSON and text reports, creating their directories."""
    for path in (json_path, text_path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(json_path).write_text(
        json.dumps(report_to_dict(report), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    Path(text_path).write_text(render_report(report) + "\n", encoding="utf-8")


_ABLATION_TITLES = {
    PiiCategory.HOME_ADDRESS: "Home Address",
    PiiCategory.ALPHANUMERIC: "Alphanumeric Identifier",
}


def ablation_table(reports: list[MetricsReport]) -> str:
    """TP/FP/FN comparison across configurations for the ambiguous categories."""
    if len(reports) < 2:
        raise ValueError("ablation_table needs at least two configurations")
    col_width = max(12, *(len(r.config_label) + 2 for r in reports))
    group_width = col_width * len(reports)

    counts: dict[tuple[str, PiiCategory], TypeCounts] = {}
    for report in reports:
        for entry in report.per_type:
            if entry.counts.category in AMBIGUOUS_CATEGORIES:
                counts[(report.config_label, entry.counts.category)] = entry.counts

    lines = []
    lines.append(
        f"{'':<8}"
        + "".join(
            f"{_ABLATION_TITLES[cat]:^{group_width}}" for cat in AMBIGUOUS_CATEGORIES
        )
    )
    lines.append(
        f"{'':<8}"
        + "".join(
            f"{report.config_label:^{col_width}}"
            for _ in AMBIGUOUS_CATEGORIES
            for report in reports
        )
    )
    for row_label, attr in (("TP (↑)", "tp"), ("FP (↓)", "fp"), ("FN (↓)", "fn")):
        cells = []
        for category in AMBIGUOUS_CATEGORIES:
            for report in reports:
                entry = counts.get((report.config_label, category))
                cells.append(
                    f"{getattr(entry, attr) if entry else '-':^{col_width}}"
                )
        lines.append(f"{row_label:<8}" + "".join(cells))
    return "\n".join(lines)
