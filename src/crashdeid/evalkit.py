"""Scoring of predictions against gold, per PII type and per narrative.

Per-type matching is exact-string multiset matching within each
(narrative, category) pair: matched instances are TP, unmatched
predictions FP, unmatched gold FN. Narrative-level scoring is binary
(does the narrative contain any PII at all) and includes accuracy. Both
score against the corpus's own gold, ``Corpus.gold``.

Ratios with zero denominators are reported as ``None`` and rendered as
``-``; display values are rounded half-up to two decimals, internal
values never are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, astuple, dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import Corpus, GoldAnnotation, write_json
from .extract import CandidateSet
from .tags import AMBIGUOUS_CATEGORIES, CATEGORY_ORDER, PiiCategory


@dataclass(frozen=True)
class TypeCounts:
    category: PiiCategory
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class TypeMetrics(TypeCounts):
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class NarrativeMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float | None
    recall: float | None
    f1: float | None
    accuracy: float | None


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


def round_half_up(value: float) -> float:
    return float(Decimal(str(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def format_ratio(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{round_half_up(value):.2f}"


def score_per_type(
    gold: Iterable[GoldAnnotation],
    predictions: Mapping[str, CandidateSet],
) -> list[TypeCounts]:
    """TP/FP/FN per category via multiset matching per (narrative, category)."""
    gold_counts = Counter((a.narrative_id, a.category, a.surface) for a in gold)
    pred_counts = Counter(
        (narrative_id, category, surface)
        for narrative_id, candidates in predictions.items()
        for category in CATEGORY_ORDER
        for surface in candidates.surfaces(category)
    )
    gold_n, pred_n, matched = (
        Counter(category for _, category, _ in counts.elements())
        for counts in (gold_counts, pred_counts, gold_counts & pred_counts)
    )
    return [
        TypeCounts(c, matched[c], pred_n[c] - matched[c], gold_n[c] - matched[c])
        for c in CATEGORY_ORDER
    ]


def precision_recall_f1(
    tp: int, fp: int, fn: int
) -> tuple[float | None, float | None, float | None]:
    """Precision, recall and F1 of a TP/FP/FN tally."""
    precision = safe_ratio(tp, tp + fp)
    recall = safe_ratio(tp, tp + fn)
    return precision, recall, f1_score(precision, recall)


def metrics_from_counts(counts: TypeCounts) -> TypeMetrics:
    return TypeMetrics(*astuple(counts), *precision_recall_f1(counts.tp, counts.fp, counts.fn))


def score_narrative_level(
    predictions: Mapping[str, CandidateSet], corpus: Corpus
) -> NarrativeMetrics:
    """Binary contains-any-PII scoring over all narratives in the corpus,
    against the corpus's own gold."""
    ids = {narrative.id for narrative in corpus.narratives}
    gold = ids & {annotation.narrative_id for annotation in corpus.gold}
    predicted = ids & {
        narrative_id
        for narrative_id, candidates in predictions.items()
        if candidates.total() > 0
    }
    tp = len(gold & predicted)
    fp = len(predicted - gold)
    fn = len(gold - predicted)
    tn = len(ids - gold - predicted)
    return NarrativeMetrics(
        tp, fp, fn, tn, *precision_recall_f1(tp, fp, fn), safe_ratio(tp + tn, len(ids))
    )


def build_report(
    predictions: Mapping[str, CandidateSet], corpus: Corpus, config_label: str
) -> MetricsReport:
    """Score ``predictions`` against the corpus's gold."""
    per_type = score_per_type(corpus.gold, predictions)
    return MetricsReport(
        config_label=config_label,
        per_type=tuple(metrics_from_counts(counts) for counts in per_type),
        narrative_level=score_narrative_level(predictions, corpus),
    )


_CATEGORY_TITLES = {
    PiiCategory.NAME: "Name",
    PiiCategory.PHONE: "Phone Number",
    PiiCategory.EMAIL: "Email",
    PiiCategory.HOME_ADDRESS: "Home address",
    PiiCategory.ALPHANUMERIC: "Alphanumeric",
}


def _table_row(title: str, cells: Iterable[str]) -> str:
    return f"{title:<16} " + " ".join(f"{cell:>9}" for cell in cells)


def render_report(report: MetricsReport) -> str:
    """Plain-text metric table: one row per category plus the overall row."""
    overall = report.narrative_level
    rows = [
        (_CATEGORY_TITLES[entry.category], entry.precision, entry.recall, entry.f1, None)
        for entry in report.per_type
    ]
    rows.append(("Overall", overall.precision, overall.recall, overall.f1, overall.accuracy))
    header = _table_row("PII Category", ("Precision", "Recall", "F1-score", "Accuracy"))
    lines = [f"Model: {report.config_label}", header, "-" * len(header)]
    lines += [_table_row(title, map(format_ratio, values)) for title, *values in rows]
    return "\n".join(lines)


def report_to_dict(report: MetricsReport) -> dict:
    """Machine-readable report in dataclass field order, a per-type row
    being its category, counts and ratios; values are unrounded."""
    payload = asdict(report)
    for row in payload["per_type"]:
        row["category"] = row["category"].value
    return payload


def write_report(report: MetricsReport, json_path, text_path) -> None:
    """Write the JSON and text reports, creating their directories."""
    for path in (json_path, text_path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_json(json_path, report_to_dict(report))
    Path(text_path).write_text(render_report(report) + "\n", encoding="utf-8")


_ABLATION_TITLES = {
    PiiCategory.HOME_ADDRESS: "Home Address",
    PiiCategory.ALPHANUMERIC: "Alphanumeric Identifier",
}


def ablation_table(reports: list[MetricsReport]) -> str:
    """TP/FP/FN comparison across configurations for the ambiguous categories;
    each column reads its own report's rows, and a category it lacks reads ``-``."""
    if len(reports) < 2:
        raise ValueError("ablation_table needs at least two configurations")
    col_width = max(12, *(len(r.config_label) + 2 for r in reports))
    group_width = col_width * len(reports)
    rows = [{entry.category: entry for entry in report.per_type} for report in reports]

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
        cells = [
            f"{getattr(row[category], attr) if category in row else '-':^{col_width}}"
            for category in AMBIGUOUS_CATEGORIES
            for row in rows
        ]
        lines.append(f"{row_label:<8}" + "".join(cells))
    return "\n".join(lines)
