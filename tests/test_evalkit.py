from __future__ import annotations

import pytest

from crashdeid.corpus import Corpus, GoldAnnotation, Narrative
from crashdeid.evalkit import (
    MetricsReport,
    TypeCounts,
    ablation_table,
    build_report,
    f1_score,
    format_ratio,
    metrics_from_counts,
    render_report,
    report_to_dict,
    round_half_up,
    score_narrative_level,
    score_per_type,
    write_report,
)
from crashdeid.extract import Candidate, CandidateSet, SOURCE_LLM_SINGLE, SOURCE_RULE
from crashdeid.tags import PiiCategory

NAME = PiiCategory.NAME
HOME = PiiCategory.HOME_ADDRESS
ALNUM = PiiCategory.ALPHANUMERIC


def _pred(narrative_id: str, **by_cat) -> CandidateSet:
    mapping = {}
    for key, surfaces in by_cat.items():
        category = PiiCategory(key)
        source = SOURCE_RULE if category in (PiiCategory.PHONE, PiiCategory.EMAIL) else SOURCE_LLM_SINGLE
        mapping[category] = tuple(Candidate(s, source) for s in surfaces)
    return CandidateSet(narrative_id=narrative_id, by_category=mapping)


def _counts(results: list[TypeCounts], category: PiiCategory) -> TypeCounts:
    return next(c for c in results if c.category is category)


def test_worked_example_ten_gold_five_predicted_three_correct():
    # 10 gold names across narratives; 5 predictions, 3 of them correct.
    gold = [GoldAnnotation(f"n{i}", NAME, f"G{i}") for i in range(10)]
    predictions = {
        "n0": _pred("n0", name=["G0"]),
        "n1": _pred("n1", name=["G1"]),
        "n2": _pred("n2", name=["G2"]),
        "n3": _pred("n3", name=["WRONG-A"]),
        "n4": _pred("n4", name=["WRONG-B"]),
    }
    counts = _counts(score_per_type(gold, predictions), NAME)
    assert (counts.tp, counts.fp, counts.fn) == (3, 2, 7)
    metrics = metrics_from_counts(counts)
    assert metrics.precision == pytest.approx(0.6, abs=1e-9)
    assert metrics.recall == pytest.approx(0.3, abs=1e-9)
    assert metrics.f1 == pytest.approx(0.4, abs=1e-9)


def test_empty_gold_and_predictions_are_undefined():
    counts = _counts(score_per_type([], {}), NAME)
    assert (counts.tp, counts.fp, counts.fn) == (0, 0, 0)
    metrics = metrics_from_counts(counts)
    assert metrics.precision is None
    assert metrics.recall is None
    assert metrics.f1 is None
    assert format_ratio(metrics.precision) == "-"


def test_multiset_matching_counts_multiplicity():
    gold = [
        GoldAnnotation("n1", NAME, "JOHN"),
        GoldAnnotation("n1", NAME, "JOHN"),
    ]
    # Candidate sets hold one candidate per distinct surface, so one
    # prediction matches only one of the two gold instances.
    predictions = {"n1": _pred("n1", name=["JOHN"])}
    counts = _counts(score_per_type(gold, predictions), NAME)
    assert (counts.tp, counts.fp, counts.fn) == (1, 0, 1)


def test_matching_is_per_narrative():
    gold = [GoldAnnotation("n1", NAME, "JOHN")]
    predictions = {"n2": _pred("n2", name=["JOHN"])}
    counts = _counts(score_per_type(gold, predictions), NAME)
    assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)


def test_matching_is_exact_string():
    gold = [GoldAnnotation("n1", NAME, "JOHN SMITH")]
    predictions = {"n1": _pred("n1", name=["John Smith"])}
    counts = _counts(score_per_type(gold, predictions), NAME)
    assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)


def test_swapping_gold_and_predictions_swaps_fp_fn():
    gold = [
        GoldAnnotation("n1", NAME, "A"),
        GoldAnnotation("n1", NAME, "B"),
        GoldAnnotation("n2", NAME, "C"),
    ]
    predictions = {
        "n1": _pred("n1", name=["A", "X"]),
        "n3": _pred("n3", name=["Y"]),
    }
    forward = _counts(score_per_type(gold, predictions), NAME)
    swapped_gold = [
        GoldAnnotation(nid, NAME, surface)
        for nid, pred in predictions.items()
        for surface in pred.surfaces(NAME)
    ]
    swapped_predictions = {}
    for annotation in gold:
        existing = swapped_predictions.setdefault(annotation.narrative_id, [])
        existing.append(annotation.surface)
    swapped_predictions = {
        nid: _pred(nid, name=surfaces) for nid, surfaces in swapped_predictions.items()
    }
    backward = _counts(score_per_type(swapped_gold, swapped_predictions), NAME)
    assert backward.tp == forward.tp
    assert backward.fp == forward.fn
    assert backward.fn == forward.fp


def test_permutation_invariance():
    gold = [
        GoldAnnotation("n1", NAME, "A"),
        GoldAnnotation("n2", NAME, "B"),
        GoldAnnotation("n1", HOME, "123 ELM"),
    ]
    predictions = {
        "n1": _pred("n1", name=["A"], home_address=["123 ELM"]),
        "n2": _pred("n2", name=["WRONG"]),
    }
    forward = score_per_type(gold, predictions)
    backward = score_per_type(list(reversed(gold)), predictions)
    assert forward == backward


def test_half_up_rounding():
    assert round_half_up(0.625) == 0.63
    assert round_half_up(0.635) == 0.64
    assert round_half_up(5 / 11) == 0.45
    assert round_half_up(7 / 11) == 0.64
    assert round_half_up(50 / 90) == 0.56
    assert round_half_up(0.5552) == 0.56
    assert format_ratio(1.0) == "1.00"


@pytest.mark.parametrize(
    "tp,fp,fn,rounded",
    [
        (5, 2, 6, ("0.71", "0.45", "0.56")),
        (7, 0, 4, ("1.00", "0.64", "0.78")),
        (15, 13, 5, ("0.54", "0.75", "0.63")),
    ],
)
def test_ambiguous_category_rows_round_to_published_triples(tp, fp, fn, rounded):
    metrics = metrics_from_counts(TypeCounts(HOME, tp, fp, fn))
    assert (
        format_ratio(metrics.precision),
        format_ratio(metrics.recall),
        format_ratio(metrics.f1),
    ) == rounded


def test_f1_is_harmonic_mean():
    precision, recall = 0.82, 0.94
    f1 = f1_score(precision, recall)
    assert f1 == pytest.approx(2 / (1 / precision + 1 / recall), abs=1e-12)
    assert f1_score(None, 0.5) is None
    assert f1_score(0.0, 0.0) is None


def _corpus(n: int, gold: list[GoldAnnotation]) -> Corpus:
    return Corpus(
        narratives=tuple(Narrative(f"n{i}", f"TEXT {i}") for i in range(n)),
        gold=tuple(gold),
    )


def test_narrative_level_all_negative():
    corpus = _corpus(5, [])
    metrics = score_narrative_level({}, corpus)
    assert metrics.accuracy == 1.0
    assert metrics.precision is None
    assert metrics.recall is None
    assert metrics.tn == 5


def test_narrative_level_perfect_predictor():
    gold = [GoldAnnotation(f"n{i}", NAME, f"TEXT {i}") for i in range(20)]
    corpus = _corpus(100, gold)
    predictions = {f"n{i}": _pred(f"n{i}", name=[f"TEXT {i}"]) for i in range(20)}
    metrics = score_narrative_level(predictions, corpus)
    assert (
        metrics.precision,
        metrics.recall,
        metrics.f1,
        metrics.accuracy,
    ) == (1.0, 1.0, 1.0, 1.0)


def test_narrative_level_counts_mixed():
    gold = [GoldAnnotation("n0", NAME, "TEXT 0"), GoldAnnotation("n1", NAME, "TEXT 1")]
    corpus = _corpus(4, gold)
    predictions = {
        "n0": _pred("n0", name=["TEXT 0"]),   # true positive
        "n2": _pred("n2", name=["GHOST"]),    # false positive
        "n1": _pred("n1"),                    # empty prediction -> miss
    }
    metrics = score_narrative_level(predictions, corpus)
    assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (1, 1, 1, 1)
    assert metrics.accuracy == 0.5


def _report_from_counts(label: str, home: tuple, alnum: tuple) -> MetricsReport:
    from crashdeid.evalkit import NarrativeMetrics

    per_type = tuple(
        metrics_from_counts(TypeCounts(category, *values))
        for category, values in (
            (NAME, (0, 0, 0)),
            (PiiCategory.PHONE, (0, 0, 0)),
            (PiiCategory.EMAIL, (0, 0, 0)),
            (HOME, home),
            (ALNUM, alnum),
        )
    )
    narrative = NarrativeMetrics(0, 0, 0, 0, None, None, None, None)
    return MetricsReport(label, per_type, narrative)


# Two reports that share a label (one preset under two policies, say)
# still show their own counts.
@pytest.mark.parametrize(
    "labels", [("hybrid", "hybrid_ev"), ("hybrid", "hybrid")], ids=["two_labels", "one_label"]
)
def test_ablation_table_layout(labels):
    without = _report_from_counts(labels[0], (5, 2, 6), (13, 10, 7))
    with_ev = _report_from_counts(labels[1], (7, 0, 4), (15, 13, 5))
    table = ablation_table([without, with_ev])
    lines = table.splitlines()
    assert "Home Address" in lines[0] and "Alphanumeric Identifier" in lines[0]
    assert lines[1].count("hybrid") == 4  # two configs per category group
    tp_line, fp_line, fn_line = lines[2], lines[3], lines[4]
    assert tp_line.startswith("TP (↑)") and tp_line.split()[2:] == ["5", "7", "13", "15"]
    assert fp_line.startswith("FP (↓)") and fp_line.split()[2:] == ["2", "0", "10", "13"]
    assert fn_line.startswith("FN (↓)") and fn_line.split()[2:] == ["6", "4", "7", "5"]


def test_ablation_table_identical_configs_identical_columns():
    a = _report_from_counts("a", (5, 2, 6), (13, 10, 7))
    b = _report_from_counts("b", (5, 2, 6), (13, 10, 7))
    table = ablation_table([a, b])
    for line in table.splitlines()[2:]:
        values = line.split()[2:]
        assert values[0] == values[1] and values[2] == values[3]


def test_ablation_table_reads_a_dash_for_a_category_a_report_lacks():
    full = _report_from_counts("a", (5, 2, 6), (13, 10, 7))
    partial = MetricsReport(
        "b", tuple(e for e in full.per_type if e.category is not HOME), full.narrative_level
    )
    lines = ablation_table([full, partial]).splitlines()
    assert lines[2].split()[2:] == ["5", "-", "13", "13"]
    assert lines[4].split()[2:] == ["6", "-", "7", "7"]


def test_ablation_table_requires_two_configs():
    with pytest.raises(ValueError):
        ablation_table([_report_from_counts("only", (1, 1, 1), (1, 1, 1))])


def test_render_report_uses_dash_for_undefined():
    corpus = _corpus(2, [])
    report = build_report({}, corpus, "rules_only")
    text = render_report(report)
    assert "Model: rules_only" in text
    assert "-" in text
    assert "1.00" in text  # accuracy on the all-negative corpus


def test_narrative_level_on_large_constructed_fixture():
    # 500 narratives arranged so per-type counts are home (7,0,4) and
    # alphanumeric (15,13,5). Narrative-level expectations below are
    # hand-counted from the layout, not recomputed:
    #   gold-positive: n0..n10 and n20..n39            -> 31
    #   predicted-positive: n0..n6, n20..n34, n40..n52 -> 35
    #   TP 22, FP 13, FN 9, TN 456
    gold = [GoldAnnotation(f"n{i}", HOME, f"ADDR-{i}") for i in range(11)]
    gold += [GoldAnnotation(f"n{i}", ALNUM, f"ID-{i}") for i in range(20, 40)]
    corpus = Corpus(
        narratives=tuple(
            Narrative(f"n{i}", f"TEXT ADDR-{i} ID-{i} WRONG-{i}") for i in range(500)
        ),
        gold=tuple(gold),
    )
    predictions = {}
    for i in range(7):
        predictions[f"n{i}"] = _pred(f"n{i}", home_address=[f"ADDR-{i}"])
    for i in range(20, 35):
        predictions[f"n{i}"] = _pred(f"n{i}", alphanumeric=[f"ID-{i}"])
    for i in range(40, 53):
        predictions[f"n{i}"] = _pred(f"n{i}", alphanumeric=[f"WRONG-{i}"])
    counts = {c.category: c for c in score_per_type(corpus.gold, predictions)}
    assert (counts[HOME].tp, counts[HOME].fp, counts[HOME].fn) == (7, 0, 4)
    assert (counts[ALNUM].tp, counts[ALNUM].fp, counts[ALNUM].fn) == (15, 13, 5)
    metrics = score_narrative_level(predictions, corpus)
    assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (22, 13, 9, 456)
    assert metrics.precision == pytest.approx(22 / 35, abs=1e-12)
    assert metrics.recall == pytest.approx(22 / 31, abs=1e-12)
    assert metrics.f1 == pytest.approx(2 / 3, abs=1e-12)
    assert metrics.accuracy == pytest.approx(0.956, abs=1e-12)


def test_report_json_has_unrounded_values():
    gold = [GoldAnnotation("n0", HOME, "TEXT 0")] + [
        GoldAnnotation(f"n{i}", HOME, f"TEXT {i}") for i in range(1, 11)
    ]
    corpus = _corpus(11, gold)
    predictions = {f"n{i}": _pred(f"n{i}", home_address=[f"TEXT {i}"]) for i in range(7)}
    report = build_report(predictions, corpus, "hybrid_ev")
    payload = report_to_dict(report)
    row = next(r for r in payload["per_type"] if r["category"] == "home_address")
    assert row == {
        "category": "home_address",
        "tp": 7,
        "fp": 0,
        "fn": 4,
        "precision": 1.0,
        "recall": pytest.approx(7 / 11),
        "f1": pytest.approx(14 / 18),
    }


_REPORT_JSON = """\
{
  "config_label": "hybrid_ev",
  "per_type": [
    {
      "category": "name",
      "tp": 1,
      "fp": 1,
      "fn": 1,
      "precision": 0.5,
      "recall": 0.5,
      "f1": 0.5
    },
    {
      "category": "phone",
      "tp": 0,
      "fp": 0,
      "fn": 0,
      "precision": null,
      "recall": null,
      "f1": null
    },
    {
      "category": "email",
      "tp": 0,
      "fp": 0,
      "fn": 0,
      "precision": null,
      "recall": null,
      "f1": null
    },
    {
      "category": "home_address",
      "tp": 1,
      "fp": 0,
      "fn": 0,
      "precision": 1.0,
      "recall": 1.0,
      "f1": 1.0
    },
    {
      "category": "alphanumeric",
      "tp": 0,
      "fp": 0,
      "fn": 1,
      "precision": null,
      "recall": 0.0,
      "f1": null
    }
  ],
  "narrative_level": {
    "tp": 2,
    "fp": 1,
    "fn": 1,
    "tn": 1,
    "precision": 0.6666666666666666,
    "recall": 0.6666666666666666,
    "f1": 0.6666666666666666,
    "accuracy": 0.6
  }
}
"""

_REPORT_TEXT = """\
Model: hybrid_ev
PII Category     Precision    Recall  F1-score  Accuracy
--------------------------------------------------------
Name                  0.50      0.50      0.50         -
Phone Number             -         -         -         -
Email                    -         -         -         -
Home address          1.00      1.00      1.00         -
Alphanumeric             -      0.00         -         -
Overall               0.67      0.67      0.67      0.60
"""


def test_written_report_files_match_their_expected_bytes(tmp_path):
    # Pins key order, float spelling and the table layout of both files.
    gold = [
        GoldAnnotation("n0", NAME, "TEXT 0"),
        GoldAnnotation("n1", HOME, "TEXT 1"),
        GoldAnnotation("n1", NAME, "TEXT 1"),
        GoldAnnotation("n3", ALNUM, "TEXT 3"),
    ]
    predictions = {
        "n0": _pred("n0", name=["TEXT 0"]),
        "n1": _pred("n1", home_address=["TEXT 1"]),
        "n2": _pred("n2", name=["TEXT 2"]),
    }
    report = build_report(predictions, _corpus(5, gold), "hybrid_ev")
    write_report(report, tmp_path / "r" / "report.json", tmp_path / "r" / "report.txt")
    assert (tmp_path / "r" / "report.json").read_bytes() == _REPORT_JSON.encode()
    assert (tmp_path / "r" / "report.txt").read_bytes() == _REPORT_TEXT.encode()
