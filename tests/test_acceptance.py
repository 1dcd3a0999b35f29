"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

from __future__ import annotations

import itertools
import json
import random
import string
import time
from pathlib import Path

import pytest

from crashdeid.corpus import GoldAnnotation, Narrative
from crashdeid.evalkit import (
    TypeCounts,
    format_ratio,
    metrics_from_counts,
    score_per_type,
)
from crashdeid.extract import (
    Candidate,
    CandidateSet,
    EnsembleConfig,
    SOURCE_RULE,
    extract_ensemble,
    hybrid_extract,
)
from crashdeid.gateway import (
    BackendConfig,
    build_verifier_prompt,
    write_fixture_file,
)
from crashdeid.pipeline import PipelineConfig, run_pipeline
from crashdeid.rules import find_emails, find_phones
from crashdeid.tags import (
    PiiCategory,
    PiiSpan,
    detag_equals,
    parse_tagged,
    serialize_spans,
)
from crashdeid.verify import (
    UNCERTAIN,
    VerifierFormatError,
    VerifierPolicy,
    check_evidence,
    parse_verifier_output,
    verify_candidates,
)

from conftest import (
    extraction_entries,
    read_audit_log,
    review_obj,
    verifier_entries,
    verifier_json,
    write_corpus_jsonl,
)

HOME = PiiCategory.HOME_ADDRESS
ALNUM = PiiCategory.ALPHANUMERIC


def _report(number: int, title: str, failures: list, budget_s: float, elapsed: float):
    status = "PASS" if not failures and elapsed < budget_s else "FAIL"
    print(f"[acceptance] criterion {number} ({title}): {status} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.2f}s)"
    assert not failures, f"criterion {number}: {failures[:10]}"


def test_criterion_1_metric_arithmetic_fidelity():
    started = time.monotonic()
    failures = []
    gold = [GoldAnnotation(f"n{i}", PiiCategory.NAME, f"G{i}") for i in range(10)]
    predictions = {
        f"n{i}": CandidateSet(
            narrative_id=f"n{i}",
            by_category={
                PiiCategory.NAME: (
                    Candidate(f"G{i}" if i < 3 else f"BAD{i}", "llm_single"),
                )
            },
        )
        for i in range(5)
    }
    counts = next(
        c for c in score_per_type(gold, predictions) if c.category is PiiCategory.NAME
    )
    metrics = metrics_from_counts(counts)
    for label, got, expected in (
        ("precision", metrics.precision, 0.600),
        ("recall", metrics.recall, 0.300),
        ("f1", metrics.f1, 0.400),
    ):
        if got is None or abs(got - expected) > 1e-9:
            failures.append(f"{label}: got {got}, expected {expected}")
    _report(1, "metric arithmetic fidelity", failures, 1.0, time.monotonic() - started)


# (category, counts, expected printed triple) for both configurations.
TABLE_CONSISTENCY_CASES = [
    ("home_address w/o E+V", (5, 2, 6), ("0.71", "0.45", "0.56")),
    ("home_address w/ E+V", (7, 0, 4), ("1.00", "0.64", "0.78")),
    ("alphanumeric w/o E+V", (13, 10, 7), ("0.56", "0.65", "0.60")),
    ("alphanumeric w/ E+V", (15, 13, 5), ("0.54", "0.75", "0.63")),
]


def test_criterion_2_ablation_metric_consistency():
    started = time.monotonic()
    failures = []
    for label, (tp, fp, fn), expected in TABLE_CONSISTENCY_CASES:
        category = HOME if label.startswith("home") else ALNUM
        metrics = metrics_from_counts(TypeCounts(category, tp, fp, fn))
        got = (
            format_ratio(metrics.precision),
            format_ratio(metrics.recall),
            format_ratio(metrics.f1),
        )
        if got != expected:
            failures.append(f"{label}: got {got}, expected {expected}")
    _report(
        2, "ablation metric consistency", failures, 1.0, time.monotonic() - started
    )


FIG_TEXT = "UNIT 1 HIT THE DRIVEWAY OF 4647 HIGHWAY 47. UNIT 2 FLED THE SCENE."
FIG_TAGGED = "UNIT 1 HIT THE DRIVEWAY OF $$$4647 HIGHWAY 47$$$. UNIT 2 FLED THE SCENE."
FIG_CANDIDATE = "4647 HIGHWAY 47"
FIG_EVIDENCE = "UNIT 1 HIT THE DRIVEWAY OF 4647 HIGHWAY 47."


def test_criterion_3_fig_review_end_to_end(tmp_path):
    started = time.monotonic()
    failures = []
    corpus = write_corpus_jsonl(tmp_path / "c.jsonl", [{"id": "n1", "text": FIG_TEXT}])
    entries = extraction_entries(FIG_TEXT, {seed: FIG_TAGGED for seed in range(5)})
    entries += verifier_entries(
        FIG_TEXT,
        [FIG_CANDIDATE],
        [],
        [
            verifier_json(
                [
                    review_obj(
                        FIG_CANDIDATE,
                        "DROP",
                        "Crash location address, not a true residence/mailing address of a person.",
                        FIG_EVIDENCE,
                    )
                ],
                [],
            )
        ],
    )
    fixtures = tmp_path / "fx.jsonl"
    write_fixture_file(fixtures, entries)
    backend = BackendConfig(kind="scripted_mock", fixture_path=fixtures)
    out = tmp_path / "out"
    summary = run_pipeline(
        PipelineConfig(
            preset="hybrid_ev",
            extractor_backend=backend,
            verifier_backend=backend,
            seed=0,
        ),
        corpus,
        out,
    )
    if not summary.ok:
        failures.append(f"failed narratives: {summary.failed_narratives}")
    redacted = (out / "redacted.jsonl").read_text(encoding="utf-8")
    if f"$$${FIG_CANDIDATE}$$$" in redacted:
        failures.append("home-address tag present in final output")
    records = read_audit_log(out / "audit.jsonl")
    drops = [r for r in records if r.review.decision == "DROP"]
    if not drops:
        failures.append("no DROP decision in audit log")
    elif drops[0].review.evidence != FIG_EVIDENCE:
        failures.append(f"evidence mismatch: {drops[0].review.evidence!r}")
    _report(3, "review example end-to-end", failures, 5.0, time.monotonic() - started)


_WORDS = ["UNIT", "DRIVER", "STRUCK", "NORTH", "AT", "SCENE", "VEHICLE", "ROAD"]


def _make_valid_case(rng: random.Random):
    narrative = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(6, 14)))
    tokens = [f"CAND{i}{rng.choice(string.ascii_uppercase)}" for i in range(rng.randint(1, 4))]
    narrative += " " + " ".join(tokens)
    split = rng.randint(0, len(tokens))
    home, alnum = tokens[:split], tokens[split:]

    def make_review(text: str) -> dict:
        decision = rng.choice(["KEEP", "DROP", "UNCERTAIN"])
        if decision == "UNCERTAIN":
            return review_obj(text, decision, "unsure", "")
        words = narrative.split(" ")
        i = rng.randrange(len(words))
        j = rng.randint(i + 1, min(len(words), i + 4))
        return review_obj(text, decision, "because", " ".join(words[i:j]))

    home_reviews = [make_review(t) for t in home]
    alnum_reviews = [make_review(t) for t in alnum]
    return narrative, home, alnum, home_reviews, alnum_reviews


_VIOLATIONS = (
    "count_drop",
    "count_add",
    "reorder",
    "text_edit",
    "invented_review",
    "repeat_candidate",
    "keep_drop_empty_evidence",
    "uncertain_with_evidence",
    "bad_decision_token",
    "missing_field",
    "not_json",
    "keep_drop_nonsubstring_evidence",
    "empty_candidate_string",
)


def _inject(kind: str, rng: random.Random, home_reviews, alnum_reviews):
    reviews = home_reviews if home_reviews else alnum_reviews
    if kind == "count_drop":
        reviews.pop(rng.randrange(len(reviews)))
    elif kind == "count_add":
        reviews.append(dict(reviews[-1]))
    elif kind == "reorder":
        if len(reviews) < 2:
            reviews.append(review_obj("EXTRA1", "UNCERTAIN", "u", ""))
        reviews[0], reviews[-1] = reviews[-1], reviews[0]
    elif kind == "text_edit":
        reviews[0] = dict(reviews[0], text=reviews[0]["text"] + "X")
    elif kind == "invented_review":
        reviews.append(review_obj("INVENTED99", "UNCERTAIN", "u", ""))
    elif kind == "repeat_candidate":
        reviews.append(dict(reviews[0]))
    elif kind == "keep_drop_empty_evidence":
        reviews[0] = dict(reviews[0], decision="DROP", evidence="")
    elif kind == "uncertain_with_evidence":
        reviews[0] = dict(reviews[0], decision="UNCERTAIN", evidence="stray")
    elif kind == "bad_decision_token":
        reviews[0] = dict(reviews[0], decision="MAYBE")
    elif kind == "missing_field":
        broken = dict(reviews[0])
        del broken["reason"]
        reviews[0] = broken


def test_criterion_4_verifier_schema_conformance():
    started = time.monotonic()
    rng = random.Random(41)
    failures = []
    cases = 0
    # Sanity floor: well-formed outputs must be accepted.
    for _ in range(100):
        narrative, home, alnum, home_reviews, alnum_reviews = _make_valid_case(rng)
        completion = verifier_json(home_reviews, alnum_reviews)
        try:
            parse_verifier_output(completion, home, alnum)
        except VerifierFormatError as exc:
            failures.append(f"valid case rejected: {exc}")
    while cases < 1100:
        kind = _VIOLATIONS[cases % len(_VIOLATIONS)]
        narrative, home, alnum, home_reviews, alnum_reviews = _make_valid_case(rng)
        cases += 1
        if kind == "empty_candidate_string":
            try:
                build_verifier_prompt(narrative, home + [""], alnum)
                failures.append("empty candidate string accepted by prompt builder")
            except Exception:
                pass
            continue
        if kind == "keep_drop_nonsubstring_evidence":
            target = home_reviews if home_reviews else alnum_reviews
            target[0] = dict(
                target[0], decision="KEEP", evidence="NOT-IN-NARRATIVE-AT-ALL"
            )
            completion = verifier_json(home_reviews, alnum_reviews)
            output = parse_verifier_output(completion, home, alnum)
            checked = [
                check_evidence(r, narrative)
                for r in output[HOME] + output[ALNUM]
            ]
            bad = next(r for r in checked if r.text == target[0]["text"])
            if bad.decision != UNCERTAIN or bad.evidence != "":
                failures.append("non-substring evidence not demoted")
            continue
        if kind == "not_json":
            completion = verifier_json(home_reviews, alnum_reviews)[:-1]
        else:
            _inject(kind, rng, home_reviews, alnum_reviews)
            completion = verifier_json(home_reviews, alnum_reviews)
        try:
            parse_verifier_output(completion, home, alnum)
            failures.append(f"false accept for violation {kind}")
        except VerifierFormatError:
            pass
    assert cases >= 1000
    _report(
        4, "verifier schema conformance", failures, 30.0, time.monotonic() - started
    )


SAFE_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,-'/#ÉÑ"


def test_criterion_5_tag_protocol_round_trip():
    started = time.monotonic()
    rng = random.Random(20260515)
    categories = list(PiiCategory)
    failures = []
    for case in range(10_000):
        text = "".join(rng.choice(SAFE_ALPHABET) for _ in range(rng.randint(0, 70)))
        spans = []
        cursor = 0
        while cursor < len(text):
            start = rng.randint(cursor, len(text))
            end = rng.randint(start, min(len(text), start + 10))
            if end > start and rng.random() < 0.55:
                spans.append(PiiSpan(rng.choice(categories), start, end, text[start:end]))
                cursor = end
            else:
                cursor = start + 1
        tagged = serialize_spans(text, spans)
        round_tripped = parse_tagged(tagged)
        if round_tripped != (text, spans):
            failures.append(f"case {case}: round trip mismatch")
        if not detag_equals(tagged, text):
            failures.append(f"case {case}: detag equality failed")
        if len(tagged) != len(text) + 6 * len(spans):
            failures.append(f"case {case}: length conservation failed")
        if failures and len(failures) > 5:
            break
    _report(5, "tag protocol round trip", failures, 30.0, time.monotonic() - started)


def test_criterion_6_ensemble_union_semantics(tmp_path):
    started = time.monotonic()
    failures = []
    text = "IDS AA11 BB22 CC33 DD44 EE55 LISTED"
    narrative = Narrative("n1", text)
    family = [
        {"AA11"},
        {"AA11", "BB22"},
        set(),
        {"CC33", "DD44"},
        {"AA11", "EE55"},
    ]

    def tagged(surfaces: set[str]) -> str:
        out = text
        for surface in sorted(surfaces, key=text.index):
            out = out.replace(surface, f"^^^{surface}^^^")
        return out

    def brute_force(runs: list[set[str]]) -> dict[str, int]:
        votes: dict[str, int] = {}
        for produced in runs:
            for surface in produced:
                votes[surface] = votes.get(surface, 0) + 1
        return votes

    for subset_size in range(0, 6):
        for subset in itertools.combinations(range(5), subset_size):
            expected = brute_force([family[i] for i in subset])
            if not subset:
                if expected:
                    failures.append("empty subset should union to nothing")
                continue  # k_runs >= 1 by construction; nothing to execute
            fixtures = tmp_path / f"fx_{'_'.join(map(str, subset))}.jsonl"
            write_fixture_file(
                fixtures,
                extraction_entries(
                    text, {i: tagged(family[run]) for i, run in enumerate(subset)}
                ),
            )
            backend = BackendConfig(kind="scripted_mock", fixture_path=fixtures)
            result = extract_ensemble(
                narrative,
                backend,
                EnsembleConfig(k_runs=len(subset)),
                base_seed=0,
            )
            got = {c.surface: c.run_votes for c in result.by_category[ALNUM]}
            if got != expected:
                failures.append(f"subset {subset}: got {got}, expected {expected}")
    _report(6, "ensemble union semantics", failures, 10.0, time.monotonic() - started)


def _synthetic_narrative(i: int, rng: random.Random) -> tuple[Narrative, dict]:
    name = f"DRIVER{i} SMITH"
    phone = f"608-733-{7000 + i:04d}"
    email = f"user{i}@example{i}.com"
    address = f"{100 + i} ELM ST"
    plate = f"PL{i:03d}X"
    wants = {
        "name": rng.random() < 0.6,
        "phone": rng.random() < 0.4,
        "email": rng.random() < 0.25,
        "home": rng.random() < 0.45,
        "plate": rng.random() < 0.5,
    }
    parts = [f"UNIT 1 CRASHED AT MM {i} ON US-12."]
    if wants["name"]:
        parts.append(f"OPERATOR {name} WAS CITED.")
    if wants["phone"]:
        parts.append(f"CONTACT {phone}.")
    if wants["email"]:
        parts.append(f"STATEMENT SENT TO {email}.")
    if wants["home"]:
        parts.append(f"RESIDES AT {address}.")
    if wants["plate"]:
        parts.append(f"PLATE {plate} WI.")
    text = " ".join(parts)
    planted = {
        "name": name if wants["name"] else None,
        "phone": phone if wants["phone"] else None,
        "email": email if wants["email"] else None,
        "home": address if wants["home"] else None,
        "plate": plate if wants["plate"] else None,
    }
    return Narrative(f"n{i}", text), planted


def _tag_once(text: str, surface: str, delim: str) -> str:
    return text.replace(surface, f"{delim}{surface}{delim}", 1)


def test_criterion_7_split_and_scope_invariants(tmp_path):
    started = time.monotonic()
    rng = random.Random(7)
    failures = []
    k = 3
    narratives = []
    extraction_fixture_entries = []
    for i in range(200):
        narrative, planted = _synthetic_narrative(i, rng)
        narratives.append(narrative)
        for run in range(k):
            tagged = narrative.text
            if run == 1 and rng.random() < 0.1:
                # A hallucinated run: rewritten text must be discarded.
                entry_text = tagged.replace("UNIT 1", "UNIT ONE") + " EXTRA"
                extraction_fixture_entries.extend(
                    extraction_entries(narrative.text, {run: entry_text})
                )
                continue
            if planted["name"] and run == 0:
                tagged = _tag_once(tagged, planted["name"], "@@@")
            if planted["home"] and (run <= 1 or rng.random() < 0.5):
                tagged = _tag_once(tagged, planted["home"], "$$$")
            if planted["plate"] and (run == rng.randrange(k) or run == 2):
                tagged = _tag_once(tagged, planted["plate"], "^^^")
            if planted["phone"] and rng.random() < 0.5:
                # The model wrongly claims the rule-owned phone; the
                # responsibility split must suppress it.
                tagged = _tag_once(tagged, planted["phone"], "^^^")
            if planted["email"] and rng.random() < 0.3:
                tagged = _tag_once(tagged, planted["email"], "%%%")
            extraction_fixture_entries.extend(
                extraction_entries(narrative.text, {run: tagged})
            )
    extraction_path = tmp_path / "extract.jsonl"
    write_fixture_file(extraction_path, extraction_fixture_entries)
    extractor = BackendConfig(kind="scripted_mock", fixture_path=extraction_path)

    cfg = EnsembleConfig(k_runs=k)
    pre_verify: dict[str, CandidateSet] = {}
    verifier_fixture_entries = []
    decisions = ["KEEP", "DROP", "UNCERTAIN"]
    for narrative in narratives:
        candidates = hybrid_extract(narrative, extractor, cfg, base_seed=0)
        pre_verify[narrative.id] = candidates
        home = candidates.surfaces(HOME)
        alnum = candidates.surfaces(ALNUM)
        if not home and not alnum:
            continue

        def scripted_review(surface: str, index: int) -> dict:
            decision = decisions[index % 3]
            if decision == "UNCERTAIN":
                return review_obj(surface, decision, "unsure", "")
            return review_obj(surface, decision, "scripted", surface)

        completion = verifier_json(
            [scripted_review(s, i) for i, s in enumerate(home)],
            [scripted_review(s, i + 1) for i, s in enumerate(alnum)],
        )
        verifier_fixture_entries += verifier_entries(
            narrative.text, home, alnum, [completion]
        )
    verifier_path = tmp_path / "verify.jsonl"
    write_fixture_file(verifier_path, verifier_fixture_entries)
    verifier = BackendConfig(kind="scripted_mock", fixture_path=verifier_path)

    rule_sources = {SOURCE_RULE}
    for narrative in narratives:
        candidates = pre_verify[narrative.id]
        for category in (PiiCategory.PHONE, PiiCategory.EMAIL):
            for candidate in candidates.candidates(category):
                if candidate.source not in rule_sources:
                    failures.append(
                        f"{narrative.id}: {category.value} candidate from LLM"
                    )
        result = verify_candidates(
            narrative, candidates, verifier, VerifierPolicy.RECALL_FIRST
        )
        if result.degraded:
            failures.append(f"{narrative.id}: verifier degraded unexpectedly")
        for category in (PiiCategory.NAME, PiiCategory.PHONE, PiiCategory.EMAIL):
            if result.final.candidates(category) != candidates.candidates(category):
                failures.append(
                    f"{narrative.id}: {category.value} changed across verification"
                )
    _report(
        7, "responsibility split and verifier scope", failures, 30.0,
        time.monotonic() - started,
    )


def test_criterion_8_rule_recognizer_fixtures():
    started = time.monotonic()
    failures = []
    fixtures = json.loads(
        (Path(__file__).parent / "fixtures" / "rule_fixtures.json").read_text()
    )
    positives = [f for f in fixtures if f["matches"]]
    negatives = [f for f in fixtures if not f["matches"]]
    if len(positives) < 50:
        failures.append(f"only {len(positives)} positive fixtures")
    if len(negatives) < 50:
        failures.append(f"only {len(negatives)} negative fixtures")
    if not any("608-733-8366" in f["matches"] for f in positives):
        failures.append("canonical phone example missing")
    if not any("jsmith@gmail.com" in f["matches"] for f in positives):
        failures.append("canonical email example missing")
    for fixture in fixtures:
        finder = find_phones if fixture["category"] == "phone" else find_emails
        got = [m.span.surface for m in finder(fixture["text"])]
        if got != fixture["matches"]:
            failures.append(f"{fixture['text']!r}: got {got}, expected {fixture['matches']}")
    _report(8, "rule recognizer fixtures", failures, 1.0, time.monotonic() - started)


def test_criterion_9_determinism(tmp_path):
    started = time.monotonic()
    failures = []
    rng = random.Random(9)
    rows = []
    entries = []
    for i in range(25):
        narrative, planted = _synthetic_narrative(i, rng)
        rows.append({"id": narrative.id, "text": narrative.text})
        for run in range(5):
            tagged = narrative.text
            if planted["name"]:
                tagged = _tag_once(tagged, planted["name"], "@@@")
            if planted["home"] and run % 2 == 0:
                tagged = _tag_once(tagged, planted["home"], "$$$")
            if planted["plate"] and run % 3 == 0:
                tagged = _tag_once(tagged, planted["plate"], "^^^")
            entries += extraction_entries(narrative.text, {100 + run: tagged})
        home = [planted["home"]] if planted["home"] else []
        alnum = [planted["plate"]] if planted["plate"] else []
        if home or alnum:
            completion = verifier_json(
                [review_obj(s, "KEEP", "scripted", s) for s in home],
                [review_obj(s, "DROP", "scripted", s) for s in alnum],
            )
            entries += verifier_entries(narrative.text, home, alnum, [completion])
    corpus = write_corpus_jsonl(tmp_path / "c.jsonl", rows)
    fixtures = tmp_path / "fx.jsonl"
    write_fixture_file(fixtures, entries)
    backend = BackendConfig(kind="scripted_mock", fixture_path=fixtures)
    config = PipelineConfig(
        preset="hybrid_ev",
        extractor_backend=backend,
        verifier_backend=backend,
        seed=100,
        mask_timestamps=True,
        parallelism=4,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    summary_a = run_pipeline(config, corpus, out_a)
    summary_b = run_pipeline(config, corpus, out_b)
    if not summary_a.ok or not summary_b.ok:
        failures.append(
            f"runs failed: {summary_a.failed_narratives} {summary_b.failed_narratives}"
        )
    for name in ("redacted.jsonl", "audit.jsonl"):
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            failures.append(f"{name} differs between runs")
    _report(9, "determinism", failures, 10.0, time.monotonic() - started)
