from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crashdeid.corpus import Narrative
from crashdeid.extract import Candidate, CandidateSet, SOURCE_LLM_ENSEMBLE, SOURCE_RULE
from crashdeid.tags import PiiCategory
from crashdeid.verify import (
    AuditRecord,
    DEMOTION_NOTE,
    UNGROUNDED_DROP_NOTE,
    VerifierFormatError,
    VerifierPolicy,
    VerifierReview,
    check_evidence,
    parse_verifier_output,
    verify_candidates,
)

from conftest import (
    audit_record_from_json_line,
    mock_backend,
    review_obj,
    verifier_entries,
    verifier_json,
)

HOME = PiiCategory.HOME_ADDRESS
ALNUM = PiiCategory.ALPHANUMERIC

FIG_CANDIDATE = "4647 HIGHWAY 47"
FIG_EVIDENCE = "UNIT 1 HIT THE DRIVEWAY OF 4647 HIGHWAY 47."
FIG_REASON = "Crash location address, not a true residence/mailing address of a person."


def fig_completion() -> str:
    return verifier_json(
        [review_obj(FIG_CANDIDATE, "DROP", FIG_REASON, FIG_EVIDENCE)], []
    )


def test_parse_fig_review():
    output = parse_verifier_output(fig_completion(), [FIG_CANDIDATE], [])
    assert output == {
        HOME: (VerifierReview(FIG_CANDIDATE, "DROP", FIG_REASON, FIG_EVIDENCE),),
        ALNUM: (),
    }


def test_parse_empty_candidates_empty_reviews():
    output = parse_verifier_output(
        '{"home_address_reviews": [], "alphanumeric_reviews": []}', [], []
    )
    assert output == {HOME: (), ALNUM: ()}


_WRONG_KEYS = (
    "completion must have exactly the keys home_address_reviews and alphanumeric_reviews"
)


@pytest.mark.parametrize(
    "completion,message",
    [
        ("not json at all", "completion is not valid JSON"),
        ("[1, 2]", "completion is not a JSON object"),
        ('{"home_address_reviews": []}', _WRONG_KEYS),
        (
            '{"home_address_reviews": [], "alphanumeric_reviews": [], "extra": 1}',
            _WRONG_KEYS,
        ),
        (
            '{"home_address_reviews": {}, "alphanumeric_reviews": []}',
            "home_address_reviews is not a list",
        ),
    ],
)
def test_parse_rejects_top_level_shape(completion, message):
    with pytest.raises(VerifierFormatError, match=f"^{message}$"):
        parse_verifier_output(completion, [], [])


def test_parse_rejects_a_review_that_is_not_an_object():
    completion = '{"home_address_reviews": [1], "alphanumeric_reviews": []}'
    with pytest.raises(VerifierFormatError) as err:
        parse_verifier_output(completion, ["X"], [])
    assert str(err.value) == "home_address_reviews[0] is not an object"


def test_parse_rejects_wrong_decision_token():
    completion = verifier_json([review_obj("X", "MAYBE", evidence="X")], [])
    with pytest.raises(
        VerifierFormatError,
        match=r"^home_address_reviews\[0\]\.decision is 'MAYBE', expected KEEP, DROP or UNCERTAIN$",
    ):
        parse_verifier_output(completion, ["X"], [])


_WRONG_FIELDS = re.escape(
    "home_address_reviews[0] must have exactly the fields text, decision, reason, evidence"
)


def test_parse_rejects_missing_and_extra_review_fields():
    broken = {"text": "X", "decision": "KEEP", "reason": "r"}
    completion = json.dumps(
        {"home_address_reviews": [broken], "alphanumeric_reviews": []}
    )
    with pytest.raises(VerifierFormatError, match=_WRONG_FIELDS):
        parse_verifier_output(completion, ["X"], [])
    extra = review_obj("X", "KEEP", evidence="X") | {"confidence": 0.9}
    completion = json.dumps(
        {"home_address_reviews": [extra], "alphanumeric_reviews": []}
    )
    with pytest.raises(VerifierFormatError, match=_WRONG_FIELDS):
        parse_verifier_output(completion, ["X"], [])


def test_schema_error_names_the_same_field_under_every_hash_seed():
    # Every field is bad; the repair prompt and the degraded audit reason
    # quote this message, so it must not depend on string hashing.
    script = (
        "import json\n"
        "from crashdeid.verify import VerifierFormatError, parse_verifier_output\n"
        "review = dict(text=1, decision=2, reason=3, evidence=4)\n"
        "completion = json.dumps("
        "{'home_address_reviews': [review], 'alphanumeric_reviews': []})\n"
        "try:\n"
        "    parse_verifier_output(completion, ['X'], [])\n"
        "except VerifierFormatError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    messages = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        messages.add(done.stdout)
    assert messages == {"home_address_reviews[0].text is not a string\n"}


def test_parse_rejects_keep_drop_without_evidence():
    for decision in ("KEEP", "DROP"):
        completion = verifier_json([review_obj("X", decision, evidence="")], [])
        with pytest.raises(
            VerifierFormatError,
            match=rf"^home_address_reviews\[0\] has decision {decision} without evidence$",
        ):
            parse_verifier_output(completion, ["X"], [])


def test_parse_rejects_uncertain_with_evidence():
    completion = verifier_json([review_obj("X", "UNCERTAIN", evidence="Y")], [])
    with pytest.raises(
        VerifierFormatError,
        match=r"^home_address_reviews\[0\] is UNCERTAIN but carries non-empty evidence$",
    ):
        parse_verifier_output(completion, ["X"], [])


def test_parse_rejects_empty_review_text():
    completion = verifier_json([review_obj("", "KEEP", evidence="E")], [])
    with pytest.raises(
        VerifierFormatError, match=r"^home_address_reviews\[0\]\.text is an empty string$"
    ):
        parse_verifier_output(completion, ["X"], [])


def test_parse_rejects_count_mismatch_both_directions():
    completion = verifier_json([], [])
    with pytest.raises(
        VerifierFormatError, match="^home_address_reviews has 0 reviews for 1 candidates$"
    ):
        parse_verifier_output(completion, ["X"], [])
    completion = verifier_json(
        [review_obj("X", "KEEP", evidence="X"), review_obj("X", "KEEP", evidence="X")],
        [],
    )
    with pytest.raises(
        VerifierFormatError, match="^home_address_reviews has 2 reviews for 1 candidates$"
    ):
        parse_verifier_output(completion, ["X"], [])


def test_parse_rejects_reordered_reviews():
    completion = verifier_json(
        [review_obj("B", "KEEP", evidence="B"), review_obj("A", "KEEP", evidence="A")],
        [],
    )
    with pytest.raises(
        VerifierFormatError,
        match=r"^home_address_reviews\[0\]\.text 'B' does not equal candidate 'A'$",
    ):
        parse_verifier_output(completion, ["A", "B"], [])


def test_parse_rejects_edited_candidate_text():
    completion = verifier_json(
        [review_obj("4647 HWY 47", "DROP", evidence=FIG_EVIDENCE)], []
    )
    with pytest.raises(
        VerifierFormatError,
        match=r"^home_address_reviews\[0\]\.text '4647 HWY 47' does not equal candidate ",
    ):
        parse_verifier_output(completion, [FIG_CANDIDATE], [])


def test_parse_rejects_invented_review():
    completion = verifier_json(
        [review_obj(FIG_CANDIDATE, "DROP", evidence=FIG_EVIDENCE)],
        [review_obj("NOT A CANDIDATE", "KEEP", evidence="X")],
    )
    with pytest.raises(
        VerifierFormatError, match="^alphanumeric_reviews has 1 reviews for 0 candidates$"
    ):
        parse_verifier_output(completion, [FIG_CANDIDATE], [])


def test_check_evidence_passes_verbatim(fig_narrative):
    review = VerifierReview(FIG_CANDIDATE, "DROP", FIG_REASON, FIG_EVIDENCE)
    assert check_evidence(review, fig_narrative) == review


def test_check_evidence_demotes_paraphrase(fig_narrative):
    review = VerifierReview(
        FIG_CANDIDATE, "KEEP", "r", "UNIT ONE STRUCK THE DRIVEWAY"
    )
    demoted = check_evidence(review, fig_narrative)
    assert demoted.decision == "UNCERTAIN"
    assert demoted.evidence == ""
    assert DEMOTION_NOTE in demoted.reason


def test_check_evidence_demotes_a_drop_whose_evidence_omits_the_candidate(fig_narrative):
    drop = VerifierReview(FIG_CANDIDATE, "DROP", FIG_REASON, "UNIT 1 HIT THE DRIVEWAY")
    demoted = check_evidence(drop, fig_narrative)
    assert (demoted.decision, demoted.evidence) == ("UNCERTAIN", "")
    assert demoted.reason == f"{FIG_REASON} {UNGROUNDED_DROP_NOTE}"
    keep = VerifierReview(FIG_CANDIDATE, "KEEP", FIG_REASON, "UNIT 1 HIT THE DRIVEWAY")
    assert check_evidence(keep, fig_narrative) == keep


def test_check_evidence_leaves_conformant_uncertain(fig_narrative):
    review = VerifierReview(FIG_CANDIDATE, "UNCERTAIN", "r", "")
    assert check_evidence(review, fig_narrative) == review


FINAL_ACTIONS = [
    ("KEEP", VerifierPolicy.RECALL_FIRST, "retained"),
    ("KEEP", VerifierPolicy.PRECISION_FIRST, "retained"),
    ("DROP", VerifierPolicy.RECALL_FIRST, "removed"),
    ("DROP", VerifierPolicy.PRECISION_FIRST, "removed"),
    ("UNCERTAIN", VerifierPolicy.RECALL_FIRST, "retained"),
    ("UNCERTAIN", VerifierPolicy.PRECISION_FIRST, "removed"),
]


@pytest.mark.parametrize(
    "decision,policy,expected",
    FINAL_ACTIONS,
    ids=[f"{d}-policy{i}-{e}" for i, (d, _, e) in enumerate(FINAL_ACTIONS)],
)
def test_final_action_truth_table(tmp_path, fig_narrative, decision, policy, expected):
    evidence = "" if decision == "UNCERTAIN" else FIG_EVIDENCE
    completion = verifier_json([review_obj(FIG_CANDIDATE, decision, evidence=evidence)], [])
    backend = mock_backend(
        tmp_path, verifier_entries(fig_narrative, [FIG_CANDIDATE], [], [completion])
    )
    candidates = CandidateSet(
        narrative_id="n1",
        by_category={HOME: (Candidate(FIG_CANDIDATE, SOURCE_LLM_ENSEMBLE, 1),)},
    )
    result = verify_candidates(Narrative("n1", fig_narrative), candidates, backend, policy)
    (record,) = result.audit
    assert not result.degraded
    assert (record.review.decision, record.final_action) == (decision, expected)
    assert result.final.surfaces(HOME) == ([FIG_CANDIDATE] if expected == "retained" else [])


#: Holds the phone and the plate of ``_candidate_set``, so evidence is verbatim.
TWO_CATEGORY_TEXT = "UNIT 1 HIT THE DRIVEWAY OF 4647 HIGHWAY 47. PLATE AB1234. CALL 608-733-8366."


def _candidate_set() -> CandidateSet:
    return CandidateSet(
        narrative_id="n1",
        by_category={
            PiiCategory.PHONE: (Candidate("608-733-8366", SOURCE_RULE),),
            HOME: (Candidate(FIG_CANDIDATE, SOURCE_LLM_ENSEMBLE, 3),),
            ALNUM: (Candidate("AB1234", SOURCE_LLM_ENSEMBLE, 1),),
        },
    )


def _verify_two_categories(tmp_path, home_review, alnum_review, policy):
    backend = mock_backend(
        tmp_path,
        verifier_entries(
            TWO_CATEGORY_TEXT, [FIG_CANDIDATE], ["AB1234"],
            [verifier_json([home_review], [alnum_review])],
        ),
    )
    return verify_candidates(
        Narrative("n1", TWO_CATEGORY_TEXT), _candidate_set(), backend, policy,
        timestamp_fn=lambda: "t",
    )


def test_verify_candidates_drop_removes_and_audits(tmp_path):
    result = _verify_two_categories(
        tmp_path,
        review_obj(FIG_CANDIDATE, "DROP", FIG_REASON, FIG_EVIDENCE),
        review_obj("AB1234", "KEEP", "plate", "AB1234"),
        VerifierPolicy.RECALL_FIRST,
    )
    assert result.final.surfaces(HOME) == []
    assert result.final.surfaces(ALNUM) == ["AB1234"]
    assert result.final.surfaces(PiiCategory.PHONE) == ["608-733-8366"]
    by_text = {record.review.text: record for record in result.audit}
    assert by_text[FIG_CANDIDATE].final_action == "removed"
    assert by_text["AB1234"].final_action == "retained"
    assert all(r.policy_applied == "recall_first" for r in result.audit)
    assert all(r.backend_id == "mock:mock.jsonl" and r.timestamp == "t" for r in result.audit)


def test_verify_candidates_all_keep_is_identity(tmp_path):
    result = _verify_two_categories(
        tmp_path,
        review_obj(FIG_CANDIDATE, "KEEP", evidence=FIG_CANDIDATE),
        review_obj("AB1234", "KEEP", evidence="AB1234"),
        VerifierPolicy.RECALL_FIRST,
    )
    assert result.final.by_category == _candidate_set().by_category
    assert len(result.audit) == 2


def test_verify_candidates_uncertain_follows_policy(tmp_path):
    reviews = (review_obj(FIG_CANDIDATE, "UNCERTAIN"), review_obj("AB1234", "UNCERTAIN"))
    result = _verify_two_categories(tmp_path, *reviews, VerifierPolicy.RECALL_FIRST)
    assert result.final.surfaces(HOME) == [FIG_CANDIDATE]
    result = _verify_two_categories(tmp_path, *reviews, VerifierPolicy.PRECISION_FIRST)
    assert result.final.surfaces(HOME) == []


def test_verify_candidates_short_circuits_when_ambiguous_empty(tmp_path):
    narrative = Narrative("n1", "CALL 608-733-8366")
    candidates = CandidateSet(
        narrative_id="n1",
        by_category={PiiCategory.PHONE: (Candidate("608-733-8366", SOURCE_RULE),)},
    )
    backend = mock_backend(tmp_path, [])  # would raise MissingFixture if called
    result = verify_candidates(
        narrative, candidates, backend, VerifierPolicy.RECALL_FIRST
    )
    assert result.final == candidates
    assert result.audit == []
    assert not result.degraded


def test_verify_candidates_fig_scenario(tmp_path, fig_narrative):
    narrative = Narrative("n1", fig_narrative)
    candidates = CandidateSet(
        narrative_id="n1",
        by_category={HOME: (Candidate(FIG_CANDIDATE, SOURCE_LLM_ENSEMBLE, 5),)},
    )
    backend = mock_backend(
        tmp_path,
        verifier_entries(fig_narrative, [FIG_CANDIDATE], [], [fig_completion()]),
    )
    result = verify_candidates(
        narrative, candidates, backend, VerifierPolicy.RECALL_FIRST
    )
    assert result.final.surfaces(HOME) == []
    (record,) = result.audit
    assert record.review.decision == "DROP"
    assert record.review.evidence == FIG_EVIDENCE
    assert not result.degraded


def test_verify_candidates_repair_loop_recovers(tmp_path, fig_narrative):
    narrative = Narrative("n1", fig_narrative)
    candidates = CandidateSet(
        narrative_id="n1",
        by_category={HOME: (Candidate(FIG_CANDIDATE, SOURCE_LLM_ENSEMBLE, 2),)},
    )
    responses = [
        "garbage",  # not JSON
        verifier_json([], []),  # count mismatch
        fig_completion(),  # valid on the third parse
    ]
    backend = mock_backend(
        tmp_path, verifier_entries(fig_narrative, [FIG_CANDIDATE], [], responses)
    )
    result = verify_candidates(
        narrative, candidates, backend, VerifierPolicy.RECALL_FIRST
    )
    assert result.final.surfaces(HOME) == []
    assert not result.degraded


def test_verify_candidates_exhausted_repairs_fall_back_uncertain(
    tmp_path, fig_narrative
):
    narrative = Narrative("n1", fig_narrative)
    candidates = CandidateSet(
        narrative_id="n1",
        by_category={
            HOME: (Candidate(FIG_CANDIDATE, SOURCE_LLM_ENSEMBLE, 2),),
            ALNUM: (Candidate("UNIT 1", SOURCE_LLM_ENSEMBLE, 1),),
        },
    )
    responses = ["bad", "still bad", "yet again bad"]
    backend = mock_backend(
        tmp_path, verifier_entries(fig_narrative, [FIG_CANDIDATE], ["UNIT 1"], responses)
    )
    result = verify_candidates(
        narrative, candidates, backend, VerifierPolicy.RECALL_FIRST
    )
    # Recall-first: everything retained rather than silently dropped.
    assert result.degraded
    assert result.final.surfaces(HOME) == [FIG_CANDIDATE]
    assert result.final.surfaces(ALNUM) == ["UNIT 1"]
    assert all(r.review.decision == "UNCERTAIN" for r in result.audit)
    assert all(
        r.policy_applied == "recall_first+uncertain_fallback" for r in result.audit
    )


def test_verify_candidates_transport_failure_falls_back(tmp_path, fig_narrative):
    narrative = Narrative("n1", fig_narrative)
    candidates = CandidateSet(
        narrative_id="n1",
        by_category={HOME: (Candidate(FIG_CANDIDATE, SOURCE_LLM_ENSEMBLE, 1),)},
    )
    backend = mock_backend(tmp_path, [])  # MissingFixture acts as backend failure
    result = verify_candidates(
        narrative, candidates, backend, VerifierPolicy.PRECISION_FIRST
    )
    assert result.degraded
    # Nothing grounds a removal: even precision-first retains a degraded review.
    assert result.final.surfaces(HOME) == [FIG_CANDIDATE]
    (record,) = result.audit
    assert (record.policy_applied, record.final_action) == (
        "precision_first+uncertain_fallback", "retained"
    )


def test_verifier_never_touches_rule_categories(tmp_path, fig_narrative):
    narrative = Narrative("n1", fig_narrative + " CALL 608-733-8366")
    candidates = CandidateSet(
        narrative_id="n1",
        by_category={
            PiiCategory.PHONE: (Candidate("608-733-8366", SOURCE_RULE),),
            HOME: (Candidate(FIG_CANDIDATE, SOURCE_LLM_ENSEMBLE, 1),),
        },
    )
    backend = mock_backend(
        tmp_path,
        verifier_entries(narrative.text, [FIG_CANDIDATE], [], [fig_completion()]),
    )
    result = verify_candidates(
        narrative, candidates, backend, VerifierPolicy.RECALL_FIRST
    )
    assert result.final.candidates(PiiCategory.PHONE) == candidates.candidates(
        PiiCategory.PHONE
    )
    assert result.final.candidates(PiiCategory.NAME) == ()
    # Verifier never adds candidates.
    for category in (HOME, ALNUM):
        assert set(result.final.surfaces(category)) <= set(
            candidates.surfaces(category)
        )


def test_audit_record_json_round_trip():
    record = AuditRecord(
        narrative_id="n1",
        category=HOME,
        review=VerifierReview(FIG_CANDIDATE, "DROP", FIG_REASON, FIG_EVIDENCE),
        policy_applied="recall_first",
        final_action="removed",
        backend_id="mock:f.jsonl",
        timestamp="2026-08-09T00:00:00Z",
    )
    assert audit_record_from_json_line(record.to_json_line()) == record
