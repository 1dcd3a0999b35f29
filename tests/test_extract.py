from __future__ import annotations

import itertools
import sys
import threading
import time

import pytest

from crashdeid import extract, gateway
from crashdeid.corpus import Narrative
from crashdeid.extract import (
    AllRunsFailed,
    Candidate,
    CandidateSet,
    EnsembleConfig,
    SOURCE_LLM_ENSEMBLE,
    SOURCE_LLM_SINGLE,
    SOURCE_RULE,
    SingleRun,
    extract_ensemble,
    extract_single_run,
    hybrid_extract,
    rule_candidates,
)
from crashdeid.tags import PiiCategory, TagError

from conftest import extraction_entries, http_probe, mock_backend


def test_candidate_set_enforces_responsibility_split():
    with pytest.raises(
        ValueError, match="^phone candidate from non-owning source 'llm_single' in narrative 'n1'$"
    ):
        CandidateSet(
            narrative_id="n1",
            by_category={
                PiiCategory.PHONE: (Candidate("608-733-8366", SOURCE_LLM_SINGLE),)
            },
        )
    with pytest.raises(
        ValueError, match="^name candidate from non-owning source 'rule' in narrative 'n1'$"
    ):
        CandidateSet(
            narrative_id="n1",
            by_category={PiiCategory.NAME: (Candidate("JOHN", SOURCE_RULE),)},
        )


def test_candidate_set_leaves_the_dict_it_was_given_unchanged():
    given = {PiiCategory.NAME: (Candidate("JOHN", SOURCE_LLM_SINGLE),)}
    candidates = CandidateSet(narrative_id="n1", by_category=given)
    assert given == {PiiCategory.NAME: (Candidate("JOHN", SOURCE_LLM_SINGLE),)}
    assert candidates.by_category is not given
    assert list(candidates.by_category) == list(PiiCategory)
    assert candidates.candidates(PiiCategory.PHONE) == ()
    assert candidates.surfaces(PiiCategory.NAME) == ["JOHN"]


def test_candidate_set_rejects_duplicate_surfaces():
    with pytest.raises(ValueError, match="duplicate"):
        CandidateSet(
            narrative_id="n1",
            by_category={
                PiiCategory.NAME: (
                    Candidate("JOHN", SOURCE_LLM_SINGLE),
                    Candidate("JOHN", SOURCE_LLM_SINGLE),
                )
            },
        )


@pytest.mark.parametrize(
    "category,candidates",
    [
        (PiiCategory.PHONE, (Candidate("608-733-8366", SOURCE_LLM_SINGLE),)),
        (PiiCategory.NAME, (Candidate("JOHN SMITH", SOURCE_RULE),)),
        (PiiCategory.NAME, (Candidate("JOHN SMITH", SOURCE_LLM_SINGLE),) * 2),
    ],
)
def test_candidate_set_messages_name_no_surface(category, candidates):
    with pytest.raises(ValueError) as raised:
        CandidateSet(narrative_id="n1", by_category={category: candidates})
    message = str(raised.value)
    assert candidates[0].surface not in message
    assert category.value in message
    assert repr(candidates[0].source) in message and "'n1'" in message


def test_candidate_set_rejects_empty_surface():
    # An empty surface occurs everywhere: render would claim it forever.
    with pytest.raises(ValueError, match="empty name surface in narrative 'a'"):
        CandidateSet("a", {PiiCategory.NAME: (Candidate("", SOURCE_LLM_SINGLE),)})


def test_single_run_parses_name(tmp_path):
    narrative = Narrative("n1", "UNIT 1 DRIVER JOHN SMITH FLED")
    backend = mock_backend(
        tmp_path,
        extraction_entries(
            narrative.text, {None: "UNIT 1 DRIVER @@@JOHN SMITH@@@ FLED"}
        ),
    )
    run = extract_single_run(narrative, backend, readings={})
    assert not run.hallucinated
    assert [(s.category, s.surface) for s in run.spans] == [
        (PiiCategory.NAME, "JOHN SMITH")
    ]


def test_single_run_untagged_echo_is_clean(tmp_path):
    narrative = Narrative("n1", "NO PII HERE")
    backend = mock_backend(
        tmp_path, extraction_entries(narrative.text, {None: "NO PII HERE"})
    )
    assert extract_single_run(narrative, backend, readings={}) == ([], False)


def test_single_run_discards_rewritten_text(tmp_path):
    narrative = Narrative("n1", "DRIVER JOHN SMITH FLED")
    backend = mock_backend(
        tmp_path,
        extraction_entries(narrative.text, {None: "DRIVER @@@JON SMITH@@@ FLED"}),
    )
    run = extract_single_run(narrative, backend, readings={})
    assert run == ([], True)


def test_ensemble_drops_rule_owned_tags(tmp_path):
    narrative = Narrative("n1", "CALL 608-733-8366 FOR JOHN")
    tagged = "CALL &&&608-733-8366&&& FOR @@@JOHN@@@"
    backend = mock_backend(tmp_path, extraction_entries(narrative.text, {0: tagged, 1: tagged}))
    # A run reads every tag of its completion; only the LLM-owned ones are pooled.
    run = extract_single_run(narrative, backend, seed=0, readings={})
    assert [(s.category, s.surface) for s in run.spans] == [
        (PiiCategory.PHONE, "608-733-8366"), (PiiCategory.NAME, "JOHN")
    ]
    for k in (1, 2):
        result = extract_ensemble(narrative, backend, EnsembleConfig(k_runs=k), base_seed=0)
        assert list(result.by_category) == [
            PiiCategory.NAME, PiiCategory.HOME_ADDRESS, PiiCategory.ALPHANUMERIC
        ]
        assert [c.surface for c in result.by_category[PiiCategory.NAME]] == ["JOHN"]
    llm_only = hybrid_extract(narrative, backend, EnsembleConfig(k_runs=2), base_seed=0,
                              rules=False)
    assert llm_only.surfaces(PiiCategory.PHONE) == []
    assert llm_only.surfaces(PiiCategory.NAME) == ["JOHN"]


def test_single_run_unparseable_tagging_counts_as_hallucinated(tmp_path):
    narrative = Narrative("n1", "SOME TEXT")
    # Balanced pair of different categories nested: detag holds, parse fails.
    backend = mock_backend(
        tmp_path, extraction_entries(narrative.text, {None: "@@@SOME $$$TE$$$XT@@@"})
    )
    assert extract_single_run(narrative, backend, readings={}) == ([], True)


def test_single_run_whose_parse_differs_from_the_narrative_is_hallucinated(tmp_path):
    narrative = Narrative("n1", "Driver Ann at home")
    # Deleting the delimiters gives the narrative back; the parse does not.
    backend = mock_backend(
        tmp_path, extraction_entries(narrative.text, {None: "Driver &@@@&&Ann&@@@&& at home"})
    )
    assert extract_single_run(narrative, backend, readings={}) == SingleRun([], True)


def _ensemble_fixture(tmp_path, narrative, tagged_by_run, k=None):
    """Scripted runs: seed i -> tagged_by_run[i]."""
    return mock_backend(
        tmp_path,
        extraction_entries(
            narrative.text,
            {i: tagged for i, tagged in enumerate(tagged_by_run)},
        ),
    )


HOME = PiiCategory.HOME_ADDRESS
ALNUM = PiiCategory.ALPHANUMERIC


def test_ensemble_union_votes(tmp_path):
    text = "HE LIVES AT 123 ELM ST NEAR 77 OAK AVE"
    narrative = Narrative("n1", text)
    runs = [
        "HE LIVES AT $$$123 ELM ST$$$ NEAR 77 OAK AVE",
        text,
        "HE LIVES AT $$$123 ELM ST$$$ NEAR $$$77 OAK AVE$$$",
        "HE LIVES AT $$$123 ELM ST$$$ NEAR 77 OAK AVE",
        text,
    ]
    backend = _ensemble_fixture(tmp_path, narrative, runs)
    result = extract_ensemble(
        narrative, backend, EnsembleConfig(k_runs=5), base_seed=0
    )
    candidates = {c.surface: c.run_votes for c in result.by_category[HOME]}
    assert candidates == {"123 ELM ST": 3, "77 OAK AVE": 1}
    assert all(c.source == SOURCE_LLM_ENSEMBLE for c in result.by_category[HOME])
    assert 5 - result.runs_failed - result.runs_discarded == 5


def test_ensemble_k1_equals_single_run(tmp_path):
    text = "PLATE ^^^ABC1234^^^ SEEN"
    narrative = Narrative("n1", "PLATE ABC1234 SEEN")
    backend = mock_backend(
        tmp_path,
        extraction_entries(narrative.text, {0: "PLATE ^^^ABC1234^^^ SEEN", None: "PLATE ^^^ABC1234^^^ SEEN"}),
    )
    ensemble = extract_ensemble(
        narrative, backend, EnsembleConfig(k_runs=1), base_seed=0
    )
    single = extract_single_run(narrative, backend, readings={})
    assert {c.surface for c in ensemble.by_category[ALNUM]} == {
        s.surface for s in single.spans
    }


def test_ensemble_all_runs_empty(tmp_path):
    narrative = Narrative("n1", "NOTHING HERE")
    backend = _ensemble_fixture(tmp_path, narrative, ["NOTHING HERE"] * 3)
    result = extract_ensemble(narrative, backend, EnsembleConfig(k_runs=3), base_seed=0)
    assert result.by_category[HOME] == ()
    assert result.by_category[ALNUM] == ()


def test_ensemble_all_runs_failed(tmp_path):
    narrative = Narrative("n1", "TEXT")
    backend = mock_backend(tmp_path, [])  # no fixture entries at all
    with pytest.raises(AllRunsFailed):
        extract_ensemble(narrative, backend, EnsembleConfig(k_runs=3), base_seed=0)



def test_ensemble_all_runs_discarded(tmp_path):
    narrative = Narrative("n1", "JOHN AT 123 ELM ST")
    backend = _ensemble_fixture(tmp_path, narrative, ["JOHN AT 123 ELM STREET"] * 3)
    # No run can be trusted, so an empty candidate set would emit the text raw.
    with pytest.raises(AllRunsFailed):
        extract_ensemble(narrative, backend, EnsembleConfig(k_runs=3), base_seed=0)

def test_ensemble_partial_failures_reduce_effective_count(tmp_path):
    narrative = Narrative("n1", "AT 123 ELM ST")
    backend = mock_backend(
        tmp_path,
        extraction_entries(
            narrative.text,
            {0: "AT $$$123 ELM ST$$$", 2: "AT $$$123 ELM ST$$$"},
        ),
    )  # seed 1 missing -> run 2 fails
    result = extract_ensemble(narrative, backend, EnsembleConfig(k_runs=3), base_seed=0)
    assert result.runs_failed == 1
    assert 3 - result.runs_failed - result.runs_discarded == 2
    assert {c.surface: c.run_votes for c in result.by_category[HOME]} == {
        "123 ELM ST": 2
    }


def test_ensemble_discards_hallucinated_runs(tmp_path):
    narrative = Narrative("n1", "AT 123 ELM ST")
    runs = ["AT $$$123 ELM ST$$$", "AT $$123 ELM ST", "AT $$$123 ELM ST$$$"]
    backend = _ensemble_fixture(tmp_path, narrative, runs)
    result = extract_ensemble(narrative, backend, EnsembleConfig(k_runs=3), base_seed=0)
    assert result.runs_discarded == 1
    assert {c.surface: c.run_votes for c in result.by_category[HOME]} == {
        "123 ELM ST": 2
    }
    effective_runs = 3 - result.runs_failed - result.runs_discarded
    assert all(c.run_votes <= effective_runs for c in result.by_category[HOME])


def test_ensemble_names_come_from_run_one_only(tmp_path):
    text = "JOHN AND MARY CRASHED"
    narrative = Narrative("n1", text)
    runs = [
        "@@@JOHN@@@ AND MARY CRASHED",
        "JOHN AND @@@MARY@@@ CRASHED",
        "JOHN AND @@@MARY@@@ CRASHED",
    ]
    backend = _ensemble_fixture(tmp_path, narrative, runs)
    result = extract_ensemble(narrative, backend, EnsembleConfig(k_runs=3), base_seed=0)
    names = result.by_category[PiiCategory.NAME]
    assert [c.surface for c in names] == ["JOHN"]
    assert names[0].source == SOURCE_LLM_SINGLE


def _count_reads(monkeypatch) -> list[str]:
    """Record every completion read at the binding extract_single_run uses."""
    reads: list[str] = []
    real = extract.read_tagged

    def counted(tagged, text):
        reads.append(tagged)
        return real(tagged, text)

    monkeypatch.setattr(extract, "read_tagged", counted)
    return reads


def test_ensemble_reads_each_distinct_completion_once(tmp_path, monkeypatch):
    text = "JOHN LIVES AT 123 ELM ST NEAR 77 OAK AVE, PLATE ABC1234"
    narrative = Narrative("n1", text)
    repeated = "@@@JOHN@@@ LIVES AT $$$123 ELM ST$$$ NEAR 77 OAK AVE, PLATE ^^^ABC1234^^^"
    runs = [
        repeated,
        "JOHN LIVES AT 123 ELM ST NEAR $$$77 OAK AVE$$$, PLATE ABC1234",
        repeated,
        "@@@JOHN@@@ LIVES AT $$$123 ELM ST$$$ NEAR 77 OAK AVE, PLATE ABC1234",
        repeated,
    ]
    backend = _ensemble_fixture(tmp_path, narrative, runs)
    reads = _count_reads(monkeypatch)
    # Without a shared table every call reads its completion: five reads.
    singles = [extract_single_run(narrative, backend, seed=i, readings={}) for i in range(5)]
    assert reads == runs
    reads.clear()
    result = extract_ensemble(narrative, backend, EnsembleConfig(k_runs=5), base_seed=0)
    assert reads == runs[:2] + runs[3:4]
    for category in (HOME, ALNUM):
        produced = [{s.surface for s in run.spans if s.category is category} for run in singles]
        got = {c.surface: c.run_votes for c in result.by_category[category]}
        assert got == brute_force_union(produced)
    assert {c.surface: c.run_votes for c in result.by_category[HOME]} == {
        "123 ELM ST": 4,
        "77 OAK AVE": 1,
    }
    assert [(c.surface, c.run_votes) for c in result.by_category[ALNUM]] == [("ABC1234", 3)]
    assert [c.surface for c in result.by_category[PiiCategory.NAME]] == ["JOHN"]
    assert (result.runs_failed, result.runs_discarded) == (0, 0)


def test_ensemble_counts_every_repeat_of_a_hallucinated_completion(tmp_path, monkeypatch):
    narrative = Narrative("n1", "AT 123 ELM ST")
    rewritten = "AT $$$123 ELM STREET$$$"
    runs = ["AT $$$123 ELM ST$$$", rewritten, rewritten, "AT 123 ELM ST", rewritten]
    backend = _ensemble_fixture(tmp_path, narrative, runs)
    reads = _count_reads(monkeypatch)
    result = extract_ensemble(narrative, backend, EnsembleConfig(k_runs=5), base_seed=0)
    assert reads == runs[:2] + runs[3:4]
    assert (result.runs_failed, result.runs_discarded) == (0, 3)
    assert {c.surface: c.run_votes for c in result.by_category[HOME]} == {"123 ELM ST": 1}


HTTP_RUNS = [
    "HE LIVES AT $$$123 ELM ST$$$ NEAR 77 OAK AVE, PLATE ^^^ABC1234^^^",
    "HE LIVES AT 123 ELM ST NEAR $$$77 OAK AVE$$$, PLATE ABC1234",
    "@@@HE@@@ LIVES AT $$$123 ELM ST$$$ NEAR 77 OAK AVE, PLATE ABC1234",
    "HE LIVES AT $$$123 ELM ST$$$ NEAR 77 OAK AVE, PLATE ^^^ABC1234^^^",
    "HE LIVES AT $$123 ELM ST NEAR 77 OAK AVE, PLATE ABC1234",
]
HTTP_TEXT = "HE LIVES AT 123 ELM ST NEAR 77 OAK AVE, PLATE ABC1234"


def _http_ensemble(monkeypatch, failing=frozenset()):
    """An HTTP backend whose fake server answers seed i with HTTP_RUNS[i]
    (any narrative: the text is echoed back tagged where it matches
    HTTP_TEXT) after 10 ms x (5 - i), so later seeds answer first; seeds in
    ``failing`` get a connection error. Returns the backend and the peak
    in-flight count."""

    def respond(payload):
        seed = payload["seed"]
        time.sleep(0.01 * (5 - seed))
        if seed in failing:
            raise ConnectionRefusedError("refused")
        text = payload["messages"][1]["content"]
        return HTTP_RUNS[seed] if text == HTTP_TEXT else text

    post, peak = http_probe(respond)
    monkeypatch.setattr(gateway, "_http_post", post)
    backend = gateway.BackendConfig(
        kind="http_endpoint",
        endpoint_url="http://127.0.0.1:9/v1/chat/completions",
        retries=0,
    )
    return backend, peak


def test_http_ensemble_overlaps_runs_and_merges_in_seed_order(tmp_path, monkeypatch):
    narrative = Narrative("n1", HTTP_TEXT)
    backend, peak = _http_ensemble(monkeypatch)
    result = extract_ensemble(narrative, backend, EnsembleConfig(k_runs=5), base_seed=0)
    assert 2 <= peak[0] <= gateway.MAX_IN_FLIGHT
    in_order = mock_backend(
        tmp_path, extraction_entries(HTTP_TEXT, dict(enumerate(HTTP_RUNS)))
    )
    expected = extract_ensemble(narrative, in_order, EnsembleConfig(k_runs=5), base_seed=0)
    assert result == expected
    assert result.runs_discarded == 1
    assert {c.surface: c.run_votes for c in result.by_category[HOME]} == {
        "123 ELM ST": 3,
        "77 OAK AVE": 1,
    }
    # Names come from seed 0 alone, not from seed 2, which answers first.
    assert result.by_category[PiiCategory.NAME] == ()


def test_http_ensemble_limit_holds_across_narrative_threads(monkeypatch):
    backend, peak = _http_ensemble(monkeypatch)
    narratives = [Narrative("n1", HTTP_TEXT), Narrative("n2", "NO PII HERE")]
    results = {}

    def tag(narrative):
        results[narrative.id] = extract_ensemble(
            narrative, backend, EnsembleConfig(k_runs=5), base_seed=0
        )

    threads = [threading.Thread(target=tag, args=(n,)) for n in narratives]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert 2 <= peak[0] <= gateway.MAX_IN_FLIGHT
    assert {c.surface for c in results["n1"].by_category[HOME]} == {
        "123 ELM ST",
        "77 OAK AVE",
    }
    assert not any(results["n2"].by_category.values())


def test_http_ensemble_counts_failed_runs(monkeypatch):
    backend, _ = _http_ensemble(monkeypatch, failing={1, 3})
    result = extract_ensemble(
        Narrative("n1", HTTP_TEXT), backend, EnsembleConfig(k_runs=5), base_seed=0
    )
    effective_runs = 5 - result.runs_failed - result.runs_discarded
    assert (result.runs_failed, result.runs_discarded, effective_runs) == (2, 1, 2)
    assert {c.surface: c.run_votes for c in result.by_category[HOME]} == {"123 ELM ST": 2}


def test_http_ensemble_all_runs_failed(monkeypatch):
    backend, _ = _http_ensemble(monkeypatch, failing=set(range(5)))
    with pytest.raises(AllRunsFailed):
        extract_ensemble(
            Narrative("n1", HTTP_TEXT), backend, EnsembleConfig(k_runs=5), base_seed=0
        )


def test_overlapped_runs_share_readings_without_changing_the_result(tmp_path, monkeypatch):
    # A lone narrative's K runs overlap on fan_out's threads and share one
    # table of readings; however they interleave, the result is the
    # one-after-another result, and no completion is read more than once
    # per run that returned it.
    narrative = Narrative("n1", HTTP_TEXT)
    runs = [HTTP_RUNS[0], HTTP_RUNS[1], HTTP_RUNS[0], HTTP_RUNS[4], HTTP_RUNS[0]]

    def respond(payload):
        time.sleep(0.005)
        return runs[payload["seed"]]

    post, peak = http_probe(respond)
    monkeypatch.setattr(gateway, "_http_post", post)
    backend = gateway.BackendConfig(
        kind="http_endpoint", endpoint_url="http://127.0.0.1:9/v1/chat/completions", retries=0
    )
    in_order = mock_backend(tmp_path, extraction_entries(HTTP_TEXT, dict(enumerate(runs))))
    expected = extract_ensemble(narrative, in_order, EnsembleConfig(k_runs=5), base_seed=0)
    reads = _count_reads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(30):
            reads.clear()
            result = extract_ensemble(narrative, backend, EnsembleConfig(k_runs=5), base_seed=0)
            assert result == expected
            assert set(reads) == set(runs) and len(reads) <= len(runs)
    finally:
        sys.setswitchinterval(interval)
    assert 2 <= peak[0] <= gateway.MAX_IN_FLIGHT
    assert (expected.runs_failed, expected.runs_discarded) == (0, 1)
    assert {c.surface: c.run_votes for c in expected.by_category[HOME]} == {
        "123 ELM ST": 3,
        "77 OAK AVE": 1,
    }


def brute_force_union(run_outputs: list[set[str]]) -> dict[str, int]:
    """Independent union-with-votes computation."""
    votes: dict[str, int] = {}
    for produced in run_outputs:
        for surface in sorted(produced):
            votes[surface] = votes.get(surface, 0) + 1
    return votes


def test_ensemble_union_matches_brute_force_over_all_subsets(tmp_path):
    text = "IDS AA11 BB22 CC33 DD44 EE55 LISTED"
    narrative = Narrative("n1", text)
    per_run_surfaces = [
        {"AA11"},
        {"AA11", "BB22"},
        set(),
        {"CC33", "DD44"},
        {"AA11", "EE55"},
    ]

    def tag(surfaces: set[str]) -> str:
        tagged = text
        for surface in sorted(surfaces, key=text.index):
            tagged = tagged.replace(surface, f"^^^{surface}^^^")
        return tagged

    for subset_size in range(1, 6):
        for subset in itertools.combinations(range(5), subset_size):
            runs = [tag(per_run_surfaces[i]) for i in subset]
            backend = _ensemble_fixture(tmp_path, narrative, runs)
            result = extract_ensemble(
                narrative,
                backend,
                EnsembleConfig(k_runs=len(subset)),
                base_seed=0,
            )
            got = {c.surface: c.run_votes for c in result.by_category[ALNUM]}
            assert got == brute_force_union([per_run_surfaces[i] for i in subset])


def test_rule_candidates_dedupe_and_offsets():
    text = "CALL 608-733-8366 OR 608-733-8366 OR jsmith@gmail.com"
    out = rule_candidates(text)
    phones = out[PiiCategory.PHONE]
    assert [(c.surface, c.run_votes) for c in phones] == [("608-733-8366", 1)]
    assert out[PiiCategory.EMAIL][0].surface == "jsmith@gmail.com"
    assert all(c.source == SOURCE_RULE for c in phones)


def test_hybrid_extract_routes_by_category(tmp_path):
    text = "CALL 608-733-8366 FOR JOHN SMITH AT 123 ELM ST"
    narrative = Narrative("n1", text)
    runs = [
        "CALL 608-733-8366 FOR @@@JOHN SMITH@@@ AT $$$123 ELM ST$$$",
    ] * 5
    backend = _ensemble_fixture(tmp_path, narrative, runs)
    candidates = hybrid_extract(narrative, backend, EnsembleConfig(), base_seed=0)
    assert candidates.surfaces(PiiCategory.PHONE) == ["608-733-8366"]
    assert candidates.surfaces(PiiCategory.NAME) == ["JOHN SMITH"]
    assert candidates.surfaces(HOME) == ["123 ELM ST"]
    assert candidates.candidates(PiiCategory.PHONE)[0].source == SOURCE_RULE
    assert candidates.candidates(HOME)[0].source == SOURCE_LLM_ENSEMBLE


def test_hybrid_extract_suppresses_llm_duplicates_of_rule_matches(tmp_path):
    text = "CALL 608-733-8366 NOW"
    narrative = Narrative("n1", text)
    # The model mislabels the phone (and a fragment of it) as alphanumeric.
    runs = ["CALL ^^^608-733-8366^^^ NOW"] * 2 + ["CALL 608-^^^733-8366^^^ NOW"] * 3
    backend = _ensemble_fixture(tmp_path, narrative, runs)
    candidates = hybrid_extract(narrative, backend, EnsembleConfig(), base_seed=0)
    assert candidates.surfaces(PiiCategory.PHONE) == ["608-733-8366"]
    assert candidates.surfaces(ALNUM) == []


def test_hybrid_extract_empty_narrative_categories(tmp_path):
    text = "NO PII IN THIS ONE"
    narrative = Narrative("n1", text)
    backend = _ensemble_fixture(tmp_path, narrative, [text] * 5)
    candidates = hybrid_extract(narrative, backend, EnsembleConfig(), base_seed=0)
    assert candidates.total() == 0


def test_hybrid_extract_skips_llm_for_delimiter_flagged_text(tmp_path):
    text = "WEIRD @@@ SOURCE WITH 608-733-8366"
    narrative = Narrative("n1", text)
    backend = mock_backend(tmp_path, [])  # any LLM call would fail loudly
    # The tag protocol cannot carry this text, and rule candidates alone
    # would leave its contextual PII in clear: the narrative must fail.
    with pytest.raises(TagError):
        hybrid_extract(narrative, backend, EnsembleConfig(), base_seed=0)
    # Without an LLM channel nothing is tagged, so the rules still run.
    candidates = hybrid_extract(narrative, None, EnsembleConfig())
    assert candidates.surfaces(PiiCategory.PHONE) == ["608-733-8366"]
    assert candidates.surfaces(PiiCategory.NAME) == []


def test_hybrid_extract_without_rules_builds_llm_only_set(tmp_path):
    text = "DRIVER JOHN SMITH CALLED 608-733-8366 AT 12 ELM ST"
    narrative = Narrative("n1", text)
    backend = mock_backend(
        tmp_path,
        extraction_entries(
            text,
            {None: "DRIVER @@@JOHN SMITH@@@ CALLED &&&608-733-8366&&& AT $$$12 ELM ST$$$"},
        ),
    )
    single_run = EnsembleConfig(k_runs=1)
    candidates = hybrid_extract(narrative, backend, single_run, rules=False)
    assert candidates.surfaces(PiiCategory.NAME) == ["JOHN SMITH"]
    assert candidates.surfaces(HOME) == ["12 ELM ST"]
    assert candidates.surfaces(PiiCategory.PHONE) == []
    assert {c.source for c in candidates.candidates(HOME)} == {SOURCE_LLM_SINGLE}


def test_ensemble_monotonicity_supersets(tmp_path):
    text = "IDS AA11 BB22 CC33 LISTED"
    narrative = Narrative("n1", text)
    runs = [
        "IDS ^^^AA11^^^ BB22 CC33 LISTED",
        "IDS AA11 ^^^BB22^^^ CC33 LISTED",
        "IDS AA11 BB22 ^^^CC33^^^ LISTED",
    ]
    surfaces_at_k = []
    for k in (1, 2, 3):
        backend = _ensemble_fixture(tmp_path, narrative, runs[:k])
        result = extract_ensemble(
            narrative, backend, EnsembleConfig(k_runs=k), base_seed=0
        )
        surfaces_at_k.append({c.surface for c in result.by_category[ALNUM]})
    assert surfaces_at_k[0] <= surfaces_at_k[1] <= surfaces_at_k[2]
