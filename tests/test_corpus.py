from __future__ import annotations

import json
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashdeid.corpus import (
    Corpus,
    GoldAnnotation,
    MalformedRecord,
    Narrative,
    load_corpus,
    write_audit_log,
)
from crashdeid.tags import PiiCategory
from crashdeid.verify import AuditRecord, VerifierReview

from conftest import read_audit_log, write_corpus, write_corpus_jsonl


def test_load_minimal_jsonl(tmp_path):
    path = write_corpus_jsonl(tmp_path / "c.jsonl", [{"id": "n1", "text": "NO PII HERE"}])
    corpus = load_corpus(path)
    assert corpus.narratives == (Narrative("n1", "NO PII HERE"),)
    assert corpus.gold == ()


def test_load_preserves_order_and_bytes(tmp_path):
    rows = [
        {"id": "b", "text": "SECOND  WITH  SPACES\tAND TAB"},
        {"id": "a", "text": "FIRST"},
        {"id": "c", "text": "UNICODE ÉÑ…"},
    ]
    corpus = load_corpus(write_corpus_jsonl(tmp_path / "c.jsonl", rows))
    assert [n.id for n in corpus.narratives] == ["b", "a", "c"]
    assert [n.text for n in corpus.narratives] == [r["text"] for r in rows]


def test_duplicate_id_is_an_error_naming_the_id(tmp_path):
    path = write_corpus_jsonl(
        tmp_path / "c.jsonl",
        [{"id": "n1", "text": "A"}, {"id": "n1", "text": "B"}],
    )
    with pytest.raises(MalformedRecord, match="duplicate narrative id 'n1'"):
        load_corpus(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "n1", "text": "A"}\n{broken\n', encoding="utf-8")
    with pytest.raises(MalformedRecord, match=r"line 2: invalid JSON \("):
        load_corpus(path)
    path.write_text('{"id": "n1", "text": "A"}\n\n["n2", "B"]\n', encoding="utf-8")
    with pytest.raises(MalformedRecord, match="line 3: record is not an object"):
        load_corpus(path)


def test_missing_field_reports_field(tmp_path):
    path = write_corpus_jsonl(tmp_path / "c.jsonl", [{"id": "n1"}])
    with pytest.raises(MalformedRecord, match="text"):
        load_corpus(path)


def test_csv_round_trip(tmp_path):
    corpus = Corpus(
        narratives=(
            Narrative("n1", 'SAID "STOP", THEN FLED'),
            Narrative("n2", "LINE ONE\nLINE TWO, WITH COMMA"),
        )
    )
    path = tmp_path / "c.csv"
    write_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_a_csv_suffix_in_any_case_is_read_as_csv(tmp_path):
    path = tmp_path / "c.CSV"
    path.write_text("id,text\nn1,HELLO\n", encoding="utf-8")
    assert load_corpus(path).narratives == (Narrative("n1", "HELLO"),)
    with pytest.raises(MalformedRecord, match=r"line 1: invalid JSON \("):
        load_corpus(path, fmt="jsonl")


def test_csv_requires_id_and_text_columns(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,body\nn1,hello\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="header"):
        load_corpus(path)
    path.write_text("id,text\n1\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: line 2: field 'id' or 'text' missing"


def test_empty_narrative_id_is_refused(tmp_path):
    path = write_corpus_jsonl(tmp_path / "c.jsonl", [{"id": "", "text": "x"}])
    with pytest.raises(MalformedRecord) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: narrative with empty id"


BOM = "\ufeff".encode()


def test_csv_with_a_byte_order_mark_loads(tmp_path):
    # Excel's "CSV UTF-8" opens the file with a BOM; only that one is skipped.
    path = tmp_path / "c.csv"
    path.write_bytes(BOM + "id,text\nn1,CAF\u00c9 \ufeff KEPT\n".encode())
    assert load_corpus(path).narratives == (Narrative("n1", "CAF\u00c9 \ufeff KEPT"),)


def test_jsonl_corpus_and_gold_with_a_byte_order_mark_load(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(BOM + json.dumps({"id": "n1", "text": "JOHN \ufeff"}).encode() + b"\n")
    gold = tmp_path / "g.jsonl"
    record = {"narrative_id": "n1", "category": "name", "surface": "JOHN"}
    gold.write_bytes(BOM + json.dumps(record).encode() + b"\n")
    corpus = load_corpus(path, gold_path=gold)
    assert corpus.narratives == (Narrative("n1", "JOHN \ufeff"),)
    assert corpus.gold == (GoldAnnotation("n1", PiiCategory.NAME, "JOHN"),)


def test_csv_field_over_the_csv_module_limit_is_a_malformed_record(tmp_path):
    path = tmp_path / "c.csv"
    text = "X" * 200_000
    path.write_text(f"id,text\nn1,SHORT\nn2,{text}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=r"c\.csv: line 3: field larger than") as err:
        load_corpus(path)
    assert text[:100] not in str(err.value)


#: Latin-1 bytes for "CAFÉ": 0xc9 is not valid UTF-8 after "CAF".
LATIN1 = "CAFÉ".encode("latin-1")


@pytest.mark.parametrize(
    "name, content, line",
    [
        ("c.jsonl", b'{"id": "n1", "text": "OK"}\n\n{"id": "n2", "text": "' + LATIN1 + b'"}\n', 3),
        ("c.csv", b'id,text\r\nn1,"A\r\nB"\r\nn2,' + LATIN1 + b"\r\n", 4),
        ("c.csv", b"id,text\rn1,OK\rn2," + LATIN1 + b"\r", 3),
    ],
    ids=["jsonl", "csv-crlf", "csv-cr"],
)
def test_corpus_not_utf8_names_the_line_and_no_byte(tmp_path, name, content, line):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(MalformedRecord) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: line {line}: not valid UTF-8"


@pytest.mark.parametrize("field", ["id", "text"])
def test_corpus_lone_surrogate_escape_is_refused_at_load(tmp_path, field):
    # A JSON \ud800 escape decodes to a str no UTF-8 writer accepts: refused
    # here, the run would die while writing its outputs.
    rows = [{"id": "a", "text": "OK"}, {"id": "b", "text": "x 608-733-8366", field: "x\ud800y"}]
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: line 2: field {field!r} is not valid Unicode"


def test_gold_not_utf8_names_the_line_and_no_byte(tmp_path):
    path = write_corpus_jsonl(tmp_path / "c.jsonl", [{"id": "n1", "text": "CAFE"}])
    gold = tmp_path / "g.jsonl"
    good = json.dumps({"narrative_id": "n1", "category": "name", "surface": "CAFE"})
    gold.write_bytes(
        good.encode() + b"\n" + good.encode().replace(b"CAFE", LATIN1) + b"\n"
    )
    with pytest.raises(MalformedRecord) as err:
        load_corpus(path, gold_path=gold)
    assert str(err.value) == f"{gold}: line 2: not valid UTF-8"


def test_gold_errors(tmp_path):
    path = write_corpus_jsonl(tmp_path / "c.jsonl", [{"id": "n1", "text": "ABC"}])
    gold = tmp_path / "g.jsonl"
    gold.write_text(
        json.dumps({"narrative_id": "nX", "category": "name", "surface": "A"}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(
        MalformedRecord, match="line 1: field 'narrative_id' names no narrative"
    ) as err:
        load_corpus(path, gold_path=gold)
    assert "nX" not in str(err.value)
    gold.write_text(
        json.dumps({"narrative_id": "n1", "category": "name", "surface": "ZZZ"}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(
        MalformedRecord, match="line 1: field 'surface' does not occur in narrative 'n1'"
    ) as err:
        load_corpus(path, gold_path=gold)
    assert "ZZZ" not in str(err.value)
    # "" occurs in every text, but no candidate can ever match it.
    gold.write_text(
        json.dumps({"narrative_id": "n1", "category": "name", "surface": ""}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedRecord) as err:
        load_corpus(path, gold_path=gold)
    assert str(err.value) == f"{gold}: line 1: field 'surface' is empty"
    gold.write_text(
        json.dumps({"narrative_id": "n1", "category": "plate", "surface": "A"}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedRecord, match="category") as err:
        load_corpus(path, gold_path=gold)
    assert "plate" not in str(err.value)
    gold.write_text("\n{broken\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=r"line 2: invalid JSON \("):
        load_corpus(path, gold_path=gold)
    gold.write_text('"n1"\n', encoding="utf-8")
    with pytest.raises(MalformedRecord, match="line 1: record is not an object"):
        load_corpus(path, gold_path=gold)


# NUL is not expressible in the RFC 4180 CSV grammar (the csv module
# refuses it); JSONL carries it fine and is covered separately below.
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(_TEXT, max_size=6),
    fmt=st.sampled_from(["jsonl", "csv"]),
)
def test_write_then_load_round_trips(tmp_path_factory, texts, fmt):
    tmp = tmp_path_factory.mktemp("corpus")
    corpus = Corpus(
        narratives=tuple(Narrative(f"n{i}", text) for i, text in enumerate(texts)),
        gold=tuple(
            GoldAnnotation(f"n{i}", PiiCategory.NAME, text)
            for i, text in enumerate(texts)
            if text
        ),
    )
    path = tmp / ("c.csv" if fmt == "csv" else "c.jsonl")
    gold_path = write_corpus(corpus, path, fmt=fmt)
    assert load_corpus(path, fmt=fmt, gold_path=gold_path) == corpus


def test_jsonl_round_trips_control_characters(tmp_path):
    corpus = Corpus(narratives=(Narrative("n1", "NUL\x00TAB\tCR\r"),))
    path = tmp_path / "c.jsonl"
    write_corpus(corpus, path)
    assert load_corpus(path) == corpus


def _record(narrative_id: str, decision: str, evidence: str) -> AuditRecord:
    return AuditRecord(
        narrative_id=narrative_id,
        category=PiiCategory.HOME_ADDRESS,
        review=VerifierReview(
            text="4647 HIGHWAY 47",
            decision=decision,
            reason="Crash location address, not a true residence/mailing address of a person.",
            evidence=evidence,
        ),
        policy_applied="recall_first",
        final_action="removed" if decision == "DROP" else "retained",
        backend_id="mock:fixtures.jsonl",
        timestamp="2026-08-09T00:00:00Z",
    )


def test_write_audit_log_empty_is_noop(tmp_path):
    path = tmp_path / "audit.jsonl"
    write_audit_log(path, [])
    assert path.read_bytes() == b""


def test_write_audit_log_fig_drop_record(tmp_path):
    path = tmp_path / "audit.jsonl"
    write_audit_log(
        path, [_record("n1", "DROP", "UNIT 1 HIT THE DRIVEWAY OF 4647 HIGHWAY 47.")]
    )
    line = path.read_text(encoding="utf-8").strip()
    obj = json.loads(line)
    assert obj["decision"] == "DROP"
    assert obj["evidence"] == "UNIT 1 HIT THE DRIVEWAY OF 4647 HIGHWAY 47."
    assert list(obj) == [
        "narrative_id",
        "category",
        "text",
        "decision",
        "reason",
        "evidence",
        "policy_applied",
        "final_action",
        "backend_id",
        "timestamp",
    ]


def test_audit_log_round_trip_and_deterministic_bytes(tmp_path):
    records = [
        _record("n1", "DROP", "UNIT 1 HIT THE DRIVEWAY OF 4647 HIGHWAY 47."),
        _record("n2", "KEEP", "LIVES AT 123 ELM STREET"),
        _record("n3", "UNCERTAIN", ""),
    ]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_audit_log(first, records)
    write_audit_log(second, records)
    assert read_audit_log(first) == records
    assert first.read_bytes() == second.read_bytes()
    # Writing again replaces the file with the same bytes.
    write_audit_log(first, records)
    assert first.read_bytes() == second.read_bytes()


def test_audit_log_is_owner_only_also_where_it_replaces_a_world_readable_one(tmp_path):
    records = [_record("n1", "DROP", "UNIT 1 HIT THE DRIVEWAY OF 4647 HIGHWAY 47.")]
    fresh = tmp_path / "fresh.jsonl"
    earlier = tmp_path / "audit.jsonl"
    earlier.write_text("EARLIER\n")
    earlier.chmod(0o644)
    umask = os.umask(0o022)
    try:
        write_audit_log(fresh, records)
        with earlier.open() as reader:  # opened while the old log was readable
            write_audit_log(earlier, records)
            assert reader.read() == "EARLIER\n"
    finally:
        os.umask(umask)
    for path in (fresh, earlier):
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert earlier.read_bytes() == fresh.read_bytes()
    assert read_audit_log(earlier) == records
