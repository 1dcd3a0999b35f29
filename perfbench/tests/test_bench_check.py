import json

import pytest

import gen
from check import check_outputs, file_digest, tagged_spans


@pytest.fixture
def long_run(tmp_path, run_pipeline):
    data = tmp_path / "data"
    gen.generate_long(data, 2, narratives=6)
    run_pipeline(data, tmp_path / "out", "rules_only")
    return data, tmp_path / "out"


def _rewrite(path, edit):
    rows = [json.loads(line) for line in path.open()]
    rows = edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def test_clean_outputs_pass(long_run):
    data, out = long_run
    assert check_outputs(data / "corpus.jsonl", data / "expect.jsonl", out) == []


def test_unredacted_planted_phone_is_rejected(long_run):
    data, out = long_run
    phone = json.loads((data / "expect.jsonl").open().readline())["keep"][0][1]

    def untag(rows):
        rows[0]["redacted_text"] = rows[0]["redacted_text"].replace(f"&&&{phone}&&&", phone)
        return rows

    _rewrite(out / "redacted.jsonl", untag)
    errors = check_outputs(data / "corpus.jsonl", data / "expect.jsonl", out)
    assert any("planted phone is not inside a phone tag" in e for e in errors)


def test_dropped_id_is_rejected(long_run):
    data, out = long_run
    _rewrite(out / "redacted.jsonl", lambda rows: rows[1:])
    errors = check_outputs(data / "corpus.jsonl", data / "expect.jsonl", out)
    assert any("do not cover the input ids" in e for e in errors)


def test_tagged_distractor_is_rejected(long_run):
    data, out = long_run
    token = json.loads((data / "expect.jsonl").open().readline())["drop"][0]

    def tag(rows):
        rows[0]["redacted_text"] = rows[0]["redacted_text"].replace(token, f"^^^{token}^^^", 1)
        return rows

    _rewrite(out / "redacted.jsonl", tag)
    errors = check_outputs(data / "corpus.jsonl", data / "expect.jsonl", out)
    assert any("dropped distractor is tagged" in e for e in errors)


def test_tagged_spans_rejects_malformed_tagging():
    assert tagged_spans("a &&&1&&& b") == ("a 1 b", [(2, 3, "phone")])
    for bad in ("a &&&1", "&&&a %%%b&&&"):
        with pytest.raises(ValueError):
            tagged_spans(bad)


def test_audit_digest_ignores_backend_id(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(json.dumps({"text": "x", "backend_id": "mock:f"}) + "\n")
    b.write_text(json.dumps({"text": "x", "backend_id": "http:default@u"}) + "\n")
    assert file_digest(a) != file_digest(b)
    assert file_digest(a, drop_field="backend_id") == file_digest(b, drop_field="backend_id")
    assert file_digest(tmp_path / "missing.jsonl") == "absent"


@pytest.fixture
def hybrid_run(tmp_path, run_pipeline):
    data = tmp_path / "data"
    gen.generate_hybrid(data, 6, narratives=60)
    run_pipeline(data, tmp_path / "out", "hybrid_ev",
                 {"kind": "scripted_mock", "fixture_path": str(data / "fixtures.jsonl")})
    delimited = next(json.loads(line) for line in (data / "expect.jsonl").open()
                     if json.loads(line)["if_emitted"] is not None)
    return data, tmp_path / "out", delimited


def _emit(out, expect, redacted_text):
    """Rewrite the outputs as if render had emitted ``expect``'s narrative."""
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["failed_narratives"] = [i for i in manifest["failed_narratives"] if i != expect["id"]]
    (out / "manifest.json").write_text(json.dumps(manifest))
    _rewrite(out / "redacted.jsonl",
             lambda rows: [r for r in rows if r["id"] != expect["id"]]
             + [{"id": expect["id"], "redacted_text": redacted_text}])


def test_delimited_narrative_may_be_refused_or_emitted(hybrid_run):
    data, out, delimited = hybrid_run
    assert check_outputs(data / "corpus.jsonl", data / "expect.jsonl", out) == []
    _emit(out, delimited, delimited["if_emitted"])
    assert check_outputs(data / "corpus.jsonl", data / "expect.jsonl", out) == []


def test_delimited_narrative_emitted_wrongly_is_rejected(hybrid_run):
    data, out, delimited = hybrid_run
    phone = next(s for c, s in delimited["keep"] if c == "phone")
    _emit(out, delimited, delimited["if_emitted"].replace(f"&&&{phone}&&&", phone))
    errors = check_outputs(data / "corpus.jsonl", data / "expect.jsonl", out)
    assert any("only its phone and email tagged" in e for e in errors)


def test_refused_plain_narrative_is_rejected(hybrid_run):
    data, out, delimited = hybrid_run
    manifest = json.loads((out / "manifest.json").read_text())
    victim = json.loads((out / "redacted.jsonl").open().readline())["id"]
    manifest["failed_narratives"].append(victim)
    (out / "manifest.json").write_text(json.dumps(manifest))
    _rewrite(out / "redacted.jsonl", lambda rows: rows[1:])
    errors = check_outputs(data / "corpus.jsonl", data / "expect.jsonl", out)
    assert any("were refused" in e for e in errors)
