import json

import gen
from check import check_outputs
from crashdeid.rules import find_emails, find_phones


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_files(tmp_path):
    for name in ("a", "b"):
        gen.generate_hybrid(tmp_path / name / "hybrid", 11, narratives=60, prefix=20)
        gen.generate_long(tmp_path / name / "long", 11, narratives=5)
        gen.write_prefix(tmp_path / name / "hybrid", tmp_path / name / "prefix", 20)
    for kind in ("hybrid", "long", "prefix"):
        assert _files(tmp_path / "a" / kind) == _files(tmp_path / "b" / kind)
    gen.generate_hybrid(tmp_path / "c", 12, narratives=60, prefix=20)
    assert _files(tmp_path / "c")["corpus.jsonl"] != _files(tmp_path / "a" / "hybrid")["corpus.jsonl"]


def test_block_mix_is_exact(tmp_path):
    gen.generate_hybrid(tmp_path, 3, narratives=120)
    expects = [json.loads(line) for line in (tmp_path / "expect.jsonl").open()]
    for block in (expects[:60], expects[60:]):
        delimited = [e["if_emitted"] is not None for e in block]
        assert sum(delimited) == gen.BLOCK_DELIMITED
        assert sum(not e["audit"] and not d for e, d in zip(block, delimited)) == gen.BLOCK_PLAIN
        assert sum(any(row[2] == "UNCERTAIN" for row in e["audit"]) for e in block) == gen.BLOCK_DEMOTE


def test_long_corpus_plants_exactly_the_rule_matches(tmp_path):
    for seed in range(4):
        gen.generate_long(tmp_path / str(seed), seed, narratives=15)
        texts = [json.loads(line)["text"] for line in (tmp_path / str(seed) / "corpus.jsonl").open()]
        expects = [json.loads(line) for line in (tmp_path / str(seed) / "expect.jsonl").open()]
        for text, expect in zip(texts, expects):
            assert len(text) >= 3000
            planted = sorted(surface for _, surface in expect["keep"])
            found = sorted(m.span.surface for m in find_phones(text) + find_emails(text))
            assert found == planted


def test_fixture_predictions_hold_under_the_mock(tmp_path, run_pipeline):
    data = tmp_path / "data"
    gen.generate_hybrid(data, 5, narratives=60)
    summary = run_pipeline(data, tmp_path / "out", "hybrid_ev",
                           {"kind": "scripted_mock", "fixture_path": str(data / "fixtures.jsonl")})
    assert summary.counts["failed"] <= gen.BLOCK_DELIMITED
    assert check_outputs(data / "corpus.jsonl", data / "expect.jsonl", tmp_path / "out") == []
