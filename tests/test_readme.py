"""The Python blocks under README's "Library use" run as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

from crashdeid import gateway
from crashdeid.corpus import Corpus, GoldAnnotation, Narrative
from crashdeid.tags import PiiCategory

from conftest import review_obj, scripted_server, verifier_json, write_corpus

README = Path(__file__).resolve().parents[1] / "README.md"
README_ENDPOINT = "http://localhost:8000/v1/chat/completions"

RESIDENT = "UNIT 1 DRIVER JOHN SMITH OF 12 OAK ST, MADISON, PLATE AB1234, CALL 608-733-8366."
SCENE = "UNIT 2 STRUCK A SIGN AT 4647 HIGHWAY 47. NO INJURIES."

#: Each narrative's tagging completion, the same for every seed.
TAGGED = {
    RESIDENT: "UNIT 1 DRIVER @@@JOHN SMITH@@@ OF $$$12 OAK ST, MADISON$$$, "
    "PLATE ^^^AB1234^^^, CALL 608-733-8366.",
    SCENE: "UNIT 2 STRUCK A SIGN AT $$$4647 HIGHWAY 47$$$. NO INJURIES.",
}
#: Each verifier prompt's user content and its answer.
VERDICTS = {
    gateway.build_verifier_prompt(RESIDENT, ["12 OAK ST, MADISON"], ["AB1234"]).user_content:
    verifier_json(
        [review_obj("12 OAK ST, MADISON", "KEEP", evidence="OF 12 OAK ST, MADISON")],
        [review_obj("AB1234", "KEEP", evidence="PLATE AB1234")],
    ),
    gateway.build_verifier_prompt(SCENE, ["4647 HIGHWAY 47"], []).user_content:
    verifier_json(
        [review_obj("4647 HIGHWAY 47", "DROP", evidence="A SIGN AT 4647 HIGHWAY 47")], []
    ),
}


def _library_use_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def _answer(handler, n, body):
    """Tag or review by the request's system prompt."""
    system, user = (m["content"] for m in json.loads(body)["messages"])
    text = TAGGED[user] if system == gateway.EXTRACTION_SYSTEM_PROMPT else VERDICTS[user]
    reply = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(reply)))
    handler.end_headers()
    handler.wfile.write(reply)


def _corpus() -> Corpus:
    return Corpus(
        (Narrative("n1", RESIDENT), Narrative("n2", SCENE)),
        (
            GoldAnnotation("n1", PiiCategory.NAME, "JOHN SMITH"),
            GoldAnnotation("n1", PiiCategory.PHONE, "608-733-8366"),
        ),
    )


def test_readme_has_two_library_use_blocks():
    assert len(_library_use_blocks()) == 2


def test_readme_per_narrative_block_prints_placeholder_lines(tmp_path, monkeypatch, capsys):
    block = _library_use_blocks()[0]
    assert README_ENDPOINT in block
    write_corpus(_corpus(), tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    with scripted_server(_answer) as (url, received):
        exec(block.replace(README_ENDPOINT, url), {})
    assert capsys.readouterr().out.splitlines() == [
        "UNIT 1 DRIVER [NAME] OF [HOME_ADDRESS], PLATE [ID], CALL [PHONE].",
        SCENE,
    ]
    assert len(received) == 2 * (5 + 1)  # K=5 tagging runs and one review each


def test_readme_run_pipeline_block_writes_manifest_and_report(tmp_path, monkeypatch):
    block = _library_use_blocks()[1]
    write_corpus(_corpus(), tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    assert json.loads((tmp_path / "outdir" / "manifest.json").read_text(encoding="utf-8"))
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
