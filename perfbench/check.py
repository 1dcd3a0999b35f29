"""Output check that shares no code with crashdeid.

It reads the pipeline's output files and the generator's ``expect.jsonl``
and returns a list of violations (empty when the outputs are correct):

- every input id is emitted or listed as failed, and only a narrative
  whose text already holds a delimiter may be listed as failed; if one is
  emitted, only its rule-owned phone and email are tagged (the LLM channel
  is skipped for it), exactly as ``expect.jsonl`` spells out;
- deleting the delimiters from each other ``redacted_text`` gives back its
  input;
- every planted surface the fixtures keep lies inside a tag of its
  category, at every occurrence;
- every distractor the fixtures drop is left untagged;
- ``audit.jsonl`` holds exactly the predicted decisions, in order.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DELIMITERS = {"@@@": "name", "&&&": "phone", "%%%": "email",
              "$$$": "home_address", "^^^": "alphanumeric"}
_DELIMITER_RE = re.compile("|".join(re.escape(d) for d in DELIMITERS))


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def tagged_spans(redacted: str) -> tuple[str, list[tuple[int, int, str]]]:
    """Clean text and (start, end, category) spans of flat tagged text."""
    clean: list[str] = []
    spans: list[tuple[int, int, str]] = []
    length, cursor, open_at, open_delim = 0, 0, 0, None
    for match in _DELIMITER_RE.finditer(redacted):
        piece = redacted[cursor:match.start()]
        clean.append(piece)
        length += len(piece)
        cursor = match.end()
        if open_delim is None:
            open_delim, open_at = match.group(), length
        elif match.group() == open_delim:
            spans.append((open_at, length, DELIMITERS[open_delim]))
            open_delim = None
        else:
            raise ValueError("nested or overlapping tags")
    if open_delim is not None:
        raise ValueError("unclosed tag")
    clean.append(redacted[cursor:])
    return "".join(clean), spans


def _occurrences(text: str, surface: str):
    start = text.find(surface)
    while start != -1:
        yield start, start + len(surface)
        start = text.find(surface, start + 1)


def check_outputs(corpus_path: Path, expect_path: Path, out_dir: Path) -> list[str]:
    texts = {row["id"]: row["text"] for row in read_jsonl(corpus_path)}
    expects = read_jsonl(expect_path)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    emitted = {row["id"]: row["redacted_text"] for row in read_jsonl(out_dir / "redacted.jsonl")}
    failed = set(manifest["failed_narratives"])
    errors: list[str] = []
    if len(emitted) + len(failed) != len(texts) or (set(emitted) | failed) != set(texts):
        errors.append("emitted and failed ids do not cover the input ids exactly once")
    refusable = {e["id"] for e in expects if e["if_emitted"] is not None}
    if not failed <= refusable:
        errors.append(f"narratives {sorted(failed - refusable)[:5]} were refused")
    if manifest["counts"].get("degraded", 0):
        errors.append(f"{manifest['counts']['degraded']} narratives fell back to degraded mode")

    for expect in expects:
        nid = expect["id"]
        if nid not in emitted:
            continue
        if expect["if_emitted"] is not None:
            if emitted[nid] != expect["if_emitted"]:
                errors.append(f"{nid}: text holding a delimiter is not emitted with only "
                              "its phone and email tagged")
            continue
        try:
            clean, spans = tagged_spans(emitted[nid])
        except ValueError as exc:
            errors.append(f"{nid}: redacted text does not parse: {exc}")
            continue
        if clean != texts[nid]:
            errors.append(f"{nid}: deleting the delimiters does not give back the input")
            continue
        for category, surface in expect["keep"]:
            for start, end in _occurrences(clean, surface):
                if not any(s <= start and end <= e and c == category for s, e, c in spans):
                    errors.append(f"{nid}: a planted {category} is not inside a {category} tag")
        for surface in expect["drop"]:
            for start, end in _occurrences(clean, surface):
                if any(start < e and s < end for s, e, _ in spans):
                    errors.append(f"{nid}: a dropped distractor is tagged")

    audit_path = out_dir / "audit.jsonl"
    audit = read_jsonl(audit_path) if audit_path.exists() else []
    got = [[r["narrative_id"], r["category"], r["text"], r["decision"], r["final_action"]]
           for r in audit]
    want = [[e["id"], *row] for e in expects if e["id"] in emitted for row in e["audit"]]
    if got != want:
        errors.append(f"audit log holds {len(got)} records, not the {len(want)} predicted ones")
    return errors


def file_digest(path: Path, drop_field: str | None = None) -> str:
    """sha256 of a JSONL file, optionally with one field removed from each
    record (the audit log's ``backend_id`` names the backend's address)."""
    if not path.exists():
        return "absent"
    data = path.read_bytes()
    if drop_field is not None:
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        data = "".join(
            json.dumps({k: v for k, v in row.items() if k != drop_field}, sort_keys=True) + "\n"
            for row in rows
        ).encode("utf-8")
    return hashlib.sha256(data).hexdigest()
