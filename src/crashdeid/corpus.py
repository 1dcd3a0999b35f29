"""Corpus loading and pipeline output persistence.

Narratives arrive as JSONL (one ``{"id", "text"}`` object per line) or as
RFC 4180 CSV with ``id,text`` columns. Gold annotations live in a separate
JSONL file (``{"narrative_id", "category", "surface"}``) so one corpus can
be scored against several gold versions; it is read only when the caller
names it, so a run reads no file its manifest does not record.

Narrative text is stored byte-for-byte as read; offsets elsewhere in the
system are Unicode scalar-value indices into that exact text. A file's
leading UTF-8 byte-order mark (Excel's "CSV UTF-8" writes one) is
skipped. Error messages name the file, line, field and narrative id, never
a value read from a text or gold field: a gold surface is PII by definition.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .tags import PiiCategory

if TYPE_CHECKING:
    from .verify import AuditRecord

#: What ``json.loads`` raises on text it cannot decode: ``JSONDecodeError``, a plain
#: ValueError past the integer digit limit, RecursionError past the nesting limit.
JSON_DECODE_ERRORS = (ValueError, RecursionError)
FORMATS = ("jsonl", "csv")  # what ``load_corpus`` reads


class MalformedRecord(ValueError):
    """A corpus or gold file breaks the input grammar: a record that does
    not parse, an empty or duplicate narrative id, or a gold record that
    names no narrative or whose surface is empty or not in its narrative.
    The message names the file, line, field or narrative id, never a text
    or surface."""


class Narrative(NamedTuple):
    """One free-text record; the unit of processing."""

    id: str
    text: str


class GoldAnnotation(NamedTuple):
    """One annotated PII instance; identical surfaces count separately."""

    narrative_id: str
    category: PiiCategory
    surface: str


class Corpus(NamedTuple):
    narratives: tuple[Narrative, ...]
    gold: tuple[GoldAnnotation, ...] = ()


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in FORMATS:
            raise MalformedRecord(f"unsupported corpus format: {fmt!r}")
        return fmt
    if path.suffix.lower() == ".csv":
        return "csv"
    return "jsonl"


def is_unicode(value: str) -> bool:
    """False when ``value`` holds a lone surrogate, which a JSON ``\\ud800``
    escape can carry but no UTF-8 writer accepts."""
    if value.isascii():
        return True
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def require_str(obj: dict, key: str, line_no: int, path: Path) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise MalformedRecord(
            f"{path}: line {line_no}: field {key!r} missing or not a string"
        )
    if not is_unicode(value):
        raise MalformedRecord(f"{path}: line {line_no}: field {key!r} is not valid Unicode")
    return value


def _not_utf8(path: Path) -> MalformedRecord:
    """Name the line of the first byte that is not UTF-8, never the byte."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    text = data.decode("utf-8")
    line_no = 1 + text.count("\n") + text.count("\r") - text.count("\r\n")
    return MalformedRecord(f"{path}: line {line_no}: not valid UTF-8")


def read_jsonl_records(path: Path) -> Iterator[tuple[int, dict]]:
    """``(line_no, object)`` for each non-blank line; line numbers count from 1."""
    with path.open(encoding="utf-8-sig") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except JSON_DECODE_ERRORS as exc:
                    reason = getattr(exc, "msg", "beyond the decoder's limits")
                    raise MalformedRecord(
                        f"{path}: line {line_no}: invalid JSON ({reason})"
                    ) from exc
                if not isinstance(obj, dict):
                    raise MalformedRecord(
                        f"{path}: line {line_no}: record is not an object"
                    )
                yield line_no, obj
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _read_narratives_jsonl(path: Path) -> list[Narrative]:
    return [
        Narrative(
            id=require_str(obj, "id", line_no, path),
            text=require_str(obj, "text", line_no, path),
        )
        for line_no, obj in read_jsonl_records(path)
    ]


def _read_narratives_csv(path: Path) -> list[Narrative]:
    import csv
    narratives = []
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None or not {"id", "text"} <= set(reader.fieldnames):
                raise MalformedRecord(f"{path}: line 1: header must include id,text")
            for line_no, row in enumerate(reader, start=2):
                if row.get("id") is None or row.get("text") is None:
                    raise MalformedRecord(
                        f"{path}: line {line_no}: field 'id' or 'text' missing"
                    )
                narratives.append(Narrative(id=row["id"], text=row["text"]))
        except csv.Error as exc:
            # The csv module's messages name limits and dialect characters,
            # never field content. ``DictReader.line_num`` lags a failed
            # row; its underlying reader has counted it.
            raise MalformedRecord(f"{path}: line {reader.reader.line_num}: {exc}") from exc
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    return narratives


def _read_gold(path: Path, by_id: dict[str, Narrative]) -> list[GoldAnnotation]:
    annotations = []
    for line_no, obj in read_jsonl_records(path):
        narrative_id = require_str(obj, "narrative_id", line_no, path)
        raw_category = require_str(obj, "category", line_no, path)
        surface = require_str(obj, "surface", line_no, path)
        try:
            category = PiiCategory(raw_category)
        except ValueError:
            raise MalformedRecord(
                f"{path}: line {line_no}: field 'category' has an unknown value"
            ) from None
        narrative = by_id.get(narrative_id)
        if narrative is None:
            raise MalformedRecord(
                f"{path}: line {line_no}: field 'narrative_id' names no "
                f"narrative of the corpus"
            )
        if not surface:
            # It could never match, since no candidate is empty.
            raise MalformedRecord(f"{path}: line {line_no}: field 'surface' is empty")
        if surface not in narrative.text:
            raise MalformedRecord(
                f"{path}: line {line_no}: field 'surface' does not occur in "
                f"narrative {narrative_id!r}"
            )
        annotations.append(GoldAnnotation(narrative_id, category, surface))
    return annotations


def load_corpus(
    path: str | Path,
    fmt: str | None = None,
    gold_path: str | Path | None = None,
) -> Corpus:
    """Load narratives, and the gold that ``gold_path`` names, in input order."""
    path = Path(path)
    fmt = _infer_format(path, fmt)
    if fmt == "csv":
        narratives = _read_narratives_csv(path)
    else:
        narratives = _read_narratives_jsonl(path)

    by_id: dict[str, Narrative] = {}
    for narrative in narratives:
        if not narrative.id:
            raise MalformedRecord(f"{path}: narrative with empty id")
        if narrative.id in by_id:
            raise MalformedRecord(f"{path}: duplicate narrative id {narrative.id!r}")
        by_id[narrative.id] = narrative

    gold = _read_gold(Path(gold_path), by_id) if gold_path is not None else []
    return Corpus(narratives=tuple(narratives), gold=tuple(gold))


def write_jsonl(path: str | Path, lines: Iterable[str]) -> None:
    """Write one JSON text per line, replacing any earlier file: the one
    JSONL writer, as ``read_jsonl_records`` is the one reader."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def write_json(path: str | Path, obj: object) -> None:
    """Write ``obj`` as indented JSON: the one writer of the manifest and the report."""
    Path(path).write_text(json.dumps(obj, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")


def write_audit_log(path: str | Path, records: Iterable["AuditRecord"]) -> None:
    """Write audit records as JSONL, owner-only (0600) since each quotes PII:
    an earlier file is removed, as truncating it would keep its mode. The
    serialization is deterministic: the same records give the same bytes."""
    Path(path).unlink(missing_ok=True)
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600))
    write_jsonl(path, (record.to_json_line() for record in records))


def write_redacted(
    path: str | Path, rows: Iterable[tuple[str, str, bool]]
) -> None:
    """Write redacted output JSONL: {"id", "redacted_text", "pii_found"}."""
    write_jsonl(path, (
        json.dumps(
            {"id": narrative_id, "redacted_text": redacted_text, "pii_found": pii_found},
            ensure_ascii=False,
        )
        for narrative_id, redacted_text, pii_found in rows
    ))
