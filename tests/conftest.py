from __future__ import annotations

import contextlib
import csv
import gc
import json
import socketserver
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable

import pytest

from crashdeid import gateway
from crashdeid.corpus import Corpus
from crashdeid.gateway import (
    BackendConfig,
    build_extraction_prompt,
    build_verifier_prompt,
    fixture_entry,
    write_fixture_file,
)
from crashdeid.tags import PiiCategory
from crashdeid.verify import AuditRecord, VerifierReview, repair_user_content

FIXTURE_DIR = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def no_crashdeid_thread_outlives_the_test():
    """Fail a test that leaves a thread of the program's own running."""
    yield
    left = sorted(t.name for t in threading.enumerate() if t.name.startswith("crashdeid-"))
    assert not left, f"threads still alive after the test: {left}"


def open_connections() -> int:
    """How many keep-alive connections the gateway's free slots hold."""
    return sum(slot.sock is not None for slot in gateway._free)


@pytest.fixture(autouse=True)
def no_keepalive_connection_outlives_the_test():
    """Fail a test that leaves a gateway slot taken or a keep-alive
    connection open. The connections are closed and a lost slot is replaced,
    so the next test starts with every slot free and none connected."""
    yield
    taken = gateway.MAX_IN_FLIGHT - len(gateway._free)
    left = open_connections()
    gateway.close_idle_connections()
    gateway._free.extend(gateway._Slot() for _ in range(taken))
    assert (taken, left) == (0, 0), f"slots taken, connections open after the test: {taken, left}"


@contextlib.contextmanager
def no_unclosed_sockets():
    """Fail when something opened in the block is left for the garbage
    collector to close. Such a ResourceWarning is raised in a finalizer,
    where an "error" filter would only print it, so it is recorded."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


#: Fixture lines that are not ``{"key", "response"}`` objects of strings,
#: each holding a canary that must not reach the error message.
MALFORMED_FIXTURE_LINES = {
    "invalid-json": b'{"key": "k", "response": "CANARY-7Q',
    "not-an-object": b'["CANARY-7Q"]',
    "missing-key": b'{"response": "CANARY-7Q"}',
    "missing-response": b'{"key": "CANARY-7Q"}',
    "key-not-a-string": b'{"key": 7, "response": "CANARY-7Q"}',
    "response-not-a-string": b'{"key": "k", "response": ["CANARY-7Q"]}',
    "not-utf8": '{"key": "k", "response": "CANARY-7Q CAFÉ"}'.encode("latin-1"),
    "lone-surrogate": b'{"key": "k", "response": "CANARY-7Q \\ud800"}',
    "too-deep": b'{"key": "k", "response": "CANARY-7Q", "x": ' + b"[" * 2000 + b"]" * 2000 + b"}",
    "long-number": b'{"key": "k", "response": "CANARY-7Q", "n": ' + b"9" * 5000 + b"}",
}


def extraction_entries(
    narrative_text: str, responses_by_seed: dict[int | None, str]
) -> list[dict[str, str]]:
    """Mock-fixture entries scripting one tagging response per seed."""
    return [
        fixture_entry(build_extraction_prompt(narrative_text, seed=seed), response)
        for seed, response in responses_by_seed.items()
    ]


def verifier_entries(
    narrative_text: str,
    home: list[str],
    alnum: list[str],
    responses: list[str],
) -> list[dict[str, str]]:
    """Mock-fixture entries scripting a verifier conversation.

    ``responses[0]`` answers the initial prompt; each later response
    answers the repair prompt generated by the previous (invalid) one.
    """
    from crashdeid.verify import VerifierFormatError, parse_verifier_output

    base = build_verifier_prompt(narrative_text, home, alnum)
    entries = [fixture_entry(base, responses[0])]
    request = base
    for previous, response in zip(responses, responses[1:]):
        try:
            parse_verifier_output(previous, home, alnum)
        except VerifierFormatError as exc:
            error_text = str(exc)
        else:  # pragma: no cover - fixture authoring error
            raise AssertionError("scripted repair after a valid response")
        from dataclasses import replace

        request = replace(
            base, user_content=repair_user_content(base.user_content, error_text)
        )
        entries.append(fixture_entry(request, response))
    return entries


def mock_backend(tmp_path: Path, entries: list[dict[str, str]], name: str = "mock.jsonl") -> BackendConfig:
    path = tmp_path / name
    write_fixture_file(path, entries)
    return BackendConfig(kind="scripted_mock", fixture_path=path)


def http_probe(respond: Callable[[dict], str]):
    """A stand-in for ``gateway._http_post`` and a one-item list holding
    the most calls it had in flight at once. ``respond(payload)`` returns
    the completion text, after sleeping as long as it likes, or raises."""
    live = [0]
    peak = [0]
    lock = threading.Lock()

    def post(url: str, payload: dict, timeout: float, slot) -> dict:
        with lock:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        try:
            return {"choices": [{"message": {"content": respond(payload)}}]}
        finally:
            with lock:
                live[0] -= 1

    return post, peak


@contextlib.contextmanager
def scripted_server(reply):
    """A local chat server that answers its n-th POST (from 0) with
    ``reply(handler, n, body bytes)`` over HTTP/1.0, closing each connection
    after its reply. Yields the URL and the list of ``(headers, body bytes)``
    it received."""
    with _chat_server(reply, "HTTP/1.0") as (url, received, _):
        yield url, received


@contextlib.contextmanager
def keepalive_server(reply):
    """``scripted_server`` over HTTP/1.1, which keeps a connection open after
    a reply unless ``reply`` sets ``handler.close_connection``. Also yields
    the list of client addresses of the connections it accepted."""
    with _chat_server(reply, "HTTP/1.1") as served:
        yield served


@contextlib.contextmanager
def _chat_server(reply, protocol):
    received = []
    accepted = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = protocol

        def setup(self):
            super().setup()
            accepted.append(self.client_address)

        def do_POST(self):
            length = int(self.headers["Content-Length"])
            body = self.rfile.read(length)
            received.append((self.headers, body))
            reply(self, len(received) - 1, body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # A connection the client keeps open must not hold up the server's close.
    server.daemon_threads = protocol != "HTTP/1.0"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", received, accepted
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@contextlib.contextmanager
def raw_server(reply, context=None):
    """A local server that reads each request whole, head and
    ``Content-Length`` body, and answers its n-th one (from 0) with the bytes
    of ``reply(n) -> (reply bytes, close)``, closing the connection after
    them when ``close`` is true and otherwise reading the next request on it.
    ``context`` (a server-side ``ssl.SSLContext``) wraps each connection in
    TLS; one whose handshake fails is dropped unrecorded. Yields the port,
    the list of ``(head bytes, body bytes)`` received and the list of client
    addresses of the connections accepted."""
    received = []
    accepted = []

    class Handler(socketserver.StreamRequestHandler):
        def setup(self):
            if context is not None:
                self.request = context.wrap_socket(self.request, server_side=True)
            super().setup()
            accepted.append(self.client_address)

        def handle(self):
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = self.rfile.readline()
                    if not line:
                        return
                    head += line
                length = int(head.split(b"\r\nContent-Length: ")[1].split(b"\r\n")[0])
                received.append((head, self.rfile.read(length)))
                data, close = reply(len(received) - 1)
                self.wfile.write(data)
                if close:
                    return

        def finish(self):
            super().finish()
            if context is not None:
                self.request.close()  # the server closes only the socket it wrapped

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True  # a connection the client keeps must not hold up the close
    server.handle_error = lambda request, address: None  # a refused TLS handshake
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server.server_address[1], received, accepted
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def write_corpus_jsonl(path: Path, rows: list[dict]) -> Path:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


def write_corpus(corpus: Corpus, path: Path, fmt: str | None = None) -> Path:
    """Persist a corpus in the load_corpus grammar; returns the path of its
    gold file, ``corpus.gold.jsonl`` beside ``corpus.jsonl``."""
    if (fmt or ("csv" if path.suffix == ".csv" else "jsonl")) == "csv":
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "text"])
            writer.writerows((n.id, n.text) for n in corpus.narratives)
    else:
        write_corpus_jsonl(
            path, [{"id": n.id, "text": n.text} for n in corpus.narratives]
        )
    return write_corpus_jsonl(
        path.with_suffix(".gold.jsonl"),
        [
            {
                "narrative_id": a.narrative_id,
                "category": a.category.value,
                "surface": a.surface,
            }
            for a in corpus.gold
        ],
    )


def audit_record_from_json_line(line: str) -> AuditRecord:
    """Inverse of ``AuditRecord.to_json_line``."""
    obj = json.loads(line)
    return AuditRecord(
        narrative_id=obj["narrative_id"],
        category=PiiCategory(obj["category"]),
        review=VerifierReview(
            text=obj["text"],
            decision=obj["decision"],
            reason=obj["reason"],
            evidence=obj["evidence"],
        ),
        policy_applied=obj["policy_applied"],
        final_action=obj["final_action"],
        backend_id=obj["backend_id"],
        timestamp=obj["timestamp"],
    )


def read_audit_log(path: Path) -> list[AuditRecord]:
    with path.open(encoding="utf-8") as handle:
        return [audit_record_from_json_line(line) for line in handle if line.strip()]


def review_obj(text: str, decision: str, reason: str = "r", evidence: str = "") -> dict:
    return {"text": text, "decision": decision, "reason": reason, "evidence": evidence}


def verifier_json(home_reviews: list[dict], alnum_reviews: list[dict]) -> str:
    return json.dumps(
        {"home_address_reviews": home_reviews, "alphanumeric_reviews": alnum_reviews}
    )


@pytest.fixture
def fig_narrative() -> str:
    return "UNIT 1 HIT THE DRIVEWAY OF 4647 HIGHWAY 47. UNIT 2 FLED THE SCENE."
