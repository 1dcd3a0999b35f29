"""Localhost stub chat-completions server, run as its own process.

    python3 perfbench/stub.py --fixtures F --faults F --latency-ms N

It answers ``POST /v1/chat/completions`` from the mock fixture table by
``request_key(system, user, seed)``, after a fixed latency, over HTTP/1.1
with ``Content-Length`` and keep-alive. Keys listed in ``--faults`` get one
HTTP 500 on their first attempt. A key missing from the table is a harness
error: it is answered at once with 404 and counted as ``unknown``, never as
a slow request.

A second port serves the counters as content-free JSON: ``POST /reset``
zeroes them and the per-key attempt memory, ``GET /stats`` reads them.
On start the server prints ``<chat port> <control port>`` on one line.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from crashdeid.gateway import request_key


class Counters:
    """Request, connection, fault and time-weighted in-flight counts, and
    the time callers waited between an injected 500 and its retry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.started = time.monotonic()
            self.requests = 0
            self.connections = 0
            self.faults = 0
            self.retried = 0
            self.unknown = 0
            self.retry_wait = 0.0
            self.inflight = 0
            self.inflight_max = 0
            self._area = 0.0
            self._changed = self.started
            self._seen: set[str] = set()
            self._faulted_at: dict[str, float] = {}

    def _advance(self, now: float) -> None:
        self._area += self.inflight * (now - self._changed)
        self._changed = now

    def connection(self) -> None:
        with self._lock:
            self.connections += 1

    def begin(self, key: str, known: bool, faulted_keys: frozenset[str]) -> bool:
        """Count one chat request; True when it must fail with HTTP 500."""
        with self._lock:
            if not known:
                self.unknown += 1
                return False
            now = time.monotonic()
            self.requests += 1
            first = key not in self._seen
            if not first:
                self.retried += 1
                if key in self._faulted_at:
                    self.retry_wait += now - self._faulted_at.pop(key)
            self._seen.add(key)
            self._advance(now)
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
            fault = first and key in faulted_keys
            self.faults += fault
            return fault

    def end(self, key: str, fault: bool) -> None:
        with self._lock:
            now = time.monotonic()
            if fault:
                self._faulted_at[key] = now
            self._advance(now)
            self.inflight -= 1

    def snapshot(self) -> dict:
        with self._lock:
            now = time.monotonic()
            self._advance(now)
            window = now - self.started
            return {
                "requests": self.requests,
                "connections": self.connections,
                "faults": self.faults,
                "retried": self.retried,
                "unknown": self.unknown,
                "retry_wait_s": self.retry_wait,
                "inflight_max": self.inflight_max,
                "inflight_mean": self._area / window if window > 0 else 0.0,
                "window_s": window,
            }


def make_servers(table: dict[str, str], faulted: frozenset[str], latency_s: float,
                 host: str = "127.0.0.1"):
    """Chat and control servers bound to free ports, not yet serving."""
    counters = Counters()

    class ChatHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            counters.connection()

        def log_message(self, *args) -> None:
            pass

        def _send(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self) -> None:
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            messages = {m["role"]: m["content"] for m in payload["messages"]}
            key = request_key(messages["system"], messages["user"], payload.get("seed"))
            text = table.get(key)
            fault = counters.begin(key, text is not None, faulted)
            if text is None:
                self._send(404, b'{"error": "no fixture for this request"}')
                return
            try:
                time.sleep(latency_s)
                if fault:
                    self._send(500, b'{"error": "injected fault"}')
                else:
                    body = {"choices": [{"message": {"role": "assistant", "content": text}}]}
                    self._send(200, json.dumps(body).encode("utf-8"))
            finally:
                counters.end(key, fault)

    class ControlHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args) -> None:
            pass

        def _reply(self, obj: dict) -> None:
            body = json.dumps(obj).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            self._reply(counters.snapshot())

        def do_POST(self) -> None:
            counters.reset()
            self._reply({"reset": True})

    chat = ThreadingHTTPServer((host, 0), ChatHandler)
    chat.daemon_threads = True
    control = ThreadingHTTPServer((host, 0), ControlHandler)
    control.daemon_threads = True
    return chat, control, counters


def load_table(path: Path) -> dict[str, str]:
    table: dict[str, str] = {}
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                entry = json.loads(line)
                table[entry["key"]] = entry["response"]
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", type=Path, required=True)
    parser.add_argument("--faults", type=Path, required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args(argv)
    table = load_table(args.fixtures)
    faulted = frozenset(json.loads(args.faults.read_text(encoding="utf-8"))["faulted_keys"])
    chat, control, _ = make_servers(table, faulted, args.latency_ms / 1000.0)
    threading.Thread(target=control.serve_forever, daemon=True).start()
    print(chat.server_address[1], control.server_address[1], flush=True)
    try:
        chat.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        chat.server_close()
        control.shutdown()
        control.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
