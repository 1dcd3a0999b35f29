"""Client boundary to chat-completion backends.

Two backend kinds sit behind one ``complete`` call:

``http_endpoint``
    A chat-completions-style local inference server: POST ``{model,
    messages, temperature, seed}``; the completion is the first choice's
    message content. The client is the module's own HTTP/1.1 code: each POST
    is one ``sendall`` of head and body on the slot's socket, TLS-wrapped
    and verified against the system CA store for ``https``, and the reply
    is read with RFC 9112 framing under ``http.client``'s bounds (1xx
    skipped; at most 100 header lines of 64 KiB; chunked, then
    ``Content-Length``, then the close). ``socket`` loads at the first POST,
    ``ssl`` only for ``https``. An endpoint without a port uses its scheme's
    default. Connections go straight to the endpoint; no proxy or ``.netrc``
    is consulted, so narrative text never passes through another host.
    A POST holds one of ``MAX_IN_FLIGHT`` (4) slots, whatever the endpoint,
    model or number of callers, and each slot owns at most one keep-alive
    connection, so no more than 4 are ever open. A POST waits for a free slot
    and takes the newest connected to its scheme, host and port, else the
    newest with none, else the oldest, closing that one's connection; it frees
    the slot as it ends, the connection kept or closed. The slots and their
    free list, under one condition, are module-level, so the cap is
    process-wide. A freed slot wakes the longest waiter, but the thread that
    freed it may take it back first, as with a semaphore: there is no FIFO
    hand-off. ``run_pipeline`` closes the free slots' connections as a run
    ends. ``TCP_QUICKACK`` is set after each request, so a server that sends
    its body in a second write under Nagle's algorithm is not held up by a
    delayed ACK; without it (off Linux) each connection is closed after its
    reply. A reused connection the server closed while idle is opened again
    once, costing no attempt. A caller of ``complete`` outside
    ``run_pipeline`` leaves at most ``MAX_IN_FLIGHT`` idle sockets open until
    the process exits or the next run ends; ``close_idle_connections`` closes
    them. Transport failures, malformed replies, 5xx, 408 and 429 replies are
    retried with exponential backoff; any other reply that is not 2xx, a
    redirect (never followed) as much as a 4xx, raises ``TransportFailure`` at
    once, since resending the same request cannot change the answer. A reply
    body over ``MAX_REPLY_BYTES`` raises ``OversizeOutput``, unretried, once
    at most that many bytes are read. ``fan_out`` overlaps independent calls,
    such as a run's narratives or a lone narrative's K tagging runs, on up to
    twice as many threads, so a call sleeping out its backoff idles no slot;
    one made on those threads, known by name, runs inline. Its pool has one
    exit: a failed call or an interrupt cancels the calls not yet started, and
    the running ones finish. An endpoint URL with credentials (``user:pass@``)
    is refused: they are never sent, only recorded. So is one whose port is
    not a number from 1 to 65535, and one holding whitespace, an unprintable
    character or non-ASCII text in its path or query, which no request carries
    as written; a non-ASCII (IDN) host is kept, unless IDNA cannot encode it.

``scripted_mock``
    A deterministic offline stand-in. The fixture file is JSONL of
    ``{"key", "response"}`` where ``key`` is ``request_key(system_prompt,
    user_content, seed)``; a completion depends only on request content,
    so repeated calls are byte-identical. Including the optional seed in
    the key lets fixtures script distinct sampled runs of one prompt;
    ``hashlib`` loads at the first key, and the K tagging keys of one
    narrative encode its text once. A
    malformed fixture line raises ``MalformedFixture``, which fails every
    narrative that calls the mock, as any other backend error does. The
    file is read once per ``BackendConfig``, at its first call, and its
    table or error is kept: an edited file needs a new config. A ``Path``
    and a ``str`` fixture path for one file make one config; a path of any
    other type, or an empty one, is refused.
    ``fan_out`` runs inline for it: a lookup gains nothing from threads.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Iterable, NamedTuple
from urllib.parse import urlsplit

from .corpus import (
    JSON_DECODE_ERRORS, MalformedRecord, read_jsonl_records, require_str, write_jsonl,
)
from .tags import AMBIGUOUS_CATEGORIES

DEFAULT_EXTRACTION_TEMPERATURE = 0.7
DEFAULT_VERIFIER_TEMPERATURE = 0.0
#: Longest completion accepted; a longer one raises ``OversizeOutput``.
MAX_OUTPUT_CHARS = 65536
#: Longest HTTP reply body read: 12 bytes spell one character in JSON at most
#: (an escaped surrogate pair), and 64 KiB holds the envelope.
MAX_REPLY_BYTES = 12 * MAX_OUTPUT_CHARS + 65536

_BACKOFF_BASE_SECONDS = 0.25

#: Most POSTs in flight at once, to all HTTP backends together.
MAX_IN_FLIGHT = 4


class _Slot:
    """The right to carry one POST, and the keep-alive connection it keeps
    between POSTs: its origin, socket and buffered reply reader, or None."""
    origin = sock = reader = None

    def connect(self, origin: tuple, timeout: float) -> None:
        """Close any connection and open one to ``origin``: TCP with Nagle's
        algorithm off, and TLS verified against the system CA store and the
        host name for ``https``."""
        import socket
        self.close()
        scheme, host, port = origin
        sock = socket.create_connection((host, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                import ssl
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
            self.origin, self.sock, self.reader = origin, sock, sock.makefile("rb")
        except BaseException:
            sock.close()
            raise

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
        self.origin = self.sock = self.reader = None


#: The free slots, oldest freed first, and the condition that guards them.
_free = [_Slot() for _ in range(MAX_IN_FLIGHT)]
_freed = threading.Condition()


class GatewayError(RuntimeError):
    """Base error for backend communication failures."""


class Timeout(GatewayError):
    pass


class TransportFailure(GatewayError):
    pass


class MissingFixture(GatewayError):
    """The scripted mock has no entry for this request."""


class MalformedFixture(GatewayError):
    """A fixture line is not a ``{"key", "response"}`` object of strings."""


class OversizeOutput(GatewayError):
    """The completion exceeds ``MAX_OUTPUT_CHARS``, or the reply ``MAX_REPLY_BYTES``."""


class EmptyCandidateString(ValueError):
    """A verifier candidate list contains an empty string."""


@dataclass(frozen=True)
class ChatRequest:
    system_prompt: str
    user_content: str
    temperature: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.system_prompt or not self.user_content:
            raise ValueError("system_prompt and user_content must be non-empty")
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be a finite number >= 0")


class ChatResponse(NamedTuple):
    text: str
    latency: float


@dataclass(frozen=True)
class BackendConfig:
    kind: str  # "http_endpoint" | "scripted_mock"
    endpoint_url: str | None = None
    model_name: str | None = None
    fixture_path: str | Path | None = None  # kept as its str
    timeout: float = 30.0
    retries: int = 2

    def __post_init__(self) -> None:
        if isinstance(self.fixture_path, Path):
            object.__setattr__(self, "fixture_path", str(self.fixture_path))
        if self.kind == "http_endpoint":
            parts = urlsplit(self.endpoint_url if isinstance(self.endpoint_url, str) else "")
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError("http_endpoint backend requires an http(s) endpoint_url")
            if "@" in parts.netloc:
                raise ValueError("http_endpoint endpoint_url must not carry credentials")
            try:
                port = parts.port
            except ValueError:
                port = 0  # unreadable; no server listens on port 0 either
            if port == 0:
                raise ValueError("http_endpoint endpoint_url has an invalid port")
            # ``urlsplit`` drops a tab or newline and a request line cannot carry
            # the rest, so the POST would miss the URL the manifest records.
            url = self.endpoint_url
            if " " in url or not url.isprintable() or not (parts.path + parts.query).isascii():
                raise ValueError("http_endpoint endpoint_url holds whitespace, an unprintable "
                                 "character or non-ASCII text in its path or query")
            try:
                _endpoint(url)  # the POSTs' own reading of the URL
            except UnicodeError:
                raise ValueError("http_endpoint endpoint_url has a host that IDNA "
                                 "cannot encode") from None
        elif self.kind == "scripted_mock":
            if not (isinstance(self.fixture_path, str) and self.fixture_path):
                raise ValueError("scripted_mock backend requires fixture_path")
        else:
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        if type(self.retries) is not int or self.retries < 0:
            raise ValueError("retries must be an integer >= 0")
        # At most a day: a socket refuses a large enough timeout only at connect.
        if type(self.timeout) not in (int, float) or not 0 < self.timeout <= 86400:
            raise ValueError("timeout must be a positive number of seconds, at most 86400")
        if not isinstance(self.model_name, (str, type(None))):
            raise ValueError("model_name must be a string or None")

    @cached_property
    def backend_id(self) -> str:
        if self.kind == "scripted_mock":
            return f"mock:{Path(self.fixture_path).name}"
        model = self.model_name or "default"
        return f"http:{model}@{self.endpoint_url}"

    @cached_property
    def fixtures(self) -> dict[str, str] | str:
        """The scripted mock's table of key -> response, or the
        ``MalformedFixture`` message when the file is malformed."""
        path = Path(self.fixture_path)
        try:
            return {
                require_str(entry, "key", n, path): require_str(entry, "response", n, path)
                for n, entry in read_jsonl_records(path)
            }
        except MalformedRecord as exc:
            return f"fixture file {exc}"


@lru_cache(maxsize=16, typed=True)
def _key_head(system_prompt: str, seed: int | None):
    import hashlib
    head = json.dumps({"seed": seed, "system": system_prompt}, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(head[:-1].encode("utf-8") + b', "user": ')


@lru_cache(maxsize=8)
def _key_tail(user_content: str) -> bytes:
    return json.dumps(user_content, ensure_ascii=False).encode("utf-8") + b"}"


def request_key(system_prompt: str, user_content: str, seed: int | None = None) -> str:
    """Content hash identifying a request in mock fixture files: SHA-256 of
    ``json.dumps({"seed", "system", "user"}, ensure_ascii=False, sort_keys=True)``
    in UTF-8. The head up to ``"user": `` is hashed once per prompt and seed
    into a cached state that is only ever copied, and the encoded tail is
    cached per user text; the digest is the same. Only the scripted mock
    computes keys, so an HTTP run caches nothing here."""
    digest = _key_head(system_prompt, seed).copy()
    digest.update(_key_tail(user_content))
    return digest.hexdigest()


def fixture_entry(request: ChatRequest, response: str) -> dict[str, str]:
    return {
        "key": request_key(request.system_prompt, request.user_content, request.seed),
        "response": response,
    }


def write_fixture_file(path: str | Path, entries: Iterable[dict[str, str]]) -> None:
    write_jsonl(path, (json.dumps(entry, ensure_ascii=False) for entry in entries))


_POOL_THREADS = "crashdeid-fan-out"  # a fan_out on one of these threads runs inline


def fan_out(fn: Callable, items: Iterable, *backends: BackendConfig | None) -> list:
    """``[fn(item) for item in items]`` in input order, overlapped when any of
    ``backends`` is HTTP on ``min(len(items), 2 * MAX_IN_FLIGHT)`` threads of
    this call's own that end with it. A single item, and a ``fan_out`` made on
    a thread named as theirs, run inline. The first exception, an item's or an
    interrupt in the wait, cancels the items not yet started; once the running
    ones finish, the interrupt or the earliest failed item's exception is
    raised. Items start in input order, so none before it is cancelled.
    """
    items = list(items)
    if (len(items) < 2 or threading.current_thread().name.startswith(_POOL_THREADS)
            or not any(b is not None and b.kind == "http_endpoint" for b in backends)):
        return [fn(item) for item in items]
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
    pool = ThreadPoolExecutor(min(len(items), 2 * MAX_IN_FLIGHT), _POOL_THREADS)
    try:
        futures = [pool.submit(fn, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]


class _BadReply(Exception):
    """A reply this attempt cannot use and another may: one that breaks
    HTTP/1.1 framing, or a 5xx, 408 or 429 status. The message names the
    broken rule or the status, never other bytes of the reply."""


@lru_cache(maxsize=8)
def _endpoint(url: str) -> tuple[tuple, bytes]:
    """The URL's origin ``(scheme, host, port)``, with the scheme's default
    port where it names none, and its request head up to ``Content-Length``:
    the target (``/`` when empty), then ``Host`` (IDNA, an IPv6 address in
    brackets, the port only when it is not the default) and
    ``Accept-Encoding: identity``, as ``http.client`` sent them."""
    parts = urlsplit(url)
    default = 443 if parts.scheme == "https" else 80
    host = parts.hostname
    try:
        name = host.encode("ascii")
    except UnicodeEncodeError:
        name = host.encode("idna")
    if ":" in host:
        name = b"[%s]" % name
    if parts.port not in (None, default):
        name += b":%d" % parts.port
    target = (parts.path + (f"?{parts.query}" if parts.query else "") or "/").encode()
    head = b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % (target, name)
    return (parts.scheme, host, parts.port or default), head


def _take_slot(origin: tuple) -> _Slot:
    """Wait for a free slot and take the newest connected to ``origin``,
    else the newest with no connection, else the oldest, whose connection
    the POST closes."""
    with _freed:
        while not _free:
            _freed.wait()
        for wanted in (origin, None):
            for slot in reversed(_free):
                if slot.origin == wanted:
                    _free.remove(slot)
                    return slot
        return _free.pop(0)


def close_idle_connections() -> None:
    """Close the connection of every free slot; ``run_pipeline`` calls it as
    a run ends."""
    with _freed:
        for slot in _free:
            slot.close()


def _read_line(reader) -> bytes:
    line = reader.readline(65537)
    if len(line) > 65536:
        raise _BadReply("reply has a line over 65536 bytes")
    return line


def _read_fields(reader) -> dict[bytes, bytes]:
    """Header or trailer fields up to the empty line, by lower-case name,
    repeated ones joined by ``, ``; at most 100."""
    fields: dict[bytes, bytes] = {}
    for _ in range(101):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return fields
        name, colon, value = line.partition(b":")
        if not colon:
            raise _BadReply("reply has a field line without a colon" if line
                            else "reply ends inside its fields")
        name, value = name.lower(), value.strip()
        fields[name] = fields[name] + b", " + value if name in fields else value
    raise _BadReply("reply has more than 100 field lines")


def _read_head(reader) -> tuple[bytes, int, str, dict[bytes, bytes]]:
    """The version, status, reason and fields of the final reply; 1xx
    replies are skipped. No reply byte at all is a reset connection."""
    line = _read_line(reader)
    if not line:
        raise ConnectionResetError("connection closed before any reply byte")
    while True:
        version, _, rest = line.rstrip(b"\r\n").partition(b" ")
        code, _, reason = rest.partition(b" ")
        if (version not in (b"HTTP/1.0", b"HTTP/1.1")
                or not (len(code) == 3 and code.isdigit() and code >= b"100")):
            raise _BadReply("reply does not start with an HTTP/1.x status line")
        fields = _read_fields(reader)
        if not code.startswith(b"1"):
            return version, int(code), reason.decode("latin-1").strip(), fields
        line = _read_line(reader)


def _read_body(reader, status: int, fields: dict[bytes, bytes]) -> tuple[bytes, bool]:
    """The decoded body and whether it ended with the connection. It is framed
    by ``Transfer-Encoding: chunked``, else by ``Content-Length``, else by the
    close; a 204 or 304 has none. No read can pass ``MAX_REPLY_BYTES``."""
    if status in (204, 304):
        return b"", False
    coding = fields.get(b"transfer-encoding")
    if coding is not None:
        if coding.rpartition(b",")[2].strip().lower() != b"chunked":
            raise _BadReply("reply has a transfer coding other than chunked")
        chunks, size = [], 0
        while True:
            digits = _read_line(reader).partition(b";")[0].strip()  # any extension dropped
            if not digits or digits.strip(b"0123456789abcdefABCDEF"):
                raise _BadReply("reply has an invalid chunk size")
            chunk = int(digits, 16)
            if not chunk:
                _read_fields(reader)  # the trailer, unread
                return b"".join(chunks), False
            size += chunk
            if size > MAX_REPLY_BYTES:
                raise OversizeOutput(f"reply exceeds {MAX_REPLY_BYTES} bytes")
            data = reader.read(chunk + 2)
            if data[chunk:] != b"\r\n":
                raise _BadReply("reply chunk ends early or without CRLF")
            chunks.append(data[:chunk])
    length = fields.get(b"content-length")
    if length is None:
        body = reader.read(MAX_REPLY_BYTES + 1)
        if len(body) > MAX_REPLY_BYTES:
            raise OversizeOutput(f"reply exceeds {MAX_REPLY_BYTES} bytes")
        return body, True
    if not length.isdigit():
        raise _BadReply("reply has an invalid Content-Length")
    # int() refuses over 4,300 digits; 19 already spell over 10**18 bytes.
    if len(length) > 18 or int(length) > MAX_REPLY_BYTES:
        raise OversizeOutput(f"reply declares a body over {MAX_REPLY_BYTES} bytes")
    body = reader.read(int(length))
    if len(body) < int(length):
        raise _BadReply("reply body ends before its Content-Length")
    return body, False


def _http_post(url: str, payload: dict, timeout: float, slot: _Slot) -> dict:
    """POST ``payload`` as JSON on the connection of ``slot``, which the
    caller holds; return the decoded body of a 2xx reply.

    The request, head and body, goes out in one ``sendall``; the reply is
    read by ``_read_head`` and ``_read_body``, and one that breaks their
    rules raises ``_BadReply``, which is retried. The slot's connection is
    reused when it goes to the URL's scheme, host and port; otherwise it is
    closed and a new one opened. A reused connection the server closed while
    it sat idle, seen as a reset, a broken pipe or no reply byte at all, is
    opened again once, within the call. An HTTP/1.1 reply read whole that
    does not close the connection, a 2xx that decodes or a status that is
    retried, leaves it open on the slot for the next POST; any other reply
    or exception closes it.
    ``TCP_QUICKACK`` is set after each request is sent, so the reply's
    header segment is acknowledged at once and a server that writes the
    body in a second send under Nagle's algorithm waits out no delayed ACK;
    where the platform lacks it, every connection is closed after its reply.
    """
    import socket
    origin, head = _endpoint(url)
    body = json.dumps(payload, allow_nan=False).encode()
    request = b"%sContent-Length: %d\r\nContent-Type: application/json\r\n\r\n%s" % (
        head, len(body), body)
    quickack = getattr(socket, "TCP_QUICKACK", None)
    reused = slot.origin == origin
    keep = False

    def exchange():
        slot.sock.sendall(request)
        if quickack is not None:
            slot.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
        return _read_head(slot.reader)

    try:
        try:
            if reused:
                slot.sock.settimeout(timeout)
            else:
                slot.connect(origin, timeout)
            version, status, reason, fields = exchange()
        except (BrokenPipeError, ConnectionResetError):
            if not reused:
                raise
            slot.connect(origin, timeout)
            version, status, reason, fields = exchange()
        reply, closed = _read_body(slot.reader, status, fields)
        if 200 <= status < 300:
            decoded = json.loads(reply)
        elif status // 100 != 5 and status not in (408, 429):
            raise TransportFailure(f"backend refused the request: HTTP {status} {reason}")
        # Read whole and decoded, or to be retried: it can carry the next POST.
        keep = (quickack is not None and version == b"HTTP/1.1" and not closed
                and b"close" not in fields.get(b"connection", b"").lower())
        if status >= 300:
            raise _BadReply(f"HTTP {status} {reason}")
        return decoded
    finally:
        if not keep:
            slot.close()


def _complete_http(request: ChatRequest, config: BackendConfig) -> str:
    payload = {
        "model": config.model_name or "default",
        "messages": [
            {"role": "system", "content": request.system_prompt},
            {"role": "user", "content": request.user_content},
        ],
        "temperature": request.temperature,
    }
    if request.seed is not None:
        payload["seed"] = request.seed
    origin = _endpoint(config.endpoint_url)[0]
    last_error: Exception | None = None
    for attempt in range(config.retries + 1):
        if attempt:
            time.sleep(_BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
        try:
            slot = _take_slot(origin)
            try:
                body = _http_post(config.endpoint_url, payload, config.timeout, slot)
            finally:
                with _freed:
                    _free.append(slot)
                    _freed.notify()
            text = body["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"completion content is {type(text).__name__}")
            return text
        except (
            OSError, _BadReply, *JSON_DECODE_ERRORS, LookupError, TypeError
        ) as exc:
            last_error = exc
    if isinstance(last_error, TimeoutError):
        raise Timeout(
            f"backend timed out after {config.retries + 1} attempts: {last_error}"
        ) from last_error
    raise TransportFailure(
        f"backend failed after {config.retries + 1} attempts: {last_error}"
    ) from last_error


def complete(request: ChatRequest, config: BackendConfig) -> ChatResponse:
    """Run one completion against the configured backend."""
    started = time.monotonic()
    if config.kind == "scripted_mock":
        key = request_key(request.system_prompt, request.user_content, request.seed)
        table = config.fixtures
        if isinstance(table, str):
            raise MalformedFixture(table)
        if key not in table:
            raise MissingFixture(
                f"no fixture entry for request key {key} in {config.backend_id}"
            )
        text = table[key]
    else:
        text = _complete_http(request, config)
    if len(text) > MAX_OUTPUT_CHARS:
        raise OversizeOutput(
            f"completion of {len(text)} chars exceeds limit {MAX_OUTPUT_CHARS}"
        )
    return ChatResponse(text=text, latency=time.monotonic() - started)


EXTRACTION_SYSTEM_PROMPT = """\
Role: You are an expert linguist specializing in detecting personally identifiable information (PII) in crash narratives.

Context: Your task is to find and tag any Personally Identifiable Information (PII) using the special identifiers below, based on the PII category. If no PII is found, return the input text unchanged.

PII categories and tagging rules:
- Name: tag with @@@Text@@@
  Example: @@@John Smith@@@
- Phone Number: tag with &&&Text&&&
  Example: &&&608-733-8366&&&
- Home Address: tag with $$$Text$$$
  Example: $$$123 Elm Street$$$
  Do not tag crash-location addresses. Only tag home addresses based on context.
- Email Address: tag with %%%Text%%%
  Example: %%%jsmith@gmail.com%%%
- Alphanumeric Identifiers, including driver's license, SSN, and license plate number: tag with ^^^Text^^^
  Example: ^^^ABC1234^^^

The input is:"""

VERIFIER_SYSTEM_PROMPT = """\
Role: You are a strict PII extraction verifier for crash narratives.

Context: You will be given:
- the raw narrative;
- extracted candidates for HOME ADDRESS and ALPHANUMERIC IDENTIFIERS.

Your job is to decide for each provided candidate: KEEP, DROP, or UNCERTAIN.

Critical output format rules (must follow exactly):
- home_address_reviews must contain exactly one review per item in home_address_candidates, in the same order.
- For each i, home_address_reviews[i].text must equal home_address_candidates[i] exactly (character-for-character).
- If home_address_candidates is empty, home_address_reviews must be an empty list [].
- alphanumeric_reviews must contain exactly one review per item in alphanumeric_candidates, in the same order.
- For each i, alphanumeric_reviews[i].text must equal alphanumeric_candidates[i] exactly.
- If alphanumeric_candidates is empty, alphanumeric_reviews must be [].
- Do not add extra reviews. Do not repeat a candidate. Do not output reviews for text that is not in the candidate lists.
- Never output an empty string as a candidate text.

Hard rules:
- Do not invent any text not present in the narrative.
- For KEEP or DROP, you must include evidence copied verbatim from the narrative (short snippet).
- If you cannot find supporting evidence, mark UNCERTAIN and set evidence to "".

Guidance:
- HOME ADDRESS: keep only the true residence or mailing address of a person. Drop crash-location addresses such as intersections, highways, mile markers, and scene locations.
- ALPHANUMERIC IDENTIFIERS: keep only personal identifiers such as license plates, driver's license or ID numbers, and SSNs. Drop roadway IDs (e.g., I-94, US-12), report or case numbers, incident IDs, tag numbers, and unit numbers unless clearly tied to a personal identifier.

Output JSON only, matching the schema exactly."""


def build_extraction_prompt(narrative_text: str, seed: int | None = None) -> ChatRequest:
    """Tagging request: the fixed extraction instructions plus the narrative."""
    return ChatRequest(
        system_prompt=EXTRACTION_SYSTEM_PROMPT,
        user_content=narrative_text,
        temperature=DEFAULT_EXTRACTION_TEMPERATURE,
        seed=seed,
    )


def build_verifier_prompt(
    narrative_text: str,
    home_candidates: list[str],
    alnum_candidates: list[str],
) -> ChatRequest:
    """Review request: each ambiguous category's candidates, listed as
    ``<category>_candidates`` and line-itemized with stable indices so the
    alignment rules are checkable positionally."""
    blocks = [f"NARRATIVE:\n{narrative_text}"]
    for category, candidates in zip(AMBIGUOUS_CATEGORIES, (home_candidates, alnum_candidates)):
        if "" in candidates:
            raise EmptyCandidateString("candidate lists must not contain empty strings")
        lines = "\n".join(f"[{i}] {text}" for i, text in enumerate(candidates))
        blocks.append(f"{category.value}_candidates:\n{lines or '[]'}")
    return ChatRequest(
        system_prompt=VERIFIER_SYSTEM_PROMPT,
        user_content="\n\n".join(blocks),
        temperature=DEFAULT_VERIFIER_TEMPERATURE,
    )
