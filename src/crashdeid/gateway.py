"""Client boundary to chat-completion backends.

Two backend kinds sit behind one ``complete`` call:

``http_endpoint``
    A chat-completions-style local inference server: POST ``{model,
    messages, temperature, seed}``; the completion is the first choice's
    message content. Each attempt opens one connection straight to the
    endpoint and closes it; no proxy or ``.netrc`` is consulted, so
    narrative text never passes through another host. Transport failures,
    5xx, 408 and 429 replies are retried with exponential backoff; any other
    reply that is not 2xx, a redirect (never followed) as much as a 4xx,
    raises ``TransportFailure`` at once, since resending the same request
    cannot change the answer. A reply body over ``MAX_REPLY_BYTES``
    raises ``OversizeOutput``, unretried, once at most that many bytes are
    read. At most ``MAX_IN_FLIGHT`` (4) POSTs are in flight at once across
    the whole process, whatever the endpoint, model or number of callers;
    ``fan_out`` overlaps independent calls, such as a run's narratives or a
    lone narrative's K tagging runs, on up to twice as many threads, so a
    call sleeping out its backoff idles no slot; one made on those threads,
    known by name, runs inline. Its pool has one exit: a failed call or an
    interrupt cancels the calls not yet started, and the running ones
    finish. The HTTP stack loads at the first POST. An endpoint URL with
    credentials (``user:pass@``) is refused: they are never sent, only recorded.
    So is one whose port is not a number from 1 to 65535, and one holding
    whitespace, an unprintable character or non-ASCII text in its path or
    query, which no request carries as written; a non-ASCII (IDN) host is kept.

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
_inflight = threading.BoundedSemaphore(MAX_IN_FLIGHT)


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
            # ``urlsplit`` drops a tab or newline and ``http.client`` cannot send
            # the rest, so the POST would miss the URL the manifest records.
            url = self.endpoint_url
            if " " in url or not url.isprintable() or not (parts.path + parts.query).isascii():
                raise ValueError("http_endpoint endpoint_url holds whitespace, an unprintable "
                                 "character or non-ASCII text in its path or query")
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


def _http_post(url: str, payload: dict, timeout: float) -> dict:
    """POST ``payload`` as JSON on a fresh connection; return the decoded
    body of a 2xx reply."""
    import http.client
    parts = urlsplit(url)
    secure = parts.scheme == "https"
    connect = http.client.HTTPSConnection if secure else http.client.HTTPConnection
    connection = connect(parts.hostname, parts.port, timeout=timeout)
    try:
        # A bytes body goes out in the same segment as the headers.
        connection.request(
            "POST",
            parts.path + (f"?{parts.query}" if parts.query else ""),
            body=json.dumps(payload, allow_nan=False).encode(),
            headers={"Content-Type": "application/json", "Connection": "close"},
        )
        with connection.getresponse() as response:
            if (response.length or 0) > MAX_REPLY_BYTES:
                raise OversizeOutput(f"reply of {response.length} bytes exceeds {MAX_REPLY_BYTES}")
            # Read whole when declared: read(amt) returns a body cut short, not IncompleteRead.
            body = response.read(MAX_REPLY_BYTES + 1 if response.length is None else None)
    finally:
        connection.close()
    if len(body) > MAX_REPLY_BYTES:
        raise OversizeOutput(f"reply exceeds {MAX_REPLY_BYTES} bytes")
    if 200 <= response.status < 300:
        return json.loads(body)
    if response.status // 100 != 5 and response.status not in (408, 429):
        raise TransportFailure(
            f"backend refused the request: HTTP {response.status} {response.reason}"
        )
    raise http.client.HTTPException(f"HTTP {response.status} {response.reason}")


def _complete_http(request: ChatRequest, config: BackendConfig) -> str:
    import http.client
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
    last_error: Exception | None = None
    for attempt in range(config.retries + 1):
        if attempt:
            time.sleep(_BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
        try:
            with _inflight:
                body = _http_post(config.endpoint_url, payload, config.timeout)
            text = body["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"completion content is {type(text).__name__}")
            return text
        except (
            OSError, http.client.HTTPException, *JSON_DECODE_ERRORS, LookupError, TypeError
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
                f"no fixture entry for request key {key} in {config.fixture_path}"
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
