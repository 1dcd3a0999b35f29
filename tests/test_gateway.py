from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from crashdeid import gateway
from crashdeid.gateway import (
    BackendConfig,
    ChatRequest,
    EmptyCandidateString,
    MissingFixture,
    OversizeOutput,
    TransportFailure,
    build_extraction_prompt,
    build_verifier_prompt,
    complete,
    fixture_entry,
    request_key,
    write_fixture_file,
)

from conftest import http_probe


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(system_prompt="", user_content="x")
    with pytest.raises(ValueError):
        ChatRequest(system_prompt="x", user_content="")
    with pytest.raises(ValueError):
        ChatRequest(system_prompt="x", user_content="y", temperature=-0.1)


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(kind="http_endpoint")
    with pytest.raises(ValueError):
        BackendConfig(kind="scripted_mock")
    with pytest.raises(ValueError):
        BackendConfig(kind="carrier_pigeon", endpoint_url="x")


def test_request_key_depends_on_content_and_seed():
    base = request_key("sys", "user")
    assert base == request_key("sys", "user")
    assert base != request_key("sys", "user2")
    assert base != request_key("sys2", "user")
    assert base != request_key("sys", "user", seed=1)
    assert request_key("sys", "user", seed=1) != request_key("sys", "user", seed=2)


def test_mock_lookup_returns_scripted_text(tmp_path):
    request = build_extraction_prompt("DRIVER JOHN SMITH FLED")
    path = tmp_path / "fx.jsonl"
    write_fixture_file(path, [fixture_entry(request, "DRIVER @@@JOHN SMITH@@@ FLED")])
    config = BackendConfig(kind="scripted_mock", fixture_path=path)
    response = complete(request, config)
    assert response.text == "DRIVER @@@JOHN SMITH@@@ FLED"
    assert response.backend_id == "mock:fx.jsonl"


def test_mock_is_deterministic(tmp_path):
    request = build_extraction_prompt("ANY NARRATIVE", seed=7)
    path = tmp_path / "fx.jsonl"
    write_fixture_file(path, [fixture_entry(request, "ANY NARRATIVE")])
    config = BackendConfig(kind="scripted_mock", fixture_path=path)
    assert complete(request, config).text == complete(request, config).text


def test_mock_missing_entry(tmp_path):
    path = tmp_path / "fx.jsonl"
    write_fixture_file(path, [])
    config = BackendConfig(kind="scripted_mock", fixture_path=path)
    with pytest.raises(MissingFixture):
        complete(build_extraction_prompt("X"), config)


def test_mock_oversize_output(tmp_path):
    request = ChatRequest(
        system_prompt="s", user_content="u", max_output_chars=5
    )
    path = tmp_path / "fx.jsonl"
    write_fixture_file(path, [fixture_entry(request, "MORE THAN FIVE CHARS")])
    config = BackendConfig(kind="scripted_mock", fixture_path=path)
    with pytest.raises(OversizeOutput):
        complete(request, config)


def test_mock_reloads_when_fixture_changes(tmp_path):
    request = build_extraction_prompt("N")
    path = tmp_path / "fx.jsonl"
    write_fixture_file(path, [fixture_entry(request, "FIRST")])
    config = BackendConfig(kind="scripted_mock", fixture_path=path)
    assert complete(request, config).text == "FIRST"
    cached_tables = len(gateway._fixture_cache)
    import os

    write_fixture_file(path, [fixture_entry(request, "SECOND")])
    os.utime(path, (0, 12345))  # force a distinct mtime stamp
    assert complete(request, config).text == "SECOND"
    # The edited file's table replaces the old one instead of adding to it.
    assert len(gateway._fixture_cache) == cached_tables


def test_http_unreachable_counts_attempts(monkeypatch):
    attempts = []

    def failing_post(url, payload, timeout):
        attempts.append(url)
        raise gateway.requests.ConnectionError("refused")

    monkeypatch.setattr(gateway, "_http_post", failing_post)
    monkeypatch.setattr(gateway.time, "sleep", lambda s: None)
    config = BackendConfig(
        kind="http_endpoint", endpoint_url="http://127.0.0.1:1/v1", retries=2
    )
    with pytest.raises(TransportFailure, match="3 attempts"):
        complete(ChatRequest(system_prompt="s", user_content="u"), config)
    assert len(attempts) == 3


def test_http_timeout_raises_timeout(monkeypatch):
    def slow_post(url, payload, timeout):
        raise gateway.requests.Timeout("too slow")

    monkeypatch.setattr(gateway, "_http_post", slow_post)
    monkeypatch.setattr(gateway.time, "sleep", lambda s: None)
    config = BackendConfig(
        kind="http_endpoint", endpoint_url="http://127.0.0.1:1/v1", retries=1
    )
    with pytest.raises(gateway.Timeout):
        complete(ChatRequest(system_prompt="s", user_content="u"), config)


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        reply = {
            "choices": [
                {
                    "message": {
                        "role": "assistant",
                        "content": f"echo:{body['messages'][1]['content']}"
                        f"|model:{body['model']}|temp:{body['temperature']}",
                    }
                }
            ]
        }
        payload = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


def test_http_round_trip(chat_server):
    config = BackendConfig(
        kind="http_endpoint", endpoint_url=chat_server, model_name="tagger"
    )
    response = complete(
        ChatRequest(system_prompt="sys", user_content="NARRATIVE", temperature=0.7),
        config,
    )
    assert response.text == "echo:NARRATIVE|model:tagger|temp:0.7"
    assert response.backend_id == f"http:tagger@{chat_server}"
    assert response.latency >= 0


def test_http_in_flight_requests_are_bounded(chat_server, monkeypatch):
    import time as _time
    from concurrent.futures import ThreadPoolExecutor

    live = []
    peak = []
    lock = threading.Lock()
    real_post = gateway._http_post

    def tracking_post(url, payload, timeout):
        with lock:
            live.append(1)
            peak.append(len(live))
        _time.sleep(0.05)
        try:
            return real_post(url, payload, timeout)
        finally:
            with lock:
                live.pop()

    monkeypatch.setattr(gateway, "_http_post", tracking_post)
    config = BackendConfig(kind="http_endpoint", endpoint_url=chat_server)
    request = ChatRequest(system_prompt="s", user_content="u")
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: complete(request, config), range(8)))
    assert max(peak) <= gateway.MAX_IN_FLIGHT


def test_in_flight_limit_is_shared_by_backends_with_different_models(monkeypatch):
    def respond(payload):
        time.sleep(0.01)
        return payload["messages"][1]["content"]

    post, peak = http_probe(respond)
    monkeypatch.setattr(gateway, "_http_post", post)
    url = "http://127.0.0.1:9/v1/chat/completions"
    configs = [
        BackendConfig(kind="http_endpoint", endpoint_url=url, model_name=model)
        for model in ("tagger", "verifier")
    ]
    barrier = threading.Barrier(8)

    def caller(i):
        barrier.wait(timeout=10)
        for j in range(3):
            request = ChatRequest(system_prompt="s", user_content=f"u{i}.{j}")
            complete(request, configs[i % 2])

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert 2 <= peak[0] <= gateway.MAX_IN_FLIGHT


def test_backend_id_is_computed_once(tmp_path):
    config = BackendConfig(kind="scripted_mock", fixture_path=tmp_path / "fx.jsonl")
    assert config.backend_id == "mock:fx.jsonl"
    assert config.backend_id is config.backend_id
    assert config == BackendConfig(kind="scripted_mock", fixture_path=tmp_path / "fx.jsonl")


def test_fan_out_keeps_input_order_when_later_items_finish_first():
    config = BackendConfig(kind="http_endpoint", endpoint_url="http://127.0.0.1:9/order")
    finished = []

    def slow_then_fast(i):
        time.sleep(0.02 * (5 - i))
        finished.append(i)
        return i * 10

    assert gateway.fan_out(slow_then_fast, range(5), config) == [0, 10, 20, 30, 40]
    assert finished != sorted(finished)


def test_fan_out_runs_inline_for_the_mock_and_for_one_item(tmp_path):
    caller = threading.get_ident()
    mock = BackendConfig(kind="scripted_mock", fixture_path=tmp_path / "fx.jsonl")
    http = BackendConfig(kind="http_endpoint", endpoint_url="http://127.0.0.1:9/inline")
    assert gateway.fan_out(lambda i: threading.get_ident(), range(3), mock) == [caller] * 3
    assert gateway.fan_out(lambda i: threading.get_ident(), [0], http) == [caller]
    assert gateway.fan_out(lambda i: i, [], http) == []


def test_extraction_prompt_contents():
    request = build_extraction_prompt("UNIT 1 DRIVER FLED")
    assert "tag with @@@Text@@@" in request.system_prompt
    assert "Do not tag crash-location addresses." in request.system_prompt
    assert "&&&608-733-8366&&&" in request.system_prompt
    assert "%%%jsmith@gmail.com%%%" in request.system_prompt
    assert "^^^ABC1234^^^" in request.system_prompt
    assert request.system_prompt.rstrip().endswith("The input is:")
    assert request.user_content == "UNIT 1 DRIVER FLED"
    assert request.temperature == 0.7


def test_extraction_prompt_rejects_empty_narrative():
    with pytest.raises(ValueError):
        build_extraction_prompt("")


def test_verifier_prompt_contents(fig_narrative):
    request = build_verifier_prompt(fig_narrative, ["4647 HIGHWAY 47"], [])
    assert "strict PII extraction verifier" in request.system_prompt
    assert "Output JSON only, matching the schema exactly." in request.system_prompt
    assert "exactly one review per item" in request.system_prompt
    assert "Never output an empty string as a candidate text." in request.system_prompt
    assert "[0] 4647 HIGHWAY 47" in request.user_content
    assert "alphanumeric_candidates:\n[]" in request.user_content
    assert request.temperature == 0.0


def test_verifier_prompt_empty_lists_still_valid():
    request = build_verifier_prompt("SOME NARRATIVE", [], [])
    assert "home_address_candidates:\n[]" in request.user_content
    assert "alphanumeric_candidates:\n[]" in request.user_content


def test_verifier_prompt_rejects_empty_candidate():
    with pytest.raises(EmptyCandidateString):
        build_verifier_prompt("N", [""], [])
    with pytest.raises(EmptyCandidateString):
        build_verifier_prompt("N", [], [""])


def test_prompt_builders_injective_on_content():
    seen = {}
    narratives = ["A", "B", "A\n\nhome_address_candidates:\n[0] X"]
    candidate_sets = [([], []), (["X"], []), ([], ["X"]), (["X"], ["Y", "Z"])]
    for narrative in narratives:
        for home, alnum in candidate_sets:
            request = build_verifier_prompt(narrative, home, alnum)
            key = request.user_content
            assert key not in seen, f"collision with {seen[key]}"
            seen[key] = (narrative, home, alnum)
