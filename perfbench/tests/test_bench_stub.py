import json
import threading
import urllib.error
import urllib.request

import pytest

import gen
from check import check_outputs
from stub import load_table, make_servers


@pytest.fixture
def stub_corpus(tmp_path):
    data = tmp_path / "data"
    gen.generate_hybrid(data, 4, narratives=60, prefix=12)
    gen.write_prefix(data, tmp_path / "prefix", 12)
    faults = json.loads((data / "faults.json").read_text())
    assert faults["faulted_keys"], "the tiny prefix should still get a fault"
    return data, tmp_path / "prefix", faults


@pytest.fixture
def serve():
    servers = []

    def start(table, faulted, latency_s=0.001):
        chat, control, counters = make_servers(table, faulted, latency_s)
        for server in (chat, control):
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
        return f"http://127.0.0.1:{chat.server_address[1]}/v1/chat/completions", counters

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def test_fault_schedule_and_counters_are_exact(stub_corpus, serve, run_pipeline, tmp_path):
    data, prefix, faults = stub_corpus
    url, counters = serve(load_table(data / "fixtures.jsonl"), frozenset(faults["faulted_keys"]))
    summary = run_pipeline(prefix, tmp_path / "out", "hybrid_ev",
                           {"kind": "http_endpoint", "endpoint_url": url}, parallelism=2)
    stats = counters.snapshot()
    n_faults = len(faults["faulted_keys"])
    assert stats["unknown"] == 0
    assert stats["faults"] == n_faults
    assert stats["retried"] == n_faults
    assert stats["retry_wait_s"] >= n_faults * 0.25  # the gateway's first backoff sleep
    assert stats["requests"] == faults["prefix_requests"] + n_faults
    assert stats["connections"] == stats["requests"]  # requests.post opens one per call
    assert stats["inflight_max"] <= 2
    assert 0 < stats["inflight_mean"] <= stats["inflight_max"]
    assert summary.counts["degraded"] == 0
    assert check_outputs(prefix / "corpus.jsonl", prefix / "expect.jsonl", tmp_path / "out") == []

    counters.reset()
    assert counters.snapshot()["requests"] == 0


def test_unknown_key_is_counted_apart_and_answered_at_once(serve):
    url, counters = serve({}, frozenset(), latency_s=5.0)
    body = json.dumps({"messages": [{"role": "system", "content": "s"},
                                    {"role": "user", "content": "u"}]}).encode()
    request = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=2)
    assert info.value.code == 404
    stats = counters.snapshot()
    assert (stats["unknown"], stats["requests"], stats["inflight_max"]) == (1, 0, 0)
