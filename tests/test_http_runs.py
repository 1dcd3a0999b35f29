"""How a run over HTTP schedules its narratives.

A run with an ``http_endpoint`` backend keeps ``2 * MAX_IN_FLIGHT``
narratives in progress, whatever ``parallelism`` says, and its outputs do
not depend on that window; a lone narrative overlaps its K tagging runs.
These tests serve one generated block of the benchmark corpus from the
benchmark's localhost stub, with a few injected 500s, and only import
``perfbench/``.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from pathlib import Path

import pytest

from crashdeid import gateway, pipeline
from crashdeid.gateway import BackendConfig
from crashdeid.pipeline import PipelineConfig, run_pipeline

from conftest import no_unclosed_sockets, open_connections

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
LATENCY_S = 0.003


@pytest.fixture(scope="module")
def block(tmp_path_factory):
    """One generated block and a stub serving it: yields the data directory,
    the stub's URL and its counters."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        gen, stub = importlib.import_module("gen"), importlib.import_module("stub")
        data = tmp_path_factory.mktemp("block")
        gen.generate_hybrid(data, seed=1, narratives=gen.STUB_NARRATIVES)
        faulted = frozenset(json.loads((data / "faults.json").read_text())["faulted_keys"])
        assert faulted
        chat, control, counters = stub.make_servers(
            stub.load_table(data / "fixtures.jsonl"), faulted, LATENCY_S
        )
    server = threading.Thread(target=chat.serve_forever, daemon=True)
    server.start()
    host, port = chat.server_address[:2]
    try:
        yield data, f"http://{host}:{port}/v1/chat/completions", counters
    finally:
        chat.shutdown()
        server.join(timeout=10)
        chat.server_close()
        control.server_close()


def _config(backend: BackendConfig, parallelism: int) -> PipelineConfig:
    return PipelineConfig(
        preset="hybrid_ev", extractor_backend=backend, verifier_backend=backend,
        parallelism=parallelism, seed=0, mask_timestamps=True,
    )


def _run_http(block, parallelism: int, out: Path):
    """Run the block over HTTP from fresh stub counters; return the summary
    and the counters' snapshot."""
    data, url, counters = block
    counters.reset()
    backend = BackendConfig(kind="http_endpoint", endpoint_url=url)
    summary = run_pipeline(_config(backend, parallelism), data / "corpus.jsonl", out)
    return summary, counters.snapshot()


def test_an_http_run_opens_at_most_one_connection_per_slot(block, tmp_path):
    with no_unclosed_sockets():
        summary, stats = _run_http(block, 1, tmp_path / "http")
    assert summary.counts["narratives"] > 0 and stats["unknown"] == 0
    # A slot keeps its connection, also across an injected 500 and its retry.
    assert stats["faults"] > 0 and stats["requests"] > 4 * gateway.MAX_IN_FLIGHT
    assert 1 <= stats["connections"] <= gateway.MAX_IN_FLIGHT
    assert open_connections() == 0


def _narrative_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("crashdeid-")]


def test_http_outputs_do_not_depend_on_parallelism(block, tmp_path):
    data = block[0]
    # Switch threads often, so a result written to the wrong slot would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = {p: _run_http(block, p, tmp_path / f"p{p}") for p in (1, 2, 8)}
    finally:
        sys.setswitchinterval(interval)
    for summary, stats in runs.values():
        assert stats["unknown"] == 0 and stats["faults"] > 0
        assert stats["inflight_max"] <= gateway.MAX_IN_FLIGHT
    failed = {p: summary.failed_narratives for p, (summary, _) in runs.items()}
    assert failed[1] == failed[2] == failed[8] != []
    for name in ("redacted.jsonl", "audit.jsonl"):
        outputs = {(tmp_path / f"p{p}" / name).read_bytes() for p in runs}
        assert len(outputs) == 1, name
    mock = BackendConfig(kind="scripted_mock", fixture_path=data / "fixtures.jsonl")
    scripted = run_pipeline(_config(mock, 1), data / "corpus.jsonl", tmp_path / "mock")
    assert scripted.failed_narratives == failed[1]
    assert (tmp_path / "mock" / "redacted.jsonl").read_bytes() == (
        tmp_path / "p1" / "redacted.jsonl"
    ).read_bytes()


def _watch(monkeypatch, fail_id: str | None = None,
           raised: type[BaseException] = ValueError) -> tuple[list[int], set]:
    """Wrap ``process_narrative`` to record how many narratives are in
    progress as each one starts, and on which threads; narrative ``fail_id``
    raises ``raised``, a bug or an interrupt."""
    real = pipeline.process_narrative
    lock = threading.Lock()
    live, seen, threads = [0], [], set()

    def watched(narrative, config):
        with lock:
            live[0] += 1
            seen.append(live[0])
            threads.add(threading.current_thread())
        try:
            if narrative.id == fail_id:
                raise raised("bug inside process_narrative")
            return real(narrative, config)
        finally:
            with lock:
                live[0] -= 1

    monkeypatch.setattr(pipeline, "process_narrative", watched)
    return seen, threads


def test_http_window_is_set_by_the_cap_not_by_parallelism(block, tmp_path, monkeypatch):
    seen, _ = _watch(monkeypatch)
    summary, _ = _run_http(block, 1, tmp_path / "http")
    assert summary.counts["narratives"] == len(seen)
    assert 1 < max(seen) <= 2 * gateway.MAX_IN_FLIGHT
    assert _narrative_threads() == []


def test_a_mock_run_processes_one_narrative_at_a_time(block, tmp_path, monkeypatch):
    data = block[0]
    seen, threads = _watch(monkeypatch)
    mock = BackendConfig(kind="scripted_mock", fixture_path=data / "fixtures.jsonl")
    summary = run_pipeline(_config(mock, 8), data / "corpus.jsonl", tmp_path / "mock")
    assert summary.counts["narratives"] == len(seen) and max(seen) == 1
    assert threads == {threading.current_thread()}


@pytest.mark.parametrize("raised", [ValueError, KeyboardInterrupt])
def test_a_bug_in_one_narrative_leaves_no_pool_thread_behind(block, tmp_path, monkeypatch, raised):
    data = block[0]
    narratives = pipeline.load_corpus(data / "corpus.jsonl").narratives
    seen, _ = _watch(monkeypatch, fail_id=narratives[10].id, raised=raised)
    out = tmp_path / "http"
    with no_unclosed_sockets(), pytest.raises(raised, match="bug inside process_narrative"):
        _run_http(block, 2, out)
    assert _narrative_threads() == [] and open_connections() == 0
    assert not out.exists()
    # The bug stops the run: only narratives already started when it was
    # raised still run, at most one window beyond it.
    assert len(seen) <= 11 + 2 * gateway.MAX_IN_FLIGHT < len(narratives)


def test_a_lone_narrative_still_overlaps_its_tagging_runs(block, tmp_path):
    # A one-narrative corpus, like the benchmark's warm-up, has no other
    # narrative to overlap with: its K runs must overlap instead.
    data, url, counters = block
    first = (data / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]
    corpus = tmp_path / "one.jsonl"
    corpus.write_text(first + "\n", encoding="utf-8")
    counters.reset()
    backend = BackendConfig(kind="http_endpoint", endpoint_url=url)
    summary = run_pipeline(_config(backend, 1), corpus, tmp_path / "out")
    stats = counters.snapshot()
    assert summary.counts["narratives"] == 1 and stats["unknown"] == 0
    assert 2 <= stats["inflight_max"] <= gateway.MAX_IN_FLIGHT
    assert _narrative_threads() == []


def test_an_http_run_computes_no_request_key(block, tmp_path, monkeypatch):
    # Only the scripted mock keys its requests, so the key caches stay empty
    # of an HTTP run's text. The stub keys its own table through its own
    # binding, which this does not count.
    keyed = []
    real = gateway.request_key

    def counted(*args):
        keyed.append(args)
        return real(*args)

    monkeypatch.setattr(gateway, "request_key", counted)
    summary, stats = _run_http(block, 1, tmp_path / "http")
    assert summary.counts["narratives"] > 0 and stats["requests"] > 0
    assert stats["unknown"] == 0
    assert keyed == []
