"""The benchmark harness in ``perfbench/`` calls crashdeid by name.

These checks only import it: a refactor that breaks one of its seams fails
here as well as in the harness's own tests.
"""

from __future__ import annotations

import importlib
import inspect
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_every_traced_target_is_a_crashdeid_function(bench):
    for module_name, function, _ in bench("tracing").TARGETS:
        target = getattr(importlib.import_module(module_name), function, None)
        assert inspect.isfunction(target), f"{module_name}.{function}"
        assert target.__module__ == module_name, f"{module_name}.{function}"


def test_generator_imports_and_scripts_one_block(bench, tmp_path):
    gen = bench("gen")
    # One block runs every prompt builder and verifier seam the generator uses.
    gen.generate_hybrid(tmp_path, seed=1, narratives=gen.STUB_NARRATIVES)
    assert (tmp_path / "fixtures.jsonl").stat().st_size > 0


@pytest.mark.parametrize(
    "preset,backend,k_runs",
    [
        ("hybrid_ev", {"kind": "scripted_mock", "fixture_path": "fixtures.jsonl"}, 5),
        ("rules_only", None, 1),
    ],
)
def test_measure_builds_a_config_for_each_spec_shape(bench, preset, backend, k_runs):
    spec = {"preset": preset, "k_runs": 5, "pipeline_seed": 0, "backend": backend,
            "parallelism": 2}
    config = bench("measure").pipeline_config(spec)
    assert config.preset == preset
    assert config.ensemble.k_runs == k_runs
    assert (config.verifier_backend is not None) == (preset == "hybrid_ev")
    assert config.parallelism == 2 and config.seed == 0 and config.mask_timestamps


@pytest.mark.parametrize(
    "workload,preset",
    [("rules_long", "rules_only"), ("mock_hybrid_ev", "hybrid_ev")],
)
def test_tracer_wraps_and_fires_every_layer_of_a_workload(bench, tmp_path, workload, preset):
    from crashdeid import pipeline

    gen, run = bench("gen"), bench("run")
    data = tmp_path / "data"
    backend = None
    if workload == "rules_long":
        gen.generate_long(data, seed=1, narratives=20)
    else:
        gen.generate_hybrid(data, seed=1, narratives=gen.STUB_NARRATIVES)
        backend = {"kind": "scripted_mock", "fixture_path": str(data / "fixtures.jsonl")}
    config = bench("measure").pipeline_config(
        {"preset": preset, "k_runs": 5, "pipeline_seed": 0, "backend": backend,
         "parallelism": 1}
    )
    tracer = bench("tracing").Tracer()
    tracer.install()
    try:
        assert tracer.missed_bindings() == []
        pipeline.run_pipeline(config, data / "corpus.jsonl", tmp_path / "out")
        assert tracer.unfired(run.WORKLOADS[workload]["fired"]) == []
    finally:
        tracer.uninstall()


def test_stub_answers_every_request_of_one_block(bench, tmp_path):
    """The stub keys requests as the gateway sends them: a change to the
    payload shape or to ``request_key`` shows here, not only in a bench run."""
    from crashdeid import pipeline

    gen, measure, stub = bench("gen"), bench("measure"), bench("stub")
    gen.generate_hybrid(tmp_path, seed=1, narratives=gen.STUB_NARRATIVES)
    chat, control, counters = stub.make_servers(
        stub.load_table(tmp_path / "fixtures.jsonl"), frozenset(), 0.0
    )
    server = threading.Thread(target=chat.serve_forever, daemon=True)
    server.start()
    host, port = chat.server_address[:2]
    backends = {
        "http": {"kind": "http_endpoint", "endpoint_url": f"http://{host}:{port}/v1/chat"},
        "mock": {"kind": "scripted_mock", "fixture_path": str(tmp_path / "fixtures.jsonl")},
    }

    def run(name: str):
        config = measure.pipeline_config({"preset": "hybrid_ev", "k_runs": 5, "pipeline_seed": 0,
                                          "parallelism": 2, "backend": backends[name]})
        return pipeline.run_pipeline(config, tmp_path / "corpus.jsonl", tmp_path / name)

    try:
        served = run("http")
    finally:
        chat.shutdown()
        server.join(timeout=10)
        chat.server_close()
        control.server_close()
    assert not server.is_alive()
    assert counters.snapshot()["unknown"] == 0
    scripted = run("mock")
    # Only the block's narrative that already holds a delimiter fails, as it
    # does against the mock.
    assert len(served.failed_narratives) == gen.BLOCK_DELIMITED
    assert served.failed_narratives == scripted.failed_narratives
    assert (tmp_path / "http" / "redacted.jsonl").read_bytes() == (
        tmp_path / "mock" / "redacted.jsonl"
    ).read_bytes()
