import subprocess
import sys

import pytest

import gen
import run
from tracing import Span, Tracer, layer_metrics


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


@pytest.fixture
def long_corpus(tmp_path):
    gen.generate_long(tmp_path / "data", 1, narratives=3)
    return tmp_path / "data"


def test_every_binding_is_wrapped_and_fires(tracer, long_corpus, run_pipeline, tmp_path):
    assert tracer.missed_bindings() == []
    run_pipeline(long_corpus, tmp_path / "out", "rules_only")
    assert tracer.unfired(run.WORKLOADS["rules_long"]["fired"]) == []
    assert sum(s.name == "tags.parse_tagged" for s in tracer.spans) == 3
    roots = [s for s in tracer.spans if s.name == "pipeline.run_pipeline"]
    narratives = [s for s in tracer.spans if s.name == "pipeline.process_narrative"]
    assert len(roots) == 1 and len(narratives) == 3
    assert all(s.parent == roots[0].id for s in narratives)


def test_a_missed_binding_fails_loudly(tracer, long_corpus, run_pipeline, tmp_path):
    import crashdeid.redact

    original = tracer._originals["tags.parse_tagged"]
    crashdeid.redact.parse_tagged = original  # as if the install had skipped redact
    assert tracer.missed_bindings() == ["crashdeid.redact.parse_tagged (tags.parse_tagged)"]
    run_pipeline(long_corpus, tmp_path / "out", "rules_only")
    assert tracer.unfired(["tags.parse_tagged", "redact.render"]) == ["tags.parse_tagged"]


def test_uninstall_restores_the_originals(long_corpus):
    import crashdeid.redact
    import crashdeid.tags

    original = crashdeid.tags.parse_tagged
    tracer = Tracer()
    tracer.install()
    assert crashdeid.redact.parse_tagged is not original
    tracer.uninstall()
    assert crashdeid.redact.parse_tagged is original and crashdeid.tags.parse_tagged is original


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, 0, "pipeline.run_pipeline", 0.0, 10.0, 1, 0, ""),
        Span(2, 1, "pipeline.process_narrative", 1.0, 3.0, 2, 2, ""),
        Span(3, 1, "pipeline.process_narrative", 2.0, 5.0, 3, 3, ""),
        Span(4, 2, "redact.render", 1.5, 2.0, 2, 2, ""),
    ]
    metrics = layer_metrics(spans, parallelism=2)
    # root: 10 - |[1,5]| = 6; narratives: (2 - 0.5) + 3 = 4.5
    assert metrics["pipeline.self_s"] == pytest.approx(10.5)
    assert metrics["redact.render_s"] == pytest.approx(0.5)
    assert metrics["pipeline.worker_busy_share"] == pytest.approx(5.0 / (2 * 4.0))
    assert metrics["trace.span_covered_share"] == pytest.approx(0.4)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.Path(run.__file__)), "--workload", "rules_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
