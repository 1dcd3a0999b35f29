"""One measured process of the benchmark.

    python3 perfbench/measure.py SPEC.json OUT_DIR [--trace]

Imports crashdeid, runs ``run_pipeline`` on a one-narrative warm-up corpus
(import, regex compile and the fixture-table load happen here), then times
one ``run_pipeline`` call on the workload corpus, with ``reference_s``
timed just before and just after it. With ``--trace`` the
layer wrappers are installed first and the timed call's spans are
aggregated into per-layer metrics; a wrapper left unbound or one of
``spec["fired"]`` that recorded no call exits 3. Prints one JSON line: the
monotonic time at which set-up ended and the CPU time spent until then, the
two reference times added up, wall and CPU time of the timed call,
peak RSS, the manifest counts, the stub's counters for the timed call (stub
workloads only) and, when traced, the layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def pipeline_config(spec: dict):
    """The ``PipelineConfig`` of a workload spec: K runs, pipeline seed,
    preset, backend and parallelism, under ``--mask-timestamps``."""
    from crashdeid import pipeline
    from crashdeid.extract import EnsembleConfig
    from crashdeid.gateway import BackendConfig

    backend = BackendConfig(**spec["backend"]) if spec["backend"] else None
    return pipeline.PipelineConfig(
        preset=spec["preset"],
        ensemble=EnsembleConfig(k_runs=spec["k_runs"]),
        extractor_backend=backend,
        verifier_backend=backend if spec["preset"] == "hybrid_ev" else None,
        parallelism=spec["parallelism"],
        seed=spec["pipeline_seed"],
        mask_timestamps=True,
    )


def reference_s() -> float:
    """Seconds a fixed stdlib workload takes: regex scans, a JSON round trip
    and a split-and-sort over 46 KB of text.

    It shares no code with crashdeid, so a change to the program cannot move
    it; timed just before and just after the measured call, it tracks the
    speed the host's CPU had meanwhile.
    """
    import re

    words = ("CRASH", "UNIT", "555-0134", "NB", "x.y@example.org", "1234567", "DRIVER",
             "42", "HIGHWAY", "a@b.c", "MILL RD")
    text = " ".join(words[(i * i + 3 * i) % len(words)] for i in range(6000))
    patterns = [re.compile(p) for p in (r"\d{3}[-. ]?\d{4}", r"[\w.]+@[\w.]+", r"\b[A-Z]{4,}\b")]
    started = time.perf_counter()
    for _ in range(3):
        for pattern in patterns:
            spans = [(m.start(), m.end(), m.group()) for m in pattern.finditer(text)]
            json.loads(json.dumps(spans))
        sorted(text.split())
    return time.perf_counter() - started


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _control(url: str, method: str) -> dict:
    import urllib.request  # stub workloads only: kept out of the others' set-up time

    request = urllib.request.Request(url, method=method, data=b"" if method == "POST" else None)
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    out = Path(argv[1])
    traced = "--trace" in argv[2:]

    import crashdeid
    from crashdeid import pipeline

    if not Path(crashdeid.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"crashdeid imported from {crashdeid.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if traced:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        missed = tracer.missed_bindings()
        if missed:
            print("unwrapped bindings: " + ", ".join(missed), file=sys.stderr)
            return 3

    config = pipeline_config(spec)
    pipeline.run_pipeline(config, spec["warmup"], out / "warmup")
    setup_end = time.monotonic()
    setup_cpu = _cpu_s(resource.getrusage(resource.RUSAGE_SELF))

    if tracer:
        tracer.clear()
    if spec["control"]:
        _control(spec["control"] + "/reset", "POST")
    reference = reference_s()
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    summary = pipeline.run_pipeline(config, spec["input"], out / "run")
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    reference += reference_s()
    stub = _control(spec["control"] + "/stats", "GET") if spec["control"] else None

    result = {
        "setup_end": setup_end,
        "setup_cpu_s": setup_cpu,
        "reference_s": reference,
        "wall_s": wall,
        "cpu_s": _cpu_s(after) - _cpu_s(before),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "counts": summary.counts,
        "stub": stub,
    }
    if tracer:
        unfired = tracer.unfired(spec["fired"])
        if unfired:
            print("wrappers that never fired: " + ", ".join(unfired), file=sys.stderr)
            return 3
        result["layers"] = layer_metrics(tracer.spans, spec["parallelism"])
        tracer.write(out / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
