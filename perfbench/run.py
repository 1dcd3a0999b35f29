"""crashdeid benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` under ``.bench_build/`` and removed at
the end; the spans of the last traced run are kept there. For ``--seconds`` the harness starts one fresh measured process
after another (``measure.py``); each warms up on one narrative and then
times one ``crashdeid.pipeline.run_pipeline`` call under
``--mask-timestamps``. Every run's outputs are checked by ``check.py``; a
violation exits 1.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
each the median over the run's measured processes, with CPU time scaled to
the reference speed (see ``at_reference_speed``; on ``stub_hybrid_ev`` only
set-up is scaled); with ``--trace 1``
traced and untraced runs alternate and it reports the per-layer metrics
(medians over the traced runs). Earlier lines print every
metric by name and unit, with quartiles and the number of runs.
``--workload all`` runs every workload in turn.

Workloads (closed loops; the program sees only the generated files):

mock_hybrid_ev  hybrid_ev, K=5, scripted mock, --parallelism 1, ~500-char
                narratives: our own CPU path, no I/O wait.
stub_hybrid_ev  the same preset, corpus prefix and fixture table, served by
                a localhost stub (stub.py) with a fixed 20 ms latency and a seeded
                first-attempt HTTP 500 on 1% of request keys; 2 callers
                (--parallelism 2): the backend-overlap path.
rules_long      rules_only on several-KB narratives dense with digit runs,
                near-miss phones and ``@`` tokens: rule recognizers, the
                render self-check and corpus I/O; the largest input.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_outputs, file_digest

# ROADMAP's stub baseline was measured at this latency.
STUB_LATENCY_MS = 20.0
MIN_RUNS = 3
# measure.py's two reference_s() samples add up to this on a host of the
# reference speed (about the usual speed of a 2-vCPU Xeon host).
REFERENCE_S = 0.1
DEADLINE_S = 170.0

_HYBRID_LAYERS = [
    "corpus.load_corpus", "corpus.write_redacted", "corpus.write_audit_log",
    "rules.find_phones", "rules.find_emails", "tags.parse_tagged", "tags.detag_equals",
    "gateway.complete", "extract.hybrid_extract", "extract.extract_ensemble",
    "extract.extract_single_run", "extract.rule_candidates", "verify.verify_candidates",
    "verify.parse_verifier_output", "verify.check_evidence", "redact.render",
    "pipeline.run_pipeline", "pipeline.process_narrative",
]
WORKLOADS = {
    "mock_hybrid_ev": {
        "corpus": "hybrid", "preset": "hybrid_ev", "backend": "mock", "parallelism": 1,
        "fired": _HYBRID_LAYERS + ["gateway.request_key"],
    },
    "stub_hybrid_ev": {
        "corpus": "prefix", "preset": "hybrid_ev", "backend": "stub", "parallelism": 2,
        "fired": _HYBRID_LAYERS, "timed_cpu_scaled": False,
    },
    "rules_long": {
        "corpus": "long", "preset": "rules_only", "backend": None, "parallelism": 1,
        "fired": ["corpus.load_corpus", "corpus.write_redacted", "rules.find_phones",
                  "rules.find_emails", "tags.parse_tagged", "tags.detag_equals",
                  "extract.rule_candidates", "redact.render", "pipeline.run_pipeline",
                  "pipeline.process_narrative"],
    },
}

# Metric names and units are those of BENCHMARK.json, at the checkout root.
_DEFINED = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DEFINED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DEFINED["per_layer"]}


class BenchError(RuntimeError):
    """The harness could not run or the program's outputs are wrong."""


def at_reference_speed(wall: float, cpu: float, factor: float) -> float:
    """``wall`` seconds with their CPU part rescaled to the reference speed.

    A shared host's vCPU changes speed by up to 2x for seconds to minutes
    at a time. The reference workload, timed in the same process around the
    measured call, slows with it, so ``cpu * factor`` with ``factor =
    REFERENCE_S / reference`` is the CPU time the call would take at the
    reference speed. The rest of the wall time, waiting on the backend or
    the disk, is kept as measured. The program's threads share one
    interpreter lock, so its CPU time does not exceed the wall time.
    """
    return max(wall - cpu, 0.0) + cpu * factor


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Harness:
    def __init__(self, checkout: Path, workload: str, seed: int, deadline: float) -> None:
        self.checkout = checkout
        self.src = checkout / "src"
        self.workload = workload
        self.spec_of = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.work = checkout / ".bench_build" / "perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.spans = self.work.parent / f"{workload}-{seed}.spans.jsonl"
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(self.src))
        self.stub: subprocess.Popen | None = None
        self.runs = 0
        self.digests: tuple[str, str] | None = None
        self.portable: tuple[str, str] | None = None

    # -- inputs -----------------------------------------------------------
    def generate(self) -> None:
        import gen  # imports crashdeid, so only once src/ is on sys.path

        data = self.work / "data"
        if self.spec_of["corpus"] == "long":
            gen.generate_long(data, self.seed)
        else:
            gen.generate_hybrid(data, self.seed)
        self.corpus = data
        if self.spec_of["corpus"] == "prefix":
            self.corpus = self.work / "prefix"
            gen.write_prefix(data, self.corpus, gen.STUB_NARRATIVES)
        self.fixtures = data / "fixtures.jsonl"
        warm = self.work / "warm"
        warm.mkdir()
        first = (self.corpus / "corpus.jsonl").read_text(encoding="utf-8").splitlines(True)[0]
        (warm / "corpus.jsonl").write_text(first, encoding="utf-8")
        self.warmup = warm / "corpus.jsonl"
        self.narratives = sum(1 for _ in (self.corpus / "corpus.jsonl").open(encoding="utf-8"))

    def start_stub(self) -> None:
        here = Path(__file__).resolve().parent
        self.stub = subprocess.Popen(
            [sys.executable, str(here / "stub.py"), "--fixtures", str(self.fixtures),
             "--faults", str(self.work / "data" / "faults.json"),
             "--latency-ms", str(STUB_LATENCY_MS)],
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=self.checkout,
        )
        line = self.stub.stdout.readline().split()
        if len(line) != 2:
            raise BenchError("stub server did not start")
        chat, control = line
        self.endpoint = f"http://127.0.0.1:{chat}/v1/chat/completions"
        self.control = f"http://127.0.0.1:{control}"

    def stop_stub(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None

    # -- one measured process -------------------------------------------------
    def measure(self, traced: bool, backend: str | None = None, parallelism: int | None = None) -> dict:
        backend = self.spec_of["backend"] if backend is None else backend
        spec = {
            "src": str(self.src),
            "input": str(self.corpus / "corpus.jsonl"),
            "warmup": str(self.warmup),
            "preset": self.spec_of["preset"],
            "k_runs": 5,
            "pipeline_seed": 0,
            "parallelism": parallelism or self.spec_of["parallelism"],
            "backend": None,
            "control": None,
            "fired": self.spec_of["fired"],
        }
        if backend == "mock":
            spec["backend"] = {"kind": "scripted_mock", "fixture_path": str(self.fixtures)}
        elif backend == "stub":
            spec["backend"] = {"kind": "http_endpoint", "endpoint_url": self.endpoint}
            spec["control"] = self.control
        self.runs += 1
        out = self.work / f"run{self.runs}"
        out.mkdir()
        spec_path = out / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        command = [sys.executable, str(Path(__file__).resolve().parent / "measure.py"),
                   str(spec_path), str(out)] + (["--trace"] if traced else [])
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a measured run")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(command, capture_output=True, text=True, env=self.env,
                                  cwd=self.checkout, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("a measured run did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"measured run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["setup_end"] - spawned
        result["out"] = out / "run"
        if result["stub"] is not None and result["stub"]["unknown"]:
            raise BenchError(f"stub received {result['stub']['unknown']} requests with no fixture")
        return result

    def check(self, result: dict) -> None:
        """Full output check on the first run; byte-identical outputs after."""
        out = result["out"]
        digests = (file_digest(out / "redacted.jsonl"), file_digest(out / "audit.jsonl"))
        if self.digests is None:
            errors = check_outputs(self.corpus / "corpus.jsonl", self.corpus / "expect.jsonl", out)
            if errors:
                raise BenchError("output check failed: " + "; ".join(errors[:10]))
            self.digests = digests
            # The audit log names the backend, so the stub's is compared to the
            # mock's without that field.
            self.portable = (digests[0], file_digest(out / "audit.jsonl", drop_field="backend_id"))
        elif digests != self.digests:
            raise BenchError("outputs differ between runs of one workload")
        shutil.rmtree(out.parent)

    # -- the run ----------------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> dict:
        self.generate()
        if self.spec_of["backend"] == "stub":
            self.start_stub()
            self.check(self.measure(False, backend="mock", parallelism=1))
            reference, self.digests = self.portable, None
        plain: list[dict] = []
        traced: list[dict] = []
        started = time.monotonic()
        while (time.monotonic() - started < seconds
               or len(plain) < MIN_RUNS or (trace and len(traced) < MIN_RUNS)):
            tracing = trace and len(traced) < len(plain)
            result = self.measure(tracing)
            if tracing:
                os.replace(result["out"].parent / "spans.jsonl", self.spans)
            self.check(result)
            (traced if tracing else plain).append(result)
        if self.spec_of["backend"] == "stub" and self.portable != reference:
            raise BenchError("stub outputs differ from the mock outputs on the shared prefix")
        return self.report(plain, traced)

    def report(self, plain: list[dict], traced: list[dict]) -> dict:
        n = self.narratives
        stubbed = plain[0]["stub"] is not None
        factors = [REFERENCE_S / r["reference_s"] for r in plain]
        # The stub workload's CPU time does not follow the reference (see
        # README.md), so its timed call is reported as measured.
        timed = factors if self.spec_of.get("timed_cpu_scaled", True) else [1.0] * len(plain)
        series = {
            "narratives_per_s": [n / at_reference_speed(r["wall_s"], r["cpu_s"], f)
                                 for r, f in zip(plain, timed)],
            "cpu_ms_per_narrative": [r["cpu_s"] * f * 1000.0 / n for r, f in zip(plain, timed)],
            "setup_s": [at_reference_speed(r["setup_s"], r["setup_cpu_s"], f)
                        for r, f in zip(plain, factors)],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "failed_share": [r["counts"]["failed"] / n for r in plain],
            "backend_requests_per_narrative": [
                r["stub"]["requests"] / n if stubbed else 0.0 for r in plain],
        }
        if stubbed:
            stats = [r["stub"] for r in plain]
            series["stub.requests"] = [s["requests"] for s in stats]
            series["stub.retried_requests"] = [s["retried"] for s in stats]
            series["stub.retry_wait_share"] = [
                s["retry_wait_s"] / (self.spec_of["parallelism"] * r["wall_s"])
                for s, r in zip(stats, plain)]
            series["stub.connections_per_request"] = [s["connections"] / s["requests"] for s in stats]
            series["stub.inflight_max"] = [s["inflight_max"] for s in stats]
            series["stub.inflight_mean"] = [s["inflight_mean"] for s in stats]
            series["stub.little_narratives_per_s"] = [
                s["inflight_mean"] / (STUB_LATENCY_MS / 1000.0 * s["requests"] / n) for s in stats]
        if traced:
            for name in traced[0]["layers"]:
                series[name] = [r["layers"][name] for r in traced]
            # Runs alternate untraced, traced: compare each traced run with
            # the untraced one just before it.
            series["trace.overhead_share"] = [
                t["wall_s"] / p["wall_s"] - 1.0 for p, t in zip(plain, traced)]
            for name in PER_LAYER:
                series.setdefault(name, [0.0])  # stub counters off the stub workload

        print(f"workload {self.workload} seed {self.seed}: {n} narratives, "
              f"{len(plain)} untraced and {len(traced)} traced runs")
        print(f"  outputs: redacted.jsonl sha256 {self.portable[0]}, "
              f"audit.jsonl sha256 without backend_id {self.portable[1]}")
        print(f"  failed_share base: {plain[0]['counts']['failed']} failed / {n} narratives")
        for name, values in series.items():
            unit = END_TO_END.get(name) or PER_LAYER[name]
            q1, med, q3 = _quartiles(values)
            print(f"  {name} = {med:.6g} {unit}  (median; q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"n={len(values)})")
        measured_nps = statistics.median(n / r["wall_s"] for r in plain)
        print(f"  as measured (medians, not scaled): narratives_per_s {measured_nps:.6g} 1/s, "
              f"cpu_ms_per_narrative {statistics.median(r['cpu_s'] for r in plain) * 1000 / n:.6g} ms, "
              f"setup_s {statistics.median(r['setup_s'] for r in plain):.6g} s; "
              f"host speed / reference speed "
              f"{statistics.median(factors):.4g}")
        if traced:
            print(f"  spans of the last traced run: {self.spans}")
        if stubbed:
            print(f"  Little's law: inflight_mean / (latency x requests per narrative) = "
                  f"{statistics.median(series['stub.little_narratives_per_s']):.4g} 1/s "
                  f"beside measured narratives_per_s {measured_nps:.4g} 1/s")
        names = PER_LAYER if traced else END_TO_END
        return {
            "correct": True,
            "attempted": len(plain) + len(traced),
            "failed": 0,
            "metrics": {name: {"value": statistics.median(series[name]), "unit": unit}
                        for name, unit in names.items()},
        }


def run_workload(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    harness = Harness(checkout, workload, seed, time.monotonic() + DEADLINE_S)
    try:
        result = harness.run(seconds, trace)
    except BenchError as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(harness.runs, 1),
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        harness.stop_stub()
        shutil.rmtree(harness.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="crashdeid benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "crashdeid" / "__init__.py").is_file():
        print("error: run from the root of a crashdeid checkout (src/crashdeid missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status |= run_workload(checkout, workload, args.seed, args.seconds, bool(args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
