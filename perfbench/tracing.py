"""Span tracing installed from outside the program.

``Tracer.install`` wraps the public functions of each layer at every
module binding that holds them: crashdeid imports most of them by name,
so ``parse_tagged`` must be replaced in ``crashdeid.extract`` and
``crashdeid.redact`` as well as in ``crashdeid.tags``. After installing,
``missed_bindings`` lists any crashdeid module global still bound to an
unwrapped original, and ``unfired`` lists expected wrappers that recorded
no call, so a missed binding fails loudly instead of under-reporting.

Spans (id, parent, name, start, end, thread, narrative span, note) are kept
in memory and written out once the run ends. A span opened on a worker
thread with no open span of its own is parented to the open
``run_pipeline`` span. Self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

from crashdeid.gateway import VERIFIER_SYSTEM_PROMPT

ROOT = "pipeline.run_pipeline"
NARRATIVE = "pipeline.process_narrative"


def _hallucinated(args, kwargs, result) -> str:
    return "hallucinated" if result.hallucinated else ""


def _degraded(args, kwargs, result) -> str:
    return "degraded" if result.degraded else ""


def _verifier_call(args, kwargs, result) -> str:
    request = args[0] if args else kwargs["request"]
    return "verifier" if request.system_prompt == VERIFIER_SYSTEM_PROMPT else ""


# (module, function, annotate(args, kwargs, result) -> note)
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("crashdeid.corpus", "load_corpus", None),
    ("crashdeid.corpus", "write_redacted", None),
    ("crashdeid.corpus", "write_audit_log", None),
    ("crashdeid.rules", "find_phones", None),
    ("crashdeid.rules", "find_emails", None),
    ("crashdeid.tags", "parse_tagged", None),
    ("crashdeid.tags", "detag_equals", None),
    ("crashdeid.gateway", "complete", _verifier_call),
    ("crashdeid.gateway", "request_key", None),
    ("crashdeid.extract", "hybrid_extract", None),
    ("crashdeid.extract", "extract_ensemble", None),
    ("crashdeid.extract", "extract_single_run", _hallucinated),
    ("crashdeid.extract", "rule_candidates", None),
    ("crashdeid.verify", "verify_candidates", _degraded),
    ("crashdeid.verify", "parse_verifier_output", None),
    ("crashdeid.verify", "check_evidence", None),
    ("crashdeid.redact", "render", None),
    ("crashdeid.pipeline", "run_pipeline", None),
    ("crashdeid.pipeline", "process_narrative", None),
)


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    narrative: int
    note: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._originals: dict[str, Callable] = {}
        self._installed: list[tuple[object, str, Callable]] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "crashdeid" or name.startswith("crashdeid."))]

    def install(self) -> None:
        for module_name, function, annotate in TARGETS:
            original = getattr(importlib.import_module(module_name), function)
            name = span_name(module_name, function)
            self._originals[name] = original
            wrapper = self._wrap(name, original, annotate)
            for module in self._modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def missed_bindings(self) -> list[str]:
        """crashdeid module globals still bound to an unwrapped original."""
        originals = {id(f): name for name, f in self._originals.items()}
        return [
            f"{module.__name__}.{attr} ({originals[id(value)]})"
            for module in self._modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]

    def unfired(self, expected) -> list[str]:
        """Expected span names that recorded no call."""
        fired = {span.name for span in self.spans}
        return [name for name in expected if name not in fired]

    def clear(self) -> None:
        self.spans = []

    def _wrap(self, name: str, original: Callable, annotate: Callable | None) -> Callable:
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.narrative = 0
            sid = next(ids)
            parent = stack[-1] if stack else self._root
            outer_narrative = local.narrative
            if name == NARRATIVE:
                local.narrative = sid
            elif name == ROOT:
                self._root = sid
            narrative = local.narrative
            stack.append(sid)
            note = "error"
            start = clock()
            try:
                result = original(*args, **kwargs)
                note = annotate(args, kwargs, result) if annotate else ""
                return result
            finally:
                end = clock()
                stack.pop()
                if name == ROOT:
                    self._root = 0
                local.narrative = outer_narrative
                self.spans.append(Span(sid, parent, name, start, end,
                                       threading.get_ident(), narrative, note))

        return wrapper

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1000.0


def layer_metrics(spans: list[Span], parallelism: int) -> dict[str, float]:
    """Per-layer self times, counts and useful-outcome ratios of one run."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    verifier_calls: dict[int, int] = defaultdict(int)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append((span.start, span.end))
        if span.name == "gateway.complete" and span.note == "verifier":
            verifier_calls[span.parent] += 1

    def total(*names: str) -> float:
        return sum(s.end - s.start for n in names for s in by_name[n])

    def self_time(*names: str) -> float:
        return sum(s.end - s.start - _covered(children[s.id], s.start, s.end)
                   for n in names for s in by_name[n])

    def count(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    completes = [s.end - s.start for s in by_name["gateway.complete"]]
    runs = by_name["extract.extract_single_run"]
    verifies = by_name["verify.verify_candidates"]
    reviewed = [s for s in verifies if verifier_calls[s.id]]
    narratives = by_name[NARRATIVE]
    roots = by_name[ROOT]
    root_wall = total(ROOT)
    if narratives:
        window = max(s.end for s in narratives) - min(s.start for s in narratives)
        busy = share(total(NARRATIVE), parallelism * window) if window > 0 else 0.0
    else:
        busy = 0.0
    covered = sum(_covered([(s.start, s.end) for s in spans if s.name != ROOT],
                           r.start, r.end) for r in roots)
    return {
        "corpus.load_s": total("corpus.load_corpus"),
        "corpus.write_s": total("corpus.write_redacted", "corpus.write_audit_log"),
        "rules.find_s": total("rules.find_phones", "rules.find_emails"),
        "rules.calls": count("rules.find_phones", "rules.find_emails"),
        "tags.parse_s": total("tags.parse_tagged"),
        "tags.parse_calls": count("tags.parse_tagged"),
        "tags.detag_s": total("tags.detag_equals"),
        "gateway.complete_s": self_time("gateway.complete"),
        "gateway.calls": len(completes),
        "gateway.errors": sum(s.note == "error" for s in by_name["gateway.complete"]),
        "gateway.complete_p50_ms": _percentile_ms(completes, 50),
        "gateway.complete_p99_ms": _percentile_ms(completes, 99),
        "gateway.request_key_s": total("gateway.request_key"),
        "extract.self_s": self_time("extract.hybrid_extract", "extract.extract_ensemble",
                                    "extract.extract_single_run", "extract.rule_candidates"),
        "extract.runs": len(runs),
        "extract.useful_run_share": share(sum(s.note == "" for s in runs), len(runs)),
        "verify.self_s": self_time("verify.verify_candidates"),
        "verify.parse_s": total("verify.parse_verifier_output"),
        "verify.evidence_s": total("verify.check_evidence"),
        "verify.calls": sum(verifier_calls.values()),
        "verify.repair_share": share(sum(verifier_calls[s.id] > 1 for s in reviewed), len(reviewed)),
        "verify.degraded_share": share(sum(s.note == "degraded" for s in reviewed), len(reviewed)),
        "verify.skipped_share": share(len(verifies) - len(reviewed), len(verifies)),
        "redact.render_s": self_time("redact.render"),
        "redact.render_calls": count("redact.render"),
        "pipeline.self_s": self_time(ROOT, NARRATIVE),
        "pipeline.narrative_p50_ms": _percentile_ms([s.end - s.start for s in narratives], 50),
        "pipeline.narrative_p99_ms": _percentile_ms([s.end - s.start for s in narratives], 99),
        "pipeline.worker_busy_share": busy,
        "trace.span_covered_share": share(covered, root_wall) if root_wall else 0.0,
    }
