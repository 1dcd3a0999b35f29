import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest


@pytest.fixture
def run_pipeline():
    """Run crashdeid in-process with the configuration measure.py builds."""
    from crashdeid import pipeline
    from measure import pipeline_config

    def run(corpus: Path, out: Path, preset: str, backend: dict | None = None,
            parallelism: int = 1):
        spec = {"preset": preset, "k_runs": 5, "pipeline_seed": 0,
                "backend": backend, "parallelism": parallelism}
        return pipeline.run_pipeline(pipeline_config(spec), corpus / "corpus.jsonl", out)

    return run
