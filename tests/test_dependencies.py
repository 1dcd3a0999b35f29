"""The package runs on the Python standard library alone."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "certifi")


def test_importing_the_package_loads_no_third_party_http_stack():
    # Compared with the modules loaded before the import, so that whatever
    # the interpreter's site hooks preload does not count.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import crashdeid.cli, crashdeid.pipeline\n"
        f"print(json.dumps(sorted(set(sys.modules) - before & set({HTTP_STACK!r}))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(done.stdout) == []


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []
