"""The package runs on the Python standard library alone, and a run loads
only the parts of it that the run uses."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR, raw_server

ROOT = Path(__file__).resolve().parent.parent
HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "certifi")
#: Loaded only by a run that posts over HTTP, fans out, scores, or reads a CSV corpus.
LAZY = (
    "http.client", "ssl", "email.parser", "concurrent.futures", "decimal", "crashdeid.evalkit",
    "csv",
)


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


def _runs_in_one_process(runs: list[tuple[str, list[str]]]) -> dict[str, list[str]]:
    """Run each CLI command in turn in one fresh interpreter; for each, the
    modules loaded since before ``crashdeid`` was imported."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import crashdeid.cli, crashdeid.pipeline\n"
        "seen = {}\n"
        "for name, argv in json.loads(sys.argv[1]):\n"
        "    assert crashdeid.cli.main(argv) in (0, 1), name\n"
        "    seen[name] = sorted(set(sys.modules) - before)\n"
        "print(json.dumps(seen))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def test_a_run_loads_the_http_stack_pools_hashing_and_scorer_only_when_it_uses_them(tmp_path):
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        gen, stub = importlib.import_module("gen"), importlib.import_module("stub")
    gen.generate_hybrid(tmp_path, seed=2, narratives=4)
    chat, control, _ = stub.make_servers(stub.load_table(tmp_path / "fixtures.jsonl"),
                                         frozenset(), 0.0)
    server = threading.Thread(target=chat.serve_forever, daemon=True)
    server.start()
    host, port = chat.server_address[:2]
    corpus = ["--input", str(tmp_path / "corpus.jsonl"), "--seed", "0", "--k-ensemble", "2"]
    try:
        seen = _runs_in_one_process([
            ("rules", ["run", "--out", str(tmp_path / "rules"), "--preset", "rules_only"]
             + corpus),
            ("mock", ["run", "--out", str(tmp_path / "mock"), "--preset", "hybrid_ev",
                      "--mock-fixtures", str(tmp_path / "fixtures.jsonl")] + corpus),
            ("eval", ["eval", "--report", str(tmp_path / "report.json"), "--preset", "rules_only",
                      "--gold", str(tmp_path / "corpus.gold.jsonl")] + corpus),
            ("http", ["run", "--out", str(tmp_path / "http"), "--preset", "hybrid_ev",
                      "--extractor-endpoint", f"http://{host}:{port}/v1/chat/completions",
                      "--verifier-endpoint", f"http://{host}:{port}/v1/chat/completions"]
             + corpus),
        ])
    finally:
        chat.shutdown()
        server.join(timeout=10)
        chat.server_close()
        control.server_close()
    assert [m for m in seen["rules"] if m in LAZY or m == "hashlib"] == []
    assert [m for m in seen["mock"] if m in LAZY] == [] and "hashlib" in seen["mock"]
    assert "crashdeid.evalkit" in seen["eval"] and "http.client" not in seen["eval"]
    # The client writes and reads HTTP/1.1 itself: a plain http run loads no
    # HTTP library, no header parser and no TLS.
    assert "concurrent.futures" in seen["http"]
    assert [m for m in seen["http"] if m in ("http.client", "email.parser", "ssl")] == []


def test_only_an_https_endpoint_loads_ssl():
    import ssl
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(FIXTURE_DIR / "localhost.pem", FIXTURE_DIR / "localhost.key")
    body = json.dumps({"choices": [{"message": {"content": "OK"}}]}).encode()
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from crashdeid.gateway import BackendConfig, ChatRequest, GatewayError, complete\n"
        "outcomes = []\n"
        "for url in sys.argv[1:]:\n"
        "    config = BackendConfig(kind='http_endpoint', endpoint_url=url, retries=0)\n"
        "    try:\n"
        "        outcome = complete(ChatRequest('s', 'u'), config).text\n"
        "    except GatewayError as exc:\n"
        "        outcome = type(exc).__name__\n"
        "    outcomes.append([outcome, 'ssl' in set(sys.modules) - before])\n"
        "print(json.dumps(outcomes))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with raw_server(lambda n: (reply, True)) as (port, _, _), \
            raw_server(lambda n: (reply, True), context) as (tls_port, _, _):
        done = subprocess.run(
            [sys.executable, "-c", script, f"http://127.0.0.1:{port}/v1",
             f"https://localhost:{tls_port}/v1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
    assert done.returncode == 0, done.stderr[-2000:]
    # The https call loads ssl, and its self-signed certificate is refused.
    assert json.loads(done.stdout) == [["OK", False], ["TransportFailure", True]]
