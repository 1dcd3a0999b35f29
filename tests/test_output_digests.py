"""Outputs pinned byte for byte.

Every distinct ``crashdeid run --seed 0 --mask-timestamps`` configuration
runs on the benchmark generator's seed-7 hybrid block and on a 20-narrative
long corpus, and the SHA-256 of each file it writes must equal the digest
pinned here. So must the two report files of ``crashdeid eval`` against the
hybrid block's gold, for each preset and each policy of ``hybrid_ev``. The
generated inputs are pinned too, so that a change to the generator reads as
an input mismatch rather than as an output change. A change that alters
outputs on purpose re-pins these digests and says so.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

from crashdeid.cli import main
from crashdeid.pipeline import PRESETS

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

RUNS = [
    (corpus, preset, policy, mode)
    for corpus, presets in (("hybrid", list(PRESETS)), ("long", ["rules_only"]))
    for preset in presets
    for policy in (("recall-first", "precision-first") if preset == "hybrid_ev"
                   else ("recall-first",))
    for mode in ("tagged", "placeholder")
]


def generate(root: Path) -> None:
    """The seed-7 hybrid block and a 20-narrative long corpus under ``root``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        gen = importlib.import_module("gen")
    gen.generate_hybrid(root / "hybrid", seed=7, narratives=gen.STUB_NARRATIVES)
    gen.generate_long(root / "long", seed=7, narratives=20)


EVALS = [(preset, policy) for corpus, preset, policy, mode in RUNS
         if corpus == "hybrid" and mode == "tagged"]


def run(root: Path, out: Path, corpus: str, preset: str, policy: str, mode: str) -> int:
    """One CLI run over relative input paths, so the manifest records no
    temporary directory."""
    return cli(root / corpus, "run", "--out", str(out), "--preset", preset,
               "--policy", policy, "--redaction", mode)


def evaluate(root: Path, report: Path, preset: str, policy: str) -> int:
    """One CLI eval of the hybrid block against its gold."""
    return cli(root / "hybrid", "eval", "--gold", "corpus.gold.jsonl", "--report", str(report),
               "--preset", preset, "--policy", policy)


def cli(directory: Path, command: str, *argv: str) -> int:
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        fixtures = ["--mock-fixtures", "fixtures.jsonl"] if directory.name == "hybrid" else []
        return main([command, "--input", "corpus.jsonl", *argv, "--seed", "0",
                     "--mask-timestamps", *fixtures])


def digests(directory: Path) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


INPUTS: dict[str, str] = {
    "hybrid/corpus.gold.jsonl": "fd0b7137921d4fcb26b97b39257585a2a82c533ce1c2142c54d8975b30cc753b",
    "hybrid/corpus.jsonl": "b7f29c76df9931204b3d2df3a08ca2cc50741c0f52d5317ad9c3240d9d6d8f99",
    "hybrid/expect.jsonl": "148f63de902f505eb362e245f9451975a74af935efb571875ec8aa337e559b12",
    "hybrid/faults.json": "1e8cd16f831e351e7e378c5d19fd22ebe7862bdd58e52b9f394ca99e1322d0aa",
    "hybrid/fixtures.jsonl": "ee5894e1d23fb888cb7d66edc3187d9194631a8667370b3216722d003d961712",
    "long/corpus.gold.jsonl": "0e8f03ee386d1c908cec7c16b33e16620731ad3a8e21209a3322086d80d01ac5",
    "long/corpus.jsonl": "07b4adbbc77b220abcf4981efe56d59f78ec7c4268af616cd4e92ab88b31b43e",
    "long/expect.jsonl": "9daa61ea5b27405ccf5524273e6685024f64a0bf96906abab3e0a6f0346d8786",
}

OUTPUTS: dict[str, dict[str, str]] = {
    "hybrid-rules_only-recall-first-tagged": {
        "manifest.json": "af4a829ec431493525e292a8ed4a2388e21823202c0b48e7a2220c6f3c0c558e",
        "redacted.jsonl": "9733d88de0444205dca5a8ec0bd2be55e7a700cd02d5c353a325546f0e154427",
    },
    "hybrid-rules_only-recall-first-placeholder": {
        "manifest.json": "68d68a19798f8414ee5648015bd1af11eaae93d7b19e2d75a26f42633577d8a5",
        "redacted.jsonl": "353f7ad8dbd4c58ed812155ef44b4262560a6eed1d55bfb60d0fb8e98a48c74b",
    },
    "hybrid-llm_single-recall-first-tagged": {
        "manifest.json": "948127c3f91443653ecd296ca19f9cf78cfa1d7f5c699d8fe69f61a1adde6429",
        "redacted.jsonl": "7460c0683c888c25565de1c3d9d41a9caf60a45f3ffcc00ddebd9805a90cc866",
    },
    "hybrid-llm_single-recall-first-placeholder": {
        "manifest.json": "18fe914c8e6d5fbceb733c457b4f604ee6af97f448ae7a950aab7dfc14af325e",
        "redacted.jsonl": "409e94439a7c878b749ea49c6e6aa75d02b3f9002e754f9c1c18d74160f46a0f",
    },
    "hybrid-hybrid-recall-first-tagged": {
        "manifest.json": "98257e406aebff78a40f6132f3be9697a15b8f48af4bfef403ae6e6aa6d09354",
        "redacted.jsonl": "b1c92ea8551e988fd2cf6fc8445d324c63d0d0795c1d2231d224b6f9ddb50345",
    },
    "hybrid-hybrid-recall-first-placeholder": {
        "manifest.json": "19eb9b09ba73b2657ba501b12a85285a956d45be15c136744ce5d20fb6121360",
        "redacted.jsonl": "6dc571794028593be93b144f73d8ad962096fedf8a735ba69b8872e8e68e7f77",
    },
    "hybrid-hybrid_ev-recall-first-tagged": {
        "audit.jsonl": "cd5d4e5be1c7a8762f42c4962bd9364fd014100a3a2e1b7d6f0b7694f6eb4a20",
        "manifest.json": "59f73628b6012836d3c7c13b494162cedfc22d991083fca11b6feadb0b51b915",
        "redacted.jsonl": "fa623ef4a92cf2b04f6c0c7beb561ba5e6969d74a41a30060824211edf474898",
    },
    "hybrid-hybrid_ev-recall-first-placeholder": {
        "audit.jsonl": "cd5d4e5be1c7a8762f42c4962bd9364fd014100a3a2e1b7d6f0b7694f6eb4a20",
        "manifest.json": "4c2c1c60705f42e4c74879943b53a8f925f853607da7dba43f70b32589991201",
        "redacted.jsonl": "2d2c4209f47fa4cbf4ef1222397cc1a013caab7503a7638ff091877ba7cf2474",
    },
    "hybrid-hybrid_ev-precision-first-tagged": {
        "audit.jsonl": "09b34d39bdb17af79fb2e769d56b25b2678d9e8870afa96c1e8d45cdc6de3153",
        "manifest.json": "51ae115a024201f6f38ce725c8a52348aa116a79f76ffcc5f9c26e1b2ca8cff5",
        "redacted.jsonl": "b352734dff31296dd4570c65782648e2fce103e6a683c03622de6c3c8ca4dbe7",
    },
    "hybrid-hybrid_ev-precision-first-placeholder": {
        "audit.jsonl": "09b34d39bdb17af79fb2e769d56b25b2678d9e8870afa96c1e8d45cdc6de3153",
        "manifest.json": "db5e165555f418b91c4a64bbf865c59643e39650fe733bb192e1f4f9d6107070",
        "redacted.jsonl": "1eefdbcfdb74955360881ab4afa87feb89e327c1bc979bb36e2913d158e6f2c9",
    },
    "long-rules_only-recall-first-tagged": {
        "manifest.json": "0c4c9c0c2f62f77a6893d5d90b2a186b2fc56762905bbe6bcc744866262886b1",
        "redacted.jsonl": "c2031905a3574312645eef8550c6f09f5406c09eb43cac06da8f528d84020010",
    },
    "long-rules_only-recall-first-placeholder": {
        "manifest.json": "5547e4de687686a3fa245db60d64b357374f1f08d23e29c1c66907ab98f11b2f",
        "redacted.jsonl": "87867802438a50199d9cc134066dca622a1774542a894f6deab7859154dec31a",
    },
}

#: ``crashdeid eval`` of the hybrid block, by preset and policy.
REPORTS: dict[str, dict[str, str]] = {
    "rules_only-recall-first": {
        "report.json": "b04a13783f4455a90ca59ab8b18dcd30d8c855810de18a1cf502aba8c309640f",
        "report.txt": "683867507c581ee9eb545005880e7ab1db9843cdd8f199f852e258181f7af4a7",
    },
    "llm_single-recall-first": {
        "report.json": "9803f1db9ceb15286751146906fa88b355b7344228ce96ed23a7cbe0ec0cfda7",
        "report.txt": "9ea55e30ae94c364fe929a57a908adb5be43027a3f620544e8da1cbd56b65f33",
    },
    "hybrid-recall-first": {
        "report.json": "010b35c265b3a67722560c1ed780428e6dc641e6b9ec447ea12db59117c1aef7",
        "report.txt": "51f776f3c79f530bd1b5938c4df319a4ba69d9845139f03ce3005b8ceab6d7f8",
    },
    "hybrid_ev-recall-first": {
        "report.json": "0c4bb89be24081cb364513ba87b02dbab57578d7614b4e59e18568692dbad8fc",
        "report.txt": "2af5272b876182f0f80d661bcc2688a3fd6711f0909cb8de53dfb6df1cf7453f",
    },
    "hybrid_ev-precision-first": {
        "report.json": "7dc4418a79abec9db849afedf2c1c10ec7535588dbc77049c0725392313b0a67",
        "report.txt": "27ea67ee30895f961bcf654a5e7c5b1a975e12720239ecbfc39ef468d145f3d6",
    },
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("inputs")
    generate(root)
    return root


def test_generated_inputs_are_the_pinned_ones(inputs):
    assert digests(inputs) == INPUTS


@pytest.mark.parametrize("corpus,preset,policy,mode", RUNS, ids=["-".join(r) for r in RUNS])
def test_outputs_are_the_pinned_bytes(inputs, tmp_path, corpus, preset, policy, mode):
    assert run(inputs, tmp_path / "out", corpus, preset, policy, mode) in (0, 1)
    assert digests(tmp_path / "out") == OUTPUTS["-".join((corpus, preset, policy, mode))]


@pytest.mark.parametrize("preset,policy", EVALS, ids=["-".join(e) for e in EVALS])
def test_eval_reports_are_the_pinned_bytes(inputs, tmp_path, preset, policy):
    assert evaluate(inputs, tmp_path / "out" / "report.json", preset, policy) in (0, 1)
    assert digests(tmp_path / "out") == REPORTS["-".join((preset, policy))]
