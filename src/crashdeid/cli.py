"""Command-line front end.

Progress and errors go to standard error only; narrative content is never
printed to the terminal. All data artifacts are written to files. ``run``,
its ``--replay`` and ``eval`` exit 0 when every narrative was emitted, 1
when any is listed as unprocessed, 2 on an ``error:`` that stops the run,
and 130, after one ``interrupted`` line, when Ctrl-C stops it.
An ``error:`` line quotes only a ``ConfigError``, ``MalformedRecord`` or
``OSError``, whose messages name files, lines, fields and config values,
never a text; any other exception prints only its type name.

    crashdeid run  --input corpus.jsonl --out outdir --preset hybrid_ev ...
    crashdeid run  --replay outdir/manifest.json --out newdir
    crashdeid eval --input corpus.jsonl --gold corpus.gold.jsonl \\
                   --report report.json --preset rules_only ...
"""

from __future__ import annotations

import argparse
import sys

from .corpus import FORMATS, MalformedRecord
from .extract import EnsembleConfig
from .gateway import BackendConfig
from .pipeline import (
    PRESETS,
    ConfigError,
    PipelineConfig,
    replay_manifest,
    run_pipeline,
)
from .redact import MODES, RedactionStyle
from .verify import VerifierPolicy


def _add_common_flags(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    """Add the flags ``run`` and ``eval`` share; return their actions."""
    add = parser.add_argument
    return [
        add("--input", help="narratives file (JSONL or CSV)"),
        add("--format", choices=FORMATS, default=None),
        add("--gold", help="gold annotations JSONL sidecar"),
        add("--preset", choices=list(PRESETS), default="hybrid_ev"),
        add("--k-ensemble", type=int, default=EnsembleConfig.k_runs),
        add("--policy", choices=[p.value.replace("_", "-") for p in VerifierPolicy],
            default=PipelineConfig.policy.value.replace("_", "-")),
        add("--extractor-endpoint", help="chat-completions URL"),
        add("--verifier-endpoint", help="chat-completions URL"),
        add("--extractor-model", default=None),
        add("--verifier-model", default=None),
        add(
            "--mock-fixtures",
            help="scripted-mock fixture JSONL; used for any backend without an endpoint",
        ),
        add("--seed", type=int, default=None),
        add("--redaction", choices=MODES, default=RedactionStyle.mode),
        add(
            "--mask-timestamps",
            action="store_true",
            help="write fixed timestamps for byte-reproducible outputs",
        ),
    ]


def _backend(endpoint: str | None, model: str | None, fixtures: str | None):
    if endpoint:
        return BackendConfig(
            kind="http_endpoint", endpoint_url=endpoint, model_name=model
        )
    if fixtures:
        return BackendConfig(kind="scripted_mock", fixture_path=fixtures)
    return None


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The run's config; a refused flag value raises ``ConfigError``."""
    try:
        return PipelineConfig(
            preset=args.preset,
            ensemble=EnsembleConfig(k_runs=args.k_ensemble),
            policy=VerifierPolicy(args.policy.replace("-", "_")),
            extractor_backend=_backend(
                args.extractor_endpoint, args.extractor_model, args.mock_fixtures
            ),
            verifier_backend=_backend(
                args.verifier_endpoint, args.verifier_model, args.mock_fixtures
            ),
            output_style=RedactionStyle(mode=args.redaction),
            seed=args.seed,
            mask_timestamps=args.mask_timestamps,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="crashdeid")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="de-identify a corpus")
    common = _add_common_flags(run_parser)
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--replay", help="re-run a recorded manifest")
    run_parser.set_defaults(report=None)

    eval_parser = sub.add_parser("eval", help="run and score against gold")
    _add_common_flags(eval_parser)
    eval_parser.add_argument("--report", required=True, help="report JSON path")
    eval_parser.add_argument("--out", help="also write pipeline outputs here")
    eval_parser.set_defaults(replay=None)

    args = parser.parse_args(argv)
    if args.replay:
        # Parse again with no defaults: a shared flag still set was given.
        for action in common:
            action.default = argparse.SUPPRESS
        given = vars(parser.parse_args(argv))
        conflicts = [a.option_strings[0] for a in common if a.dest in given]
        if conflicts:
            run_parser.error("--replay takes only --out; drop " + ", ".join(conflicts))
    if not (args.input or args.replay):
        parser.error("run requires --input (or --replay)" if args.command == "run"
                     else "eval requires --input")
    if args.command == "eval" and not args.gold:
        parser.error("eval requires --gold")
    try:
        if args.replay:
            summary = replay_manifest(args.replay, args.out)
        else:
            summary = run_pipeline(
                _config_from_args(args), args.input, args.out,
                fmt=args.format, gold_path=args.gold, report_path=args.report,
            )
    except (ConfigError, MalformedRecord, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # its message may quote a narrative
        print(f"error: unexpected {type(exc).__name__}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    counts = summary.counts
    target = "" if summary.output_dir is None else f" -> {summary.output_dir}"
    print(f"processed {counts['processed']}/{counts['narratives']} narratives{target}",
          file=sys.stderr)
    if args.report:
        print(f"report written to {args.report}", file=sys.stderr)
    if summary.failed_narratives:
        print(
            "unprocessed narratives: " + ", ".join(summary.failed_narratives),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
