"""Command-line interface.

Subcommands: analyze (single turn), batch-eval, gen-corpus, verify,
explain (rebuild a sealed turn's explainability files), anchor-status,
metrics-serve. Exit codes: 0 ok, 1 configuration error, 2 verification
failure, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .audit.canonical import compute_txid, parse_canonical
from .audit.ledger import VERDICT_UNAVAILABLE, VERDICT_VERIFIED, AnchorError, verify_anchorage
from .audit.log import read_event_line
from .config import ConfigError, load_config, open_ledger

# The commands that run inference import numpy through the pipeline,
# evaluate, corpus and fuzzy modules, and the metrics module, so each imports
# them when it runs: verify and anchor-status then load the standard library
# only (and PyYAML for --config).

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="affectfuse")
    parser.add_argument("--config", help="YAML configuration file", default=None)
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="run one turn end to end")
    analyze.add_argument("--audio", required=True, help="WAV file for the turn")
    analyze.add_argument("--transcript", required=True)
    analyze.add_argument("--asr-confidence", type=float, required=True)
    analyze.add_argument("--session", default="cli")
    analyze.add_argument("--metrics-dump", default=None, help="write exposition text here")
    analyze.set_defaults(run=_cmd_analyze)

    batch = commands.add_parser("batch-eval", help="evaluate variants over a manifest as audited turns")
    batch.add_argument("--manifest", required=True)
    batch.add_argument("--out", required=True, help="report directory; the audit log goes to <out>/audit/")
    batch.add_argument("--variants", default=None, help="comma-separated (default: all)")
    batch.add_argument("--ablations", default="")
    batch.add_argument("--metrics-dump", default=None)
    batch.set_defaults(run=_cmd_batch_eval)

    gen = commands.add_parser("gen-corpus", help="generate a synthetic corpus")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--noise-levels", default=None, help="comma-separated dB levels")
    gen.set_defaults(run=_cmd_gen_corpus)

    verify = commands.add_parser("verify", help="verify a stored event against the ledger")
    _add_event_arguments(verify)
    verify.set_defaults(run=_cmd_verify)

    explain = commands.add_parser(
        "explain", help="write a stored fuzzy event's explainability files to audit.artifacts_dir"
    )
    _add_event_arguments(explain)
    explain.set_defaults(run=_cmd_explain)

    status = commands.add_parser("anchor-status", help="anchoring status of a txid")
    status.add_argument("--txid", required=True)
    status.set_defaults(run=_cmd_anchor_status)

    serve = commands.add_parser("metrics-serve", help="serve /metrics while processing a manifest")
    serve.add_argument("--manifest", required=True)
    serve.add_argument("--port", type=int, default=None)
    serve.add_argument("--hold", type=float, default=None, help="seconds to keep serving (default: forever)")
    serve.set_defaults(run=_cmd_metrics_serve)

    return parser


def _add_event_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument("--event", required=True, help="event file (canonical bytes) or JSONL log")
    command.add_argument("--line", type=int, default=None, help="line number when --event is a JSONL log")
    command.add_argument("--txid", required=True)


def _read_event(args) -> bytes:
    """The stored event bytes named by ``--event`` and ``--line``."""
    if args.line is not None:
        return read_event_line(args.event, args.line)
    event_bytes = Path(args.event).read_bytes()
    return event_bytes[:-1] if event_bytes.endswith(b"\n") else event_bytes


def _cmd_analyze(args, config) -> int:
    from .metrics import export_metrics
    from .pipeline import Pipeline, TurnInput

    with Pipeline(config) as pipeline:
        result = pipeline.run_turn(
            TurnInput(
                audio_path=args.audio,
                transcript=args.transcript,
                asr_confidence=args.asr_confidence,
                session_id=args.session,
            )
        )
        if args.metrics_dump:
            export_metrics(pipeline.metrics, args.metrics_dump)
    summary = {
        "response": result.response,
        "txid": result.txid,
        "line_number": result.line_number,
        "dominant": result.event["final"]["dominant"],
        "mode": result.event["mode"],
        "w_text": result.event["weights"]["w_text"],
        "anchor": result.anchor.as_dict(),
    }
    print(json.dumps(summary, ensure_ascii=False, indent=2))
    return EXIT_OK


def _cmd_batch_eval(args, config) -> int:
    from .evaluate import VARIANTS, run_batch_eval
    from .metrics import MetricsRegistry, export_metrics

    variants = VARIANTS if args.variants is None else [v for v in args.variants.split(",") if v]
    ablations = [a for a in args.ablations.split(",") if a]
    registry = MetricsRegistry(config.model_size, config.run_id)
    report = run_batch_eval(
        args.manifest,
        config,
        variants=variants,
        ablations=ablations,
        out_dir=args.out,
        metrics=registry,
    )
    if args.metrics_dump:
        export_metrics(registry, args.metrics_dump)
    summary = {
        "rows": report["rows"],
        "skipped": report["skipped"],
        "weighted_f1": {
            name: report["variants"][name]["weighted"]["f1"] for name in variants
        },
    }
    if "disagreements" in report:
        summary["fuzzy_corrects_linear"] = report["disagreements"].get("fuzzy_corrects_linear")
    print(json.dumps(summary, ensure_ascii=False, indent=2))
    return EXIT_OK


def _cmd_gen_corpus(args, _config) -> int:
    from .corpus import generate_synthetic_corpus

    levels = None
    if args.noise_levels:
        levels = [float(v) for v in args.noise_levels.split(",")]
    manifest = generate_synthetic_corpus(args.out, seed=args.seed, size=args.size, noise_levels_db=levels)
    print(json.dumps({"manifest": str(manifest), "rows": args.size}))
    return EXIT_OK


# The read commands (verify, anchor-status) never close the ledger they open:
# close() seals the pending queue, and blocks appended by a second process
# behind the owning pipeline's back would fork the chain.
def _cmd_verify(args, config) -> int:
    event_bytes = _read_event(args)
    try:
        verdict = verify_anchorage(event_bytes, args.txid, open_ledger(config))
    except AnchorError as exc:  # the ledger would not open; a digest mismatch still answers first
        verdict = verify_anchorage(event_bytes, args.txid, None)
        if verdict.kind == VERDICT_UNAVAILABLE:
            verdict = replace(verdict, detail=f"cannot open the ledger: {exc}")
    print(json.dumps(verdict.as_dict(), indent=2))
    return EXIT_OK if verdict.kind == VERDICT_VERIFIED else EXIT_VERIFY


def _cmd_explain(args, config) -> int:
    from .fuzzy import load_rule_base
    from .pipeline import explain_event

    event_bytes = _read_event(args)
    if compute_txid(event_bytes) != args.txid:
        print(f"event bytes do not hash to txid {args.txid}; nothing written", file=sys.stderr)
        return EXIT_VERIFY
    paths = explain_event(
        parse_canonical(event_bytes),
        args.txid,
        load_rule_base(config.fusion.rule_base_path),
        config.audit.artifacts_dir,
    )
    print(json.dumps({"txid": args.txid, "files": [str(path) for path in paths]}, indent=2))
    return EXIT_OK


def _cmd_anchor_status(args, config) -> int:
    record = open_ledger(config).status(args.txid)
    print(json.dumps(record.as_dict(), indent=2))
    return EXIT_OK


def _cmd_metrics_serve(args, config) -> int:
    from .evaluate import run_batch_eval
    from .metrics import MetricsRegistry, MetricsServer

    registry = MetricsRegistry(config.model_size, config.run_id)
    port = args.port if args.port is not None else config.metrics.port
    server = MetricsServer(registry, port)
    print(json.dumps({"port": server.port, "endpoint": f"http://127.0.0.1:{server.port}/metrics"}))
    sys.stdout.flush()
    try:
        run_batch_eval(args.manifest, config, variants=("fuzzy",), metrics=registry)
        if args.hold is None:
            while True:
                time.sleep(1.0)
        else:
            time.sleep(args.hold)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.run(args, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # surfaced with a stable exit code for scripting
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
