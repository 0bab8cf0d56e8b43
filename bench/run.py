"""affectfuse benchmark: turn latency, anchoring under ledger history, batch evaluation.

Run from the repository root; the program is imported from ``src/``:

    python3 bench/run.py --workload turn_10s --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Every workload is a closed loop with one client (the only other thread is
the ledger's seal thread when anchoring is on). Work is done in fixed-size
rounds, each from fresh state, repeated until ``--seconds`` have passed and
at least two rounds have run (one per half of a traced run), so a faster
program runs more rounds of the same size instead of larger ones.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced and reports per-layer metrics (see README.md).
The last line of standard output is one JSON object; the exit code is 0 only
when every output check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import wave
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

# One client thread: keep BLAS from starting a thread pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import affectfuse  # noqa: E402
from affectfuse import audio as audio_mod  # noqa: E402
from affectfuse import corpus as corpus_mod  # noqa: E402
from affectfuse import evaluate as evaluate_mod  # noqa: E402
from affectfuse import fusion as fusion_mod  # noqa: E402
from affectfuse import pipeline as pipeline_mod  # noqa: E402
from affectfuse import text as text_mod  # noqa: E402
from affectfuse.audit import artifacts as artifacts_mod  # noqa: E402
from affectfuse.audit import ledger as ledger_mod  # noqa: E402
from affectfuse.audit import log as log_mod  # noqa: E402
from affectfuse.audit import merkle as merkle_mod  # noqa: E402
from affectfuse.config import PipelineConfig  # noqa: E402
from affectfuse.pipeline import Pipeline, TurnInput  # noqa: E402

from spans import SpanStats, Tracer  # noqa: E402

PINNED_TIME = "2026-08-11T12:00:00+00:00"
TRANSCRIPT = "hoy estoy muy feliz con este trabajo"
SAMPLE_RATE = 16000
EVAL_CORPUS_SEED = 1108
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
MIN_ROUNDS = 2
VERIFY_PASSES = 3
VERIFY_SECONDS = 2.0

#: txid of the acceptance-11 turn (seed-11 10 s tone) as the first turn of a
#: fresh session under the pinned clock. Event bytes for fixed inputs must not
#: change, so neither may this digest.
REFERENCE_TXID = "7ac6abff4c63ebcdbc32c6413f1e04f7970727f2e916fa91f14ec24fc64bf4ac"

#: SHA-256 of the sorted batch-eval predictions over the seed-1108 corpus,
#: keyed by corpus size.
PREDICTIONS_SHA256 = {
    500: "833721475a5a6b0598d6aa4b0b01b05eeda37ed05b13082f96d649d2c1213323",
    12: "00156588c2f8dc5011a834d8c71af4df68e87b8f706ef6aeee134d87b4798813",
}


def pinned_clock() -> str:
    return PINNED_TIME


def pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds so large arrays reuse heap memory.

    By default glibc moves its mmap threshold as arrays are freed, so the 1 MB
    temporaries of a 10 s turn alternate between reused heap memory and fresh
    pages (about 2450 minor faults per turn) depending on allocation history,
    and turn times flip between two modes from run to run.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, 64 << 20) and mallopt(m_mmap_threshold, 32 << 20))


@dataclass(frozen=True)
class Sizes:
    """Work per round; the self-test shrinks these."""

    turn_round: int = 200
    turn_sessions: int = 4
    anchored_clips: int = 100
    anchored_sessions: int = 100
    session_turns: int = 10
    eval_rows: int = 500
    warmup_rows: int = 6


@dataclass
class Run:
    """Measurements, operation counts and failed checks of one phase."""

    tracer: Tracer = field(default_factory=Tracer)
    setup_s: List[float] = field(default_factory=list)
    corpus_s: List[float] = field(default_factory=list)
    turn_s: List[float] = field(default_factory=list)
    turn_phase_s: float = 0.0
    ops: int = 0
    verify_events: int = 0
    verify_s: float = 0.0
    rounds: List[tuple] = field(default_factory=list)
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def count(self, phase: str, ok: bool = True, n: int = 1) -> None:
        self.attempted[phase] += n
        if not ok:
            self.failed[phase] += n


# --- inputs ---------------------------------------------------------------------------

def tone(rng: np.random.Generator, seconds: float = 10.0) -> np.ndarray:
    """The acceptance-11 signal: a 440 Hz sine plus seeded white noise."""
    signal = 0.3 * np.sin(2 * np.pi * 440 * np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE)
    return signal + rng.normal(0, 0.01, signal.size)


def write_wav(path: Path, samples: np.ndarray) -> None:
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(SAMPLE_RATE)
        handle.writeframes(pcm.tobytes())


def make_config(state: Path, anchoring: bool) -> PipelineConfig:
    config = PipelineConfig()
    config.audit.log_path = str(state / "audit" / "events.jsonl")
    config.audit.artifacts_dir = str(state / "audit" / "fired_rules")
    config.anchoring.enabled = anchoring
    config.anchoring.ledger_path = str(state / "audit" / "ledger.json")
    config.anchoring.pending_path = str(state / "audit" / "pending.json")
    return config


def reference_turn(work: Path, anchoring: bool, run: Run) -> None:
    """Warm-up turn on fixed inputs whose txid is pinned."""
    wav = work / "reference.wav"
    write_wav(wav, tone(np.random.default_rng(11)))
    with Pipeline(make_config(work / "reference", anchoring), clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(TurnInput(str(wav), TRANSCRIPT, 0.9, "reference"))
    ok = result.txid == REFERENCE_TXID
    run.count("setup", ok)
    run.check(ok, f"reference turn txid {result.txid} != pinned {REFERENCE_TXID}")


class Returned(NamedTuple):
    """What verification needs of a returned turn.

    Keeping whole TurnResults alive would give the garbage collector
    thousands of event dicts to scan that the program itself drops.
    """

    txid: str
    canonical: bytes
    line_number: int


@contextmanager
def captured_turns(latencies: List[float], results: List[Returned]):
    """Time every Pipeline.run_turn call and keep what it returned."""
    original = Pipeline.run_turn

    def run_turn(self, turn):
        start = time.perf_counter()
        result = original(self, turn)
        latencies.append(time.perf_counter() - start)
        results.append(Returned(result.txid, result.canonical, result.line_number))
        return result

    Pipeline.run_turn = run_turn
    try:
        yield
    finally:
        Pipeline.run_turn = original


# --- verification ---------------------------------------------------------------------

def verify_pass(log_path: Path, results: List[Returned], config: Optional[PipelineConfig]) -> tuple:
    """What a third party does per event; returns (failed events, chain verdict).

    Read the log line and hash it; with anchoring, look the txid up in a
    ledger freshly loaded from disk and check its Merkle inclusion proof
    within its block, then verify the chain once.
    """
    ledger = blocks = chain = None
    if config is not None:
        ledger = ledger_mod.SimulatedLedger(
            config.anchoring.ledger_path, config.anchoring.pending_path, clock=pinned_clock
        )
        blocks = ledger.blocks
    batches: Dict[int, tuple] = {}
    failed = 0
    for result in results:
        line = log_mod.read_event_line(str(log_path), result.line_number)
        ok = hashlib.sha256(result.canonical).hexdigest() == result.txid == hashlib.sha256(line).hexdigest()
        if ok and ledger is not None:
            verdict = ledger_mod.verify_anchorage(line, result.txid, ledger)
            ok = verdict.kind == ledger_mod.VERDICT_VERIFIED
            if ok:
                if verdict.block_number not in batches:
                    txids = [entry.txid for entry in blocks[verdict.block_number].entries]
                    batches[verdict.block_number] = (
                        merkle_mod.MerkleBatch(txids),
                        {txid: i for i, txid in enumerate(txids)},
                    )
                batch, index = batches[verdict.block_number]
                proof = batch.proof(index[result.txid])
                ok = proof.leaf == result.txid and merkle_mod.merkle_verify(proof)
        failed += not ok
    if ledger is not None:
        chain = ledger.verify_chain()
    return failed, chain


def verify(log_path: Path, results: List[Returned], run: Run, config: Optional[PipelineConfig] = None) -> None:
    """Check every returned turn against the log and, with ``config``, the ledger.

    The pass is read-only, so it repeats, at least VERIFY_PASSES times and
    for at least VERIFY_SECONDS.
    """
    passes = 0
    start = time.perf_counter()
    while passes < VERIFY_PASSES or time.perf_counter() - start < VERIFY_SECONDS:
        failed, chain = verify_pass(log_path, results, config)
        passes += 1
    run.verify_s += time.perf_counter() - start
    run.verify_events += passes * len(results)
    run.count("verify", n=len(results) - failed)
    run.count("verify", ok=False, n=failed)
    run.check(failed == 0, f"{failed} returned turns do not verify")
    run.check(chain in (None, (True, None)), f"ledger chain does not verify: {chain}")

    with open(log_path, "rb") as handle:
        lines = sum(1 for _ in handle)
    numbers = sorted(result.line_number for result in results)
    run.check(
        numbers == list(range(1, lines + 1)),
        f"log {log_path.name} holds {lines} lines for {len(results)} returned turns",
    )


# --- workloads ------------------------------------------------------------------------

def run_turns(config: PipelineConfig, turns: List[TurnInput], run: Run) -> None:
    """One round: closed-loop turns on a fresh pipeline, then verification."""
    latencies: List[float] = []
    results: List[Returned] = []
    first = run.tracer.op + 1
    pipeline = Pipeline(config, clock=pinned_clock)
    try:
        with captured_turns(latencies, results):
            start = time.perf_counter()
            for turn in turns:
                run.tracer.op += 1
                try:
                    pipeline.run_turn(turn)
                    run.count("turns")
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    run.count("turns", ok=False)
            elapsed = time.perf_counter() - start
    finally:
        pipeline.close()
    run.ops += len(turns)
    run.turn_s += latencies
    run.turn_phase_s += elapsed
    run.rounds.append((first, len(turns)))
    verify(Path(config.audit.log_path), results, run, config if config.anchoring.enabled else None)


def setup_turn_10s(work: Path, seed: int, sizes: Sizes, run: Run) -> dict:
    wav = work / "turn.wav"
    write_wav(wav, tone(np.random.default_rng(seed)))
    reference_turn(work, anchoring=False, run=run)
    return {"wav": str(wav)}


def round_turn_10s(inputs: dict, work: Path, sizes: Sizes, run: Run) -> None:
    turns = [
        TurnInput(inputs["wav"], TRANSCRIPT, 0.9, f"session-{i % sizes.turn_sessions}")
        for i in range(sizes.turn_round)
    ]
    run_turns(make_config(work, anchoring=False), turns, run)


def setup_anchored(work: Path, seed: int, sizes: Sizes, run: Run) -> dict:
    start = time.perf_counter()
    manifest = corpus_mod.generate_synthetic_corpus(str(work / "corpus"), seed, sizes.anchored_clips)
    run.corpus_s.append(time.perf_counter() - start)
    rows = evaluate_mod.load_manifest(str(manifest))
    reference_turn(work, anchoring=True, run=run)
    return {"rows": rows}


def round_anchored(inputs: dict, work: Path, sizes: Sizes, run: Run) -> None:
    rows = inputs["rows"]
    turns = []
    for session in range(sizes.anchored_sessions):
        for i in range(sizes.session_turns):
            row = rows[(session * sizes.session_turns + i) % len(rows)]
            turns.append(TurnInput(row.audio, row.transcript, row.asr_confidence, f"session-{session:04d}"))
    run_turns(make_config(work, anchoring=True), turns, run)


def setup_batch_eval(work: Path, seed: int, sizes: Sizes, run: Run) -> dict:
    start = time.perf_counter()
    manifest = corpus_mod.generate_synthetic_corpus(str(work / "corpus"), EVAL_CORPUS_SEED, sizes.eval_rows)
    run.corpus_s.append(time.perf_counter() - start)
    lines = manifest.read_text(encoding="utf-8").splitlines()
    random.Random(seed).shuffle(lines)
    shuffled = manifest.with_name("shuffled.jsonl")
    shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    warmup = manifest.with_name("warmup.jsonl")
    warmup.write_text("\n".join(lines[: sizes.warmup_rows]) + "\n", encoding="utf-8")
    report = evaluate_mod.run_batch_eval(
        str(warmup), make_config(work / "warmup", anchoring=False),
        evaluate_mod.VARIANTS, evaluate_mod.ABLATIONS,
        out_dir=str(work / "warmup"), clock=pinned_clock,
    )
    ok = report["rows"] == sizes.warmup_rows and report["skipped"] == 0
    run.count("setup", ok, sizes.warmup_rows)
    run.check(ok, "warm-up evaluation skipped rows")
    return {"manifest": str(shuffled)}


def predictions_digest(report: dict) -> str:
    rows = sorted(report["predictions"], key=lambda row: row["id"])
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def round_batch_eval(inputs: dict, work: Path, sizes: Sizes, run: Run) -> None:
    out = work / "eval"
    latencies: List[float] = []
    results: List[Returned] = []
    first = run.tracer.op + 1
    try:
        with captured_turns(latencies, results):
            start = time.perf_counter()
            report = evaluate_mod.run_batch_eval(
                inputs["manifest"], make_config(work, anchoring=False),
                evaluate_mod.VARIANTS, evaluate_mod.ABLATIONS,
                out_dir=str(out), clock=pinned_clock,
            )
            elapsed = time.perf_counter() - start
    except Exception:
        traceback.print_exc(file=sys.stderr)
        run.count("rows", ok=False, n=sizes.eval_rows)
        run.check(False, "run_batch_eval raised")
        return
    run.ops += report["rows"]
    run.turn_s += latencies
    run.turn_phase_s += elapsed
    run.rounds.append((first, report["rows"]))
    run.count("rows", n=report["rows"])
    run.count("rows", ok=False, n=report["skipped"])
    run.check(report["rows"] == sizes.eval_rows and report["skipped"] == 0,
              f"evaluated {report['rows']} rows, skipped {report['skipped']}")
    fuzzy_f1 = report["variants"]["fuzzy"]["weighted"]["f1"]
    linear_f1 = report["variants"]["linear"]["weighted"]["f1"]
    run.check(fuzzy_f1 >= linear_f1, f"fuzzy weighted F1 {fuzzy_f1} < linear {linear_f1}")
    digest = predictions_digest(report)
    expected = PREDICTIONS_SHA256.get(sizes.eval_rows)
    run.check(expected is None or digest == expected, f"predictions digest {digest} != pinned {expected}")
    verify(out / "audit" / "events.jsonl", results, run)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    round: Callable


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    "turn_10s": Workload(setup_turn_10s, round_turn_10s),
    "anchored_history": Workload(setup_anchored, round_anchored),
    "batch_eval_500": Workload(setup_batch_eval, round_batch_eval),
}


# --- tracing --------------------------------------------------------------------------

def install_tracer(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    add = tracer.add

    def rules(trace, _args):
        add("fuzzy.rules", len(trace.fired_rules))
        add("fuzzy.rules_fired", sum(rule.strength > 0.0 for rule in trace.fired_rules))

    def fallback(outcome, _args):
        add("fusion.fallback", outcome.mode == fusion_mod.MODE_LINEAR_FALLBACK)

    def escalation(result, _args):
        add("guardrails.escalations", bool(result.triggered))

    def artifact_files(paths, _args):
        add("audit.artifact_files", len(paths))

    def log_bytes(_line_number, args):
        add("audit.log_bytes", len(args[1]) + 1)

    def sealed(block, _args):
        add("ledger.blocks", block is not None)

    def row_start(parent: Optional[str]) -> None:
        if parent == "evaluate.run_batch_eval":
            tracer.op += 1

    tracer.patch(Pipeline, "run_turn", "pipeline.run_turn")
    tracer.patch(evaluate_mod, "run_batch_eval", "evaluate.run_batch_eval")
    tracer.patch(audio_mod, "load_wav", "audio.load_wav", enter=row_start)
    tracer.patch(audio_mod, "audio_emotion", "audio.audio_emotion")
    tracer.patch(audio_mod, "count_zero_crossings", "audio.zcr")
    tracer.patch(audio_mod, "compute_snr_db", "audio.snr")
    tracer.patch(audio_mod, "mfcc_timbre_score", "audio.mfcc")
    tracer.patch(text_mod, "text_emotion", "text.text_emotion")
    tracer.patch(fusion_mod, "infer_w_text", "fuzzy.infer_w_text", after=rules)
    tracer.patch(pipeline_mod, "fuse", "fusion.fuse", after=fallback)
    tracer.patch(pipeline_mod, "evaluate_guardrails", "guardrails.evaluate", after=escalation)
    tracer.patch(pipeline_mod, "plan_response", "guardrails.plan_response")
    tracer.patch(pipeline_mod, "redact_pii", "audit.redact")
    tracer.patch(pipeline_mod, "canonicalize", "audit.canonicalize")
    tracer.patch(pipeline_mod, "compute_txid", "audit.txid")
    tracer.patch(log_mod.AuditLog, "append", "audit.log_append", after=log_bytes)
    tracer.patch(pipeline_mod, "export_explainability_artifact", "audit.artifact_export", after=artifact_files)
    tracer.patch(log_mod, "read_event_line", "audit.read_event_line")
    tracer.patch(pipeline_mod, "anchor_txid", "ledger.anchor")
    tracer.patch(ledger_mod.SimulatedLedger, "submit", "ledger.submit")
    tracer.patch(ledger_mod.SimulatedLedger, "seal_pending", "ledger.seal", after=sealed)
    tracer.patch(ledger_mod.SimulatedLedger, "lookup", "ledger.lookup")
    tracer.patch(ledger_mod.SimulatedLedger, "verify_chain", "ledger.verify_chain")
    tracer.patch(merkle_mod.MerkleBatch, "__init__", "merkle.batch_build")
    tracer.patch(merkle_mod.MerkleBatch, "proof", "merkle.proof")
    tracer.patch(merkle_mod, "merkle_verify", "merkle.verify")
    tracer.patch_counter(artifacts_mod, "canonicalize", "artifacts.canonicalize")
    tracer.patch_counter(ledger_mod, "canonicalize", "ledger.canonicalize")


#: Per-op self-time metrics of the spans inside Pipeline.run_turn; with
#: pipeline.self_ms they add up to pipeline.run_turn_ms.
IN_TURN = {
    "audio.load_wav_ms": ("audio.load_wav",),
    "audio.audio_emotion_ms": ("audio.audio_emotion",),
    "audio.mfcc_ms": ("audio.mfcc",),
    "audio.zcr_ms": ("audio.zcr",),
    "audio.snr_ms": ("audio.snr",),
    "text.text_emotion_ms": ("text.text_emotion",),
    "fuzzy.infer_w_text_ms": ("fuzzy.infer_w_text",),
    "fusion.fuse_self_ms": ("fusion.fuse",),
    "guardrails.ms": ("guardrails.evaluate", "guardrails.plan_response"),
    "audit.redact_ms": ("audit.redact",),
    "audit.canonicalize_ms": ("audit.canonicalize",),
    "audit.txid_ms": ("audit.txid",),
    "audit.log_append_ms": ("audit.log_append",),
    "audit.artifact_export_ms": ("audit.artifact_export",),
    "ledger.submit_ms": ("ledger.anchor", "ledger.submit"),
    "pipeline.self_ms": ("pipeline.run_turn",),
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(run: Run, untraced_p50_ms: float) -> tuple:
    """Per-layer metrics of a traced phase, plus those only some workloads have."""
    stats = SpanStats(run.tracer)
    counts = run.tracer.counts
    ops = run.ops
    metrics = {
        name: sum(stats.self_s[span] for span in spans) * 1e3 / ops for name, spans in IN_TURN.items()
    }
    late = [op for first, n in run.rounds for op in range(first + int(0.9 * n), first + n)]
    anchor_by_op = stats.by_op["ledger.anchor"]
    metrics.update({
        "audio.calls_per_op": stats.calls["audio.audio_emotion"] / ops,
        "audio.load_wav_calls_per_op": stats.calls["audio.load_wav"] / ops,
        "text.calls_per_op": stats.calls["text.text_emotion"] / ops,
        "fuzzy.rules_fired_ratio": ratio(counts["fuzzy.rules_fired"], counts["fuzzy.rules"]),
        "fusion.fallback_ratio": ratio(counts["fusion.fallback"], stats.calls["fusion.fuse"]),
        "guardrails.escalation_ratio": ratio(counts["guardrails.escalations"], stats.calls["guardrails.evaluate"]),
        "audit.canonicalize_calls_per_op":
            (stats.calls["audit.canonicalize"] + counts["artifacts.canonicalize.calls"]) / ops,
        "audit.artifact_files_per_op": counts["audit.artifact_files"] / ops,
        "audit.log_bytes_per_op": counts["audit.log_bytes"] / ops,
        "audit.read_event_line_ms":
            ratio(stats.self_s["audit.read_event_line"] * 1e3, stats.calls["audit.read_event_line"]),
        "ledger.submit_ms_late": sum(anchor_by_op[op] for op in late) * 1e3 / len(late),
        "ledger.persist_bytes_per_submit":
            ratio(counts["ledger.canonicalize.bytes@ledger.submit"], stats.calls["ledger.submit"]),
        "ledger.blocks_sealed": counts["ledger.blocks"] / len(run.rounds),
        "pipeline.run_turn_ms": stats.total_s["pipeline.run_turn"] * 1e3 / ops,
        "trace.overhead_ms": turn_p50_ms(run) - untraced_p50_ms,
    })
    extra = {}
    if stats.calls["ledger.submit"]:
        extra.update({
            "ledger.seal_ms": ratio(stats.total_s["ledger.seal"] * 1e3, counts["ledger.blocks"]),
            "ledger.lookup_ms": ratio(stats.total_s["ledger.lookup"] * 1e3, stats.calls["ledger.lookup"]),
            "ledger.verify_chain_ms":
                ratio(stats.total_s["ledger.verify_chain"] * 1e3, stats.calls["ledger.verify_chain"]),
            "merkle.batch_build_ms": stats.total_s["merkle.batch_build"] * 1e3 / run.verify_events,
            "merkle.proof_verify_ms":
                (stats.total_s["merkle.proof"] + stats.total_s["merkle.verify"]) * 1e3 / run.verify_events,
        })
    if stats.calls["evaluate.run_batch_eval"]:
        extra["evaluate.self_s"] = stats.self_s["evaluate.run_batch_eval"] / stats.calls["evaluate.run_batch_eval"]
    if run.corpus_s:
        extra["corpus.generate_s"] = statistics.median(run.corpus_s)
    return metrics, extra


# --- reporting ------------------------------------------------------------------------

def turn_p50_ms(run: Run) -> float:
    """Median turn time over every round of the run."""
    return statistics.median(run.turn_s) * 1e3


def p95(samples: List[float]) -> tuple:
    """Nearest-rank 95th percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = math.ceil(0.95 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(run: Run) -> dict:
    """Timings pool every round of the run; rates are totals over the whole run.

    A shared host can flip between a fast and a slow speed about once a
    second. Statistics over the whole run move with the share of time spent
    at each speed, where a median of per-round statistics jumps between them.
    """
    tail, beyond = p95(run.turn_s)
    n = f"{len(run.rounds)} rounds, {len(run.turn_s)} turns"
    return {
        "setup_s": (statistics.median(run.setup_s), "s", f"median of {len(run.setup_s)} set-ups"),
        "turn_ms_p50": (turn_p50_ms(run), "ms", n),
        "turn_ms_p95": (tail * 1e3, "ms", f"{n}, {beyond} beyond"),
        "ops_per_s": (run.ops / run.turn_phase_s, "1/s", f"{run.ops} ops in {run.turn_phase_s:.1f} s"),
        "verify_events_per_s": (run.verify_events / run.verify_s, "1/s",
                                f"{run.verify_events} events in {run.verify_s:.1f} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"),
    }


def run_rounds(workload: Workload, inputs: dict, work: Path, seconds: float, sizes: Sizes, run: Run,
               min_rounds: int) -> None:
    """Repeat rounds until ``seconds`` have passed and ``min_rounds`` have run."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        gc.collect()
        workload.round(inputs, work / "round", sizes, run)
        shutil.rmtree(work / "round", ignore_errors=True)
        rounds += 1


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            sizes: Sizes = Sizes(), trace_path: Optional[Path] = None) -> dict:
    """Run one workload and return its report (see ``result_line``)."""
    workload = WORKLOADS[name]
    run = Run()
    i = 0
    while i < SETUP_REPEATS or sum(run.setup_s) < SETUP_SECONDS:
        setup_dir = work / f"setup-{i}"
        setup_dir.mkdir(parents=True)
        start = time.perf_counter()
        inputs = workload.setup(setup_dir, seed, sizes, run)
        run.setup_s.append(time.perf_counter() - start)
        if i:
            shutil.rmtree(work / f"setup-{i - 1}", ignore_errors=True)
        i += 1
    # A traced run measures twice, so each half runs one round at least.
    min_rounds = 1 if trace else MIN_ROUNDS
    run_rounds(workload, inputs, work, seconds / 2 if trace else seconds, sizes, run, min_rounds)
    report = {"e2e": end_to_end(run), "phases": [run]}
    if trace:
        traced = Run(corpus_s=run.corpus_s)
        install_tracer(traced.tracer)
        try:
            run_rounds(workload, inputs, work, seconds / 2, sizes, traced, min_rounds)
        finally:
            traced.tracer.uninstall()
        layers, extra = layer_metrics(traced, turn_p50_ms(run))
        if name != "batch_eval_500":
            parts = sum(layers[metric] for metric in IN_TURN)
            traced.check(
                math.isclose(parts, layers["pipeline.run_turn_ms"], rel_tol=1e-9),
                f"layer self times sum to {parts} ms, run_turn takes {layers['pipeline.run_turn_ms']} ms",
            )
        if trace_path is not None:
            traced.tracer.dump(trace_path)
            trace_path.with_suffix(".summary.json").write_text(
                json.dumps({"workload": name, "seed": seed, "metrics": layers, "extra": extra}, indent=1)
            )
        report.update(layers=layers, extra=extra, phases=[run, traced])
    return report


def result_line(report: dict, trace: bool, units: Dict[str, str]) -> dict:
    phases = report["phases"]
    attempted = sum(sum(phase.attempted.values()) for phase in phases)
    failed = sum(sum(phase.failed.values()) for phase in phases)
    problems = [problem for phase in phases for problem in phase.problems]
    if trace:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in report["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in report["e2e"].items()}
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_report(name: str, seed: int, report: dict, line: dict) -> None:
    print(f"workload {name}, seed {seed}")
    for metric, (value, unit, note) in report["e2e"].items():
        print(f"  {metric:<34} {value:>12.4f} {unit:<5} ({note})")
    for metric, value in report.get("layers", {}).items():
        print(f"  {metric:<34} {value:>12.5f}")
    for metric, value in report.get("extra", {}).items():
        print(f"  {metric:<34} {value:>12.5f}  (this workload only)")
    for index, phase in enumerate(report["phases"]):
        label = "traced" if index else "untraced"
        for key in sorted(phase.attempted):
            print(f"  {label} {key}: failed {phase.failed[key]} of {phase.attempted[key]}")
    print(f"  failed_ops_ratio {line['failed']}/{line['attempted']}")
    for problem in (p for phase in report["phases"] for p in phase.problems):
        print(f"  CHECK FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    program = Path(affectfuse.__file__).resolve().parent
    if program != ROOT / "src" / "affectfuse":
        print(f"affectfuse imported from {program}, not from this checkout", file=sys.stderr)
        return 2
    if not pin_allocator():
        print("mallopt unavailable: allocator thresholds left at their defaults", file=sys.stderr)
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        work = ROOT / ".bench" / "work" / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        trace_path = ROOT / ".bench" / "traces" / f"{name}-seed{args.seed}.jsonl"
        try:
            report = measure(name, args.seed, args.seconds, bool(args.trace), work, trace_path=trace_path)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        line = result_line(report, bool(args.trace), units)
        print_report(name, args.seed, report, line)
        print(json.dumps(line), flush=True)
        all_correct = all_correct and line["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
