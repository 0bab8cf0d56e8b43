"""Acceptance suite.

One test per shipped guarantee, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Every tolerance is
pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager
from datetime import datetime

import numpy as np
import pytest

from affectfuse.audio import (
    ArousalSmoother,
    AudioBuffer,
    extract_acoustic_features,
    load_wav,
)
from affectfuse.audit import (
    MerkleBatch,
    SimulatedLedger,
    canonicalize,
    compute_txid,
    estimate_anchor_cost,
    merkle_root,
    merkle_verify,
    parse_canonical,
    verify_anchorage,
)
from affectfuse.core import LABELS, VadState
from affectfuse.corpus import generate_synthetic_corpus
from affectfuse.evaluate import run_batch_eval
from affectfuse.fusion import coherence_index, fuse
from affectfuse.fuzzy import defuzzify_centroid, infer_w_text, load_rule_base
from affectfuse.pipeline import Pipeline, TurnInput

from conftest import make_test_config, sine_buffer, write_wav

TRACE_BASE = load_rule_base(builtin="trace")
DEFAULT_BASE = load_rule_base(builtin="default")

CORPUS_SEED = 1108
CORPUS_SIZE = 500


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {title}")


# --- 1. golden fuzzy trace -----------------------------------------------------

def test_acceptance_01_golden_trace():
    with criterion(1, "golden fuzzy trace reproduced on the trace base"):
        trace = infer_w_text(TRACE_BASE, 0.9582073547338185, 0.12, 0.02)
        strengths = [rule.strength for rule in trace.fired_rules]
        assert strengths[0] == pytest.approx(0.9164147, abs=1e-6)
        assert strengths[1] == 0.0
        assert strengths[2] == 1.0
        assert trace.out_sets["low"] == 0.0
        assert trace.out_sets["mid"] == 1.0
        assert trace.out_sets["high"] == pytest.approx(0.9164147, abs=1e-6)
        assert trace.w_text == pytest.approx(0.5843812629945782, abs=0.01)
        runs = []
        for _ in range(10):
            start = time.perf_counter()
            infer_w_text(TRACE_BASE, 0.9582073547338185, 0.12, 0.02)
            runs.append(time.perf_counter() - start)
        assert min(runs) < 0.010


# --- 2. defuzzification oracle --------------------------------------------------

def dense_centroid(out_sets, output, points=1_000_000):
    xs = np.linspace(output.domain[0], output.domain[1], points)
    agg = np.zeros_like(xs)
    for label, act in out_sets.items():
        agg = np.maximum(agg, np.minimum(output.sets[label].evaluate_grid(xs), act))
    total = agg.sum()
    return None if total == 0 else float((xs * agg).sum() / total)


def test_acceptance_02_defuzzification_oracle():
    with criterion(2, "1001-point centroid within 1e-3 of a 1e6-point oracle"):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 100:
            out_sets = {k: float(rng.uniform(0, 1)) for k in ("low", "mid", "high")}
            if sum(out_sets.values()) == 0.0:
                continue
            grid = defuzzify_centroid(out_sets, TRACE_BASE.output)
            dense = dense_centroid(out_sets, TRACE_BASE.output)
            assert grid == pytest.approx(dense, abs=1e-3)
            checked += 1
        for level in (1.0, 0.5, 0.123):
            only_mid = defuzzify_centroid({"low": 0.0, "mid": level, "high": 0.0}, TRACE_BASE.output)
            assert only_mid == pytest.approx(0.5, abs=1e-9)


# --- 3. soft gating --------------------------------------------------------------

def test_acceptance_03_soft_gating():
    with criterion(3, "low confidence under high arousal keeps w_text below 0.5; sweep monotone"):
        for arousal in (0.8, 0.9, 1.0):
            for conf in np.linspace(0.0, 0.5999, 121):
                w = infer_w_text(DEFAULT_BASE, float(conf), arousal, 0.0).w_text
                assert w < 0.5, (conf, arousal, w)
        sweep = [infer_w_text(DEFAULT_BASE, float(c), 0.5, 0.0).w_text for c in np.linspace(0, 1, 101)]
        assert all(b >= a - 1e-12 for a, b in zip(sweep, sweep[1:]))


# --- 4. audio equations -----------------------------------------------------------

def straight_line_audio(samples, norm_factor=0.2):
    n = len(samples)
    rms = math.sqrt(math.fsum(x * x for x in samples) / n)
    rms_norm = min(1.0, rms / (norm_factor * 0.92))
    effective = []
    prev = 0.0
    for x in samples:
        sign = 1.0 if x > 0 else (-1.0 if x < 0 else prev)
        effective.append(sign)
        prev = sign
    crossings = sum(1 for a, b in zip(effective, effective[1:]) if a * b < 0)
    zcr_raw = crossings / n
    zcr_norm = min(1.0, 10.0 * zcr_raw)
    arousal = min(1.0, rms_norm * (0.9 + 0.1 * zcr_norm))
    return rms_norm, zcr_norm, arousal


def test_acceptance_04_audio_equations():
    with criterion(4, "feature equations match a straight-line reimplementation to 1e-12"):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(256, 12000))
            scale = float(rng.uniform(0.005, 0.6))
            samples = np.clip(rng.normal(0.0, scale, n), -1.0, 1.0)
            if rng.random() < 0.3:
                samples[rng.random(n) < 0.2] = 0.0  # exercise the zero-sign rule
            feats = extract_acoustic_features(AudioBuffer(samples=samples), use_mfcc=False)
            rms_norm, zcr_norm, arousal = straight_line_audio(samples.tolist())
            assert feats.rms_norm == pytest.approx(rms_norm, abs=1e-12)
            assert feats.zcr_norm == pytest.approx(zcr_norm, abs=1e-12)
            assert feats.arousal_raw == pytest.approx(arousal, abs=1e-12)
        # EMA against its recurrence
        for _ in range(50):
            alpha = float(rng.uniform(0.05, 1.0))
            smoother = ArousalSmoother(alpha=alpha)
            previous = None
            for value in rng.uniform(0, 1, 12):
                got = smoother.update(float(value))
                expected = float(value) if previous is None else alpha * float(value) + (1 - alpha) * previous
                assert got == pytest.approx(expected, abs=1e-12)
                previous = expected
        # analytic sine family
        for freq in (100, 171, 333, 440, 512, 789, 1000):
            amplitude = float(rng.uniform(0.1, 0.9))
            feats = extract_acoustic_features(sine_buffer(freq, amplitude), use_mfcc=False)
            assert feats.rms == pytest.approx(amplitude / math.sqrt(2), rel=0.01)
            assert feats.zcr_raw == pytest.approx(2 * freq / 16000.0, rel=0.01)


# --- 5. tamper evidence ------------------------------------------------------------

def random_event(rng: random.Random, index: int) -> dict:
    return {
        "event_id": f"evt-{index:05d}",
        "timestamp": "2026-08-11T12:00:00+00:00",
        "asr_conf": round(rng.random(), 6),
        "weights": {"w_text": round(rng.random(), 6)},
        "final": {"probs": {label: round(rng.random(), 6) for label in LABELS}},
        "note": "".join(rng.choice("abcdefáéñ ") for _ in range(rng.randrange(0, 24))),
        "mode": rng.choice(["fuzzy", "linear_fallback"]),
    }


def test_acceptance_05_tamper_evidence(tmp_path):
    with criterion(5, "1000 anchored events verify; every single-byte mutation is detected"):
        rng = random.Random(5)
        events = [canonicalize(random_event(rng, i)) for i in range(1000)]
        txids = [compute_txid(e) for e in events]
        with SimulatedLedger(
            ledger_path=str(tmp_path / "ledger.json"),
            pending_path=str(tmp_path / "pending.json"),
            max_block_entries=128,
        ) as ledger:
            for txid in txids:
                ledger.submit(txid)
            while ledger.seal_pending() is not None:
                pass
            for data, txid in zip(events, txids):
                assert verify_anchorage(data, txid, ledger).kind == "verified"
                mutated = bytearray(data)
                pos = rng.randrange(len(mutated))
                mutated[pos] ^= 1 << rng.randrange(8)
                assert verify_anchorage(bytes(mutated), txid, ledger).kind == "tamper_detected"
            # exhaustive over positions for small events
            for data, txid in list(zip(events, txids))[:3]:
                for pos in range(len(data)):
                    mutated = bytearray(data)
                    mutated[pos] ^= 0x01
                    assert verify_anchorage(bytes(mutated), txid, ledger).kind == "tamper_detected"
            ok, _ = ledger.verify_chain()
            assert ok
        # mutate one sealed entry on disk: re-validation from genesis must fail
        lines = (tmp_path / "ledger.json").read_bytes().splitlines(keepends=True)
        block = json.loads(lines[3])
        block["entries"][7]["txid"] = "f" * 64
        lines[3] = canonicalize(block) + b"\n"
        (tmp_path / "ledger.json").write_bytes(b"".join(lines))
        with SimulatedLedger(
            ledger_path=str(tmp_path / "ledger.json"),
            pending_path=str(tmp_path / "pending.json"),
        ) as tampered:
            ok, bad_block = tampered.verify_chain()
            assert not ok and bad_block == 3


# --- 6. merkle suite -----------------------------------------------------------------

def test_acceptance_06_merkle():
    with criterion(6, "generate-then-verify for every leaf of batches sized 1..1024"):
        leaves = [hashlib.sha256(f"leaf-{n}".encode()).hexdigest() for n in range(1024)]
        rng = random.Random(6)
        for size in range(1, 1025):
            batch = MerkleBatch(leaves[:size])
            for index in range(size):
                assert merkle_verify(batch.proof(index)), (size, index)
            # tamper checks on a sampled leaf per size
            index = rng.randrange(size)
            proof = batch.proof(index)
            from dataclasses import replace

            other = leaves[-1] if proof.leaf != leaves[-1] else leaves[-2]
            assert not merkle_verify(replace(proof, leaf=other))
            if proof.siblings:
                bad = list(proof.siblings)
                bad[rng.randrange(len(bad))] = hashlib.sha256(b"junk").hexdigest()
                assert not merkle_verify(replace(proof, siblings=tuple(bad)))
            assert not merkle_verify(replace(proof, root="0" * 64))
        a, b, c = leaves[:3]
        assert merkle_root([a, b, c]) == merkle_root([a, b, c, c])


# --- 7. canonicalization determinism ---------------------------------------------------

def test_acceptance_07_canonicalization():
    with criterion(7, "insertion order never changes the txid; parse round trip is idempotent"):
        rng = random.Random(7)
        for index in range(100):
            event = random_event(rng, index)
            baseline = compute_txid(canonicalize(event))
            for _ in range(3):
                keys = list(event)
                rng.shuffle(keys)
                permuted = {key: event[key] for key in keys}
                inner = list(permuted["final"]["probs"])
                rng.shuffle(inner)
                permuted["final"] = {"probs": {k: event["final"]["probs"][k] for k in inner}}
                assert compute_txid(canonicalize(permuted)) == baseline
            first = canonicalize(event)
            assert canonicalize(parse_canonical(first)) == first


# --- 8. anchoring cost -------------------------------------------------------------------

def test_acceptance_08_cost(tmp_path):
    with criterion(8, "anchoring cost arithmetic and flat gas charge"):
        assert estimate_anchor_cost(47000, 50, 3445, batch_size=1) == pytest.approx(8.096, abs=0.001)
        assert estimate_anchor_cost(47000, 50, 3445, batch_size=1000) < 0.01
        with SimulatedLedger(
            ledger_path=str(tmp_path / "l.json"), pending_path=str(tmp_path / "p.json")
        ) as ledger:
            txid = hashlib.sha256(b"cost").hexdigest()
            ledger.submit(txid)
            ledger.seal_pending()
            assert ledger.status(txid).gas_used == 47000


# --- 9. coherence --------------------------------------------------------------------------

def test_acceptance_09_coherence():
    with criterion(9, "coherence index: identity, floor value, symmetry"):
        vad = VadState(0.3, 0.7)
        assert coherence_index(vad, vad) == 1.0
        floor = coherence_index(VadState(1.0, 1.0), VadState(-1.0, 0.0))
        assert floor == pytest.approx(0.25, abs=1e-12)
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = VadState(float(rng.uniform(-1, 1)), float(rng.uniform(0, 1)))
            b = VadState(float(rng.uniform(-1, 1)), float(rng.uniform(0, 1)))
            assert coherence_index(a, b) == pytest.approx(coherence_index(b, a), abs=1e-15)


# --- 10. synthetic-corpus evaluation ---------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_eval(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    started = time.perf_counter()
    manifest = generate_synthetic_corpus(str(root / "corpus"), seed=CORPUS_SEED, size=CORPUS_SIZE)
    config = make_test_config(root / "state")
    report = run_batch_eval(
        str(manifest),
        config,
        out_dir=str(root / "out"),
        clock=lambda: "2026-08-11T12:00:00+00:00",
    )
    elapsed = time.perf_counter() - started
    return manifest, report, elapsed, root


def brute_force_metrics(golds, preds):
    n = len(golds)
    per_class = {}
    for label in LABELS:
        tp = sum(1 for g, p in zip(golds, preds) if g == label and p == label)
        fp = sum(1 for g, p in zip(golds, preds) if g != label and p == label)
        fn = sum(1 for g, p in zip(golds, preds) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = {"precision": precision, "recall": recall, "f1": f1, "support": tp + fn}
    total = sum(per_class[l]["support"] for l in LABELS)
    return {
        "accuracy": sum(1 for g, p in zip(golds, preds) if g == p) / n,
        "per_class": per_class,
        "macro": {m: sum(per_class[l][m] for l in LABELS) / len(LABELS) for m in ("precision", "recall", "f1")},
        "weighted": {m: sum(per_class[l][m] * per_class[l]["support"] for l in LABELS) / total for m in ("precision", "recall", "f1")},
    }


def test_acceptance_10_corpus_eval(corpus_eval, tmp_path):
    with criterion(10, "500-row synthetic evaluation: oracle-exact metrics, fuzzy >= linear, corrections exist"):
        manifest, report, elapsed, root = corpus_eval

        # (a) 12-row subset: every reported metric equals the brute-force oracle
        subset_lines = manifest.read_text(encoding="utf-8").strip().splitlines()[:12]
        subset_path = tmp_path / "subset.jsonl"
        fixed = []
        for line in subset_lines:
            row = json.loads(line)
            row["audio"] = str(manifest.parent / row["audio"])
            fixed.append(json.dumps(row))
        subset_path.write_text("\n".join(fixed) + "\n", encoding="utf-8")
        config = make_test_config(tmp_path / "subset_state")
        subset_report = run_batch_eval(
            str(subset_path), config, clock=lambda: "2026-08-11T12:00:00+00:00"
        )
        for variant in ("text_only", "audio_only", "linear", "fuzzy"):
            golds = [row["gold"] for row in subset_report["predictions"]]
            preds = [row[variant] for row in subset_report["predictions"]]
            oracle = brute_force_metrics(golds, preds)
            got = subset_report["variants"][variant]
            assert got["accuracy"] == oracle["accuracy"]
            for label in LABELS:
                for metric in ("precision", "recall", "f1", "support"):
                    assert got["per_class"][label][metric] == oracle["per_class"][label][metric]
            for metric in ("precision", "recall", "f1"):
                assert got["macro"][metric] == oracle["macro"][metric]
                assert got["weighted"][metric] == oracle["weighted"][metric]

        # (b) ordering: fuzzy weighted F1 at or above linear
        fuzzy_f1 = report["variants"]["fuzzy"]["weighted"]["f1"]
        linear_f1 = report["variants"]["linear"]["weighted"]["f1"]
        assert fuzzy_f1 >= linear_f1, (fuzzy_f1, linear_f1)

        # (c) the correction phenomenon exists
        assert report["disagreements"]["fuzzy_corrects_linear"] > 0

        # runtime budget for generation + full evaluation
        assert elapsed < 120.0, f"corpus generation + evaluation took {elapsed:.1f}s"

        report_file = root / "out" / "report.json"
        assert report_file.exists()


# --- 11. latency budget -----------------------------------------------------------------------

def test_acceptance_11_latency(tmp_path):
    with criterion(11, "non-ASR pipeline under 60 ms per 10 s turn; anchoring adds no response latency"):
        rng = np.random.default_rng(11)
        ten_seconds = 0.3 * np.sin(2 * np.pi * 440 * np.arange(160000) / 16000.0)
        ten_seconds += rng.normal(0, 0.01, ten_seconds.size)
        wav_path = tmp_path / "ten.wav"
        write_wav(wav_path, np.clip(ten_seconds, -1, 1))

        config = make_test_config(tmp_path)
        with Pipeline(config) as pipeline:
            turn = TurnInput(
                audio_path=str(wav_path),
                transcript="hoy estoy muy feliz con este trabajo",
                asr_confidence=0.9,
                session_id="latency",
            )
            pipeline.run_turn(turn)  # warm-up (imports, caches)
            wall_times = []
            for _ in range(5):
                start = time.perf_counter()
                pipeline.run_turn(turn)
                wall_times.append(time.perf_counter() - start)
            assert min(wall_times) < 0.060, f"turn took {min(wall_times) * 1e3:.1f} ms"

            # fusion alone on a 10 s turn's channel outputs
            from affectfuse import audio as audio_mod
            from affectfuse import text as text_mod

            buffer = load_wav(str(wav_path))
            audio_result = audio_mod.audio_emotion(buffer, ArousalSmoother())
            text_result = text_mod.text_emotion(
                turn.transcript, pipeline.lexicon, pipeline.lemmas
            )
            fusion_times = []
            for _ in range(5):
                start = time.perf_counter()
                fuse(text_result, audio_result, 0.9, DEFAULT_BASE)
                fusion_times.append(time.perf_counter() - start)
            assert min(fusion_times) < 0.050

        # anchoring never delays the response: the block seals strictly after
        # the response is returned
        anchored_config = make_test_config(tmp_path / "anchored", anchoring=True)
        anchored_config.anchoring.block_interval = 0.3
        with Pipeline(anchored_config) as pipeline:
            result = pipeline.run_turn(turn)
            response_time = datetime.now().astimezone()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if pipeline.ledger.status(result.txid).status == "anchored":
                    break
                time.sleep(0.02)
            record = pipeline.ledger.status(result.txid)
            assert record.status == "anchored"
            block = next(b for b in pipeline.ledger.blocks if b.block_number == record.block_number)
            seal_time = datetime.fromisoformat(block.timestamp)
        assert seal_time > response_time
