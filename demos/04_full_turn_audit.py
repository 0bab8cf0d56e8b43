"""One conversational turn, end to end, with a verifiable audit trail.

Synthesizes a short audio turn, runs the full pipeline (audio + text
emotion, fuzzy-weighted fusion, guardrails, templated response), seals the
explanation into a canonical audit event, anchors its SHA-256 txid in the
simulated ledger, and then plays the independent verifier: first against the
untouched event, then after flipping a single byte. Last, `affectfuse explain`
rebuilds the turn's explainability files from its sealed audit line.
"""

import tempfile
import time
import wave
from pathlib import Path

import numpy as np

from affectfuse.audit import verify_anchorage
from affectfuse.cli import main as cli
from affectfuse.config import load_config
from affectfuse.pipeline import Pipeline, TurnInput

with tempfile.TemporaryDirectory(prefix="affectfuse-demo-") as tmp:
    workdir = Path(tmp)
    print(f"working under {workdir}")

    rate = 16000
    t = np.arange(2 * rate) / rate
    samples = 0.25 * np.sin(2 * np.pi * 330 * t) * (np.sin(2 * np.pi * 1.5 * t) > 0)
    samples = np.clip(samples + np.random.default_rng(1).normal(0, 0.004, t.size), -1, 1)
    wav_path = workdir / "turn.wav"
    with wave.open(str(wav_path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(np.round(samples * 32767).astype("<i2").tobytes())

    # relative paths in a config file resolve against the file's directory
    config_path = workdir / "app.yaml"
    config_path.write_text(
        "audit:\n"
        "  log_path: audit/events.jsonl\n"
        "  artifacts_dir: audit/fired_rules\n"
        "anchoring:\n"
        "  ledger_path: audit/ledger.json\n"
        "  pending_path: audit/pending.json\n"
        "  block_interval: 0.5\n",
        encoding="utf-8",
    )
    config = load_config(str(config_path))

    with Pipeline(config) as pipeline:
        result = pipeline.run_turn(
            TurnInput(
                audio_path=str(wav_path),
                transcript="la verdad estoy muy contenta, aunque mi correo ana@ejemplo.com no funciona",
                asr_confidence=0.88,
                session_id="demo",
            )
        )
        print()
        print(f"response : {result.response}")
        print(f"dominant : {result.event['final']['dominant']}")
        print(f"mode     : {result.event['mode']}  w_text={result.event['weights']['w_text']:.4f}")
        print(f"redaction: {result.event['redaction']} (the address never reaches disk)")
        print(f"txid     : {result.txid}")

        # anchoring is asynchronous; give the sealer a moment
        while pipeline.ledger.status(result.txid).status != "anchored":
            time.sleep(0.05)
        record = pipeline.ledger.status(result.txid)
        print(f"anchored : block {record.block_number}, tx_hash {record.tx_hash[:16]}..., gas {record.gas_used}")

        stored = (workdir / "audit" / "events.jsonl").read_bytes().splitlines()[0]
        verdict = verify_anchorage(stored, result.txid, pipeline.ledger)
        print(f"verify untouched event  -> {verdict.kind}")

        tampered = bytearray(stored)
        tampered[42] ^= 0x01
        verdict = verify_anchorage(bytes(tampered), result.txid, pipeline.ledger)
        print(f"verify after 1-byte flip -> {verdict.kind}")

    # the turn wrote no explainability files; explain rebuilds them from the
    # sealed line, after checking that the line still hashes to the txid
    print()
    log = workdir / "audit" / "events.jsonl"
    explain = ["--config", str(config_path), "explain", "--event", str(log),
               "--line", str(result.line_number), "--txid", result.txid]
    if cli(explain) != 0:
        raise SystemExit("explain failed")
    print(f"explainability artifacts: {sorted(p.name for p in (workdir / 'audit' / 'fired_rules').iterdir())}")
