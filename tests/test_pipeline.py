from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from affectfuse import pipeline as pipeline_mod
from affectfuse.audit import AuditWriteError, LedgerReader, compute_txid, parse_canonical, read_event_line
from affectfuse.audit import artifacts as artifacts_mod
from affectfuse.audit.artifacts import export_explainability_artifact
from affectfuse.config import load_config
from affectfuse.corpus import generate_synthetic_corpus
from affectfuse.evaluate import load_manifest
from affectfuse.metrics import MetricsRegistry
from affectfuse.pipeline import Pipeline, TurnInput, explain_event

from conftest import make_test_config, sine_buffer, write_wav

REQUIRED_EVENT_FIELDS = (
    "event_id", "timestamp", "asr_conf", "emotion_audio_conf", "emotion_text_conf",
    "weights", "mode", "coherence", "final", "audio", "text", "transcript",
    "response", "redaction", "rule_base", "model_size", "run_id", "canonical_version",
)

ACOUSTIC_FIELDS = (
    "arousal_raw", "zcr_raw", "zcr_norm", "timbre_score", "mfcc_present",
    "arousal_smoothed", "snr_db",
)


@pytest.fixture
def wav_path(tmp_path):
    path = tmp_path / "turn.wav"
    write_wav(path, sine_buffer(440.0, 0.4).samples)
    return str(path)


def turn(wav_path, transcript="hoy estoy muy feliz", conf=0.9, session="s1"):
    return TurnInput(audio_path=wav_path, transcript=transcript, asr_confidence=conf, session_id=session)


@pytest.fixture
def outcomes(monkeypatch):
    """Every turn's FusionOutcome, in turn order, as the pipeline saw it."""
    seen = []
    fuse = pipeline_mod.fuse

    def capture(*args, **kwargs):
        seen.append(fuse(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(pipeline_mod, "fuse", capture)
    return seen


def ppm_levels(path):
    """Header and pixel bytes of a binary PPM written by the exporter."""
    data = path.read_bytes()
    header_end = data.index(b"\n255\n") + len(b"\n255\n")
    return data[:header_end], np.frombuffer(data[header_end:], dtype=np.uint8).astype(int)


def assert_rebuilt_like_live(result, trace, rule_base, rebuilt_dir, live_dir):
    """Files rebuilt from the sealed line against the live trace's export."""
    event = parse_canonical(result.canonical)
    rebuilt = explain_event(event, result.txid, rule_base, str(rebuilt_dir))
    live = export_explainability_artifact(trace.as_dict(), result.txid, rule_base, str(live_dir))
    assert [p.name for p in rebuilt] == [p.name for p in live]
    for suffix in (".json", ".csv"):
        name = f"{result.txid}{suffix}"
        assert (rebuilt_dir / name).read_bytes() == (live_dir / name).read_bytes(), name
    header, pixels = ppm_levels(rebuilt_dir / f"{result.txid}.ppm")
    live_header, live_pixels = ppm_levels(live_dir / f"{result.txid}.ppm")
    assert header == live_header
    # sealed numbers keep 12 digits: a cell next to a .5 boundary may round one level apart
    assert np.abs(pixels - live_pixels).max() <= 1


def test_event_carries_every_stored_field(tmp_path, wav_path, pinned_clock):
    config = make_test_config(tmp_path)
    with Pipeline(config, clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(turn(wav_path))
    event = result.event
    for field in REQUIRED_EVENT_FIELDS:
        assert field in event, field
    for field in ACOUSTIC_FIELDS:
        assert field in event["audio"], field
    assert set(event["weights"]) == {"w_text", "w_audio"}
    assert event["mode"] == "fuzzy"
    assert set(event["fusion_fuzzy"]) == {"inputs", "fired_rules", "out_sets"}
    assert event["weights"]["w_text"] + event["weights"]["w_audio"] == pytest.approx(1.0)
    assert event["final"]["dominant"] == "joy"
    assert result.response
    assert result.anchor.status == "disabled"


def test_fusion_fuzzy_present_iff_fuzzy_mode(tmp_path, wav_path, pinned_clock):
    config = make_test_config(tmp_path)
    with Pipeline(config, clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(turn(wav_path))
    assert "fusion_fuzzy" in result.event

    empty_base = tmp_path / "empty.yaml"
    empty_base.write_text(
        """
id: empty
variables:
  asr_conf: {domain: [0, 1], sets: {low: [0, 0, 0.3, 0.5]}}
  arousal: {domain: [0, 1], sets: {low: [0, 0, 0.2, 0.4]}}
  valence: {domain: [-1, 1], sets: {neu: [-0.25, -0.05, 0.05, 0.25]}}
output: {name: w_text, domain: [0, 1], sets: {mid: [0, 0.5, 0.5, 1]}}
rules: []
""",
        encoding="utf-8",
    )
    config2 = make_test_config(tmp_path / "fallback")
    config2.fusion.rule_base_path = str(empty_base)
    with Pipeline(config2, clock=pinned_clock) as pipeline:
        result2 = pipeline.run_turn(turn(wav_path, conf=0.9))
    assert result2.event["mode"] == "linear_fallback"
    assert "fusion_fuzzy" not in result2.event
    # a steady tone has ~0 dB block SNR, so the low-band penalty applies and
    # the fallback weight is the adjusted confidence 0.9 * 0.6
    assert result2.event["weights"]["w_text"] == pytest.approx(0.54)


def test_txid_matches_stored_line(tmp_path, wav_path, pinned_clock):
    config = make_test_config(tmp_path)
    with Pipeline(config, clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(turn(wav_path))
    stored = (tmp_path / "audit" / "events.jsonl").read_bytes().splitlines()[0]
    assert stored == result.canonical
    assert hashlib.sha256(stored).hexdigest() == result.txid
    assert compute_txid(result.canonical) == result.txid


def test_pinned_clock_runs_are_byte_identical(tmp_path, wav_path, pinned_clock):
    results = []
    for name in ("a", "b"):
        config = make_test_config(tmp_path / name)
        with Pipeline(config, clock=pinned_clock) as pipeline:
            results.append(pipeline.run_turn(turn(wav_path)))
    assert results[0].canonical == results[1].canonical
    assert results[0].txid == results[1].txid


def test_sessions_evolve_ema_state(tmp_path, wav_path, pinned_clock):
    quiet_path = tmp_path / "quiet.wav"
    write_wav(quiet_path, sine_buffer(440.0, 0.1).samples)
    config = make_test_config(tmp_path)
    with Pipeline(config, clock=pinned_clock) as pipeline:
        first = pipeline.run_turn(turn(wav_path, session="same"))
        second = pipeline.run_turn(turn(str(quiet_path), session="same"))
        fresh = pipeline.run_turn(turn(str(quiet_path), session="fresh"))
    a1 = first.event["audio"]["arousal_smoothed"]
    a2_same = second.event["audio"]["arousal_smoothed"]
    a2_fresh = fresh.event["audio"]["arousal_smoothed"]
    # same session: second turn is pulled toward the louder first turn
    assert a2_same > a2_fresh
    assert a2_same == pytest.approx(0.3 * a2_fresh + 0.7 * a1)
    assert first.event["event_id"].endswith("000001")
    assert second.event["event_id"].endswith("000002")
    assert fresh.event["event_id"].endswith("000001")


def test_escalation_block_in_same_turn(tmp_path, wav_path, pinned_clock):
    config = make_test_config(tmp_path)
    with Pipeline(config, clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(turn(wav_path, transcript="pienso en hacerme daño"))
    event = result.event
    assert "escalation" in event
    assert event["escalation"]["triggered"] is True
    assert any(r.startswith("keyword:") for r in event["escalation"]["reasons"])
    assert result.response == pipeline.templates["handoff"]
    latency = pipeline.metrics.histogram("pipeline_stage_latency_seconds")
    assert latency.count(stage="escalation") == 1


def test_a_failed_escalation_webhook_counts_one_error(tmp_path, wav_path, pinned_clock):
    config = make_test_config(tmp_path)
    config.guardrails.thresholds = {"joy": 0.0}  # any joy at all escalates
    config.guardrails.escalation_webhook = "http://127.0.0.1:1/"  # nothing listens on port 1
    with Pipeline(config, clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(turn(wav_path))
    assert result.event["escalation"]["reasons"] == ["joy>0"]
    errors = pipeline.metrics.counter("pipeline_errors_total")
    assert errors.value(stage="escalation_webhook") == 1


def keyword_reasons(event):
    return [r for r in event.get("escalation", {}).get("reasons", []) if r.startswith("keyword:")]


@pytest.mark.parametrize(
    "setting, transcript, read, default, configured",
    [
        (
            "text:\n  negation_markers: [jamás]\n", "no estoy feliz",
            lambda event: event["text"]["negations_detected"], 1, 0,
        ),
        (
            "text:\n  intensifiers: {muy: 3.0}\n", "hoy estoy muy feliz",
            lambda event: event["text"]["intensifiers_applied"], "muy:1.5", "muy:3",
        ),
        (
            "guardrails:\n  keywords_path: keywords.txt\n", "miro el cielo azul",
            keyword_reasons, [], ["keyword:cielo azul"],
        ),
    ],
    ids=["negation_markers", "intensifiers", "keywords_path"],
)
def test_a_configured_setting_changes_the_turn(tmp_path, wav_path, setting, transcript, read, default, configured):
    (tmp_path / "keywords.txt").write_text("cielo azul\n", encoding="utf-8")
    events = []
    for name, extra in (("default", ""), ("configured", setting)):
        path = tmp_path / f"{name}.yaml"
        path.write_text(
            f"audit:\n  log_path: {name}/events.jsonl\nanchoring:\n  enabled: false\n{extra}",
            encoding="utf-8",
        )
        with Pipeline(load_config(str(path), environ={})) as pipeline:
            events.append(pipeline.run_turn(turn(wav_path, transcript=transcript)).event)
    assert [read(event) for event in events] == [default, configured]


def test_transcript_redacted_before_hashing(tmp_path, wav_path, pinned_clock):
    config = make_test_config(tmp_path)
    with Pipeline(config, clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(turn(wav_path, transcript="soy ana@ejemplo.com y estoy feliz"))
    assert "[REDACTED:EMAIL]" in result.event["transcript"]
    assert b"ana@ejemplo.com" not in result.canonical
    assert result.event["redaction"] == {"EMAIL": 1}
    assert pipeline.metrics.counter("pii_redactions_total").value() == 1


def test_audit_write_failure_is_fatal(tmp_path, wav_path, pinned_clock):
    config = make_test_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("x")
    config.audit.log_path = str(blocker / "events.jsonl")
    with pytest.raises(AuditWriteError):
        Pipeline(config, clock=pinned_clock)


def test_metrics_populated_after_turn(tmp_path, wav_path, pinned_clock):
    config = make_test_config(tmp_path)
    registry = MetricsRegistry(config.model_size, config.run_id)
    with Pipeline(config, clock=pinned_clock, metrics=registry) as pipeline:
        pipeline.run_turn(turn(wav_path))
    text = registry.render()
    assert 'audio_snr_db{model_size="stub",run_id="local"}' in text
    assert "cross_modal_coherence" in text
    stages = ("decode", "audio_emotion", "text_emotion", "fusion", "guardrails", "audit", "anchor_submit")
    for stage in stages:
        assert f'stage="{stage}"' in text
    assert 'stage="asr"' not in text


def test_nan_audio_rejected_before_audit(tmp_path, pinned_clock):
    from pathlib import Path

    from scipy.io import wavfile

    from affectfuse.audio import NaNAudio

    samples = sine_buffer(440.0, 0.4).samples.astype(np.float32)
    samples[100] = np.nan
    path = tmp_path / "nan.wav"
    wavfile.write(str(path), 16000, samples)
    config = make_test_config(tmp_path)
    with Pipeline(config, clock=pinned_clock) as pipeline:
        with pytest.raises(NaNAudio, match="NaN"):
            pipeline.run_turn(turn(str(path)))
    log = Path(config.audit.log_path)
    assert not log.exists() or log.read_bytes() == b""


def test_anchoring_enabled_submits(tmp_path, wav_path, pinned_clock):
    config = make_test_config(tmp_path, anchoring=True)
    config.anchoring.block_interval = 0.05
    with Pipeline(config, clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(turn(wav_path))
        assert result.anchor.status in ("submitted", "anchored")
        import time

        deadline = time.time() + 3.0
        while time.time() < deadline:
            if pipeline.ledger.status(result.txid).status == "anchored":
                break
            time.sleep(0.02)
        record = pipeline.ledger.status(result.txid)
    assert record.status == "anchored"
    assert record.gas_used == 47000


def test_every_anchoring_setting_reaches_the_ledger(tmp_path, wav_path, pinned_clock):
    audit = tmp_path / "audit"
    config = load_config(environ={
        "APP__AUDIT__LOG_PATH": str(audit / "events.jsonl"),
        "APP__ANCHORING__LEDGER_PATH": str(audit / "chain.jsonl"),
        "APP__ANCHORING__PENDING_PATH": str(audit / "queue.txt"),
        "APP__ANCHORING__SENDER": "acct-23",
        "APP__ANCHORING__BLOCK_INTERVAL": "60",
        "APP__ANCHORING__MAX_BLOCK_ENTRIES": "2",
    })
    pipeline = Pipeline(config, clock=pinned_clock)
    assert pipeline.ledger.block_interval == 60.0
    txids = [pipeline.run_turn(turn(wav_path)).txid for _ in range(5)]
    pipeline.close()
    ledger = LedgerReader(str(audit / "chain.jsonl"), str(audit / "queue.txt"))
    assert len(set(txids)) == 5 and ledger.pending == ()
    assert [entry.txid for block in ledger.blocks for entry in block.entries] == txids
    assert all(len(block.entries) <= 2 for block in ledger.blocks)
    assert {entry.sender for block in ledger.blocks for entry in block.entries} == {"acct-23"}
    assert {block.timestamp for block in ledger.blocks} == {pinned_clock()}


def test_artifacts_written_per_fuzzy_turn(tmp_path, wav_path, pinned_clock, outcomes):
    # A turn writes no artifact files; explain rebuilds them from its sealed line.
    config = make_test_config(tmp_path)
    with Pipeline(config, clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(turn(wav_path))
        rule_base = pipeline.rule_base
    base = tmp_path / "audit" / "fired_rules"
    assert not base.exists() or not any(base.iterdir())
    (outcome,) = outcomes
    assert outcome.mode == "fuzzy"
    line = read_event_line(config.audit.log_path, result.line_number)
    assert line == result.canonical
    assert_rebuilt_like_live(result, outcome.trace, rule_base, base, tmp_path / "live")
    payload = json.loads((base / f"{result.txid}.json").read_text())
    assert payload["txid"] == result.txid


def test_fuzzy_turn_canonicalizes_once(tmp_path, wav_path, pinned_clock, monkeypatch):
    calls = []

    def counting(module):
        original = module.canonicalize

        def canonicalize(value):
            calls.append(module.__name__)
            return original(value)

        monkeypatch.setattr(module, "canonicalize", canonicalize)

    counting(pipeline_mod)
    counting(artifacts_mod)
    config = make_test_config(tmp_path)
    with Pipeline(config, clock=pinned_clock) as pipeline:
        result = pipeline.run_turn(turn(wav_path))
    assert result.event["mode"] == "fuzzy"
    assert calls == ["affectfuse.pipeline"]


def test_explain_matches_live_export_over_a_corpus(tmp_path, pinned_clock, outcomes):
    manifest = generate_synthetic_corpus(str(tmp_path / "corpus"), seed=424, size=24)
    config = make_test_config(tmp_path)
    fuzzy_rows = 0
    with Pipeline(config, clock=pinned_clock) as pipeline:
        for row in load_manifest(str(manifest)):
            result = pipeline.run_turn(
                TurnInput(row.audio, row.transcript, row.asr_confidence, session_id=row.row_id)
            )
            outcome = outcomes[-1]
            if outcome.trace is None:
                assert "fusion_fuzzy" not in result.event
                continue
            fuzzy_rows += 1
            assert_rebuilt_like_live(
                result, outcome.trace, pipeline.rule_base, tmp_path / "rebuilt", tmp_path / "live"
            )
    assert fuzzy_rows >= 20


def test_run_pipeline_convenience(tmp_path, wav_path):
    # One turn from a transient pipeline: the context manager closes it.
    config = make_test_config(tmp_path)
    with Pipeline(config) as pipeline:
        result = pipeline.run_turn(turn(wav_path))
    response, event, anchor = result.response, result.event, result.anchor
    assert response and event["final"]["dominant"] == "joy"
    assert anchor.status == "disabled"


def test_concurrent_sessions(tmp_path, wav_path, pinned_clock):
    import threading

    config = make_test_config(tmp_path)
    errors = []
    with Pipeline(config, clock=pinned_clock) as pipeline:
        def work(session):
            try:
                for _ in range(5):
                    pipeline.run_turn(turn(wav_path, session=session))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(f"s{i}",)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors
    lines = (tmp_path / "audit" / "events.jsonl").read_bytes().splitlines()
    assert len(lines) == 30
    for line in lines:
        json.loads(line)
