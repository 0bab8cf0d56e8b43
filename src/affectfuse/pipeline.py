"""Per-turn orchestration.

Stage order: WAV decode -> audio emotion -> text emotion -> ASR confidence
adjustment (measured SNR) -> fusion -> guardrails -> response -> PII
redaction -> canonicalization -> txid -> audit append -> escalation ->
asynchronous anchoring. The turn returns after the audit append; anchoring
may still be pending. A fuzzy-engine failure is not an error (the fusion
falls back to linear weighting); a failed audit append is fatal for the turn.

A turn writes no explainability files: ``explain_event`` rebuilds them on
demand from the ``fusion_fuzzy`` block of the sealed audit line.
"""

from __future__ import annotations

import time
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from . import audio as audio_mod
from . import text as text_mod
from .audit.artifacts import export_explainability_artifact
from .audit.canonical import CANONICAL_VERSION, canonicalize, compute_txid
from .audit.ledger import AnchorRecord, SimulatedLedger, anchor_txid
from .audit.log import AuditLog
from .audit.redact import redact_pii
from .config import ConfigError, PipelineConfig, open_ledger
from .core import EmotionResult, dominant_emotion
from .fusion import adjust_asr_confidence, fuse
from .fuzzy import RuleBase, load_rule_base
from .guardrails import (
    evaluate_guardrails,
    load_keywords,
    load_templates,
    notify_escalation,
    plan_response,
)
from .metrics import MetricsRegistry

Clock = Callable[[], str]


def system_clock() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class TurnInput:
    """One conversational turn: a full audio file plus its transcript.

    ``transcript`` and ``asr_confidence`` come from the recognizer that
    produced them; the turn uses both as given.
    """

    audio_path: str
    transcript: str
    asr_confidence: float
    session_id: str = "default"

    def __post_init__(self) -> None:
        if not 0.0 <= self.asr_confidence <= 1.0:
            raise ValueError(f"asr_confidence must be in [0, 1], got {self.asr_confidence}")


@dataclass(frozen=True)
class TurnResult:
    """What a turn returns; ``audio`` and ``text`` are its channel outputs."""

    response: str
    event: Dict[str, object]
    txid: str
    canonical: bytes
    line_number: int
    anchor: AnchorRecord
    audio: EmotionResult
    text: EmotionResult


@dataclass
class _Session:
    smoother: audio_mod.ArousalSmoother
    turns: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class Pipeline:
    """Loads every asset once and runs turns.

    Turns in distinct sessions may run concurrently; turns within one session
    serialize on the session lock (the arousal smoother is stateful).
    """

    def __init__(
        self,
        config: PipelineConfig,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.clock: Clock = clock or system_clock
        self.metrics = metrics or MetricsRegistry(config.model_size, config.run_id)
        self.rule_base: RuleBase = load_rule_base(config.fusion.rule_base_path)
        self.lexicon = text_mod.load_lexicon(config.text.lexicon_path)
        self.lemmas = text_mod.load_lemma_dictionary(config.text.lemmas_path)
        self.templates = load_templates(config.guardrails.templates_path)
        self.keywords = load_keywords(config.guardrails.keywords_path)
        self.audit_log = AuditLog(config.audit.log_path)
        self.ledger: Optional[SimulatedLedger] = None
        if config.anchoring.enabled:
            self.ledger = open_ledger(config, clock=self.clock, auto_seal=True)
        self._sessions: Dict[str, _Session] = {}
        self._sessions_lock = threading.Lock()

        self._latency = self.metrics.histogram(
            "pipeline_stage_latency_seconds", "Per-stage latency in seconds"
        )
        self._errors = self.metrics.counter("pipeline_errors_total", "Pipeline errors by stage")
        self._redactions = self.metrics.counter("pii_redactions_total", "PII redactions applied")
        self._snr_gauge = self.metrics.gauge("audio_snr_db", "Estimated SNR of the last turn")
        self._coherence_gauge = self.metrics.gauge(
            "cross_modal_coherence", "Audio/text coherence of the last turn"
        )

    def _session(self, session_id: str) -> _Session:
        with self._sessions_lock:
            session = self._sessions.get(session_id)
            if session is None:
                session = _Session(
                    smoother=audio_mod.ArousalSmoother(alpha=self.config.audio.alpha_ema)
                )
                self._sessions[session_id] = session
            return session

    @contextmanager
    def _timed(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._latency.observe(time.perf_counter() - start, stage=stage)

    def run_turn(self, turn: TurnInput) -> TurnResult:
        session = self._session(turn.session_id)
        with session.lock:
            return self._run_turn_locked(turn, session)

    def _run_turn_locked(self, turn: TurnInput, session: _Session) -> TurnResult:
        cfg = self.config
        timestamp = self.clock()
        session.turns += 1
        event_id = f"{cfg.run_id}/{turn.session_id}/{session.turns:06d}"

        transcript, asr_conf = turn.transcript, turn.asr_confidence
        with self._timed("decode"):
            buffer = audio_mod.load_wav(turn.audio_path)
        with self._timed("audio_emotion"):
            audio_result = audio_mod.audio_emotion(
                buffer, session.smoother, norm_factor=cfg.audio.norm_factor, use_mfcc=cfg.audio.use_mfcc
            )
        with self._timed("text_emotion"):
            text_result = text_mod.text_emotion(
                transcript,
                lexicon=self.lexicon,
                lemma_dictionary=self.lemmas,
                negation_markers=cfg.text.negation_markers,
                intensifiers=cfg.text.intensifiers,
            )

        snr_db = float(audio_result.metadata["snr_db"])
        with self._timed("fusion"):
            adjusted = adjust_asr_confidence(asr_conf, snr_db)
            outcome = fuse(text_result, audio_result, adjusted, self.rule_base)

        with self._timed("guardrails"):
            escalation = evaluate_guardrails(
                outcome,
                transcript,
                thresholds=cfg.guardrails.thresholds,
                keywords=self.keywords,
                timestamp=timestamp,
            )
            response = plan_response(outcome, escalation, self.templates)

        with self._timed("audit"):
            redacted, report = redact_pii({"transcript": transcript, "response": response})
            if report.total:
                self._redactions.inc(report.total)
            dominant, dominant_prob = dominant_emotion(outcome.probs)
            event: Dict[str, object] = {
                "event_id": event_id,
                "timestamp": timestamp,
                "session_id": turn.session_id,
                "run_id": cfg.run_id,
                "model_size": cfg.model_size,
                "canonical_version": CANONICAL_VERSION,
                "rule_base": self.rule_base.rule_base_id,
                "asr_conf": asr_conf,
                "asr_conf_adjusted": adjusted,
                "emotion_audio_conf": audio_result.confidence,
                "emotion_text_conf": text_result.confidence,
                "weights": {"w_text": outcome.w_text, "w_audio": outcome.w_audio},
                "mode": outcome.mode,
                "coherence": outcome.coherence,
                "final": {
                    "probs": dict(outcome.probs),
                    "vad": outcome.vad.as_dict(),
                    "dominant": dominant,
                    "dominant_prob": dominant_prob,
                },
                "audio": dict(audio_result.metadata),
                "text": dict(text_result.metadata),
                "transcript": redacted["transcript"],
                "response": redacted["response"],
                "redaction": report.as_dict(),
            }
            if outcome.trace is not None:
                event["fusion_fuzzy"] = outcome.trace.as_dict()
            if escalation.triggered:
                event["escalation"] = escalation.as_dict()
            canonical = canonicalize(event)
            txid = compute_txid(canonical)
            line_number = self.audit_log.append(canonical)

        # The webhook payload needs the txid, so notification happens after
        # the event is sealed; the stored escalation block therefore records
        # the pre-notification state.
        if escalation.triggered:
            with self._timed("escalation"):
                status = notify_escalation(
                    escalation,
                    cfg.guardrails.escalation_webhook,
                    txid=txid,
                    run_id=cfg.run_id,
                )
            if status == "failed":
                self._errors.inc(stage="escalation_webhook")

        with self._timed("anchor_submit"):
            anchor = anchor_txid(txid, self.ledger)

        self._snr_gauge.set(snr_db)
        self._coherence_gauge.set(outcome.coherence)

        return TurnResult(
            response=response,
            event=event,
            txid=txid,
            canonical=canonical,
            line_number=line_number,
            anchor=anchor,
            audio=audio_result,
            text=text_result,
        )

    def close(self) -> None:
        self.audit_log.close()
        if self.ledger is not None:
            self.ledger.close()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def explain_event(
    event: Mapping[str, object], txid: str, rule_base: RuleBase, output_dir: str
) -> List[Path]:
    """Write ``<txid>.json/.csv/.ppm`` for a sealed event; returns the paths.

    The files are rendered from the ``fusion_fuzzy`` block that
    ``Pipeline.run_turn`` sealed, exactly as stored. The event's
    ``rule_base`` label must name ``rule_base``, whose membership functions
    fill the condition matrix. The caller checks that ``txid`` is the hash of
    the line the event came from. JSON and CSV match an export of the live
    trace byte for byte. Sealed numbers keep 12 fractional digits, so where
    ``255 * value`` falls next to a .5 boundary a PPM cell can round one grey
    level away from the live one.
    """
    block = event.get("fusion_fuzzy")
    if block is None:
        raise ValueError(f"event {txid} has no fusion_fuzzy block (mode {event.get('mode')!r})")
    if event.get("rule_base") != rule_base.rule_base_id:
        raise ConfigError(
            f"event {txid} was inferred with rule base {event.get('rule_base')!r}, "
            f"but the configured rule base is {rule_base.rule_base_id!r}"
        )
    return export_explainability_artifact(block, txid, rule_base, output_dir)
