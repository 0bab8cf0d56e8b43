"""Late fusion of the text and audio channels.

The text weight w_text comes from the fuzzy engine (soft gating); if the
engine cannot produce a value, a linear fallback uses the adjusted ASR
confidence directly. The audio channel supplies the primary arousal signal,
valence is the mean of the channels, and a coherence index quantifies
cross-modal agreement.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .core import LABELS, EmotionResult, VadState, clamp
from .fuzzy import FuzzyTrace, RuleBase, ZeroActivation, infer_w_text

log = logging.getLogger(__name__)

MODE_FUZZY = "fuzzy"
MODE_LINEAR_FALLBACK = "linear_fallback"


@dataclass(frozen=True)
class FusionOutcome:
    """Fused distribution and VAD plus the applied weights and trace.

    In linear fallback the trace is absent and w_text equals the adjusted
    ASR confidence. w_text + w_audio == 1 always.
    """

    probs: Dict[str, float]
    vad: VadState
    w_text: float
    w_audio: float
    mode: str
    coherence: float
    trace: Optional[FuzzyTrace] = None


#: SNR bands (dB) of the ASR confidence penalty and the factor applied in each.
SNR_LOW_DB = 5.0
SNR_MID_DB = 12.0
SNR_LOW_FACTOR = 0.6
SNR_MID_FACTOR = 0.85


def adjust_asr_confidence(asr_conf: float, snr_db: float) -> float:
    """Penalize ASR confidence under low (< 5 dB) or moderate (5-12 dB) SNR."""
    if not 0.0 <= asr_conf <= 1.0:
        raise ValueError(f"asr_conf must be in [0, 1], got {asr_conf}")
    if snr_db < SNR_LOW_DB:
        return asr_conf * SNR_LOW_FACTOR
    if snr_db < SNR_MID_DB:
        return asr_conf * SNR_MID_FACTOR
    return asr_conf


def coherence_index(vad_audio: VadState, vad_text: VadState) -> float:
    """Cross-modal agreement from valence/arousal differences.

    C = 1 - ((|dv| / 2 + |da| / 2) / 2), which bounds C to [0.25, 1] because
    the arousal difference (range 1) is divided by 2.
    """
    dv = abs(vad_audio.valence - vad_text.valence) / 2.0
    da = abs(vad_audio.arousal - vad_text.arousal) / 2.0
    return 1.0 - (dv + da) / 2.0


def fuse_distributions(
    p_text: Mapping[str, float],
    p_audio: Mapping[str, float],
    w_text: float,
) -> Dict[str, float]:
    """Convex combination w_text * p_text + (1 - w_text) * p_audio.

    Endpoints return the corresponding input exactly. Renormalization only
    absorbs float rounding; inputs further than 1e-9 from a valid
    distribution are rejected.
    """
    if not 0.0 <= w_text <= 1.0:
        raise ValueError(f"w_text must be in [0, 1], got {w_text}")
    if w_text == 1.0:
        return {label: float(p_text.get(label, 0.0)) for label in LABELS}
    if w_text == 0.0:
        return {label: float(p_audio.get(label, 0.0)) for label in LABELS}
    mixed = {
        label: w_text * float(p_text.get(label, 0.0))
        + (1.0 - w_text) * float(p_audio.get(label, 0.0))
        for label in LABELS
    }
    total = sum(mixed.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"input distributions are not normalized (sum {total!r})")
    if total != 1.0:
        mixed = {label: value / total for label, value in mixed.items()}
    return mixed


def fuse_vad(vad_audio: VadState, vad_text: VadState) -> VadState:
    """Audio arousal is the primary signal; valence is the channel mean."""
    return VadState(
        valence=(vad_audio.valence + vad_text.valence) / 2.0,
        arousal=clamp(vad_audio.arousal, 0.0, 1.0),
        dominance=0.5,
    )


def fuse(
    text_result: EmotionResult,
    audio_result: EmotionResult,
    adjusted_asr_conf: float,
    rule_base: RuleBase,
) -> FusionOutcome:
    """Weight and mix the two channels.

    The engine receives the adjusted ASR confidence, the audio arousal, and
    the mean of the channel valences. Engine failure (zero rule coverage or
    any internal error) is not an error here: the linear fallback sets
    w_text to the adjusted confidence, the outcome records the mode, and its
    trace is None exactly then. Any failure other than zero coverage also
    logs a warning.
    """
    engine_valence = (audio_result.vad.valence + text_result.vad.valence) / 2.0
    trace: Optional[FuzzyTrace] = None
    try:
        trace = infer_w_text(rule_base, adjusted_asr_conf, audio_result.vad.arousal, engine_valence)
        w_text, mode = trace.w_text, MODE_FUZZY
    except Exception as exc:
        if not isinstance(exc, ZeroActivation):
            log.warning("fuzzy engine failed; using linear fallback", exc_info=True)
        w_text, mode = adjusted_asr_conf, MODE_LINEAR_FALLBACK

    coherence = coherence_index(audio_result.vad, text_result.vad)
    probs = fuse_distributions(text_result.probs, audio_result.probs, w_text)
    vad = fuse_vad(audio_result.vad, text_result.vad)
    return FusionOutcome(
        probs=probs,
        vad=vad,
        w_text=w_text,
        w_audio=1.0 - w_text,
        mode=mode,
        coherence=coherence,
        trace=trace,
    )
