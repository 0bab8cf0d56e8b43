from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affectfuse import fusion as fusion_mod
from affectfuse.core import EmotionResult, VadState, dominant_emotion, normalize_distribution
from affectfuse.fusion import (
    MODE_FUZZY,
    MODE_LINEAR_FALLBACK,
    adjust_asr_confidence,
    coherence_index,
    fuse,
    fuse_distributions,
    fuse_vad,
)
from affectfuse.fuzzy import load_rule_base, parse_rule_base

TRACE_BASE = load_rule_base(builtin="trace")
DEFAULT_BASE = load_rule_base(builtin="default")


def result(probs, valence, arousal, confidence=0.8):
    return EmotionResult(
        probs=normalize_distribution(probs),
        vad=VadState(valence=valence, arousal=arousal),
        confidence=confidence,
    )


# --- ASR confidence adjustment ----------------------------------------------

def test_adjust_above_bands_identity():
    assert adjust_asr_confidence(0.9, 20.0) == 0.9


def test_adjust_mid_band():
    assert adjust_asr_confidence(0.9, 8.0) == pytest.approx(0.765)


def test_adjust_low_band():
    assert adjust_asr_confidence(0.9, 3.0) == pytest.approx(0.54)


def test_adjust_rejects_out_of_range():
    with pytest.raises(ValueError):
        adjust_asr_confidence(1.2, 20.0)


# --- coherence ----------------------------------------------------------------

def test_coherence_identical_is_one():
    vad = VadState(0.3, 0.6)
    assert coherence_index(vad, vad) == 1.0


def test_coherence_maximal_differences():
    c = coherence_index(VadState(1.0, 1.0), VadState(-1.0, 0.0))
    assert c == pytest.approx(0.25, abs=1e-12)


def test_coherence_hand_computed():
    # dv = 1, da = 0.5 -> 1 - ((0.5 + 0.25) / 2) = 0.625
    c = coherence_index(VadState(0.5, 0.75), VadState(-0.5, 0.25))
    assert c == pytest.approx(0.625)


@given(
    st.floats(-1, 1), st.floats(0, 1), st.floats(-1, 1), st.floats(0, 1),
)
@settings(max_examples=100, deadline=None)
def test_coherence_symmetric(v1, a1, v2, a2):
    x, y = VadState(v1, a1), VadState(v2, a2)
    assert coherence_index(x, y) == pytest.approx(coherence_index(y, x), abs=1e-12)
    assert 0.25 <= coherence_index(x, y) <= 1.0


def test_coherence_one_iff_equal_valence_arousal():
    assert coherence_index(VadState(0.2, 0.4, 0.1), VadState(0.2, 0.4, 0.9)) == 1.0
    assert coherence_index(VadState(0.2, 0.4), VadState(0.2, 0.41)) < 1.0


# --- distribution mixing -------------------------------------------------------

def test_endpoint_identities():
    p_text = normalize_distribution({"joy": 1.0})
    p_audio = normalize_distribution({"anger": 1.0})
    assert fuse_distributions(p_text, p_audio, 1.0) == p_text
    assert fuse_distributions(p_text, p_audio, 0.0) == p_audio


def test_mixture_arithmetic():
    p_text = normalize_distribution({"joy": 1.0})
    p_audio = normalize_distribution({"anger": 1.0})
    mixed = fuse_distributions(p_text, p_audio, 0.6)
    assert mixed["joy"] == pytest.approx(0.6)
    assert mixed["anger"] == pytest.approx(0.4)


@given(
    st.lists(st.floats(0.01, 10), min_size=6, max_size=6),
    st.lists(st.floats(0.01, 10), min_size=6, max_size=6),
    st.floats(0, 1),
)
@settings(max_examples=100, deadline=None)
def test_convexity_componentwise(a, b, w):
    from affectfuse.core import LABELS

    p_text = normalize_distribution(dict(zip(LABELS, a)))
    p_audio = normalize_distribution(dict(zip(LABELS, b)))
    mixed = fuse_distributions(p_text, p_audio, w)
    for label in LABELS:
        lo = min(p_text[label], p_audio[label])
        hi = max(p_text[label], p_audio[label])
        assert lo - 1e-12 <= mixed[label] <= hi + 1e-12


# --- VAD fusion ----------------------------------------------------------------

def test_vad_valence_mean():
    fused = fuse_vad(VadState(0.4, 0.5), VadState(-0.4, 0.9))
    assert fused.valence == 0.0


def test_vad_audio_arousal_is_primary():
    fused = fuse_vad(VadState(0.0, 0.919), VadState(0.0, 0.1))
    assert fused.arousal == pytest.approx(0.919)


def test_vad_mean_arithmetic():
    fused = fuse_vad(VadState(0.6, 0.5), VadState(0.2, 0.2))
    assert fused.valence == pytest.approx(0.4)
    assert fused.dominance == 0.5


# --- full fusion ----------------------------------------------------------------

def test_fuse_reproduces_golden_trace():
    # audio valence 0.04 and text valence 0.0 average to the published 0.02
    audio = result({"neutral": 1.0}, valence=0.04, arousal=0.12)
    text = result({"joy": 1.0}, valence=0.0, arousal=0.1)
    outcome = fuse(text, audio, 0.9582073547338185, TRACE_BASE)
    assert outcome.mode == MODE_FUZZY
    assert outcome.w_text == pytest.approx(0.5843812629945782, abs=0.01)
    assert outcome.trace is not None
    assert outcome.w_text + outcome.w_audio == 1.0


def test_zero_coverage_base_falls_back(caplog):
    empty = parse_rule_base(
        {
            "id": "empty",
            "variables": {
                "asr_conf": {"domain": [0, 1], "sets": {"low": [0, 0, 0.3, 0.5]}},
                "arousal": {"domain": [0, 1], "sets": {"low": [0, 0, 0.2, 0.4]}},
                "valence": {"domain": [-1, 1], "sets": {"neu": [-0.25, -0.05, 0.05, 0.25]}},
            },
            "output": {"name": "w_text", "domain": [0, 1], "sets": {"mid": [0, 0.5, 0.5, 1]}},
            "rules": [],
        }
    )
    audio = result({"neutral": 1.0}, valence=0.0, arousal=0.5)
    text = result({"joy": 1.0}, valence=0.5, arousal=0.3)
    with caplog.at_level(logging.WARNING, logger="affectfuse.fusion"):
        outcome = fuse(text, audio, 0.7, empty)
    assert outcome.mode == MODE_LINEAR_FALLBACK
    assert outcome.w_text == 0.7
    assert outcome.trace is None
    assert not caplog.records  # zero coverage is expected, not an engine fault


def test_engine_error_falls_back_with_one_warning(monkeypatch, caplog):
    def broken(*_args):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(fusion_mod, "infer_w_text", broken)
    audio = result({"neutral": 1.0}, valence=0.0, arousal=0.5)
    text = result({"joy": 1.0}, valence=0.5, arousal=0.3)
    with caplog.at_level(logging.WARNING, logger="affectfuse.fusion"):
        outcome = fuse(text, audio, 0.63, TRACE_BASE)
    assert outcome.mode == MODE_LINEAR_FALLBACK
    assert outcome.trace is None
    assert outcome.w_text == 0.63
    assert [record.levelno for record in caplog.records] == [logging.WARNING]


def test_reliable_text_overrides_misleading_audio():
    # text says sadness, audio says joy, confident transcript: text wins
    text = result({"sadness": 0.8, "neutral": 0.2}, valence=-0.2, arousal=0.2)
    audio = result({"joy": 0.7, "neutral": 0.3}, valence=0.2, arousal=0.919)
    outcome = fuse(text, audio, 0.85, DEFAULT_BASE)
    assert outcome.mode == MODE_FUZZY
    assert outcome.w_text > 0.5
    assert dominant_emotion(outcome.probs)[0] == "sadness"


def test_soft_gating_low_vs_high_confidence():
    text = result({"joy": 1.0}, valence=0.0, arousal=0.3)
    audio = result({"neutral": 1.0}, valence=0.0, arousal=0.9)
    low = fuse(text, audio, 0.3, DEFAULT_BASE)
    high = fuse(text, audio, 0.9, DEFAULT_BASE)
    assert low.w_text < high.w_text


def test_low_confidence_high_arousal_prioritizes_audio():
    from affectfuse.fuzzy import infer_w_text

    for conf in np.linspace(0.0, 0.59, 25):
        for arousal in (0.8, 0.9, 1.0):
            w = infer_w_text(DEFAULT_BASE, float(conf), arousal, 0.0).w_text
            assert w < 0.5
