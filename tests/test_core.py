from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from affectfuse.core import (
    LABELS,
    InvalidScore,
    VadState,
    canonical_label,
    dominant_emotion,
    is_valid_distribution,
    normalize_distribution,
    one_hot,
)


def test_normalize_symmetric_pair():
    dist = normalize_distribution({"joy": 2.0, "sadness": 2.0})
    assert dist["joy"] == 0.5 and dist["sadness"] == 0.5
    assert all(dist[l] == 0.0 for l in LABELS if l not in ("joy", "sadness"))


def test_normalize_all_zero_is_one_hot_neutral():
    assert normalize_distribution({l: 0.0 for l in LABELS}) == one_hot("neutral")
    assert normalize_distribution({}) == one_hot("neutral")


def test_normalize_direct_arithmetic():
    dist = normalize_distribution({"joy": 1.0, "anger": 3.0})
    assert dist["joy"] == pytest.approx(0.25)
    assert dist["anger"] == pytest.approx(0.75)


def test_negative_score_rejected():
    with pytest.raises(InvalidScore):
        normalize_distribution({"joy": -0.1})


def test_unknown_label_rejected():
    with pytest.raises(InvalidScore):
        normalize_distribution({"ennui": 1.0})


def test_spanish_aliases_accepted():
    assert canonical_label("alegría") == "joy"
    assert canonical_label("ASCO") == "disgust"
    dist = normalize_distribution({"tristeza": 1.0})
    assert dominant_emotion(dist) == ("sadness", 1.0)


def test_dominant_one_hot_identity():
    assert dominant_emotion(one_hot("neutral")) == ("neutral", 1.0)


def test_dominant_tie_breaks_canonically():
    assert dominant_emotion({"joy": 0.5, "sadness": 0.5}) == ("joy", 0.5)


def test_dominant_argmax():
    dist = {"anger": 0.4, "fear": 0.35, "neutral": 0.25}
    assert dominant_emotion(dist) == ("anger", 0.4)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
        min_size=6,
        max_size=6,
    )
)
def test_normalize_sums_to_one(scores):
    raw = dict(zip(LABELS, scores))
    dist = normalize_distribution(raw)
    assert is_valid_distribution(dist)


def test_normalize_extreme_magnitude_mix():
    dist = normalize_distribution({"joy": 1e-300, "fear": 1e300, "anger": 1e300})
    assert is_valid_distribution(dist)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_subnormal=False),
        min_size=6,
        max_size=6,
    ),
    st.floats(min_value=1e-6, max_value=1e6),
)
@example([0.0] * 6, 1.0)
# The product rounds fear and disgust (the next double) to one value, so
# the scaled argmax is fear while the raw one is disgust.
@example([1.0, 1.0, 1.0, 95.487312798412, 95.48731279841202, 1.0], 982785.4760376703)
def test_argmax_invariant_under_scaling(scores, scale):
    # Scaling can round distinct scores to one double or underflow them to 0,
    # so the argmax need not survive it. What holds for any scores is the
    # contract: neutral when no score is positive, else the first label in
    # LABELS order with the largest score.
    for values in (scores, [score * scale for score in scores]):
        raw = dict(zip(LABELS, values))
        expected = max(LABELS, key=raw.__getitem__) if any(values) else "neutral"
        assert dominant_emotion(normalize_distribution(raw))[0] == expected


def test_normalizing_keeps_the_raw_argmax_when_division_rounds_to_a_tie():
    # 99.99999999999999 / total rounds to 100.0 / total; fear is listed
    # before disgust, so without the nudge the smaller score would win.
    raw = dict(zip(LABELS, [39.70397140929505, 99.0078125, 99.00165366507173, 99.99999999999999, 100.0, 100.0]))
    dist = normalize_distribution(raw)
    assert is_valid_distribution(dist)
    assert dominant_emotion(dist)[0] == "disgust"
    assert dist["disgust"] > dist["fear"] and dist["disgust"] >= dist["neutral"]


def test_scores_that_underflow_to_zero_read_neutral():
    # 5e-324 * 0.5 rounds to 0: the scaled scores are all zero, which the
    # documented rule maps to one-hot neutral, so the argmax moves.
    raw = dict(zip(LABELS, [0.0, 0.0, 0.0, 0.0, 5e-324, 0.0]))
    assert dominant_emotion(normalize_distribution(raw)) == ("disgust", 1.0)
    scaled = {k: v * 0.5 for k, v in raw.items()}
    assert not any(scaled.values())
    assert normalize_distribution(scaled) == one_hot("neutral")


def test_vad_state_clamps():
    vad = VadState(valence=-2.0, arousal=1.5, dominance=-0.1)
    assert vad.valence == -1.0
    assert vad.arousal == 1.0
    assert vad.dominance == 0.0
