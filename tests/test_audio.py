from __future__ import annotations

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affectfuse.audio import (
    ArousalSmoother,
    AudioBuffer,
    EmptyAudio,
    NaNAudio,
    _HAMMING_WINDOW,
    _MEL_FILTERBANK,
    _pcm_to_float,
    audio_emotion,
    compute_snr_db,
    count_zero_crossings,
    derive_audio_vad,
    extract_acoustic_features,
    load_wav,
    mfcc_dct,
    mfcc_timbre_score,
    read_wav,
    resample_linear,
    va_prototype_distribution,
)
from affectfuse.core import dominant_emotion

from conftest import sine_buffer


def silence(n=16000):
    return AudioBuffer(samples=np.zeros(n))


def test_empty_buffer_rejected():
    with pytest.raises(EmptyAudio):
        AudioBuffer(samples=np.array([]))


@pytest.mark.parametrize("index", [0, 10, 999])
def test_nan_sample_rejected(index):
    samples = np.zeros(1000)
    samples[index] = np.nan
    with pytest.raises(NaNAudio, match="NaN"):
        AudioBuffer(samples=samples)
    assert issubclass(NaNAudio, ValueError)


def test_infinite_samples_clamp():
    buf = AudioBuffer(samples=np.array([np.inf, -np.inf, 0.5]))
    assert buf.samples.tolist() == [1.0, -1.0, 0.5]


def test_silence_features():
    feats = extract_acoustic_features(silence())
    assert feats.rms_norm == 0.0
    assert feats.zcr_raw == 0.0
    assert feats.zcr_norm == 0.0
    assert feats.snr_db == 0.0
    # silence has frames, but the timbre heuristic of a flat spectrum is tiny;
    # the all-zero degenerate case matters for the no-frame path instead
    short = AudioBuffer(samples=np.zeros(100))
    short_feats = extract_acoustic_features(short)
    assert short_feats.timbre_score == 0.5
    assert short_feats.mfcc_present is False


def test_alternating_signs_saturate_zcr():
    samples = np.tile([0.5, -0.5], 8000)
    feats = extract_acoustic_features(AudioBuffer(samples=samples))
    assert feats.zcr_raw == pytest.approx(1.0, abs=1e-3)
    assert feats.zcr_norm == 1.0


def test_sine_matches_analytic_values():
    # 440 Hz, amplitude 0.5, 1 s at 16 kHz: rms = A/sqrt(2), zcr = 2f/fs
    buf = sine_buffer(440.0, amplitude=0.5)
    feats = extract_acoustic_features(buf, use_mfcc=False)
    assert feats.rms == pytest.approx(0.5 / math.sqrt(2), rel=1e-3)
    assert feats.zcr_raw == pytest.approx(880.0 / 16000.0, rel=0.01)
    assert feats.zcr_norm == pytest.approx(0.55, rel=0.01)


@pytest.mark.parametrize("freq", [100, 137, 250, 440, 650, 880, 999])
def test_sine_family_within_one_percent(freq):
    amplitude = 0.4
    buf = sine_buffer(float(freq), amplitude=amplitude)
    feats = extract_acoustic_features(buf, use_mfcc=False)
    assert feats.rms == pytest.approx(amplitude / math.sqrt(2), rel=0.01)
    assert feats.zcr_raw == pytest.approx(2 * freq / 16000.0, rel=0.01)


def test_zero_samples_inherit_previous_sign():
    samples = np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0, 0.0, 1.0])
    # crossings: (1, -1) and (-1 via zero, 1) -> 2
    assert count_zero_crossings(samples) == 2


def test_snr_constant_tone_is_zero():
    buf = sine_buffer(440.0, amplitude=0.5)
    # every block has (nearly) equal energy; floor == mean within rounding
    assert compute_snr_db(buf, block_size=512) == pytest.approx(0.0, abs=0.2)


def test_snr_hand_computed_blocks():
    # 10 blocks of 512: one quiet at MSE 1e-6, nine at MSE 1e-2
    quiet = np.full(512, 1e-3)
    loud = np.full(512 * 9, 0.1)
    buf = AudioBuffer(samples=np.concatenate([quiet, loud]))
    expected = 10 * math.log10(((1e-6 + 9 * 1e-2) / 10) / 1e-6)
    assert expected == pytest.approx(39.5424, abs=0.001)
    assert compute_snr_db(buf, block_size=512) == pytest.approx(expected, abs=1e-9)


def test_snr_all_zero_buffer():
    assert compute_snr_db(silence(), block_size=512) == 0.0


def test_snr_short_buffer_single_block():
    buf = AudioBuffer(samples=np.full(100, 0.3))
    assert compute_snr_db(buf, block_size=512) == 0.0


def test_snr_clamped_to_80db():
    samples = np.concatenate([np.zeros(512), np.full(512 * 20, 0.9)])
    assert compute_snr_db(AudioBuffer(samples=samples), block_size=512) <= 80.0


def test_derive_saturates_arousal():
    feats = extract_acoustic_features(silence())
    feats = feats.__class__(
        rms=0.2, rms_norm=1.0, zcr_raw=0.1, zcr_norm=1.0, timbre_score=0.5,
        mfcc_present=False, snr_db=0.0, arousal_raw=1.0,
    )
    vad, _ = derive_audio_vad(feats, ArousalSmoother(alpha=1.0))
    assert vad.arousal == 1.0


def test_neutral_timbre_leaves_valence_unchanged():
    feats = extract_acoustic_features(silence())
    feats = feats.__class__(
        rms=0.1, rms_norm=0.5, zcr_raw=0.01, zcr_norm=0.1, timbre_score=0.5,
        mfcc_present=True, snr_db=10.0, arousal_raw=0.455,
    )
    vad, _ = derive_audio_vad(feats, ArousalSmoother(alpha=1.0), base_valence=0.2)
    assert vad.valence == pytest.approx(0.2)


def test_ema_hand_computed():
    feats = extract_acoustic_features(silence())
    feats = feats.__class__(
        rms=0.1, rms_norm=0.5, zcr_raw=0.0, zcr_norm=0.0, timbre_score=0.5,
        mfcc_present=False, snr_db=0.0, arousal_raw=0.45,
    )
    smoother = ArousalSmoother(alpha=0.3, previous_value=0.0)
    vad, updated = derive_audio_vad(feats, smoother)
    assert updated.arousal_smoothed == pytest.approx(0.135)
    assert vad.arousal == pytest.approx(0.135)


def test_ema_first_turn_equals_current():
    smoother = ArousalSmoother(alpha=0.3)
    assert smoother.update(0.7) == 0.7


def test_ema_converges_to_constant_input():
    smoother = ArousalSmoother(alpha=0.3, previous_value=0.0)
    value = 0.0
    for _ in range(60):
        value = smoother.update(0.8)
    assert value == pytest.approx(0.8, abs=1e-6)


def test_ema_decay_factor():
    alpha = 0.25
    smoother = ArousalSmoother(alpha=alpha, previous_value=0.0)
    errors = []
    for _ in range(5):
        errors.append(abs(smoother.update(1.0) - 1.0))
    for previous, current in zip(errors, errors[1:]):
        assert current == pytest.approx(previous * (1 - alpha), rel=1e-9)


@given(st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_zcr_invariant_under_amplitude_scaling(scale):
    rng = np.random.default_rng(7)
    samples = rng.normal(0, 0.2, 4000).clip(-1, 1)
    base = extract_acoustic_features(AudioBuffer(samples=samples), use_mfcc=False)
    scaled = extract_acoustic_features(AudioBuffer(samples=samples * scale), use_mfcc=False)
    assert base.zcr_raw == scaled.zcr_raw


def test_feature_bounds_on_random_buffers():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(64, 20000))
        samples = rng.normal(0, rng.uniform(0.01, 0.5), n).clip(-1, 1)
        feats = extract_acoustic_features(AudioBuffer(samples=samples))
        assert 0.0 <= feats.rms_norm <= 1.0
        assert 0.0 <= feats.zcr_norm <= 1.0
        assert 0.0 <= feats.arousal_raw <= 1.0
        assert 0.0 <= feats.snr_db <= 80.0
        assert 0.0 <= feats.timbre_score <= 1.0


def test_arousal_monotone_in_rms_norm():
    # fixed zcr and timbre: arousal = min(1, rms_norm * factor) is monotone
    for zcr_norm in (0.0, 0.5, 1.0):
        values = [min(1.0, r * (0.9 + 0.1 * zcr_norm)) for r in np.linspace(0, 1, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_silence_maps_to_neutral():
    result = audio_emotion(silence(), ArousalSmoother())
    assert dominant_emotion(result.probs)[0] == "neutral"
    assert result.vad.valence == 0.0
    assert result.vad.arousal == 0.0
    assert result.vad.dominance == 0.5
    assert result.confidence == pytest.approx(0.5)


def test_prototype_map_high_arousal_negative_valence_is_anger():
    probs = va_prototype_distribution(-0.6, 0.9)
    assert dominant_emotion(probs)[0] == "anger"


def test_prototype_map_high_arousal_positive_valence_is_joy():
    probs = va_prototype_distribution(0.8, 0.9)
    assert dominant_emotion(probs)[0] == "joy"


def test_audio_emotion_metadata_complete():
    result = audio_emotion(sine_buffer(300.0, 0.3), ArousalSmoother())
    for key in ("arousal_raw", "zcr_raw", "zcr_norm", "timbre_score",
                "mfcc_present", "arousal_smoothed", "snr_db", "rms", "rms_norm"):
        assert key in result.metadata


def test_load_wav_resamples_and_downmixes(tmp_path):
    import wave

    t = np.arange(8000) / 8000.0
    left = 0.5 * np.sin(2 * np.pi * 220 * t)
    right = -0.5 * np.sin(2 * np.pi * 220 * t)
    stereo = np.stack([left, right], axis=1)
    pcm = np.round(stereo * 32767).astype("<i2")
    path = tmp_path / "stereo8k.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(2)
        handle.setsampwidth(2)
        handle.setframerate(8000)
        handle.writeframes(pcm.tobytes())
    buf = load_wav(str(path))
    assert len(buf) == pytest.approx(16000, abs=2)
    # opposite-phase channels cancel on downmix
    assert float(np.abs(buf.samples).max()) < 1e-3


def test_load_wav_float32(tmp_path):
    from scipy.io import wavfile

    t = np.arange(16000) / 16000.0
    samples = (0.25 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
    path = tmp_path / "float.wav"
    wavfile.write(str(path), 16000, samples)
    buf = load_wav(str(path))
    assert extract_acoustic_features(buf, use_mfcc=False).rms == pytest.approx(
        0.25 / math.sqrt(2), rel=1e-3
    )


def test_load_wav_24bit(tmp_path):
    import struct

    rate = 16000
    t = np.arange(rate) / rate
    samples = 0.25 * np.sin(2 * np.pi * 440 * t)
    ints = np.round(samples * (2**23 - 1)).astype(np.int64)
    frames = b"".join(struct.pack("<i", v << 8)[1:] for v in ints)
    header = b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24)
    header += b"data" + struct.pack("<I", len(frames))
    path = tmp_path / "s24.wav"
    path.write_bytes(header + frames)
    buf = load_wav(str(path))
    assert extract_acoustic_features(buf, use_mfcc=False).rms == pytest.approx(
        0.25 / math.sqrt(2), rel=1e-2
    )


def test_load_wav_8bit(tmp_path):
    from scipy.io import wavfile

    t = np.arange(16000) / 16000.0
    samples = 0.25 * np.sin(2 * np.pi * 440 * t)
    pcm = np.round(samples * 127 + 128).astype(np.uint8)
    path = tmp_path / "u8.wav"
    wavfile.write(str(path), 16000, pcm)
    buf = load_wav(str(path))
    assert extract_acoustic_features(buf, use_mfcc=False).rms == pytest.approx(
        0.25 / math.sqrt(2), rel=0.02
    )


def test_resample_linear_preserves_duration():
    samples = np.sin(np.linspace(0, 20, 8000))
    out = resample_linear(samples, 8000, 16000)
    assert out.size == 16000


# --- golden features and oracles ---------------------------------------------


def _golden_buffers():
    """Named (buffer, snr_block_size) cases covering every feature branch."""
    rng = np.random.default_rng(11)
    tone = 0.3 * np.sin(2 * np.pi * 440 * np.arange(160000) / 16000.0)
    tone += rng.normal(0, 0.01, tone.size)
    noise = np.random.default_rng(2024).normal(0.0, 0.05, 5000)
    zero_runs = noise[:3000].copy()
    zero_runs[:137] = 0.0
    zero_runs[800:1100] = -0.0
    zero_runs[1500:1520] = 0.0
    zero_runs[1520:1530] = -0.0
    return {
        "tone_seed11": (tone, 512),
        "all_zero": (np.zeros(16000), 512),
        "shorter_than_block": (noise[:450], 512),
        "remainder_below_half": (noise[: 7 * 512 + 255], 512),
        "remainder_at_half": (noise[: 7 * 512 + 256], 512),
        "zero_runs": (zero_runs, 512),
        "block_size_1": (noise[:2000], 1),
    }


#: float.hex of every AcousticFeatures field. The fields go into the audit
#: event, so any change to these bits changes event bytes and txids.
GOLDEN_FEATURES = {
    "all_zero": {
        "rms": "0x0.0p+0",
        "rms_norm": "0x0.0p+0",
        "zcr_raw": "0x0.0p+0",
        "zcr_norm": "0x0.0p+0",
        "timbre_score": "0x1.0000000000000p-1",
        "mfcc_present": False,
        "snr_db": "0x0.0p+0",
        "arousal_raw": "0x0.0p+0",
        "arousal_smoothed": None,
    },
    "block_size_1": {
        "rms": "0x1.9d43ade210b68p-5",
        "rms_norm": "0x1.18c0108fd67bfp-2",
        "zcr_raw": "0x1.024dd2f1a9fbep-1",
        "zcr_norm": "0x1.0000000000000p+0",
        "timbre_score": "0x1.37cfbece1d662p-5",
        "mfcc_present": True,
        "snr_db": "0x1.16f9e8648acbdp+4",
        "arousal_raw": "0x1.18c0108fd67bfp-2",
        "arousal_smoothed": None,
    },
    "remainder_at_half": {
        "rms": "0x1.9646fbde06e71p-5",
        "rms_norm": "0x1.1400eb1b01e81p-2",
        "zcr_raw": "0x1.02aaaaaaaaaabp-1",
        "zcr_norm": "0x1.0000000000000p+0",
        "timbre_score": "0x1.393386f068092p-5",
        "mfcc_present": True,
        "snr_db": "0x1.71b5ebcce1ae0p+1",
        "arousal_raw": "0x1.1400eb1b01e81p-2",
        "arousal_smoothed": None,
    },
    "remainder_below_half": {
        "rms": "0x1.9642b6b65574cp-5",
        "rms_norm": "0x1.13fe047915e16p-2",
        "zcr_raw": "0x1.02bbea64f5aa0p-1",
        "zcr_norm": "0x1.0000000000000p+0",
        "timbre_score": "0x1.393386f068092p-5",
        "mfcc_present": True,
        "snr_db": "0x1.cb6b208cf4e48p-1",
        "arousal_raw": "0x1.13fe047915e16p-2",
        "arousal_smoothed": None,
    },
    "shorter_than_block": {
        "rms": "0x1.951519f46c003p-5",
        "rms_norm": "0x1.13311e2770539p-2",
        "zcr_raw": "0x1.e4b17e4b17e4bp-2",
        "zcr_norm": "0x1.0000000000000p+0",
        "timbre_score": "0x1.29a376118fdfdp-5",
        "mfcc_present": True,
        "snr_db": "0x0.0p+0",
        "arousal_raw": "0x1.13311e2770539p-2",
        "arousal_smoothed": None,
    },
    "tone_seed11": {
        "rms": "0x1.b2f892db2191ep-3",
        "rms_norm": "0x1.0000000000000p+0",
        "zcr_raw": "0x1.c28240b780347p-5",
        "zcr_norm": "0x1.19916872b020cp-1",
        "timbre_score": "0x1.347aff05cd6cap-3",
        "mfcc_present": True,
        "snr_db": "0x1.ab75fb66301c0p-6",
        "arousal_raw": "0x1.e8f4f0d844d01p-1",
        "arousal_smoothed": None,
    },
    "zero_runs": {
        "rms": "0x1.742057c05934fp-5",
        "rms_norm": "0x1.f99b3f93418d7p-3",
        "zcr_raw": "0x1.bc6a7ef9db22dp-2",
        "zcr_norm": "0x1.0000000000000p+0",
        "timbre_score": "0x1.5187eb9d935b8p-5",
        "mfcc_present": True,
        "snr_db": "0x1.3c49ad3ff0c42p+0",
        "arousal_raw": "0x1.f99b3f93418d7p-3",
        "arousal_smoothed": None,
    },
}


@pytest.mark.parametrize("name", sorted(_golden_buffers()))
def test_golden_features_bit_identical(name):
    samples, block = _golden_buffers()[name]
    feats = extract_acoustic_features(AudioBuffer(samples=samples), snr_block_size=block)
    got = {
        key: value if isinstance(value, bool) or value is None else float(value).hex()
        for key, value in feats.as_metadata().items()
    }
    assert got == GOLDEN_FEATURES[name]


def _zcr_oracle(samples):
    # straight-line loop of acceptance 04: zeros inherit the previous sign
    effective, prev = [], 0.0
    for x in samples:
        prev = 1.0 if x > 0 else (-1.0 if x < 0 else prev)
        effective.append(prev)
    return sum(1 for a, b in zip(effective, effective[1:]) if a * b < 0)


def _snr_oracle(samples, block_size):
    n = samples.size
    if n < block_size:
        blocks = [samples]
    else:
        full = n // block_size
        blocks = [samples[i * block_size:(i + 1) * block_size] for i in range(full)]
        if n - full * block_size >= block_size / 2:
            tail = np.zeros(block_size)
            tail[: n - full * block_size] = samples[full * block_size:]
            blocks.append(tail)
    energies = np.array([float(np.mean(b * b)) for b in blocks])
    mean_energy = float(energies.mean())
    if mean_energy == 0.0:
        return 0.0
    floor = float(np.sort(energies)[max(0, math.ceil(0.10 * energies.size) - 1)])
    return min(80.0, max(0.0, 10.0 * math.log10(mean_energy / max(floor, 1e-12))))


_sample_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)


@given(st.lists(_sample_values, min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def test_zero_crossings_match_loop_oracle(values):
    assert count_zero_crossings(np.array(values)) == _zcr_oracle(values)


@given(
    st.lists(_sample_values, min_size=1, max_size=3000),
    st.sampled_from([1, 2, 7, 64, 256, 512, 1000]),
)
@settings(max_examples=200, deadline=None)
def test_snr_matches_per_block_oracle(values, block_size):
    buf = AudioBuffer(samples=np.array(values))
    assert compute_snr_db(buf, block_size) == _snr_oracle(buf.samples, block_size)


# Pre-change per-turn expressions, kept as straight-line oracles for the
# features' fewer-pass forms.
def _zcr_formula(samples):
    negative = np.signbit(samples[samples != 0.0])
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def _snr_formula(samples, block_size):
    n = samples.size
    if n < block_size:
        blocks = samples.reshape(1, n)
    else:
        full, remainder = divmod(n, block_size)
        if remainder >= block_size / 2:
            full += 1
            samples = np.concatenate([samples, np.zeros(full * block_size - n)])
        blocks = samples[: full * block_size].reshape(full, block_size)
    energies = np.mean(blocks * blocks, axis=1)
    mean_energy = float(energies.mean())
    if mean_energy == 0.0:
        return 0.0
    rank = max(0, math.ceil(0.10 * energies.size) - 1)
    noise_floor = float(np.sort(energies)[rank])
    ratio = mean_energy / max(noise_floor, 1e-12)
    return min(80.0, max(0.0, 10.0 * math.log10(ratio)))


@st.composite
def _feature_buffers(draw):
    """Lengths around the MFCC frame, the SNR block and its half-block
    boundary, with runs of +0.0 and -0.0 and all-zero buffers."""
    block = draw(st.sampled_from([2, 7, 64, 400, 512]))
    k = draw(st.integers(0, 6))
    n = draw(st.one_of(
        st.sampled_from([1, 399, 400, 401, block - 1, block, block + 1]),
        st.builds(lambda d: k * block + block // 2 + d, st.sampled_from([-1, 0])),
    ))
    n = max(1, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0]))
    zeros = draw(st.sampled_from(["none", "positive", "negative", "mixed", "all"]))
    if zeros == "all":
        samples[:] = draw(st.sampled_from([0.0, -0.0]))
    elif zeros != "none":
        for _ in range(draw(st.integers(1, 4))):
            start = int(rng.integers(0, n))
            stop = min(n, start + int(rng.integers(1, 64)))
            sign = {"positive": 0.0, "negative": -0.0}.get(zeros, float(rng.choice([0.0, -0.0])))
            samples[start:stop] = sign
    return AudioBuffer(samples=samples), block, draw(st.booleans())


@given(_feature_buffers())
@settings(max_examples=300, deadline=None)
def test_features_match_pre_change_formulas_bit_for_bit(case):
    buf, block, use_mfcc = case
    samples = buf.samples
    got = extract_acoustic_features(buf, use_mfcc=use_mfcc, snr_block_size=block)
    rms = float(np.sqrt(np.mean(samples * samples)))
    rms_norm = min(1.0, rms / (0.2 * 0.92))
    zcr_raw = _zcr_formula(samples) / samples.size
    zcr_norm = min(1.0, 10.0 * zcr_raw)
    timbre = mfcc_timbre_score(samples) if use_mfcc else None
    want = {
        "rms": rms,
        "rms_norm": rms_norm,
        "zcr_raw": zcr_raw,
        "zcr_norm": zcr_norm,
        "timbre_score": 0.5 if timbre is None else timbre,
        "mfcc_present": timbre is not None,
        "snr_db": _snr_formula(samples, block),
        "arousal_raw": min(1.0, rms_norm * (0.9 + 0.1 * zcr_norm)),
        "arousal_smoothed": None,
    }
    assert count_zero_crossings(samples) == _zcr_formula(samples)
    assert set(got.as_metadata()) == set(want)
    for name, value in want.items():
        actual = getattr(got, name)
        if isinstance(value, float):
            assert actual.hex() == value.hex(), name
        else:
            assert actual == value, name


def test_pcm_conversion_is_the_exact_quotient():
    every_u8 = np.arange(256, dtype=np.uint8)
    every_s16 = np.arange(-(2**15), 2**15, dtype=np.int32).astype(np.int16)
    some_s32 = np.random.default_rng(16).integers(-(2**31), 2**31, 100_000, dtype=np.int64).astype(np.int32)
    some_s32[:2] = (-(2**31), 2**31 - 1)
    cases = [
        (every_u8, (every_u8.astype(np.float64) - 128.0) / 128.0),
        (every_s16, every_s16.astype(np.float64) / 32768.0),
        (some_s32, some_s32.astype(np.float64) / 2147483648.0),
        (every_s16.reshape(-1, 2), every_s16.reshape(-1, 2).astype(np.float64) / 32768.0),
    ]
    for data, want in cases:
        got = _pcm_to_float(data)
        assert got.dtype == np.float64 and got.shape == data.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cached_tables_are_read_only():
    assert _HAMMING_WINDOW.shape == (400,) and _MEL_FILTERBANK.shape == (26, 257)
    with pytest.raises(ValueError):
        _HAMMING_WINDOW[0] = 1.0
    with pytest.raises(ValueError):
        _MEL_FILTERBANK[0, 0] = 1.0


# --- DCT against scipy --------------------------------------------------------


def _assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_mfcc_dct_matches_scipy_on_random_rows():
    from scipy.fft import dct

    rng = np.random.default_rng(26)
    rows = rng.standard_normal((50_000, 26)) * 10.0 ** rng.uniform(-6, 6, size=(50_000, 1))
    got = mfcc_dct(rows)
    assert got.flags.c_contiguous
    _assert_bits_equal(got, dct(rows, type=2, axis=1, norm="ortho")[:, 1:13])


@pytest.mark.parametrize("name", sorted(_golden_buffers()))
def test_mfcc_dct_matches_scipy_on_golden_log_mel(name):
    from scipy.fft import dct

    samples = AudioBuffer(samples=_golden_buffers()[name][0]).samples
    frames = np.lib.stride_tricks.sliding_window_view(samples, 400)[::160]
    power = np.abs(np.fft.rfft(frames * _HAMMING_WINDOW, n=512)) ** 2
    log_mel = np.log(np.maximum(power @ _MEL_FILTERBANK.T, 1e-12))
    got = mfcc_dct(log_mel)
    assert got.flags.c_contiguous
    _assert_bits_equal(got, dct(log_mel, type=2, axis=1, norm="ortho")[:, 1:13])


def test_mfcc_dct_rejects_other_band_counts():
    with pytest.raises(ValueError):
        mfcc_dct(np.zeros((4, 13)))


# --- WAV reader against scipy -------------------------------------------------

_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

#: name -> (format tag, bits per sample, container bytes)
_WAV_FORMATS = {
    "u8": (_PCM, 8, 1),
    "s16": (_PCM, 16, 2),
    "s24": (_PCM, 24, 3),
    "s32": (_PCM, 32, 4),
    "f32": (_FLOAT, 32, 4),
    "f64": (_FLOAT, 64, 8),
}


def _fmt_chunk(tag, channels, rate, bits, container, extensible=False):
    block_align = channels * container
    fields = [channels, rate, rate * block_align, block_align, bits]
    if not extensible:
        return b"fmt " + struct.pack("<IHHIIHH", 16, tag, *fields)
    ext = struct.pack("<HHI", 22, bits, 0) + struct.pack("<I", tag) + _GUID_TAIL
    return b"fmt " + struct.pack("<IHHIIHH", 40, _EXTENSIBLE, *fields) + ext


def _wav_bytes(fmt, payload, chunks=b"", data_size=None, magic=b"RIFF"):
    size = len(payload) if data_size is None else data_size
    body = b"WAVE" + fmt + chunks + b"data" + struct.pack("<I", size) + payload
    return magic + struct.pack("<I", len(body)) + body


def _payload(name, values):
    """Raw little-endian sample bytes for (frames, channels) values in [-1, 1)."""
    if name == "u8":
        return np.round(values * 127 + 128).astype(np.uint8).tobytes()
    if name == "s24":
        ints = np.round(values * (2**23 - 1)).astype("<i4").reshape(-1)
        return ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    dtype = {"s16": "<i2", "s32": "<i4", "f32": "<f4", "f64": "<f8"}[name]
    if name.startswith("f"):
        return values.astype(dtype).tobytes()
    return np.round(values * (np.iinfo(dtype).max)).astype(dtype).tobytes()


def _check_against_scipy(path):
    from scipy.io import wavfile

    rate, data = read_wav(str(path))
    want_rate, want = wavfile.read(str(path))
    assert rate == want_rate
    assert data.dtype == want.dtype
    assert data.shape == want.shape
    np.testing.assert_array_equal(data, want)
    return data


@pytest.mark.parametrize("extensible", [False, True])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("name", sorted(_WAV_FORMATS))
def test_read_wav_matches_scipy(tmp_path, name, channels, extensible):
    tag, bits, container = _WAV_FORMATS[name]
    values = np.random.default_rng(container).uniform(-1, 1, (1000, channels))
    path = tmp_path / f"{name}.wav"
    fmt = _fmt_chunk(tag, channels, 22050, bits, container, extensible)
    path.write_bytes(_wav_bytes(fmt, _payload(name, values)))
    data = _check_against_scipy(path)
    assert data.shape == ((1000,) if channels == 1 else (1000, channels))


def test_read_wav_skips_odd_list_chunk(tmp_path):
    values = np.random.default_rng(3).uniform(-1, 1, (500, 2))
    fmt = _fmt_chunk(_PCM, 2, 16000, 16, 2)
    chunk = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # pad byte after odd size
    path = tmp_path / "list.wav"
    path.write_bytes(_wav_bytes(fmt, _payload("s16", values), chunks=chunk))
    assert _check_against_scipy(path).shape == (500, 2)


@pytest.mark.parametrize("name,cut", [("s16", 301), ("s24", 6), ("f32", 5)])
def test_read_wav_truncated_data_chunk(tmp_path, name, cut):
    tag, bits, container = _WAV_FORMATS[name]
    values = np.random.default_rng(5).uniform(-1, 1, (400, 1))
    payload = _payload(name, values)
    path = tmp_path / "cut.wav"
    fmt = _fmt_chunk(tag, 1, 16000, bits, container)
    path.write_bytes(_wav_bytes(fmt, payload[:-cut], data_size=len(payload)))
    data = _check_against_scipy(path)
    assert data.size == (len(payload) - cut) // container


def test_read_wav_truncated_stereo_keeps_whole_frames(tmp_path):
    values = np.random.default_rng(6).uniform(-1, 1, (100, 2))
    payload = _payload("s16", values)
    path = tmp_path / "cut.wav"
    fmt = _fmt_chunk(_PCM, 2, 16000, 16, 2)
    path.write_bytes(_wav_bytes(fmt, payload[:-2], data_size=len(payload)))
    rate, data = read_wav(str(path))
    assert data.shape == (99, 2)
    np.testing.assert_array_equal(data, np.frombuffer(payload, "<i2").reshape(-1, 2)[:99])


def _bad_wav_files():
    s16 = _fmt_chunk(_PCM, 1, 16000, 16, 2)
    payload = b"\x00\x01" * 100
    return {
        "not_riff": b"OggS" + b"\x00" * 60,
        "no_data_chunk": b"RIFF" + struct.pack("<I", 4 + len(s16)) + b"WAVE" + s16,
        "rifx": _wav_bytes(s16, payload, magic=b"RIFX"),
        "pcm_64_bit": _wav_bytes(_fmt_chunk(_PCM, 1, 16000, 64, 8), payload),
        "float_16_bit": _wav_bytes(_fmt_chunk(_FLOAT, 1, 16000, 16, 2), payload),
        "sample_rate_0": _wav_bytes(_fmt_chunk(_PCM, 1, 0, 16, 2), payload),
    }


@pytest.mark.parametrize("case", sorted(_bad_wav_files()))
def test_read_wav_refuses(tmp_path, case):
    path = tmp_path / f"{case}.wav"
    path.write_bytes(_bad_wav_files()[case])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_wav(str(path))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_wav(str(path))
