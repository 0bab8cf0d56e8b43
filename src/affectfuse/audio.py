"""Acoustic features and the heuristic audio emotion backend.

Input is 16 kHz mono audio in [-1, 1]. Energy (RMS) drives arousal, the
zero-crossing rate refines it, an optional MFCC timbre score nudges valence
and arousal, and a block-energy SNR estimate feeds downstream confidence
gating:

    rms_norm         = min(1, rms / (norm_factor * 0.92))
    zcr_norm         = min(1, 10 * zcr_raw)
    arousal_combined = min(1, rms_norm * (0.9 + 0.1 * zcr_norm))
    arousal_smoothed = alpha * current + (1 - alpha) * previous
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.fft import dct
from scipy.io import wavfile

from .core import EmotionResult, VadState, clamp

TARGET_SAMPLE_RATE = 16000

#: (valence, arousal) prototypes used to map an audio VAD estimate onto the
#: discrete ontology. Standard circumplex placement; probability is a softmax
#: of negative squared Euclidean distance with temperature PROTOTYPE_TAU.
VA_PROTOTYPES: Dict[str, Tuple[float, float]] = {
    "joy": (0.8, 0.7),
    "sadness": (-0.7, 0.25),
    "anger": (-0.7, 0.8),
    "fear": (-0.6, 0.7),
    "disgust": (-0.6, 0.45),
    "neutral": (0.0, 0.3),
}
PROTOTYPE_TAU = 0.15

DEFAULT_NORM_FACTOR = 0.2
DEFAULT_ALPHA = 0.3
DEFAULT_SNR_BLOCK = 512

# MFCC timbre parameters: 25 ms frames, 10 ms hop, 26 mel filters, 13 coeffs.
_FRAME_SECONDS = 0.025
_HOP_SECONDS = 0.010
_N_FILTERS = 26
_N_MFCC = 13
_TIMBRE_SCALE = 20.0


class EmptyAudio(ValueError):
    """Raised when an audio buffer contains no samples."""


class NaNAudio(ValueError):
    """Raised when an audio buffer contains a NaN sample."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio at 16 kHz with samples clamped to [-1, 1]; NaN is rejected."""

    samples: np.ndarray
    sample_rate: int = TARGET_SAMPLE_RATE

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise EmptyAudio("audio buffer must be a non-empty 1-D array")
        samples = np.clip(samples, -1.0, 1.0)
        if math.isnan(samples.min()):  # min propagates NaN
            raise NaNAudio("audio buffer contains NaN samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size / float(self.sample_rate)


@dataclass(frozen=True)
class AcousticFeatures:
    rms: float
    rms_norm: float
    zcr_raw: float
    zcr_norm: float
    timbre_score: float
    mfcc_present: bool
    snr_db: float
    arousal_raw: float
    arousal_smoothed: Optional[float] = None

    def as_metadata(self) -> Dict[str, object]:
        return {
            "rms": self.rms,
            "rms_norm": self.rms_norm,
            "zcr_raw": self.zcr_raw,
            "zcr_norm": self.zcr_norm,
            "timbre_score": self.timbre_score,
            "mfcc_present": self.mfcc_present,
            "snr_db": self.snr_db,
            "arousal_raw": self.arousal_raw,
            "arousal_smoothed": self.arousal_smoothed,
        }


@dataclass
class ArousalSmoother:
    """Exponential moving average over per-turn arousal.

    Session-scoped mutable state; access one instance serially per session.
    On the first turn the smoothed value equals the current one.
    """

    alpha: float = DEFAULT_ALPHA
    previous_value: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    def update(self, current: float) -> float:
        if self.previous_value is None:
            smoothed = float(current)
        else:
            smoothed = self.alpha * float(current) + (1.0 - self.alpha) * self.previous_value
        self.previous_value = smoothed
        return smoothed


def count_zero_crossings(samples: np.ndarray) -> int:
    """Count sample pairs with strictly opposite sign.

    Zero-valued samples (either sign of zero) inherit the previous sign, so
    this counts sign changes among the non-zero samples only; zero runs
    produce no spurious crossings and an all-zero buffer counts 0.
    """
    negative = np.signbit(samples[samples != 0.0])
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def compute_snr_db(buffer: AudioBuffer, block_size: int = DEFAULT_SNR_BLOCK) -> float:
    """Estimate SNR in dB from block energies.

    The buffer is split into consecutive blocks of ``block_size`` samples; a
    trailing remainder shorter than half a block is dropped, otherwise it is
    zero-padded to a full block. The noise floor is the nearest-rank 10th
    percentile of per-block mean-squared energy; the result is
    10*log10(mean / max(floor, 1e-12)) clamped to [0, 80] dB. A buffer shorter
    than one block is treated as a single block (which yields 0.0).
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    samples = buffer.samples
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
    return clamp(10.0 * math.log10(ratio), 0.0, 80.0)


def _mel(freq_hz: np.ndarray) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + freq_hz / 700.0)


def _mel_inv(mels: np.ndarray) -> np.ndarray:
    return 700.0 * (10.0 ** (mels / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _hamming_window(frame: int) -> np.ndarray:
    window = np.hamming(frame)
    window.setflags(write=False)
    return window


@lru_cache(maxsize=8)
def _mel_filterbank(n_filters: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters; cached per shape and rate, and read-only."""
    points = _mel_inv(np.linspace(0.0, _mel(np.array(sample_rate / 2.0)), n_filters + 2))
    bins = np.floor((n_fft + 1) * points / sample_rate).astype(int)
    bank = np.zeros((n_filters, n_fft // 2 + 1))
    for i in range(n_filters):
        left, center, right = bins[i], bins[i + 1], bins[i + 2]
        if center > left:
            bank[i, left:center] = (np.arange(left, center) - left) / (center - left)
        if right > center:
            bank[i, center:right] = (right - np.arange(center, right)) / (right - center)
    bank.setflags(write=False)
    return bank


def mfcc_timbre_score(samples: np.ndarray, sample_rate: int) -> Optional[float]:
    """Timbre score in [0, 1] from frame-averaged MFCC magnitudes.

    Mean absolute value of coefficients 2..13 (13 computed, 26-filter mel
    bank, 25 ms frames, 10 ms hop), mapped through min(1, value / 20).
    Returns None when no full frame fits or the buffer carries no energy
    (timbre is undefined for silence).
    """
    frame = int(round(_FRAME_SECONDS * sample_rate))
    hop = int(round(_HOP_SECONDS * sample_rate))
    if samples.size < frame or not np.any(samples):
        return None
    windows = np.lib.stride_tricks.sliding_window_view(samples, frame)[::hop]
    n_fft = 1 << (frame - 1).bit_length()
    spectra = np.abs(np.fft.rfft(windows * _hamming_window(frame), n=n_fft)) ** 2
    bank = _mel_filterbank(_N_FILTERS, n_fft, sample_rate)
    log_energy = np.log(np.maximum(spectra @ bank.T, 1e-12))
    coeffs = dct(log_energy, type=2, axis=1, norm="ortho")[:, :_N_MFCC]
    magnitude = float(np.mean(np.abs(coeffs[:, 1:])))
    return min(1.0, magnitude / _TIMBRE_SCALE)


def extract_acoustic_features(
    buffer: AudioBuffer,
    norm_factor: float = DEFAULT_NORM_FACTOR,
    use_mfcc: bool = True,
    snr_block_size: int = DEFAULT_SNR_BLOCK,
) -> AcousticFeatures:
    """Compute per-turn acoustic features (smoothing not yet applied).

    When MFCCs are disabled or no frame fits, timbre_score is exactly 0.5 so
    both timbre adjustment terms vanish downstream.
    """
    samples = buffer.samples
    rms = float(np.sqrt(np.mean(samples * samples)))
    rms_norm = min(1.0, rms / (norm_factor * 0.92))
    zcr_raw = count_zero_crossings(samples) / samples.size
    zcr_norm = min(1.0, 10.0 * zcr_raw)
    snr_db = compute_snr_db(buffer, snr_block_size)
    timbre = mfcc_timbre_score(samples, buffer.sample_rate) if use_mfcc else None
    mfcc_present = timbre is not None
    return AcousticFeatures(
        rms=rms,
        rms_norm=rms_norm,
        zcr_raw=zcr_raw,
        zcr_norm=zcr_norm,
        timbre_score=timbre if mfcc_present else 0.5,
        mfcc_present=mfcc_present,
        snr_db=snr_db,
        arousal_raw=min(1.0, rms_norm * (0.9 + 0.1 * zcr_norm)),
    )


def derive_audio_vad(
    features: AcousticFeatures,
    smoother: ArousalSmoother,
    base_valence: float = 0.0,
) -> Tuple[VadState, AcousticFeatures]:
    """Combine features into a VAD estimate, smoothing arousal across turns.

    Returns the VAD state (arousal already smoothed, dominance fixed at 0.5)
    and a copy of the features with arousal_smoothed filled in. The smoother
    is updated in place.
    """
    arousal = features.arousal_raw
    valence = base_valence
    if features.mfcc_present:
        valence = clamp(valence + (features.timbre_score - 0.5) * 0.2, -1.0, 1.0)
        arousal = min(1.0, arousal + features.timbre_score * 0.05)
    smoothed = smoother.update(arousal)
    vad = VadState(valence=valence, arousal=smoothed, dominance=0.5)
    return vad, replace(features, arousal_smoothed=smoothed)


def va_prototype_distribution(valence: float, arousal: float) -> Dict[str, float]:
    """Softmax over negative squared distance to the (valence, arousal) prototypes."""
    weights = {}
    for label, (pv, pa) in VA_PROTOTYPES.items():
        d2 = (valence - pv) ** 2 + (arousal - pa) ** 2
        weights[label] = math.exp(-d2 / PROTOTYPE_TAU)
    total = sum(weights.values())
    return {label: weights[label] / total for label in VA_PROTOTYPES}


def audio_emotion(
    buffer: AudioBuffer,
    smoother: ArousalSmoother,
    norm_factor: float = DEFAULT_NORM_FACTOR,
    use_mfcc: bool = True,
    snr_block_size: int = DEFAULT_SNR_BLOCK,
    base_valence: float = 0.0,
) -> EmotionResult:
    """Full audio backend: features -> VAD -> prototype distribution.

    Confidence scales with signal quality: 0.5 + 0.5 * min(1, snr_db / 30).
    All feature fields are exposed in the result metadata.
    """
    features = extract_acoustic_features(buffer, norm_factor, use_mfcc, snr_block_size)
    vad, features = derive_audio_vad(features, smoother, base_valence)
    probs = va_prototype_distribution(vad.valence, vad.arousal)
    confidence = 0.5 + 0.5 * min(1.0, features.snr_db / 30.0)
    return EmotionResult(
        probs=probs,
        vad=vad,
        confidence=confidence,
        metadata=features.as_metadata(),
    )


def _pcm_to_float(data: np.ndarray) -> np.ndarray:
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    if data.dtype == np.int32:
        return data.astype(np.float64) / 2147483648.0
    if data.dtype in (np.float32, np.float64):
        return data.astype(np.float64)
    raise ValueError(f"unsupported WAV sample format: {data.dtype}")


def resample_linear(samples: np.ndarray, rate: int, target_rate: int) -> np.ndarray:
    """Resample by linear interpolation onto the target rate's sample grid."""
    if rate == target_rate:
        return samples
    duration = samples.size / rate
    n_out = max(1, int(round(duration * target_rate)))
    src_t = np.arange(samples.size) / rate
    dst_t = np.arange(n_out) / target_rate
    return np.interp(dst_t, src_t, samples)


def load_wav(path: str) -> AudioBuffer:
    """Read a WAV file (8/16/24/32-bit PCM or 32-bit float) as a 16 kHz buffer.

    Multi-channel audio is downmixed by arithmetic mean; other sample rates
    are resampled by linear interpolation; samples are clamped to [-1, 1]
    and a NaN sample raises NaNAudio.
    """
    rate, data = wavfile.read(path)
    if data.size == 0:
        raise EmptyAudio(f"no samples in {path}")
    samples = _pcm_to_float(data)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    samples = resample_linear(samples, int(rate), TARGET_SAMPLE_RATE)
    return AudioBuffer(samples=samples, sample_rate=TARGET_SAMPLE_RATE)
