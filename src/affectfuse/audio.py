"""Acoustic features and the heuristic audio emotion backend.

Input is 16 kHz mono audio in [-1, 1]: ``load_wav`` resamples every file to
16 kHz, so the rate is fixed at the file boundary and the MFCC frame, window
and mel filterbank are constants. Energy (RMS) drives arousal, the
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
import struct
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .config import DEFAULT_ALPHA, DEFAULT_NORM_FACTOR
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

# MFCC timbre parameters at 16 kHz: 25 ms frames of 400 samples, a 10 ms hop
# of 160, a 512-point FFT, 26 mel filters, 13 coeffs.
_FRAME = 400
_HOP = 160
_N_FFT = 512
_N_FILTERS = 26
_TIMBRE_SCALE = 20.0
# Frames per FFT block: the windowed frames pass through one reused buffer.
_FFT_BLOCK_FRAMES = 64

# pocketfft's DCT-II twiddles for n = 26, w[i] = cos(2*pi*(i + 1) / 104), as
# pocketfft computes them: w[9], w[12] and w[19..24] sit 1-2 ulps off the
# correctly rounded cosine, so np.cos would not do. Pinned so `mfcc_dct`
# reproduces scipy.fft.dct bit for bit; each entry used by coefficients 1..12
# was the only match within 8 ulps in a search against scipy. w[12] only
# feeds coefficient 13, which is not computed.
_DCT_TWIDDLES = np.array([float.fromhex(h) for h in (
    "0x1.ff10ddc21c94ep-1", "0x1.fc44566966769p-1", "0x1.f79d074810a9cp-1",
    "0x1.f11f493053d00p-1", "0x1.e8d12c64ed0c6p-1", "0x1.deba72ef20147p-1",
    "0x1.d2e4895f86e4bp-1", "0x1.c55a7e00740e9p-1", "0x1.b628f68220c30p-1",
    "0x1.a55e242a4c3d3p-1", "0x1.9309b69255ab1p-1", "0x1.7f3ccd0032e0cp-1",
    "0x1.6a09e667f3bccp-1", "0x1.5384d024c2f84p-1", "0x1.3bc2937987fa6p-1",
    "0x1.22d961ea71119p-1", "0x1.08e08081c11b4p-1", "0x1.dbe064267c47cp-2",
    "0x1.a44341251de6ep-2", "0x1.6b1d8b2365da0p-2", "0x1.30a4a3fb12a92p-2",
    "0x1.ea1e54bc48dc0p-3", "0x1.71298da2ccbc6p-3", "0x1.edb7debaa3ed9p-4",
    "0x1.ee9ee2f9ee4c0p-5",
)])
_DCT_W_LOW = _DCT_TWIDDLES[0:12, None]  # w[k - 1] for k = 1..12
_DCT_W_HIGH = _DCT_TWIDDLES[24:12:-1, None]  # w[25 - k] for k = 1..12
_DCT_SCALE = float(1 / np.sqrt(np.longdouble(2 * _N_FILTERS)))


class EmptyAudio(ValueError):
    """Raised when an audio buffer contains no samples."""


class NaNAudio(ValueError):
    """Raised when an audio buffer contains a NaN sample."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio clamped to [-1, 1], NaN rejected; an in-range float64 array is held as given.

    The rate is TARGET_SAMPLE_RATE (16 kHz) by definition: ``load_wav``
    resamples every file to it, and nothing here reads another rate.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise EmptyAudio("audio buffer must be a non-empty 1-D array")
        low, high = samples.min(), samples.max()
        if math.isnan(low):  # min propagates NaN
            raise NaNAudio("audio buffer contains NaN samples")
        if low < -1.0 or high > 1.0:
            samples = np.clip(samples, -1.0, 1.0)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size / float(TARGET_SAMPLE_RATE)


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
    negative = np.signbit(samples)[samples != 0.0]  # compress one byte per sample, not eight
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


#: Samples per block of the SNR estimate.
SNR_BLOCK_SIZE = 512


def compute_snr_db(buffer: AudioBuffer, block_size: int = SNR_BLOCK_SIZE) -> float:
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
        energies = _block_energies(samples.reshape(1, n))
    else:
        full, remainder = divmod(n, block_size)
        energies = _block_energies(samples[: full * block_size].reshape(full, block_size))
        if remainder >= block_size / 2:
            tail = np.zeros((1, block_size))
            tail[0, :remainder] = samples[full * block_size :]
            energies = np.append(energies, _block_energies(tail))
    mean_energy = float(energies.mean())
    if mean_energy == 0.0:
        return 0.0
    rank = max(0, math.ceil(0.10 * energies.size) - 1)
    noise_floor = float(np.sort(energies)[rank])
    ratio = mean_energy / max(noise_floor, 1e-12)
    return clamp(10.0 * math.log10(ratio), 0.0, 80.0)


def _block_energies(blocks: np.ndarray) -> np.ndarray:
    """Mean square of each row; the squares live only inside this call."""
    return np.mean(np.square(blocks), axis=1)


def _mel_filterbank() -> np.ndarray:
    """Triangular mel filters over the FFT bins of one 16 kHz frame."""
    mel_top = 2595.0 * np.log10(1.0 + np.array(TARGET_SAMPLE_RATE / 2.0) / 700.0)
    points = 700.0 * (10.0 ** (np.linspace(0.0, mel_top, _N_FILTERS + 2) / 2595.0) - 1.0)
    bins = np.floor((_N_FFT + 1) * points / TARGET_SAMPLE_RATE).astype(int)
    bank = np.zeros((_N_FILTERS, _N_FFT // 2 + 1))
    for i in range(_N_FILTERS):
        left, center, right = bins[i], bins[i + 1], bins[i + 2]
        if center > left:
            bank[i, left:center] = (np.arange(left, center) - left) / (center - left)
        if right > center:
            bank[i, center:right] = (right - np.arange(center, right)) / (right - center)
    return bank


#: The Hamming window and mel filterbank of the one frame geometry, built once
#: at import and read-only, so no caller can change them for later turns.
_HAMMING_WINDOW = np.hamming(_FRAME)
_MEL_FILTERBANK = _mel_filterbank()
_HAMMING_WINDOW.setflags(write=False)
_MEL_FILTERBANK.setflags(write=False)


def mfcc_dct(log_mel: np.ndarray) -> np.ndarray:
    """Coefficients 1..12 of the orthonormal DCT-II of each 26-band row.

    Equal bit for bit to ``scipy.fft.dct(log_mel, type=2, axis=1,
    norm="ortho")[:, 1:13]``: it follows pocketfft's DCT-II, a pre-pass, one
    half-complex inverse real FFT and a twiddle post-pass, in the same order
    of operations. Returns a C-contiguous (frames, 12) array.
    """
    if log_mel.ndim != 2 or log_mel.shape[1] != _N_FILTERS:
        raise ValueError(f"expected (frames, {_N_FILTERS}) log-mel rows, got {log_mel.shape}")
    c = np.ascontiguousarray(log_mel.T)  # one band per row
    # Half-complex input [2*c0, c1+c2 + i(c2-c1), ..., c23+c24 + i(c24-c23), 2*c25].
    packed = np.empty((_N_FILTERS // 2 + 1, c.shape[1]), dtype=np.complex128)
    packed.real[0] = c[0] * 2.0
    packed.real[-1] = c[-1] * 2.0
    packed.imag[[0, -1]] = 0.0
    np.add(c[1:-1:2], c[2:-1:2], out=packed.real[1:-1])
    np.subtract(c[2:-1:2], c[1:-1:2], out=packed.imag[1:-1])
    y = np.fft.irfft(packed, n=_N_FILTERS, axis=0, norm="forward")
    y *= _DCT_SCALE
    low, high = y[1:13], y[25:13:-1]  # y[k] and y[26 - k] for k = 1..12
    out = _DCT_W_LOW * high
    out += _DCT_W_HIGH * low
    diff = _DCT_W_LOW * low
    diff -= _DCT_W_HIGH * high
    out += diff
    out *= 0.5
    # np.mean sums in memory order, so the layout is part of the result.
    return np.ascontiguousarray(out.T)


def mfcc_timbre_score(samples: np.ndarray) -> Optional[float]:
    """Timbre score in [0, 1] from frame-averaged MFCC magnitudes.

    Mean absolute value of coefficients 2..13 (26-filter mel bank, 25 ms
    frames, 10 ms hop), mapped through min(1, value / 20). Returns None when
    no full frame fits or the buffer carries no energy (timbre is undefined
    for silence).
    """
    if samples.size < _FRAME or not np.any(samples):
        return None
    windows = np.lib.stride_tricks.sliding_window_view(samples, _FRAME)[::_HOP]
    n_frames = windows.shape[0]
    block = np.zeros((min(_FFT_BLOCK_FRAMES, n_frames), _N_FFT))  # zero-padded tail stays 0
    power = np.empty((n_frames, _N_FFT // 2 + 1))
    for start in range(0, n_frames, _FFT_BLOCK_FRAMES):
        rows = windows[start : start + _FFT_BLOCK_FRAMES]
        count = rows.shape[0]
        np.multiply(rows, _HAMMING_WINDOW, out=block[:count, :_FRAME])
        np.abs(np.fft.rfft(block[:count]), out=power[start : start + count])
    np.square(power, out=power)
    # One product over all frames: OpenBLAS picks its kernel by row count,
    # so a blockwise product would change the last bits.
    log_energy = power @ _MEL_FILTERBANK.T
    np.maximum(log_energy, 1e-12, out=log_energy)
    np.log(log_energy, out=log_energy)
    magnitude = float(np.mean(np.abs(mfcc_dct(log_energy))))
    return min(1.0, magnitude / _TIMBRE_SCALE)


def extract_acoustic_features(
    buffer: AudioBuffer,
    norm_factor: float = DEFAULT_NORM_FACTOR,
    use_mfcc: bool = True,
    snr_block_size: int = SNR_BLOCK_SIZE,
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
    timbre = mfcc_timbre_score(samples) if use_mfcc else None
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


#: Audio-channel valence before the timbre adjustment.
BASE_VALENCE = 0.0


def derive_audio_vad(
    features: AcousticFeatures,
    smoother: ArousalSmoother,
    base_valence: float = BASE_VALENCE,
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
) -> EmotionResult:
    """Full audio backend: features -> VAD -> prototype distribution.

    Confidence scales with signal quality: 0.5 + 0.5 * min(1, snr_db / 30).
    All feature fields are exposed in the result metadata.
    """
    features = extract_acoustic_features(buffer, norm_factor, use_mfcc)
    vad, features = derive_audio_vad(features, smoother)
    probs = va_prototype_distribution(vad.valence, vad.arousal)
    confidence = 0.5 + 0.5 * min(1.0, features.snr_db / 30.0)
    return EmotionResult(
        probs=probs,
        vad=vad,
        confidence=confidence,
        metadata=features.as_metadata(),
    )


_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
#: Last 12 bytes of a KSDATAFORMAT_SUBTYPE GUID; the first 4 hold the format tag.
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _wav_sample_dtype(format_tag: int, container: int, bits: int, path: str) -> str:
    """numpy dtype of one stored sample; "s24" for packed 24-bit PCM."""
    if format_tag == _WAVE_FORMAT_PCM:
        if container == 1 and 1 <= bits <= 8:
            return "u1"  # 8-bit WAV is unsigned
        if container in (2, 3, 4) and 8 < bits <= 8 * container:
            return {2: "<i2", 3: "s24", 4: "<i4"}[container]
    elif format_tag == _WAVE_FORMAT_IEEE_FLOAT and bits in (32, 64) and container == bits // 8:
        return f"<f{container}"
    raise ValueError(
        f"{path}: unsupported WAV sample format: tag {format_tag:#x}, {bits} bits in {container} bytes"
    )


def read_wav(path: str) -> Tuple[int, np.ndarray]:
    """Read a little-endian RIFF/WAVE file as ``(sample_rate, samples)``.

    The result matches ``scipy.io.wavfile.read``: u8 PCM as uint8, 16- and
    32-bit PCM as int16 and int32, 24-bit PCM as int32 holding the sample in
    its upper three bytes, IEEE float as float32 or float64; shape (frames,)
    for mono and (frames, channels) otherwise. Plain and
    WAVE_FORMAT_EXTENSIBLE headers are read; chunks other than ``fmt `` and
    ``data`` are skipped with their pad byte. A ``data`` chunk cut short is
    read up to its last whole frame. Anything else, big-endian RIFX, RF64 and
    a sample rate of 0 included, raises ValueError naming the file.
    """
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size < 12 or raw[:4].tobytes() != b"RIFF" or raw[8:12].tobytes() != b"WAVE":
        raise ValueError(f"{path}: not a little-endian RIFF/WAVE file")
    fmt = None
    pos = 12
    while True:
        if pos + 8 > raw.size:
            raise ValueError(f"{path}: no data chunk")
        chunk_id = raw[pos : pos + 4].tobytes()
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        pos += 8
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            fmt = _read_fmt_chunk(raw[pos : pos + size].tobytes(), path)
        pos += size + (size & 1)
    if fmt is None:
        raise ValueError(f"{path}: no fmt chunk before the data chunk")
    rate, channels, block_align, dtype = fmt
    frames = min(size, raw.size - pos) // block_align
    data = raw[pos : pos + frames * block_align]
    if dtype == "s24":
        padded = np.zeros((data.size // 3, 4), dtype=np.uint8)
        padded[:, 1:] = data.reshape(-1, 3)
        samples = padded.view("<i4").reshape(-1)
    else:
        samples = data.view(dtype)
    if channels > 1:
        samples = samples.reshape(-1, channels)
    return rate, samples


def _read_fmt_chunk(body: bytes, path: str) -> Tuple[int, int, int, str]:
    """``(sample_rate, channels, block_align, dtype)`` from a ``fmt `` chunk body."""
    if len(body) < 16:
        raise ValueError(f"{path}: fmt chunk is {len(body)} bytes, less than 16")
    format_tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if format_tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(body) < 40 or struct.unpack_from("<H", body, 16)[0] < 22:
            raise ValueError(f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk is too short")
        if body[28:40] == _SUBFORMAT_GUID_TAIL:
            (format_tag,) = struct.unpack_from("<I", body, 24)
    if channels < 1 or block_align % channels:
        raise ValueError(f"{path}: {block_align}-byte frames do not hold {channels} channels")
    if rate == 0:
        raise ValueError(f"{path}: sample rate is 0")
    if format_tag == _WAVE_FORMAT_PCM and byte_rate != rate * block_align:
        raise ValueError(f"{path}: byte rate {byte_rate} is not sample rate {rate} x block align {block_align}")
    return rate, channels, block_align, _wav_sample_dtype(format_tag, block_align // channels, bits, path)


#: Scale from each PCM sample type to [-1, 1): a power of two, so the product
#: is exact and equals the quotient by 2**(bits - 1).
_PCM_SCALE = {np.dtype(np.uint8): 2.0**-7, np.dtype(np.int16): 2.0**-15, np.dtype(np.int32): 2.0**-31}


def _pcm_to_float(data: np.ndarray) -> np.ndarray:
    scale = _PCM_SCALE.get(data.dtype)
    if scale is None:
        return data.astype(np.float64)  # float32 or float64
    samples = np.multiply(data, scale, dtype=np.float64)
    if data.dtype == np.uint8:
        samples -= 1.0  # x / 128 - 1 == (x - 128) / 128 exactly: 8-bit PCM centres on 128
    return samples


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
    """Read a WAV file (8/16/24/32-bit PCM or 32/64-bit float) as a 16 kHz buffer.

    Multi-channel audio is downmixed by arithmetic mean; other sample rates
    are resampled by linear interpolation; samples are clamped to [-1, 1]
    and a NaN sample raises NaNAudio.
    """
    rate, data = read_wav(path)
    if data.size == 0:
        raise EmptyAudio(f"no samples in {path}")
    samples = _pcm_to_float(data)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    samples = resample_linear(samples, int(rate), TARGET_SAMPLE_RATE)
    return AudioBuffer(samples=samples)
