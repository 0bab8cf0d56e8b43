"""Deterministic synthetic evaluation corpus.

Each row gets a WAV file (tone bursts with controlled RMS targeting the gold
label's prototype arousal, plus white noise at the requested SNR), a Spanish
transcript composed from the seed lexicon (optionally intensified or phrased
through a negated opposite), a corruption level that degrades the transcript
the way ASR noise would, an ASR confidence negatively correlated with that
corruption, and the gold label. The same seed always reproduces the corpus
byte for byte.
"""

from __future__ import annotations

import json
import wave
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .audio import DEFAULT_NORM_FACTOR, TARGET_SAMPLE_RATE, VA_PROTOTYPES
from .core import LABELS

#: Non-affective filler vocabulary (disjoint from the lexicon, the negation
#: markers, and the intensifier table).
FILLERS: Tuple[str, ...] = (
    "hoy", "ayer", "entonces", "durante", "la", "semana", "el", "trabajo",
    "en", "casa", "este", "momento", "por", "tarde", "una", "cosa", "sobre",
    "tema", "pues", "digamos", "creo", "que",
)

#: Surfaces per label used to compose transcripts. Inflected forms exercise
#: the lemma dictionary; every surface resolves to a lexicon entry of the
#: same label.
LABEL_SURFACES: Dict[str, Tuple[str, ...]] = {
    "joy": ("feliz", "contento", "contenta", "alegre", "encantado", "genial", "felices"),
    "sadness": ("triste", "deprimido", "deprimida", "desanimado", "abatido", "tristes"),
    "anger": ("enojado", "enojada", "furioso", "furiosa", "indignado", "molesto"),
    "fear": ("asustado", "asustada", "nervioso", "nerviosa", "preocupado", "angustiado"),
    "disgust": ("asqueroso", "asquerosa", "repugnante", "desagradable", "repulsivo", "horrible"),
    "neutral": ("normal", "tranquilo", "tranquila", "regular", "habitual"),
}

#: Opposite-label surfaces usable under negation: negating joy reads as
#: sadness and vice versa, so both phrasings stay decodable.
NEGATED_OPPOSITE: Dict[str, Tuple[str, ...]] = {
    "joy": ("triste", "deprimido"),
    "sadness": ("feliz", "contento", "alegre"),
}

INTENSIFIER_CHOICES: Tuple[str, ...] = (
    "muy", "extremadamente", "sumamente", "totalmente", "algo", "un poco",
)

DEFAULT_NOISE_LEVELS_DB: Tuple[float, ...] = (25.0, 15.0, 8.0, 3.0)

_BURST_DUTY = 0.72
_CHUNK_SECONDS = 0.1

_CARRIER_HZ: Dict[str, float] = {
    "joy": 660.0,
    "sadness": 220.0,
    "anger": 520.0,
    "fear": 740.0,
    "disgust": 330.0,
    "neutral": 440.0,
}


def _compose_transcript(label: str, corruption: float, rng: np.random.Generator) -> str:
    """Emotion words plus fillers; corruption replaces emotion words.

    At corruption 0 every affect word belongs to the gold label (directly or
    through a negated opposite), so the text channel decodes the gold label
    exactly.
    """
    words: List[str] = [str(rng.choice(FILLERS))]
    use_negated = label in NEGATED_OPPOSITE and rng.random() < 0.2
    n_emotion = int(rng.integers(2, 4))
    emotion_words: List[str] = []
    if use_negated:
        emotion_words.append("no estoy " + str(rng.choice(NEGATED_OPPOSITE[label])))
        n_emotion -= 1
    for _ in range(max(1, n_emotion)):
        surface = str(rng.choice(LABEL_SURFACES[label]))
        if rng.random() < 0.3:
            surface = f"{rng.choice(INTENSIFIER_CHOICES)} {surface}"
        emotion_words.append(surface)

    corrupted: List[str] = []
    for phrase in emotion_words:
        if rng.random() < corruption:
            if rng.random() < 0.7:
                corrupted.append(str(rng.choice(FILLERS)))
            else:
                wrong = str(rng.choice([l for l in LABELS if l != label]))
                corrupted.append(str(rng.choice(LABEL_SURFACES[wrong])))
        else:
            corrupted.append(phrase)

    for phrase in corrupted:
        words.append(phrase)
        # a filler always follows a negated phrase so the negation scope
        # (three content tokens) can never leak onto the next emotion word
        if phrase.startswith("no estoy") or rng.random() < 0.5:
            words.append(str(rng.choice(FILLERS)))
    return " ".join(words)


def _synthesize_audio(
    label: str,
    snr_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Tone bursts with RMS targeting the label's prototype arousal.

    Noise saturates the zero-crossing term downstream, so the combined
    arousal tracks rms_norm directly and rms = arousal * norm_factor * 0.92.
    """
    duration = 1.6 + 0.8 * float(rng.random())
    n = int(round(duration * TARGET_SAMPLE_RATE))
    target_arousal = VA_PROTOTYPES[label][1] + float(rng.uniform(-0.05, 0.05))
    rms_norm = float(np.clip(target_arousal, 0.05, 1.0))
    rms = rms_norm * DEFAULT_NORM_FACTOR * 0.92

    chunk = int(_CHUNK_SECONDS * TARGET_SAMPLE_RATE)
    n_chunks = max(1, n // chunk)
    n_on = max(1, int(round(_BURST_DUTY * n_chunks)))
    on_chunks = set(rng.permutation(n_chunks)[:n_on].tolist())
    envelope = np.zeros(n)
    for index in range(n_chunks):
        if index in on_chunks:
            start = index * chunk
            envelope[start : start + chunk] = 1.0
    duty = float(envelope.mean())  # > 0: n_on >= 1 and every chunk starts inside the buffer

    t = np.arange(n) / TARGET_SAMPLE_RATE
    carrier = _CARRIER_HZ[label] * (1.0 + float(rng.uniform(-0.05, 0.05)))
    tone = np.sin(2 * np.pi * carrier * t)
    # Harmonic richness varies the downstream timbre score.
    richness = float(rng.uniform(0.0, 0.6))
    tone += richness * np.sin(2 * np.pi * 2 * carrier * t)
    tone += 0.5 * richness * np.sin(2 * np.pi * 3 * carrier * t)
    tone /= float(np.sqrt(np.mean(tone * tone)))

    amplitude = rms / np.sqrt(duty)
    signal = amplitude * tone * envelope

    noise_power = (rms ** 2) / (10.0 ** (snr_db / 10.0))
    noise = rng.normal(0.0, np.sqrt(noise_power), size=n)
    return np.clip(signal + noise, -0.99, 0.99)


def _write_wav(path: Path, samples: np.ndarray) -> None:
    pcm = np.round(samples * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(TARGET_SAMPLE_RATE)
        handle.writeframes(pcm.tobytes())


def generate_synthetic_corpus(
    out_dir: str,
    seed: int,
    size: int,
    noise_levels_db: Optional[Sequence[float]] = None,
) -> Path:
    """Write wav/ files plus manifest.jsonl; returns the manifest path.

    Corruption is 0 for roughly 45% of rows and uniform in (0.15, 1)
    otherwise; noisier audio accompanies higher corruption (low SNR is what
    degrades recognition); asr_confidence falls with corruption plus an
    independent spread that produces both under- and over-confident rows.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    levels = tuple(noise_levels_db) if noise_levels_db else DEFAULT_NOISE_LEVELS_DB
    out = Path(out_dir)
    (out / "wav").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    lines: List[str] = []
    for i in range(size):
        label = LABELS[i % len(LABELS)]
        corruption = 0.0 if rng.random() < 0.45 else float(rng.uniform(0.15, 1.0))
        spread = float(rng.random())
        confidence = float(np.clip(0.98 - 0.5 * corruption - 0.75 * spread**2, 0.05, 0.98))
        level_index = min(len(levels) - 1, int(corruption * len(levels)))
        snr_db = float(levels[level_index])

        transcript = _compose_transcript(label, corruption, rng)
        samples = _synthesize_audio(label, snr_db, rng)
        wav_name = f"wav/row-{i:05d}.wav"
        _write_wav(out / wav_name, samples)

        lines.append(
            json.dumps(
                {
                    "id": f"row-{i:05d}",
                    "audio": wav_name,
                    "transcript": transcript,
                    "asr_confidence": round(confidence, 4),
                    "label": label,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        )

    manifest = out / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
