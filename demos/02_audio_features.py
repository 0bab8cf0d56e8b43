"""Acoustic features on synthetic signals.

Shows how RMS drives arousal, how the zero-crossing rate refines it, and how
the block-energy SNR estimate reacts to added noise (which in turn penalizes
ASR confidence downstream).
"""

import numpy as np

from affectfuse.audio import (
    ArousalSmoother,
    AudioBuffer,
    audio_emotion,
    compute_snr_db,
    extract_acoustic_features,
)
from affectfuse.core import dominant_emotion

rate = 16000
t = np.arange(2 * rate) / rate
rng = np.random.default_rng(0)

print("=== amplitude sweep (440 Hz tone): louder means more aroused ===")
print("amplitude  rms_norm  arousal_raw")
for amplitude in (0.02, 0.05, 0.1, 0.2, 0.35):
    buf = AudioBuffer(samples=amplitude * np.sin(2 * np.pi * 440 * t))
    feats = extract_acoustic_features(buf, use_mfcc=False)
    print(f"  {amplitude:.2f}     {feats.rms_norm:.3f}     {feats.arousal_raw:.3f}")

print()
print("=== SNR estimation: tone bursts over increasing noise ===")
envelope = (np.sin(2 * np.pi * 2.0 * t) > 0).astype(float)  # on/off bursts
tone = 0.2 * np.sin(2 * np.pi * 440 * t) * envelope
print("noise sigma  measured SNR (dB)")
for sigma in (0.001, 0.005, 0.02, 0.08):
    noisy = np.clip(tone + rng.normal(0, sigma, tone.size), -1, 1)
    snr = compute_snr_db(AudioBuffer(samples=noisy))
    print(f"  {sigma:.3f}      {snr:6.2f}")

print()
print("=== end-to-end audio backend on a loud noisy burst ===")
loud = np.clip(0.3 * np.sin(2 * np.pi * 520 * t) * envelope + rng.normal(0, 0.01, t.size), -1, 1)
result = audio_emotion(AudioBuffer(samples=loud), ArousalSmoother())
label, prob = dominant_emotion(result.probs)
print(f"dominant={label} p={prob:.3f} confidence={result.confidence:.3f}")
print(f"vad: valence={result.vad.valence:+.3f} arousal={result.vad.arousal:.3f}")
print(f"snr_db={result.metadata['snr_db']:.2f} timbre={result.metadata['timbre_score']:.3f}")
print()
print("With near-zero valence evidence the audio channel is deliberately")
print("conservative: it mostly separates calm from excited speech.")
