from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affectfuse.config import PipelineConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(program: str, *args: str) -> str:
    """Run ``program`` in a fresh interpreter that imports this checkout; return its stdout."""
    out = subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return out.stdout


def make_test_config(tmp_path, anchoring: bool = False, **overrides) -> PipelineConfig:
    """Config writing all audit state under tmp_path; anchoring off by default."""
    config = PipelineConfig()
    config.audit.log_path = str(tmp_path / "audit" / "events.jsonl")
    config.audit.artifacts_dir = str(tmp_path / "audit" / "fired_rules")
    config.anchoring.enabled = anchoring
    config.anchoring.ledger_path = str(tmp_path / "audit" / "ledger.json")
    config.anchoring.pending_path = str(tmp_path / "audit" / "pending.json")
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


@pytest.fixture
def pinned_clock():
    return lambda: "2026-08-11T12:00:00+00:00"


@pytest.fixture
def test_config(tmp_path):
    return make_test_config(tmp_path)


def sine_buffer(freq_hz: float, amplitude: float = 0.5, seconds: float = 1.0, rate: int = 16000):
    from affectfuse.audio import AudioBuffer

    t = np.arange(int(round(seconds * rate))) / rate
    return AudioBuffer(samples=amplitude * np.sin(2 * np.pi * freq_hz * t))


def write_wav(path, samples: np.ndarray, rate: int = 16000) -> None:
    import wave

    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(pcm.tobytes())
