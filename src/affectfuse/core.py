"""Emotion ontology, discrete distributions, VAD state, and the shared result contract.

Every backend (audio, text) and the fusion stage exchange values through
``EmotionResult``: a discrete probability distribution over the six canonical
labels, a continuous valence/arousal/dominance triple, a confidence score, and
a flat metadata map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple
import unicodedata

from .config import ConfigError

#: Canonical label ordering. It is total and stable: ties and serializations
#: always follow this order.
LABELS: Tuple[str, ...] = ("joy", "sadness", "anger", "fear", "disgust", "neutral")

#: Spanish aliases accepted in file inputs (lexicons, manifests). Matching is
#: accent-insensitive; English names pass through unchanged.
SPANISH_ALIASES: Dict[str, str] = {
    "alegria": "joy",
    "felicidad": "joy",
    "tristeza": "sadness",
    "ira": "anger",
    "enojo": "anger",
    "miedo": "fear",
    "asco": "disgust",
    "neutro": "neutral",
}


class InvalidScore(ValueError):
    """A raw emotion score is negative, non-finite, or keyed by an unknown label."""


def _strip_accents(text: str) -> str:
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")


def read_data_file(path: Optional[str], bundled: str) -> Tuple[str, str]:
    """Read a user data file, or a bundled one, and return ``(text, origin)``.

    ``path`` names the user's file; when it is None the bundled file named
    ``bundled`` is read. ``origin`` names the file in error messages.
    """
    if path is None:
        from importlib import resources  # here, so that loading a configuration does not import it

        return resources.files("affectfuse.data").joinpath(bundled).read_text(encoding="utf-8"), bundled
    with open(path, encoding="utf-8") as handle:
        return handle.read(), str(path)


def load_yaml(text: str, origin: str = "<string>") -> Any:
    """Parse YAML with the safe constructor, through libyaml when PyYAML has it.

    PyYAML loads on the first call. Invalid YAML raises ConfigError naming ``origin``.
    """
    import yaml

    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{origin}: not valid YAML: {exc}") from exc


def data_lines(text: str) -> Iterator[Tuple[int, str]]:
    """``(1-based line number, stripped line)`` for each data line of a data file.

    Blank lines and ``#`` comments, indented or not, are skipped.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


@lru_cache(maxsize=256)
def canonical_label(name: str) -> str:
    """Resolve a label or its Spanish alias to the canonical English name.

    Memoized: label names come from a small fixed vocabulary and recur on
    every turn.
    """
    key = _strip_accents(name.strip().lower())
    if key in LABELS:
        return key
    if key in SPANISH_ALIASES:
        return SPANISH_ALIASES[key]
    raise InvalidScore(f"unknown emotion label: {name!r}")


def clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


@dataclass(frozen=True)
class VadState:
    """Continuous affect: valence in [-1, 1], arousal and dominance in [0, 1].

    Components are clamped on construction, so a VadState is always in range.
    Dominance is carried for forward compatibility; fusion consumes only
    valence and arousal.
    """

    valence: float
    arousal: float
    dominance: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "valence", clamp(float(self.valence), -1.0, 1.0))
        object.__setattr__(self, "arousal", clamp(float(self.arousal), 0.0, 1.0))
        object.__setattr__(self, "dominance", clamp(float(self.dominance), 0.0, 1.0))

    def as_dict(self) -> Dict[str, float]:
        return {"valence": self.valence, "arousal": self.arousal, "dominance": self.dominance}


@dataclass(frozen=True)
class EmotionResult:
    """Per-modality output: distribution + VAD + confidence + metadata.

    ``probs`` maps every canonical label to a probability; the values sum to 1.
    ``metadata`` is a flat map of scalars/strings surfaced into audit events.
    Instances are treated as immutable values and are safe to share.
    """

    probs: Dict[str, float]
    vad: VadState
    confidence: float
    metadata: Dict[str, Any] = field(default_factory=dict)


def normalize_distribution(raw_scores: Mapping[str, float]) -> Dict[str, float]:
    """Normalize nonnegative per-label scores into a probability distribution.

    Missing labels count as 0. If every score is 0 the one-hot neutral
    distribution is returned: absence of affective evidence reads as neutral,
    not as uniform uncertainty.

    Raises InvalidScore for negative or non-finite scores and unknown labels.
    """
    scores = {label: 0.0 for label in LABELS}
    for name, value in raw_scores.items():
        label = canonical_label(name)
        value = float(value)
        if not value >= 0.0:  # also rejects NaN
            raise InvalidScore(f"score for {label!r} must be >= 0, got {value!r}")
        if value == float("inf"):
            raise InvalidScore(f"score for {label!r} must be finite")
        scores[label] += value

    total = sum(scores.values())
    if total == 0.0:
        return one_hot("neutral")
    dist = {label: scores[label] / total for label in LABELS}
    # Dividing can round a smaller score listed earlier up to the top score's
    # quotient, which would win the tie; one ulp keeps the raw argmax on top.
    top = max(LABELS, key=scores.__getitem__)
    if any(dist[label] == dist[top] for label in LABELS[: LABELS.index(top)]):
        dist[top] = math.nextafter(dist[top], 1.0)
    return dist


def one_hot(label: str) -> Dict[str, float]:
    """Distribution with all mass on one canonical label."""
    target = canonical_label(label)
    return {name: (1.0 if name == target else 0.0) for name in LABELS}


def dominant_emotion(dist: Mapping[str, float]) -> Tuple[str, float]:
    """Return (label, probability) of the most probable emotion.

    Ties break by canonical label order, so the result is deterministic.
    """
    best_label = LABELS[0]
    best_prob = float(dist.get(best_label, 0.0))
    for label in LABELS[1:]:
        prob = float(dist.get(label, 0.0))
        if prob > best_prob:
            best_label, best_prob = label, prob
    return best_label, best_prob


def is_valid_distribution(dist: Mapping[str, float], tol: float = 1e-9) -> bool:
    """True when every component is in [0, 1] and the total is 1 within tol."""
    if set(dist) != set(LABELS):
        return False
    if any(not (0.0 <= float(v) <= 1.0) for v in dist.values()):
        return False
    return abs(sum(float(v) for v in dist.values()) - 1.0) <= tol
