"""Heuristic Spanish text affect.

Normalization, dictionary lemmatization, negation scope, intensifier
multipliers, and lexicon scoring. Negated lexicon hits are remapped (joy and
sadness swap; anger/fear/disgust collapse to neutral, since "no estoy
enojado" signals absence of anger rather than its opposite) with weight
halved and valence flipped at half magnitude.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .config import DEFAULT_INTENSIFIERS, DEFAULT_NEGATION_MARKERS, ConfigError
from .core import (
    LABELS,
    EmotionResult,
    VadState,
    canonical_label,
    clamp,
    data_lines,
    normalize_distribution,
    read_data_file,
)

#: Content tokens covered by a negation marker before the scope expires.
NEGATION_SCOPE = 3

#: Sentence punctuation terminates negation scope and pending intensifiers.
SCOPE_BREAKERS = frozenset(",.;:!?¡¿")

NEGATION_REMAP: Dict[str, str] = {
    "joy": "sadness",
    "sadness": "joy",
    "anger": "neutral",
    "fear": "neutral",
    "disgust": "neutral",
    "neutral": "neutral",
}

_TOKEN_RE = re.compile(r"[^\W\d_]+|[,.;:!?¡¿]", re.UNICODE)


@dataclass(frozen=True)
class LexiconEntry:
    lemma: str
    emotion: str
    weight: float
    valence: float

    def __post_init__(self) -> None:
        if not self.lemma or self.lemma != self.lemma.lower():
            raise ValueError(f"lexicon lemma must be non-empty lowercase: {self.lemma!r}")
        object.__setattr__(self, "emotion", canonical_label(self.emotion))
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"lexicon weight must be in (0, 1]: {self.weight!r}")
        if not -1.0 <= self.valence <= 1.0:
            raise ValueError(f"lexicon valence must be in [-1, 1]: {self.valence!r}")


@dataclass(frozen=True)
class Token:
    surface: str
    lemma: str
    multiplier: float
    negated: bool


@dataclass(frozen=True)
class TextAnalysis:
    tokens: Tuple[Token, ...]
    negations_detected: int
    intensifiers_applied: Tuple[Tuple[str, float], ...] = ()


def preprocess(
    text: str,
    lemma_dictionary: Optional[Mapping[str, str]] = None,
    negation_markers: Sequence[str] = DEFAULT_NEGATION_MARKERS,
    intensifiers: Optional[Mapping[str, float]] = None,
) -> TextAnalysis:
    """Tokenize, lemmatize, and resolve negation scope and intensifiers.

    Lowercases, splits punctuation into token boundaries, maps each word to
    its lemma (identity fallback), matches intensifier phrases longest-first
    and records the multiplier on the next content token, and flags the
    NEGATION_SCOPE content tokens after a negation marker. A second marker
    inside an active scope cancels it (double negation). Sentence punctuation
    ends both the scope and any pending multiplier.
    """
    lemmas = lemma_dictionary or {}
    table = dict(DEFAULT_INTENSIFIERS if intensifiers is None else intensifiers)
    markers = frozenset(negation_markers)
    phrases = sorted(
        ((tuple(phrase.split()), mult) for phrase, mult in table.items()),
        key=lambda item: len(item[0]),
        reverse=True,
    )

    raw = _TOKEN_RE.findall(text.lower())
    tokens: List[Token] = []
    applied: List[Tuple[str, float]] = []
    pending: List[Tuple[str, float]] = []
    negations = 0
    scope_left = 0
    i = 0
    while i < len(raw):
        tok = raw[i]
        if tok in SCOPE_BREAKERS:
            scope_left = 0
            pending.clear()
            i += 1
            continue
        matched_phrase = None
        for words, mult in phrases:
            if tuple(raw[i : i + len(words)]) == words:
                matched_phrase = (" ".join(words), mult)
                i += len(words)
                break
        if matched_phrase is not None:
            pending.append(matched_phrase)
            continue
        if tok in markers:
            negations += 1
            scope_left = 0 if scope_left > 0 else NEGATION_SCOPE
            i += 1
            continue
        multiplier = 1.0
        for phrase, mult in pending:
            multiplier *= mult
            applied.append((phrase, mult))
        pending.clear()
        negated = scope_left > 0
        if negated:
            scope_left -= 1
        tokens.append(
            Token(surface=tok, lemma=lemmas.get(tok, tok), multiplier=multiplier, negated=negated)
        )
        i += 1

    return TextAnalysis(
        tokens=tuple(tokens),
        negations_detected=negations,
        intensifiers_applied=tuple(applied),
    )


def score_text(
    analysis: TextAnalysis,
    lexicon: Mapping[str, LexiconEntry],
) -> Tuple[Dict[str, float], float, int]:
    """Accumulate per-emotion scores and a mean signed valence.

    Each matched token contributes weight * multiplier to its emotion. When
    negated, the emotion is remapped through NEGATION_REMAP with the
    contribution halved and the valence contribution scaled by -0.5. The
    returned valence is the clamped mean over matched tokens.
    """
    scores = {label: 0.0 for label in LABELS}
    valence_sum = 0.0
    matched = 0
    for token in analysis.tokens:
        entry = lexicon.get(token.lemma)
        if entry is None:
            continue
        matched += 1
        emotion = entry.emotion
        contribution = entry.weight * token.multiplier
        valence = entry.valence * token.multiplier
        if token.negated:
            emotion = NEGATION_REMAP[emotion]
            contribution *= 0.5
            valence *= -0.5
        scores[emotion] += contribution
        valence_sum += valence
    valence = clamp(valence_sum / max(1, matched), -1.0, 1.0)
    return scores, valence, matched


def text_emotion(
    text: str,
    lexicon: Mapping[str, LexiconEntry],
    lemma_dictionary: Optional[Mapping[str, str]] = None,
    negation_markers: Sequence[str] = DEFAULT_NEGATION_MARKERS,
    intensifiers: Optional[Mapping[str, float]] = None,
) -> EmotionResult:
    """Full text backend: preprocess + score + normalize.

    Confidence is min(1, matched_tokens / 5). The text channel has no real
    arousal model, so a bounded proxy monotone in affect strength is used:
    arousal = 0.5 * |valence| + 0.1.
    """
    analysis = preprocess(text, lemma_dictionary, negation_markers, intensifiers)
    scores, valence, matched = score_text(analysis, lexicon)
    probs = normalize_distribution(scores)
    confidence = min(1.0, matched / 5.0)
    vad = VadState(valence=valence, arousal=0.5 * abs(valence) + 0.1, dominance=0.5)
    metadata = {
        "token_count": len(analysis.tokens),
        "matched_tokens": matched,
        "negations_detected": analysis.negations_detected,
        "intensifiers_applied": ";".join(
            f"{phrase}:{mult:g}" for phrase, mult in analysis.intensifiers_applied
        ),
        "lemmas": " ".join(token.lemma for token in analysis.tokens),
    }
    return EmotionResult(probs=probs, vad=vad, confidence=confidence, metadata=metadata)


def load_lexicon(path: Optional[str] = None) -> Dict[str, LexiconEntry]:
    """Load a lexicon TSV (columns: lemma, emotion, weight, valence).

    Spanish emotion names are accepted. Without a path the bundled seed
    lexicon is used.
    """
    text, origin = read_data_file(path, "lexicon_es.tsv")
    lexicon: Dict[str, LexiconEntry] = {}
    for lineno, line in data_lines(text):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ConfigError(f"{origin}:{lineno}: expected 4 tab-separated columns")
        lemma, emotion, weight, valence = parts
        try:
            entry = LexiconEntry(
                lemma=lemma.strip(),
                emotion=emotion.strip(),
                weight=float(weight),
                valence=float(valence),
            )
        except ValueError as exc:
            raise ConfigError(f"{origin}:{lineno}: {exc}") from exc
        lexicon[entry.lemma] = entry
    return lexicon


def load_lemma_dictionary(path: Optional[str] = None) -> Dict[str, str]:
    """Load the surface-to-lemma TSV; bundled seed dictionary by default."""
    text, origin = read_data_file(path, "lemmas_es.tsv")
    mapping: Dict[str, str] = {}
    for lineno, line in data_lines(text):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConfigError(f"{origin}:{lineno}: expected 2 tab-separated columns")
        mapping[parts[0].strip()] = parts[1].strip()
    return mapping
