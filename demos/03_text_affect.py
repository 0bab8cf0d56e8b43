"""Lexicon scoring with negation scope and intensity multipliers.

Walks a handful of Spanish phrases through the text backend and prints what
each token contributed: lemma resolution, the multiplier picked up from a
preceding intensifier, and polarity flips under negation.
"""

from affectfuse.core import dominant_emotion
from affectfuse.text import (
    load_lemma_dictionary,
    load_lexicon,
    preprocess,
    score_text,
    text_emotion,
)

lexicon = load_lexicon()
lemmas = load_lemma_dictionary()

PHRASES = [
    "hoy estoy muy feliz",
    "un poco triste",
    "extremadamente triste",
    "no estoy feliz",
    "no no feliz",
    "no estoy enojado, solo cansado",
    "estamos felices con el resultado",
]

for phrase in PHRASES:
    analysis = preprocess(phrase, lemmas)
    scores, valence, matched = score_text(analysis, lexicon)
    result = text_emotion(phrase, lexicon, lemmas)
    label, prob = dominant_emotion(result.probs)
    print(f'"{phrase}"')
    for token in analysis.tokens:
        marks = []
        if token.multiplier != 1.0:
            marks.append(f"x{token.multiplier:g}")
        if token.negated:
            marks.append("negated")
        note = f" ({', '.join(marks)})" if marks else ""
        hit = "*" if token.lemma in lexicon else " "
        print(f"   {hit} {token.surface:12s} -> {token.lemma}{note}")
    nonzero = {k: round(v, 3) for k, v in scores.items() if v}
    print(f"   scores={nonzero or '{}'} valence={valence:+.2f} "
          f"dominant={label} confidence={result.confidence:.2f}")
    print()

print("Negating joy reads as sadness (and vice versa); negated anger, fear,")
print("or disgust read as absence of the emotion, not its opposite.")
