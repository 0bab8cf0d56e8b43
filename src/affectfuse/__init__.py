"""affectfuse: deterministic multimodal affect fusion with a verifiable audit trail.

Heuristic audio and text emotion estimates are combined through an
interpretable fuzzy gating engine; every inference yields a complete
explanation trace sealed into a canonical, hash-addressed audit event that an
independent party can verify against a simulated anchoring ledger.
"""

from .audio import (
    AcousticFeatures,
    ArousalSmoother,
    AudioBuffer,
    EmptyAudio,
    NaNAudio,
    audio_emotion,
    compute_snr_db,
    derive_audio_vad,
    extract_acoustic_features,
    load_wav,
)
from .config import ConfigError, PipelineConfig, load_config
from .core import (
    LABELS,
    EmotionResult,
    InvalidScore,
    VadState,
    dominant_emotion,
    normalize_distribution,
)
from .corpus import generate_synthetic_corpus
from .evaluate import classification_metrics, load_manifest, run_batch_eval
from .fusion import (
    FusionOutcome,
    adjust_asr_confidence,
    coherence_index,
    fuse,
    fuse_distributions,
    fuse_vad,
)
from .fuzzy import (
    FiredRule,
    FuzzyRule,
    FuzzyTrace,
    InvalidRuleBase,
    LinguisticVariable,
    MembershipFunction,
    RuleBase,
    ZeroActivation,
    aggregate_outputs,
    defuzzify_centroid,
    evaluate_rules,
    infer_w_text,
    load_rule_base,
)
from .guardrails import Escalation, evaluate_guardrails, notify_escalation, plan_response
from .metrics import MetricsRegistry, export_metrics
from .pipeline import Pipeline, TurnInput, TurnResult
from .text import (
    LexiconEntry,
    TextAnalysis,
    load_lemma_dictionary,
    load_lexicon,
    preprocess,
    score_text,
    text_emotion,
)

__version__ = "0.1.0"
