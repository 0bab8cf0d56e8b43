"""affectfuse: deterministic multimodal affect fusion with a verifiable audit trail.

Heuristic audio and text emotion estimates are combined through an
interpretable fuzzy gating engine; every inference yields a complete
explanation trace sealed into a canonical, hash-addressed audit event that an
independent party can verify against a simulated anchoring ledger.
"""

__version__ = "0.1.0"
