"""Tamper-evident auditing: canonical events, redaction, anchoring, proofs."""

from .artifacts import ExportError, export_explainability_artifact
from .canonical import (
    CANONICAL_VERSION,
    CanonicalizationError,
    canonical_number,
    canonicalize,
    compute_txid,
    parse_canonical,
)
from .ledger import (
    GAS_PER_ANCHOR,
    AnchorError,
    AnchorRecord,
    BlockEntry,
    LedgerBlock,
    SimulatedLedger,
    Verdict,
    anchor_txid,
    estimate_anchor_cost,
    verify_anchorage,
)
from .log import AuditLog, AuditWriteError, read_event_line
from .merkle import EmptyBatch, MerkleBatch, MerkleProof, merkle_root, merkle_verify
from .redact import RedactionReport, redact_pii, redact_text

__all__ = [
    "AnchorError",
    "AnchorRecord",
    "AuditLog",
    "AuditWriteError",
    "BlockEntry",
    "CANONICAL_VERSION",
    "CanonicalizationError",
    "EmptyBatch",
    "ExportError",
    "GAS_PER_ANCHOR",
    "LedgerBlock",
    "MerkleBatch",
    "MerkleProof",
    "RedactionReport",
    "SimulatedLedger",
    "Verdict",
    "anchor_txid",
    "canonical_number",
    "canonicalize",
    "compute_txid",
    "estimate_anchor_cost",
    "export_explainability_artifact",
    "merkle_root",
    "merkle_verify",
    "parse_canonical",
    "read_event_line",
    "redact_pii",
    "redact_text",
    "verify_anchorage",
]
