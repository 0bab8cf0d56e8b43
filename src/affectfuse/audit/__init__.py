"""Tamper-evident auditing: canonical events, redaction, anchoring, proofs.

Importing this package, or its canonical, ledger, log and merkle modules,
loads the standard library only, so an event can be verified without numpy
or PyYAML. The artifacts module needs the rule base and is imported on its
own.
"""

from .canonical import canonicalize, compute_txid, parse_canonical
from .ledger import SimulatedLedger, estimate_anchor_cost, verify_anchorage
from .log import AuditLog, AuditWriteError, read_event_line
from .merkle import MerkleBatch, merkle_root, merkle_verify
