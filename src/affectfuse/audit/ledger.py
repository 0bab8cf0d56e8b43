"""Simulated append-only anchoring ledger.

Reproduces the semantics of anchoring an event digest on a public chain
behind a local interface: submitted txids are queued, sealed into hash-chained
blocks (every ``block_interval`` seconds or ``max_block_entries`` entries,
whichever first), and can afterwards be verified from the block data alone by
a :class:`LedgerReader`, which cannot write. Sealing runs in a background
thread; a submit waits at most for one block append and, when that empties
the queue, one cut of the pending file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import re
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .canonical import canonicalize, compute_txid
from .log import Journal

STATUS_DISABLED = "disabled"
STATUS_SUBMITTED = "submitted"
STATUS_ANCHORED = "anchored"

VERDICT_VERIFIED = "verified"
VERDICT_TAMPER_DETECTED = "tamper_detected"
VERDICT_NOT_ANCHORED = "not_anchored"
VERDICT_UNAVAILABLE = "unavailable"

#: Flat gas charge per anchored txid, mirroring a single hash-write call.
GAS_PER_ANCHOR = 47000

GENESIS_HASH = "0" * 64
DEFAULT_SENDER = "sim-account-001"
DEFAULT_BLOCK_INTERVAL = 2.0
DEFAULT_MAX_BLOCK_ENTRIES = 128

_TXID_RE = re.compile(r"^[0-9a-f]{64}$")
# Every block line starts with its hash: ``{"block_hash":"<64 hex>",``. A
# crash mid-append leaves a prefix of that as the ledger's last line.
_BLOCK_PREFIX = b'{"block_hash":"'
_CONTENT_AT = len(_BLOCK_PREFIX) + 64 + 2
_TORN_TXID_RE = re.compile(rb"[0-9a-f]{0,64}")

log = logging.getLogger(__name__)


class AnchorError(RuntimeError):
    """The ledger store is corrupt or an anchoring operation failed."""


@dataclass(frozen=True)
class AnchorRecord:
    txid: str
    status: str
    block_number: Optional[int] = None
    tx_hash: Optional[str] = None
    sender: Optional[str] = None
    gas_used: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class BlockEntry(NamedTuple):
    txid: str
    sender: str
    tx_hash: str


class LedgerBlock(NamedTuple):
    block_number: int
    timestamp: str
    entries: Tuple[BlockEntry, ...]
    previous_block_hash: str
    block_hash: str


@dataclass(frozen=True)
class Verdict:
    kind: str
    block_number: Optional[int] = None
    tx_hash: Optional[str] = None
    sender: Optional[str] = None
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        fields = asdict(self)
        return {"verdict": fields.pop("kind"), **fields}


def validate_txid(txid: str) -> str:
    if not _TXID_RE.match(txid):
        raise ValueError(f"txid must be 64 lowercase hex characters: {txid!r}")
    return txid


def entry_tx_hash(block_number: int, txid: str, sender: str, index: int) -> str:
    """Deterministic per-entry transaction hash (stands in for a chain receipt)."""
    material = f"{block_number}:{txid}:{sender}:{index}".encode("utf-8")
    return hashlib.sha256(material).hexdigest()


def _content_hash(line: bytes) -> str:
    """SHA-256 of a stored block line without its leading ``"block_hash"`` member."""
    return hashlib.sha256(b"{" + line[_CONTENT_AT:]).hexdigest()


def _is_torn_block(tail: bytes) -> bool:
    return _BLOCK_PREFIX.startswith(tail[: len(_BLOCK_PREFIX)])


class LedgerReader:
    """The sealed blocks and queued txids of a ledger's two journals, read once.

    Opening parses both files and checks every block line against its stored
    hash, so its cost grows with the ledger: on a 2-vCPU x86-64 VM, 1.4 ms at
    1k entries and about 0.3 s at 128k. A reader has no method that writes
    either file, so a third party can verify against a ledger that another
    process seals.
    """

    def __init__(self, ledger_path: str, pending_path: str) -> None:
        self.ledger_path = Path(ledger_path)
        self.pending_path = Path(pending_path)
        self._lock = threading.Lock()
        self._block_journal = Journal(self.ledger_path, AnchorError, _is_torn_block)
        self._pending_journal = Journal(self.pending_path, AnchorError, _TORN_TXID_RE.fullmatch)
        self._blocks: List[LedgerBlock] = []
        # Insertion-ordered set: FIFO for sealing, O(1) membership.
        self._pending: Dict[str, None] = {}
        self._anchored: Dict[str, Tuple[int, BlockEntry]] = {}
        # The first stored block whose bytes or back-link do not check out.
        self._broken: Optional[int] = None
        self._load()

    def _load(self) -> None:
        """Read both journals, checking each block line once against its stored hash."""
        last_hash = GENESIS_HASH
        try:
            for line in self._block_journal.lines():
                block = self._record_block(json.loads(line))
                if self._broken is None and not (
                    block.previous_block_hash == last_hash
                    and _content_hash(line) == block.block_hash
                    and line[:_CONTENT_AT] == b'%s%s",' % (_BLOCK_PREFIX, block.block_hash.encode("ascii"))
                ):
                    self._broken = block.block_number
                last_hash = block.block_hash
        except (KeyError, TypeError, ValueError) as exc:
            raise AnchorError(f"corrupt ledger file {self.ledger_path}: {exc}") from exc
        try:
            for line in self._pending_journal.lines():
                txid = validate_txid(line.decode("ascii"))
                if txid not in self._anchored:
                    self._pending[txid] = None
        except ValueError as exc:
            raise AnchorError(f"corrupt pending file {self.pending_path}: {exc}") from exc

    def _record_block(self, stored: Mapping) -> LedgerBlock:
        """Add a block from its stored fields; its txids leave the queue and map to its own entries."""
        number = int(stored["block_number"])
        if number != len(self._blocks):
            raise ValueError(f"block {number} is stored at position {len(self._blocks)}")
        entries = tuple(BlockEntry(e["txid"], e["sender"], e["tx_hash"]) for e in stored["entries"])
        previous, block_hash = str(stored["previous_block_hash"]), str(stored["block_hash"])
        block = LedgerBlock(number, str(stored["timestamp"]), entries, previous, block_hash)
        self._blocks.append(block)
        for entry in entries:
            self._anchored[entry.txid] = (number, entry)
            self._pending.pop(entry.txid, None)
        return block

    def status(self, txid: str) -> AnchorRecord:
        """Current record for a txid; never-submitted txids report "disabled"."""
        validate_txid(txid)
        with self._lock:
            return self._record_locked(txid)

    def _record_locked(self, txid: str) -> AnchorRecord:
        if txid in self._anchored:
            block_number, entry = self._anchored[txid]
            return AnchorRecord(txid, STATUS_ANCHORED, block_number, entry.tx_hash, entry.sender, GAS_PER_ANCHOR)
        if txid in self._pending:
            return AnchorRecord(txid=txid, status=STATUS_SUBMITTED)
        return AnchorRecord(txid=txid, status=STATUS_DISABLED)

    def lookup(self, txid: str) -> Optional[Tuple[int, str, str, Optional[int]]]:
        """(block_number, tx_hash, sender, broken) for an anchored txid, else None.

        ``broken`` is what ``verify_chain`` reports: the first stored block
        that did not check out on load, or None.
        """
        with self._lock:
            found = self._anchored.get(txid)
        return None if found is None else (found[0], found[1].tx_hash, found[1].sender, self._broken)

    @property
    def blocks(self) -> Tuple[LedgerBlock, ...]:
        with self._lock:
            return tuple(self._blocks)

    @property
    def pending(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._pending)

    def verify_chain(self) -> Tuple[bool, Optional[int]]:
        """(True, None) for a valid chain, else (False, block_number) of the first bad block.

        Each stored block line was checked once, on load: it must be
        ``{"block_hash":"<hash>",`` followed by content whose SHA-256 is that
        hash, and link to the stored hash of the block before it. Blocks a
        :class:`SimulatedLedger` seals are correct as written, so nothing
        hashes them again.
        """
        return self._broken is None, self._broken


class SimulatedLedger(LedgerReader):
    """Local stand-in for the anchoring chain: a reader that also seals.

    Producers call :meth:`submit` concurrently; one consumer seals pending
    entries into blocks. Reads see only sealed blocks, so verification is
    safe while sealing runs.

    Appending a txid or sealing a block costs the same however long the
    ledger is: a seal appends one block line and cuts the pending journal
    to zero bytes only if that empties the queue; until then the file keeps
    sealed txids, which opening drops. Opening does grow with history (see
    :class:`LedgerReader`). One instance owns the pair of files: a write to
    a journal that another process has changed raises :class:`AnchorError`.
    """

    def __init__(
        self,
        ledger_path: str,
        pending_path: str,
        sender: str = DEFAULT_SENDER,
        block_interval: float = DEFAULT_BLOCK_INTERVAL,
        max_block_entries: int = DEFAULT_MAX_BLOCK_ENTRIES,
        clock: Optional[Callable[[], str]] = None,
        auto_seal: bool = False,
    ) -> None:
        if block_interval <= 0:
            raise ValueError("block_interval must be > 0")
        if max_block_entries < 1:
            raise ValueError("max_block_entries must be >= 1")
        super().__init__(ledger_path, pending_path)
        self.sender = sender
        self.block_interval = block_interval
        self.max_block_entries = max_block_entries
        self._clock = clock or (lambda: time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()))
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if auto_seal:
            self._thread = threading.Thread(target=self._seal_loop, daemon=True)
            self._thread.start()

    def submit(self, txid: str) -> AnchorRecord:
        """Queue a txid for anchoring; returns immediately with the current status."""
        validate_txid(txid)
        with self._lock:
            if txid in self._anchored:
                return self._record_locked(txid)
            if txid not in self._pending:
                self._pending_journal.append(txid.encode("ascii") + b"\n")
                self._pending[txid] = None
            return AnchorRecord(txid=txid, status=STATUS_SUBMITTED)

    def seal_pending(self) -> Optional[LedgerBlock]:
        """Seal queued txids into the next block; None when the queue is empty."""
        with self._lock:
            if not self._pending:
                return None
            block_number = len(self._blocks)
            fields = {
                "block_number": block_number,
                "timestamp": self._clock(),
                "entries": [
                    {"txid": txid, "sender": self.sender, "tx_hash": entry_tx_hash(block_number, txid, self.sender, i)}
                    for i, txid in enumerate(itertools.islice(self._pending, self.max_block_entries))
                ],
                "previous_block_hash": self._blocks[-1].block_hash if self._blocks else GENESIS_HASH,
            }
            content = canonicalize(fields)
            block_hash = hashlib.sha256(content).hexdigest()
            # "block_hash" sorts first, so this is the canonical block with its hash.
            self._block_journal.append(b'%s%s",%s\n' % (_BLOCK_PREFIX, block_hash.encode("ascii"), content[1:]))
            block = self._record_block({"block_hash": block_hash, **fields})
            if not self._pending:
                self._pending_journal.truncate()
            return block

    def _seal_loop(self) -> None:
        last_seal = time.monotonic()
        while not self._stop.is_set():
            self._stop.wait(min(0.05, self.block_interval / 4.0))
            with self._lock:
                pending = len(self._pending)
            due = (time.monotonic() - last_seal) >= self.block_interval
            if pending >= self.max_block_entries or (pending > 0 and due):
                try:
                    self.seal_pending()
                except (OSError, AnchorError):
                    # A failed append leaves the batch queued; a failed cut leaves lines the open drops.
                    log.warning("sealing into %s failed; retrying", self.ledger_path, exc_info=True)
                    self._stop.wait(self.block_interval)
                last_seal = time.monotonic()

    def close(self) -> None:
        """Stop the sealing thread and drain the queue.

        A graceful shutdown anchors everything that was submitted; after a
        crash the pending journal is picked up by the next instance.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        while self.seal_pending() is not None:
            pass

    def __enter__(self) -> "SimulatedLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def anchor_txid(txid: str, ledger: Optional[SimulatedLedger]) -> AnchorRecord:
    """Anchor a txid, or report the disabled status when there is no ledger."""
    if ledger is None:
        return AnchorRecord(txid=txid, status=STATUS_DISABLED)
    return ledger.submit(txid)


def verify_anchorage(
    event_bytes: bytes,
    claimed_txid: str,
    ledger: Optional[LedgerReader],
) -> Verdict:
    """Third-party verification of one stored event.

    Recomputes SHA-256 over the exact file bytes; a mismatch with the claimed
    txid is TAMPER_DETECTED regardless of ledger state. Otherwise the txid is
    looked up, and its anchorage counts only if the chain from genesis up to
    its block still hashes: a break at or before that block is
    TAMPER_DETECTED too.
    """
    digest = compute_txid(event_bytes)
    if digest != claimed_txid:
        return Verdict(
            kind=VERDICT_TAMPER_DETECTED,
            detail=f"recomputed digest {digest} does not match claimed txid",
        )
    if ledger is None:
        return Verdict(kind=VERDICT_UNAVAILABLE, detail="no ledger available")
    found = ledger.lookup(claimed_txid)
    if found is None:
        return Verdict(kind=VERDICT_NOT_ANCHORED, detail="digest matches but txid is not anchored")
    block_number, tx_hash, sender, broken = found
    if broken is not None and broken <= block_number:
        detail = f"ledger block {broken} no longer matches its stored hash or back-link"
        return Verdict(VERDICT_TAMPER_DETECTED, block_number, detail=detail)
    return Verdict(
        kind=VERDICT_VERIFIED,
        block_number=block_number,
        tx_hash=tx_hash,
        sender=sender,
        detail="event bytes match and txid is anchored",
    )


def estimate_anchor_cost(
    gas_units: float,
    gas_price_gwei: float,
    eth_usd: float,
    batch_size: int = 1,
) -> float:
    """USD cost per event: gas * price(gwei) * 1e-9 * ETHUSD / batch_size."""
    if gas_units <= 0 or gas_price_gwei < 0 or eth_usd < 0 or batch_size <= 0:
        raise ValueError("cost inputs must be positive (gas price may be zero on a testnet)")
    return gas_units * gas_price_gwei * 1e-9 * eth_usd / batch_size
