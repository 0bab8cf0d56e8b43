"""Merkle aggregation of event digests for batched anchoring.

Leaves are 64-hex txids taken as raw 32-byte digests; a parent is
SHA-256(left || right) over the raw bytes. An odd node count at any level
duplicates the last node, so a 3-leaf tree equals the 4-leaf tree built from
(a, b, c, c). Inclusion proofs carry the ordered sibling path from leaf to
root.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .ledger import validate_txid


class EmptyBatch(ValueError):
    """A Merkle batch needs at least one leaf."""


def _parent(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(left + right).digest()


def _levels(leaves: Sequence[str]) -> List[List[bytes]]:
    if not leaves:
        raise EmptyBatch("cannot build a Merkle tree over zero leaves")
    level = [bytes.fromhex(validate_txid(leaf)) for leaf in leaves]
    levels = [level]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level = level + [level[-1]]
            levels[-1] = level
        level = [_parent(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def merkle_root(leaves: Sequence[str]) -> str:
    """Root digest of a batch; a single leaf is its own root."""
    return _levels(leaves)[-1][0].hex()


@dataclass(frozen=True)
class MerkleProof:
    leaf: str
    index: int
    siblings: Tuple[str, ...]
    root: str


class MerkleBatch:
    """A sealed batch: builds the tree once, then serves O(log n) proofs."""

    def __init__(self, leaves: Sequence[str]) -> None:
        self._leaves = list(leaves)
        self._levels = _levels(self._leaves)

    @property
    def root(self) -> str:
        return self._levels[-1][0].hex()

    def __len__(self) -> int:
        return len(self._leaves)

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``.

        Proof length is ceil(log2(padded leaf count)); a single-leaf batch has
        an empty sibling list.
        """
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range for {len(self._leaves)} leaves")
        siblings: List[str] = []
        position = index
        for level in self._levels[:-1]:
            siblings.append(level[position ^ 1].hex())
            position //= 2
        return MerkleProof(
            leaf=self._leaves[index],
            index=index,
            siblings=tuple(siblings),
            root=self.root,
        )


def merkle_verify(proof: MerkleProof) -> bool:
    """Fold the leaf through the sibling path and compare with the root."""
    try:
        current = bytes.fromhex(validate_txid(proof.leaf))
    except ValueError:
        return False
    position = proof.index
    for sibling_hex in proof.siblings:
        try:
            sibling = bytes.fromhex(sibling_hex)
        except ValueError:
            return False
        if len(sibling) != 32:
            return False
        if position % 2 == 0:
            current = _parent(current, sibling)
        else:
            current = _parent(sibling, current)
        position //= 2
    return current.hex() == proof.root
