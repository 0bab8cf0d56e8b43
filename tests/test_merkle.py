from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from affectfuse.audit.merkle import (
    EmptyBatch,
    MerkleBatch,
    merkle_root,
    merkle_verify,
)


def leaf(n: int) -> str:
    return hashlib.sha256(f"leaf-{n}".encode()).hexdigest()


def test_single_leaf_root_is_leaf():
    assert merkle_root([leaf(0)]) == leaf(0)


def test_two_leaf_root_matches_reference_hash():
    l, r = leaf(0), leaf(1)
    expected = hashlib.sha256(bytes.fromhex(l) + bytes.fromhex(r)).hexdigest()
    assert merkle_root([l, r]) == expected


def test_three_leaves_equal_duplicated_four():
    a, b, c = leaf(0), leaf(1), leaf(2)
    assert merkle_root([a, b, c]) == merkle_root([a, b, c, c])


def test_empty_batch_rejected():
    with pytest.raises(EmptyBatch):
        merkle_root([])


def test_single_leaf_proof_is_empty():
    proof = MerkleBatch([leaf(0)]).proof(0)
    assert proof.siblings == ()
    assert proof.root == leaf(0)
    assert merkle_verify(proof)


def test_generate_then_verify_small_sizes():
    for size in list(range(1, 33)) + [100, 255, 256, 257]:
        leaves = [leaf(n) for n in range(size)]
        root = merkle_root(leaves)
        for index in range(size):
            proof = MerkleBatch(leaves).proof(index)
            assert proof.root == root
            assert merkle_verify(proof), (size, index)


def test_proof_length_is_ceil_log2():
    import math

    for size in (1, 2, 3, 4, 5, 8, 9, 500, 1024):
        leaves = [leaf(n) for n in range(size)]
        proof = MerkleBatch(leaves).proof(size // 2)
        expected = math.ceil(math.log2(size)) if size > 1 else 0
        assert len(proof.siblings) == expected


def test_altered_leaf_fails():
    leaves = [leaf(n) for n in range(10)]
    proof = MerkleBatch(leaves).proof(3)
    bad = replace(proof, leaf=leaf(99))
    assert not merkle_verify(bad)


def test_altered_sibling_fails():
    leaves = [leaf(n) for n in range(10)]
    proof = MerkleBatch(leaves).proof(3)
    siblings = list(proof.siblings)
    siblings[1] = leaf(98)
    assert not merkle_verify(replace(proof, siblings=tuple(siblings)))


def test_altered_root_fails():
    leaves = [leaf(n) for n in range(10)]
    proof = MerkleBatch(leaves).proof(3)
    assert not merkle_verify(replace(proof, root=leaf(97)))


def test_out_of_range_index_rejected():
    with pytest.raises(IndexError):
        MerkleBatch([leaf(0)]).proof(1)
