from __future__ import annotations

import errno
import hashlib
import json
import resource
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from affectfuse.audit import ledger as ledger_mod
from affectfuse.audit.canonical import canonicalize, compute_txid
from affectfuse.audit.ledger import (
    GAS_PER_ANCHOR,
    AnchorError,
    SimulatedLedger,
    anchor_txid,
    entry_tx_hash,
    estimate_anchor_cost,
    verify_anchorage,
)

from conftest import run_python


def make_ledger(tmp_path, **kwargs):
    return SimulatedLedger(
        ledger_path=str(tmp_path / "ledger.json"),
        pending_path=str(tmp_path / "pending.json"),
        clock=lambda: "2026-08-11T00:00:00+00:00",
        **kwargs,
    )


def txid_of(n: int) -> str:
    return hashlib.sha256(str(n).encode()).hexdigest()


def test_disabled_anchoring(tmp_path):
    record = anchor_txid(txid_of(1), None)
    assert record.status == "disabled"
    assert record.block_number is None


def test_submit_then_seal(tmp_path):
    with make_ledger(tmp_path) as ledger:
        record = ledger.submit(txid_of(1))
        assert record.status == "submitted"
        block = ledger.seal_pending()
        assert block is not None
        after = ledger.status(txid_of(1))
        assert after.status == "anchored"
        assert after.block_number == 0
        assert after.gas_used == GAS_PER_ANCHOR
        assert after.tx_hash == entry_tx_hash(0, txid_of(1), ledger.sender, 0)


def test_malformed_txid_rejected(tmp_path):
    with make_ledger(tmp_path) as ledger:
        with pytest.raises(ValueError):
            ledger.submit("NOT-HEX")


def test_blocks_chain_and_persist(tmp_path):
    with make_ledger(tmp_path) as ledger:
        for n in range(5):
            ledger.submit(txid_of(n))
        ledger.seal_pending()
        for n in range(5, 8):
            ledger.submit(txid_of(n))
        ledger.seal_pending()
        assert [b.block_number for b in ledger.blocks] == [0, 1]
        assert ledger.blocks[1].previous_block_hash == ledger.blocks[0].block_hash
        ok, bad = ledger.verify_chain()
        assert ok and bad is None
    # reopen from disk
    with make_ledger(tmp_path) as reopened:
        assert len(reopened.blocks) == 2
        assert reopened.status(txid_of(6)).status == "anchored"
        ok, _ = reopened.verify_chain()
        assert ok


def test_max_block_entries_split(tmp_path):
    with make_ledger(tmp_path, max_block_entries=3) as ledger:
        for n in range(7):
            ledger.submit(txid_of(n))
        sizes = []
        while True:
            block = ledger.seal_pending()
            if block is None:
                break
            sizes.append(len(block.entries))
        assert sizes == [3, 3, 1]


def test_chain_revalidation_detects_mutation(tmp_path):
    ledger_path = tmp_path / "ledger.json"
    with make_ledger(tmp_path) as ledger:
        for n in range(4):
            ledger.submit(txid_of(n))
        ledger.seal_pending()
    lines = ledger_path.read_bytes().splitlines(keepends=True)
    block = json.loads(lines[0])
    block["entries"][2]["txid"] = txid_of(999)
    lines[0] = canonicalize(block) + b"\n"
    ledger_path.write_bytes(b"".join(lines))
    with make_ledger(tmp_path) as tampered:
        ok, bad = tampered.verify_chain()
        assert not ok and bad == 0


def test_corrupt_ledger_file_raises(tmp_path):
    (tmp_path / "ledger.json").write_text("{broken")
    with pytest.raises(AnchorError):
        make_ledger(tmp_path)


def test_verify_anchorage_round_trip(tmp_path):
    event = canonicalize({"case": "round-trip", "v": 0.25})
    txid = compute_txid(event)
    with make_ledger(tmp_path) as ledger:
        ledger.submit(txid)
        ledger.seal_pending()
        verdict = verify_anchorage(event, txid, ledger)
        assert verdict.kind == "verified"
        assert verdict.block_number == 0
        assert verdict.sender == ledger.sender


def test_verify_anchorage_detects_any_flip(tmp_path):
    event = canonicalize({"case": "tamper", "v": [1, 2, 3]})
    txid = compute_txid(event)
    with make_ledger(tmp_path) as ledger:
        ledger.submit(txid)
        ledger.seal_pending()
        for pos in range(len(event)):
            mutated = bytearray(event)
            mutated[pos] ^= 0x01
            verdict = verify_anchorage(bytes(mutated), txid, ledger)
            assert verdict.kind == "tamper_detected"


def test_verify_anchorage_not_anchored(tmp_path):
    event = canonicalize({"case": "lonely"})
    txid = compute_txid(event)
    with make_ledger(tmp_path) as ledger:
        verdict = verify_anchorage(event, txid, ledger)
        assert verdict.kind == "not_anchored"


def tampered_chain(tmp_path, block_number, renumber_to=None):
    """Ten events sealed four to a block, then block ``block_number`` edited on disk.

    Its timestamp and its first txid change, so the block no longer hashes to
    its stored hash; with ``renumber_to`` its stored number changes as well.
    Returns the event bytes in submit order.
    """
    events = [canonicalize({"case": "chain", "n": n}) for n in range(10)]
    with make_ledger(tmp_path, max_block_entries=4) as ledger:
        for event in events:
            ledger.submit(compute_txid(event))
    ledger_path = tmp_path / "ledger.json"
    lines = ledger_path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 3
    block = json.loads(lines[block_number])
    block["timestamp"] = "2026-08-12T00:00:00+00:00"
    block["entries"][0]["txid"] = txid_of(999)
    if renumber_to is not None:
        block["block_number"] = renumber_to
    lines[block_number] = canonicalize(block) + b"\n"
    ledger_path.write_bytes(b"".join(lines))
    return events


def test_verify_anchorage_detects_a_block_that_no_longer_hashes(tmp_path):
    events = tampered_chain(tmp_path, 0)
    ledger = make_ledger(tmp_path, max_block_entries=4)
    assert ledger.verify_chain() == (False, 0)
    for n in (1, 9):  # untouched txids in block 0 and block 2
        verdict = verify_anchorage(events[n], compute_txid(events[n]), ledger)
        assert verdict.kind == "tamper_detected"
        assert verdict.block_number == n // 4
        assert "ledger block 0 " in verdict.detail


def test_verify_anchorage_trusts_blocks_before_the_break(tmp_path):
    events = tampered_chain(tmp_path, 1)
    ledger = make_ledger(tmp_path, max_block_entries=4)
    verdict = verify_anchorage(events[2], compute_txid(events[2]), ledger)
    assert verdict.kind == "verified" and verdict.block_number == 0
    verdict = verify_anchorage(events[9], compute_txid(events[9]), ledger)
    assert verdict.kind == "tamper_detected" and "ledger block 1 " in verdict.detail
    assert ledger.verify_chain() == (False, 1)


def test_a_renumbered_block_is_refused_on_load(tmp_path):
    """A stored number that is not the block's position would hide the break."""
    tampered_chain(tmp_path, 0, renumber_to=99)
    with pytest.raises(AnchorError, match="block 99 is stored at position 0"):
        make_ledger(tmp_path, max_block_entries=4)


@pytest.mark.parametrize(
    "edit",
    [
        (b'"block_number":1,', b'"block_number": 1,'),
        (b'"timestamp":"2026', b'"timestamp":"\\u0032026'),
    ],
    ids=["space", "escape"],
)
def test_a_block_edited_to_the_same_content_is_broken(tmp_path, edit):
    """A stored block must be the canonical bytes, not just parse to the same content."""
    events = [canonicalize({"case": "chain", "n": n}) for n in range(10)]
    with make_ledger(tmp_path, max_block_entries=4) as ledger:
        for event in events:
            ledger.submit(compute_txid(event))
    lines = ledger_lines(tmp_path)
    edited = lines[1].replace(*edit)
    assert edited != lines[1] and json.loads(edited) == json.loads(lines[1])
    (tmp_path / "ledger.json").write_bytes(lines[0] + edited + lines[2])
    ledger = make_ledger(tmp_path, max_block_entries=4)
    assert ledger.verify_chain() == (False, 1)
    for n in range(10):
        verdict = verify_anchorage(events[n], compute_txid(events[n]), ledger)
        assert verdict.kind == ("verified" if n < 4 else "tamper_detected")


def test_verdicts_match_in_an_interpreter_without_numpy_or_yaml(tmp_path):
    """Verification runs on the standard library alone and says the same."""
    events = [canonicalize({"case": "chain", "n": n}) for n in range(10)]
    intact, edited = tmp_path / "intact", tmp_path / "edited"
    for directory in (intact, edited):
        with make_ledger(directory, max_block_entries=4) as ledger:
            for event in events:
                ledger.submit(compute_txid(event))
    lines = ledger_lines(edited)
    block = lines[1].replace(b'"block_number":1,', b'"block_number": 1,')
    (edited / "ledger.json").write_bytes(lines[0] + block + lines[2])
    flipped = bytearray(events[0])
    flipped[10] ^= 0x01
    stray = canonicalize({"case": "never submitted"})
    cases = {
        "intact": (intact, events[0], compute_txid(events[0])),
        "flipped_byte": (intact, bytes(flipped), compute_txid(events[0])),
        "unknown_txid": (intact, stray, compute_txid(stray)),
        "same_content_block_edit": (edited, events[5], compute_txid(events[5])),
    }
    in_process = {
        name: verify_anchorage(event, txid, make_ledger(directory, max_block_entries=4)).as_dict()
        for name, (directory, event, txid) in cases.items()
    }
    program = """
import json, sys
sys.modules["numpy"] = sys.modules["yaml"] = None
from affectfuse.audit.ledger import SimulatedLedger, verify_anchorage
verdicts = {}
for name, (directory, event, txid) in json.loads(sys.argv[1]).items():
    ledger = SimulatedLedger(directory + "/ledger.json", directory + "/pending.json")
    verdicts[name] = verify_anchorage(bytes.fromhex(event), txid, ledger).as_dict()
print(json.dumps(verdicts))
"""
    arg = {name: (str(d), event.hex(), txid) for name, (d, event, txid) in cases.items()}
    assert json.loads(run_python(program, json.dumps(arg))) == in_process
    assert {name: v["verdict"] for name, v in in_process.items()} == {
        "intact": "verified",
        "flipped_byte": "tamper_detected",
        "unknown_txid": "not_anchored",
        "same_content_block_edit": "tamper_detected",
    }


def hash_calls():
    return mock.patch.object(ledger_mod, "_content_hash", wraps=ledger_mod._content_hash)


def test_verify_chain_hashes_each_block_once(tmp_path):
    events = [canonicalize({"case": "chain", "n": n}) for n in range(10)]
    with make_ledger(tmp_path, max_block_entries=4) as ledger:
        for event in events[:8]:
            ledger.submit(compute_txid(event))
    with hash_calls() as hashed:
        ledger = make_ledger(tmp_path, max_block_entries=4)
        assert hashed.call_count == 2
        hashed.reset_mock()
        for n in range(8):
            assert verify_anchorage(events[n], compute_txid(events[n]), ledger).kind == "verified"
        assert ledger.verify_chain() == (True, None)
        for event in events[8:]:
            ledger.submit(compute_txid(event))
        ledger.seal_pending()  # a block this instance seals is correct as written
        assert verify_anchorage(events[9], compute_txid(events[9]), ledger).kind == "verified"
        assert ledger.verify_chain() == (True, None)
        assert hashed.call_count == 0


def test_verify_anchorage_unavailable():
    event = canonicalize({"case": "nowhere"})
    verdict = verify_anchorage(event, compute_txid(event), None)
    assert verdict.kind == "unavailable"


def test_auto_seal_background_thread(tmp_path):
    with make_ledger(tmp_path, block_interval=0.1, auto_seal=True) as ledger:
        ledger.submit(txid_of(1))
        deadline = time.time() + 3.0
        while time.time() < deadline:
            if ledger.status(txid_of(1)).status == "anchored":
                break
            time.sleep(0.02)
        assert ledger.status(txid_of(1)).status == "anchored"


def test_a_failed_seal_is_retried_by_the_seal_thread(tmp_path, caplog):
    append = ledger_mod.Journal.append
    failed = []

    def fail_once_for_the_ledger(journal, data):
        if journal.path.name == "ledger.json" and not failed:
            failed.append(data)
            raise OSError(errno.ENOSPC, "No space left on device")
        append(journal, data)

    with mock.patch.object(ledger_mod.Journal, "append", fail_once_for_the_ledger):
        with make_ledger(tmp_path, block_interval=0.05, auto_seal=True) as ledger:
            ledger.submit(txid_of(1))
            deadline = time.time() + 3.0
            while time.time() < deadline and ledger.status(txid_of(1)).status != "anchored":
                time.sleep(0.02)
            assert failed and ledger.status(txid_of(1)).status == "anchored"
            assert ledger._thread.is_alive()
    assert str(ledger.ledger_path) in caplog.text


def test_resubmitting_an_anchored_txid_writes_no_pending_line(tmp_path):
    with make_ledger(tmp_path) as ledger:
        ledger.submit(txid_of(1))
        ledger.seal_pending()
        anchored = ledger.status(txid_of(1))
        assert ledger.submit(txid_of(1)) == anchored
        assert anchored.status == "anchored"
        assert (tmp_path / "pending.json").read_bytes() == b""


def test_cost_arithmetic_single_anchor():
    cost = estimate_anchor_cost(47000, 50, 3445, batch_size=1)
    assert cost == pytest.approx(8.096, abs=0.001)


def test_cost_zero_on_testnet():
    assert estimate_anchor_cost(47000, 0, 3445) == 0.0


def test_cost_amortized_by_batching():
    cost = estimate_anchor_cost(47000, 50, 3445, batch_size=1000)
    assert cost == pytest.approx(0.0081, abs=0.0002)
    assert cost < 0.01


def test_golden_block_hashes(tmp_path):
    with make_ledger(tmp_path, max_block_entries=3) as ledger:
        for n in range(7):
            ledger.submit(txid_of(n))
        while ledger.seal_pending() is not None:
            pass
        assert [(b.block_number, len(b.entries), b.block_hash) for b in ledger.blocks] == [
            (0, 3, "7a6d966b1e2a838ff49e0b2403fb07cc693f5975a6dd93a688217f8af1d90bd9"),
            (1, 3, "056ad32b1ba2514477c5ad08c703a59d76e40dc71d6113e01db54d627d55418e"),
            (2, 1, "c02040e6690679544159ae4c7a18061ee0bd635da4b8a1d411bae9ea5f8bb5a6"),
        ]
    ledger_file = (tmp_path / "ledger.json").read_bytes()
    assert hashlib.sha256(ledger_file).hexdigest() == "3d432ff76ac321fc4dd28cb9cb298972dc7bb8775ac4080b2496d346f978f36b"


# --- append-only journals ---------------------------------------------------------------


def ledger_lines(tmp_path):
    return (tmp_path / "ledger.json").read_bytes().splitlines(keepends=True)


@pytest.mark.parametrize("anchored", [0, 2000])
def test_submit_and_seal_cost_is_independent_of_history(tmp_path, anchored):
    ledger_path, pending_path = tmp_path / "ledger.json", tmp_path / "pending.json"
    with make_ledger(tmp_path) as ledger:
        for n in range(anchored):
            ledger.submit(txid_of(n))
        while ledger.seal_pending() is not None:
            pass
        ledger_before = ledger_path.read_bytes() if ledger_path.exists() else b""
        pending_before = pending_path.stat().st_size if pending_path.exists() else 0
        ledger.submit(txid_of(anchored))
        ledger.submit(txid_of(anchored))
        assert pending_path.stat().st_size == pending_before + 65
        assert (ledger_path.read_bytes() if ledger_path.exists() else b"") == ledger_before
        ledger.seal_pending()
        lines = ledger_lines(tmp_path)
        assert b"".join(lines[:-1]) == ledger_before
        assert json.loads(lines[-1])["entries"][0]["txid"] == txid_of(anchored)
        assert pending_path.read_bytes() == b""


@pytest.mark.parametrize("cut", [1, 2, 100, -4])
def test_torn_block_append_is_skipped_and_resealed(tmp_path, cut):
    pending_path = tmp_path / "pending.json"
    with make_ledger(tmp_path) as ledger:
        for n in range(3):
            ledger.submit(txid_of(n))
        ledger.seal_pending()
        ledger.submit(txid_of(3))
        ledger.submit(txid_of(4))
        queued = pending_path.read_bytes()
        ledger.seal_pending()
    intact = (tmp_path / "ledger.json").read_bytes()
    # Crash while appending block 1: its line loses its last ``cut`` bytes (a
    # negative cut keeps only -cut bytes) and the pending file is not compacted.
    torn_end = len(intact) - cut if cut > 0 else len(ledger_lines(tmp_path)[0]) - cut
    (tmp_path / "ledger.json").write_bytes(intact[:torn_end])
    pending_path.write_bytes(queued)
    with make_ledger(tmp_path) as reopened:
        assert len(reopened.blocks) == 1
        assert reopened.pending == (txid_of(3), txid_of(4))
        reopened.seal_pending()
    assert (tmp_path / "ledger.json").read_bytes() == intact
    with make_ledger(tmp_path) as again:
        assert again.verify_chain() == (True, None)
        assert again.status(txid_of(4)).block_number == 1


def test_crash_before_pending_compaction_drops_anchored_txids(tmp_path):
    pending_path = tmp_path / "pending.json"
    with make_ledger(tmp_path) as ledger:
        ledger.submit(txid_of(1))
        queued = pending_path.read_bytes()
        ledger.seal_pending()
    pending_path.write_bytes(queued)
    with make_ledger(tmp_path) as reopened:
        assert reopened.pending == ()
        assert reopened.status(txid_of(1)).status == "anchored"
        assert reopened.seal_pending() is None


def test_torn_pending_line_is_dropped_and_cut(tmp_path):
    pending_path = tmp_path / "pending.json"
    ledger = make_ledger(tmp_path)
    ledger.submit(txid_of(1))
    ledger.submit(txid_of(2))
    # Crash mid-submit: the instance is dropped without close().
    with pending_path.open("ab") as handle:
        handle.write(txid_of(3)[:30].encode())
    reopened = make_ledger(tmp_path)
    assert reopened.pending == (txid_of(1), txid_of(2))
    reopened.submit(txid_of(4))
    assert pending_path.read_bytes() == "".join(txid_of(n) + "\n" for n in (1, 2, 4)).encode()
    assert (tmp_path / "pending.json.torn").read_bytes() == b"130 " + txid_of(3)[:30].encode() + b"\n"
    reopened.close()
    assert reopened.status(txid_of(4)).status == "anchored"
    assert reopened.status(txid_of(3)).status == "disabled"


def test_pending_rewrite_moves_a_torn_tail_and_refuses_a_second_writer(tmp_path):
    pending_path = tmp_path / "pending.json"
    make_ledger(tmp_path).submit(txid_of(1))
    with pending_path.open("ab") as handle:  # a crash mid-submit
        handle.write(txid_of(2)[:30].encode())
    ledger = make_ledger(tmp_path)
    ledger.seal_pending()
    assert pending_path.read_bytes() == b""
    assert (tmp_path / "pending.json.torn").read_bytes() == b"65 " + txid_of(2)[:30].encode() + b"\n"
    ledger.submit(txid_of(3))
    make_ledger(tmp_path).submit(txid_of(4))
    with pytest.raises(AnchorError, match="pending.json"):
        ledger.seal_pending()
    assert pending_path.read_bytes() == (txid_of(3) + "\n" + txid_of(4) + "\n").encode()


def test_append_that_fails_part_way_is_cut_back(tmp_path):
    pending_path = tmp_path / "pending.json"
    ledger = make_ledger(tmp_path)
    ledger.submit(txid_of(1))
    # A file-size limit lets the next append write 30 of its 65 bytes, then fail.
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (65 + 30, limits[1]))
    try:
        with pytest.raises(OSError):
            ledger.submit(txid_of(2))
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
        signal.signal(signal.SIGXFSZ, handler)
    assert pending_path.stat().st_size == 65 + 30
    assert ledger.pending == (txid_of(1),)
    ledger.submit(txid_of(3))
    assert pending_path.read_bytes() == (txid_of(1) + "\n" + txid_of(3) + "\n").encode()


def test_second_writer_fails_loudly(tmp_path):
    first, second = make_ledger(tmp_path), make_ledger(tmp_path)
    first.submit(txid_of(1))
    first.seal_pending()
    second.submit(txid_of(2))
    with pytest.raises(AnchorError, match="ledger.json"):
        second.seal_pending()
    with pytest.raises(AnchorError, match="pending.json"):
        first.submit(txid_of(3))
    reopened = make_ledger(tmp_path)
    assert [block.block_number for block in reopened.blocks] == [0]
    assert reopened.verify_chain() == (True, None)


@pytest.mark.parametrize(
    "name, data",
    [
        ("ledger.json", b"not json\n"),
        ("ledger.json", b'{"block_number":0}\n'),
        ("ledger.json", b'{"blocks":[]}'),
        ("pending.json", b"NOT-HEX\n"),
        ("pending.json", (txid_of(1)[:63] + "\n").encode()),
        ("pending.json", b'{"pending":[]}'),
    ],
)
def test_corrupt_journal_lines_raise(tmp_path, name, data):
    (tmp_path / name).write_bytes(data)
    with pytest.raises(AnchorError):
        make_ledger(tmp_path)


def test_concurrent_submits_with_background_sealing(tmp_path):
    expected = [txid_of(1000 * worker + n) for worker in range(4) for n in range(150)]

    def submit_all(worker):
        for n in range(150):
            ledger.submit(txid_of(1000 * worker + n))
            ledger.submit(txid_of(1000 * worker + n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with make_ledger(tmp_path, block_interval=0.01, max_block_entries=7, auto_seal=True) as ledger:
            threads = [threading.Thread(target=submit_all, args=(worker,)) for worker in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    reopened = make_ledger(tmp_path)
    sealed = [entry.txid for block in reopened.blocks for entry in block.entries]
    assert sorted(sealed) == sorted(expected)
    assert reopened.pending == ()
    assert reopened.verify_chain() == (True, None)


def test_concurrent_chain_checks_hash_each_block_once(tmp_path):
    chains, found = set(), []

    def check():
        start.wait(timeout=10)
        for n in range(20):
            chains.add(ledger.verify_chain())
            found.append(ledger.lookup(txid_of(n)))

    def seal():
        start.wait(timeout=10)
        for n in range(20, 40):
            ledger.submit(txid_of(n))
            ledger.seal_pending()

    with make_ledger(tmp_path, max_block_entries=1) as ledger:
        for n in range(20):
            ledger.submit(txid_of(n))
    with hash_calls() as hashed:
        ledger = make_ledger(tmp_path, max_block_entries=1)
        assert hashed.call_count == 20
        hashed.reset_mock()
        start = threading.Barrier(5)
        threads = [threading.Thread(target=check) for _ in range(4)] + [threading.Thread(target=seal)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert hashed.call_count == 0
    assert chains == {(True, None)}
    assert len(found) == 80 and all(hit is not None and hit[3] is None for hit in found)
    assert make_ledger(tmp_path).verify_chain() == (True, None)


class _Crash(Exception):
    pass


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 24)),
        st.tuples(st.just("seal"), st.just(0)),
        st.tuples(st.sampled_from(["drop", "mid_seal", "torn_block", "torn_submit"]), st.integers(1, 400)),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(steps=_STEPS, max_block_entries=st.integers(1, 5))
def test_crash_restart_anchors_every_submitted_txid_once(steps, max_block_entries):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        submitted = set()
        ledger = make_ledger(tmp_path, max_block_entries=max_block_entries)
        for kind, arg in steps:
            if kind == "submit":
                ledger.submit(txid_of(arg))
                submitted.add(txid_of(arg))
            elif kind == "seal":
                ledger.seal_pending()
            else:  # crash: drop the instance without close(), then restart
                if kind in ("mid_seal", "torn_block") and ledger.pending:
                    # The block line is appended, then the pending rewrite crashes.
                    with mock.patch.object(ledger_mod.Journal, "rewrite", side_effect=_Crash):
                        with pytest.raises(_Crash):
                            ledger.seal_pending()
                    if kind == "torn_block":  # and the block append itself was cut short
                        data = (tmp_path / "ledger.json").read_bytes()
                        last = len(data.splitlines(keepends=True)[-1])
                        (tmp_path / "ledger.json").write_bytes(data[: len(data) - min(arg, last)])
                elif kind == "torn_submit":  # the append is cut short, so submit never returns
                    ledger.submit(txid_of(1000 + arg))
                    data = (tmp_path / "pending.json").read_bytes()
                    (tmp_path / "pending.json").write_bytes(data[: len(data) - 1 - arg % 65])
                ledger = make_ledger(tmp_path, max_block_entries=max_block_entries)
        ledger.close()
        reopened = make_ledger(tmp_path, max_block_entries=max_block_entries)
        sealed = [entry.txid for block in reopened.blocks for entry in block.entries]
        assert len(sealed) == len(set(sealed))
        assert set(sealed) == submitted
        assert reopened.pending == ()
        assert reopened.verify_chain() == (True, None)
