from __future__ import annotations

import json
import logging
import os
import random
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

from affectfuse.audit import log as log_mod
from affectfuse.audit.canonical import canonicalize
from affectfuse.audit.log import AuditLog, AuditWriteError, read_event_line


def test_first_append_is_line_one(tmp_path):
    path = tmp_path / "events.jsonl"
    with AuditLog(str(path)) as log:
        assert log.append(canonicalize({"n": 1})) == 1


def test_sequential_appends_preserve_order(tmp_path):
    path = tmp_path / "events.jsonl"
    with AuditLog(str(path)) as log:
        for n in range(1, 21):
            assert log.append(canonicalize({"n": n})) == n
    lines = path.read_bytes().splitlines()
    assert [json.loads(line)["n"] for line in lines] == list(range(1, 21))


def test_line_count_resumes_on_reopen(tmp_path):
    path = tmp_path / "events.jsonl"
    with AuditLog(str(path)) as log:
        log.append(canonicalize({"n": 1}))
    with AuditLog(str(path)) as log:
        assert log.append(canonicalize({"n": 2})) == 2


def test_second_handle_on_the_same_log_is_refused(tmp_path):
    path = tmp_path / "events.jsonl"
    with AuditLog(str(path)) as first, AuditLog(str(path)) as second:
        assert first.append(canonicalize({"n": 1})) == 1
        with pytest.raises(AuditWriteError, match=r"events\.jsonl is 8 bytes, not the 0 this log left") as err:
            second.append(canonicalize({"n": 2}))
        assert "failed" not in str(err.value)
        assert first.append(canonicalize({"n": 3})) == 2
    assert [json.loads(line)["n"] for line in path.read_bytes().splitlines()] == [1, 3]


def test_newline_in_payload_rejected(tmp_path):
    with AuditLog(str(tmp_path / "e.jsonl")) as log:
        with pytest.raises(AuditWriteError):
            log.append(b'{"a":\n1}')


def test_concurrent_appends_never_tear(tmp_path):
    path = tmp_path / "events.jsonl"
    per_worker = 200
    with AuditLog(str(path)) as log:
        def work(worker):
            for i in range(per_worker):
                log.append(canonicalize({"worker": worker, "i": i, "pad": "x" * 64}))

        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    lines = path.read_bytes().splitlines()
    assert len(lines) == 8 * per_worker
    seen = set()
    for line in lines:
        record = json.loads(line)  # would fail on a torn line
        seen.add((record["worker"], record["i"]))
    assert len(seen) == 8 * per_worker


def test_unwritable_path_fatal(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(AuditWriteError):
        AuditLog(str(blocker / "events.jsonl"))


def test_read_event_line(tmp_path):
    path = tmp_path / "events.jsonl"
    first = canonicalize({"n": 1})
    second = canonicalize({"n": 2})
    with AuditLog(str(path)) as log:
        log.append(first)
        log.append(second)
    assert read_event_line(str(path), 1) == first
    assert read_event_line(str(path), 2) == second
    with pytest.raises(AuditWriteError):
        read_event_line(str(path), 3)


# --- torn tail --------------------------------------------------------------------------


def test_torn_last_line_is_quarantined_on_open(tmp_path, caplog):
    path = tmp_path / "events.jsonl"
    complete = canonicalize({"n": 1}) + b"\n" + canonicalize({"n": 2}) + b"\n"
    fragment = canonicalize({"n": 3, "text": "se cort\u00f3"})[:-3]  # cut inside the last character
    path.write_bytes(complete + fragment)
    with caplog.at_level(logging.WARNING, logger="affectfuse.audit.log"):
        with AuditLog(str(path)) as log:
            assert log.append(canonicalize({"n": 4})) == 3
    assert "torn" in caplog.text
    assert [json.loads(line)["n"] for line in path.read_bytes().splitlines()] == [1, 2, 4]
    assert (tmp_path / "events.jsonl.torn").read_bytes() == b"%d %s\n" % (len(complete), fragment)
    with AuditLog(str(path)) as log:
        assert log.append(canonicalize({"n": 5})) == 4
    assert (tmp_path / "events.jsonl.torn").read_bytes().count(b"\n") == 1


def test_append_that_fails_part_way_is_cut_back(tmp_path):
    path = tmp_path / "events.jsonl"
    first, second, third = (canonicalize({"event": name}) for name in "abc")
    with AuditLog(str(path)) as log:
        assert log.append(first) == 1
        # A file-size limit lets the next append write 4 of its bytes, then fail.
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (len(first) + 1 + 4, limits[1]))
        try:
            with pytest.raises(AuditWriteError):
                log.append(second)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        assert path.stat().st_size == len(first) + 1 + 4
        assert log.append(third) == 2
    assert read_event_line(str(path), 2) == third
    assert path.read_bytes() == first + b"\n" + third + b"\n"
    assert (tmp_path / "events.jsonl.torn").read_bytes() == b"%d %s\n" % (len(first) + 1, second[:4])


# --- line index ---------------------------------------------------------------------------


def read_line_by_scan(log_path, line_number):
    """The original lookup, kept as the oracle: iterate the file from line 1."""
    with open(log_path, "rb") as handle:
        for current, line in enumerate(handle, start=1):
            if current == line_number:
                return line.rstrip(b"\n")
    raise AuditWriteError(f"{log_path} has no line {line_number}")


def lookup(reader, path, line_number):
    try:
        return reader(str(path), line_number)
    except AuditWriteError:
        return AuditWriteError


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(st.sampled_from([b"\n", b"\r", b"\r\n", b"a", b"{}", b"\xff", b"\xc3", b"\x00"]), max_size=60),
    extra=st.lists(st.integers(-3, 3), max_size=4),
)
def test_read_event_line_matches_scan(data, extra):
    content = b"".join(data)
    lines = content.count(b"\n") + (not content.endswith(b"\n") and content != b"")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        path.write_bytes(content)
        for line_number in [0, -1, 1, lines, lines + 1, *(lines + k for k in extra)]:
            assert lookup(read_event_line, path, line_number) == lookup(read_line_by_scan, path, line_number)


def count_table_builds():
    """Patch the one line-table builder with a spy that counts its calls."""
    return mock.patch.object(log_mod, "_line_starts", wraps=log_mod._line_starts)


def test_index_is_rebuilt_when_the_file_changes(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(b"aa\nbb\ncc\n")
    with count_table_builds() as builds:
        assert read_event_line(str(path), 2) == b"bb"
        assert read_event_line(str(path), 3) == b"cc"
        assert builds.call_count == 1

        with AuditLog(str(path)) as log:  # append
            log.append(b"dd")
        assert read_event_line(str(path), 4) == b"dd"

        # Kernels without fine-grained timestamps advance mtime/ctime once per
        # clock tick, so let one pass before a rewrite that keeps the size.
        time.sleep(0.05)
        with open(path, "r+b") as handle:  # same size, newlines moved
            handle.write(b"a\nabb\ncc")
        assert read_event_line(str(path), 1) == b"a"
        assert read_event_line(str(path), 2) == b"abb"

        with open(path, "r+b") as handle:  # truncation
            handle.truncate(4)
        assert read_event_line(str(path), 2) == b"ab"
        with pytest.raises(AuditWriteError):
            read_event_line(str(path), 3)

        replacement = tmp_path / "replacement.jsonl"
        replacement.write_bytes(b"x\nyy\n")
        inode = path.stat().st_ino
        os.replace(replacement, path)
        assert path.stat().st_ino != inode
        assert read_event_line(str(path), 2) == b"yy"
    assert builds.call_count == 5


def test_lookups_build_the_index_once_and_read_one_line_each(tmp_path):
    path = tmp_path / "events.jsonl"
    events = [canonicalize({"n": n, "pad": "x" * (n % 97)}) for n in range(2000)]
    with AuditLog(str(path)) as log:
        for event in events:
            log.append(event)
    with count_table_builds() as builds, mock.patch.object(os, "pread", wraps=os.pread) as spy:
        assert read_event_line(str(path), 1) == events[0]
        spy.reset_mock()
        for line_number in range(2000, 0, -1):
            assert read_event_line(str(path), line_number) == events[line_number - 1]
    assert builds.call_count == 1
    assert [c.args[1] for c in spy.call_args_list] == [len(event) for event in reversed(events)]


# --- cached read descriptors ----------------------------------------------------------------


def descriptors_on(paths):
    """How many of this process's descriptors point at one of ``paths``."""
    targets = {os.path.realpath(p) for p in paths}
    fds = Path("/proc/self/fd")
    count = 0
    for entry in fds.iterdir():
        try:
            target = os.readlink(entry)
        except OSError:  # the descriptor listdir itself used, closed since
            continue
        count += target.removesuffix(" (deleted)") in targets
    return count


needs_proc = pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")


@needs_proc
def test_only_the_last_log_read_keeps_a_descriptor(tmp_path):
    log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    log_a.write_bytes(b"a-1\na-2\n")
    log_b.write_bytes(b"b-1\nb-2\n")
    for path, line_number, expected in ((log_a, 2, b"a-2"), (log_b, 1, b"b-1"), (log_a, 1, b"a-1")):
        assert read_event_line(str(path), line_number) == expected
        assert descriptors_on([log_a, log_b]) == 1
        assert descriptors_on([path]) == 1


@needs_proc
def test_deleted_log_raises_and_keeps_no_descriptor(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(b"a\nb\n")
    assert read_event_line(str(path), 2) == b"b"
    assert descriptors_on([path]) == 1
    path.unlink()
    with pytest.raises(FileNotFoundError):
        read_event_line(str(path), 2)
    assert descriptors_on([path]) == 0


@needs_proc
def test_reading_another_log_closes_a_deleted_logs_descriptor(tmp_path):
    log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    log_a.write_bytes(b"a\n")
    log_b.write_bytes(b"b\n")
    assert read_event_line(str(log_a), 1) == b"a"
    log_a.unlink()
    assert read_event_line(str(log_b), 1) == b"b"
    assert descriptors_on([log_a]) == 0
    assert descriptors_on([log_b]) == 1


def test_log_replaced_with_same_shape_is_read_from_the_new_file(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(b"old-1\nold-2\n")
    assert read_event_line(str(path), 2) == b"old-2"
    replacement = tmp_path / "replacement.jsonl"
    replacement.write_bytes(b"new-1\nnew-2\n")
    os.replace(replacement, path)
    assert read_event_line(str(path), 1) == b"new-1"
    assert read_event_line(str(path), 2) == b"new-2"
    if Path("/proc/self/fd").is_dir():
        assert descriptors_on([path]) == 1  # the replaced file's descriptor is closed


def test_concurrent_reads_see_the_appended_bytes(tmp_path):
    paths = [tmp_path / "events-a.jsonl", tmp_path / "events-b.jsonl"]
    written = {path: [] for path in paths}
    logs = {path: AuditLog(str(path)) for path in paths}
    done = threading.Event()
    failures = []

    def append(n):
        path = paths[n % 2]
        event = canonicalize({"n": n, "pad": "y" * (n % 31)})
        assert logs[path].append(event) == len(written[path]) + 1
        written[path].append(event)  # only now may readers ask for it

    def writer():
        try:
            for n in range(2, 300):
                append(n)
                time.sleep(0.0005)  # let the readers hit the cached entry between appends
        except BaseException as exc:
            failures.append(exc)
        finally:
            done.set()

    def reader(seed):
        rng = random.Random(seed)
        reads = 0
        try:
            while not done.is_set() or reads < 200:
                path = rng.choice(paths)
                line_number = rng.randint(1, len(written[path]))
                assert read_event_line(str(path), line_number) == written[path][line_number - 1]
                reads += 1
        except BaseException as exc:
            failures.append(exc)

    append(0)
    append(1)
    threads = [threading.Thread(target=reader, args=(seed,), daemon=True) for seed in range(4)]
    threads.append(threading.Thread(target=writer, daemon=True))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the cache's critical sections too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert sum(len(events) for events in written.values()) == 300
