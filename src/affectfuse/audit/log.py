"""Append-only JSONL audit log.

One canonical event per line. Appends are serialized through a lock and
written with a single O_APPEND write so concurrent turns never tear or
interleave lines. A failed append is fatal for the turn: an inference that
cannot be audited must not return silently.

Reads go through a table of line-start offsets, so fetching any line costs
one ``pread`` however long the log is.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
from array import array
from dataclasses import dataclass, field
from pathlib import Path

log = logging.getLogger(__name__)

_SCAN_CHUNK = 1 << 20


class AuditWriteError(OSError):
    """The audit log could not be appended to."""


def _line_starts(fd: int, size: int) -> array:
    """Offset 0 and the offset just past every newline in the first ``size`` bytes.

    Line ``k`` (1-based) starts at entry ``k - 1``. The last entry is ``size``
    unless the file ends in a line without its newline.
    """
    starts = array("q", [0])
    for base in range(0, size, _SCAN_CHUNK):
        chunk = os.pread(fd, min(_SCAN_CHUNK, size - base), base)
        at = chunk.find(b"\n")
        while at != -1:
            starts.append(base + at + 1)
            at = chunk.find(b"\n", at + 1)
    return starts


@dataclass(frozen=True)
class _OpenFile:
    """An open file, equal to another only when its fstat state is the same.

    ``ctime`` cannot be set from user space, so an append, rewrite, truncation
    or ``os.replace`` changes the key and the cached index is rebuilt. Where
    the kernel keeps coarse timestamps, a rewrite that keeps the size within
    one clock tick of the last lookup keeps the key too.
    """

    dev: int
    ino: int
    size: int
    mtime_ns: int
    ctime_ns: int
    fd: int = field(compare=False)


@functools.lru_cache(maxsize=4)
def _line_index(opened: _OpenFile) -> array:
    return _line_starts(opened.fd, opened.size)


class AuditLog:
    """Single-writer append handle for one JSONL file.

    The handle keeps the byte size the log had after its last append; an
    append that finds the file another size raises :class:`AuditWriteError`
    instead of returning a line number another writer may have taken.

    Opening a log whose last line has no newline (a crash mid-append) moves
    that fragment to ``<log>.torn`` as ``<byte offset> <bytes>\\n`` and cuts the
    log back to its last complete line, so the next event starts a new line.
    """

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_APPEND | os.O_CREAT | os.O_RDWR, 0o644)
            try:
                size = os.fstat(self._fd).st_size
                starts = _line_starts(self._fd, size)
                if starts[-1] < size:
                    self._quarantine_torn_tail(starts[-1], size)
            except OSError:
                os.close(self._fd)
                raise
        except OSError as exc:
            raise AuditWriteError(f"cannot open audit log {self.path}: {exc}") from exc
        self._lines = len(starts) - 1
        self._size = starts[-1]

    def _quarantine_torn_tail(self, offset: int, size: int) -> None:
        fragment = os.pread(self._fd, size - offset, offset)
        torn = self.path.with_name(self.path.name + ".torn")
        with open(torn, "ab") as handle:
            handle.write(b"%d %s\n" % (offset, fragment))
            handle.flush()
            os.fsync(handle.fileno())
        os.ftruncate(self._fd, offset)
        log.warning(
            "audit log %s ended in a torn line: moved %d bytes at offset %d to %s",
            self.path, len(fragment), offset, torn,
        )

    def append(self, canonical_bytes: bytes) -> int:
        """Append one canonical event and return its 1-based line number."""
        if b"\n" in canonical_bytes:
            raise AuditWriteError("canonical event bytes must not contain newlines")
        line = canonical_bytes + b"\n"
        with self._lock:
            try:
                size = os.fstat(self._fd).st_size
                if size == self._size:
                    written = os.write(self._fd, line)
            except OSError as exc:
                raise AuditWriteError(f"append to {self.path} failed: {exc}") from exc
            if size != self._size:
                raise AuditWriteError(
                    f"{self.path} is {size} bytes, not the {self._size} this log left: "
                    "another writer appends to it"
                )
            self._size += written
            if written != len(line):
                raise AuditWriteError(f"short write to {self.path}")
            self._lines += 1
            return self._lines

    def close(self) -> None:
        try:
            os.close(self._fd)
        except OSError:
            pass

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_event_line(log_path: str, line_number: int) -> bytes:
    """Return the exact bytes of one event line (without the newline).

    A last line without its newline is returned as it stands.
    """
    fd = os.open(log_path, os.O_RDONLY)
    try:
        st = os.fstat(fd)
        opened = _OpenFile(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns, fd)
        starts = _line_index(opened)
        if 1 <= line_number < len(starts):
            start, stop = starts[line_number - 1], starts[line_number] - 1
        elif line_number == len(starts) and starts[-1] < opened.size:
            start, stop = starts[-1], opened.size
        else:
            raise AuditWriteError(f"{log_path} has no line {line_number}")
        return os.pread(fd, stop - start, start)
    finally:
        os.close(fd)
