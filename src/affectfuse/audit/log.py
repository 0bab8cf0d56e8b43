"""Append-only JSONL audit log.

One canonical event per line. The log is a :class:`Journal`, the line file
class the ledger's two files use too. Appends are serialized through a lock,
and each is one ``write`` to a descriptor opened with ``O_APPEND``, so
concurrent turns never tear or interleave lines. A failed append is fatal
for the turn: an inference that cannot be audited must not return silently.

Reads go through a table of line-start offsets, so fetching any line costs
one ``stat`` and one ``pread`` however long the log is. The table is kept
with the read-only descriptor it was built from, for the last log read only:
reading another log, or a changed one, closes that descriptor. The cached
descriptor is read and closed only under ``_reader_lock``, so no thread
reads one that another has closed.
"""

from __future__ import annotations

import logging
import os
import threading
from array import array
from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple, Type

log = logging.getLogger(__name__)

_SCAN_CHUNK = 1 << 20
_APPEND_FLAGS = os.O_APPEND | os.O_CREAT | os.O_RDWR

# (log path, stat key, read-only descriptor, line starts) of the last log read.
_reader: Optional[Tuple[str, tuple, int, array]] = None
_reader_lock = threading.Lock()


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


class Journal:
    """An append-only file of ``\\n``-terminated lines with a single writer.

    The only other write, :meth:`truncate`, cuts it to zero bytes. A last
    line without its ``\\n`` is torn (a crash mid-append): reading skips it
    and changes nothing. Before each write the file must still have the size
    this instance last read or wrote, else ``error`` is raised. A torn tail,
    or what reached the file of a failed append, is then moved to
    ``<file>.torn`` as ``<byte offset> <bytes>\\n`` and cut off.
    """

    def __init__(self, path: Path, error: Type[Exception], torn_ok: Optional[Callable[[bytes], object]] = None):
        self.path = path
        self._error = error
        self._torn_ok = torn_ok
        self._size: Optional[int] = 0  # unknown after a failed write
        self._end = 0  # where the last complete line ends

    def open(self) -> int:
        """A new descriptor for appending; the file and its directory are created if missing."""
        try:
            return os.open(self.path, _APPEND_FLAGS, 0o644)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(self.path, _APPEND_FLAGS, 0o644)

    def lines(self) -> Iterator[bytes]:
        """Stream the complete lines; a torn last line that ``torn_ok`` rejects raises ``ValueError``."""
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            return
        with handle:
            end = 0
            for line in handle:
                if not line.endswith(b"\n"):
                    if self._torn_ok is not None and not self._torn_ok(line):
                        raise ValueError(f"incomplete last line is not a record prefix: {line[:40]!r}")
                    break
                end += len(line)
                yield line[:-1]
            self._end, self._size = end, handle.tell()

    def _prepare_write(self, fd: int) -> None:
        """The checks every write runs first; the size is unknown until the write succeeds."""
        size = os.fstat(fd).st_size
        if self._size is not None and size != self._size:
            raise self._error(
                f"{self.path} is {size} bytes, not the {self._size} this log left: another writer appends to it"
            )
        if self._end < size:
            fragment = os.pread(fd, size - self._end, self._end)
            torn = self.path.with_name(self.path.name + ".torn")
            with open(torn, "ab") as handle:
                handle.write(b"%d %s\n" % (self._end, fragment))
                handle.flush()
                os.fsync(handle.fileno())
            os.ftruncate(fd, self._end)
            log.warning("%s ended in a torn line: moved %d bytes at offset %d to %s",
                        self.path, len(fragment), self._end, torn)
        self._size = None

    def append(self, data: bytes) -> None:
        """Append ``data``, one or more complete lines."""
        fd = self.open()
        try:
            self._prepare_write(fd)
            if os.write(fd, data) != len(data):
                raise OSError(f"short write to {self.path}")
        finally:
            os.close(fd)
        self._end = self._size = self._end + len(data)

    def truncate(self) -> None:
        """Cut the file to zero bytes in place, after the checks every write runs."""
        fd = self.open()
        try:
            self._prepare_write(fd)
            os.ftruncate(fd, 0)
        finally:
            os.close(fd)
        self._end = self._size = 0


class AuditLog:
    """Single-writer append handle for one JSONL file, kept as a :class:`Journal`."""

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._journal = Journal(self.path, AuditWriteError)
        try:
            os.close(self._journal.open())
            self._lines = sum(1 for _ in self._journal.lines())
        except OSError as exc:
            raise AuditWriteError(f"cannot open audit log {self.path}: {exc}") from exc

    def append(self, canonical_bytes: bytes) -> int:
        """Append one canonical event and return its 1-based line number."""
        if b"\n" in canonical_bytes:
            raise AuditWriteError("canonical event bytes must not contain newlines")
        with self._lock:
            try:
                self._journal.append(canonical_bytes + b"\n")
            except AuditWriteError:
                raise
            except OSError as exc:
                raise AuditWriteError(f"append to {self.path} failed: {exc}") from exc
            self._lines += 1
            return self._lines

    def close(self) -> None:
        """Nothing to release: each append opens and closes the file."""

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _stat_key(st: os.stat_result) -> tuple:
    """What must stay equal for a cached line table to still describe the file.

    ``ctime`` cannot be set from user space, so an append, rewrite, truncation
    or ``os.replace`` changes the key. Where the kernel keeps coarse
    timestamps, a rewrite that keeps the size within one clock tick of the
    last lookup keeps the key too.
    """
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _drop_reader() -> None:
    """Close and forget the cached descriptor; hold ``_reader_lock``."""
    global _reader
    if _reader is not None:
        os.close(_reader[2])
        _reader = None


def _pread_line(reader: Tuple[str, tuple, int, array], line_number: int) -> bytes:
    log_path, key, fd, starts = reader
    size = key[2]
    if 1 <= line_number < len(starts):
        start, stop = starts[line_number - 1], starts[line_number] - 1
    elif line_number == len(starts) and starts[-1] < size:
        start, stop = starts[-1], size
    else:
        raise AuditWriteError(f"{log_path} has no line {line_number}")
    return os.pread(fd, stop - start, start)


def read_event_line(log_path: str, line_number: int) -> bytes:
    """Return the exact bytes of one event line (without the newline).

    A last line without its newline is returned as it stands. While the
    path and its :func:`_stat_key` match the last lookup's, a lookup costs
    one ``stat`` and one ``pread``; otherwise the file is reopened and its
    line table rebuilt.
    """
    global _reader
    try:
        key = _stat_key(os.stat(log_path))
    except OSError:
        with _reader_lock:
            if _reader is not None and _reader[0] == log_path:
                _drop_reader()
        raise
    with _reader_lock:
        if _reader is not None and _reader[0] == log_path and _reader[1] == key:
            return _pread_line(_reader, line_number)
    fd = os.open(log_path, os.O_RDONLY)
    try:
        st = os.fstat(fd)  # the table must describe this descriptor's file
        reader = (log_path, _stat_key(st), fd, _line_starts(fd, st.st_size))
    except BaseException:
        os.close(fd)
        raise
    with _reader_lock:
        _drop_reader()  # another log's, a stale one, or cached by another thread meanwhile
        _reader = reader
        return _pread_line(reader, line_number)
