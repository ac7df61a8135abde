"""The one way vcrkit writes a file: atomic replace, or append to a journal.

Every file it writes (agent store, server snapshot, signer state, server
key, exports) holds personal data or a secret, so there is no mode to pick:
files are created 0600 and written durably.

``write_private`` replaces a whole file atomically. A ``Journal`` holds the
records appended after the snapshot in the same file since the snapshot was
last written: the snapshot is one line, and the records follow its newline,
so that a small change costs one append instead of a rewrite, and one rename
replaces snapshot and records together. ``compact`` writes a new snapshot.
The layout (record framing, torn tail) is in ``docs/wire-format.md``.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib

from .errors import CorruptStore

# Each record is framed as CRC-32 of the rest, length, record bytes.
_FRAME = struct.Struct(">II")


def write_private(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``: write a 0600 temp file in the same
    directory, fsync it, rename it over ``path`` and fsync the directory.
    On failure the temp file is removed and ``path`` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{os.path.basename(path)}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _frame(record: bytes) -> bytes:
    body = len(record).to_bytes(4, "big") + record
    return zlib.crc32(body).to_bytes(4, "big") + body


class Journal:
    """The records after the one-line snapshot in the file at ``path``."""

    def __init__(self, path: str, limit: int, size: int = 0) -> None:
        self.path = path
        self._limit = limit  # the snapshot's length
        self._size = size  # bytes after the snapshot, its newline included

    @classmethod
    def read(cls, path: str) -> tuple[bytes, list[bytes], "Journal | None"]:
        """The snapshot, the records after it, and the journal to append
        the next ones to. A last record that is cut short or fails its
        check is dropped; the journal is then None, because the next write
        must not follow the torn bytes and has to be a ``compact``. A bad
        record before the last raises CorruptStore. Writes nothing."""
        with open(path, "rb") as fh:
            data = fh.read()
        snapshot, newline, tail = data.partition(b"\n")
        records, pos = [], 0
        while pos < len(tail):
            if pos + _FRAME.size > len(tail):
                return snapshot, records, None
            check, length = _FRAME.unpack_from(tail, pos)
            end = pos + _FRAME.size + length
            if end > len(tail):
                return snapshot, records, None
            if zlib.crc32(tail[pos + 4 : end]) != check:
                if end == len(tail):
                    return snapshot, records, None
                offset = len(snapshot) + 1 + pos
                raise CorruptStore(f"bad record at byte {offset} of {path}")
            records.append(tail[pos + _FRAME.size : end])
            pos = end
        return snapshot, records, cls(path, len(snapshot), len(newline) + len(tail))

    def append(self, records: list[bytes]) -> bool:
        """Append ``records`` with one write and one fsync; the first append
        after a snapshot also writes its newline. Returns False, writing
        nothing, when the bytes after the snapshot would outgrow it: the
        caller then writes a new snapshot with ``compact``. Opens the file
        O_APPEND, never O_CREAT."""
        data = b"".join(map(_frame, records))
        if not data:
            return True
        if self._size == 0:
            data = b"\n" + data
        if self._size + len(data) > self._limit:
            return False
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            if os.write(fd, data) != len(data):
                raise OSError(f"short append to {self.path}")
            os.fsync(fd)
        finally:
            os.close(fd)
        self._size += len(data)
        return True


def compact(path: str, snapshot: bytes) -> Journal:
    """Write ``snapshot`` over ``path``, records and all; returns the new,
    empty journal."""
    write_private(path, snapshot)
    return Journal(path, len(snapshot))
