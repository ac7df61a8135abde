"""The one way vcrkit writes a file: atomic replace, or append to a journal.

Every file it writes (agent store and its journal, server snapshot, signer
state, server key, exports) holds personal data or a secret, so there is no
mode to pick: files are created 0600 and written durably.

``write_private`` replaces a whole file atomically. A ``Journal`` holds the
records appended to a snapshot file since the snapshot was last written, so
that a small change costs one append instead of a rewrite; ``compact``
writes a new snapshot and drops its journal. The journal layout (header,
record framing, torn tail) is in ``docs/wire-format.md``.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import zlib

from .errors import CorruptStore

JOURNAL_SUFFIX = ".journal"
JOURNAL_MAGIC = b"vcrkit-journal/1"
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
    _fsync_directory(directory)


def _fsync_directory(directory: str) -> None:
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _frame(record: bytes) -> bytes:
    body = len(record).to_bytes(4, "big") + record
    return zlib.crc32(body).to_bytes(4, "big") + body


class Journal:
    """The records appended to the snapshot file at ``path`` since that
    snapshot was written, kept at ``path + JOURNAL_SUFFIX``.

    The journal's header holds the SHA-256 of the snapshot bytes it extends,
    so a journal left over from an older snapshot is ignored, never replayed.
    """

    def __init__(self, path: str, snapshot: bytes) -> None:
        self.path = path + JOURNAL_SUFFIX
        self._header = JOURNAL_MAGIC + hashlib.sha256(snapshot).digest()
        self._limit = len(snapshot)
        self._size = 0  # bytes on disk; 0 while there is no journal file

    @classmethod
    def read(cls, path: str, snapshot: bytes) -> tuple["Journal | None", list[bytes]]:
        """The records of the journal bound to ``snapshot``, and the journal
        to append the next ones to. A last record that is cut short or fails
        its check is dropped; the journal is then None, because the next
        write must not follow the torn bytes and has to be a ``compact``. A
        bad record before the last raises CorruptStore. Writes nothing."""
        journal = cls(path, snapshot)
        try:
            with open(journal.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return journal, []
        if not data.startswith(journal._header):
            return journal, []  # stale: extends another snapshot
        records, pos = [], len(journal._header)
        while pos < len(data):
            if pos + _FRAME.size > len(data):
                return None, records
            check, length = _FRAME.unpack_from(data, pos)
            end = pos + _FRAME.size + length
            if end > len(data):
                return None, records
            if zlib.crc32(data[pos + 4 : end]) != check:
                if end == len(data):
                    return None, records
                raise CorruptStore(f"bad record at byte {pos} of {journal.path}")
            records.append(data[pos + _FRAME.size : end])
            pos = end
        journal._size = len(data)
        return journal, records

    def append(self, records: list[bytes]) -> bool:
        """Append ``records`` with one write and one fsync. Returns False,
        writing nothing, when that would make the journal larger than its
        snapshot: the caller then writes a new snapshot with ``compact``.
        The first append creates the file whole, header included, through
        ``write_private``; later ones open it O_APPEND, never O_CREAT."""
        data = b"".join(map(_frame, records))
        if not data:
            return True
        if self._size == 0:
            data = self._header + data
        if self._size + len(data) > self._limit:
            return False
        if self._size == 0:
            write_private(self.path, data)
        else:
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
    """Write ``snapshot`` over ``path``, then remove the journal of the old
    snapshot and fsync the directory; returns the new, empty journal. A
    crash between the two steps leaves a journal bound to the old snapshot,
    which is ignored, so no record is applied twice."""
    write_private(path, snapshot)
    journal = Journal(path, snapshot)
    try:
        os.remove(journal.path)
    except FileNotFoundError:
        return journal
    _fsync_directory(os.path.dirname(os.path.abspath(path)))
    return journal
