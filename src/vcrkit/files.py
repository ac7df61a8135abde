"""The one way vcrkit writes a file.

Every file it writes (agent store, server snapshot, signer state, server
key, exports) holds personal data or a secret, so there is no mode to pick:
files are created 0600 and replaced atomically and durably.
"""

from __future__ import annotations

import os
import tempfile


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
