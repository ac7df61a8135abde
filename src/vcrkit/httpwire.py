"""Tiny HTTP/1.1 client with byte-exact accounting.

The storage and bandwidth tables count header and payload bytes separately,
which off-the-shelf clients cannot report faithfully — so the agent and the
bench harness share this deliberately small client. Content-Length bodies
only; it only ever talks to the reference server.

Each thread holds at most one open connection, to the (host, port) it asked
last; a request elsewhere closes it first. A response with a Content-Length
and no ``Connection: close`` leaves its connection held for the thread's
next request; any other response is read to EOF and its connection closed.
A request is sent twice only when a held connection fails while sending, or
ends or resets before the first byte of the answer. The server closes an
idle connection only while it waits for a request line, so that request was
never read. Nothing is resent after a timeout, after an answer has begun, or
when a new connection fails.

A response may hold at most MAX_HEADER_BYTES of header block and
MAX_BODY_BYTES of body; a longer one is refused and its connection closed.
``timeout`` is a deadline for the whole exchange, connecting included: each
read waits only for the time left, so a server that trickles its answer
cannot hold the caller longer.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from .errors import NetworkError

# The reference server's header blocks are a few hundred bytes.
MAX_HEADER_BYTES = 64 * 1024
# Its largest body is an ACCESS answer, which holds every visit of every
# session a unified request names. A 1 MiB request names about 4,000
# sessions; with 100 visits of 64-byte paths each, the sealed answer is
# about 42 MiB.
MAX_BODY_BYTES = 64 * 1024 * 1024


class _HeldConnection:
    """The one connection a thread holds open. The thread's local slot is
    its only reference, so the socket closes when the thread ends."""

    def __init__(self) -> None:
        self.origin: tuple[str, int] | None = None
        self.sock: socket.socket | None = None

    def take(self, origin: tuple[str, int]) -> socket.socket | None:
        """The connection held to ``origin``, now the caller's to hold again
        or close; a connection held to another origin is closed."""
        sock, self.sock = self.sock, None
        if sock is not None and self.origin != origin:
            sock.close()
            return None
        return sock

    def hold(self, origin: tuple[str, int], sock: socket.socket) -> None:
        self.origin, self.sock = origin, sock

    def __del__(self) -> None:
        if self.sock is not None:
            self.sock.close()


class _PerThread(threading.local):
    def __init__(self) -> None:  # runs once in each thread that uses it
        self.held = _HeldConnection()


_local = _PerThread()


@dataclass
class HttpExchange:
    status: int
    headers: dict[str, str]
    set_cookies: list[str]
    body: bytes
    request_header_bytes: int
    request_body_bytes: int
    response_header_bytes: int
    response_body_bytes: int

    @property
    def request_bytes(self) -> int:
        return self.request_header_bytes + self.request_body_bytes

    @property
    def response_bytes(self) -> int:
        return self.response_header_bytes + self.response_body_bytes


def request(
    method: str,
    url: str,
    headers: dict[str, str] | None = None,
    body: bytes = b"",
    timeout: float = 10.0,
) -> HttpExchange:
    parts = urlsplit(url)
    if parts.scheme != "http":
        raise NetworkError(f"only plain http is supported, got {url!r}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query

    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    if body or method in ("POST", "PUT"):
        lines.append(f"Content-Length: {len(body)}")
    raw_request_header = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    message, origin, held = raw_request_header + body, (host, port), _local.held
    deadline = time.monotonic() + timeout
    sock = held.take(origin)
    try:
        try:
            raw = _send_held(sock, message, deadline) if sock is not None else b""
            if not raw:  # nothing held, or it closed unanswered: send on a new one
                if sock is not None:
                    sock.close()
                sock = socket.create_connection(origin, timeout=_time_left(deadline))
                sock.sendall(message)
                raw = _recv(sock, deadline)
            header_block, rest = _read_head(sock, raw, deadline)
            status, parsed_headers, set_cookies = _parse_head(header_block)
            declared = parsed_headers.get("content-length", "")
            digits = declared.isascii() and declared.isdigit()
            length = int(declared) if digits else None
            if length is not None and length > MAX_BODY_BYTES:
                raise ConnectionError(f"body of {length} bytes over the limit")
            closing = parsed_headers.get("connection", "").lower() == "close"
            if length is None or closing:
                payload = _read_all(sock, rest, deadline)[:length]
                sock.close()
            else:
                payload = _read_exactly(sock, rest, length, deadline)
                held.hold(origin, sock)
        except BaseException:
            if sock is not None:
                sock.close()
            raise
    except OSError as exc:
        raise NetworkError(f"{method} {url}: {exc}") from None

    return HttpExchange(
        status=status,
        headers=parsed_headers,
        set_cookies=set_cookies,
        body=payload,
        request_header_bytes=len(raw_request_header),
        request_body_bytes=len(body),
        response_header_bytes=len(header_block),
        response_body_bytes=len(payload),
    )


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


def _recv(sock: socket.socket, deadline: float) -> bytes:
    sock.settimeout(_time_left(deadline))
    return sock.recv(65536)


def _send_held(sock: socket.socket, message: bytes, deadline: float) -> bytes:
    """Send ``message`` on a held connection and return the first bytes of
    the answer: b"" when the connection fails sending, or ends or resets
    before any byte comes back."""
    try:
        sock.settimeout(_time_left(deadline))
        sock.sendall(message)
        return _recv(sock, deadline)
    except ConnectionError:  # reset or broken pipe; a timeout is not one
        return b""


def _read_head(
    sock: socket.socket, raw: bytes, deadline: float
) -> tuple[bytes, bytes]:
    """The header block, its blank line included, and the bytes after it.
    Each search covers only the bytes new since the last one."""
    header_end = raw.find(b"\r\n\r\n")
    if header_end < 0:
        buffer = bytearray(raw)
        while header_end < 0:
            if len(buffer) >= MAX_HEADER_BYTES:
                raise ConnectionError("header block over the limit")
            chunk = _recv(sock, deadline)
            if not chunk:
                raise ConnectionError("truncated response")
            searched = max(len(buffer) - 3, 0)
            buffer += chunk
            header_end = buffer.find(b"\r\n\r\n", searched)
        raw = bytes(buffer)
    if header_end + 4 > MAX_HEADER_BYTES:
        raise ConnectionError("header block over the limit")
    return raw[: header_end + 4], raw[header_end + 4 :]


def _parse_head(header_block: bytes) -> tuple[int, dict[str, str], list[str]]:
    header_lines = header_block.decode("latin-1").split("\r\n")
    status_parts = header_lines[0].split(" ", 2)
    if len(status_parts) < 2 or not status_parts[1].isdigit():
        raise NetworkError(f"bad status line {header_lines[0]!r}")
    headers: dict[str, str] = {}
    set_cookies: list[str] = []
    for line in header_lines[1:]:
        if not line or ":" not in line:
            continue
        name, _, value = line.partition(":")
        name = name.strip().lower()
        value = value.strip()
        if name == "set-cookie":
            set_cookies.append(value)
        else:
            headers[name] = value
    return int(status_parts[1]), headers, set_cookies


def _read_exactly(
    sock: socket.socket, start: bytes, length: int, deadline: float
) -> bytes:
    chunks, received = [start], len(start)
    while received < length:
        chunk = _recv(sock, deadline)
        if not chunk:
            raise ConnectionError("truncated response")
        chunks.append(chunk)
        received += len(chunk)
    if received > length:  # bytes past the body: no answer to any request
        raise ConnectionError("bytes after the response body")
    return b"".join(chunks)


def _read_all(sock: socket.socket, start: bytes, deadline: float) -> bytes:
    chunks, received = [start], len(start)
    while received <= MAX_BODY_BYTES:
        chunk = _recv(sock, deadline)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)
        received += len(chunk)
    raise ConnectionError("body over the limit")
