"""Tiny HTTP/1.1 client with byte-exact accounting.

The storage and bandwidth tables count header and payload bytes separately,
which off-the-shelf clients cannot report faithfully — so the agent and the
bench harness share this deliberately small client. One request per
connection (Connection: close), Content-Length bodies only; it only ever
talks to the reference server.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from urllib.parse import urlsplit

from .errors import NetworkError


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
    lines.append("Connection: close")
    raw_request_header = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.sendall(raw_request_header + body)
            raw = _read_all(sock)
    except OSError as exc:
        raise NetworkError(f"{method} {url}: {exc}") from None

    header_end = raw.find(b"\r\n\r\n")
    if header_end < 0:
        raise NetworkError(f"{method} {url}: truncated response")
    header_block = raw[: header_end + 4]
    payload = raw[header_end + 4 :]

    header_lines = header_block.decode("latin-1").split("\r\n")
    status_parts = header_lines[0].split(" ", 2)
    if len(status_parts) < 2 or not status_parts[1].isdigit():
        raise NetworkError(f"bad status line {header_lines[0]!r}")
    status = int(status_parts[1])

    parsed_headers: dict[str, str] = {}
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
            parsed_headers[name] = value

    length = parsed_headers.get("content-length")
    if length is not None and length.isdigit():
        payload = payload[: int(length)]

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


def _read_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)
