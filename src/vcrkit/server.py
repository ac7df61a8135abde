"""Reference HTTP service: cookies, endpoint advertisement, wrapper issuance,
consumer-request verification and fulfillment.

Collected data lives in memory keyed by the client-id cookie value, with an
optional snapshot file for demos. Each cookie the server sets is bound by
one wrapper, the first asked for. Page responses advertise the two protocol
endpoints plus the server public key in response headers; the endpoints
themselves are POST-only with OPTIMIZED JSON bodies.

Verification failures answer 403 with the error class only — which
signature or field failed is deliberately not revealed.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from . import encoding, files
from .curve import POINT_BYTES
from .encoding import (
    STR,
    TIME,
    Field,
    Message,
    WireMode,
    fixed,
    list_of,
    map_of,
    nested,
    row,
    wire_key,
)
from .errors import (
    ClockUnavailable,
    CookieAlreadyBound,
    InvalidPublicKey,
    MalformedBody,
    MalformedMessage,
    ModifyConflict,
    NoData,
    QuietDisconnects,
    VcrkitError,
)
from .sealing import HybridCiphertext, hybrid_encrypt
from .vcr import (
    DEFAULT_TOLERANCE_SECONDS,
    ActionKind,
    ReplayCache,
    SealedVcr,
    VcrRequest,
    unseal_vcr,
    verify_vcr,
)
from .wrapper import (
    KEY_ID_BYTES,
    ClientId,
    MultiSigPolicy,
    ServerKey,
    WrapperRequest,
    fresh_cookie_value,
    issue_wrapper,
)

WIRE_MODE = WireMode.OPTIMIZED

COOKIE_NAME = "vcid"
WRAPPER_ENDPOINT = "/vcr/wrapper"
VCR_ENDPOINT = "/vcr/submit"

# Header of each EndpointAdvertisement field, in order; values are VERBOSE.
ADVERTISEMENT_HEADERS = {
    "wrapper_endpoint": "Vcr-Wrapper-Endpoint",
    "vcr_endpoint": "Vcr-Submit-Endpoint",
    "server_pubkey": "Vcr-Server-Key",
    "server_key_id": "Vcr-Server-Key-Id",
}

ACCESS_INFO = b"vcr-access-v1"

# One page visit: (unix time, URL path).
VISIT = row(("visit_time", TIME), ("visit_url", STR))


@dataclass
class ClientDataRecord(Message):
    """Everything the server holds about one client id."""

    FIELDS = (
        Field("client_id", nested(ClientId)),
        Field("visits", list_of(VISIT, list)),
        Field("attributes", map_of(STR)),
    )

    client_id: ClientId
    visits: list[tuple[int, str]] = field(default_factory=list)
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass
class AccessResponse(Message):
    """ACCESS success body (sealed with a response key) and snapshot file."""

    FIELDS = (Field("records", list_of(nested(ClientDataRecord), list)),)

    records: list[ClientDataRecord] = field(default_factory=list)


@dataclass
class ServerSnapshot(Message):
    """The snapshot file: every record, then the cookies this server set
    that no wrapper binds yet; without that list, every cookie is bound."""

    FIELDS = (
        Field("records", list_of(nested(ClientDataRecord), list)),
        Field("unbound_cookies", list_of(STR, list), omit_empty=True),
    )

    records: list[ClientDataRecord] = field(default_factory=list)
    unbound_cookies: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class EndpointAdvertisement(Message):
    """What a page response tells the client about protocol support."""

    FIELDS = (
        Field("wrapper_endpoint", STR),
        Field("vcr_endpoint", STR),
        Field("server_pubkey", fixed(POINT_BYTES)),
        Field("server_key_id", fixed(KEY_ID_BYTES)),
    )

    wrapper_endpoint: str
    vcr_endpoint: str
    server_pubkey: bytes
    server_key_id: bytes

    def __post_init__(self) -> None:
        for path in (self.wrapper_endpoint, self.vcr_endpoint):
            if not path.startswith("/"):
                raise MalformedMessage(f"endpoint path must be absolute: {path!r}")

    def to_headers(self) -> dict[str, str]:
        wire = self.to_wire_dict(WireMode.VERBOSE)
        return {header: wire[name] for name, header in ADVERTISEMENT_HEADERS.items()}

    @classmethod
    def from_headers(cls, headers: dict) -> "EndpointAdvertisement | None":
        """Parse captured response headers (lowercase names); None when the
        server does not advertise support."""
        wire = {n: headers.get(h.lower()) for n, h in ADVERTISEMENT_HEADERS.items()}
        if not all(wire.values()):
            return None
        return cls.from_wire_dict(wire, WireMode.VERBOSE)


# Status of a refused request by the exact class of its error, so that a
# MalformedMessage from verify_vcr (a version mismatch) stays a 403.
_STATUS = {
    MalformedBody: 400,
    InvalidPublicKey: 400,
    NoData: 404,
    ModifyConflict: 409,
    CookieAlreadyBound: 409,
}


def _refusal(exc: VcrkitError) -> tuple[int, dict]:
    return _STATUS.get(type(exc), 403), {"error": exc.code}


def encrypt_access_response(
    records: list[ClientDataRecord], client_pub: bytes
) -> HybridCiphertext:
    """Encrypt the ACCESS payload to the request's metadata key: a fresh
    symmetric key per response, wrapped via ephemeral ECDH."""
    payload = encoding.to_wire(AccessResponse(records), WIRE_MODE).encode()
    return hybrid_encrypt(client_pub, payload, ACCESS_INFO)


class VcrServer:
    """Protocol logic, independent of the HTTP plumbing below."""

    def __init__(
        self,
        server_key: ServerKey | None = None,
        tolerance: int = DEFAULT_TOLERANCE_SECONDS,
        snapshot_path: str | None = None,
        clock=time.time,
    ) -> None:
        self.server_key = server_key or ServerKey.generate()
        self.cache = ReplayCache(tolerance)
        self.snapshot_path = snapshot_path
        self.clock = clock
        self._records: dict[str, ClientDataRecord] = {}
        self._unbound: set[str] = set()  # cookies set here that no wrapper binds
        self._lock = threading.Lock()
        if snapshot_path:
            self._load_snapshot()

    @property
    def advertisement(self) -> EndpointAdvertisement:
        return EndpointAdvertisement(
            wrapper_endpoint=WRAPPER_ENDPOINT,
            vcr_endpoint=VCR_ENDPOINT,
            server_pubkey=self.server_key.public_point,
            server_key_id=self.server_key.key_id,
        )

    def record_count(self) -> int:
        with self._lock:
            return len(self._records)

    def get_record(self, cookie_value: str) -> ClientDataRecord | None:
        with self._lock:
            return self._records.get(cookie_value)

    def set_attribute(self, cookie_value: str, name: str, value: str) -> None:
        """Demo helper: attach a modifiable attribute to a client's record."""
        with self._lock:
            record = self._records.get(cookie_value)
            if record is None:
                raise NoData(cookie_value)
            record.attributes[name] = value

    # --- page flow ----------------------------------------------------------

    def handle_page_request(
        self, path: str, cookie_value: str | None
    ) -> tuple[str, str | None]:
        """Record a visit; returns (cookie_value, set_cookie_or_None)."""
        now = int(self.clock())
        set_cookie = None
        with self._lock:
            if not cookie_value or cookie_value not in self._records:
                # Unknown or malformed cookie: treat as a brand new client.
                cookie_value = fresh_cookie_value()
                set_cookie = f"{COOKIE_NAME}={cookie_value}; Path=/"
                self._records[cookie_value] = ClientDataRecord(
                    client_id=ClientId(COOKIE_NAME, cookie_value)
                )
                self._unbound.add(cookie_value)
            self._records[cookie_value].visits.append((now, path))
        return cookie_value, set_cookie

    # --- wrapper endpoint -----------------------------------------------------

    def handle_wrapper_request(self, body: bytes) -> tuple[int, dict]:
        """Decode, check the keys and the clock, bind, then sign, so that no
        refusal costs a signature and a 400 or 403 leaves the cookie open."""
        now = int(self.clock())
        try:
            req = self._decode_body(WrapperRequest, body)
            policy = MultiSigPolicy(req.vcr_pubkeys)
            if now <= 0:
                raise ClockUnavailable("issuance needs a positive unix time")
            self._bind(req.client_id)
            wrapper = issue_wrapper(self.server_key, req.client_id, policy, now)
        except VcrkitError as exc:
            return _refusal(exc)
        return 200, wrapper.to_wire_dict(WIRE_MODE)

    def _bind(self, client_id: ClientId) -> None:
        """Bind a cookie this server set and holds a record for, once: the
        check and the mark are one step, so one of two racing requests wins."""
        with self._lock:
            record = self._records.get(client_id.cookie_value)
            if record is None or record.client_id != client_id:
                raise NoData("no record for this client id")
            if client_id.cookie_value not in self._unbound:
                raise CookieAlreadyBound("this cookie is bound")
            self._unbound.remove(client_id.cookie_value)

    # --- vcr endpoint ---------------------------------------------------------

    def handle_vcr(self, body: bytes) -> tuple[int, dict]:
        now = int(self.clock())
        try:
            request = self._decode_body(VcrRequest, body)
            verified = verify_vcr(self.server_key.public_point, request, now, self.cache)
            action = verified.action
            cookie_values = [cid.cookie_value for cid in verified.client_ids]
            if action.kind is ActionKind.ACCESS:
                return self._fulfill_access(cookie_values, action)
            if action.kind is ActionKind.MODIFY:
                return self._fulfill_modify(cookie_values, action)
            return self._fulfill_delete(cookie_values)
        except VcrkitError as exc:
            return _refusal(exc)

    def _decode_body(self, cls, body: bytes):
        """The one decode boundary: ``cls`` from a JSON body, a VcrRequest
        also from a sealed one. What does not decode (JSON, envelope or the
        sealed canonical bytes) is MalformedBody; a bad seal, DecryptFailed."""
        try:
            payload = encoding.json_object(body)
            if cls is VcrRequest and wire_key("ephemeral_pubkey", WIRE_MODE) in payload:
                sealed = SealedVcr.from_wire_dict(payload, WIRE_MODE)
                return unseal_vcr(self.server_key.private_key, sealed)
            return cls.from_wire_dict(payload, WIRE_MODE)
        except MalformedMessage as exc:
            raise MalformedBody(str(exc)) from None

    def _records_for(self, cookie_values) -> list[ClientDataRecord]:
        """Records of the verified client ids; the caller holds the lock."""
        records = [self._records[v] for v in cookie_values if v in self._records]
        if not records:
            raise NoData("no record for any verified client id")
        return records

    def _fulfill_access(self, cookie_values, action) -> tuple[int, dict]:
        with self._lock:
            snapshot = [
                ClientDataRecord(
                    client_id=r.client_id,
                    visits=list(r.visits),
                    attributes=dict(r.attributes),
                )
                for r in self._records_for(cookie_values)
            ]
        if action.response_pubkey is not None:
            box = encrypt_access_response(snapshot, action.response_pubkey)
            return 200, box.to_wire_dict(WIRE_MODE)
        return 200, AccessResponse(snapshot).to_wire_dict(WIRE_MODE)

    def _fulfill_modify(self, cookie_values, action) -> tuple[int, dict]:
        with self._lock:
            records = self._records_for(cookie_values)
            # Validate every triple against every record before touching
            # anything: a conflicting MODIFY must not partially apply.
            for record in records:
                for name, old, _new in action.changes:
                    if record.attributes.get(name, "") != old:
                        raise ModifyConflict(name)
            for record in records:
                for name, _old, new in action.changes:
                    record.attributes[name] = new
        return 200, {"ok": True}

    def _fulfill_delete(self, cookie_values) -> tuple[int, dict]:
        # Deleting absent data still acknowledges: a duplicate delete is
        # harmless since the data is already gone.
        with self._lock:
            for value in cookie_values:
                self._records.pop(value, None)
                self._unbound.discard(value)
        return 200, {"ok": True}

    # --- snapshot -------------------------------------------------------------

    def save_snapshot(self) -> None:
        if not self.snapshot_path:
            return
        with self._lock:
            snapshot = ServerSnapshot([*self._records.values()], sorted(self._unbound))
            data = encoding.to_wire(snapshot, WIRE_MODE)
        files.write_private(self.snapshot_path, data.encode())

    def _load_snapshot(self) -> None:
        try:
            with open(self.snapshot_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return  # no snapshot yet
        snapshot = encoding.from_wire(ServerSnapshot, data, WIRE_MODE)
        self._records = {r.client_id.cookie_value: r for r in snapshot.records}
        self._unbound = set(snapshot.unbound_cookies)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "vcrkit-ref"
    # Each response leaves in one write: headers and body are buffered until
    # handle_one_request flushes them, and Nagle is off for a body longer
    # than the buffer. A second small write on a kept-alive connection would
    # otherwise wait for the client's delayed ACK.
    wbufsize = -1
    disable_nagle_algorithm = True

    @property
    def vcr(self) -> VcrServer:
        return self.server.vcr  # type: ignore[attr-defined]

    @property
    def timeout(self) -> float:
        """Each read or write on the connection waits at most this long;
        handle_one_request drops a connection that times out, quietly."""
        return self.server.READ_SECONDS  # type: ignore[attr-defined]

    def log_message(self, *args) -> None:  # quiet by default
        pass

    def version_string(self) -> str:
        """The ``Server`` header: the name alone, no Python version after it."""
        return self.server_version

    def _cookie_value(self) -> str | None:
        raw = self.headers.get("Cookie", "")
        for part in raw.split(";"):
            name, _, value = part.strip().partition("=")
            if name == COOKIE_NAME and value:
                return value
        return None

    def _reply(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
        set_cookie: str | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if set_cookie:
            self.send_header("Set-Cookie", set_cookie)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        path = urlsplit(self.path).path
        if path in (WRAPPER_ENDPOINT, VCR_ENDPOINT):
            # RFC 9110 §15.5.6: a 405 names the methods the target allows.
            self._reply(405, b'{"error":"PostOnly"}', extra_headers={"Allow": "POST"})
            return
        _, set_cookie = self.vcr.handle_page_request(path, self._cookie_value())
        body = f"<html><body>page {path}</body></html>".encode()
        self._reply(
            200,
            body,
            content_type="text/html",
            extra_headers=self.vcr.advertisement.to_headers(),
            set_cookie=set_cookie,
        )

    def _refuse(self, status: int, code: str) -> None:
        """Answer without reading the body; the connection then closes, as
        the unread body leaves it unusable."""
        self._reply(
            status,
            json.dumps({"error": code}, separators=(",", ":")).encode(),
            extra_headers={"Connection": "close"},
        )

    def do_POST(self) -> None:
        path = urlsplit(self.path).path
        if "Transfer-Encoding" in self.headers:  # RFC 9112 §6.1: none implemented
            self._refuse(501, "UnsupportedTransferEncoding")
            return
        raw_length = self.headers.get("Content-Length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):  # RFC 9110 §8.6
            self._refuse(400, MalformedBody("bad Content-Length").code)
            return
        length = int(raw_length)
        if length > self.server.MAX_MESSAGE_BYTES:  # type: ignore[attr-defined]
            self._refuse(413, "BodyTooLarge")  # RFC 9110 §15.5.14, body unread
            return
        body = self.rfile.read(length) if length else b""
        if len(body) < length:  # RFC 9112 §8: an incomplete message gets no answer
            self.close_connection = True
            return
        if path == WRAPPER_ENDPOINT:
            status, payload = self.vcr.handle_wrapper_request(body)
        elif path == VCR_ENDPOINT:
            status, payload = self.vcr.handle_vcr(body)
        else:
            status, payload = 404, {"error": "NoSuchEndpoint"}
        self._reply(status, json.dumps(payload, separators=(",", ":")).encode())


class VcrHttpServer(QuietDisconnects, ThreadingHTTPServer):
    """Clients keep connections open between requests. Closing the server
    ends every open connection at its next read and waits for the handlers,
    so no request is answered after the snapshot is saved."""

    daemon_threads = False  # server_close joins every handler thread

    def __init__(self, address: tuple[str, int], vcr: VcrServer) -> None:
        super().__init__(address, _Handler)
        self.vcr = vcr
        self._open: set[socket.socket] = set()
        # Held around each close too, so server_close never shuts a closed fd.
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
            super().shutdown_request(request)

    def server_close(self) -> None:
        with self._open_lock:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RD)  # a blocked read returns EOF
                except OSError:  # the peer already reset it
                    pass
        super().server_close()

    @property
    def origin(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        super().close()
        self.vcr.save_snapshot()
