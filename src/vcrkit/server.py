"""Reference HTTP service: cookies, endpoint advertisement, wrapper issuance,
consumer-request verification and fulfillment.

Collected data lives in memory keyed by the client-id cookie value, with an
optional JSON snapshot file for demos. Page responses advertise the two
protocol endpoints plus the server public key in response headers; the
endpoints themselves are POST-only with OPTIMIZED JSON bodies.

Verification failures answer 403 with the error class only — which
signature or field failed is deliberately not revealed.
"""

from __future__ import annotations

import json
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
    MalformedBody,
    MalformedMessage,
    ModifyConflict,
    NoData,
    VcrkitError,
)
from .sealing import HybridCiphertext, hybrid_encrypt
from .vcr import (
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

HDR_WRAPPER_ENDPOINT = "Vcr-Wrapper-Endpoint"
HDR_VCR_ENDPOINT = "Vcr-Submit-Endpoint"
HDR_SERVER_KEY = "Vcr-Server-Key"
HDR_SERVER_KEY_ID = "Vcr-Server-Key-Id"

ACCESS_INFO = b"vcr-access-v1"

# Largest POST body read; a longer declared Content-Length answers 413
# (RFC 9110 §15.5.14) without reading it.
MAX_BODY_BYTES = 1 << 20


# One page visit: (unix time, URL path).
VISIT = row(("visit_time", TIME), ("visit_url", STR))


@dataclass
class ClientDataRecord(Message):
    """Everything the server holds about one client id."""

    FIELDS = (
        Field("client_id", nested(ClientId)),
        Field("visits", list_of(VISIT, list)),
        Field("attributes", map_of(STR), optional=True),
    )

    client_id: ClientId
    visits: list[tuple[int, str]] = field(default_factory=list)
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass
class AccessResponse(Message):
    """ACCESS success body; with a response key, the sealed payload."""

    FIELDS = (Field("records", list_of(nested(ClientDataRecord), list), optional=True),)

    records: list[ClientDataRecord] = field(default_factory=list)


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
        return {
            HDR_WRAPPER_ENDPOINT: self.wrapper_endpoint,
            HDR_VCR_ENDPOINT: self.vcr_endpoint,
            HDR_SERVER_KEY: self.server_pubkey.hex(),
            HDR_SERVER_KEY_ID: self.server_key_id.hex(),
        }

    @classmethod
    def from_headers(cls, headers: dict) -> "EndpointAdvertisement | None":
        """Parse captured response headers (lowercase names); None when the
        server does not advertise support."""
        wrapper_ep = headers.get(HDR_WRAPPER_ENDPOINT.lower())
        vcr_ep = headers.get(HDR_VCR_ENDPOINT.lower())
        key_hex = headers.get(HDR_SERVER_KEY.lower())
        key_id_hex = headers.get(HDR_SERVER_KEY_ID.lower())
        if not all((wrapper_ep, vcr_ep, key_hex, key_id_hex)):
            return None
        try:
            return cls(
                wrapper_endpoint=wrapper_ep,
                vcr_endpoint=vcr_ep,
                server_pubkey=bytes.fromhex(key_hex),
                server_key_id=bytes.fromhex(key_id_hex),
            )
        except ValueError as exc:
            raise MalformedMessage(f"bad advertisement: {exc}") from None


def encrypt_access_response(
    records: list[ClientDataRecord], client_pub: bytes
) -> HybridCiphertext:
    """Encrypt the ACCESS payload to the request's metadata key: a fresh
    symmetric key per response, wrapped via ephemeral ECDH."""
    body = AccessResponse(records).to_wire_dict(WIRE_MODE)
    payload = json.dumps(body, separators=(",", ":")).encode()
    return hybrid_encrypt(client_pub, payload, ACCESS_INFO)


class VcrServer:
    """Protocol logic, independent of the HTTP plumbing below."""

    def __init__(
        self,
        server_key: ServerKey | None = None,
        tolerance: int = 300,
        snapshot_path: str | None = None,
        clock=time.time,
    ) -> None:
        self.server_key = server_key or ServerKey.generate()
        self.cache = ReplayCache(tolerance)
        self.snapshot_path = snapshot_path
        self.clock = clock
        self._records: dict[str, ClientDataRecord] = {}
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
            self._records[cookie_value].visits.append((now, path))
        return cookie_value, set_cookie

    # --- wrapper endpoint -----------------------------------------------------

    def handle_wrapper_request(self, body: bytes) -> tuple[int, dict]:
        try:
            req = encoding.from_wire(
                WrapperRequest, body.decode("utf-8"), WIRE_MODE
            )
            policy = MultiSigPolicy(req.vcr_pubkeys)
        except (MalformedMessage, UnicodeDecodeError) as exc:
            return 400, {"error": MalformedBody(str(exc)).code}
        except VcrkitError as exc:
            return 400, {"error": exc.code}
        wrapper = issue_wrapper(
            self.server_key, req.client_id, policy, int(self.clock())
        )
        return 200, wrapper.to_wire_dict(WIRE_MODE)

    # --- vcr endpoint ---------------------------------------------------------

    def handle_vcr(self, body: bytes) -> tuple[int, dict]:
        now = int(self.clock())
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": MalformedBody(str(exc)).code}
        if not isinstance(payload, dict):
            return 400, {"error": MalformedBody("body is not an object").code}
        try:
            if wire_key("ephemeral_pubkey", WIRE_MODE) in payload:
                sealed = SealedVcr.from_wire_dict(payload, WIRE_MODE)
                request = unseal_vcr(self.server_key.secret, sealed)
            else:
                request = VcrRequest.from_wire_dict(payload, WIRE_MODE)
        except MalformedMessage as exc:
            return 400, {"error": MalformedBody(str(exc)).code}
        except VcrkitError as exc:
            return 403, {"error": exc.code}

        try:
            verified = verify_vcr(
                self.server_key.public_point, request, now, self.cache
            )
        except VcrkitError as exc:
            return 403, {"error": exc.code}

        action = verified.action
        cookie_values = [cid.cookie_value for cid in verified.client_ids]
        try:
            if action.kind is ActionKind.ACCESS:
                return self._fulfill_access(cookie_values, action)
            if action.kind is ActionKind.MODIFY:
                return self._fulfill_modify(cookie_values, action)
            return self._fulfill_delete(cookie_values)
        except NoData as exc:
            return 404, {"error": exc.code}
        except ModifyConflict as exc:
            return 409, {"error": exc.code}

    def _fulfill_access(self, cookie_values, action) -> tuple[int, dict]:
        with self._lock:
            records = [
                self._records[v] for v in cookie_values if v in self._records
            ]
            if not records:
                raise NoData("no record for any verified client id")
            snapshot = [
                ClientDataRecord(
                    client_id=r.client_id,
                    visits=list(r.visits),
                    attributes=dict(r.attributes),
                )
                for r in records
            ]
        if action.response_pubkey is not None:
            box = encrypt_access_response(snapshot, action.response_pubkey)
            return 200, box.to_wire_dict(WIRE_MODE)
        return 200, AccessResponse(snapshot).to_wire_dict(WIRE_MODE)

    def _fulfill_modify(self, cookie_values, action) -> tuple[int, dict]:
        with self._lock:
            records = [
                self._records[v] for v in cookie_values if v in self._records
            ]
            if not records:
                raise NoData("no record for any verified client id")
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
        return 200, {"ok": True}

    # --- snapshot -------------------------------------------------------------

    def save_snapshot(self) -> None:
        if not self.snapshot_path:
            return
        with self._lock:
            payload = [r.to_wire_dict(WIRE_MODE) for r in self._records.values()]
        files.write_private(self.snapshot_path, json.dumps(payload).encode())

    def _load_snapshot(self) -> None:
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return
        except (json.JSONDecodeError, OSError) as exc:
            raise MalformedMessage(f"bad snapshot: {exc}") from None
        for raw in payload:
            record = ClientDataRecord.from_wire_dict(raw, WIRE_MODE)
            self._records[record.client_id.cookie_value] = record


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "vcrkit-ref"
    sys_version = ""

    @property
    def vcr(self) -> VcrServer:
        return self.server.vcr  # type: ignore[attr-defined]

    def log_message(self, *args) -> None:  # quiet by default
        pass

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
            self._reply(405, b'{"error":"PostOnly"}')
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
        if length > MAX_BODY_BYTES:
            self._refuse(413, "BodyTooLarge")
            return
        body = self.rfile.read(length) if length else b""
        if path == WRAPPER_ENDPOINT:
            status, payload = self.vcr.handle_wrapper_request(body)
        elif path == VCR_ENDPOINT:
            status, payload = self.vcr.handle_vcr(body)
        else:
            status, payload = 404, {"error": "NoSuchEndpoint"}
        self._reply(status, json.dumps(payload, separators=(",", ":")).encode())


class VcrHttpServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], vcr: VcrServer) -> None:
        super().__init__(address, _Handler)
        self.vcr = vcr

    @property
    def origin(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self.vcr.save_snapshot()
