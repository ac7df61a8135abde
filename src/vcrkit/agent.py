"""Client-side engine: endpoint detection, session keys, wrappers, history.

Stands in for the browser-extension background script: it fetches pages with
its own HTTP client, watches response headers for protocol support, derives
a fresh session key per new client-id cookie, obtains and echo-checks the
wrapper, and keeps the session/history store. Only public keys live here;
signing needs the trusted-device signer.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from . import curve, encoding, files, httpwire
from .curve import POINT_BYTES
from .encoding import (
    BOOL,
    STR,
    TIME,
    Field,
    Message,
    WireMode,
    converted,
    fixed,
    integer,
    list_of,
    map_of,
    nested,
)
from .errors import (
    AlreadyProvisioned,
    BadSignature,
    CorruptStore,
    DeviceRetired,
    MalformedMessage,
    MalformedWrapper,
    NetworkError,
    NotProvisioned,
    PinnedKeyMismatch,
    UnknownServerKey,
    WrapperVerifyFailed,
)
from .keyhier import DerivationPath, ExtendedPublicKey, derive_child_pub
from .sealing import HybridCiphertext, hybrid_decrypt
from .server import (
    ACCESS_INFO,
    VISIT,
    AccessResponse,
    ClientDataRecord,
    EndpointAdvertisement,
)
from .vcr import (
    XPUB,
    ActionKind,
    VcrAction,
    VcrRequest,
    build_unified_vcr,
    build_vcr,
    seal_vcr,
    sign_vcr,
)
from .wrapper import (
    ClientId,
    MultiSigPolicy,
    Wrapper,
    WrapperRequest,
    check_wrapper_echo,
    verify_wrapper,
)

STORE_VERSION = 1
WIRE_MODE = WireMode.OPTIMIZED


def _cookie_index_key(cookie_name: str, cookie_value: str) -> str:
    # Length-prefixed so a "=" inside a hostile cookie name cannot alias
    # another (name, value) pair.
    name = cookie_name.encode()
    value = cookie_value.encode()
    return curve.sha256(len(name).to_bytes(4, "big") + name + value).hex()


def _history_to_verbose(record: "SessionRecord") -> list:
    encode = VISIT.encode[WireMode.VERBOSE]
    return [encode((ts, record.server_origin + path)) for ts, path in record.history]


def _history_from_verbose(raw, values: dict) -> list[tuple[int, str]]:
    decode, origin = VISIT.decode[WireMode.VERBOSE], values["server_origin"]
    return [(ts, url.removeprefix(origin)) for ts, url in map(decode, raw)]


@dataclass
class SessionRecord(Message):
    """One session with one server: cookie, key path, wrapper, history.

    VERBOSE history entries carry full URLs; decoding strips the record's
    origin back off, so both modes parse to the same record.
    """

    FIELDS = (
        Field("server_origin", STR),
        Field("endpoints", nested(EndpointAdvertisement)),
        Field("client_id", nested(ClientId)),
        Field("derivation_path", converted(STR, DerivationPath.parse, str), "path"),
        Field("wrapper", nested(Wrapper)),
        Field("created_at", TIME),
        Field(
            "history",
            list_of(VISIT, list),
            verbose=(_history_to_verbose, _history_from_verbose),
        ),
    )

    server_origin: str
    endpoints: EndpointAdvertisement
    client_id: ClientId
    path: DerivationPath
    wrapper: Wrapper
    created_at: int
    history: list[tuple[int, str]] = field(default_factory=list)

    @property
    def session_pubkey(self) -> bytes:
        return self.wrapper.vcr_pubkeys[0]

    @property
    def sid(self) -> str:
        """Display id: first 4 bytes of the session public key."""
        return self.session_pubkey[:4].hex()

    @property
    def is_unified(self) -> bool:
        return len(self.path.segments) == 3


class AgentStore(Message):
    """Device key, session list, cookie index and pinned server keys.

    Single-writer: every mutation happens under one lock. The cookie index
    maps a hash of the (name, value) cookie pair to a position in the
    session list and is rebuilt on import rather than serialized.
    """

    FIELDS = (
        Field("version", integer(), optional=True),
        Field("device_id", integer()),
        Field("device_xpub", XPUB),
        Field("next_session", integer(), "next_j"),
        Field("server_counters", map_of(integer(), key=int), optional=True),
        Field("server_ids", map_of(integer()), optional=True),
        Field("sessions", list_of(nested(SessionRecord), list)),
        Field(
            "pinned_keys",
            map_of(fixed(POINT_BYTES)),
            "pinned_server_keys",
            optional=True,
        ),
        Field("retired", BOOL, optional=True),
    )
    version = STORE_VERSION  # written into every store file, not checked on load

    def __init__(self) -> None:
        self.device_id: int | None = None
        self.device_xpub: ExtendedPublicKey | None = None
        self.next_j = 0
        self.server_counters: dict[int, int] = {}
        self.server_ids: dict[str, int] = {}
        self.sessions: list[SessionRecord] = []
        self.pinned_server_keys: dict[str, bytes] = {}
        self.retired = False
        self.cookie_index: dict[str, int] = {}
        self.lock = threading.Lock()

    # --- provisioning ---------------------------------------------------------

    def provision_device(self, device_xpub: ExtendedPublicKey, device_id: int) -> None:
        with self.lock:
            if self.device_xpub is not None:
                raise AlreadyProvisioned(f"device {self.device_id} already set")
            self.device_xpub = device_xpub
            self.device_id = int(device_id)
            self.next_j = 0

    def require_provisioned(self) -> ExtendedPublicKey:
        if self.device_xpub is None or self.device_id is None:
            raise NotProvisioned("agent store has no device key")
        return self.device_xpub

    def unlink_device(self) -> None:
        """Retire this device: no further sessions, existing data remains
        exportable."""
        with self.lock:
            self.retired = True

    # --- sessions ---------------------------------------------------------------

    def _index_session(self, position: int) -> None:
        record = self.sessions[position]
        key = _cookie_index_key(record.client_id.cookie_name, record.client_id.cookie_value)
        self.cookie_index[key] = position

    def add_session(self, record: SessionRecord) -> None:
        with self.lock:
            if record.path.segments[0] != self.device_id:
                raise MalformedMessage("session path belongs to another device")
            if any(str(s.path) == str(record.path) for s in self.sessions):
                raise MalformedMessage(f"duplicate derivation path {record.path}")
            self.sessions.append(record)
            self._index_session(len(self.sessions) - 1)

    def find_by_cookie(self, cookie_name: str, cookie_value: str) -> SessionRecord | None:
        position = self.cookie_index.get(_cookie_index_key(cookie_name, cookie_value))
        return self.sessions[position] if position is not None else None

    def find_by_sid(self, sid: str) -> SessionRecord | None:
        for record in self.sessions:
            if record.sid == sid:
                return record
        return None

    def latest_for_origin(self, origin: str) -> SessionRecord | None:
        for record in reversed(self.sessions):
            if record.server_origin == origin:
                return record
        return None

    def server_id_for(self, origin: str) -> int:
        """Client-local server id used in server-scoped derivation paths."""
        with self.lock:
            if origin not in self.server_ids:
                self.server_ids[origin] = (
                    max(self.server_ids.values(), default=-1) + 1
                )
            return self.server_ids[origin]

    def record_visit(self, cookie_header_pairs, url: str, now: int) -> int:
        """Append (now, url path) to each session whose cookie appears in
        the request's cookie pairs; unknown cookies are ignored."""
        path = urlsplit(url).path or "/"
        updated = 0
        with self.lock:
            for name, value in cookie_header_pairs:
                position = self.cookie_index.get(_cookie_index_key(name, value))
                if position is not None:
                    self.sessions[position].history.append((int(now), path))
                    updated += 1
        return updated

    # --- persistence ------------------------------------------------------------

    @classmethod
    def _from_fields(cls, values: dict) -> "AgentStore":
        store = cls()
        values.pop("version", None)
        vars(store).update(values)
        for position in range(len(store.sessions)):
            store._index_session(position)
        return store

    def export(self, mode: WireMode = WIRE_MODE) -> bytes:
        """Serialize the store; contains the device *public* key only."""
        self.require_provisioned()
        return encoding.to_wire(self, mode).encode("utf-8")

    @classmethod
    def import_(cls, data: bytes) -> "AgentStore":
        last_error: Exception | None = None
        for mode in (WireMode.OPTIMIZED, WireMode.VERBOSE):
            try:
                store = encoding.from_wire(cls, data.decode("utf-8"), mode)
                store._check_consistency()
                return store
            except (MalformedMessage, UnicodeDecodeError) as exc:
                last_error = exc
        raise CorruptStore(str(last_error))

    def _check_consistency(self) -> None:
        if self.device_xpub is None or self.device_id is None:
            raise MalformedMessage("store has no device key")
        paths = [str(s.path) for s in self.sessions]
        if len(set(paths)) != len(paths):
            raise MalformedMessage("duplicate derivation paths in store")
        for record in self.sessions:
            if record.path.segments[0] != self.device_id:
                raise MalformedMessage("session path belongs to another device")


@dataclass
class VcrOutcome:
    """Parsed result of submitting a consumer request."""

    status: int
    payload: dict
    records: list[ClientDataRecord] | None = None
    error: str | None = None
    exchange: httpwire.HttpExchange | None = None


class Agent:
    """Ties the store to the network: visits, sessions, request issuance."""

    def __init__(self, store: AgentStore, store_path: str | None = None, http=None):
        self.store = store
        self.store_path = store_path
        self.http = http or httpwire.request
        # Single-writer rule: whole session establishments are serialized,
        # network round trip included, so concurrent calls cannot race the
        # session counter.
        self._session_lock = threading.Lock()

    # --- persistence ------------------------------------------------------------

    @classmethod
    def load(cls, store_path: str, http=None) -> "Agent":
        try:
            with open(store_path, "rb") as fh:
                store = AgentStore.import_(fh.read())
        except FileNotFoundError:
            raise CorruptStore(f"no store at {store_path}") from None
        return cls(store, store_path, http)

    def save(self) -> None:
        if self.store_path:
            files.write_private(self.store_path, self.store.export(WIRE_MODE))

    # --- pinning ----------------------------------------------------------------

    def _check_pin(self, origin: str, advertisement: EndpointAdvertisement) -> None:
        with self.store.lock:
            pinned = self.store.pinned_server_keys.get(origin)
            if pinned is None:
                # First sight of this origin: check the key before trusting
                # it for good; a bad one raises InvalidPublicKey, pins nothing.
                curve.decompress(advertisement.server_pubkey)
                self.store.pinned_server_keys[origin] = advertisement.server_pubkey
            elif pinned != advertisement.server_pubkey:
                raise PinnedKeyMismatch(
                    f"{origin} advertised a key different from the pinned one"
                )

    # --- session establishment ----------------------------------------------------

    def begin_session(
        self,
        origin: str,
        advertisement: EndpointAdvertisement,
        client_id: ClientId,
        now: int,
        unified: bool = False,
    ) -> SessionRecord:
        """Derive a session key, obtain and echo-check a wrapper, store the
        session. The session counter only advances when everything succeeds."""
        with self._session_lock:
            return self._begin_session_locked(
                origin, advertisement, client_id, now, unified
            )

    def _begin_session_locked(
        self, origin, advertisement, client_id, now, unified
    ) -> SessionRecord:
        device_xpub = self.store.require_provisioned()
        if self.store.retired:
            raise DeviceRetired(f"device {self.store.device_id} is unlinked")
        self._check_pin(origin, advertisement)

        if unified:
            s = self.store.server_id_for(origin)
            j = self.store.server_counters.get(s, 0)
            rel_segments = (s, j)
        else:
            s = None
            j = self.store.next_j
            rel_segments = (j,)

        session_xpub = device_xpub
        for index in rel_segments:
            session_xpub = derive_child_pub(session_xpub, index)
        path = DerivationPath((self.store.device_id,) + rel_segments)
        policy = MultiSigPolicy((session_xpub.public_point,))

        body = encoding.to_wire(
            WrapperRequest(client_id=client_id, vcr_pubkeys=policy.member_pubkeys),
            WIRE_MODE,
        ).encode()
        exchange = self.http(
            "POST",
            origin + advertisement.wrapper_endpoint,
            headers={
                "Content-Type": "application/json",
                "Cookie": f"{client_id.cookie_name}={client_id.cookie_value}",
            },
            body=body,
        )
        if exchange.status != 200:
            raise NetworkError(f"wrapper endpoint answered {exchange.status}")
        try:
            wrapper = encoding.from_wire(
                Wrapper, exchange.body.decode("utf-8"), WIRE_MODE
            )
        except (MalformedMessage, UnicodeDecodeError) as exc:
            raise WrapperVerifyFailed(str(exc)) from None
        try:
            verify_wrapper(
                advertisement.server_pubkey,
                wrapper,
                expected_key_id=advertisement.server_key_id,
            )
        except (BadSignature, MalformedWrapper, UnknownServerKey) as exc:
            raise WrapperVerifyFailed(exc.code) from None
        check_wrapper_echo(policy, client_id, wrapper)

        record = SessionRecord(
            server_origin=origin,
            endpoints=advertisement,
            client_id=client_id,
            path=path,
            wrapper=wrapper,
            created_at=int(now),
        )
        self.store.add_session(record)
        # Counters advance only now: any failure above leaves them untouched.
        with self.store.lock:
            if unified:
                self.store.server_counters[s] = j + 1
            else:
                self.store.next_j = j + 1
        self.save()
        return record

    # --- browsing ------------------------------------------------------------------

    def visit(
        self, url: str, now: int, unified: bool = False, fresh: bool = False
    ) -> tuple[SessionRecord | None, httpwire.HttpExchange]:
        """Fetch a page; start a session when the server hands out a new
        cookie, otherwise append to the matching session's history."""
        self.store.require_provisioned()
        parts = urlsplit(url)
        origin = f"{parts.scheme}://{parts.netloc}"

        headers = {}
        existing = None if fresh else self.store.latest_for_origin(origin)
        if existing is not None:
            cid = existing.client_id
            headers["Cookie"] = f"{cid.cookie_name}={cid.cookie_value}"

        exchange = self.http("GET", url, headers=headers)
        if exchange.status != 200:
            raise NetworkError(f"page answered {exchange.status}")
        advertisement = EndpointAdvertisement.from_headers(exchange.headers)
        if advertisement is None:
            return None, exchange
        self._check_pin(origin, advertisement)

        client_id = self._cookie_from_set_cookie(exchange.set_cookies)
        session = None
        if client_id is not None:
            session = self.store.find_by_cookie(
                client_id.cookie_name, client_id.cookie_value
            )
            if session is None:
                session = self.begin_session(
                    origin, advertisement, client_id, now, unified=unified
                )
        elif existing is not None:
            session = existing
        if session is None:
            return None, exchange

        cid = session.client_id
        self.store.record_visit(
            [(cid.cookie_name, cid.cookie_value)], url, now
        )
        self.save()
        return session, exchange

    @staticmethod
    def _cookie_from_set_cookie(set_cookies: list[str]) -> ClientId | None:
        for raw in set_cookies:
            first = raw.split(";", 1)[0]
            name, _, value = first.partition("=")
            if name.strip() and value:
                return ClientId(name.strip(), value.strip())
        return None

    # --- request issuance -------------------------------------------------------------

    def build_request(
        self,
        sessions: list[SessionRecord],
        action: VcrAction,
        now: int,
        unified: bool = False,
    ) -> tuple[VcrRequest, DerivationPath]:
        """Unsigned request plus the path the signer must use."""
        device_xpub = self.store.require_provisioned()
        if not unified:
            if len(sessions) != 1:
                raise MalformedMessage("plain requests cover exactly one session")
            session = sessions[0]
            return build_vcr([session.wrapper], action, now), session.path

        scoped = {s.path.segments[:2] for s in sessions if s.is_unified}
        if len(scoped) != 1 or not all(s.is_unified for s in sessions):
            raise MalformedMessage(
                "unified requests need sessions sharing one server-scoped key"
            )
        device_seg, server_seg = next(iter(scoped))
        server_xpub = derive_child_pub(device_xpub, server_seg)
        indices = [s.path.segments[2] for s in sessions]
        request = build_unified_vcr(
            [s.wrapper for s in sessions],
            server_xpub,
            indices,
            action,
            now,
        )
        return request, DerivationPath((device_seg, server_seg))

    def submit_request(
        self,
        sessions: list[SessionRecord],
        action: VcrAction,
        signer,
        now: int,
        unified: bool = False,
        seal: bool = False,
        response_secret: int | None = None,
    ) -> VcrOutcome:
        """Sign and deliver a request; parses and (if needed) decrypts the
        response. ``response_secret`` must be the scalar matching the
        action's response key when one is present."""
        if self.store.retired:
            raise DeviceRetired(f"device {self.store.device_id} is unlinked")
        request, sign_path = self.build_request(sessions, action, now, unified)
        request = sign_vcr(request, signer, sign_path)
        first = sessions[0]
        endpoint = first.server_origin + first.endpoints.vcr_endpoint
        if seal:
            payload = encoding.to_wire(
                seal_vcr(first.endpoints.server_pubkey, request), WIRE_MODE
            )
        else:
            payload = encoding.to_wire(request, WIRE_MODE)
        exchange = self.http(
            "POST",
            endpoint,
            headers={"Content-Type": "application/json"},
            body=payload.encode(),
        )
        return self._parse_outcome(exchange, action, response_secret)

    def _parse_outcome(
        self, exchange, action: VcrAction, response_secret: int | None
    ) -> VcrOutcome:
        try:
            payload = json.loads(exchange.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise NetworkError(f"unparseable response: {exc}") from None
        outcome = VcrOutcome(
            status=exchange.status,
            payload=payload,
            error=payload.get("error") if isinstance(payload, dict) else None,
            exchange=exchange,
        )
        if exchange.status != 200 or action.kind is not ActionKind.ACCESS:
            return outcome
        if action.response_pubkey is not None:
            if response_secret is None:
                raise MalformedMessage("response key set but no secret to decrypt")
            box = HybridCiphertext.from_wire_dict(payload, WIRE_MODE)
            plaintext = hybrid_decrypt(response_secret, box, ACCESS_INFO)
            payload = json.loads(plaintext.decode("utf-8"))
            outcome.payload = payload
        outcome.records = AccessResponse.from_wire_dict(payload, WIRE_MODE).records
        return outcome
