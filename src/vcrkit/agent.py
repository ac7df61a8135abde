"""Client-side engine: endpoint detection, session keys, wrappers, history.

Stands in for the browser-extension background script: it fetches pages with
its own HTTP client, watches response headers for protocol support, derives
a fresh session key per new client-id cookie, obtains and echo-checks the
wrapper, and keeps the session/history store. Only public keys live here;
signing needs the trusted-device signer.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
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
    maybe,
    nested,
    row,
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
    WIRE_MODE,
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
    maps the (name, value) cookie pair to its session record and is rebuilt
    on import rather than serialized. Sessions and visits added since the
    last save are kept as journal records; header fields changed since then
    are found by comparing the header with the one last saved.
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
        self.cookie_index: dict[tuple[str, str], SessionRecord] = {}
        self._paths: set[DerivationPath] = set()
        self._changes: list[StoreChange] = []
        self._saved_header: dict | None = None
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

    def _admit(self, record: SessionRecord) -> None:
        """The one rule for a session entering the store, new or imported."""
        if record.path.segments[0] != self.device_id:
            raise MalformedMessage("session path belongs to another device")
        if record.path in self._paths:
            raise MalformedMessage(f"duplicate derivation path {record.path}")
        self._paths.add(record.path)
        self.sessions.append(record)
        cid = record.client_id
        self.cookie_index[(cid.cookie_name, cid.cookie_value)] = record

    def add_session(self, record: SessionRecord) -> None:
        with self.lock:
            self._admit(record)
            # As admitted: a visit recorded later is a change of its own.
            session = replace(record, history=list(record.history))
            self._changes.append(StoreChange(sessions=[session]))

    def find_by_cookie(self, cookie_name: str, cookie_value: str) -> SessionRecord | None:
        return self.cookie_index.get((cookie_name, cookie_value))

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
        path, now = urlsplit(url).path or "/", int(now)
        updated = 0
        with self.lock:
            for name, value in cookie_header_pairs:
                if self._visit((name, value), now, path):
                    self._changes.append(StoreChange(visit=(name, value, now, path)))
                    updated += 1
        return updated

    def _visit(self, cookie: tuple[str, str], now: int, path: str) -> bool:
        """The one rule for a visit entering the store: it joins the history
        of the session holding the cookie, if the store has one."""
        record = self.cookie_index.get(cookie)
        if record is not None:
            record.history.append((now, path))
        return record is not None

    # --- persistence ------------------------------------------------------------

    @classmethod
    def _from_fields(cls, values: dict) -> "AgentStore":
        store = cls()
        values.pop("version", None)
        sessions = values.pop("sessions")
        vars(store).update(values)
        for record in sessions:
            store._admit(record)
        return store

    def export(self, mode: WireMode = WIRE_MODE) -> bytes:
        """Serialize the store; contains the device *public* key only."""
        self.require_provisioned()
        return encoding.to_wire(self, mode).encode("utf-8")

    @classmethod
    def import_(cls, data: bytes) -> "AgentStore":
        try:
            raw = encoding.json_object(data)
            try:
                return cls.from_wire_dict(raw, WireMode.OPTIMIZED)
            except MalformedMessage:
                return cls.from_wire_dict(raw, WireMode.VERBOSE)
        except MalformedMessage as exc:
            raise CorruptStore(str(exc)) from None

    # --- journal ----------------------------------------------------------------

    def unsaved_changes(self) -> list[bytes]:
        """Journal records for what changed since the last save: the header
        first when it differs from the saved one, then each session and
        visit in order."""
        changes = self._changes
        if STORE_HEADER.encode[WIRE_MODE](self) != self._saved_header:
            changes = [StoreChange(header=self), *changes]
        return [encoding.to_wire(c, WIRE_MODE).encode() for c in changes]

    def saved(self) -> None:
        """Everything this store holds is on disk."""
        self._changes.clear()
        self._saved_header = STORE_HEADER.encode[WIRE_MODE](self)

    def replay(self, records: list[bytes]) -> None:
        """Apply journal records through the rules that made them; the store
        then counts as saved."""
        for data in records:
            try:
                change = encoding.from_wire(StoreChange, data, WIRE_MODE)
                if change.header is not None:
                    vars(self).update(change.header)
                for record in change.sessions:
                    self._admit(record)
                if change.visit is not None:
                    name, value, now, path = change.visit
                    if not self._visit((name, value), now, path):
                        raise MalformedMessage("visit to a session the store lacks")
            except MalformedMessage as exc:
                raise CorruptStore(f"bad journal record: {exc}") from None
        self.saved()


class StoreHeader(Message):
    """The store's fields other than its version and sessions. Encoded
    straight from an ``AgentStore``; decodes to a dict of its attributes."""

    FIELDS = tuple(f for f in AgentStore.FIELDS if f.name not in ("version", "sessions"))

    @classmethod
    def _from_fields(cls, values: dict) -> dict:
        return values


STORE_HEADER = nested(StoreHeader)


@dataclass
class StoreChange(Message):
    """One journal record, in the store file's keys: the header fields as
    they now are, a session as it was admitted, or one visit to a session."""

    FIELDS = (
        Field("header", maybe(STORE_HEADER), flatten="device_id"),
        Field("sessions", list_of(nested(SessionRecord), list), omit_empty=True),
        Field(
            "visits",
            maybe(
                row(
                    ("cookie_name", STR),
                    ("cookie_value", STR),
                    ("visit_time", TIME),
                    ("visit_url", STR),
                )
            ),
            "visit",
            omit_empty=True,
        ),
    )

    header: object = None  # the AgentStore when encoding, a dict once decoded
    sessions: list[SessionRecord] = field(default_factory=list)
    visit: tuple[str, str, int, str] | None = None


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
        # Where the next save appends. None until this agent has read or
        # written a snapshot, and after a save that raised: the next save
        # then writes the whole store.
        self._journal: files.Journal | None = None
        # Single-writer rule: whole session establishments are serialized,
        # network round trip included, so concurrent calls cannot race the
        # session counter.
        self._session_lock = threading.Lock()

    # --- persistence ------------------------------------------------------------

    @classmethod
    def load(cls, store_path: str, http=None) -> "Agent":
        """The store's snapshot with the journal records after it replayed.
        Writes nothing."""
        beside = store_path + ".journal"
        if os.path.exists(beside):
            # Records kept beside the store file are never read: refusing
            # the store keeps its visits from being silently dropped.
            raise CorruptStore(f"{beside} holds records this store no longer reads")
        try:
            snapshot, records, journal = files.Journal.read(store_path)
        except FileNotFoundError:
            raise CorruptStore(f"no store at {store_path}") from None
        agent = cls(AgentStore.import_(snapshot), store_path, http)
        agent.store.replay(records)
        agent._journal = journal
        return agent

    def save(self) -> None:
        """Append what changed since the last save to the store file, or
        write the whole store when there is no journal to append to or the
        records would outgrow the snapshot."""
        if not self.store_path:
            return
        with self.store.lock:  # an older state must not be written last
            journal, self._journal = self._journal, None
            if journal is None or not journal.append(self.store.unsaved_changes()):
                journal = files.compact(self.store_path, self.store.export(WIRE_MODE))
            self.store.saved()
            self._journal = journal

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

    def _start_session(
        self,
        origin: str,
        advertisement: EndpointAdvertisement,
        client_id: ClientId,
        now: int,
        unified: bool,
    ) -> SessionRecord:
        """Derive a session key, obtain and echo-check a wrapper, add the
        session to the store; the caller saves. The session counter only
        advances when everything succeeds."""
        with self._session_lock:
            if self.store.retired:
                raise DeviceRetired(f"device {self.store.device_id} is unlinked")

            if unified:
                s = self.store.server_id_for(origin)
                j = self.store.server_counters.get(s, 0)
                rel_segments = (s, j)
            else:
                s = None
                j = self.store.next_j
                rel_segments = (j,)

            session_xpub = self.store.device_xpub
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
                wrapper = encoding.from_wire(Wrapper, exchange.body, WIRE_MODE)
            except MalformedMessage as exc:
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
            return record

    # --- browsing ------------------------------------------------------------------

    def visit(
        self, url: str, now: int, unified: bool = False, fresh: bool = False
    ) -> tuple[SessionRecord | None, httpwire.HttpExchange]:
        """Fetch a page; start a session when the server hands out a new
        cookie, otherwise append to the matching session's history. Saves
        the store once, after the visit (or only the pin) is recorded."""
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
                session = self._start_session(
                    origin, advertisement, client_id, now, unified
                )
        elif existing is not None:
            session = existing
        if session is not None:
            cid = session.client_id
            self.store.record_visit([(cid.cookie_name, cid.cookie_value)], url, now)
        self.save()  # with no session, still keeps a key pinned on first sight
        return session, exchange

    @staticmethod
    def _cookie_from_set_cookie(set_cookies: list[str]) -> ClientId | None:
        """The first cookie a ``ClientId`` accepts; one it refuses (too
        long, say) is not a session cookie."""
        for raw in set_cookies:
            first = raw.split(";", 1)[0]
            name, _, value = first.partition("=")
            if name.strip() and value:
                try:
                    return ClientId(name.strip(), value.strip())
                except encoding.DECODE_ERRORS:
                    continue
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
            payload = encoding.json_object(exchange.body)
        except MalformedMessage as exc:
            raise NetworkError(f"unparseable response: {exc}") from None
        outcome = VcrOutcome(
            status=exchange.status,
            payload=payload,
            error=payload.get("error"),
            exchange=exchange,
        )
        if exchange.status != 200 or action.kind is not ActionKind.ACCESS:
            return outcome
        if action.response_pubkey is not None:
            if response_secret is None:
                raise MalformedMessage("response key set but no secret to decrypt")
            box = HybridCiphertext.from_wire_dict(payload, WIRE_MODE)
            plaintext = hybrid_decrypt(
                curve.private_key(response_secret), box, ACCESS_INFO
            )
            payload = outcome.payload = encoding.json_object(plaintext)
        outcome.records = AccessResponse.from_wire_dict(payload, WIRE_MODE).records
        return outcome
