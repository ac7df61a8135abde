"""Client-side engine: endpoint detection, session keys, wrappers, history.

Stands in for the browser-extension background script: it fetches pages with
its own HTTP client, watches response headers for protocol support, derives
a fresh session key per new client-id cookie, obtains and echo-checks the
wrapper, and keeps the session/history store. Only public keys live here;
signing needs the trusted-device signer.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from . import curve, encoding, files, httpwire
from .curve import POINT_BYTES
from .encoding import (
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
    MalformedMessage,
    MalformedWrapper,
    NetworkError,
    NotProvisioned,
    PinnedKeyMismatch,
    UnknownServerKey,
    WrapperVerifyFailed,
)
from .keyhier import DerivationPath, ExtendedPublicKey, derive_child_pub, derive_path
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

STORE_VERSION = 2


def _store_version(version: int) -> int:
    """The one version a store is read in. Its field comes first, so a
    store of another version is refused before any session in it is read."""
    if version != STORE_VERSION:
        raise ValueError(f"store version {version} is not {STORE_VERSION}, the one read")
    return version


@contextmanager
def _collection_paused():
    """No cyclic garbage collection inside: a store load allocates tens of
    thousands of containers and makes no cycle, so each collection it would
    set off scans them for nothing. Collection is on again afterwards if it
    was on before."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _origin(parts) -> str:
    """``scheme://host[:port]`` of a split URL."""
    return f"{parts.scheme}://{parts.netloc}"


# A server table entry: an origin and the advertisement its pages carry.
SERVER = row(("server_origin", STR), ("endpoints", nested(EndpointAdvertisement)))


@dataclass
class SessionRecord:
    """One session with one server: cookie, key path, wrapper, history.

    History entries are (time, URL path) pairs under the session's origin.
    The store file holds each session as a ``StoredSession``."""

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


@dataclass
class StoredSession(Message):
    """A session as the store file holds it: the index of its (origin,
    advertisement) entry in the store's server table, then what is its own.
    Its cookie is the one its wrapper binds. History entries are URL paths
    in both modes; the origin is the table entry's."""

    FIELDS = (
        Field("server", integer(32)),
        Field("derivation_path", converted(STR, DerivationPath.parse, str), "path"),
        Field("wrapper", nested(Wrapper)),
        Field("created_at", TIME),
        Field("history", list_of(VISIT, list)),
    )

    server: int
    path: DerivationPath
    wrapper: Wrapper
    created_at: int
    history: list[tuple[int, str]]


class AgentStore:
    """Device key, server table, sessions, cookie index and pinned server keys.

    Single-writer: every mutation happens under one lock. The server table
    lists each distinct (origin, advertisement) pair once, and a stored
    session names its pair by index. The cookie index maps (origin, cookie
    name, cookie value) to its session, and ``latest_for_origin`` reads the
    last session admitted for an origin; both are rebuilt on import rather
    than serialized. Each record on disk enters memory through ``_apply``.
    Sessions and visits added since the last save are kept as journal
    records; header fields changed since then are found by comparing the
    header with the one last saved.
    """

    def __init__(self) -> None:
        self.device_id: int | None = None
        self.device_xpub: ExtendedPublicKey | None = None
        self.next_j = 0
        self.server_counters: dict[int, int] = {}
        self.server_ids: dict[str, int] = {}
        self.servers: list[tuple[str, EndpointAdvertisement]] = []
        self.sessions: list[SessionRecord] = []
        self.pinned_server_keys: dict[str, bytes] = {}
        self.cookie_index: dict[tuple[str, str, str], SessionRecord] = {}
        self._server_index: dict[tuple[str, EndpointAdvertisement], int] = {}
        self._origins: dict[str, int] = {}  # origin -> index of its first entry
        self._latest: dict[str, SessionRecord] = {}
        self._paths: set[tuple[int, ...]] = set()  # held paths, by segments
        self._changes: list[StoreChange] = []
        self._saved_header: dict | None = None
        self.lock = threading.Lock()

    # --- provisioning ---------------------------------------------------------

    def provision_device(self, device_xpub: ExtendedPublicKey, device_id: int) -> None:
        (device_id,) = DerivationPath((device_id,)).segments  # an int in [0, 2^31)
        with self.lock:
            if self.device_xpub is not None:
                raise AlreadyProvisioned(f"device {self.device_id} already set")
            self.device_xpub = device_xpub
            self.device_id = device_id
            self.next_j = 0

    def require_provisioned(self) -> ExtendedPublicKey:
        if self.device_xpub is None or self.device_id is None:
            raise NotProvisioned("agent store has no device key")
        return self.device_xpub

    # --- server table -----------------------------------------------------------

    def _add_servers(self, table: list) -> None:
        """The one rule for the server table, given whole as a store file or
        a header record holds it: it keeps every entry the store holds, in
        place, and holds each (origin, advertisement) pair once. Entries
        already held keep their objects, which their sessions share."""
        held = len(self.servers)
        if table[:held] != self.servers:
            raise MalformedMessage("server table drops or changes an entry")
        for entry in table[held:]:
            self._add_server(entry)

    def _add_server(self, entry: tuple[str, EndpointAdvertisement]) -> int:
        if entry in self._server_index:
            raise MalformedMessage(f"server table holds an entry for {entry[0]} twice")
        index = self._server_index[entry] = len(self.servers)
        self.servers.append(entry)
        self._origins.setdefault(entry[0], index)
        return index

    def _server(self, index: int) -> tuple[str, EndpointAdvertisement]:
        if not 0 <= index < len(self.servers):
            raise MalformedMessage(f"no server table entry {index}")
        return self.servers[index]

    def stored(self, record: SessionRecord) -> StoredSession:
        """``record`` as the store file holds it; its server must be in the
        table."""
        server = self._server_index[record.server_origin, record.endpoints]
        return StoredSession(
            server, record.path, record.wrapper, record.created_at, record.history
        )

    def _session(self, stored: StoredSession) -> SessionRecord:
        """The session a stored one names, sharing its table entry."""
        origin, endpoints = self._server(stored.server)
        wrapper = stored.wrapper
        return SessionRecord(
            origin,
            endpoints,
            wrapper.client_id,
            stored.path,
            wrapper,
            stored.created_at,
            stored.history,
        )

    # --- sessions ---------------------------------------------------------------

    def _admit(self, record: SessionRecord) -> None:
        """The one rule for a session entering the store, new or imported:
        a path of this device, the cookie its wrapper binds, and neither
        path nor cookie at its origin held by a session already in the
        store."""
        origin, cid = record.server_origin, record.client_id
        segments, cookie = record.path.segments, (origin, cid.cookie_name, cid.cookie_value)
        if segments[0] != self.device_id:
            raise MalformedMessage("session path belongs to another device")
        # A loaded session's cookie is its wrapper's own object.
        if cid is not record.wrapper.client_id and cid != record.wrapper.client_id:
            raise MalformedMessage("session cookie is not the one its wrapper binds")
        if segments in self._paths:
            raise MalformedMessage(f"duplicate derivation path {record.path}")
        if cookie in self.cookie_index:
            raise MalformedMessage(f"a session already holds cookie {cid.cookie_name}")
        self._paths.add(segments)
        self.sessions.append(record)
        self.cookie_index[cookie] = record
        self._latest[origin] = record

    def add_session(self, record: SessionRecord) -> None:
        with self.lock:
            self._admit(record)
            entry = (record.server_origin, record.endpoints)
            server = self._server_index.get(entry)
            if server is None:
                server = self._add_server(entry)  # journaled with the header
            # As admitted: a visit recorded later is a change of its own.
            stored = StoredSession(
                server, record.path, record.wrapper, record.created_at, list(record.history)
            )
            self._changes.append(StoreChange(sessions=[stored]))

    def find_by_cookie(
        self, origin: str, cookie_name: str, cookie_value: str
    ) -> SessionRecord | None:
        return self.cookie_index.get((origin, cookie_name, cookie_value))

    def find_by_sid(self, sid: str) -> SessionRecord | None:
        for record in self.sessions:
            if record.sid == sid:
                return record
        return None

    def latest_for_origin(self, origin: str) -> SessionRecord | None:
        return self._latest.get(origin)

    def server_id_for(self, origin: str) -> int:
        """Client-local server id used in server-scoped derivation paths."""
        with self.lock:
            return self._server_id(origin)

    def _server_id(self, origin: str) -> int:
        if origin not in self.server_ids:
            self.server_ids[origin] = max(self.server_ids.values(), default=-1) + 1
        return self.server_ids[origin]

    def claim_path(self, origin: str, unified: bool) -> DerivationPath:
        """The one rule for spending a session index: the device's next
        index, or with ``unified`` the next under the origin's server id.
        Nothing hands an index back, so no key is offered twice."""
        with self.lock:
            if unified:
                s = self._server_id(origin)
                j = self.server_counters.get(s, 0)
                path = DerivationPath((self.device_id, s, j))
                self.server_counters[s] = j + 1
            else:
                j = self.next_j
                path = DerivationPath((self.device_id, j))
                self.next_j = j + 1
            return path

    def record_visit(self, cookie_header_pairs, url: str, now: int) -> int:
        """Append (now, URL path) to each session of the URL's origin whose
        cookie appears in the request's cookie pairs; other cookies are
        ignored."""
        parts = urlsplit(url)
        origin, path, now = _origin(parts), parts.path or "/", int(now)
        updated = 0
        with self.lock:
            for name, value in cookie_header_pairs:
                if self._visit((origin, name, value), now, path):
                    visit = (self._origins[origin], name, value, now, path)
                    self._changes.append(StoreChange(visit=visit))
                    updated += 1
        return updated

    def _visit(self, cookie: tuple[str, str, str], now: int, path: str) -> bool:
        """The one rule for a visit entering the store: it joins the history
        of the session holding the cookie at its origin, if the store has
        one."""
        record = self.cookie_index.get(cookie)
        if record is not None:
            record.history.append((now, path))
        return record is not None

    # --- persistence ------------------------------------------------------------

    def export(self, mode: WireMode = WIRE_MODE) -> bytes:
        """The store's snapshot record; contains the device *public* key only."""
        self.require_provisioned()
        sessions = [self.stored(record) for record in self.sessions]
        return encoding.to_wire(StoreChange(STORE_VERSION, self, sessions), mode).encode()

    @classmethod
    def import_(cls, data: bytes) -> "AgentStore":
        """A store from an export or a snapshot in either mode: VERBOSE when
        its version is spelled out, OPTIMIZED otherwise."""
        store = cls()
        try:
            raw = encoding.json_object(data)
            mode = WireMode.VERBOSE if "version" in raw else WireMode.OPTIMIZED
            store._apply(StoreChange.from_wire_dict(raw, mode))
        except MalformedMessage as exc:
            raise CorruptStore(str(exc)) from None
        return store

    # --- journal ----------------------------------------------------------------

    def _apply(self, change: StoreChange) -> None:
        """The one rule for a record entering the store: first the snapshot,
        the one record with the store version and a header, then each
        journal record. Every counter keeps ``claim_path``'s promise."""
        snapshot = self.device_id is None  # no header read yet
        if (change.version is not None) != snapshot:
            raise MalformedMessage("the store version is the snapshot's and no other record's")
        if change == StoreChange() or snapshot and change.header is None:
            raise MalformedMessage("record changes nothing, or snapshot has no header")
        if change.header is not None:
            header = change.header
            device = (header["device_id"], header["device_xpub"])
            if not snapshot and device != (self.device_id, self.device_xpub):
                raise MalformedMessage("header changes the device")
            counters = header.get("server_counters", self.server_counters)
            ids = header.get("server_ids", self.server_ids)
            if header["next_j"] < self.next_j or any(
                counters.get(s, 0) < j for s, j in self.server_counters.items()
            ):
                raise MalformedMessage("header lowers a session counter")
            if len(set(ids.values())) < len(ids) or not self.server_ids.items() <= ids.items():
                raise MalformedMessage("header drops, moves or shares a server id")
            self._add_servers(header.pop("servers"))
            vars(self).update(header)
        for stored in change.sessions:
            segments = stored.path.segments  # m/d/j or m/d/s/j, j below its counter
            unified = len(segments) == 3
            counter = self.server_counters.get(segments[1], 0) if unified else self.next_j
            if len(segments) not in (2, 3) or segments[-1] >= counter:
                raise MalformedMessage(f"session {stored.path} holds an index not yet spent")
            self._admit(self._session(stored))
        if change.visit is not None:
            server, name, value, now, path = change.visit
            origin, _ = self._server(server)
            if not self._visit((origin, name, value), now, path):
                raise MalformedMessage("visit to a session the store lacks")

    def encoded_header(self) -> dict:
        """The header fields as a save compares and keeps them."""
        return STORE_HEADER.encode[WIRE_MODE](self)

    def unsaved_changes(self, header: dict) -> list[bytes]:
        """Journal records for what changed since the last save: the header
        first when ``header``, its encoding now, differs from the saved
        one, then each session and visit in order."""
        changes = self._changes
        if header != self._saved_header:
            changes = [StoreChange(header=self), *changes]
        return [encoding.to_wire(c, WIRE_MODE).encode() for c in changes]

    def saved(self, header: dict) -> None:
        """Everything this store holds, ``header`` its header's encoding
        now, is on disk."""
        self._changes.clear()
        self._saved_header = header

    def replay(self, records: list[bytes]) -> None:
        """Apply journal records through the rule that read the snapshot;
        the store then counts as saved."""
        for data in records:
            try:
                self._apply(encoding.from_wire(StoreChange, data, WIRE_MODE))
            except MalformedMessage as exc:
                raise CorruptStore(f"bad journal record: {exc}") from None
        self.saved(self.encoded_header())


class StoreHeader(Message):
    """The store's fields other than its version and sessions. Encoded
    straight from an ``AgentStore``; decodes to a dict of its attributes."""

    FIELDS = (
        Field("device_id", integer()),
        Field("device_xpub", XPUB),
        Field("next_session", integer(), "next_j"),
        Field("server_counters", map_of(integer(), key=int), optional=True),
        Field("server_ids", map_of(integer()), optional=True),
        Field("servers", list_of(SERVER, list)),
        Field("pinned_keys", map_of(fixed(POINT_BYTES)), "pinned_server_keys", optional=True),
    )

    @classmethod
    def _from_fields(cls, values: dict) -> dict:
        return values


STORE_HEADER = nested(StoreHeader)


@dataclass
class StoreChange(Message):
    """One store record, in the store file's keys. The snapshot, a store
    file's first line and an export, is the store version, the header and
    every session. Each journal record after it is the header fields as
    they now are, a session as it was admitted, or one visit to a session,
    its origin named by a server table index."""

    FIELDS = (
        Field("version", converted(integer(), _store_version, int), omit_empty=True),
        Field("header", maybe(STORE_HEADER), flatten="device_id"),
        Field("sessions", list_of(nested(StoredSession), list), omit_empty=True),
        Field(
            "visits",
            maybe(
                row(
                    ("server", integer(32)),
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

    version: int | None = None  # STORE_VERSION in the snapshot alone
    header: object = None  # the AgentStore when encoding, a dict once decoded
    sessions: list[StoredSession] = field(default_factory=list)
    visit: tuple[int, str, str, int, str] | None = None

    def to_wire_dict(self, mode: WireMode) -> dict:
        data = super().to_wire_dict(mode)
        if self.version:  # L even when empty: the reader before this layout needs it
            data.setdefault(encoding.wire_key("sessions", mode), [])
        return data


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
        with _collection_paused():
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
            header = self.store.encoded_header()
            if journal is None or not journal.append(self.store.unsaved_changes(header)):
                journal = files.compact(self.store_path, self.store.export(WIRE_MODE))
            self.store.saved(header)
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
        """Claim a session index, obtain and echo-check a wrapper for its
        key, add the session to the store; the caller saves. The index is
        spent even when this fails, so its key is never offered again."""
        path = self.store.claim_path(origin, unified)
        relative = DerivationPath(path.segments[1:])
        session_xpub = derive_path(self.store.device_xpub, relative)
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
        return record

    # --- browsing ------------------------------------------------------------------

    def visit(
        self, url: str, now: int, unified: bool = False, fresh: bool = False
    ) -> tuple[SessionRecord | None, httpwire.HttpExchange]:
        """Fetch a page; start a session when the server hands out a new
        cookie, otherwise append to the matching session's history. Saves
        the store once, after the visit is recorded or the session start
        failed: a first-sight pin and a spent index are kept either way."""
        self.store.require_provisioned()
        origin = _origin(urlsplit(url))

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
        try:
            self._check_pin(origin, advertisement)
            client_id = self._cookie_from_set_cookie(exchange.set_cookies)
            session = None
            if client_id is not None:
                session = self.store.find_by_cookie(
                    origin, client_id.cookie_name, client_id.cookie_value
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
        finally:
            self.save()
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
