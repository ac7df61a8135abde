"""Verifiable consumer requests: build, sign, verify, replay-protect, seal.

A request carries one or more wrappers, an action (ACCESS / MODIFY /
DELETE), a timestamp and one signature per required signer. The server
checks each wrapper's signature, its own, the first time it sees that
wrapper, and remembers the success in a ``VerifiedMemo``. It then checks
freshness and every request signature under the wrapper-bound keys, on
every request, and last admits the request against replay. The unified
variant covers many sessions with a single signature under a server-scoped
parent key from which every session key is re-derived by the verifier,
again once per (parent key, index) while the memo holds it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from enum import IntEnum

from . import curve
from .curve import POINT_BYTES
from .encoding import (
    STR,
    TAG_VCR_BODY,
    TIME,
    Field,
    Message,
    choice,
    converted,
    fixed,
    integer,
    list_of,
    maybe,
    nested,
    row,
)
from .errors import (
    BadRequestSignature,
    BadSignature,
    BadWrapper,
    ClockUnavailable,
    EmptyWrapperList,
    FutureTimestamp,
    MalformedMessage,
    MalformedWrapper,
    MissingSignature,
    MixedServers,
    ReplayDetected,
    SessionKeyMismatch,
    StaleTimestamp,
    UnencodableField,
    UnknownServerKey,
)
from .keyhier import DerivationPath, ExtendedPublicKey, derive_child_pub
from .sealing import HybridCiphertext, hybrid_decrypt, hybrid_encrypt
from .wrapper import SIGNATURE_BYTES, ClientId, Wrapper, key_id, verify_wrapper

VCR_VERSION = 1
DEFAULT_TOLERANCE_SECONDS = 300

SEAL_INFO = b"vcr-seal-v1"

SealedVcr = HybridCiphertext


class ActionKind(IntEnum):
    ACCESS = 1
    MODIFY = 2
    DELETE = 3


_KIND_NAMES = {
    ActionKind.ACCESS: "access",
    ActionKind.MODIFY: "modify",
    ActionKind.DELETE: "delete",
}


_CHANGE = row(("field", STR), ("old_value", STR), ("new_value", STR))


@dataclass(frozen=True)
class VcrAction(Message):
    """Requested operation plus its action metadata.

    ACCESS may carry a response-encryption public key; MODIFY carries
    (field, old_value, new_value) triples — old values are mandatory so a
    replayed or reordered MODIFY cannot silently overwrite fresher data.
    """

    # The canonical body after the kind byte depends on the kind: ACCESS
    # has the optional key, MODIFY the triples, DELETE nothing.
    FIELDS = (
        Field("kind", choice(ActionKind, _KIND_NAMES)),
        Field(
            "response_pubkey",
            maybe(fixed(POINT_BYTES)),
            omit_empty=True,
            when=("kind", ActionKind.ACCESS),
        ),
        Field(
            "changes",
            list_of(_CHANGE),
            omit_empty=True,
            when=("kind", ActionKind.MODIFY),
        ),
    )

    kind: ActionKind
    response_pubkey: bytes | None = None
    changes: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind is ActionKind.MODIFY:
            if not self.changes:
                raise MalformedMessage("MODIFY needs at least one change triple")
            for item in self.changes:
                if len(item) != 3 or not item[0]:
                    raise MalformedMessage("MODIFY triple needs field, old and new")
        elif self.changes:
            raise MalformedMessage("only MODIFY carries change triples")
        if self.kind is not ActionKind.ACCESS and self.response_pubkey is not None:
            raise MalformedMessage("only ACCESS carries a response key")
        if self.response_pubkey is not None:
            # The untrusted key's one on-curve check; it runs before replay
            # admission and fulfilment.
            curve.decompress(self.response_pubkey)


# A 71-byte serialized extended public key.
XPUB = converted(fixed(71), ExtendedPublicKey.deserialize, ExtendedPublicKey.serialize)


@dataclass(frozen=True)
class UnifiedProof(Message):
    """Server-scoped parent public key and the session index under it for
    each wrapper, aligned positionally with the request's wrapper list."""

    FIELDS = (
        Field("unified_xpub", XPUB, "server_xpub"),
        Field("session_indices", list_of(integer(32))),
    )

    server_xpub: ExtendedPublicKey
    session_indices: tuple[int, ...]


@dataclass(frozen=True)
class VcrRequest(Message):
    TAG = TAG_VCR_BODY
    # Every request signature covers the fields up to ``unified``; the
    # unified proof's keys sit at the top level of the JSON object.
    FIELDS = (
        Field("version", integer(8)),
        Field("wrappers", list_of(nested(Wrapper))),
        Field("action", nested(VcrAction)),
        Field("timestamp", TIME),
        Field("unified", maybe(nested(UnifiedProof)), flatten="unified_xpub"),
        Field("signatures", list_of(fixed(SIGNATURE_BYTES)), signed=False),
    )

    version: int
    wrappers: tuple[Wrapper, ...]
    action: VcrAction
    timestamp: int
    unified: UnifiedProof | None = None
    signatures: tuple[bytes, ...] = ()

    signed_body = Message.signed_canonical

    def digest(self) -> bytes:
        """Replay digest: hash of the signed body, signatures excluded,
        so re-signing the same body is still a replay."""
        return curve.sha256(self.signed_body())


@dataclass(frozen=True)
class VerifiedRequest:
    """Outcome of successful verification: who (cookies) and what (action)."""

    client_ids: tuple[ClientId, ...]
    action: VcrAction

    @property
    def client_id(self) -> ClientId:
        return self.client_ids[0]


class ReplayCache:
    """Digests seen within the freshness window; atomic check-and-insert.

    Each digest is kept until ``max(arrival, timestamp) + tolerance``: until
    then the request's own timestamp can still pass the freshness check, so
    dropping the digest earlier would let the same bytes in twice. Since
    ``verify_vcr`` accepts timestamps up to a tolerance ahead, that is at
    most ``2 * tolerance`` after arrival. Entries expire in admission order,
    the way Kerberos's authenticator replay cache does (RFC 4120 §3.2.3):
    eviction pops from the oldest end while the oldest entry has expired,
    so admission is amortised O(1). A future-stamped entry at that end can
    hold later, already-expired entries back, at most until 2 * tolerance
    after their arrival; that costs memory only, since their timestamps can
    no longer pass the freshness check.

    The cache is memory only: a restarted server forgets every digest, so
    a request admitted before a restart can be replayed while still fresh.
    """

    def __init__(self, tolerance: int = DEFAULT_TOLERANCE_SECONDS) -> None:
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance
        self._entries: dict[bytes, int] = {}  # digest -> expiry
        self._order: deque[bytes] = deque()  # digests in admission order
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def admit(self, digest: bytes, now: int, timestamp: int | None = None) -> None:
        """Record the digest or raise ReplayDetected; never admits twice.

        ``timestamp`` is the request's own; without it the entry is keyed on
        arrival time ``now``.
        """
        expires = (now if timestamp is None else max(now, timestamp)) + self.tolerance
        with self._lock:
            while self._order and self._entries[self._order[0]] < now:
                del self._entries[self._order.popleft()]
            if digest in self._entries:
                raise ReplayDetected(digest.hex()[:16])
            self._entries[digest] = expires
            self._order.append(digest)


class VerifiedMemo:
    """Outcomes of checks that passed, so that the same inputs are not
    checked twice, like Bitcoin Core's signature cache.

    Each key covers every input its check reads: a wrapper's entry is the
    SHA-256 of the server key, the wrapper signature and the signed payload;
    a session key's entry maps (serialized parent key, index) to the child
    point that a wrapper was found to bind. Only successes are recorded, so
    a refused input is checked again on its next arrival. At most
    ``MAX_ENTRIES`` are kept, the oldest recorded dropped first. The memo is
    memory only and starts empty.
    """

    MAX_ENTRIES = 65_536

    def __init__(self) -> None:
        self._entries: OrderedDict[object, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The recorded outcome, or None."""
        with self._lock:
            return self._entries.get(key)

    def add(self, key, outcome) -> None:
        with self._lock:
            self._entries[key] = outcome
            if len(self._entries) > self.MAX_ENTRIES:
                self._entries.popitem(last=False)


def _wrapper_memo_key(server_pubkey: bytes, wrapper: Wrapper) -> bytes:
    """Digest of everything ``verify_wrapper`` reads. The key and the
    signature have fixed sizes, so the concatenation is unambiguous."""
    return curve.sha256(server_pubkey + wrapper.signature + wrapper.signed_payload())


def build_vcr(
    wrappers, action: VcrAction, now: int, unified: UnifiedProof | None = None
) -> VcrRequest:
    """Unsigned request over one or more wrappers from a single server."""
    wrappers = tuple(wrappers)
    if not wrappers:
        raise EmptyWrapperList("request needs at least one wrapper")
    if now is None or int(now) <= 0:
        raise ClockUnavailable("request needs a positive unix time")
    key_ids = {w.server_key_id for w in wrappers}
    if len(key_ids) != 1:
        raise MixedServers(f"{len(key_ids)} different server keys")
    return VcrRequest(
        version=VCR_VERSION,
        wrappers=wrappers,
        action=action,
        timestamp=int(now),
        unified=unified,
    )


def build_unified_vcr(
    wrappers,
    server_xpub: ExtendedPublicKey,
    session_indices,
    action: VcrAction,
    now: int,
) -> VcrRequest:
    """Unsigned single-signature request covering several sessions.

    Each wrapper must bind exactly the child key of ``server_xpub`` at its
    session index; this is checked here so a bad batch fails client-side
    before it is ever signed.
    """
    wrappers = tuple(wrappers)
    session_indices = tuple(int(j) for j in session_indices)
    _check_session_keys(wrappers, server_xpub, session_indices)
    return build_vcr(
        wrappers,
        action,
        now,
        unified=UnifiedProof(server_xpub=server_xpub, session_indices=session_indices),
    )


def sign_vcr(request: VcrRequest, signer, path: DerivationPath) -> VcrRequest:
    """Append one signature over the request body, produced by ``signer``.

    ``signer`` is anything exposing sign_digest(path, digest) -> 64 bytes —
    the in-process signer state, the daemon client, or a test stub. Called
    once per required signer; each call appends positionally.
    """
    signature = signer.sign_digest(path, request.digest())
    return replace(request, signatures=request.signatures + (signature,))


def required_signer_keys(request: VcrRequest) -> tuple[bytes, ...]:
    """Public keys that must each have a valid signature, in order."""
    if request.unified is not None:
        return (request.unified.server_xpub.public_point,)
    keys: list[bytes] = []
    for wrapper in request.wrappers:
        keys.extend(wrapper.vcr_pubkeys)
    return tuple(keys)


def _check_session_keys(
    wrappers, server_xpub, session_indices, memo: VerifiedMemo | None = None
) -> None:
    """One session index per wrapper, and each wrapper binds exactly child j
    of the server-scoped key. A child that matched is kept in ``memo``."""
    if len(session_indices) != len(wrappers):
        raise SessionKeyMismatch("one session index per wrapper required")
    memo = VerifiedMemo() if memo is None else memo
    xpub = server_xpub.serialize()
    for wrapper, j in zip(wrappers, session_indices):
        key = (xpub, j)
        expected = memo.get(key) or derive_child_pub(server_xpub, j).public_point
        if wrapper.vcr_pubkeys != (expected,):
            raise SessionKeyMismatch(f"wrapper key is not session child {j}")
        memo.add(key, expected)


def verify_vcr(
    server_pubkey: bytes,
    request: VcrRequest,
    now: int,
    cache: ReplayCache,
    memo: VerifiedMemo | None = None,
) -> VerifiedRequest:
    """Full server-side verification; admits the digest on success.

    Wrapper signatures and session-key derivations found in ``memo`` are not
    checked again; without a memo every check runs."""
    memo = VerifiedMemo() if memo is None else memo
    if request.version != VCR_VERSION:
        raise MalformedMessage(f"unsupported request version {request.version}")
    if not request.wrappers:
        raise EmptyWrapperList("request carries no wrapper")
    if len({w.server_key_id for w in request.wrappers}) != 1:
        raise MixedServers("wrappers from different server keys")

    expected_key_id = key_id(server_pubkey)
    for wrapper in request.wrappers:
        try:
            key = _wrapper_memo_key(server_pubkey, wrapper)
            if memo.get(key) is None:
                verify_wrapper(server_pubkey, wrapper, expected_key_id=expected_key_id)
                memo.add(key, True)
        except (
            BadSignature,
            MalformedWrapper,
            UnencodableField,
            UnknownServerKey,
        ) as exc:
            raise BadWrapper(str(exc)) from None

    if request.timestamp <= 0:
        raise StaleTimestamp("non-positive timestamp")
    if request.timestamp > now + cache.tolerance:
        raise FutureTimestamp(f"{request.timestamp - now}s ahead")
    if request.timestamp < now - cache.tolerance:
        raise StaleTimestamp(f"{now - request.timestamp}s behind")

    proof = request.unified
    if proof is not None:
        _check_session_keys(
            request.wrappers, proof.server_xpub, proof.session_indices, memo
        )

    required = required_signer_keys(request)
    if len(request.signatures) < len(required):
        raise MissingSignature(
            f"{len(request.signatures)} of {len(required)} signatures present"
        )
    if len(request.signatures) > len(required):
        raise BadRequestSignature("more signatures than required signers")
    digest = request.digest()
    for pubkey, signature in zip(required, request.signatures):
        if not curve.verify_digest(pubkey, digest, signature):
            raise BadRequestSignature("request signature invalid")

    cache.admit(digest, now, request.timestamp)
    return VerifiedRequest(
        client_ids=tuple(w.client_id for w in request.wrappers),
        action=request.action,
    )


def seal_vcr(server_longterm_pub: bytes, request: VcrRequest) -> SealedVcr:
    """Super-encrypt the whole signed request to the server's long-term key,
    hiding action metadata from on-path observers."""
    if not request.signatures:
        raise MissingSignature("seal a fully signed request")
    return hybrid_encrypt(server_longterm_pub, request.to_canonical(), SEAL_INFO)


def unseal_vcr(server_key: curve.PrivateKey, sealed: SealedVcr) -> VcrRequest:
    plaintext = hybrid_decrypt(server_key, sealed, SEAL_INFO)
    return VcrRequest.from_canonical(plaintext)
