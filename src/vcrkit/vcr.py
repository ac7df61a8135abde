"""Verifiable consumer requests: build, sign, verify, replay-protect, seal.

A request carries one or more wrappers, an action (ACCESS / MODIFY /
DELETE), a timestamp and one signature per required signer. The server
verifies its own wrapper signature first, then the request signatures under
the wrapper-bound keys, then freshness and replay. The unified variant
covers many sessions with a single signature under a server-scoped parent
key from which every session key is re-derived by the verifier.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace
from enum import IntEnum

from . import curve
from .encoding import (
    TAG_VCR_BODY,
    CanonicalReader,
    CanonicalWriter,
    WireMode,
    bin_from_wire,
    bin_to_wire,
    optional,
    require,
)
from .errors import (
    BadRequestSignature,
    BadSignature,
    BadWrapper,
    ClockUnavailable,
    EmptyWrapperList,
    FutureTimestamp,
    InvalidPublicKey,
    MalformedMessage,
    MalformedPath,
    MalformedWrapper,
    MissingSignature,
    MixedServers,
    ReplayDetected,
    SessionKeyMismatch,
    StaleTimestamp,
    UnknownServerKey,
)
from .keyhier import DerivationPath, ExtendedPublicKey, derive_child_pub
from .sealing import HybridCiphertext, hybrid_decrypt, hybrid_encrypt
from .wrapper import SIGNATURE_BYTES, ClientId, Wrapper, verify_wrapper

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
_KIND_BY_NAME = {v: k for k, v in _KIND_NAMES.items()}


@dataclass(frozen=True)
class VcrAction:
    """Requested operation plus its action metadata.

    ACCESS may carry a response-encryption public key; MODIFY carries
    (field, old_value, new_value) triples — old values are mandatory so a
    replayed or reordered MODIFY cannot silently overwrite fresher data.
    """

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
            curve.decompress(self.response_pubkey)

    def write_canonical(self, w: CanonicalWriter) -> None:
        w.u8(int(self.kind))
        if self.kind is ActionKind.ACCESS:
            if self.response_pubkey is None:
                w.u8(0)
            else:
                w.u8(1)
                w.fixed(self.response_pubkey, 33)
        elif self.kind is ActionKind.MODIFY:
            w.count(len(self.changes))
            for name, old, new in self.changes:
                w.vstr(name)
                w.vstr(old)
                w.vstr(new)

    @classmethod
    def read_canonical(cls, r: CanonicalReader) -> "VcrAction":
        try:
            kind = ActionKind(r.u8())
        except ValueError as exc:
            raise MalformedMessage(str(exc)) from None
        response_pubkey = None
        changes: tuple[tuple[str, str, str], ...] = ()
        if kind is ActionKind.ACCESS:
            if r.u8():
                response_pubkey = r.fixed(33)
        elif kind is ActionKind.MODIFY:
            changes = tuple(
                (r.vstr(), r.vstr(), r.vstr()) for _ in range(r.count())
            )
        return cls(kind=kind, response_pubkey=response_pubkey, changes=changes)

    def to_wire_dict(self, mode: WireMode) -> dict:
        from .encoding import wire_key as k

        out: dict = {
            k("kind", mode): (
                int(self.kind)
                if mode is WireMode.OPTIMIZED
                else _KIND_NAMES[self.kind]
            )
        }
        if self.response_pubkey is not None:
            out[k("response_pubkey", mode)] = bin_to_wire(self.response_pubkey, mode)
        if self.changes:
            if mode is WireMode.OPTIMIZED:
                out[k("changes", mode)] = [list(c) for c in self.changes]
            else:
                out[k("changes", mode)] = [
                    {"field": f, "old_value": o, "new_value": n}
                    for f, o, n in self.changes
                ]
        return out

    @classmethod
    def from_wire_dict(cls, data: dict, mode: WireMode) -> "VcrAction":
        raw_kind = require(data, "kind", mode)
        try:
            kind = (
                ActionKind(int(raw_kind))
                if mode is WireMode.OPTIMIZED
                else _KIND_BY_NAME[str(raw_kind)]
            )
        except (KeyError, ValueError) as exc:
            raise MalformedMessage(f"bad action kind: {exc}") from None
        raw_key = optional(data, "response_pubkey", mode)
        raw_changes = optional(data, "changes", mode, [])
        try:
            if mode is WireMode.OPTIMIZED:
                changes = tuple((str(f), str(o), str(n)) for f, o, n in raw_changes)
            else:
                changes = tuple(
                    (str(c["field"]), str(c["old_value"]), str(c["new_value"]))
                    for c in raw_changes
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedMessage(f"bad change triples: {exc}") from None
        return cls(
            kind=kind,
            response_pubkey=(
                bin_from_wire(raw_key, mode) if raw_key is not None else None
            ),
            changes=changes,
        )


@dataclass(frozen=True)
class UnifiedProof:
    """Server-scoped parent public key and the session index under it for
    each wrapper, aligned positionally with the request's wrapper list."""

    server_xpub: ExtendedPublicKey
    session_indices: tuple[int, ...]

    def write_canonical(self, w: CanonicalWriter) -> None:
        w.fixed(self.server_xpub.serialize(), 71)
        w.count(len(self.session_indices))
        for j in self.session_indices:
            w.u32(j)

    @classmethod
    def read_canonical(cls, r: CanonicalReader) -> "UnifiedProof":
        try:
            xpub = ExtendedPublicKey.deserialize(r.fixed(71))
        except (MalformedPath, InvalidPublicKey, ValueError) as exc:
            raise MalformedMessage(f"bad unified key: {exc}") from None
        indices = tuple(r.u32() for _ in range(r.count()))
        return cls(server_xpub=xpub, session_indices=indices)


@dataclass(frozen=True)
class VcrRequest:
    version: int
    wrappers: tuple[Wrapper, ...]
    action: VcrAction
    timestamp: int
    unified: UnifiedProof | None = None
    signer_paths: tuple[str, ...] = ()
    signatures: tuple[bytes, ...] = ()

    def _write_signed_fields(self, w: CanonicalWriter) -> None:
        w.u8(TAG_VCR_BODY)
        w.u8(self.version)
        w.count(len(self.wrappers))
        for wrapper in self.wrappers:
            wrapper.write_canonical(w)
        self.action.write_canonical(w)
        w.u64(self.timestamp)
        if self.unified is None:
            w.u8(0)
        else:
            w.u8(1)
            self.unified.write_canonical(w)

    def signed_body(self) -> bytes:
        """The exact bytes covered by every request signature."""
        w = CanonicalWriter()
        self._write_signed_fields(w)
        return w.getvalue()

    def digest(self) -> bytes:
        """Replay digest: hash of the signed body, signatures excluded,
        so re-signing the same body is still a replay."""
        return curve.sha256(self.signed_body())

    def to_canonical(self) -> bytes:
        w = CanonicalWriter()
        self._write_signed_fields(w)
        w.count(len(self.signer_paths))
        for path in self.signer_paths:
            w.vstr(path)
        w.count(len(self.signatures))
        for sig in self.signatures:
            w.fixed(sig, SIGNATURE_BYTES)
        return w.getvalue()

    @classmethod
    def from_canonical(cls, data: bytes) -> "VcrRequest":
        r = CanonicalReader(data)
        try:
            if r.u8() != TAG_VCR_BODY:
                raise MalformedMessage("expected request tag")
            version = r.u8()
            wrappers = tuple(Wrapper.read_canonical(r) for _ in range(r.count()))
            action = VcrAction.read_canonical(r)
            timestamp = r.u64()
            unified = UnifiedProof.read_canonical(r) if r.u8() else None
            paths = tuple(r.vstr() for _ in range(r.count()))
            sigs = tuple(r.fixed(SIGNATURE_BYTES) for _ in range(r.count()))
            r.expect_end()
        except (InvalidPublicKey, MalformedWrapper) as exc:
            raise MalformedMessage(str(exc)) from None
        return cls(
            version=version,
            wrappers=wrappers,
            action=action,
            timestamp=timestamp,
            unified=unified,
            signer_paths=paths,
            signatures=sigs,
        )

    def to_wire_dict(self, mode: WireMode) -> dict:
        from .encoding import time_to_wire, wire_key as k

        out = {
            k("version", mode): self.version,
            k("wrappers", mode): [w.to_wire_dict(mode) for w in self.wrappers],
            k("action", mode): self.action.to_wire_dict(mode),
            k("timestamp", mode): time_to_wire(self.timestamp, mode),
        }
        if self.unified is not None:
            out[k("unified_xpub", mode)] = bin_to_wire(
                self.unified.server_xpub.serialize(), mode
            )
            out[k("session_indices", mode)] = list(self.unified.session_indices)
        if self.signer_paths:
            out[k("signer_paths", mode)] = list(self.signer_paths)
        out[k("signatures", mode)] = [bin_to_wire(s, mode) for s in self.signatures]
        return out

    @classmethod
    def from_wire_dict(cls, data: dict, mode: WireMode) -> "VcrRequest":
        from .encoding import time_from_wire

        raw_xpub = optional(data, "unified_xpub", mode)
        unified = None
        if raw_xpub is not None:
            raw_indices = require(data, "session_indices", mode)
            try:
                unified = UnifiedProof(
                    server_xpub=ExtendedPublicKey.deserialize(
                        bin_from_wire(raw_xpub, mode)
                    ),
                    session_indices=tuple(int(j) for j in raw_indices),
                )
            except (TypeError, ValueError, MalformedPath, InvalidPublicKey) as exc:
                raise MalformedMessage(f"bad unified proof: {exc}") from None
        try:
            return cls(
                version=int(require(data, "version", mode)),
                wrappers=tuple(
                    Wrapper.from_wire_dict(w, mode)
                    for w in require(data, "wrappers", mode)
                ),
                action=VcrAction.from_wire_dict(require(data, "action", mode), mode),
                timestamp=time_from_wire(require(data, "timestamp", mode), mode),
                unified=unified,
                signer_paths=tuple(
                    str(p) for p in optional(data, "signer_paths", mode, [])
                ),
                signatures=tuple(
                    bin_from_wire(s, mode)
                    for s in require(data, "signatures", mode)
                ),
            )
        except (TypeError, ValueError) as exc:
            raise MalformedMessage(f"bad request wire form: {exc}") from None


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
    if len(wrappers) != len(session_indices):
        raise SessionKeyMismatch("one session index per wrapper required")
    for wrapper, j in zip(wrappers, session_indices):
        expected = derive_child_pub(server_xpub, j).public_point
        if wrapper.vcr_pubkeys != (expected,):
            raise SessionKeyMismatch(f"wrapper key is not session child {j}")
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
    return replace(
        request,
        signer_paths=request.signer_paths + (str(path),),
        signatures=request.signatures + (signature,),
    )


def required_signer_keys(request: VcrRequest) -> tuple[bytes, ...]:
    """Public keys that must each have a valid signature, in order."""
    if request.unified is not None:
        return (request.unified.server_xpub.public_point,)
    keys: list[bytes] = []
    for wrapper in request.wrappers:
        keys.extend(wrapper.vcr_pubkeys)
    return tuple(keys)


def _check_unified(request: VcrRequest) -> None:
    proof = request.unified
    assert proof is not None
    if len(proof.session_indices) != len(request.wrappers):
        raise SessionKeyMismatch("one session index per wrapper required")
    for wrapper, j in zip(request.wrappers, proof.session_indices):
        if len(wrapper.vcr_pubkeys) != 1:
            raise SessionKeyMismatch("unified wrappers carry exactly one key")
        expected = derive_child_pub(proof.server_xpub, j).public_point
        if wrapper.vcr_pubkeys[0] != expected:
            raise SessionKeyMismatch(f"wrapper key is not session child {j}")


def verify_vcr(
    server_pubkey: bytes, request: VcrRequest, now: int, cache: ReplayCache
) -> VerifiedRequest:
    """Full server-side verification; admits the digest on success."""
    if request.version != VCR_VERSION:
        raise MalformedMessage(f"unsupported request version {request.version}")
    if not request.wrappers:
        raise EmptyWrapperList("request carries no wrapper")
    if len({w.server_key_id for w in request.wrappers}) != 1:
        raise MixedServers("wrappers from different server keys")

    expected_key_id = curve.sha256(server_pubkey)[:8]
    for wrapper in request.wrappers:
        try:
            verify_wrapper(server_pubkey, wrapper, expected_key_id=expected_key_id)
        except (BadSignature, MalformedWrapper, UnknownServerKey) as exc:
            raise BadWrapper(str(exc)) from None

    if request.timestamp <= 0:
        raise StaleTimestamp("non-positive timestamp")
    if request.timestamp > now + cache.tolerance:
        raise FutureTimestamp(f"{request.timestamp - now}s ahead")
    if request.timestamp < now - cache.tolerance:
        raise StaleTimestamp(f"{now - request.timestamp}s behind")

    if request.unified is not None:
        _check_unified(request)

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


def unseal_vcr(server_secret: int, sealed: SealedVcr) -> VcrRequest:
    plaintext = hybrid_decrypt(server_secret, sealed, SEAL_INFO)
    return VcrRequest.from_canonical(plaintext)
