"""Cookie wrappers: server-signed bindings of a session cookie to VCR keys.

A wrapper is the server's commitment that signatures under the embedded
public key(s) verify consumer requests for the data tied to the embedded
cookie. Shared devices embed n member keys instead of one; requests then
need all n signatures.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, replace
from functools import cached_property

from . import curve
from .encoding import (
    TAG_CLIENT_ID,
    TAG_WRAPPER,
    CanonicalReader,
    CanonicalWriter,
    WireMode,
    bin_from_wire,
    bin_to_wire,
    require,
)
from .errors import (
    BadSignature,
    ClientIdMismatch,
    ClockUnavailable,
    InvalidPublicKey,
    MalformedMessage,
    MalformedWrapper,
    PublicKeyMismatch,
    UnknownServerKey,
)

WRAPPER_VERSION = 1
KEY_ID_BYTES = 8
SIGNATURE_BYTES = 64
POINT_BYTES = 33

MAX_COOKIE_NAME = 64
MAX_COOKIE_VALUE = 256


@dataclass(frozen=True)
class ClientId:
    """One session cookie as (name, value)."""

    cookie_name: str
    cookie_value: str

    def __post_init__(self) -> None:
        if not self.cookie_name or len(self.cookie_name.encode()) > MAX_COOKIE_NAME:
            raise MalformedWrapper("cookie name empty or too long")
        if not self.cookie_value or len(self.cookie_value.encode()) > MAX_COOKIE_VALUE:
            raise MalformedWrapper("cookie value empty or too long")

    def write_canonical(self, w: CanonicalWriter) -> None:
        w.u8(TAG_CLIENT_ID)
        w.vstr(self.cookie_name)
        w.vstr(self.cookie_value)

    @classmethod
    def read_canonical(cls, r: CanonicalReader) -> "ClientId":
        if r.u8() != TAG_CLIENT_ID:
            raise MalformedMessage("expected client id tag")
        return cls(cookie_name=r.vstr(), cookie_value=r.vstr())

    def to_wire_dict(self, mode: WireMode) -> dict:
        from .encoding import wire_key as k

        return {
            k("cookie_name", mode): self.cookie_name,
            k("cookie_value", mode): self.cookie_value,
        }

    @classmethod
    def from_wire_dict(cls, data: dict, mode: WireMode) -> "ClientId":
        return cls(
            cookie_name=str(require(data, "cookie_name", mode)),
            cookie_value=str(require(data, "cookie_value", mode)),
        )


@dataclass(frozen=True)
class MultiSigPolicy:
    """Ordered member public keys that must all sign requests (n >= 1)."""

    member_pubkeys: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.member_pubkeys:
            raise InvalidPublicKey("policy needs at least one member key")
        if len(set(self.member_pubkeys)) != len(self.member_pubkeys):
            raise InvalidPublicKey("duplicate member keys")
        for point in self.member_pubkeys:
            curve.decompress(point)

    def __len__(self) -> int:
        return len(self.member_pubkeys)


@dataclass(frozen=True)
class ServerKey:
    """The server's long-term signing key; key id = sha256(pubkey)[:8]."""

    secret: int

    @cached_property
    def public_point(self) -> bytes:
        return curve.pubkey_bytes(self.secret)

    @cached_property
    def key_id(self) -> bytes:
        return curve.sha256(self.public_point)[:KEY_ID_BYTES]

    @classmethod
    def generate(cls) -> "ServerKey":
        return cls(secret=curve.generate_secret())

    def sign(self, digest: bytes) -> bytes:
        return curve.sign_digest(self.secret, digest)


@dataclass(frozen=True)
class Wrapper:
    version: int
    client_id: ClientId
    vcr_pubkeys: tuple[bytes, ...]
    issued_at: int
    server_key_id: bytes
    signature: bytes

    def _write_signed_fields(self, w: CanonicalWriter) -> None:
        w.u8(TAG_WRAPPER)
        w.u8(self.version)
        self.client_id.write_canonical(w)
        w.count(len(self.vcr_pubkeys))
        for point in self.vcr_pubkeys:
            w.fixed(point, POINT_BYTES)
        w.u64(self.issued_at)
        w.fixed(self.server_key_id, KEY_ID_BYTES)

    def signed_payload(self) -> bytes:
        w = CanonicalWriter()
        self._write_signed_fields(w)
        return w.getvalue()

    def write_canonical(self, w: CanonicalWriter) -> None:
        self._write_signed_fields(w)
        w.fixed(self.signature, SIGNATURE_BYTES)

    def to_canonical(self) -> bytes:
        w = CanonicalWriter()
        self.write_canonical(w)
        return w.getvalue()

    @classmethod
    def read_canonical(cls, r: CanonicalReader) -> "Wrapper":
        if r.u8() != TAG_WRAPPER:
            raise MalformedMessage("expected wrapper tag")
        version = r.u8()
        client_id = ClientId.read_canonical(r)
        keys = tuple(r.fixed(POINT_BYTES) for _ in range(r.count()))
        issued_at = r.u64()
        key_id = r.fixed(KEY_ID_BYTES)
        signature = r.fixed(SIGNATURE_BYTES)
        wrapper = cls(
            version=version,
            client_id=client_id,
            vcr_pubkeys=keys,
            issued_at=issued_at,
            server_key_id=key_id,
            signature=signature,
        )
        for point in keys:
            curve.decompress(point)
        return wrapper

    @classmethod
    def from_canonical(cls, data: bytes) -> "Wrapper":
        r = CanonicalReader(data)
        try:
            wrapper = cls.read_canonical(r)
            r.expect_end()
        except (MalformedMessage, InvalidPublicKey, MalformedWrapper) as exc:
            raise MalformedWrapper(str(exc)) from None
        return wrapper

    def to_wire_dict(self, mode: WireMode) -> dict:
        from .encoding import time_to_wire, wire_key as k

        return {
            k("version", mode): self.version,
            k("client_id", mode): self.client_id.to_wire_dict(mode),
            k("vcr_pubkeys", mode): [
                bin_to_wire(p, mode) for p in self.vcr_pubkeys
            ],
            k("issued_at", mode): time_to_wire(self.issued_at, mode),
            k("server_key_id", mode): bin_to_wire(self.server_key_id, mode),
            k("signature", mode): bin_to_wire(self.signature, mode),
        }

    @classmethod
    def from_wire_dict(cls, data: dict, mode: WireMode) -> "Wrapper":
        from .encoding import time_from_wire

        try:
            return cls(
                version=int(require(data, "version", mode)),
                client_id=ClientId.from_wire_dict(
                    require(data, "client_id", mode), mode
                ),
                vcr_pubkeys=tuple(
                    bin_from_wire(p, mode)
                    for p in require(data, "vcr_pubkeys", mode)
                ),
                issued_at=time_from_wire(require(data, "issued_at", mode), mode),
                server_key_id=bin_from_wire(
                    require(data, "server_key_id", mode), mode
                ),
                signature=bin_from_wire(require(data, "signature", mode), mode),
            )
        except (TypeError, ValueError) as exc:
            raise MalformedMessage(f"bad wrapper wire form: {exc}") from None


@dataclass(frozen=True)
class WrapperRequest:
    """POST body sent to the wrapper issuance endpoint."""

    client_id: ClientId
    vcr_pubkeys: tuple[bytes, ...]

    def to_wire_dict(self, mode: WireMode) -> dict:
        from .encoding import wire_key as k

        return {
            k("client_id", mode): self.client_id.to_wire_dict(mode),
            k("vcr_pubkeys", mode): [
                bin_to_wire(p, mode) for p in self.vcr_pubkeys
            ],
        }

    @classmethod
    def from_wire_dict(cls, data: dict, mode: WireMode) -> "WrapperRequest":
        try:
            return cls(
                client_id=ClientId.from_wire_dict(
                    require(data, "client_id", mode), mode
                ),
                vcr_pubkeys=tuple(
                    bin_from_wire(p, mode)
                    for p in require(data, "vcr_pubkeys", mode)
                ),
            )
        except (TypeError, ValueError) as exc:
            raise MalformedMessage(f"bad wrapper request: {exc}") from None


def issue_wrapper(
    server_key: ServerKey,
    client_id: ClientId,
    keys: MultiSigPolicy,
    now: int,
) -> Wrapper:
    """Sign the binding of ``client_id`` to the policy's member keys."""
    if now is None or int(now) <= 0:
        raise ClockUnavailable("issuance needs a positive unix time")
    wrapper = Wrapper(
        version=WRAPPER_VERSION,
        client_id=client_id,
        vcr_pubkeys=keys.member_pubkeys,
        issued_at=int(now),
        server_key_id=server_key.key_id,
        signature=b"\x00" * SIGNATURE_BYTES,
    )
    signature = server_key.sign(curve.sha256(wrapper.signed_payload()))
    return replace(wrapper, signature=signature)


def verify_wrapper(
    server_pubkey: bytes, wrapper: Wrapper, expected_key_id: bytes | None = None
) -> None:
    """Raise unless the wrapper's signature verifies under ``server_pubkey``."""
    try:
        if wrapper.version != WRAPPER_VERSION:
            raise MalformedWrapper(f"unsupported wrapper version {wrapper.version}")
        if len(wrapper.server_key_id) != KEY_ID_BYTES:
            raise MalformedWrapper("bad server key id length")
        if not wrapper.vcr_pubkeys:
            raise MalformedWrapper("wrapper embeds no keys")
        for point in wrapper.vcr_pubkeys:
            curve.decompress(point)
        payload = wrapper.signed_payload()
    except InvalidPublicKey as exc:
        raise MalformedWrapper(str(exc)) from None
    if expected_key_id is not None and wrapper.server_key_id != expected_key_id:
        raise UnknownServerKey(wrapper.server_key_id.hex())
    if not curve.verify_digest(server_pubkey, curve.sha256(payload), wrapper.signature):
        raise BadSignature("wrapper signature invalid")


def check_wrapper_echo(
    expected_keys: MultiSigPolicy, expected_client_id: ClientId, wrapper: Wrapper
) -> None:
    """Compare the echoed wrapper against what was sent.

    Defends against key injection on an insecure channel: a tampering
    middlebox can swap the key in flight, but then the echoed wrapper will
    not embed the key the client generated.
    """
    if wrapper.vcr_pubkeys != expected_keys.member_pubkeys:
        raise PublicKeyMismatch("wrapper embeds different keys than were sent")
    if wrapper.client_id != expected_client_id:
        raise ClientIdMismatch("wrapper embeds a different cookie than was sent")


def fresh_cookie_value() -> str:
    """Opaque random cookie value (uuid text form, as the reference server sets)."""
    return str(uuid.uuid4())
