"""Cookie wrappers: server-signed bindings of a session cookie to VCR keys.

A wrapper is the server's commitment that signatures under the embedded
public key(s) verify consumer requests for the data tied to the embedded
cookie. Shared devices embed n member keys instead of one; requests then
need all n signatures.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field, replace
from functools import cached_property

from . import curve
from .curve import POINT_BYTES
from .encoding import (
    STR,
    TAG_CLIENT_ID,
    TAG_WRAPPER,
    TIME,
    Field,
    Message,
    fixed,
    integer,
    list_of,
    nested,
)
from .errors import (
    BadSignature,
    ClientIdMismatch,
    ClockUnavailable,
    DegenerateKey,
    InvalidPublicKey,
    MalformedWrapper,
    PublicKeyMismatch,
    UnencodableField,
    UnknownServerKey,
)

WRAPPER_VERSION = 1
KEY_ID_BYTES = 8
SIGNATURE_BYTES = 64

MAX_COOKIE_NAME = 64
MAX_COOKIE_VALUE = 256


def key_id(server_pubkey: bytes) -> bytes:
    """The id a wrapper names its server key by: sha256(pubkey)[:8]."""
    return curve.sha256(server_pubkey)[:KEY_ID_BYTES]


@dataclass(frozen=True)
class ClientId(Message):
    """One session cookie as (name, value)."""

    TAG = TAG_CLIENT_ID
    FIELDS = (Field("cookie_name", STR), Field("cookie_value", STR))

    cookie_name: str
    cookie_value: str

    def __post_init__(self) -> None:
        if not self.cookie_name or len(self.cookie_name.encode()) > MAX_COOKIE_NAME:
            raise MalformedWrapper("cookie name empty or too long")
        if not self.cookie_value or len(self.cookie_value.encode()) > MAX_COOKIE_VALUE:
            raise MalformedWrapper("cookie value empty or too long")


@dataclass(frozen=True)
class MultiSigPolicy:
    """Ordered member public keys that must all sign requests (n >= 1).

    The one on-curve check of wrapper keys: the server signs only keys that
    passed it, so a wrapper whose signature verifies needs no recheck.
    """

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
    """The server's long-term signing key. Its OpenSSL key object is built
    on first use and kept, like the public point and key id."""

    secret: int = field(repr=False)  # keep the scalar out of logs and tracebacks

    def __post_init__(self) -> None:
        if not 0 < self.secret < curve.N:
            raise DegenerateKey("server key scalar out of range")

    @cached_property
    def private_key(self) -> curve.PrivateKey:
        return curve.private_key(self.secret)

    @cached_property
    def public_point(self) -> bytes:
        return curve.public_bytes(self.private_key)

    @cached_property
    def key_id(self) -> bytes:
        return key_id(self.public_point)

    @classmethod
    def generate(cls) -> "ServerKey":
        return cls(secret=curve.generate_secret())

    def sign(self, digest: bytes) -> bytes:
        return curve.sign_digest(self.private_key, digest)


@dataclass(frozen=True)
class Wrapper(Message):
    TAG = TAG_WRAPPER
    FIELDS = (
        Field("version", integer(8)),
        Field("client_id", nested(ClientId)),
        Field("vcr_pubkeys", list_of(fixed(POINT_BYTES))),
        Field("issued_at", TIME),
        Field("server_key_id", fixed(KEY_ID_BYTES)),
        Field("signature", fixed(SIGNATURE_BYTES), signed=False),
    )
    CANONICAL_ERROR = MalformedWrapper

    version: int
    client_id: ClientId
    vcr_pubkeys: tuple[bytes, ...]
    issued_at: int
    server_key_id: bytes
    signature: bytes

    signed_payload = Message.signed_canonical


@dataclass(frozen=True)
class WrapperRequest(Message):
    """POST body sent to the wrapper issuance endpoint."""

    FIELDS = (
        Field("client_id", nested(ClientId)),
        Field("vcr_pubkeys", list_of(fixed(POINT_BYTES))),
    )

    client_id: ClientId
    vcr_pubkeys: tuple[bytes, ...]


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
    """Raise unless the wrapper's signature verifies under ``server_pubkey``.

    The embedded keys are not rechecked: the server signed them only after
    ``MultiSigPolicy`` checked them, and the signature covers them.
    """
    if wrapper.version != WRAPPER_VERSION:
        raise MalformedWrapper(f"unsupported wrapper version {wrapper.version}")
    if len(wrapper.server_key_id) != KEY_ID_BYTES:
        raise MalformedWrapper("bad server key id length")
    if not wrapper.vcr_pubkeys:
        raise MalformedWrapper("wrapper embeds no keys")
    try:
        payload = wrapper.signed_payload()
    except UnencodableField as exc:  # JSON input with no canonical form
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
