"""Hierarchical deterministic keys over secp256k1.

Extended keys pair a curve key with a 32-byte chain code. Child keys are
derived non-hardened only: private parents derive private or public children,
public parents derive public children without any private material. Device
keys sit at depth 1 (one index under the master), session keys one or two
levels below that.

Wire layout of an extended key (71 bytes):

    version(1) || depth(1) || child_index(4, big-endian) || chain_code(32)
    || key material(33)

where key material is 0x00 || secret scalar for private keys and the
compressed public point for public keys. Version tags: 0x10 private,
0x11 public.
"""

from __future__ import annotations

import hashlib
import hmac
import re
from dataclasses import dataclass
from functools import cached_property

from . import curve
from .errors import (
    DegenerateChild,
    DegenerateKey,
    HardenedIndexRejected,
    InvalidSeedLength,
    MalformedPath,
)

HARDENED = 0x80000000
MAX_PATH_SEGMENTS = 4
# A path as ``str(DerivationPath)`` writes it: ASCII decimal, no leading zeros.
_PATH_TEXT = re.compile(r"m(/(0|[1-9][0-9]*))*")

VERSION_PRIVATE = 0x10
VERSION_PUBLIC = 0x11

_MASTER_HMAC_KEY = b"Bitcoin seed"

_B58_ALPHABET = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def _hmac512(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha512).digest()


# Indirection point so the degenerate-child branch can be exercised with a
# stubbed hash in tests; production behaviour is plain HMAC-SHA512.
_child_hmac = _hmac512


@dataclass(frozen=True)
class DerivationPath:
    """Ordered non-hardened child indices below the master key."""

    segments: tuple[int, ...]

    def __post_init__(self) -> None:
        for seg in self.segments:
            if isinstance(seg, bool) or not isinstance(seg, int) or seg < 0:
                raise MalformedPath(f"bad path segment {seg!r}")
        _check_bounds(self.segments)

    @classmethod
    def parse(cls, text: str) -> "DerivationPath":
        """Parse "m", "m/0/1" etc., only as ``str`` writes them: no spaces,
        no leading zeros, ASCII digits. Hardened markers are rejected."""
        if _PATH_TEXT.fullmatch(text) is None:
            if any(part.endswith(("'", "h", "H")) for part in text.split("/")[1:]):
                raise HardenedIndexRejected(f"hardened segment in {text!r}")
            raise MalformedPath(f"path not written as m/<index>/...: {text!r}")
        segments = tuple(map(int, text.split("/")[1:]))
        _check_bounds(segments)
        # The match admits non-negative ints only: skip __post_init__'s checks.
        path = object.__new__(cls)
        object.__setattr__(path, "segments", segments)
        return path

    def __str__(self) -> str:
        return "/".join(["m"] + [str(s) for s in self.segments])

    def __len__(self) -> int:
        return len(self.segments)


def _check_bounds(segments: tuple[int, ...]) -> None:
    if len(segments) > MAX_PATH_SEGMENTS:
        raise MalformedPath(f"path deeper than {MAX_PATH_SEGMENTS} segments")
    for seg in segments:
        if seg >= HARDENED:
            raise HardenedIndexRejected(f"segment {seg} is hardened")


@dataclass(frozen=True)
class ExtendedPrivateKey:
    secret: int
    chain_code: bytes
    depth: int = 0
    child_index: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.secret < curve.N:
            raise DegenerateKey("secret scalar out of range")
        if len(self.chain_code) != 32:
            raise ValueError("chain code must be 32 bytes")

    @cached_property
    def public_point(self) -> bytes:
        return curve.pubkey_bytes(self.secret)

    def serialize(self) -> bytes:
        return (
            bytes([VERSION_PRIVATE, self.depth])
            + self.child_index.to_bytes(4, "big")
            + self.chain_code
            + b"\x00"
            + self.secret.to_bytes(32, "big")
        )

    def __repr__(self) -> str:  # keep secrets out of logs and tracebacks
        return f"ExtendedPrivateKey(depth={self.depth}, child_index={self.child_index})"


@dataclass(frozen=True)
class ExtendedPublicKey:
    public_point: bytes
    chain_code: bytes
    depth: int = 0
    child_index: int = 0

    def __post_init__(self) -> None:
        # Structural check only: the full on-curve check (a modular sqrt)
        # happens lazily in .point, and eagerly in deserialize() where the
        # bytes are untrusted. Internal derivation always produces valid
        # points, so revalidating each construction would dominate runtime.
        curve.encoded_x(self.public_point)
        if len(self.chain_code) != 32:
            raise ValueError("chain code must be 32 bytes")

    @cached_property
    def point(self) -> curve.Affine:
        """Decompressed affine point; raises InvalidPublicKey off-curve."""
        return curve.decompress(self.public_point)

    def serialize(self) -> bytes:
        return (
            bytes([VERSION_PUBLIC, self.depth])
            + self.child_index.to_bytes(4, "big")
            + self.chain_code
            + self.public_point
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "ExtendedPublicKey":
        if len(data) != 71 or data[0] != VERSION_PUBLIC:
            raise MalformedPath("not a serialized extended public key")
        key = cls(
            public_point=data[38:71],
            chain_code=data[6:38],
            depth=data[1],
            child_index=int.from_bytes(data[2:6], "big"),
        )
        key.point  # untrusted bytes: force the on-curve check now
        return key


def deserialize_xprv(data: bytes) -> ExtendedPrivateKey:
    if len(data) != 71 or data[0] != VERSION_PRIVATE or data[38] != 0:
        raise MalformedPath("not a serialized extended private key")
    return ExtendedPrivateKey(
        secret=int.from_bytes(data[39:71], "big"),
        chain_code=data[6:38],
        depth=data[1],
        child_index=int.from_bytes(data[2:6], "big"),
    )


def generate_master(seed: bytes) -> ExtendedPrivateKey:
    """Deterministic master key from 16..64 bytes of entropy."""
    if not 16 <= len(seed) <= 64:
        raise InvalidSeedLength(f"seed must be 16..64 bytes, got {len(seed)}")
    digest = _hmac512(_MASTER_HMAC_KEY, seed)
    secret = int.from_bytes(digest[:32], "big")
    if secret == 0 or secret >= curve.N:
        raise DegenerateKey("seed maps to an invalid master scalar")
    return ExtendedPrivateKey(secret=secret, chain_code=digest[32:])


def neuter(key: ExtendedPrivateKey) -> ExtendedPublicKey:
    """Public counterpart; chain code, depth and child index carry over."""
    return ExtendedPublicKey(
        public_point=key.public_point,
        chain_code=key.chain_code,
        depth=key.depth,
        child_index=key.child_index,
    )


def _tweak(parent, index: int) -> tuple[int, bytes]:
    """Tweak scalar and child chain code at a non-hardened index; the same
    for a private or a public parent."""
    if index < 0:
        raise MalformedPath(f"negative index {index}")
    if index >= HARDENED:
        raise HardenedIndexRejected(f"index {index} is hardened")
    digest = _child_hmac(
        parent.chain_code, parent.public_point + index.to_bytes(4, "big")
    )
    tweak = int.from_bytes(digest[:32], "big")
    if tweak >= curve.N:
        raise DegenerateChild(f"tweak at index {index} out of range")
    return tweak, digest[32:]


def derive_child_priv(parent: ExtendedPrivateKey, index: int) -> ExtendedPrivateKey:
    tweak, chain_code = _tweak(parent, index)
    child = (tweak + parent.secret) % curve.N
    if child == 0:
        raise DegenerateChild(f"zero child scalar at index {index}")
    return ExtendedPrivateKey(
        secret=child,
        chain_code=chain_code,
        depth=parent.depth + 1,
        child_index=index,
    )


def derive_child_pub(parent: ExtendedPublicKey, index: int) -> ExtendedPublicKey:
    tweak, chain_code = _tweak(parent, index)
    point = curve.scalar_base_mult(tweak, parent.point)
    if point is None:
        raise DegenerateChild(f"child point at infinity at index {index}")
    return ExtendedPublicKey(
        public_point=curve.compress(point),
        chain_code=chain_code,
        depth=parent.depth + 1,
        child_index=index,
    )


def derive_path(root, path: DerivationPath):
    """Left fold of child derivation; returns the same kind as ``root``."""
    step = (
        derive_child_priv if isinstance(root, ExtendedPrivateKey) else derive_child_pub
    )
    key = root
    for index in path.segments:
        key = step(key, index)
    return key


def _base58check(payload: bytes) -> str:
    check = hashlib.sha256(hashlib.sha256(payload).digest()).digest()[:4]
    number = int.from_bytes(payload + check, "big")
    out = bytearray()
    while number:
        number, rem = divmod(number, 58)
        out.append(_B58_ALPHABET[rem])
    for byte in payload:
        if byte:
            break
        out.append(_B58_ALPHABET[0])
    return bytes(reversed(out)).decode("ascii")


def display(key) -> str:
    """Base58-check form of a serialized extended key, for CLI output."""
    return _base58check(key.serialize())
