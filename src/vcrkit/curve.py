"""secp256k1 primitives used throughout the toolkit.

Signing, verification and ECDH are delegated to pyca/cryptography (OpenSSL,
constant-time, RFC 6979 deterministic nonces). Point arithmetic needed for
public child derivation is not exposed by that library, so this module keeps
its own group math: Jacobian coordinates plus a fixed-base comb table that
makes scalar-base multiplication cheap enough for bulk derivation.

``sign_digest`` and ``ecdh`` take an OpenSSL key object, never a scalar.
Building one with ``private_key`` costs more than a signature, so a key used
more than once is built once and kept by its owner (``ServerKey``, the
unlocked signer); a one-use key is made inside OpenSSL by ``generate_key``.

All public points cross module boundaries as 33-byte compressed encodings;
signatures as 64-byte r||s with s normalized to the low half of the order.

A point from outside is checked once, where it enters: ``decompress`` where
the affine point is needed or nothing else would check it, otherwise the
OpenSSL parse inside ``verify_digest`` and ``ecdh``. Both reject points off
the curve (SEC 1 v2 §3.2.2).
"""

from __future__ import annotations

import hashlib
import threading

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    decode_dss_signature,
    encode_dss_signature,
)
from .errors import InvalidPublicKey

P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

POINT_BYTES = 33  # compressed: 0x02/0x03 parity byte || x

_CURVE = ec.SECP256K1()
_PREHASHED_SHA256 = Prehashed(hashes.SHA256())

PrivateKey = ec.EllipticCurvePrivateKey  # an OpenSSL key object
Affine = tuple[int, int]
_Jacobian = tuple[int, int, int]

_JAC_INF: _Jacobian = (0, 0, 0)


def _jac_double(pt: _Jacobian) -> _Jacobian:
    x1, y1, z1 = pt
    if not y1:
        return _JAC_INF
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = b * b % P
    d = 2 * ((x1 + b) * (x1 + b) - a - c) % P
    e = 3 * a % P
    x3 = (e * e - 2 * d) % P
    y3 = (e * (d - x3) - 8 * c) % P
    return (x3, y3, 2 * y1 * z1 % P)


def _jac_add_affine(pt: _Jacobian, q: Affine) -> _Jacobian:
    x1, y1, z1 = pt
    if not z1:
        return (q[0], q[1], 1)
    x2, y2 = q
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 * z1z1 % P
    if u2 == x1:
        if s2 != y1:
            return _JAC_INF
        return _jac_double(pt)
    h = (u2 - x1) % P
    hh = h * h % P
    i = 4 * hh % P
    j = h * i % P
    r = 2 * (s2 - y1) % P
    v = x1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * y1 * j) % P
    z3 = ((z1 + h) * (z1 + h) - z1z1 - hh) % P
    return (x3, y3, z3)


def _jac_to_affine(pt: _Jacobian) -> Affine | None:
    x, y, z = pt
    if not z:
        return None
    zi = pow(z, -1, P)  # xgcd inversion, much faster than Fermat here
    zi2 = zi * zi % P
    return (x * zi2 % P, y * zi2 % P * zi % P)


def _batch_inverse(values: list[int]) -> list[int]:
    prefix = [1] * (len(values) + 1)
    for i, v in enumerate(values):
        prefix[i + 1] = prefix[i] * v % P
    inv = pow(prefix[-1], -1, P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv % P
        inv = inv * values[i] % P
    return out


# Comb table: _COMB[w][v] = affine point of (v << 8w) * G for v in 1..255.
# Built lazily on first scalar-base multiplication (~100 ms, ~2 MB) and
# published whole by one assignment under _COMB_LOCK, so threads racing on
# the first call build it once and later readers take no lock.
_COMB: list[list[Affine | None]] = []
_COMB_LOCK = threading.Lock()


def _build_comb() -> list[list[Affine | None]]:
    rows: list[list[_Jacobian]] = []
    base: Affine = (GX, GY)
    for _ in range(32):
        row: list[_Jacobian] = [_JAC_INF] * 256
        acc = _JAC_INF
        for v in range(1, 256):
            acc = _jac_add_affine(acc, base)
            row[v] = acc
        rows.append(row)
        nxt = _jac_to_affine(_jac_add_affine(acc, base))
        assert nxt is not None
        base = nxt
    flat = [pt[2] for row in rows for pt in row[1:]]
    inverses = _batch_inverse(flat)
    k = 0
    table: list[list[Affine | None]] = []
    for row in rows:
        out: list[Affine | None] = [None] * 256
        for v in range(1, 256):
            x, y, _ = row[v]
            zi = inverses[k]
            k += 1
            zi2 = zi * zi % P
            out[v] = (x * zi2 % P, y * zi2 % P * zi % P)
        table.append(out)
    return table


def _comb_table() -> list[list[Affine | None]]:
    global _COMB
    with _COMB_LOCK:
        if not _COMB:
            _COMB = _build_comb()
        return _COMB


def scalar_base_mult(k: int, offset: Affine | None = None) -> Affine | None:
    """k*G + offset as an affine point; None is the point at infinity, which
    only an offset can give. Without an offset k must be in [1, N-1], with
    one in [0, N-1]. The comb pass starts at the offset, so the sum costs
    one inversion."""
    if not 0 <= k < N or (k == 0 and offset is None):
        raise ValueError("scalar out of range")
    comb = _COMB or _comb_table()
    acc = _JAC_INF if offset is None else (offset[0], offset[1], 1)
    for w in range(32):
        v = (k >> (8 * w)) & 0xFF
        if v:
            entry = comb[w][v]
            assert entry is not None
            acc = _jac_add_affine(acc, entry)
    return _jac_to_affine(acc)


def compress(point: Affine) -> bytes:
    return bytes([2 + (point[1] & 1)]) + point[0].to_bytes(32, "big")


def decompress(data: bytes) -> Affine:
    """Parse a compressed point, checking it lies on the curve."""
    if len(data) != POINT_BYTES or data[0] not in (2, 3):
        raise InvalidPublicKey("bad compressed point encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise InvalidPublicKey("x coordinate out of field")
    y_sq = (x * x * x + 7) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if y * y % P != y_sq:
        raise InvalidPublicKey("point not on curve")
    if y & 1 != data[0] & 1:
        y = P - y
    return (x, y)


def pubkey_bytes(secret: int) -> bytes:
    """Compressed public point for a secret scalar."""
    return compress(scalar_base_mult(secret))


def private_key(secret: int) -> PrivateKey:
    """The OpenSSL key object for a scalar in [1, N-1]. Costs more than a
    signature with it: build once per key and keep it."""
    return ec.derive_private_key(secret, _CURVE)


def generate_key() -> PrivateKey:
    """Fresh random key made by OpenSSL, for one-use (ephemeral) keys."""
    return ec.generate_private_key(_CURVE)


def public_bytes(key: PrivateKey) -> bytes:
    """Compressed public point of a key object, read from it; no point math."""
    numbers = key.public_key().public_numbers()
    return compress((numbers.x, numbers.y))


def _public_key(compressed: bytes) -> ec.EllipticCurvePublicKey:
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, compressed)
    except ValueError as exc:
        raise InvalidPublicKey(str(exc)) from None


def sign_digest(key: PrivateKey, digest: bytes) -> bytes:
    """Deterministic ECDSA over a 32-byte digest, returned as 64-byte r||s."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    der = key.sign(digest, ec.ECDSA(_PREHASHED_SHA256, deterministic_signing=True))
    r, s = decode_dss_signature(der)
    if s > N // 2:
        s = N - s
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def verify_digest(compressed_pub: bytes, digest: bytes, signature: bytes) -> bool:
    """True iff a 64-byte r||s signature verifies over the digest."""
    if len(signature) != 64 or len(digest) != 32:
        return False
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (0 < r < N and 0 < s < N):
        return False
    try:
        pub = _public_key(compressed_pub)
    except InvalidPublicKey:
        return False
    try:
        pub.verify(
            encode_dss_signature(r, s), digest, ec.ECDSA(_PREHASHED_SHA256)
        )
        return True
    except InvalidSignature:
        return False


def ecdh(key: PrivateKey, compressed_pub: bytes) -> bytes:
    """X-coordinate ECDH shared secret (32 bytes)."""
    return key.exchange(ec.ECDH(), _public_key(compressed_pub))


def generate_secret() -> int:
    """Fresh uniformly random scalar in [1, N-1]."""
    from secrets import randbelow

    return randbelow(N - 1) + 1


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()
