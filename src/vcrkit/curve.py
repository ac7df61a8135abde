"""secp256k1 primitives used throughout the toolkit.

Signing, verification and ECDH are delegated to pyca/cryptography (OpenSSL,
constant-time, RFC 6979 deterministic nonces). Point arithmetic needed for
public child derivation is not exposed by that library, so this module keeps
its own group math: a signed-digit fixed-base comb table that makes
scalar-base multiplication cheap enough for bulk derivation.

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


def _double(x: int, y: int, inv_2y: int) -> Affine:
    """2*(x, y) in affine coordinates, given 1/(2y)."""
    lam = 3 * x * x * inv_2y % P
    x3 = (lam * lam - 2 * x) % P
    return (x3, (lam * (x - x3) - y) % P)


# Signed-digit comb (M. Hamburg, IACR ePrint 2012/309, as in libsecp256k1's
# ecmult_gen). A scalar is cut into _COMB_ROWS windows of _COMB_BITS bits;
# a window above _COMB_HALF becomes the negative digit window - 2^bits and
# carries one into the next, so every digit lies in [-HALF, HALF] and
# k*G costs one mixed addition per nonzero window. Row i is a pair of lists
# (xs, ys) holding the affine v * 2^(bits*i) * G for v in 1..HALF (index 0
# unused); a negative digit uses (x, -y). 26 rows of 512 points, ~1.8 MB.
_COMB_BITS = 10
_COMB_HALF = 1 << (_COMB_BITS - 1)
_COMB_MASK = (1 << _COMB_BITS) - 1
_COMB_ROWS = -(-257 // _COMB_BITS)  # 256 bits plus the top window's carry

# Built lazily on first scalar-base multiplication and published whole by
# one assignment under _COMB_LOCK, so threads racing on the first call build
# it once and later readers take no lock.
_COMB: list[tuple[list[int], list[int]]] = []
_COMB_LOCK = threading.Lock()


def _comb_row(x: int, y: int) -> tuple[list[int], list[int]]:
    """Affine v*(x, y) for v in 1..HALF (entry 0 unused). Each pass adds the
    last point, top*(x, y), to every earlier one and doubles it, so the
    filled length doubles and the pass shares one inversion."""
    xs, ys = [0, x], [0, y]
    while len(xs) <= _COMB_HALF:
        top = len(xs) - 1
        tx, ty = xs[top], ys[top]
        inverses = _batch_inverse([tx - xs[u] for u in range(1, top)] + [2 * ty])
        for u in range(1, top):
            lam = (ty - ys[u]) * inverses[u - 1] % P
            x3 = (lam * lam - tx - xs[u]) % P
            xs.append(x3)
            ys.append((lam * (xs[u] - x3) - ys[u]) % P)
        x3, y3 = _double(tx, ty, inverses[-1])
        xs.append(x3)
        ys.append(y3)
    return xs, ys


def _build_comb() -> list[tuple[list[int], list[int]]]:
    table = []
    x, y = GX, GY
    for _ in range(_COMB_ROWS):
        xs, ys = _comb_row(x, y)
        table.append((xs, ys))
        # Next row's base: 2^bits * base = 2 * (HALF * base).
        x, y = _double(xs[-1], ys[-1], pow(2 * ys[-1], -1, P))
    return table


def _comb_table() -> list[tuple[list[int], list[int]]]:
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
    # The accumulator is in Chudnovsky coordinates (X, Y, Z^2, Z^3), affine
    # (X/Z^2, Y/Z^3); zz == 0 is the point at infinity. Keeping Z^2 and Z^3
    # saves a multiplication per addition over plain Jacobian (X, Y, Z).
    if offset is None:
        x1 = y1 = zz = zzz = 0
    else:
        x1, y1 = offset
        zz = zzz = 1
    for xs, ys in comb:
        d = k & _COMB_MASK
        k >>= _COMB_BITS
        if d > _COMB_HALF:
            k += 1
            d = _COMB_MASK + 1 - d
            x2, y2 = xs[d], P - ys[d]
        elif d:
            x2, y2 = xs[d], ys[d]
        else:
            continue
        if not zz:
            x1, y1, zz, zzz = x2, y2, 1, 1
            continue
        # Mixed addition (X1, Y1, ZZ1, ZZZ1) + (x2, y2); h == 0 means the
        # same x: the accumulator is the entry or its negation.
        h = x2 * zz % P - x1
        r = y2 * zzz % P - y1
        if not h:
            if r:
                x1 = y1 = zz = zzz = 0
            else:
                x1, y1 = _double(x2, y2, pow(2 * y2, -1, P))
                zz = zzz = 1
            continue
        hh = h * h % P
        hhh = h * hh % P
        v = x1 * hh % P
        x1 = (r * r - hhh - 2 * v) % P
        y1 = (r * (v - x1) - y1 * hhh) % P
        zz = zz * hh % P
        zzz = zzz * hhh % P
    if not zz:
        return None
    inv = pow(zz * zzz, -1, P)  # 1/Z^5: x = X*Z^3/Z^5, y = Y*Z^2/Z^5
    return (x1 * zzz * inv % P, y1 * zz * inv % P)


def compress(point: Affine) -> bytes:
    return bytes([2 + (point[1] & 1)]) + point[0].to_bytes(32, "big")


def encoded_x(data: bytes) -> int:
    """x of a well-formed compressed encoding (length, parity byte, x < P);
    whether the point lies on the curve is ``decompress``'s check."""
    if len(data) != POINT_BYTES or data[0] not in (2, 3):
        raise InvalidPublicKey("bad compressed point encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise InvalidPublicKey("x coordinate out of field")
    return x


def decompress(data: bytes) -> Affine:
    """Parse a compressed point, checking it lies on the curve."""
    x = encoded_x(data)
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
