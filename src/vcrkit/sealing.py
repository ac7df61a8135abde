"""Hybrid encryption to a curve public key.

Ephemeral ECDH on secp256k1, HKDF-SHA256 to a fresh AES-256-GCM key, then
AEAD over the payload. Used in two places: super-encrypting a whole signed
request to the server's long-term key (hides action metadata from
eavesdroppers), and encrypting ACCESS responses to a client-supplied key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from . import curve
from .curve import POINT_BYTES
from .encoding import BIN, TAG_SEALED, Field, Message, fixed
from .errors import DecryptFailed, InvalidPublicKey

NONCE_BYTES = 12


def _derive_key(shared: bytes, ephemeral_pub: bytes, recipient_pub: bytes, info: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=32,
        salt=None,
        info=info + ephemeral_pub + recipient_pub,
    ).derive(shared)


@dataclass(frozen=True)
class HybridCiphertext(Message):
    """Ephemeral public key, AEAD nonce and ciphertext (tag included)."""

    TAG = TAG_SEALED
    FIELDS = (
        Field("ephemeral_pubkey", fixed(POINT_BYTES)),
        Field("nonce", fixed(NONCE_BYTES)),
        Field("ciphertext", BIN),
    )

    ephemeral_pubkey: bytes
    nonce: bytes
    ciphertext: bytes


def hybrid_encrypt(recipient_pub: bytes, plaintext: bytes, info: bytes) -> HybridCiphertext:
    """Encrypt to a compressed public key with a fresh ephemeral key; a key
    off the curve raises InvalidPublicKey from ``ecdh``."""
    ephemeral_secret = curve.generate_secret()
    ephemeral_pub = curve.pubkey_bytes(ephemeral_secret)
    shared = curve.ecdh(ephemeral_secret, recipient_pub)
    key = _derive_key(shared, ephemeral_pub, recipient_pub, info)
    nonce = os.urandom(NONCE_BYTES)
    ciphertext = AESGCM(key).encrypt(nonce, plaintext, None)
    return HybridCiphertext(
        ephemeral_pubkey=ephemeral_pub, nonce=nonce, ciphertext=ciphertext
    )


def hybrid_decrypt(recipient_secret: int, box: HybridCiphertext, info: bytes) -> bytes:
    """Invert hybrid_encrypt; wrong key or any tampering raises DecryptFailed."""
    try:
        shared = curve.ecdh(recipient_secret, box.ephemeral_pubkey)
        recipient_pub = curve.pubkey_bytes(recipient_secret)
        key = _derive_key(shared, box.ephemeral_pubkey, recipient_pub, info)
        return AESGCM(key).decrypt(box.nonce, box.ciphertext, None)
    except (InvalidTag, InvalidPublicKey, ValueError) as exc:
        raise DecryptFailed(str(exc) or "authentication tag mismatch") from None
