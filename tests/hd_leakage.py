"""The documented leakage of non-hardened derivation, as a test oracle.

A child's secret and its parent's extended public key give away the
parent's secret: the tweak between them is computed from public data alone,
so ``child_secret - tweak`` is the parent. The tweak is computed here from
the scheme's definition, as ``reference_hd`` does, not with the package's
code. The final check of the recovered scalar uses the OpenSSL binding,
since the textbook curve math of ``reference_hd`` takes tens of
milliseconds per key.
"""

import hashlib
import hmac

from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from reference_hd import N


class RecoveryMismatch(Exception):
    """Recovered parent scalar does not match the claimed parent public key."""


def _public_point(secret):
    key = ec.derive_private_key(secret, ec.SECP256K1()).public_key()
    return key.public_bytes(Encoding.X962, PublicFormat.CompressedPoint)


def recover_parent_priv(parent, child_secret, index):
    """Parent secret from the secret of its child at non-hardened ``index``;
    ``parent`` is the parent's extended public key."""
    digest = hmac.new(
        parent.chain_code,
        parent.public_point + index.to_bytes(4, "big"),
        hashlib.sha512,
    ).digest()
    recovered = (child_secret - int.from_bytes(digest[:32], "big")) % N
    if recovered == 0 or _public_point(recovered) != parent.public_point:
        raise RecoveryMismatch("recovered scalar does not match parent key")
    return recovered
