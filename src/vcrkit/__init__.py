"""Verifiable accountless consumer requests.

Core library plus reference server, client agent, trusted-device signer and
CLI for binding session cookies to hierarchical session keys and issuing
signed access/modify/delete requests without accounts.
"""

from .encoding import WireMode, byte_size, from_wire, to_wire
from .errors import VcrkitError
from .keyhier import (
    DerivationPath,
    ExtendedPrivateKey,
    ExtendedPublicKey,
    derive_child_priv,
    derive_child_pub,
    derive_path,
    generate_master,
    neuter,
)
from .vcr import (
    ActionKind,
    ReplayCache,
    SealedVcr,
    VcrAction,
    VcrRequest,
    VerifiedRequest,
    build_unified_vcr,
    build_vcr,
    seal_vcr,
    sign_vcr,
    unseal_vcr,
    verify_vcr,
)
from .wrapper import (
    ClientId,
    MultiSigPolicy,
    ServerKey,
    Wrapper,
    check_wrapper_echo,
    issue_wrapper,
    verify_wrapper,
)

__version__ = "0.1.0"

__all__ = [
    "ActionKind",
    "ClientId",
    "DerivationPath",
    "ExtendedPrivateKey",
    "ExtendedPublicKey",
    "MultiSigPolicy",
    "ReplayCache",
    "SealedVcr",
    "ServerKey",
    "VcrAction",
    "VcrRequest",
    "VcrkitError",
    "VerifiedRequest",
    "WireMode",
    "Wrapper",
    "build_unified_vcr",
    "build_vcr",
    "byte_size",
    "check_wrapper_echo",
    "derive_child_priv",
    "derive_child_pub",
    "derive_path",
    "from_wire",
    "generate_master",
    "issue_wrapper",
    "neuter",
    "seal_vcr",
    "sign_vcr",
    "to_wire",
    "unseal_vcr",
    "verify_vcr",
    "verify_wrapper",
]
