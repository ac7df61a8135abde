"""Wrapper issuance, verification, echo checks and tamper resistance."""

import random

import pytest

from vcrkit import curve
from vcrkit.errors import (
    BadSignature,
    ClientIdMismatch,
    ClockUnavailable,
    InvalidPublicKey,
    MalformedWrapper,
    PublicKeyMismatch,
    UnknownServerKey,
    VcrkitError,
)
from vcrkit.keyhier import DerivationPath, derive_path
from vcrkit.wrapper import (
    ClientId,
    MultiSigPolicy,
    ServerKey,
    Wrapper,
    check_wrapper_echo,
    fresh_cookie_value,
    issue_wrapper,
    verify_wrapper,
)

NOW = 1_754_650_000


def _session_points(master_pub, count, start=0):
    return tuple(
        derive_path(master_pub, DerivationPath((0, start + i))).public_point
        for i in range(count)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_issue_verify_echo_roundtrip(master_pub, server_key, n):
    client_id = ClientId("vcid", fresh_cookie_value())
    policy = MultiSigPolicy(_session_points(master_pub, n))
    wrapper = issue_wrapper(server_key, client_id, policy, NOW)
    assert wrapper.vcr_pubkeys == policy.member_pubkeys
    assert wrapper.issued_at == NOW
    assert wrapper.server_key_id == server_key.key_id
    verify_wrapper(server_key.public_point, wrapper)
    verify_wrapper(
        server_key.public_point, wrapper, expected_key_id=server_key.key_id
    )
    check_wrapper_echo(policy, client_id, wrapper)


def test_household_keys_embedded_in_order(master_pub, server_key):
    points = _session_points(master_pub, 3)
    wrapper = issue_wrapper(
        server_key, ClientId("vcid", "abc"), MultiSigPolicy(points), NOW
    )
    assert wrapper.vcr_pubkeys == points


def test_invalid_point_rejected(server_key):
    with pytest.raises(InvalidPublicKey):
        MultiSigPolicy((b"\x00" * 33,))
    with pytest.raises(InvalidPublicKey):
        MultiSigPolicy((b"\x02" + b"\xff" * 32,))
    with pytest.raises(InvalidPublicKey):
        MultiSigPolicy(())


def test_duplicate_member_keys_rejected(master_pub):
    point = _session_points(master_pub, 1)[0]
    with pytest.raises(InvalidPublicKey):
        MultiSigPolicy((point, point))


def test_clock_required(master_pub, server_key):
    policy = MultiSigPolicy(_session_points(master_pub, 1))
    with pytest.raises(ClockUnavailable):
        issue_wrapper(server_key, ClientId("vcid", "abc"), policy, 0)
    with pytest.raises(ClockUnavailable):
        issue_wrapper(server_key, ClientId("vcid", "abc"), policy, None)


def test_verify_under_wrong_server_key(master_pub, server_key):
    policy = MultiSigPolicy(_session_points(master_pub, 1))
    wrapper = issue_wrapper(server_key, ClientId("vcid", "abc"), policy, NOW)
    other = ServerKey.generate()
    with pytest.raises(BadSignature):
        verify_wrapper(other.public_point, wrapper)


def test_unknown_server_key_id(master_pub, server_key):
    policy = MultiSigPolicy(_session_points(master_pub, 1))
    wrapper = issue_wrapper(server_key, ClientId("vcid", "abc"), policy, NOW)
    with pytest.raises(UnknownServerKey):
        verify_wrapper(
            server_key.public_point, wrapper, expected_key_id=b"\x00" * 8
        )


def test_echo_detects_key_substitution(master_pub, server_key):
    client_id = ClientId("vcid", fresh_cookie_value())
    honest = MultiSigPolicy(_session_points(master_pub, 1))
    attacker = MultiSigPolicy(_session_points(master_pub, 1, start=500))
    # A tampering middlebox swaps the key; the server honestly signs what
    # it received, so the wrapper verifies -- only the echo check catches it.
    wrapper = issue_wrapper(server_key, client_id, attacker, NOW)
    verify_wrapper(server_key.public_point, wrapper)
    with pytest.raises(PublicKeyMismatch):
        check_wrapper_echo(honest, client_id, wrapper)


def test_echo_detects_cookie_change(master_pub, server_key):
    policy = MultiSigPolicy(_session_points(master_pub, 1))
    wrapper = issue_wrapper(server_key, ClientId("vcid", "altered"), policy, NOW)
    with pytest.raises(ClientIdMismatch):
        check_wrapper_echo(policy, ClientId("vcid", "original"), wrapper)


def test_echo_rejects_any_position_difference(master_pub, server_key):
    client_id = ClientId("vcid", "abc")
    points = _session_points(master_pub, 4)
    wrapper = issue_wrapper(server_key, client_id, MultiSigPolicy(points), NOW)
    for position in range(4):
        swapped = list(points)
        swapped[position] = _session_points(master_pub, 1, start=900)[0]
        with pytest.raises(PublicKeyMismatch):
            check_wrapper_echo(MultiSigPolicy(tuple(swapped)), client_id, wrapper)


def test_bit_flip_sweep_exhaustive(master_pub, server_key):
    """Every single-bit corruption of a serialized wrapper must be rejected,
    either at parse time or at signature verification."""
    policy = MultiSigPolicy(_session_points(master_pub, 1))
    wrapper = issue_wrapper(server_key, ClientId("vcid", "sweep-fixture"), policy, NOW)
    blob = bytearray(wrapper.to_canonical())
    false_accepts = 0
    for byte_index in range(len(blob)):
        for bit in range(8):
            mutated = bytearray(blob)
            mutated[byte_index] ^= 1 << bit
            try:
                parsed = Wrapper.from_canonical(bytes(mutated))
                verify_wrapper(server_key.public_point, parsed)
            except (MalformedWrapper, BadSignature):
                continue
            false_accepts += 1
    assert false_accepts == 0


def test_random_forgeries_rejected(master_pub, server_key):
    rng = random.Random(4242)
    policy = MultiSigPolicy(_session_points(master_pub, 1))
    honest = issue_wrapper(server_key, ClientId("vcid", "target"), policy, NOW)
    for _ in range(100):
        forged = Wrapper(
            version=honest.version,
            client_id=honest.client_id,
            vcr_pubkeys=honest.vcr_pubkeys,
            issued_at=honest.issued_at,
            server_key_id=honest.server_key_id,
            signature=rng.getrandbits(512).to_bytes(64, "big"),
        )
        with pytest.raises(VcrkitError):
            verify_wrapper(server_key.public_point, forged)


def test_forgery_under_attacker_key(master_pub, server_key):
    # Signing with any key other than the server's long-term key fails.
    attacker = ServerKey.generate()
    policy = MultiSigPolicy(_session_points(master_pub, 1))
    forged = issue_wrapper(attacker, ClientId("vcid", "target"), policy, NOW)
    forged = Wrapper(
        version=forged.version,
        client_id=forged.client_id,
        vcr_pubkeys=forged.vcr_pubkeys,
        issued_at=forged.issued_at,
        server_key_id=server_key.key_id,  # claim the honest key id
        signature=forged.signature,
    )
    with pytest.raises(BadSignature):
        verify_wrapper(server_key.public_point, forged)


def test_cookie_bounds():
    with pytest.raises(MalformedWrapper):
        ClientId("vcid", "")
    with pytest.raises(MalformedWrapper):
        ClientId("vcid", "x" * 257)
    with pytest.raises(MalformedWrapper):
        ClientId("", "value")


def test_cookie_identity_includes_name(master_pub, server_key):
    # Renaming the cookie invalidates the wrapper: the name is signed too.
    policy = MultiSigPolicy(_session_points(master_pub, 1))
    wrapper = issue_wrapper(server_key, ClientId("vcid", "abc"), policy, NOW)
    renamed = Wrapper(
        version=wrapper.version,
        client_id=ClientId("sid", "abc"),
        vcr_pubkeys=wrapper.vcr_pubkeys,
        issued_at=wrapper.issued_at,
        server_key_id=wrapper.server_key_id,
        signature=wrapper.signature,
    )
    with pytest.raises(BadSignature):
        verify_wrapper(server_key.public_point, renamed)


def test_signature_is_fixed_width():
    assert len(ServerKey.generate().sign(curve.sha256(b"x"))) == 64


def test_server_key_repr_hides_the_secret():
    key = ServerKey(secret=0x1234ABCD)
    for text in (repr(key), str(key)):
        assert "305441741" not in text
        assert "1234abcd" not in text.lower()
