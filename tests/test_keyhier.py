"""Derivation correctness against the independent reference oracle."""

import random
import sys
import threading

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_hd as oracle
from vcrkit import curve
from vcrkit.errors import (
    DegenerateChild,
    DegenerateKey,
    HardenedIndexRejected,
    InvalidSeedLength,
    MalformedPath,
    RecoveryMismatch,
)
from vcrkit.keyhier import (
    DerivationPath,
    ExtendedPublicKey,
    derive_child_priv,
    derive_child_pub,
    derive_path,
    deserialize_xprv,
    display,
    generate_master,
    neuter,
    recover_parent_priv,
)
from vcrkit import keyhier

V1_SEED = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
V2_SEED = bytes.fromhex(
    "fffcf9f6f3f0edeae7e4e1dedbd8d5d2cfccc9c6c3c0bdbab7b4b1aeaba8a5a2"
    "9f9c999693908d8a8784817e7b7875726f6c696663605d5a5754514e4b484542"
)
V3_SEED = bytes.fromhex(
    "4b381541583be4423346c643850da4b320e46a87ae3d2a4e6da11eba819cd4ac"
    "ba45d239319ac14f863b8d5ab5a0d0c64d2e8a1e7d1457df2e5a3c51c73235be"
)

# (seed, path, secret hex, chain code hex, compressed public key hex).
# The first four rows are the scheme's published values; the rest were
# computed with tests/reference_hd.py before the implementation existed
# and frozen here. The oracle recomputes every row at test time as well.
PINNED_VECTORS = [
    (
        V1_SEED,
        (),
        "e8f32e723decf4051aefac8e2c93c9c5b214313817cdb01a1494b917c8436b35",
        "873dff81c02f525623fd1fe5167eac3a55a049de3d314bb42ee227ffed37d508",
        "0339a36013301597daef41fbe593a02cc513d0b55527ec2df1050e2e8ff49c85c2",
    ),
    (
        V2_SEED,
        (),
        "4b03d6fc340455b363f51020ad3ecca4f0850280cf436c70c727923f6db46c3e",
        "60499f801b896d83179a4374aeb7822aaeaceaa0db1f85ee3e904c4defbd9689",
        "03cbcaa9c98c877a26977d00825c956a238e8dddfbd322cce4f74b0b5bd6ace4a7",
    ),
    (
        V2_SEED,
        (0,),
        "abe74a98f6c7eabee0428f53798f0ab8aa1bd37873999041703c742f15ac7e1e",
        "f0909affaa7ee7abe5dd4e100598d4dc53cd709d5a5c2cac40e7412f232f7c9c",
        "02fc9e5af0ac8d9b3cecfe2a888e2117ba3d089d8585886c9c826b6b22a98d12ea",
    ),
    (
        V3_SEED,
        (),
        "00ddb80b067e0d4993197fe10f2657a844a384589847602d56f0c629c81aae32",
        "01d28a3e53cffa419ec122c968b3259e16b65076495494d97cae10bbfec3c36f",
        "03683af1ba5743bdfc798cf814efeeab2735ec52d95eced528e692b8e34c4e5669",
    ),
    (
        V1_SEED,
        (0, 1),
        "472e3788b980839678da16b6a285113a1edb579114b62f9efe628335049fca83",
        "5013ca9e43f801ce6e41c5dcef2dff48b184f9b030867c2849072ed0f0d85f1d",
        "02e740d213a1aa5746c66bae1ecda3b95d7f64d4bf8aff9d93702fc302f28df0f1",
    ),
    (
        V1_SEED,
        (2, 1000000, 3),
        "bc4246943859c4ec3b12bf885f2add22837546a1ac34750c286cc23912206cbd",
        "d399b2d9637fbf009e2095bdbb823cad43ce8bc8c70177cc5c521193c371fd3a",
        "026be4b0a9b4b3451a60582024ba89fe98b02926e1427771ef4e66662ffed7e84e",
    ),
    (
        V2_SEED,
        (0, 2147483646),
        "201d3bef48658aede920d1a625cde4050425c6c7062ddce114359feeb29c9aa8",
        "0ccf0f60011bc6727d0f610c80f8a6b81a8cb6b61ab6805396ed76c24de6b597",
        "0346d85cfdca9f220ce2353840fd053aea308aba86cd5ad25aaa317a4785eb33c8",
    ),
    (
        V3_SEED,
        (7, 0, 5, 1),
        "857cd0c21626851818a12b0e102ad9c79aa5c418edd4b6f67b1bf7d7ae5eea80",
        "668c2c5df570d7d5c2661e0f02386b0ab4021836ca4c44c6eac536b92465d370",
        "03558c97687c0be3289690abb40fa409bff8b65c7c5d6f09d480870afef4b3e49e",
    ),
]


@pytest.mark.parametrize("seed,path,secret_hex,chain_hex,pub_hex", PINNED_VECTORS)
def test_pinned_vectors(seed, path, secret_hex, chain_hex, pub_hex):
    key = derive_path(generate_master(seed), DerivationPath(tuple(path)))
    assert f"{key.secret:064x}" == secret_hex
    assert key.chain_code.hex() == chain_hex
    assert key.public_point.hex() == pub_hex

    # Oracle recomputation: the frozen values are themselves re-derived.
    o_secret, o_chain = oracle.derive_priv(seed, list(path))
    assert f"{o_secret:064x}" == secret_hex
    assert o_chain.hex() == chain_hex
    assert oracle.public_of(o_secret).hex() == pub_hex


@pytest.mark.parametrize("seed,path,secret_hex,chain_hex,pub_hex", PINNED_VECTORS)
def test_pinned_vectors_serialized(seed, path, secret_hex, chain_hex, pub_hex):
    key = derive_path(generate_master(seed), DerivationPath(tuple(path)))
    depth = len(path)
    child_index = path[-1] if path else 0
    expected = (
        bytes([0x10, depth])
        + child_index.to_bytes(4, "big")
        + bytes.fromhex(chain_hex)
        + b"\x00"
        + bytes.fromhex(secret_hex)
    )
    assert key.serialize() == expected
    assert deserialize_xprv(expected) == key

    xpub = neuter(key)
    expected_pub = (
        bytes([0x11, depth])
        + child_index.to_bytes(4, "big")
        + bytes.fromhex(chain_hex)
        + bytes.fromhex(pub_hex)
    )
    assert xpub.serialize() == expected_pub
    assert ExtendedPublicKey.deserialize(expected_pub) == xpub


def test_generate_master_deterministic():
    assert generate_master(V1_SEED) == generate_master(V1_SEED)


@pytest.mark.parametrize("length", [0, 8, 15, 65, 128])
def test_generate_master_rejects_bad_seed_lengths(length):
    with pytest.raises(InvalidSeedLength):
        generate_master(b"\x00" * length)


def test_generate_master_degenerate_scalar(monkeypatch):
    # Force the master HMAC to produce a scalar >= group order.
    monkeypatch.setattr(
        keyhier, "_hmac512", lambda key, data: b"\xff" * 32 + b"\x11" * 32
    )
    with pytest.raises(DegenerateKey):
        generate_master(V1_SEED)


def test_neuter_preserves_metadata(master):
    child = derive_child_priv(master, 9)
    xpub = neuter(child)
    assert xpub.chain_code == child.chain_code
    assert xpub.depth == child.depth == 1
    assert xpub.child_index == 9
    assert xpub.public_point == child.public_point


def test_neuter_commutes_with_derivation_spot(master):
    for index in (0, 1, 1000, 2**31 - 1):
        left = neuter(derive_child_priv(master, index))
        right = derive_child_pub(neuter(master), index)
        assert left == right


def test_commutativity_randomized_bulk(master):
    # Quick version of acceptance criterion 1's 10^4-case sweep.
    rng = random.Random(1234)
    parent = master
    for _ in range(200):
        index = rng.randrange(0, 2**31)
        assert (
            neuter(derive_child_priv(parent, index)).serialize()
            == derive_child_pub(neuter(parent), index).serialize()
        )
        parent = derive_child_priv(parent, rng.randrange(0, 2**31))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.binary(min_size=16, max_size=64),
    segments=st.lists(st.integers(0, 2**31 - 1), min_size=0, max_size=4),
)
def test_pub_path_equals_neutered_priv_path(seed, segments):
    master = generate_master(seed)
    path = DerivationPath(tuple(segments))
    assert derive_path(neuter(master), path) == neuter(derive_path(master, path))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.binary(min_size=16, max_size=64),
    segments=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=4),
)
def test_signatures_verify_under_derived_pub(seed, segments):
    master = generate_master(seed)
    path = DerivationPath(tuple(segments))
    digest = curve.sha256(b"statement")
    signature = curve.sign_digest(derive_path(master, path).secret, digest)
    assert curve.verify_digest(
        derive_path(neuter(master), path).public_point, digest, signature
    )


def test_hardened_index_rejected(master):
    with pytest.raises(HardenedIndexRejected):
        derive_child_priv(master, 2**31)
    with pytest.raises(HardenedIndexRejected):
        derive_child_pub(neuter(master), 2**31)
    with pytest.raises(HardenedIndexRejected):
        DerivationPath((2**31,))
    with pytest.raises(HardenedIndexRejected):
        DerivationPath.parse("m/0'")


def test_path_parsing_and_bounds():
    assert DerivationPath.parse("m").segments == ()
    assert DerivationPath.parse("m/0/1").segments == (0, 1)
    assert str(DerivationPath((3, 4, 5))) == "m/3/4/5"
    with pytest.raises(MalformedPath):
        DerivationPath.parse("x/0")
    with pytest.raises(MalformedPath):
        DerivationPath.parse("m/abc")
    with pytest.raises(MalformedPath):
        DerivationPath((0, 1, 2, 3, 4))


def test_derive_path_identity_and_composition(master):
    assert derive_path(master, DerivationPath(())) == master
    chained = derive_child_priv(derive_child_priv(master, 0), 1)
    assert derive_path(master, DerivationPath((0, 1))) == chained


def test_distinct_indices_distinct_children(master):
    # Brute-force scan: one parent, indices 0..255, all children distinct.
    seen = {
        derive_child_pub(neuter(master), index).public_point
        for index in range(256)
    }
    assert len(seen) == 256


def test_derivation_deterministic(master):
    assert derive_child_priv(master, 77) == derive_child_priv(master, 77)
    assert derive_child_pub(neuter(master), 77) == derive_child_pub(neuter(master), 77)


def test_degenerate_child_tweak_out_of_range(master, monkeypatch):
    monkeypatch.setattr(
        keyhier, "_child_hmac", lambda key, data: b"\xff" * 32 + b"\x22" * 32
    )
    with pytest.raises(DegenerateChild):
        derive_child_priv(master, 5)
    with pytest.raises(DegenerateChild):
        derive_child_pub(neuter(master), 5)


def test_degenerate_child_zero_scalar(master, monkeypatch):
    # tweak == n - parent.secret makes the child scalar exactly zero.
    tweak = (curve.N - master.secret) % curve.N
    monkeypatch.setattr(
        keyhier,
        "_child_hmac",
        lambda key, data: tweak.to_bytes(32, "big") + b"\x33" * 32,
    )
    with pytest.raises(DegenerateChild):
        derive_child_priv(master, 5)


def test_recover_parent_priv_roundtrip(master):
    rng = random.Random(99)
    parent = master
    for _ in range(25):
        index = rng.randrange(0, 2**31)
        child = derive_child_priv(parent, index)
        assert recover_parent_priv(neuter(parent), child.secret, index) == parent.secret
        parent = child


def test_recover_parent_priv_wrong_index(master):
    child = derive_child_priv(master, 7)
    with pytest.raises(RecoveryMismatch):
        recover_parent_priv(neuter(master), child.secret, 8)


def test_recover_parent_priv_foreign_child(master):
    other = generate_master(V2_SEED)
    child = derive_child_priv(other, 7)
    with pytest.raises(RecoveryMismatch):
        recover_parent_priv(neuter(master), child.secret, 7)


def test_display_base58_charset(master):
    text = display(neuter(master))
    assert set(text) <= set("123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz")
    assert len(text) > 90


def test_repr_hides_secret(master):
    assert "e8f32e72" not in repr(master)


def test_concurrent_first_scalar_base_mult_builds_one_table(monkeypatch):
    # Threads racing on the first call must leave exactly one 32-row comb
    # table and compute correct points.
    def expected(k):
        numbers = ec.derive_private_key(k, ec.SECP256K1()).public_key().public_numbers()
        return (numbers.x, numbers.y)

    monkeypatch.setattr(curve, "_COMB", [])
    scalars = [random.Random(i).randrange(1, curve.N) for i in range(4)]
    barrier = threading.Barrier(len(scalars))
    results = {}

    def first_call(k):
        barrier.wait(timeout=30)
        results[k] = curve.scalar_base_mult(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=first_call, args=(k,)) for k in scalars]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(curve._COMB) == 32
    assert results == {k: expected(k) for k in scalars}
    k = random.Random("after").randrange(1, curve.N)
    assert curve.scalar_base_mult(k) == expected(k)
