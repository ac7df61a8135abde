"""Request signing/verification, replay windows, roommate and unified flows."""

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcrkit import curve
from vcrkit.errors import (
    BadRequestSignature,
    BadWrapper,
    DecryptFailed,
    EmptyWrapperList,
    FutureTimestamp,
    MissingSignature,
    MixedServers,
    ReplayDetected,
    SessionKeyMismatch,
    SignerRefused,
    StaleTimestamp,
    VcrkitError,
)
from vcrkit.keyhier import (
    DerivationPath,
    derive_child_priv,
    derive_child_pub,
    derive_path,
    generate_master,
    neuter,
)
from vcrkit.vcr import (
    ActionKind,
    ReplayCache,
    VcrAction,
    VcrRequest,
    build_unified_vcr,
    build_vcr,
    seal_vcr,
    sign_vcr,
    unseal_vcr,
    verify_vcr,
)
from vcrkit.wrapper import (
    ClientId,
    MultiSigPolicy,
    ServerKey,
    Wrapper,
    fresh_cookie_value,
    issue_wrapper,
)

NOW = 1_754_650_000
TOL = 300


def _wrapper_for(master, server_key, j=0, cookie=None):
    session = derive_path(neuter(master), DerivationPath((0, j)))
    policy = MultiSigPolicy((session.public_point,))
    client_id = ClientId("vcid", cookie or fresh_cookie_value())
    return issue_wrapper(server_key, client_id, policy, NOW), DerivationPath((0, j))


def _signed_access(master, server_key, local_signer, j=0, now=NOW):
    wrapper, path = _wrapper_for(master, server_key, j)
    request = build_vcr([wrapper], VcrAction(ActionKind.ACCESS), now)
    return sign_vcr(request, local_signer, path)


def test_build_requires_wrappers():
    with pytest.raises(EmptyWrapperList):
        build_vcr([], VcrAction(ActionKind.DELETE), NOW)


def test_build_rejects_mixed_servers(master, server_key):
    w1, _ = _wrapper_for(master, server_key)
    w2, _ = _wrapper_for(master, ServerKey.generate(), j=1)
    with pytest.raises(MixedServers):
        build_vcr([w1, w2], VcrAction(ActionKind.DELETE), NOW)


def test_access_metadata_key_carried_verbatim(master, server_key):
    wrapper, _ = _wrapper_for(master, server_key)
    metadata_key = curve.pubkey_bytes(curve.generate_secret())
    request = build_vcr(
        [wrapper], VcrAction(ActionKind.ACCESS, response_pubkey=metadata_key), NOW
    )
    assert request.action.response_pubkey == metadata_key
    assert request.signatures == ()


def test_sign_and_verify_roundtrip(master, server_key, local_signer):
    request = _signed_access(master, server_key, local_signer)
    verified = verify_vcr(server_key.public_point, request, NOW, ReplayCache(TOL))
    assert verified.action.kind is ActionKind.ACCESS
    assert verified.client_id == request.wrappers[0].client_id


def test_signer_refusal_leaves_request_unchanged(master, server_key):
    wrapper, path = _wrapper_for(master, server_key)
    request = build_vcr([wrapper], VcrAction(ActionKind.DELETE), NOW)

    class Refuser:
        def sign_digest(self, path, digest, summary=None):
            raise SignerRefused("declined")

    with pytest.raises(SignerRefused):
        sign_vcr(request, Refuser(), path)
    assert request.signatures == () and request.signer_paths == ()


def test_wrong_key_rejected(master, server_key, local_signer):
    wrapper, _ = _wrapper_for(master, server_key, j=0)
    request = build_vcr([wrapper], VcrAction(ActionKind.ACCESS), NOW)
    # Signed under a different session's key than the wrapper binds.
    request = sign_vcr(request, local_signer, DerivationPath((0, 1)))
    with pytest.raises(BadRequestSignature):
        verify_vcr(server_key.public_point, request, NOW, ReplayCache(TOL))


def test_tampered_wrapper_rejected(master, server_key, local_signer):
    request = _signed_access(master, server_key, local_signer)
    bad_wrapper = replace(
        request.wrappers[0], issued_at=request.wrappers[0].issued_at + 1
    )
    tampered = replace(request, wrappers=(bad_wrapper,))
    with pytest.raises(BadWrapper):
        verify_vcr(server_key.public_point, tampered, NOW, ReplayCache(TOL))


def test_replay_within_window(master, server_key, local_signer):
    cache = ReplayCache(TOL)
    request = _signed_access(master, server_key, local_signer)
    verify_vcr(server_key.public_point, request, NOW, cache)
    with pytest.raises(ReplayDetected):
        verify_vcr(server_key.public_point, request, NOW + 5, cache)


def test_resigned_body_is_still_a_replay(master, server_key, local_signer):
    cache = ReplayCache(TOL)
    wrapper, path = _wrapper_for(master, server_key)
    request = build_vcr([wrapper], VcrAction(ActionKind.ACCESS), NOW)
    first = sign_vcr(request, local_signer, path)
    verify_vcr(server_key.public_point, first, NOW, cache)
    # Same body, fresh signature object: digest excludes signatures.
    second = sign_vcr(request, local_signer, path)
    with pytest.raises(ReplayDetected):
        verify_vcr(server_key.public_point, second, NOW, cache)


@pytest.mark.parametrize(
    "offset,outcome",
    [
        (-TOL - 1, StaleTimestamp),
        (-TOL, None),
        (-TOL + 1, None),
        (-1, None),
        (0, None),
        (1, None),
        (TOL - 1, None),
        (TOL, None),
        (TOL + 1, FutureTimestamp),
    ],
)
def test_freshness_boundary_sweep(master, server_key, local_signer, offset, outcome):
    request = _signed_access(master, server_key, local_signer, now=NOW + offset)
    cache = ReplayCache(TOL)
    if outcome is None:
        verify_vcr(server_key.public_point, request, NOW, cache)
    else:
        with pytest.raises(outcome):
            verify_vcr(server_key.public_point, request, NOW, cache)


def test_eviction_never_readmits(master, server_key, local_signer):
    tolerance = 10
    cache = ReplayCache(tolerance)
    request = _signed_access(master, server_key, local_signer, now=NOW)
    verify_vcr(server_key.public_point, request, NOW, cache)
    assert len(cache) == 1
    # Push time past the window; the entry is evicted, but the request's own
    # timestamp is now stale, so it still cannot come back.
    late = NOW + tolerance + 5
    with pytest.raises(StaleTimestamp):
        verify_vcr(server_key.public_point, request, late, cache)
    fresh = _signed_access(master, server_key, local_signer, j=1, now=late)
    verify_vcr(server_key.public_point, fresh, late, cache)
    assert len(cache) == 1  # old digest evicted on insert


def test_concurrent_duplicates_admit_exactly_one(master, server_key, local_signer):
    request = _signed_access(master, server_key, local_signer)
    cache = ReplayCache(TOL)
    results = []

    def attempt():
        try:
            verify_vcr(server_key.public_point, request, NOW, cache)
            return "ok"
        except ReplayDetected:
            return "replay"

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: attempt(), range(16)))
    assert results.count("ok") == 1
    assert results.count("replay") == 15


@pytest.mark.parametrize(
    "later,outcome",
    [
        (TOL + 1, ReplayDetected),
        (2 * TOL, ReplayDetected),
        (2 * TOL + 1, StaleTimestamp),
    ],
)
def test_future_stamped_request_never_readmits(
    master, server_key, local_signer, later, outcome
):
    # Stamped a full tolerance ahead, the request stays fresh until
    # NOW + 2*TOL, so its digest must be kept that long, not only a
    # tolerance past its arrival.
    cache = ReplayCache(TOL)
    request = _signed_access(master, server_key, local_signer, now=NOW + TOL)
    verify_vcr(server_key.public_point, request, NOW, cache)
    with pytest.raises(outcome):
        verify_vcr(server_key.public_point, request, NOW + later, cache)


MODEL_TOL = 10


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 7),  # digest, from a small pool so repeats happen
            st.integers(0, 3 * MODEL_TOL),  # clock step since the last call
            st.integers(-MODEL_TOL, MODEL_TOL) | st.none(),  # timestamp skew
        ),
        max_size=80,
    )
)
def test_replay_cache_against_brute_force_model(steps):
    """``admit`` against a list of every admission, with a non-decreasing
    clock and timestamps inside the freshness window as verify_vcr ensures."""
    cache = ReplayCache(MODEL_TOL)
    admitted: list[tuple[bytes, int, int]] = []  # (digest, arrival, expires)
    now = NOW
    for pick, step, skew in steps:
        now += step
        digest = bytes([pick]) * 32
        timestamp = None if skew is None else now + skew
        mine = [(t, exp) for d, t, exp in admitted if d == digest]
        try:
            if timestamp is None:
                cache.admit(digest, now)
            else:
                cache.admit(digest, now, timestamp)
        except ReplayDetected:
            # Only a digest admitted within the last 2*tolerance is refused;
            # a digest never seen before is always admitted.
            assert any(t >= now - 2 * MODEL_TOL for t, _ in mine)
        else:
            assert not any(exp >= now for _, exp in mine)
            expires = now if timestamp is None else max(now, timestamp)
            admitted.append((digest, now, expires + MODEL_TOL))
        recent = sum(1 for _, t, _ in admitted if t >= now - 2 * MODEL_TOL)
        assert len(cache) <= recent


def test_replay_admit_stays_cheap_at_100k_live_entries():
    cache = ReplayCache(TOL)
    for i in range(100_000):
        cache.admit(i.to_bytes(32, "big"), NOW)
    start = time.perf_counter()
    for i in range(100_000, 101_000):
        cache.admit(i.to_bytes(32, "big"), NOW + TOL)
    elapsed = time.perf_counter() - start
    assert len(cache) == 101_000
    assert elapsed < 0.5, f"1000 admits at 100k live entries took {elapsed:.3f}s"


class _MemberSigner:
    def __init__(self, master):
        self.master = master

    def sign_digest(self, path, digest, summary=None):
        return curve.sign_digest(derive_path(self.master, path).secret, digest)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_roommate_full_sets_verify(server_key, n):
    # n household members, each with their own master on their own trusted
    # device; each appends one signature via sign_vcr in turn.
    members = [generate_master(bytes([i + 1] * 32)) for i in range(n)]
    points = tuple(
        derive_path(neuter(m), DerivationPath((0, 0))).public_point for m in members
    )
    wrapper = issue_wrapper(
        server_key, ClientId("vcid", "shared-tv"), MultiSigPolicy(points), NOW
    )
    request = build_vcr([wrapper], VcrAction(ActionKind.DELETE), NOW)
    for member in members:
        request = sign_vcr(request, _MemberSigner(member), DerivationPath((0, 0)))
    assert len(request.signatures) == n
    verified = verify_vcr(server_key.public_point, request, NOW, ReplayCache(TOL))
    assert verified.action.kind is ActionKind.DELETE

    # Every (n-1)-subset falls short.
    for leave_out in range(n):
        subset = tuple(
            sig for k, sig in enumerate(request.signatures) if k != leave_out
        )
        partial = replace(request, signatures=subset)
        with pytest.raises(MissingSignature):
            verify_vcr(server_key.public_point, partial, NOW, ReplayCache(TOL))


def test_roommate_wrong_member_signature(server_key):
    members = [generate_master(bytes([i + 1] * 32)) for i in range(3)]
    points = tuple(
        derive_path(neuter(m), DerivationPath((0, 0))).public_point for m in members
    )
    wrapper = issue_wrapper(
        server_key, ClientId("vcid", "shared"), MultiSigPolicy(points), NOW
    )
    request = build_vcr([wrapper], VcrAction(ActionKind.DELETE), NOW)
    # Member 0 signs three times; counts match but positions 1 and 2 fail.
    key0 = derive_path(members[0], DerivationPath((0, 0)))
    sig = curve.sign_digest(key0.secret, request.digest())
    request = replace(request, signatures=(sig, sig, sig))
    with pytest.raises(BadRequestSignature):
        verify_vcr(server_key.public_point, request, NOW, ReplayCache(TOL))


def _unified_setup(master, server_key, session_count=3, server_index=4):
    device_priv = derive_child_priv(master, 0)
    scoped_priv = derive_child_priv(device_priv, server_index)
    scoped_pub = neuter(scoped_priv)
    wrappers = []
    for j in range(session_count):
        session_point = derive_child_pub(scoped_pub, j).public_point
        wrappers.append(
            issue_wrapper(
                server_key,
                ClientId("vcid", fresh_cookie_value()),
                MultiSigPolicy((session_point,)),
                NOW,
            )
        )
    return scoped_priv, scoped_pub, wrappers


def test_unified_single_signature_covers_sessions(master, server_key):
    scoped_priv, scoped_pub, wrappers = _unified_setup(master, server_key)
    request = build_unified_vcr(
        wrappers, scoped_pub, [0, 1, 2], VcrAction(ActionKind.ACCESS), NOW
    )
    request = replace(
        request, signatures=(curve.sign_digest(scoped_priv.secret, request.digest()),)
    )
    verified = verify_vcr(server_key.public_point, request, NOW, ReplayCache(TOL))
    assert len(verified.client_ids) == 3
    assert len(request.signatures) == 1


def test_unified_foreign_wrapper_rejected(master, server_key):
    scoped_priv, scoped_pub, wrappers = _unified_setup(master, server_key)
    foreign, _ = _wrapper_for(master, server_key, j=9)  # plain m/0/9 key
    with pytest.raises(SessionKeyMismatch):
        build_unified_vcr(
            wrappers[:2] + [foreign],
            scoped_pub,
            [0, 1, 2],
            VcrAction(ActionKind.ACCESS),
            NOW,
        )
    # Same mutation smuggled past the builder must fail at the verifier.
    request = build_unified_vcr(
        wrappers, scoped_pub, [0, 1, 2], VcrAction(ActionKind.ACCESS), NOW
    )
    request = replace(request, wrappers=tuple(wrappers[:2]) + (foreign,))
    request = replace(
        request, signatures=(curve.sign_digest(scoped_priv.secret, request.digest()),)
    )
    with pytest.raises(SessionKeyMismatch):
        verify_vcr(server_key.public_point, request, NOW, ReplayCache(TOL))


def test_unified_over_one_session_equals_plain(master, server_key):
    scoped_priv, scoped_pub, wrappers = _unified_setup(master, server_key, 1)
    unified = build_unified_vcr(
        wrappers, scoped_pub, [0], VcrAction(ActionKind.ACCESS), NOW
    )
    unified = replace(
        unified, signatures=(curve.sign_digest(scoped_priv.secret, unified.digest()),)
    )
    unified_outcome = verify_vcr(
        server_key.public_point, unified, NOW, ReplayCache(TOL)
    )

    session_priv = derive_child_priv(scoped_priv, 0)
    plain = build_vcr(wrappers, VcrAction(ActionKind.ACCESS), NOW)
    plain = replace(
        plain, signatures=(curve.sign_digest(session_priv.secret, plain.digest()),)
    )
    plain_outcome = verify_vcr(server_key.public_point, plain, NOW, ReplayCache(TOL))

    assert unified_outcome.client_ids == plain_outcome.client_ids
    assert unified_outcome.action == plain_outcome.action


def test_seal_roundtrip_and_tamper(master, server_key, local_signer):
    request = _signed_access(master, server_key, local_signer)
    sealed = seal_vcr(server_key.public_point, request)
    assert unseal_vcr(server_key.secret, sealed) == request
    assert (
        unseal_vcr(server_key.secret, sealed).to_canonical()
        == request.to_canonical()
    )

    flipped = bytearray(sealed.ciphertext)
    flipped[3] ^= 0x10
    tampered = replace(sealed, ciphertext=bytes(flipped))
    with pytest.raises(DecryptFailed):
        unseal_vcr(server_key.secret, tampered)

    with pytest.raises(DecryptFailed):
        unseal_vcr(ServerKey.generate().secret, sealed)


def test_seal_requires_signature(master, server_key):
    wrapper, _ = _wrapper_for(master, server_key)
    unsigned = build_vcr([wrapper], VcrAction(ActionKind.DELETE), NOW)
    with pytest.raises(MissingSignature):
        seal_vcr(server_key.public_point, unsigned)


def test_seals_use_fresh_ephemeral_keys(master, server_key, local_signer):
    request = _signed_access(master, server_key, local_signer)
    seen_ephemerals = set()
    seen_ciphertexts = set()
    for _ in range(100):
        sealed = seal_vcr(server_key.public_point, request)
        seen_ephemerals.add(sealed.ephemeral_pubkey)
        seen_ciphertexts.add(sealed.ciphertext)
    assert len(seen_ephemerals) == 100
    assert len(seen_ciphertexts) == 100


def test_unforgeability_randomized(master, server_key, local_signer):
    """100 wrong-key or tampered requests, all rejected."""
    rng = random.Random(31337)
    rejected = 0
    base = _signed_access(master, server_key, local_signer)
    for trial in range(100):
        flavor = trial % 4
        if flavor == 0:  # sign under a random foreign key
            foreign = generate_master(rng.getrandbits(256).to_bytes(32, "big"))
            request = replace(
                base,
                signatures=(
                    curve.sign_digest(
                        derive_path(foreign, DerivationPath((0, 0))).secret,
                        base.digest(),
                    ),
                ),
            )
        elif flavor == 1:  # random signature bytes
            request = replace(
                base, signatures=(rng.getrandbits(512).to_bytes(64, "big"),)
            )
        elif flavor == 2:  # tamper with the action after signing
            request = replace(
                base, action=VcrAction(ActionKind.DELETE), signatures=base.signatures
            )
        else:  # tamper with the timestamp after signing
            request = replace(base, timestamp=base.timestamp + 1 + trial)
        try:
            verify_vcr(server_key.public_point, request, NOW, ReplayCache(TOL))
        except VcrkitError:
            rejected += 1
    assert rejected == 100


def test_binding_bit_flip_sweep(master, server_key, local_signer):
    """Exhaustive single-bit sweep over a serialized signed request: no
    mutation may verify. The fixture carries no signer-path bookkeeping, so
    every byte is either signed material or a signature."""
    request = _signed_access(master, server_key, local_signer)
    request = replace(request, signer_paths=())
    blob = bytearray(request.to_canonical())
    baseline = verify_vcr(
        server_key.public_point, request, NOW, ReplayCache(TOL)
    )
    assert baseline is not None
    false_accepts = 0
    for byte_index in range(len(blob)):
        for bit in range(8):
            mutated = bytearray(blob)
            mutated[byte_index] ^= 1 << bit
            try:
                parsed = VcrRequest.from_canonical(bytes(mutated))
                verify_vcr(server_key.public_point, parsed, NOW, ReplayCache(TOL))
            except VcrkitError:
                continue
            false_accepts += 1
    assert false_accepts == 0


def test_unlinkability_thousand_sessions(master, server_key):
    """Across 1000 sessions nothing client-derived repeats: session keys,
    cookies and wrapper signatures are pairwise distinct."""
    device_pub = derive_child_pub(neuter(master), 0)
    points = set()
    cookies = set()
    signatures = set()
    for j in range(1000):
        point = derive_child_pub(device_pub, j).public_point
        cookie = fresh_cookie_value()
        wrapper = issue_wrapper(
            server_key, ClientId("vcid", cookie), MultiSigPolicy((point,)), NOW
        )
        points.add(point)
        cookies.add(cookie)
        signatures.add(wrapper.signature)
    assert len(points) == 1000
    assert len(cookies) == 1000
    assert len(signatures) == 1000


def test_more_signatures_than_required_rejected(master, server_key, local_signer):
    request = _signed_access(master, server_key, local_signer)
    padded = replace(request, signatures=request.signatures * 2)
    with pytest.raises(BadRequestSignature):
        verify_vcr(server_key.public_point, padded, NOW, ReplayCache(TOL))
