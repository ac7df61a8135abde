"""OpenSSL key objects are built once per key and never for an ephemeral key."""

import time

import pytest

from vcrkit import curve
from vcrkit.encoding import WireMode, to_wire
from vcrkit.keyhier import DerivationPath, derive_path, neuter
from vcrkit.sealing import hybrid_decrypt, hybrid_encrypt
from vcrkit.server import COOKIE_NAME, VcrServer
from vcrkit.vcr import ActionKind, VcrAction, build_vcr, seal_vcr, sign_vcr
from vcrkit.wrapper import ClientId, MultiSigPolicy, ServerKey, issue_wrapper

SERVER_SECRET = 0x5EC2E7
OPT = WireMode.OPTIMIZED


@pytest.fixture()
def builds(monkeypatch):
    """Secrets passed to ``curve.private_key``, one per key built."""
    calls = []
    build = curve.private_key
    monkeypatch.setattr(curve, "private_key", lambda secret: calls.append(secret) or build(secret))
    return calls


def test_server_key_built_once_for_many_wrappers(builds, master_pub):
    server_key = ServerKey(secret=SERVER_SECRET)
    policy = MultiSigPolicy((derive_path(master_pub, DerivationPath((0, 0))).public_point,))
    for i in range(50):
        issue_wrapper(server_key, ClientId(COOKIE_NAME, f"c{i}"), policy, 1_700_000_000 + i)
    assert builds == [SERVER_SECRET]


def test_sealed_requests_build_the_server_key_once(builds, master, local_signer):
    vcr_server = VcrServer(ServerKey(secret=SERVER_SECRET))
    issuer = ServerKey(secret=SERVER_SECRET)  # same key, built separately
    bodies = []
    for j in range(5):
        path = DerivationPath((0, j))
        cookie_value, _ = vcr_server.handle_page_request("/", None)
        wrapper = issue_wrapper(
            issuer,
            ClientId(COOKIE_NAME, cookie_value),
            MultiSigPolicy((derive_path(neuter(master), path).public_point,)),
            int(time.time()),
        )
        request = build_vcr([wrapper], VcrAction(ActionKind.ACCESS), int(time.time()))
        request = sign_vcr(request, local_signer, path)
        bodies.append(to_wire(seal_vcr(issuer.public_point, request), OPT).encode())
    builds.clear()
    for body in bodies:
        status, payload = vcr_server.handle_vcr(body)
        assert status == 200, payload
    assert builds == [SERVER_SECRET]


def test_hybrid_encrypt_builds_no_key(builds):
    recipient = curve.private_key(SERVER_SECRET)
    builds.clear()
    boxes = [hybrid_encrypt(curve.public_bytes(recipient), b"payload", b"info") for _ in range(3)]
    assert builds == []
    assert len({box.ephemeral_pubkey for box in boxes}) == 3
    assert all(hybrid_decrypt(recipient, box, b"info") == b"payload" for box in boxes)


def test_signer_builds_one_key_per_path(builds, signer_state):
    for message in (b"a", b"b", b"c", b"d", b"e"):
        signer_state.sign_digest(DerivationPath((0, 1)), curve.sha256(message))
    assert len(builds) == 1


def test_agent_builds_the_response_key_once(builds, loopback, provisioned_agent, local_signer):
    _, _, origin = loopback
    session, _ = provisioned_agent.visit(origin + "/page", int(time.time()))
    response_secret = curve.generate_secret()
    action = VcrAction(ActionKind.ACCESS, response_pubkey=curve.pubkey_bytes(response_secret))
    outcome = provisioned_agent.submit_request(
        [session], action, local_signer, int(time.time()), response_secret=response_secret
    )
    assert outcome.status == 200
    assert [path for _, path in outcome.records[0].visits] == ["/page"]
    assert builds.count(response_secret) == 1
