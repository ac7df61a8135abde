"""Signer state file, policies, retirement and the framed daemon."""

import json
import os
import random
import stat
import sys
import threading

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from vcrkit import curve, signer
from vcrkit.errors import (
    DeviceRetired,
    Locked,
    MalformedMessage,
    SignerRefused,
    StateExists,
    StateMissing,
    UnknownPath,
    WrongPassphrase,
)
from vcrkit.keyhier import DerivationPath, derive_path, generate_master, neuter
from vcrkit.signer import (
    KEY_CACHE_SIZE,
    ConfirmationPolicy,
    SignerClient,
    SignerDaemon,
    SignerState,
)

SEED = bytes(range(32))
PASSPHRASE = "correct horse battery"


@pytest.fixture()
def state(tmp_path):
    return SignerState.init(
        PASSPHRASE,
        SEED,
        str(tmp_path / "signer.state"),
        policy=ConfirmationPolicy.AUTO_APPROVE,
    )


@pytest.fixture()
def daemon(state, tmp_path):
    daemon = SignerDaemon(state, str(tmp_path / "signer.sock"))
    daemon.serve_in_thread()
    yield daemon
    daemon.shutdown()


@pytest.fixture()
def client(daemon):
    return SignerClient(daemon.socket_path)


def test_init_then_unlock_same_master(state, tmp_path):
    unlocked = SignerState.unlock(PASSPHRASE, str(tmp_path / "signer.state"))
    assert (
        unlocked.issue_device_xpub(0).serialize()
        == state.issue_device_xpub(0).serialize()
    )


def test_wrong_passphrase(state, tmp_path):
    with pytest.raises(WrongPassphrase):
        SignerState.unlock("not it", str(tmp_path / "signer.state"))


def test_state_exists_and_missing(state, tmp_path):
    with pytest.raises(StateExists):
        SignerState.init(PASSPHRASE, SEED, str(tmp_path / "signer.state"))
    with pytest.raises(StateMissing):
        SignerState.unlock(PASSPHRASE, str(tmp_path / "nothing.state"))


# A state file as SignerState.save wrote it before the envelope was decoded
# through encoding.json_object: seed SEED, device 0 active, device 1 retired.
EARLIER_STATE = (
    '{"kdf": {"name": "scrypt", "n": 16384, "r": 8, "p": 1, "salt": '
    '"40bb4b2ce35a4a86df92dedb60923d5c"}, "nonce": "ba46758a97a1769dd31174a6", '
    '"ciphertext": "c3648e62fedf8b6a060ae03c5999997a13d79c5918ad8a5fb32093d35d57'
    "7440fbda674162031f45bb79433aed6f60991f641cdcf168bba583b5010afa12166af3c8a1"
    "9e51a2e06b6673499ab2270884c3d9a929eb551fb7646cd3313854e79aaf76687d7ce082d6"
    "4a2d6f6073297001d7bd35033251d12cd2b47fda5c65ede021ee45b51d967cd463db32c757"
    "a62eecd3ea7ba753e161e0526675f517ecd7534526959066e37c904917ac00c34452118a45"
    '795aa7b905459434ee8eb50d16d5eb3e6e5d63b3db719f4cadf37889f9ce0f937b12bcd75cb0"}'
)


def test_state_file_written_earlier_still_unlocks(tmp_path):
    path = tmp_path / "earlier.state"
    path.write_text(EARLIER_STATE)
    unlocked = SignerState.unlock("fixture passphrase", str(path))
    assert unlocked.device_status(0) == "active"
    assert unlocked.device_status(1) == "retired"
    expected = neuter(derive_path(generate_master(SEED), DerivationPath((0,))))
    assert unlocked.issue_device_xpub(0).serialize() == expected.serialize()
    assert path.read_text() == EARLIER_STATE  # nothing changed, nothing saved


def test_state_file_contains_no_secrets(state, tmp_path):
    blob = (tmp_path / "signer.state").read_bytes()
    master = generate_master(SEED)
    secret_hex = f"{master.secret:064x}"
    assert SEED.hex().encode() not in blob
    assert secret_hex.encode() not in blob
    assert master.chain_code.hex().encode() not in blob
    # Raw byte forms too: the envelope is hex JSON, but check anyway.
    assert SEED not in blob
    assert master.secret.to_bytes(32, "big") not in blob


def test_issue_device_idempotent(state):
    first = state.issue_device_xpub(3)
    second = state.issue_device_xpub(3)
    assert first.serialize() == second.serialize()
    assert state.device_status(3) == "active"


def test_issue_matches_client_side_derivation(state):
    master = generate_master(SEED)
    expected = neuter(derive_path(master, DerivationPath((5,))))
    assert state.issue_device_xpub(5).serialize() == expected.serialize()


@pytest.mark.parametrize("signed_first", [False, True])
def test_retire_blocks_issue_and_sign(state, signed_first):
    state.issue_device_xpub(2)
    if signed_first:  # the path's key is kept; retirement must still win
        state.sign_digest(DerivationPath((2, 0)), curve.sha256(b"x"))
    state.retire_device(2)
    with pytest.raises(DeviceRetired):
        state.issue_device_xpub(2)
    with pytest.raises(DeviceRetired):
        state.sign_digest(DerivationPath((2, 0)), curve.sha256(b"x"))
    state.retire_device(2)  # idempotent
    assert state.device_status(2) == "retired"


def test_retire_unknown_device_recorded(state):
    state.retire_device(42)
    assert state.device_status(42) == "retired"
    with pytest.raises(DeviceRetired):
        state.issue_device_xpub(42)


def test_retirement_leaves_other_devices_alone(state):
    for device_id in range(10):
        state.issue_device_xpub(device_id)
    state.retire_device(4)
    for device_id in range(10):
        if device_id == 4:
            with pytest.raises(DeviceRetired):
                state.sign_digest(
                    DerivationPath((device_id, 0)), curve.sha256(b"probe")
                )
        else:
            signature = state.sign_digest(
                DerivationPath((device_id, 0)), curve.sha256(b"probe")
            )
            assert len(signature) == 64


def test_sign_verifies_under_derived_pub(state):
    master = generate_master(SEED)
    digest = curve.sha256(b"request body")
    signature = state.sign_digest(DerivationPath((0, 1)), digest)
    pub = derive_path(neuter(master), DerivationPath((0, 1)))
    assert curve.verify_digest(pub.public_point, digest, signature)


def test_sign_rejects_master_path(state):
    with pytest.raises(UnknownPath):
        state.sign_digest(DerivationPath(()), curve.sha256(b"x"))


def test_deny_all_policy(state):
    state.policy = ConfirmationPolicy.DENY_ALL
    with pytest.raises(SignerRefused):
        state.sign_digest(DerivationPath((0, 0)), curve.sha256(b"x"))


def test_prompt_policy_uses_hook(state):
    seen = []

    def hook(path, summary):
        seen.append((path, summary))
        return summary == "yes please"

    state.policy = ConfirmationPolicy.PROMPT
    state.confirm_hook = hook
    with pytest.raises(SignerRefused):
        state.sign_digest(DerivationPath((0, 0)), curve.sha256(b"x"), summary="nope")
    signature = state.sign_digest(
        DerivationPath((0, 0)), curve.sha256(b"x"), summary="yes please"
    )
    assert len(signature) == 64
    assert seen == [("m/0/0", "nope"), ("m/0/0", "yes please")]


def test_prompt_policy_without_hook_refuses(state):
    state.policy = ConfirmationPolicy.PROMPT
    state.confirm_hook = None
    with pytest.raises(SignerRefused):
        state.sign_digest(DerivationPath((0, 0)), curve.sha256(b"x"))


@pytest.mark.parametrize("signed_first", [False, True])
def test_lock(state, signed_first):
    if signed_first:
        state.sign_digest(DerivationPath((0, 0)), curve.sha256(b"x"))
    state.lock()
    assert not state._keys
    with pytest.raises(Locked):
        state.issue_device_xpub(0)
    with pytest.raises(Locked):
        state.sign_digest(DerivationPath((0, 0)), curve.sha256(b"x"))


def test_prompt_hook_asked_on_every_signature_of_a_kept_key(state):
    seen = []
    state.policy = ConfirmationPolicy.PROMPT
    state.confirm_hook = lambda path, summary: seen.append(path) or summary == "ok"
    path = DerivationPath((0, 3))
    for _ in range(3):
        state.sign_digest(path, curve.sha256(b"x"), summary="ok")
    with pytest.raises(SignerRefused):
        state.sign_digest(path, curve.sha256(b"x"), summary="no")
    assert seen == ["m/0/3"] * 4


def test_key_cache_holds_at_most_its_cap(state):
    digest = curve.sha256(b"x")
    paths = [DerivationPath((0, j)) for j in range(KEY_CACHE_SIZE + 10)]
    for path in paths:
        state.sign_digest(path, digest)
        assert len(state._keys) <= KEY_CACHE_SIZE
    assert len(state._keys) == KEY_CACHE_SIZE
    # Least recently used first out: the first ten paths are gone.
    assert list(state._keys) == paths[10:]
    state.sign_digest(paths[10], digest)  # used again, so kept
    state.sign_digest(DerivationPath((0, KEY_CACHE_SIZE + 10)), digest)
    assert paths[10] in state._keys and paths[11] not in state._keys


def test_kept_key_signs_like_a_fresh_derivation(state):
    master = generate_master(SEED)
    path = DerivationPath((1, 4))
    for message in (b"first", b"second", b"third"):
        digest = curve.sha256(message)
        fresh = curve.sign_digest(
            curve.private_key(derive_path(master, path).secret), digest
        )
        assert state.sign_digest(path, digest) == fresh
    assert list(state._keys) == [path]


def test_concurrent_signing_keeps_the_cap_and_lock_drops_all(state, monkeypatch):
    monkeypatch.setattr(signer, "KEY_CACHE_SIZE", 8)
    digest = curve.sha256(b"x")
    paths = [DerivationPath((0, j)) for j in range(20)]
    signed, failures = [], []

    def work(offset, rounds):
        try:
            for i in range(rounds):
                path = paths[(offset + i) % len(paths)]
                signed.append((path, state.sign_digest(path, digest)))
        except Locked:
            pass
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    def run_threads(rounds, during=None):
        threads = [threading.Thread(target=work, args=(3 * k, rounds)) for k in range(6)]
        for thread in threads:
            thread.start()
        if during is not None:
            during()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads(30)
        assert len(state._keys) == 8
        run_threads(30, during=state.lock)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert not state._keys
    master = generate_master(SEED)
    expected = {}
    for path, signature in signed:
        if path not in expected:
            key = curve.private_key(derive_path(master, path).secret)
            expected[path] = curve.sign_digest(key, digest)
        assert signature == expected[path]


def test_lock_unlock_roundtrip_preserves_derivations(state, tmp_path):
    before = state.issue_device_xpub(1).serialize()
    state.lock()
    unlocked = SignerState.unlock(PASSPHRASE, str(tmp_path / "signer.state"))
    assert unlocked.issue_device_xpub(1).serialize() == before


def test_backup_is_the_encrypted_file(state, tmp_path):
    assert state.export_backup() == (tmp_path / "signer.state").read_bytes()


# --- daemon -------------------------------------------------------------------


def test_daemon_ping_and_xpub(client, state):
    assert client.ping()
    assert (
        client.issue_device_xpub(0).serialize()
        == state.issue_device_xpub(0).serialize()
    )


def test_daemon_sign_roundtrip(client):
    master = generate_master(SEED)
    digest = curve.sha256(b"framed")
    signature = client.sign_digest(DerivationPath((0, 7)), digest)
    pub = derive_path(neuter(master), DerivationPath((0, 7)))
    assert curve.verify_digest(pub.public_point, digest, signature)


def test_daemon_error_mapping(client):
    client.retire_device(6)
    with pytest.raises(DeviceRetired):
        client.sign_digest(DerivationPath((6, 0)), curve.sha256(b"x"))


def test_daemon_multiple_frames_per_connection(daemon):
    import socket as socketlib

    from vcrkit.signer import read_frame, write_frame

    with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
        sock.connect(daemon.socket_path)
        for _ in range(3):
            write_frame(sock, {"op": "ping"})
            response = read_frame(sock)
            assert response == {"ok": True, "result": "pong"}


def test_daemon_responses_never_leak_private_material(daemon, client):
    """Fuzz the daemon and scan every response frame for key material."""
    import socket as socketlib

    from vcrkit.signer import read_frame, write_frame

    master = generate_master(SEED)
    forbidden = {
        SEED.hex(),
        f"{master.secret:064x}",
        master.chain_code.hex(),
    }
    for device_id in range(3):
        child = derive_path(master, DerivationPath((device_id, 0)))
        forbidden.add(f"{child.secret:064x}")

    rng = random.Random(777)
    frames = [
        {"op": "ping"},
        {"op": "device_xpub", "device_id": 0},
        {"op": "device_xpub", "device_id": "junk"},
        {"op": "sign", "path": "m/0/0", "digest": curve.sha256(b"a").hex()},
        {"op": "sign", "path": "m/0'", "digest": curve.sha256(b"a").hex()},
        {"op": "sign", "path": "m/0/0", "digest": "zz"},
        {"op": "sign", "path": "m", "digest": curve.sha256(b"a").hex()},
        {"op": "retire_device", "device_id": 9},
        {"op": "no-such-op"},
        {"not-even-an-op": 1},
    ]
    for _ in range(30):
        frames.append(
            {
                "op": rng.choice(["ping", "sign", "device_xpub", "bogus"]),
                "path": f"m/{rng.randrange(3)}/{rng.randrange(100)}",
                "digest": rng.getrandbits(256).to_bytes(32, "big").hex(),
                "device_id": rng.randrange(3),
                "summary": "fuzz",
            }
        )

    captured = []
    for frame in frames:
        with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
            sock.connect(daemon.socket_path)
            write_frame(sock, frame)
            response = read_frame(sock)
            assert response is not None
            captured.append(json.dumps(response))

    for text in captured:
        lowered = text.lower()
        for secret in forbidden:
            assert secret not in lowered


def test_daemon_answers_a_frame_that_is_not_an_object(daemon, client):
    import socket as socketlib

    from vcrkit.signer import read_frame

    for body in (b"[]", b'"ping"'):
        with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
            sock.connect(daemon.socket_path)
            sock.sendall(len(body).to_bytes(4, "little") + body)
            response = read_frame(sock)
        assert response["ok"] is False
        assert response["err"] == "MalformedMessage"
    assert client.ping()


def test_daemon_takes_only_a_json_integer_device_id_in_range(daemon, state, tmp_path):
    """A device id that is a bool, a float, a string, negative or 2^31 and
    up gets an error frame and touches neither the ledger nor the file."""
    import socket as socketlib

    from vcrkit.signer import read_frame, write_frame

    state.issue_device_xpub(3)
    ledger = dict(state._devices)
    state_file = (tmp_path / "signer.state").read_bytes()
    bad_ids = [True, False, 1.9, 5.5, "7", -1, 2**31, 2**40]
    for op in ("device_xpub", "retire_device"):
        for device_id in bad_ids:
            with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
                sock.connect(daemon.socket_path)
                write_frame(sock, {"op": op, "device_id": device_id})
                response = read_frame(sock)
            assert response["ok"] is False, (op, device_id)
            assert "result" not in response
    assert state._devices == ledger
    assert (tmp_path / "signer.state").read_bytes() == state_file


@pytest.mark.parametrize("length", [0, 31, 33])
def test_digest_of_the_wrong_length_is_malformed_message(state, length):
    with pytest.raises(MalformedMessage, match="32 bytes"):
        state.sign_digest(DerivationPath((0, 0)), bytes(length))


def test_daemon_socket_file_removed_on_shutdown(state, tmp_path):
    socket_path = str(tmp_path / "ephemeral.sock")
    daemon = SignerDaemon(state, socket_path)
    thread = daemon.serve_in_thread()
    assert os.path.exists(socket_path)
    daemon.shutdown()
    thread.join(timeout=5)
    assert not os.path.exists(socket_path)


def test_daemon_socket_exists_0600_before_serving(state, tmp_path):
    socket_path = str(tmp_path / "early.sock")
    import socket as socketlib

    daemon = SignerDaemon(state, socket_path)
    try:
        assert stat.S_IMODE(os.stat(socket_path).st_mode) == 0o600
        with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
            sock.connect(socket_path)  # already listening: the backlog takes it
    finally:
        daemon.server_close()


def test_daemon_bad_socket_path_raises_from_constructor(state, tmp_path):
    with pytest.raises(OSError):
        SignerDaemon(state, str(tmp_path / "no-such-dir" / "signer.sock"))


def test_daemon_peer_gone_mid_frame_is_quiet(daemon, client, capfd):
    import socket as socketlib

    with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
        sock.connect(daemon.socket_path)
        sock.sendall((100).to_bytes(4, "little") + b"{}")
    # One connection at a time: the ping is served only after the
    # abandoned connection has been dealt with.
    assert client.ping()
    assert capfd.readouterr().err == ""


# --- state files and replies that do not decode ------------------------------


def _sealed_state(inner: bytes) -> bytes:
    """A state file laid out as SignerState.save lays it out, sealing
    ``inner`` under PASSPHRASE."""
    kdf = {"name": "scrypt", "n": 16384, "r": 8, "p": 1, "salt": "00" * 16}
    aad = json.dumps(kdf, sort_keys=True).encode()
    key = signer._derive_file_key(PASSPHRASE, bytes(16))
    ciphertext = AESGCM(key).encrypt(bytes(12), inner, aad)
    envelope = {"kdf": kdf, "nonce": "00" * 12, "ciphertext": ciphertext.hex()}
    return json.dumps(envelope).encode()


@pytest.mark.parametrize(
    "data",
    [
        b"[]",
        b'{"kdf":1,"nonce":"00","ciphertext":"00"}',
        b'{"kdf":{"salt":"00"},"nonce":"00","ciphertext":"00"}',  # 1-byte nonce
        b"\xff\xfe{}",
        _sealed_state(b"[]"),
        _sealed_state(b'{"master":"00","devices":{}}'),
        _sealed_state(b'{"master":' + b"1" * 5000 + b',"devices":{}}'),
    ],
    ids=[
        "list",
        "kdf-not-object",
        "short-nonce",
        "not-utf8",
        "inner-list",
        "inner-short-master",
        "inner-huge-int",
    ],
)
def test_state_file_that_does_not_decode_is_malformed(tmp_path, data):
    path = tmp_path / "bad.state"
    path.write_bytes(data)
    with pytest.raises(MalformedMessage):
        SignerState.unlock(PASSPHRASE, str(path))


class _CannedDaemon(SignerDaemon):
    """Answers every frame with ``reply``, through the real framing."""

    reply: dict = {}

    def _handle(self, frame: dict) -> dict:
        return self.reply


@pytest.mark.parametrize(
    "reply, call",
    [
        ({"ok": False, "err": "sys"}, "ping"),
        ({"ok": False, "err": "QuietDisconnects"}, "ping"),  # a class, not an error
        ({"ok": False, "err": 7}, "ping"),
        ({"ok": True}, "ping"),
        ({"ok": True}, "retire"),
        ({"ok": True, "result": "zz"}, "sign"),
        ({"ok": True, "result": 7}, "sign"),
        ({"ok": True, "result": "zz"}, "xpub"),
        ({"ok": True, "result": "00"}, "xpub"),
    ],
)
def test_reply_that_does_not_decode_is_malformed(state, tmp_path, reply, call):
    daemon = _CannedDaemon(state, str(tmp_path / "canned.sock"))
    daemon.reply = reply
    daemon.serve_in_thread()
    client = SignerClient(daemon.socket_path, timeout=5)
    calls = {
        "ping": client.ping,
        "retire": lambda: client.retire_device(3),
        "sign": lambda: client.sign_digest(DerivationPath((0, 1)), bytes(32)),
        "xpub": lambda: client.issue_device_xpub(0),
    }
    try:
        with pytest.raises(MalformedMessage):
            calls[call]()
    finally:
        daemon.shutdown()


def test_error_reply_naming_a_vcrkit_error_raises_it(state, tmp_path):
    daemon = _CannedDaemon(state, str(tmp_path / "canned.sock"))
    daemon.reply = {"ok": False, "err": "Locked", "message": "locked"}
    daemon.serve_in_thread()
    try:
        with pytest.raises(Locked):
            SignerClient(daemon.socket_path, timeout=5).ping()
    finally:
        daemon.shutdown()
