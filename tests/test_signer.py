"""Signer state file, policies, retirement and the framed daemon."""

import json
import os
import random
import socket as socketlib
import stat
import sys
import threading
import time

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from vcrkit import curve, signer
from vcrkit.errors import (
    DeviceRetired,
    MalformedMessage,
    SignerRefused,
    StateExists,
    StateMissing,
    UnknownPath,
    WrongPassphrase,
)
from vcrkit.keyhier import (
    DerivationPath,
    derive_child_pub,
    derive_path,
    generate_master,
    neuter,
)
from vcrkit.signer import (
    KEY_CACHE_SIZE,
    ConfirmationPolicy,
    SignerClient,
    SignerDaemon,
    SignerState,
    read_frame,
    write_frame,
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


def _retired(state, device_id: int) -> bool:
    """Whether ``state`` refuses to sign for ``device_id``."""
    try:
        state.sign_digest(DerivationPath((device_id, 0)), curve.sha256(b"probe"))
    except DeviceRetired:
        return True
    return False


def test_state_file_written_earlier_still_unlocks(tmp_path):
    """Its ledger holds device 0 as "active", which older versions wrote on
    a first issuance: device 0 is served, device 1 stays retired."""
    path = tmp_path / "earlier.state"
    path.write_text(EARLIER_STATE)
    unlocked = SignerState.unlock("fixture passphrase", str(path))
    assert (_retired(unlocked, 0), _retired(unlocked, 1)) == (False, True)
    with pytest.raises(DeviceRetired):
        unlocked.issue_device_xpub(1)
    expected = neuter(derive_path(generate_master(SEED), DerivationPath((0,))))
    assert unlocked.issue_device_xpub(0).serialize() == expected.serialize()
    assert path.read_text() == EARLIER_STATE  # nothing changed, nothing saved


def test_retiring_after_an_earlier_state_keeps_its_ledger(tmp_path):
    """A retirement rewrites the ledger from what was read: the device the
    earlier file retired stays retired, and its "active" device is served."""
    path = tmp_path / "earlier.state"
    path.write_text(EARLIER_STATE)
    SignerState.unlock("fixture passphrase", str(path)).retire_device(2)
    reloaded = SignerState.unlock("fixture passphrase", str(path))
    assert [_retired(reloaded, d) for d in (0, 1, 2)] == [False, True, True]


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
    digest = curve.sha256(b"issued")
    signature = state.sign_digest(DerivationPath((3, 0)), digest)
    assert curve.verify_digest(derive_child_pub(first, 0).public_point, digest, signature)


def test_issuing_a_device_writes_nothing(state, tmp_path):
    """The ledger records retirements only: a first issuance, a repeat and
    a signature leave the state file's bytes as they were."""
    path = tmp_path / "signer.state"
    before = path.read_bytes()
    for device_id in (7, 7, 8):
        state.issue_device_xpub(device_id)
    state.sign_digest(DerivationPath((8, 0)), curve.sha256(b"x"))
    assert path.read_bytes() == before


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
    assert _retired(state, 2)


def test_retire_unknown_device_recorded(state, tmp_path):
    path = tmp_path / "signer.state"
    before = path.read_bytes()
    state.retire_device(42)
    assert path.read_bytes() != before  # saved: the ledger's one record
    reloaded = SignerState.unlock(PASSPHRASE, str(path))
    for signer_state in (state, reloaded):
        assert _retired(signer_state, 42)
        with pytest.raises(DeviceRetired):
            signer_state.issue_device_xpub(42)
    assert not _retired(reloaded, 41)


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


def test_concurrent_signing_keeps_the_cap(state, monkeypatch):
    monkeypatch.setattr(signer, "KEY_CACHE_SIZE", 8)
    digest = curve.sha256(b"x")
    paths = [DerivationPath((0, j)) for j in range(20)]
    signed, failures = [], []

    def work(offset, rounds):
        try:
            for i in range(rounds):
                path = paths[(offset + i) % len(paths)]
                signed.append((path, state.sign_digest(path, digest)))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(3 * k, 30)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert len(state._keys) == 8
    master = generate_master(SEED)
    expected = {}
    for path, signature in signed:
        if path not in expected:
            key = curve.private_key(derive_path(master, path).secret)
            expected[path] = curve.sign_digest(key, digest)
        assert signature == expected[path]


def test_second_unlock_issues_the_same_device_xpub(state, tmp_path):
    path = str(tmp_path / "signer.state")
    first = SignerState.unlock(PASSPHRASE, path).issue_device_xpub(1)
    second = SignerState.unlock(PASSPHRASE, path).issue_device_xpub(1)
    assert second.serialize() == first.serialize()
    assert first.serialize() == state.issue_device_xpub(1).serialize()


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


def test_daemon_answers_one_frame_per_connection(daemon, client):
    """A second frame on a connection gets no answer: the daemon closes the
    connection after the first answer, and serves the next connection."""
    with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
        sock.connect(daemon.socket_path)
        write_frame(sock, {"op": "ping"})
        assert read_frame(sock) == {"ok": True, "result": "pong"}
        try:
            write_frame(sock, {"op": "ping"})
            second = read_frame(sock)
        except ConnectionError:  # the daemon closed before or after the write
            second = None
        assert second is None
    assert client.ping()


def test_client_sets_no_deadline_on_its_socket(client, monkeypatch):
    deadlines = []
    original = socketlib.socket.settimeout

    def spy(sock, value):
        if threading.current_thread() is threading.main_thread():
            deadlines.append(value)
        original(sock, value)

    monkeypatch.setattr(socketlib.socket, "settimeout", spy)
    client.sign_digest(DerivationPath((0, 1)), curve.sha256(b"x"))
    assert deadlines == []


def test_prompt_answered_late_still_delivers_the_signature(
    state, client, monkeypatch
):
    """The client waits for as long as the PROMPT hook takes. Any deadline
    the client sets is cut a hundredfold, so a 10 s one would show here
    as a 0.1 s one against the hook's half second."""
    original = socketlib.socket.settimeout
    monkeypatch.setattr(
        socketlib.socket,
        "settimeout",
        lambda sock, value: original(sock, value and value / 100),
    )
    asked = []

    def hook(path, summary):
        asked.append((path, summary))
        time.sleep(0.5)
        return True

    state.policy = ConfirmationPolicy.PROMPT
    state.confirm_hook = hook
    digest = curve.sha256(b"late")
    signature = client.sign_digest(DerivationPath((0, 2)), digest, summary="pay")
    pub = derive_path(neuter(generate_master(SEED)), DerivationPath((0, 2)))
    assert curve.verify_digest(pub.public_point, digest, signature)
    assert asked == [("m/0/2", "pay")]


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
    retired = set(state._retired)
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
    assert state._retired == retired
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


def test_close_before_serving_returns_and_removes_the_socket_file(state, tmp_path):
    socket_path = tmp_path / "unserved.sock"
    daemon = SignerDaemon(state, str(socket_path))
    closer = threading.Thread(target=daemon.close, daemon=True)
    closer.start()
    closer.join(timeout=5)
    assert not closer.is_alive(), "close() waited for a loop that never ran"
    assert not socket_path.exists()


def test_close_of_a_serving_daemon_returns_promptly(state, tmp_path):
    """close() waits for the serve loop's next poll, not a fifth of a second."""
    elapsed = []
    for n in range(5):
        socket_path = tmp_path / f"serving{n}.sock"
        daemon = SignerDaemon(state, str(socket_path))
        daemon.serve_in_thread()
        started = time.perf_counter()
        daemon.close()
        elapsed.append(time.perf_counter() - started)
        assert not socket_path.exists()
    assert sum(elapsed) / len(elapsed) < 0.1, elapsed


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


_MASTER_HEX = generate_master(SEED).serialize().hex()


def _sealed_ledger(master_hex: str, devices: str) -> bytes:
    return _sealed_state(f'{{"master":"{master_hex}","devices":{devices}}}'.encode())


def test_sealed_ledger_read_as_written_unlocks(tmp_path):
    """The refusals below are of one value each: this file, with every
    value as written, unlocks."""
    path = tmp_path / "ok.state"
    path.write_bytes(_sealed_ledger(_MASTER_HEX, '{"0":"active","1":"retired"}'))
    unlocked = SignerState.unlock(PASSPHRASE, str(path))
    assert (_retired(unlocked, 0), _retired(unlocked, 1)) == (False, True)


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
        _sealed_ledger(_MASTER_HEX, '{"1":"retired","01":"active"}'),
        _sealed_ledger(_MASTER_HEX, '{"1":"retired"," 1":"active"}'),
        _sealed_ledger(_MASTER_HEX, '{"1":7}'),
        _sealed_ledger(_MASTER_HEX, '{"1":"unknown"}'),
        _sealed_ledger(_MASTER_HEX.upper(), "{}"),
        _sealed_ledger(bytes.fromhex(_MASTER_HEX).hex(" "), "{}"),
    ],
    ids=[
        "list",
        "kdf-not-object",
        "short-nonce",
        "not-utf8",
        "inner-list",
        "inner-short-master",
        "inner-huge-int",
        "device-id-leading-zero",
        "device-id-space",
        "device-status-number",
        "device-status-unknown",
        "master-uppercase-hex",
        "master-spaced-hex",
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
        ({"ok": True, "result": "00" * 63}, "sign"),  # one byte short
        ({"ok": True, "result": "00" * 65}, "sign"),
        ({"ok": True, "result": 7}, "ping"),
        ({"ok": True, "result": ["pong"]}, "ping"),
    ],
)
def test_reply_that_does_not_decode_is_malformed(state, tmp_path, reply, call):
    daemon = _CannedDaemon(state, str(tmp_path / "canned.sock"))
    daemon.reply = reply
    daemon.serve_in_thread()
    client = SignerClient(daemon.socket_path)
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
    daemon.reply = {"ok": False, "err": "DeviceRetired", "message": "retired"}
    daemon.serve_in_thread()
    try:
        with pytest.raises(DeviceRetired):
            SignerClient(daemon.socket_path).ping()
    finally:
        daemon.shutdown()


# --- mutated frames ------------------------------------------------------------

# One frame per op that the daemon answers with ok; each mutation below
# changes one thing in one of them.
VALID_FRAMES = {
    "ping": {"op": "ping"},
    "device_xpub": {"op": "device_xpub", "device_id": 0},
    "retire_device": {"op": "retire_device", "device_id": 4},
    "sign": {"op": "sign", "path": "m/0/1", "digest": "11" * 32, "summary": "pay"},
}
OPTIONAL_KEYS = {"summary"}
# Another spelling of a sign frame's value, once read as the value itself.
RESPELLED = {
    "path": {
        "padded": " m/0/1 ",
        "leading-zero": "m/00/1",
        "capital-m": "M/0/1",
        "arabic-indic-digit": "m/0/\u0661",
    },
    "digest": {"spaced": " ".join(["11"] * 32), "uppercase": "1A" * 32},
}


def _retyped(value) -> dict:
    """``value`` as each other JSON type, by type name; a string of digits
    also as the number it spells."""
    others = {
        "int": 7,
        "float": 7.5,
        "bool": True,
        "null": None,
        "list": [value],
        "object": {"v": value},
        "str": str(value),
    }
    if isinstance(value, str) and value.isdigit():
        others["number"] = int(value)
    return {name: v for name, v in others.items() if type(v) is not type(value)}


def _mutated_frames():
    for op, frame in VALID_FRAMES.items():
        for key, value in frame.items():
            if key not in OPTIONAL_KEYS:
                dropped = {k: v for k, v in frame.items() if k != key}
                yield pytest.param(dropped, id=f"{op}-without-{key}")
            for name, other in _retyped(value).items():
                yield pytest.param({**frame, key: other}, id=f"{op}-{key}-as-{name}")
    for key, spellings in RESPELLED.items():
        for name, text in spellings.items():
            yield pytest.param({**VALID_FRAMES["sign"], key: text}, id=f"sign-{key}-{name}")
    for name, body in {"list": [], "str": "ping", "int": 7, "null": None}.items():
        yield pytest.param(body, id=f"{name}-frame")


def _exchange(socket_path: str, frame) -> dict:
    with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
        sock.connect(socket_path)
        write_frame(sock, frame)
        return read_frame(sock)


@pytest.mark.parametrize("op", VALID_FRAMES)
def test_each_valid_frame_is_answered_ok(daemon, op):
    assert _exchange(daemon.socket_path, VALID_FRAMES[op])["ok"] is True


@pytest.mark.parametrize("frame", _mutated_frames())
def test_mutated_frame_gets_an_error_frame_and_the_daemon_serves_on(
    daemon, client, frame
):
    """A frame with a key dropped or a value of another JSON type is refused,
    not coerced: a number is no digest and an object no summary."""
    response = _exchange(daemon.socket_path, frame)
    assert response["ok"] is False, response
    assert "result" not in response
    assert client.ping()
