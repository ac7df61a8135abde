"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. Every tolerance is fixed here; nothing is deferred to calibration.
"""

import base64
import functools
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import reference_hd as oracle
from vcrkit import curve, encoding, httpwire
from vcrkit.agent import Agent, AgentStore
from vcrkit.bench import run_bench
from vcrkit.encoding import WireMode, byte_size
from vcrkit.errors import (
    MissingSignature,
    RecoveryMismatch,
    ReplayDetected,
    SessionKeyMismatch,
    StaleTimestamp,
    FutureTimestamp,
    VcrkitError,
)
from vcrkit.keyhier import (
    DerivationPath,
    derive_child_priv,
    derive_child_pub,
    derive_path,
    generate_master,
    neuter,
    recover_parent_priv,
)
from vcrkit.signer import ConfirmationPolicy, SignerDaemon, SignerState
from vcrkit.vcr import (
    ActionKind,
    ReplayCache,
    VcrAction,
    VcrRequest,
    build_unified_vcr,
    build_vcr,
    sign_vcr,
    verify_vcr,
)
from vcrkit.wrapper import (
    ClientId,
    MultiSigPolicy,
    ServerKey,
    Wrapper,
    fresh_cookie_value,
    issue_wrapper,
    verify_wrapper,
)

NOW = 1_754_650_000
TOL = 300


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:>2} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:>2} {name}: PASS")

        return wrapper

    return decorate


# --- 1 ------------------------------------------------------------------------


@criterion(1, "derivation conformance")
def test_derivation_conformance():
    started = time.perf_counter()

    vectors = [
        (bytes.fromhex("000102030405060708090a0b0c0d0e0f"), []),
        (bytes.fromhex("000102030405060708090a0b0c0d0e0f"), [0, 1]),
        (
            bytes.fromhex(
                "fffcf9f6f3f0edeae7e4e1dedbd8d5d2cfccc9c6c3c0bdbab7b4b1aeaba8a5a2"
                "9f9c999693908d8a8784817e7b7875726f6c696663605d5a5754514e4b484542"
            ),
            [0],
        ),
        (
            bytes.fromhex(
                "4b381541583be4423346c643850da4b320e46a87ae3d2a4e6da11eba819cd4ac"
                "ba45d239319ac14f863b8d5ab5a0d0c64d2e8a1e7d1457df2e5a3c51c73235be"
            ),
            [7, 0, 5, 1],
        ),
    ]
    for seed, path in vectors:
        mine = derive_path(generate_master(seed), DerivationPath(tuple(path)))
        o_secret, o_chain = oracle.derive_priv(seed, path)
        expected = (
            bytes([0x10, len(path)])
            + (path[-1] if path else 0).to_bytes(4, "big")
            + o_chain
            + b"\x00"
            + o_secret.to_bytes(32, "big")
        )
        assert mine.serialize() == expected, "byte-for-byte vector mismatch"
        assert neuter(mine).public_point == oracle.public_of(o_secret)

    # 10^4 randomized commutativity cases: 100 parents x 100 indices.
    rng = random.Random(0xACCE97)
    checked = 0
    for _ in range(100):
        parent = generate_master(rng.getrandbits(256).to_bytes(32, "big"))
        parent_pub = neuter(parent)
        for _ in range(100):
            index = rng.randrange(0, 2**31)
            left = neuter(derive_child_priv(parent, index))
            right = derive_child_pub(parent_pub, index)
            assert left.serialize() == right.serialize()
            checked += 1
    assert checked == 10_000

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"


# --- 2 ------------------------------------------------------------------------


@criterion(2, "key-leakage oracle")
def test_key_leakage_oracle():
    rng = random.Random(0x1EA4)
    recovered = 0
    for _ in range(100):
        parent = generate_master(rng.getrandbits(256).to_bytes(32, "big"))
        index = rng.randrange(0, 2**31)
        child = derive_child_priv(parent, index)
        assert recover_parent_priv(neuter(parent), child.secret, index) == parent.secret
        recovered += 1
    assert recovered == 100

    rejected = 0
    for _ in range(100):
        parent = generate_master(rng.getrandbits(256).to_bytes(32, "big"))
        stranger = generate_master(rng.getrandbits(256).to_bytes(32, "big"))
        index = rng.randrange(0, 2**31)
        child_of_stranger = derive_child_priv(stranger, index)
        with pytest.raises(RecoveryMismatch):
            recover_parent_priv(neuter(parent), child_of_stranger.secret, index)
        rejected += 1
    assert rejected == 100


# --- 3 ------------------------------------------------------------------------


def _fixture_request(master, server_key, signer, j=0, now=NOW, kind=ActionKind.ACCESS):
    path = DerivationPath((0, j))
    point = derive_path(neuter(master), path).public_point
    wrapper = issue_wrapper(
        server_key, ClientId("vcid", "acceptance-fixture"), MultiSigPolicy((point,)), now
    )
    request = build_vcr([wrapper], VcrAction(kind), now)
    return sign_vcr(request, signer, path), wrapper


@criterion(3, "unforgeability suite")
def test_unforgeability(master, server_key, local_signer):
    request, wrapper = _fixture_request(master, server_key, local_signer)

    rng = random.Random(0xF063)
    rejections = 0
    for trial in range(100):
        if trial % 3 == 0:
            foreign = generate_master(rng.getrandbits(256).to_bytes(32, "big"))
            bad = replace(
                request,
                signatures=(
                    curve.sign_digest(
                        curve.private_key(derive_path(foreign, DerivationPath((0, 0))).secret),
                        request.digest(),
                    ),
                ),
            )
        elif trial % 3 == 1:
            bad = replace(
                request, signatures=(rng.getrandbits(512).to_bytes(64, "big"),)
            )
        else:
            bad = replace(request, timestamp=request.timestamp + trial + 1)
        try:
            verify_vcr(server_key.public_point, bad, NOW, ReplayCache(TOL))
        except VcrkitError:
            rejections += 1
    assert rejections == 100

    # Exhaustive single-bit sweep over one serialized wrapper.
    wrapper_blob = bytearray(wrapper.to_canonical())
    wrapper_false_accepts = 0
    for byte_index in range(len(wrapper_blob)):
        for bit in range(8):
            mutated = bytearray(wrapper_blob)
            mutated[byte_index] ^= 1 << bit
            try:
                parsed = Wrapper.from_canonical(bytes(mutated))
                verify_wrapper(server_key.public_point, parsed)
                wrapper_false_accepts += 1
            except VcrkitError:
                pass
    assert wrapper_false_accepts == 0

    # Exhaustive single-bit sweep over one serialized signed request:
    # every byte is signed material or a signature.
    request_blob = bytearray(request.to_canonical())
    request_false_accepts = 0
    for byte_index in range(len(request_blob)):
        for bit in range(8):
            mutated = bytearray(request_blob)
            mutated[byte_index] ^= 1 << bit
            try:
                parsed = VcrRequest.from_canonical(bytes(mutated))
                verify_vcr(server_key.public_point, parsed, NOW, ReplayCache(TOL))
                request_false_accepts += 1
            except VcrkitError:
                pass
    assert request_false_accepts == 0


# --- 4 ------------------------------------------------------------------------


@criterion(4, "replay suite")
def test_replay_suite(master, server_key, local_signer):
    # Duplicate within the window.
    cache = ReplayCache(TOL)
    request, _ = _fixture_request(master, server_key, local_signer)
    verify_vcr(server_key.public_point, request, NOW, cache)
    with pytest.raises(ReplayDetected):
        verify_vcr(server_key.public_point, request, NOW + 1, cache)

    # Boundary offsets: exactly tolerance accepted, one second beyond not.
    for offset, outcome in [
        (-TOL - 1, StaleTimestamp),
        (-TOL, None),
        (TOL, None),
        (TOL + 1, FutureTimestamp),
    ]:
        probe, _ = _fixture_request(
            master, server_key, local_signer, j=1, now=NOW + offset
        )
        if outcome is None:
            verify_vcr(server_key.public_point, probe, NOW, ReplayCache(TOL))
        else:
            with pytest.raises(outcome):
                verify_vcr(server_key.public_point, probe, NOW, ReplayCache(TOL))

    # Concurrent duplicate submission admits exactly one.
    shared_cache = ReplayCache(TOL)
    racing, _ = _fixture_request(master, server_key, local_signer, j=2)

    def attempt(_):
        try:
            verify_vcr(server_key.public_point, racing, NOW, shared_cache)
            return "ok"
        except ReplayDetected:
            return "replay"

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(attempt, range(16)))
    assert outcomes.count("ok") == 1 and outcomes.count("replay") == 15


# --- 5 ------------------------------------------------------------------------


@criterion(5, "roommate suite")
def test_roommate_suite(server_key):
    for n in (2, 3, 5):
        members = [generate_master(bytes([n, i + 1] * 16)) for i in range(n)]
        points = tuple(
            derive_path(neuter(m), DerivationPath((0, 0))).public_point
            for m in members
        )
        wrapper = issue_wrapper(
            server_key, ClientId("vcid", f"household-{n}"), MultiSigPolicy(points), NOW
        )
        request = build_vcr([wrapper], VcrAction(ActionKind.DELETE), NOW)
        for member in members:
            key = derive_path(member, DerivationPath((0, 0)))
            request = replace(
                request,
                signatures=request.signatures
                + (curve.sign_digest(curve.private_key(key.secret), request.digest()),),
            )
        verified = verify_vcr(
            server_key.public_point, request, NOW, ReplayCache(TOL)
        )
        assert verified.action.kind is ActionKind.DELETE

        for leave_out in range(n):
            subset = tuple(
                s for k, s in enumerate(request.signatures) if k != leave_out
            )
            with pytest.raises(MissingSignature):
                verify_vcr(
                    server_key.public_point,
                    replace(request, signatures=subset),
                    NOW,
                    ReplayCache(TOL),
                )


# --- 6 ------------------------------------------------------------------------


@criterion(6, "unified-request equivalence")
def test_unified_equivalence(master, server_key):
    device_priv = derive_child_priv(master, 0)
    scoped_priv = derive_child_priv(device_priv, 4)
    scoped_pub = neuter(scoped_priv)
    wrappers = []
    cookies = []
    for j in range(3):
        cookie = fresh_cookie_value()
        cookies.append(cookie)
        wrappers.append(
            issue_wrapper(
                server_key,
                ClientId("vcid", cookie),
                MultiSigPolicy((derive_child_pub(scoped_pub, j).public_point,)),
                NOW,
            )
        )

    unified = build_unified_vcr(
        wrappers, scoped_pub, [0, 1, 2], VcrAction(ActionKind.ACCESS), NOW
    )
    unified = replace(
        unified,
        signatures=(curve.sign_digest(curve.private_key(scoped_priv.secret), unified.digest()),),
    )
    assert len(unified.signatures) == 1
    unified_outcome = verify_vcr(
        server_key.public_point, unified, NOW, ReplayCache(TOL)
    )

    per_session = []
    for j, wrapper in enumerate(wrappers):
        session_priv = derive_child_priv(scoped_priv, j)
        plain = build_vcr([wrapper], VcrAction(ActionKind.ACCESS), NOW)
        plain = replace(
            plain,
            signatures=(curve.sign_digest(curve.private_key(session_priv.secret), plain.digest()),),
        )
        per_session.append(
            verify_vcr(server_key.public_point, plain, NOW, ReplayCache(TOL))
        )

    assert unified_outcome.client_ids == tuple(
        outcome.client_id for outcome in per_session
    )
    assert all(
        outcome.action == unified_outcome.action for outcome in per_session
    )

    # A wrapper bound to a foreign key fails with SessionKeyMismatch.
    foreign_point = derive_path(
        neuter(master), DerivationPath((0, 99))
    ).public_point
    foreign = issue_wrapper(
        server_key, ClientId("vcid", "foreign"), MultiSigPolicy((foreign_point,)), NOW
    )
    bad = replace(unified, wrappers=tuple(wrappers[:2]) + (foreign,))
    bad = replace(
        bad, signatures=(curve.sign_digest(curve.private_key(scoped_priv.secret), bad.digest()),)
    )
    with pytest.raises(SessionKeyMismatch):
        verify_vcr(server_key.public_point, bad, NOW, ReplayCache(TOL))


# --- 7 ------------------------------------------------------------------------


@criterion(7, "end-to-end loopback flows")
def test_end_to_end_loopback(tmp_path):
    started = time.perf_counter()

    from click.testing import CliRunner

    from vcrkit.cli import main as cli_main
    from vcrkit.server import VcrHttpServer, VcrServer

    env = {
        "VCRKIT_PASSPHRASE": "acceptance",
        "VCRKIT_STORE": str(tmp_path / "agent.store"),
        "VCRKIT_SIGNER_STATE": str(tmp_path / "signer.state"),
        "VCRKIT_SIGNER_SOCKET": str(tmp_path / "signer.sock"),
    }
    runner = CliRunner()

    def run(args, expect_exit=0):
        result = runner.invoke(cli_main, args, env=env, catch_exceptions=False)
        assert result.exit_code == expect_exit, result.output
        return result.output

    run(["signer-init"])
    # Every signature comes from the daemon, as `signer-unlock --policy auto`
    # serves it.
    state = SignerState.unlock(
        "acceptance", env["VCRKIT_SIGNER_STATE"], ConfirmationPolicy.AUTO_APPROVE
    )
    daemon = SignerDaemon(state, env["VCRKIT_SIGNER_SOCKET"])
    daemon.serve_in_thread()
    vcr_server = VcrServer()
    httpd = VcrHttpServer(("127.0.0.1", 0), vcr_server)
    httpd.serve_in_thread()
    origin = httpd.origin
    try:
        run(["agent-init", "--device-id", "0"])
        first = json.loads(run(["visit", origin + "/"]))
        assert first["path"] == "m/0/0"
        run(["visit", origin + "/products"])
        rows = json.loads(run(["sessions", "--as-json"]))
        sid = rows[0]["sid"]

        # access, plain
        payload = json.loads(
            run(["vcr", "access", "--session", sid])
        )
        assert payload["status"] == 200
        assert len(payload["records"][0]["visits"]) == 2

        # access with --encrypt-response and --seal (record must decrypt)
        payload = json.loads(
            run(
                [
                    "vcr",
                    "access",
                    "--session",
                    sid,
                    "--encrypt-response",
                    "--seal",
                ]
            )
        )
        assert payload["status"] == 200
        assert len(payload["records"][0]["visits"]) == 2

        # modify
        cookie = json.loads(run(["sessions", "--as-json"]))
        record_cookie = vcr_server._records and list(vcr_server._records)[0]
        vcr_server.set_attribute(record_cookie, "email", "old@example.com")
        payload = json.loads(
            run(
                [
                    "vcr",
                    "modify",
                    "--session",
                    sid,
                    "--set",
                    "email=old@example.com:new@example.com",
                ]
            )
        )
        assert payload["status"] == 200
        assert (
            vcr_server.get_record(record_cookie).attributes["email"]
            == "new@example.com"
        )

        # delete, then access finds nothing (fresh second for a fresh digest)
        payload = json.loads(
            run(["vcr", "delete", "--session", sid])
        )
        assert payload["status"] == 200
        time.sleep(1.1)
        payload = json.loads(
            run(
                ["vcr", "access", "--session", sid],
                expect_exit=1,
            )
        )
        assert payload == {"status": 404, "error": "NoData"}
    finally:
        daemon.close()
        httpd.close()

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 7 took {elapsed:.1f}s (budget 30s)"


# --- 8 ------------------------------------------------------------------------


@criterion(8, "size budgets")
def test_size_budgets(master, local_signer):
    from vcrkit.server import VcrHttpServer, VcrServer
    from vcrkit.wrapper import WrapperRequest

    vcr_server = VcrServer()
    httpd = VcrHttpServer(("127.0.0.1", 0), vcr_server)
    httpd.serve_in_thread()
    origin = httpd.origin
    try:
        page = httpwire.request("GET", origin + "/the-page")
        cookie_raw = page.set_cookies[0].split(";", 1)[0]
        name, _, value = cookie_raw.partition("=")
        client_id = ClientId(name, value)
        path = DerivationPath((0, 0))
        point = derive_path(neuter(master), path).public_point
        body = encoding.to_wire(
            WrapperRequest(client_id=client_id, vcr_pubkeys=(point,)),
            WireMode.OPTIMIZED,
        ).encode()
        wrapper_exchange = httpwire.request(
            "POST",
            origin + vcr_server.advertisement.wrapper_endpoint,
            headers={"Content-Type": "application/json", "Cookie": cookie_raw},
            body=body,
        )
        assert wrapper_exchange.status == 200
        wrapper_flow = (
            wrapper_exchange.request_bytes + wrapper_exchange.response_bytes
        )
        assert wrapper_flow <= 1400, f"wrapper flow {wrapper_flow} B > 1.4 kB"

        wrapper = encoding.from_wire(
            Wrapper, wrapper_exchange.body.decode(), WireMode.OPTIMIZED
        )
        request = sign_vcr(
            build_vcr([wrapper], VcrAction(ActionKind.ACCESS), int(time.time())),
            local_signer,
            path,
        )
        access_exchange = httpwire.request(
            "POST",
            origin + vcr_server.advertisement.vcr_endpoint,
            headers={"Content-Type": "application/json"},
            body=encoding.to_wire(request, WireMode.OPTIMIZED).encode(),
        )
        assert access_exchange.status == 200
        access_flow = access_exchange.request_bytes + access_exchange.response_bytes
        assert access_flow <= 1600, f"access flow {access_flow} B > 1.6 kB"

        # Store budgets, measured on the stored session record.
        store = AgentStore()
        store.provision_device(neuter(derive_child_priv(master, 0)), 0)
        agent = Agent(store)
        session, _ = agent.visit(origin + "/", int(time.time()))
        history_backup = list(session.history)
        session.history.clear()
        stored = store.stored(session)
        baseline_size = byte_size(stored, WireMode.OPTIMIZED)
        assert baseline_size <= 512, f"baseline store {baseline_size} B > 512 B"

        session.history.extend(
            (int(time.time()) + i, "/some/page") for i in range(100)
        )
        optimized = byte_size(stored, WireMode.OPTIMIZED)
        verbose = byte_size(stored, WireMode.VERBOSE)
        assert optimized <= 0.60 * verbose, (
            f"100-history optimized/verbose = {optimized}/{verbose}"
        )
        session.history[:] = history_backup
    finally:
        httpd.close()


# --- 9 ------------------------------------------------------------------------


@criterion(9, "latency sanity")
def test_latency_sanity():
    report = run_bench(runs=10)
    for phase, average_ms in report.latency_ms.items():
        assert average_ms < 50.0, f"{phase} averaged {average_ms:.2f} ms (cap 50)"


# --- 10 -----------------------------------------------------------------------


@criterion(10, "privacy negative checks")
def test_privacy_negative_checks(tmp_path):
    seed = bytes(range(32, 64))
    master = generate_master(seed)

    # Secrets that must never appear in exports or daemon responses.
    forbidden_raw = [seed, master.secret.to_bytes(32, "big"), master.chain_code]
    device_priv = derive_child_priv(master, 0)
    forbidden_raw.append(device_priv.secret.to_bytes(32, "big"))
    for j in range(3):
        forbidden_raw.append(derive_child_priv(device_priv, j).secret.to_bytes(32, "big"))

    def scan(blob: bytes, context: str):
        lowered = blob.lower()
        for raw in forbidden_raw:
            assert raw.hex().encode() not in lowered, context
            b64 = base64.urlsafe_b64encode(raw).rstrip(b"=").lower()
            assert b64 not in lowered, context
            assert raw not in blob, context

    # Agent export scan.
    store = AgentStore()
    store.provision_device(neuter(device_priv), 0)
    server_key = ServerKey.generate()
    for j in range(5):
        point = derive_child_pub(neuter(device_priv), j).public_point
        wrapper = issue_wrapper(
            server_key,
            ClientId("vcid", fresh_cookie_value()),
            MultiSigPolicy((point,)),
            NOW,
        )
        from vcrkit.agent import SessionRecord
        from vcrkit.server import EndpointAdvertisement

        store.add_session(
            SessionRecord(
                server_origin="http://127.0.0.1:1",
                endpoints=EndpointAdvertisement(
                    "/vcr/wrapper",
                    "/vcr/submit",
                    server_key.public_point,
                    server_key.key_id,
                ),
                client_id=wrapper.client_id,
                path=DerivationPath((0, j)),
                wrapper=wrapper,
                created_at=NOW,
            )
        )
    for mode in (WireMode.OPTIMIZED, WireMode.VERBOSE):
        scan(store.export(mode), f"agent export ({mode.value})")

    # Signer daemon response scan over a request mix.
    state = SignerState.init(
        "acceptance", seed, str(tmp_path / "signer.state"),
        policy=ConfirmationPolicy.AUTO_APPROVE,
    )
    daemon = SignerDaemon(state, str(tmp_path / "signer.sock"))
    daemon.serve_in_thread()
    try:
        import socket as socketlib

        from vcrkit.signer import read_frame, write_frame

        frames = [
            {"op": "ping"},
            {"op": "device_xpub", "device_id": 0},
            {"op": "sign", "path": "m/0/0", "digest": curve.sha256(b"x").hex()},
            {"op": "sign", "path": "m/0/1", "digest": curve.sha256(b"y").hex()},
            {"op": "sign", "path": "m", "digest": curve.sha256(b"z").hex()},
            {"op": "retire_device", "device_id": 7},
            {"op": "???"},
        ]
        for frame in frames:
            with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
                sock.connect(daemon.socket_path)
                write_frame(sock, frame)
                response = read_frame(sock)
                scan(json.dumps(response).encode(), f"daemon response to {frame}")
    finally:
        daemon.shutdown()

    # 1000 generated sessions: pairwise-distinct session public keys.
    device_pub = neuter(device_priv)
    points = {derive_child_pub(device_pub, j).public_point for j in range(1000)}
    assert len(points) == 1000
