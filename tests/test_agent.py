"""Client agent: provisioning, session flow, history, store portability."""

import json
import random
import time

import pytest

from builders import random_session_record
from vcrkit import curve, encoding, httpwire
from vcrkit.agent import Agent, AgentStore
from vcrkit.encoding import WireMode, byte_size, wire_key
from vcrkit.errors import (
    AlreadyProvisioned,
    CorruptStore,
    DeviceRetired,
    InvalidPublicKey,
    NetworkError,
    NotProvisioned,
    PinnedKeyMismatch,
    PublicKeyMismatch,
)
from vcrkit.keyhier import (
    DerivationPath,
    derive_child_pub,
    derive_path,
    generate_master,
    neuter,
)
from vcrkit.server import EndpointAdvertisement
from vcrkit.signer import ConfirmationPolicy, SignerState
from vcrkit.vcr import ActionKind, VcrAction

OPT = WireMode.OPTIMIZED
SEED = bytes(range(32))


def _now():
    return int(time.time())


def _fresh_agent(tmp_path, master=None, device_id=0, http=None):
    master = master or generate_master(SEED)
    device_xpub = neuter(derive_path(master, DerivationPath((device_id,))))
    store = AgentStore()
    store.provision_device(device_xpub, device_id)
    return Agent(store, store_path=str(tmp_path / "agent.store"), http=http), master


def test_provision_initializes_counter(tmp_path):
    agent, _ = _fresh_agent(tmp_path)
    assert agent.store.next_j == 0
    assert agent.store.sessions == []


def test_double_provision_rejected(tmp_path):
    agent, master = _fresh_agent(tmp_path)
    with pytest.raises(AlreadyProvisioned):
        agent.store.provision_device(
            neuter(derive_path(master, DerivationPath((1,)))), 1
        )


def test_unprovisioned_store_refuses_work():
    store = AgentStore()
    with pytest.raises(NotProvisioned):
        store.require_provisioned()


def test_agent_derivations_match_signer(tmp_path):
    """Agent-side public derivation equals signer-side private derivation
    for the same paths."""
    signer = SignerState.init(
        "pw", SEED, str(tmp_path / "signer.state"), ConfirmationPolicy.AUTO_APPROVE
    )
    device_xpub = signer.issue_device_xpub(0)
    master = generate_master(SEED)
    rng = random.Random(50)
    for _ in range(50):
        j = rng.randrange(0, 2**31)
        agent_side = derive_child_pub(device_xpub, j).public_point
        signer_side = derive_path(master, DerivationPath((0, j))).public_point
        assert agent_side == signer_side


def test_begin_session_via_loopback(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    for expected_j in range(3):
        session, _ = agent.visit(origin + "/", _now(), fresh=True)
        assert str(session.path) == f"m/0/{expected_j}"
    wrappers = {s.wrapper.signature for s in agent.store.sessions}
    assert len(wrappers) == 3
    assert agent.store.next_j == 3


def test_visit_unsupported_server(tmp_path, loopback):
    _, _, origin = loopback

    def http_without_headers(method, url, headers=None, body=b"", timeout=10.0):
        exchange = httpwire.request(method, url, headers=headers, body=body)
        exchange.headers = {
            k: v for k, v in exchange.headers.items() if not k.startswith("vcr-")
        }
        return exchange

    agent, _ = _fresh_agent(tmp_path, http=http_without_headers)
    session, exchange = agent.visit(origin + "/", _now())
    assert session is None
    assert exchange.status == 200
    assert agent.store.sessions == []


def test_mitm_key_substitution_detected(loopback, tmp_path):
    """A middlebox swaps the client key in the wrapper request; the server
    honestly signs the attacker key, so only the echo check can catch it."""
    _, _, origin = loopback
    attacker_point = derive_child_pub(
        neuter(generate_master(b"attacker-seed-0123456789abcdef--")), 0
    ).public_point

    def mitm(method, url, headers=None, body=b"", timeout=10.0):
        if method == "POST" and "/vcr/wrapper" in url:
            payload = json.loads(body)
            payload[wire_key("vcr_pubkeys", OPT)] = [
                encoding.bin_to_wire(attacker_point, OPT)
            ]
            body = json.dumps(payload, separators=(",", ":")).encode()
        return httpwire.request(method, url, headers=headers, body=body)

    agent, _ = _fresh_agent(tmp_path, http=mitm)
    with pytest.raises(PublicKeyMismatch):
        agent.visit(origin + "/", _now())
    assert agent.store.sessions == []
    assert agent.store.next_j == 0


def test_counter_rollback_on_network_failure(loopback, tmp_path):
    _, _, origin = loopback
    fail_next = {"flag": False}

    def flaky(method, url, headers=None, body=b"", timeout=10.0):
        if method == "POST" and fail_next["flag"]:
            fail_next["flag"] = False
            raise NetworkError("injected outage")
        return httpwire.request(method, url, headers=headers, body=body)

    agent, _ = _fresh_agent(tmp_path, http=flaky)
    outcomes = []
    for attempt in range(6):
        fail_next["flag"] = attempt % 2 == 1
        try:
            session, _ = agent.visit(origin + "/", _now(), fresh=True)
            outcomes.append(str(session.path))
        except NetworkError:
            outcomes.append(None)
    paths = [p for p in outcomes if p]
    # Counter advances once per success, never on failure, no reuse.
    assert paths == [f"m/0/{j}" for j in range(len(paths))]
    assert agent.store.next_j == len(paths)
    stored = [str(s.path) for s in agent.store.sessions]
    assert len(set(stored)) == len(stored)


def test_record_visit_known_and_unknown_cookies(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    session, _ = agent.visit(origin + "/first", _now())
    assert [p for _, p in session.history] == ["/first"]

    cid = session.client_id
    updated = agent.store.record_visit(
        [(cid.cookie_name, cid.cookie_value)], origin + "/second?q=1", _now()
    )
    assert updated == 1
    assert [p for _, p in session.history] == ["/first", "/second"]

    untouched = agent.store.record_visit(
        [("vcid", "unknown-cookie-value")], origin + "/third", _now()
    )
    assert untouched == 0
    assert len(session.history) == 2


def test_hundred_visits_and_store_size_ratio(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    session, _ = agent.visit(origin + "/", _now())
    cid = session.client_id
    for i in range(99):
        agent.store.record_visit(
            [(cid.cookie_name, cid.cookie_value)], origin + f"/p{i}", _now()
        )
    assert len(session.history) == 100
    optimized = byte_size(agent.store, WireMode.OPTIMIZED)
    verbose = byte_size(agent.store, WireMode.VERBOSE)
    assert optimized <= 0.60 * verbose


def test_baseline_session_within_budget(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    session, _ = agent.visit(origin + "/", _now())
    session.history.clear()
    assert byte_size(session, WireMode.OPTIMIZED) <= 512


def test_cookie_index_agrees_with_linear_scan():
    rng = random.Random(1000)
    device_xpub = neuter(derive_path(generate_master(SEED), DerivationPath((0,))))
    for _ in range(1000):
        store = AgentStore()
        store.provision_device(device_xpub, 0)
        seen_paths = set()
        for _ in range(rng.randint(1, 6)):
            record = random_session_record(rng)
            if str(record.path) in seen_paths:
                continue
            seen_paths.add(str(record.path))
            store.add_session(record)
        for record in store.sessions:
            hit = store.find_by_cookie(
                record.client_id.cookie_name, record.client_id.cookie_value
            )
            linear = next(
                s for s in store.sessions if s.client_id == record.client_id
            )
            assert hit is linear
        assert store.find_by_cookie("vcid", "no-such-cookie-anywhere") is None


def test_export_import_roundtrip(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    agent.visit(origin + "/", _now())
    agent.visit(origin + "/", _now(), fresh=True, unified=True)

    for mode in (WireMode.OPTIMIZED, WireMode.VERBOSE):
        blob = agent.store.export(mode)
        clone = AgentStore.import_(blob)
        assert clone.device_id == agent.store.device_id
        assert clone.next_j == agent.store.next_j
        assert clone.server_counters == agent.store.server_counters
        assert clone.server_ids == agent.store.server_ids
        assert clone.pinned_server_keys == agent.store.pinned_server_keys
        assert clone.retired == agent.store.retired
        assert [s.to_wire_dict(mode) for s in clone.sessions] == [
            s.to_wire_dict(mode) for s in agent.store.sessions
        ]
        assert clone.cookie_index == agent.store.cookie_index


def test_export_contains_no_private_material(loopback, tmp_path):
    _, _, origin = loopback
    master = generate_master(SEED)
    agent, _ = _fresh_agent(tmp_path, master=master)
    agent.visit(origin + "/", _now())
    forbidden = {f"{master.secret:064x}", master.chain_code.hex(), SEED.hex()}
    device_priv = derive_path(master, DerivationPath((0,)))
    forbidden.add(f"{device_priv.secret:064x}")
    session_priv = derive_path(master, DerivationPath((0, 0)))
    forbidden.add(f"{session_priv.secret:064x}")
    import base64

    for mode in (WireMode.OPTIMIZED, WireMode.VERBOSE):
        blob = agent.store.export(mode)
        lowered = blob.decode().lower()
        for secret_hex in forbidden:
            assert secret_hex not in lowered
            raw = bytes.fromhex(secret_hex)
            b64 = base64.urlsafe_b64encode(raw).rstrip(b"=").decode().lower()
            assert b64 not in lowered


def test_import_rejects_garbage():
    with pytest.raises(CorruptStore):
        AgentStore.import_(b"not a store")
    with pytest.raises(CorruptStore):
        AgentStore.import_(b'{"V":1}')


def test_import_on_second_device_issues_accepted_requests(
    loopback, tmp_path, master, local_signer
):
    """Wrappers exported from one agent work from another: requests do not
    need to originate on the device that browsed."""
    vcr_server, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path, master=master)
    session, _ = agent.visit(origin + "/roaming", _now())

    clone_store = AgentStore.import_(agent.store.export())
    second = Agent(clone_store, store_path=str(tmp_path / "second.store"))
    twin = second.store.sessions[0]
    outcome = second.submit_request(
        [twin], VcrAction(ActionKind.ACCESS), local_signer, _now()
    )
    assert outcome.status == 200
    assert [p for _, p in outcome.records[0].visits] == ["/roaming"]


def test_unlink_device(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    agent.visit(origin + "/", _now())
    agent.store.unlink_device()
    with pytest.raises(DeviceRetired):
        agent.visit(origin + "/", _now(), fresh=True)
    # Existing sessions remain exportable after retirement.
    blob = agent.store.export()
    assert AgentStore.import_(blob).retired is True


def test_signer_side_retirement_blocks_signing(loopback, tmp_path):
    vcr_server, _, origin = loopback
    signer = SignerState.init(
        "pw", SEED, str(tmp_path / "signer.state"), ConfirmationPolicy.AUTO_APPROVE
    )
    device_xpub = signer.issue_device_xpub(0)
    store = AgentStore()
    store.provision_device(device_xpub, 0)
    agent = Agent(store, store_path=str(tmp_path / "agent.store"))
    session, _ = agent.visit(origin + "/", _now())
    signer.retire_device(0)
    with pytest.raises(DeviceRetired):
        agent.submit_request([session], VcrAction(ActionKind.ACCESS), signer, _now())


def test_pinning_rejects_changed_server_key(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    agent.visit(origin + "/", _now())
    # Same origin suddenly advertises a different key.
    agent.store.pinned_server_keys[origin] = curve.pubkey_bytes(
        curve.generate_secret()
    )
    with pytest.raises(PinnedKeyMismatch):
        agent.visit(origin + "/", _now(), fresh=True)


def test_invalid_advertised_key_is_not_pinned(tmp_path):
    advertisement = EndpointAdvertisement(
        "/vcr/wrapper", "/vcr/submit", b"\x02" + b"\xff" * 32, b"\x00" * 8
    )
    advertised = {k.lower(): v for k, v in advertisement.to_headers().items()}

    def stub(method, url, headers=None, body=b"", timeout=10.0):
        return httpwire.HttpExchange(200, advertised, [], b"", 0, 0, 0, 0)

    agent, _ = _fresh_agent(tmp_path, http=stub)
    with pytest.raises(InvalidPublicKey):
        agent.visit("http://127.0.0.1:9/", _now())
    # Pinning a bad key would lock the honest one out of this origin.
    assert agent.store.pinned_server_keys == {}


def test_store_file_roundtrip(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    agent.visit(origin + "/persisted", _now())
    reloaded = Agent.load(str(tmp_path / "agent.store"))
    assert len(reloaded.store.sessions) == 1
    assert [p for _, p in reloaded.store.sessions[0].history] == ["/persisted"]


def test_concurrent_session_starts_serialize(loopback, tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)

    def start(_):
        session, _ = agent.visit(origin + "/", _now(), fresh=True)
        return str(session.path)

    with ThreadPoolExecutor(max_workers=4) as pool:
        paths = sorted(pool.map(start, range(4)))
    assert paths == [f"m/0/{j}" for j in range(4)]
    assert agent.store.next_j == 4


def test_unified_sessions_use_server_scoped_paths(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    for expected_j in range(3):
        session, _ = agent.visit(origin + "/", _now(), unified=True, fresh=True)
        assert str(session.path) == f"m/0/0/{expected_j}"
    assert agent.store.server_counters == {0: 3}
    assert agent.store.next_j == 0  # plain counter untouched


def _session_with_path(text):
    raw = random_session_record(random.Random(7)).to_wire_dict(OPT)
    raw[wire_key("derivation_path", OPT)] = text
    return raw


# The last input is a value a message refuses rather than a mistyped one.
@pytest.mark.parametrize(
    "key, value",
    [("S", [1]), ("L", 5), ("X", 7), ("L", [_session_with_path("x/1")])],
)
def test_import_of_mistyped_field_is_corrupt_store(tmp_path, key, value):
    agent, _ = _fresh_agent(tmp_path)
    data = json.loads(agent.store.export())
    data[key] = value
    with pytest.raises(CorruptStore):
        AgentStore.import_(json.dumps(data).encode())
