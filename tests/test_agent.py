"""Client agent: provisioning, session flow, history, store portability."""

import ast
import gc
import json
import os
import random
import stat
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import random_session_record, version_1_layout, with_client_id
from vcrkit import curve, encoding, files, httpwire
from vcrkit.agent import Agent, AgentStore, StoredSession, StoreHeader
from vcrkit.encoding import WireMode, byte_size, wire_key
from vcrkit.errors import (
    AlreadyProvisioned,
    CorruptStore,
    DeviceRetired,
    HardenedIndexRejected,
    InvalidPublicKey,
    MalformedMessage,
    MalformedPath,
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
from vcrkit.sealing import hybrid_encrypt
from vcrkit import server as server_module
from vcrkit.server import ACCESS_INFO, EndpointAdvertisement, VcrHttpServer, VcrServer
from vcrkit.signer import ConfirmationPolicy, SignerState
from vcrkit.vcr import ActionKind, SealedVcr, VcrAction, unseal_vcr
from vcrkit.wrapper import ClientId, ServerKey, WrapperRequest

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


@pytest.mark.parametrize("device_id", [-1, 2**31, True, "0"])
def test_provision_refuses_an_id_that_is_not_a_path_segment(device_id):
    """The device id is the first segment of every session path: one
    outside [0, 2^31) would make each later session start fail."""
    master = generate_master(SEED)
    store = AgentStore()
    with pytest.raises((MalformedPath, HardenedIndexRejected)):
        store.provision_device(neuter(derive_path(master, DerivationPath((0,)))), device_id)
    with pytest.raises(NotProvisioned):
        store.require_provisioned()


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
                encoding.BIN.encode[OPT](attacker_point)
            ]
            body = json.dumps(payload, separators=(",", ":")).encode()
        return httpwire.request(method, url, headers=headers, body=body)

    agent, _ = _fresh_agent(tmp_path, http=mitm)
    with pytest.raises(PublicKeyMismatch):
        agent.visit(origin + "/", _now())
    assert agent.store.sessions == []
    assert agent.store.next_j == 1  # the substituted request spent its index


def _offered_key(body: bytes) -> str:
    (key,) = json.loads(body)[wire_key("vcr_pubkeys", OPT)]
    return key


def test_no_key_is_offered_twice_over_network_failures(loopback, tmp_path):
    """Every attempt spends its index, failed or not: a key a server may
    have seen is never offered again."""
    _, _, origin = loopback
    fail_next = {"flag": False}
    offered = []

    def flaky(method, url, headers=None, body=b"", timeout=10.0):
        if method == "POST":
            offered.append(_offered_key(body))
            if fail_next["flag"]:
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
    assert len(offered) == len(set(offered)) == 6
    assert agent.store.next_j == 6
    assert [p for p in outcomes if p] == ["m/0/0", "m/0/2", "m/0/4"]
    assert [str(s.path) for s in agent.store.sessions] == ["m/0/0", "m/0/2", "m/0/4"]


def test_cookie_bound_first_by_a_stranger_adds_no_session(loopback, tmp_path):
    """A stranger who binds the agent's fresh cookie first wins; the agent's
    refusal names the server's error class, adds no session and keeps its
    index spent."""
    _, _, origin = loopback
    stranger = derive_path(neuter(generate_master(SEED)), DerivationPath((9, 0)))

    def raced(method, url, headers=None, body=b"", timeout=10.0):
        if method == "POST":  # the stranger's key in the agent's request, first
            request = encoding.from_wire(WrapperRequest, body, OPT)
            stolen = replace(request, vcr_pubkeys=(stranger.public_point,))
            body_of_stranger = encoding.to_wire(stolen, OPT).encode()
            exchange = httpwire.request(method, url, headers=headers, body=body_of_stranger)
            assert exchange.status == 200
        return httpwire.request(method, url, headers=headers, body=body)

    agent, _ = _fresh_agent(tmp_path, http=raced)
    with pytest.raises(NetworkError, match="409 CookieAlreadyBound"):
        agent.visit(origin + "/", _now())
    assert agent.store.sessions == [] and agent.store.next_j == 1
    assert Agent.load(agent.store_path).store.next_j == 1


@pytest.mark.parametrize("reload", [False, True], ids=["same-agent", "after-load"])
def test_key_whose_wrapper_reply_was_lost_is_not_offered_to_another_server(
    loopback, tmp_path, reload
):
    """Server A receives the wrapper request, but its reply is lost. A first
    visit to server B must offer another key: offering the same one would
    let A and B link the two sessions."""
    _, _, origin_a = loopback
    offered = []

    def lossy(method, url, headers=None, body=b"", timeout=10.0):
        exchange = httpwire.request(method, url, headers=headers, body=body)
        if method == "POST":
            offered.append(_offered_key(body))
            if url.startswith(origin_a):
                raise NetworkError("reply lost")
        return exchange

    server_b = VcrHttpServer(("127.0.0.1", 0), VcrServer())
    server_b.serve_in_thread()
    try:
        agent, _ = _fresh_agent(tmp_path, http=lossy)
        agent.save()
        with pytest.raises(NetworkError):
            agent.visit(origin_a + "/", _now())
        if reload:
            agent = Agent.load(agent.store_path, http=lossy)
        session, _ = agent.visit(server_b.origin + "/", _now())
    finally:
        server_b.close()
    assert len(offered) == 2 and offered[0] != offered[1]
    assert str(session.path) == "m/0/1"


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
    optimized = len(agent.store.export(WireMode.OPTIMIZED))
    verbose = len(agent.store.export(WireMode.VERBOSE))
    assert optimized <= 0.60 * verbose


def test_baseline_session_within_budget(loopback, tmp_path):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    session, _ = agent.visit(origin + "/", _now())
    session.history.clear()
    assert byte_size(agent.store.stored(session), WireMode.OPTIMIZED) <= 512


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
            cid = record.client_id
            hit = store.find_by_cookie(
                record.server_origin, cid.cookie_name, cid.cookie_value
            )
            linear = next(
                s
                for s in store.sessions
                if (s.server_origin, s.client_id) == (record.server_origin, cid)
            )
            assert hit is linear
            elsewhere = ("http://elsewhere", cid.cookie_name, cid.cookie_value)
            assert store.find_by_cookie(*elsewhere) is None
        unknown = (record.server_origin, "vcid", "no-such-cookie-anywhere")
        assert store.find_by_cookie(*unknown) is None


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
        assert clone.sessions == agent.store.sessions
        assert clone.cookie_index == agent.store.cookie_index


@pytest.mark.parametrize("saved_before", [False, True], ids=["first-save", "appending-save"])
def test_a_save_writes_no_store_its_load_refuses(tmp_path, saved_before):
    """A session added at an index ``claim_path`` has not spent makes a save
    raise before it writes anything, whether it would write the whole store
    or append; the session stays pending, and is saved once the counter
    has passed its index."""
    agent, _ = _fresh_agent(tmp_path)
    if saved_before:
        agent.save()
    store_file = Path(agent.store_path)

    def contents():
        return store_file.read_bytes() if store_file.exists() else None

    before = contents()
    session = replace(random_session_record(random.Random(24)), path=DerivationPath((0, 5)))
    agent.store.add_session(session)
    with pytest.raises(MalformedMessage, match="m/0/5 holds an index not yet spent"):
        agent.save()
    assert contents() == before
    agent.store.next_j = 6
    agent.save()
    assert [s.path for s in Agent.load(agent.store_path).store.sessions] == [session.path]


def test_a_store_carries_no_retirement_flag(tmp_path):
    """Retirement is the signer's: neither an export nor a journal header
    record holds a retired flag."""
    agent, _ = _fresh_agent(tmp_path)
    agent.store.add_session(random_session_record(random.Random(14)))
    for mode in (WireMode.OPTIMIZED, WireMode.VERBOSE):
        assert {"Z", "retired"}.isdisjoint(json.loads(agent.store.export(mode)))
    header_now = agent.store.encoded_header()
    (header, session) = map(json.loads, agent.store.unsaved_changes(header_now))
    assert "I" in header and "Z" not in header and "L" in session


@pytest.mark.parametrize("flag", [False, True])
def test_a_store_with_a_retired_flag_loads_and_its_sessions_work(
    loopback, tmp_path, master, local_signer, flag
):
    """Stores once carried a retired flag, "Z", in the snapshot and in each
    header record. One with either value loads, ignoring it, and its
    sessions browse and sign."""
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path, master=master)
    agent.visit(origin + "/first", _now())
    agent.store.next_j += 1
    snapshot = json.loads(agent.store.export())
    header_now = agent.store.encoded_header()
    (header,) = map(json.loads, agent.store.unsaved_changes(header_now))
    snapshot["Z"] = header["Z"] = flag
    path = agent.store_path
    assert files.compact(path, json.dumps(snapshot).encode()).append(
        [json.dumps(header).encode()]
    )

    loaded = Agent.load(path)
    assert loaded.store.next_j == agent.store.next_j
    session, _ = loaded.visit(origin + "/second", _now())
    assert session.client_id == agent.store.sessions[0].client_id
    outcome = loaded.submit_request(
        [session], VcrAction(ActionKind.ACCESS), local_signer, _now()
    )
    assert outcome.status == 200
    assert [p for _, p in outcome.records[0].visits] == ["/first", "/second"]


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


def test_key_pinned_on_a_visit_that_starts_no_session_is_saved(tmp_path):
    server_key = ServerKey.generate()
    advertisement = EndpointAdvertisement(
        "/vcr/wrapper", "/vcr/submit", server_key.public_point, server_key.key_id
    )
    advertised = {k.lower(): v for k, v in advertisement.to_headers().items()}

    def stub(method, url, headers=None, body=b"", timeout=10.0):
        return httpwire.HttpExchange(200, advertised, [], b"", 0, 0, 0, 0)

    agent, _ = _fresh_agent(tmp_path, http=stub)
    session, _ = agent.visit("http://127.0.0.1:9/", _now())
    assert session is None  # no cookie set, no session for the origin
    reloaded = Agent.load(str(tmp_path / "agent.store"))
    assert reloaded.store.pinned_server_keys == {
        "http://127.0.0.1:9": server_key.public_point
    }


def test_a_cookie_the_client_id_refuses_starts_no_session(tmp_path):
    """An over-long Set-Cookie value is not a session cookie: the visit
    starts no session, asks for no wrapper, and keeps the pin."""
    server_key = ServerKey.generate()
    advertisement = EndpointAdvertisement(
        "/vcr/wrapper", "/vcr/submit", server_key.public_point, server_key.key_id
    )
    advertised = {k.lower(): v for k, v in advertisement.to_headers().items()}
    calls = []

    def stub(method, url, headers=None, body=b"", timeout=10.0):
        calls.append(method)
        cookies = ["vcid=" + "a" * 300 + "; Path=/"]
        return httpwire.HttpExchange(200, advertised, cookies, b"", 0, 0, 0, 0)

    agent, _ = _fresh_agent(tmp_path, http=stub)
    session, _ = agent.visit("http://127.0.0.1:9/", _now())
    assert session is None and calls == ["GET"]
    reloaded = Agent.load(str(tmp_path / "agent.store"))
    assert reloaded.store.sessions == []
    assert reloaded.store.pinned_server_keys == {
        "http://127.0.0.1:9": server_key.public_point
    }


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


_SERVED = random_session_record(random.Random(7))
# A server table of one entry, the origin and advertisement of _SERVED.
_TABLE = [[_SERVED.server_origin, _SERVED.endpoints.to_wire_dict(OPT)]]


def _session_with_path(text, server=0):
    """_SERVED as a store file holds it, naming table entry ``server``,
    with ``text`` as its path."""
    stored = StoredSession(
        server, _SERVED.path, _SERVED.wrapper, _SERVED.created_at, _SERVED.history
    )
    raw = stored.to_wire_dict(OPT)
    raw[wire_key("derivation_path", OPT)] = text
    return raw


def test_a_stored_session_of_the_table_imports(tmp_path):
    """The control for the refusals below: one session as the store writes
    it, in a store whose server table names its server, loads."""
    agent, _ = _fresh_agent(tmp_path)
    data = json.loads(agent.store.export())
    data["G"], data["J"], data["L"] = _TABLE, 2, [_session_with_path("m/0/1")]
    (session,) = AgentStore.import_(json.dumps(data).encode()).sessions
    assert session == replace(_SERVED, path=DerivationPath((0, 1)))


_DROPPED = object()  # the key is left out


# Inputs four to eight are values the store refuses rather than mistyped
# ones: a bad path, the same session twice, a session of another device, two
# sessions for one cookie and a session naming a server table entry that does
# not exist. The next three are scalars of another JSON type, refused and
# not coerced: "0" is not device 0, nor true version 1. Then come four
# paths not as written (each once read as m/0/1 or m/0/3), store versions
# this code does not read, a negative table index, a table holding one
# pair twice, and a snapshot without its version or without its header.
@pytest.mark.parametrize(
    "key, value",
    [
        ("S", [1]),
        ("L", 5),
        ("X", 7),
        ("L", [_session_with_path("x/1")]),
        ("L", [_session_with_path("m/0/1")] * 2),
        ("L", [_session_with_path("m/9/1")]),
        ("L", [_session_with_path("m/0/1"), _session_with_path("m/0/2")]),
        ("L", [_session_with_path("m/0/1", server=1)]),
        ("I", "0"),
        ("V", True),
        ("J", "1"),
        ("L", [_session_with_path(" m/0/1 ")]),
        ("L", [_session_with_path("m/00/1")]),
        ("L", [_session_with_path("M/0/1")]),
        ("L", [_session_with_path("m/0/\u0663")]),
        ("V", 1),
        ("V", 3),
        ("L", [_session_with_path("m/0/1", server=-1)]),
        ("G", _TABLE * 2),
        ("V", _DROPPED),
        ("I", _DROPPED),
    ],
)
def test_import_of_mistyped_field_is_corrupt_store(tmp_path, key, value):
    """At import and at load alike."""
    agent, _ = _fresh_agent(tmp_path)
    data = json.loads(agent.store.export())
    data["G"], data["J"] = _TABLE, 4
    data[key] = value
    if value is _DROPPED:
        del data[key]
    with pytest.raises(CorruptStore):
        AgentStore.import_(json.dumps(data).encode())
    files.compact(agent.store_path, json.dumps(data).encode())
    with pytest.raises(CorruptStore):
        Agent.load(agent.store_path)


@pytest.mark.parametrize(
    "counters",
    [{"1": 5, "01": 7, " 1 ": 9}, {"01": 7}, {" 1": 5}, {"+1": 5}, {"1_0": 5}],
    ids=["three-spellings", "leading-zero", "space", "plus", "underscore"],
)
def test_import_of_an_integer_key_not_as_written_is_corrupt_store(tmp_path, counters):
    """Two spellings of one server id would become one key, and all but
    the last value would be dropped without an error."""
    agent, _ = _fresh_agent(tmp_path)
    data = json.loads(agent.store.export())
    data["S"] = {"10": 2}
    assert AgentStore.import_(json.dumps(data).encode()).server_counters == {10: 2}
    data["S"] = counters
    with pytest.raises(CorruptStore):
        AgentStore.import_(json.dumps(data).encode())


def test_add_session_refuses_duplicate_and_foreign_paths(tmp_path):
    """Also a second session for a cookie, and one whose cookie is not the
    one its wrapper binds. A refusal takes neither path nor cookie."""
    agent, _ = _fresh_agent(tmp_path)
    record = random_session_record(random.Random(8))
    agent.store.add_session(record)
    foreign = random_session_record(random.Random(9), device_id=9)
    free = DerivationPath((0, record.path.segments[1] + 1))
    refusals = (
        with_client_id(record, foreign.client_id),
        foreign,
        replace(record, path=free),
        replace(record, path=free, client_id=foreign.client_id),
    )
    for refused in refusals:
        with pytest.raises(MalformedMessage):
            agent.store.add_session(refused)
    assert agent.store.sessions == [record]
    assert list(agent.store.cookie_index.values()) == [record]
    agent.store.add_session(with_client_id(replace(record, path=free), foreign.client_id))


def test_first_visit_saves_once(loopback, tmp_path, monkeypatch):
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    saves = []
    save = Agent.save

    def counting_save(self):
        saves.append(self)
        save(self)

    monkeypatch.setattr(Agent, "save", counting_save)
    agent.visit(origin + "/", _now(), fresh=True)
    assert len(saves) == 1


def test_overlapping_visits_never_save_an_older_store(loopback, tmp_path, monkeypatch):
    """Visit A is parked inside its journal append while visit B runs; the
    store must end up with both visits, not with A's older state."""
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    agent.visit(origin + "/", _now())
    parked, release = threading.Event(), threading.Event()
    append = files.Journal.append

    def parking_append(journal, records):
        if not parked.is_set():
            parked.set()
            release.wait(10)
        return append(journal, records)

    monkeypatch.setattr(files.Journal, "append", parking_append)
    visit_a = threading.Thread(target=agent.visit, args=(origin + "/a", _now()))
    visit_a.start()
    assert parked.wait(10)
    visit_b = threading.Thread(target=agent.visit, args=(origin + "/b", _now()))
    visit_b.start()
    visit_b.join(0.5)  # B has finished, or is waiting for A's save
    release.set()
    visit_a.join(10)
    visit_b.join(10)
    assert not visit_a.is_alive() and not visit_b.is_alive()
    reloaded = Agent.load(str(tmp_path / "agent.store"))
    assert [p for _, p in reloaded.store.sessions[0].history] == ["/", "/a", "/b"]


def test_undecodable_access_payload_is_malformed(loopback, tmp_path):
    """An encrypted ACCESS body that opens but is not UTF-8 raises
    MalformedMessage, the decode error of every JSON from outside."""
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    session, _ = agent.visit(origin + "/", _now())
    secret = curve.generate_secret()
    action = VcrAction(ActionKind.ACCESS, response_pubkey=curve.pubkey_bytes(secret))
    box = hybrid_encrypt(action.response_pubkey, b'{"D":"\xff"}', ACCESS_INFO)
    answer = encoding.to_wire(box, OPT).encode()

    def stub(method, url, headers=None, body=b"", timeout=10.0):
        return httpwire.HttpExchange(200, {}, [], answer, 0, 0, 0, 0)

    agent.http = stub
    signer = SimpleNamespace(sign_digest=lambda path, digest: bytes(64))
    with pytest.raises(MalformedMessage):
        agent.submit_request(
            [session], action, signer, _now(), response_secret=secret
        )


# --- origins and the server table ------------------------------------------------


@pytest.fixture()
def second_server():
    """Another live reference server on 127.0.0.1; yields its origin."""
    httpd = VcrHttpServer(("127.0.0.1", 0), VcrServer())
    httpd.serve_in_thread()
    yield httpd.origin
    httpd.close()


def test_a_cookie_value_repeated_by_another_origin_starts_its_own_session(
    loopback, second_server, tmp_path, monkeypatch
):
    """Server B's Set-Cookie repeats the value of the session held with A.
    The visit to B starts a session with B, and neither history takes the
    other's pages, in memory or after a load."""
    _, _, origin_a = loopback
    origin_b = second_server
    monkeypatch.setattr(server_module, "fresh_cookie_value", lambda: "one-value-for-both")
    agent, _ = _fresh_agent(tmp_path)
    at_a, _ = agent.visit(origin_a + "/a-page", _now())
    at_b, _ = agent.visit(origin_b + "/b-page", _now())
    agent.visit(origin_a + "/a-again", _now())
    assert at_a.client_id == at_b.client_id
    for store in (agent.store, Agent.load(agent.store_path).store):
        assert [s.server_origin for s in store.sessions] == [origin_a, origin_b]
        assert [[p for _, p in s.history] for s in store.sessions] == [
            ["/a-page", "/a-again"],
            ["/b-page"],
        ]


def test_latest_for_origin_agrees_with_a_linear_scan(tmp_path):
    """Sessions of three origins, admitted interleaved: the lookup names the
    session a reverse scan finds, after add_session, after a load of the
    snapshot and after a replay of journal records."""
    agent, _ = _fresh_agent(tmp_path)
    rng = random.Random(21)
    origins = ["http://a.example", "http://b.example", "http://c.example"]

    def check(store):
        for origin in [*origins, "http://none.example"]:
            linear = next(
                (s for s in reversed(store.sessions) if s.server_origin == origin), None
            )
            assert store.latest_for_origin(origin) is linear

    for j in range(12):
        record = with_client_id(random_session_record(rng), ClientId("vcid", f"{j:08d}"))
        origin = rng.choice(origins)
        path = agent.store.claim_path(origin, unified=False)
        record = replace(record, server_origin=origin, path=path)
        agent.store.add_session(record)
        check(agent.store)
        if j == 7:
            agent.save()  # the snapshot holds the first eight
            snapshot = Path(agent.store_path).read_bytes()
    check(AgentStore.import_(agent.store.export()))
    agent.save()
    assert Path(agent.store_path).read_bytes().startswith(snapshot + b"\n")
    check(Agent.load(agent.store_path).store)


def test_sessions_naming_one_server_share_its_advertisement(loopback, tmp_path):
    """A loaded store decodes each server table entry once."""
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    for _ in range(3):
        agent.visit(origin + "/", _now(), fresh=True)
    loaded = Agent.load(agent.store_path).store
    assert len(loaded.servers) == 1
    assert all(s.endpoints is loaded.servers[0][1] for s in loaded.sessions)
    assert json.loads(loaded.export())["G"] == [
        [origin, loaded.servers[0][1].to_wire_dict(OPT)]
    ]


def test_a_version_1_store_is_refused_at_load_and_at_import(loopback, tmp_path):
    """Neither is read as this layout or at first use: each is CorruptStore
    naming its version."""
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    agent.visit(origin + "/", _now())
    old = version_1_layout(agent.store.export())
    with pytest.raises(CorruptStore, match="store version 1 is not 2"):
        AgentStore.import_(old)
    verbose = json.loads(agent.store.export(WireMode.VERBOSE))
    verbose["version"] = 1
    with pytest.raises(CorruptStore, match="store version 1 is not 2"):
        AgentStore.import_(json.dumps(verbose).encode())
    files.compact(agent.store_path, old)
    with pytest.raises(CorruptStore, match="store version 1 is not 2"):
        Agent.load(agent.store_path)


@pytest.mark.parametrize("enabled", [True, False])
def test_a_load_leaves_garbage_collection_as_it_found_it(tmp_path, enabled):
    """A load pauses cyclic collection while it decodes, and restores the
    setting it found, also when the store is refused."""
    agent, _ = _fresh_agent(tmp_path)
    agent.save()
    try:
        gc.enable() if enabled else gc.disable()
        Agent.load(agent.store_path)
        assert gc.isenabled() is enabled
        Path(agent.store_path).write_bytes(b"not a store")
        with pytest.raises(CorruptStore):
            Agent.load(agent.store_path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def _leaves(value):
    """Every scalar in a parsed JSON value, at any depth."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_two_servers_share_no_value_but_protocol_constants(master, local_signer, tmp_path):
    """One agent browses two servers and makes requests at each: plain,
    fresh and unified visits, then plain, unified and sealed ACCESS. Of
    every header and JSON leaf each server receives, a sealed body's inner
    request included, the only values both see are the cookie name, the
    integers 0 and 1, the shared time and the JSON media type."""
    now = 1754650000
    servers = {}
    for _ in range(2):
        logic = VcrServer(clock=lambda: now)
        httpd = VcrHttpServer(("127.0.0.1", 0), logic)
        httpd.serve_in_thread()
        servers[httpd.origin] = (logic, httpd)
    seen = {origin: set() for origin in servers}

    def spy(method, url, headers=None, body=b"", timeout=10.0):
        origin = next(o for o in servers if url.startswith(o + "/"))
        values = []
        for name, value in (headers or {}).items():
            values += value.split("=", 1) if name == "Cookie" else [value]
        if body:
            payload = json.loads(body)
            values += _leaves(payload)
            if "E" in payload:
                logic = servers[origin][0]
                sealed = SealedVcr.from_wire_dict(payload, OPT)
                inner = unseal_vcr(logic.server_key.private_key, sealed)
                values += _leaves(inner.to_wire_dict(OPT))
        seen[origin].update((type(v).__name__, v) for v in values)
        return httpwire.request(method, url, headers=headers, body=body, timeout=timeout)

    agent, _ = _fresh_agent(tmp_path, master=master, http=spy)
    access = VcrAction(ActionKind.ACCESS)
    try:
        for origin in servers:
            plain, _ = agent.visit(origin + "/", now)
            fresh, _ = agent.visit(origin + "/", now, fresh=True)
            unified, _ = agent.visit(origin + "/", now, unified=True, fresh=True)
            outcomes = [
                agent.submit_request([plain], access, local_signer, now),
                agent.submit_request([unified], access, local_signer, now, unified=True),
                agent.submit_request([fresh], access, local_signer, now, seal=True),
            ]
            assert [o.status for o in outcomes] == [200, 200, 200]
    finally:
        for _, httpd in servers.values():
            httpd.close()
    first, second = seen.values()
    assert len(first) > 20 and len(second) > 20  # keys, cookies, signatures
    assert first & second == {
        ("str", "vcid"),
        ("int", 0),
        ("int", 1),
        ("int", now),
        ("str", "application/json"),
    }


# --- store journal ---------------------------------------------------------------


def _journal_agent(tmp_path, sessions=3):
    """An agent whose snapshot holds ``sessions`` synthetic sessions with
    cookies "00000000", "00000001", ... and no journal yet."""
    agent, _ = _fresh_agent(tmp_path)
    template = replace(random_session_record(random.Random(11)), server_origin="http://h")
    for j in range(sessions):
        cookie = ClientId("vcid", f"{j:08d}")
        path = agent.store.claim_path("http://h", unified=False)
        agent.store.add_session(replace(with_client_id(template, cookie), path=path, history=[]))
    agent.save()
    return agent


def _visit_and_save(agent, j, page, now=1754650000):
    assert agent.store.record_visit([("vcid", f"{j:08d}")], "http://h" + page, now) == 1
    agent.save()


def _store(agent) -> Path:
    return Path(agent.store_path)


def _records(agent) -> bytes:
    """The store file's bytes after its snapshot line, newline included."""
    _, newline, records = _store(agent).read_bytes().partition(b"\n")
    return newline + records


def _pages(agent, j=0) -> list[str]:
    return [p for _, p in agent.store.sessions[j].history]


def _reload(agent) -> Agent:
    return Agent.load(agent.store_path)


def test_torn_last_journal_record_gives_the_store_before_it(tmp_path):
    agent = _journal_agent(tmp_path)
    _visit_and_save(agent, 0, "/a")
    agent.store.next_j += 1
    _visit_and_save(agent, 1, "/b")
    before = agent.store.export()
    start = _store(agent).stat().st_size
    _visit_and_save(agent, 2, "/c")
    whole = _store(agent).read_bytes()
    assert _reload(agent).store.export() == agent.store.export() != before

    for cut in range(start, len(whole)):
        torn = whole[:cut]
        _store(agent).write_bytes(torn)
        assert _reload(agent).store.export() == before, cut
        assert _store(agent).read_bytes() == torn  # a load writes nothing
    for offset in range(start, len(whole)):
        flipped = bytearray(whole)
        flipped[offset] ^= 0x40
        _store(agent).write_bytes(bytes(flipped))
        assert _reload(agent).store.export() == before, offset


def test_save_after_a_torn_tail_keeps_the_next_visit(tmp_path):
    agent = _journal_agent(tmp_path)
    _visit_and_save(agent, 0, "/a")
    _visit_and_save(agent, 0, "/b")
    _store(agent).write_bytes(_store(agent).read_bytes()[:-3])
    reloaded = _reload(agent)
    _visit_and_save(reloaded, 0, "/c")
    again = _reload(reloaded)
    assert _pages(again) == ["/a", "/c"]
    assert again.store.export() == reloaded.store.export()


def _save_until_compaction(agent, page="/p"):
    """Visit and save until a save writes a new snapshot; returns how many
    visits that took."""
    for n in range(1, 1000):
        _visit_and_save(agent, 0, f"{page}{n}")
        if not _records(agent):
            return n
    raise AssertionError("the journal never compacted")


def test_journal_stays_below_its_snapshot_and_compaction_removes_it(tmp_path):
    agent = _journal_agent(tmp_path)
    _visit_and_save(agent, 0, "/first")
    snapshot = _store(agent).read_bytes().partition(b"\n")[0]
    largest = 0
    for n in range(1, 1000):
        _visit_and_save(agent, 0, f"/p{n}")
        if not _records(agent):
            break
        assert _store(agent).read_bytes().startswith(snapshot + b"\n")
        largest = max(largest, len(_records(agent)))
    assert 0 < largest <= len(snapshot)
    assert _store(agent).read_bytes() == agent.store.export()
    assert _reload(agent).store.export() == agent.store.export()


def test_crash_inside_compaction_keeps_the_store_before_it(tmp_path, monkeypatch):
    """The rename that would replace snapshot and records fails: the file
    keeps the old snapshot and records, each page once, and the next save
    compacts."""
    agent = _journal_agent(tmp_path)
    _visit_and_save(agent, 0, "/first")

    def crash(src, dst):
        raise OSError("injected: crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="injected"):
        _save_until_compaction(agent)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["agent.store"]
    reloaded = _reload(agent)
    assert _pages(reloaded) == _pages(agent)[:-1]
    assert len(set(_pages(reloaded))) == len(_pages(reloaded))
    agent.save()
    assert not _records(agent)
    assert _pages(_reload(agent)) == _pages(agent)


def test_flipped_byte_in_a_middle_journal_record_is_corrupt(tmp_path):
    agent = _journal_agent(tmp_path)
    _visit_and_save(agent, 0, "/a")
    start = _store(agent).stat().st_size
    _visit_and_save(agent, 1, "/b")
    end = _store(agent).stat().st_size
    _visit_and_save(agent, 2, "/c")
    whole = _store(agent).read_bytes()
    # The CRC field and the record bytes; a length pointing past the end of
    # the file reads as a torn tail, as in any length-prefixed log.
    for offset in [*range(start, start + 4), *range(start + 8, end)]:
        flipped = bytearray(whole)
        flipped[offset] ^= 0x01
        _store(agent).write_bytes(bytes(flipped))
        with pytest.raises(CorruptStore):
            _reload(agent)


def test_failed_append_then_save_keeps_each_visit_once(tmp_path, monkeypatch):
    agent = _journal_agent(tmp_path)
    _visit_and_save(agent, 0, "/a")
    fsync = os.fsync

    def failing_fsync(fd):
        raise OSError("injected: disk gone")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="injected"):
        _visit_and_save(agent, 0, "/b")
    monkeypatch.setattr(os, "fsync", fsync)
    # The failed append's bytes reached the file: a crash now keeps "/b".
    assert _pages(_reload(agent)) == ["/a", "/b"]
    _visit_and_save(agent, 0, "/c")
    assert not _records(agent)  # the save after a failure compacts
    reloaded = _reload(agent)
    assert _pages(reloaded) == ["/a", "/b", "/c"]
    assert reloaded.store.export() == agent.store.export()


def test_store_file_stays_private_after_appends(tmp_path):
    agent = _journal_agent(tmp_path)
    _visit_and_save(agent, 0, "/a")
    _visit_and_save(agent, 0, "/b")
    assert _records(agent)
    assert stat.S_IMODE(_store(agent).stat().st_mode) == 0o600


def test_a_store_is_one_file(tmp_path, monkeypatch):
    """Visits, a new session, a compaction and a failed append leave
    nothing beside the store file."""
    agent = _journal_agent(tmp_path)
    _visit_and_save(agent, 0, "/a")
    agent.store.add_session(
        replace(
            with_client_id(random_session_record(random.Random(12)), ClientId("vcid", f"{3:08d}")),
            server_origin="http://h",
            path=agent.store.claim_path("http://h", unified=False),
            history=[],
        )
    )
    _visit_and_save(agent, 3, "/new")
    _save_until_compaction(agent)
    _visit_and_save(agent, 1, "/b")

    def failing_fsync(fd):
        raise OSError("injected: disk gone")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="injected"):
            _visit_and_save(agent, 2, "/c")
    assert os.listdir(tmp_path) == ["agent.store"]
    assert _reload(agent).store.export() == agent.store.export()


def test_a_copy_of_the_store_file_alone_loads_every_visit(tmp_path):
    (tmp_path / "a").mkdir()
    agent = _journal_agent(tmp_path / "a")
    for j, page in enumerate(["/x", "/y", "/z"]):
        _visit_and_save(agent, j, page)
    assert _records(agent)
    (tmp_path / "b").mkdir()
    copy = tmp_path / "b" / "copy.store"
    copy.write_bytes(_store(agent).read_bytes())
    loaded = Agent.load(str(copy))
    assert [_pages(loaded, j) for j in range(3)] == [["/x"], ["/y"], ["/z"]]
    assert loaded.store.export() == agent.store.export()


def test_a_stray_file_named_like_a_journal_beside_the_store_is_ignored(tmp_path):
    """Only version 1 stores kept records in ``<store>.journal``, and those
    are refused by their version: a version 2 store beside such a file
    loads, and the file is left as it was."""
    agent = _journal_agent(tmp_path)
    _visit_and_save(agent, 0, "/a")
    beside = tmp_path / "agent.store.journal"
    beside.write_bytes(b"records")
    loaded = _reload(agent)
    assert loaded.store.export() == agent.store.export()
    assert beside.read_bytes() == b"records"


def test_a_visit_appends_the_same_bytes_at_any_store_size(tmp_path, monkeypatch):
    """A visit's save appends one record of the same size, under 100 bytes,
    to a store of 100 or 5,000 sessions, and rewrites nothing. Bytes, not
    time."""

    def refuse(*args):
        raise AssertionError("a visit's save rewrote the store")

    appended = []
    for sessions in (100, 5000):
        (tmp_path / str(sessions)).mkdir()
        agent = _journal_agent(tmp_path / str(sessions), sessions)
        _visit_and_save(agent, 0, "/first")
        before = _store(agent).stat().st_size
        with monkeypatch.context() as patch:
            patch.setattr(AgentStore, "export", refuse)
            patch.setattr(files, "write_private", refuse)
            _visit_and_save(agent, 0, "/page")
        appended.append(_store(agent).stat().st_size - before)
    assert appended[0] == appended[1] < 100


_HEADER_CHANGES = st.sampled_from(["next_j", "counter", "server_id", "pin", "unpin"])


@settings(max_examples=40, derandomize=True, deadline=None)
@example([("session",), ("visit", 1), ("save",)])  # visited before its first save
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("session")),
            st.tuples(st.just("visit"), st.integers(0, 12)),
            st.tuples(st.just("header"), _HEADER_CHANGES, st.integers(0, 3)),
            st.tuples(st.just("save")),
            st.tuples(st.just("reload")),
        ),
        max_size=40,
    )
)
def test_any_interleaving_reloads_to_the_same_store(steps):
    rng = random.Random(5)
    template = replace(random_session_record(rng), history=[])
    with tempfile.TemporaryDirectory() as directory:
        agent = _journal_agent(Path(directory), sessions=1)
        for step in steps:
            kind = step[0]
            if kind == "session":
                j = len(agent.store.sessions)
                agent.store.add_session(
                    replace(
                        with_client_id(random_session_record(rng), ClientId("vcid", f"{j:08d}")),
                        server_origin="http://h",  # one origin, an advertisement each
                        path=agent.store.claim_path("http://h", unified=False),
                    )
                )
            elif kind == "visit":
                agent.store.record_visit([("vcid", f"{step[1]:08d}")], f"http://h/v{step[1]}", step[1])
            elif kind == "header":
                _, field, value = step
                store = agent.store
                if field == "next_j":
                    store.next_j += value  # a counter never goes back
                elif field == "counter":
                    store.server_counters[value] = len(steps)
                elif field == "server_id":
                    store.server_id_for(f"http://s{value}")
                elif field == "pin":
                    store.pinned_server_keys[f"http://s{value}"] = template.endpoints.server_pubkey
                else:
                    store.pinned_server_keys.pop(f"http://s{value}", None)
            elif kind == "save":
                agent.save()
            else:
                agent.save()
                agent = Agent.load(agent.store_path)
        agent.save()
        assert Agent.load(agent.store_path).store.export() == agent.store.export()



# A store file in the key order stores were written in before the snapshot
# became a record (L before Q): its snapshot, then the header, session and
# visit records of a visit that started a session.
_PARENT_ORDER_FILE = (
    (
        b'{"V":2,"I":0,"X":"EQEAAAAArM-3saOOTjdMgMZJmL5VZJ5BEkc0qxY8dLNRHsYQOB0DS05DjatMXjCgEq'
        b'_MKPfnXGe-lxF7Q9rry6BfyT5f5PM","J":1,"S":{"0":1},"Y":{"http://shop.example":0},"G":['
        b'["http://shop.example",{"W":"/vcr/wrapper","R":"/vcr/submit","K":"AwHVJsEkUS3VHwg1J6'
        b'TOBVGsrM6Kv4ThwSUduj7PdZGr","d":"KqTK8ZUOsVs"}]],"L":[{"F":0,"q":"m/0/0","x":{"V":1,'
        b'"y":{"n":"vcid","c":"c0"},"v":["Aq5HIfBaJvWc-rronNiY_lFARbAAotbIkXVxg983nx3s"],"i":1'
        b'754650000,"d":"KqTK8ZUOsVs","g":"DaAoC-UdsOKqxNHsabhd4JXvpSZL3_AbOu9bZx1kca8NDbOXJPI'
        b'uBnTLK6O1qLSMhfRz2cbOjWKmxdlcINSskw"},"b":1754650000,"H":[[1754650000,"/"]]},{"F":0,'
        b'"q":"m/0/0/0","x":{"V":1,"y":{"n":"vcid","c":"c1"},"v":["AiJtzKl4KIIEmJOFIfo_hoelrpE'
        b'Ll5UqP4Spwqwk5yZo"],"i":1754650010,"d":"KqTK8ZUOsVs","g":"dFbZBEkPsh_RtDrQ4bRuz0soyc'
        b'gr3wKWDU3HMiTdkJQzKzQGFGOkMAbSt4rUI06C94jZ0pdYpwr55KUh_gOCpQ"},"b":1754650010,"H":[['
        b'1754650010,"/"]]}],"Q":{"http://shop.example":"AwHVJsEkUS3VHwg1J6TOBVGsrM6Kv4ThwSUdu'
        b'j7PdZGr"}}'
    ),
    (
        b'{"I":0,"X":"EQEAAAAArM-3saOOTjdMgMZJmL5VZJ5BEkc0qxY8dLNRHsYQOB0DS05DjatMXjCgEq_MKPfn'
        b'XGe-lxF7Q9rry6BfyT5f5PM","J":2,"S":{"0":1},"Y":{"http://shop.example":0},"G":[["http'
        b'://shop.example",{"W":"/vcr/wrapper","R":"/vcr/submit","K":"AwHVJsEkUS3VHwg1J6TOBVGs'
        b'rM6Kv4ThwSUduj7PdZGr","d":"KqTK8ZUOsVs"}]],"Q":{"http://shop.example":"AwHVJsEkUS3VH'
        b'wg1J6TOBVGsrM6Kv4ThwSUduj7PdZGr"}}'
    ),
    (
        b'{"L":[{"F":0,"q":"m/0/1","x":{"V":1,"y":{"n":"vcid","c":"c2"},"v":["AiBazWrsqdKF7Aqp'
        b'e17_8110BwpcwljlchP2twhu27dS"],"i":1754650020,"d":"KqTK8ZUOsVs","g":"gLvPiGp1S69Wf16'
        b'meNy3NxF1j1DuI3vtFrIy56rDgTA_v2Jua0tts2p637l4aru5BwY3dqVEsdAm3NumewrFHQ"},"b":175465'
        b'0020,"H":[]}]}'
    ),
    b'{"A":[0,"vcid","c2",1754650020,"/"]}',
)


def test_a_store_file_in_the_earlier_key_order_loads(tmp_path):
    """Key order is not read: the file above loads to the store the reader
    before this layout loaded from it, written back with Q before L."""
    snapshot, *records = _PARENT_ORDER_FILE
    path = str(tmp_path / "agent.store")
    assert files.compact(path, snapshot).append(records)
    data = json.loads(Agent.load(path).store.export())
    snapshot, header, session, visit = map(json.loads, _PARENT_ORDER_FILE)
    visited = {**session["L"][0], "H": [visit["A"][3:]]}
    assert data == {**snapshot, **header, "L": [*snapshot["L"], visited]}
    assert list(data) == ["V", "I", "X", "J", "S", "Y", "G", "Q", "L"]


def test_a_load_applies_the_snapshot_and_each_record_through_one_rule(tmp_path, monkeypatch):
    agent = _journal_agent(tmp_path)
    for j, page in enumerate(["/x", "/y", "/z"]):
        _visit_and_save(agent, j, page)
    _, records, _ = files.Journal.read(agent.store_path)
    apply, applied = AgentStore._apply, []

    def spy(store, change):
        applied.append(change.version)
        apply(store, change)

    monkeypatch.setattr(AgentStore, "_apply", spy)
    _reload(agent)
    assert len(records) == 3
    assert applied == [2] + [None] * len(records)


@pytest.mark.parametrize(
    "lower",
    [
        lambda data: data.update(J=0),
        lambda data: data.update(S={"0": 0}),
        lambda data: data["Y"].update({"http://other.example": 0}),
    ],
    ids=["J-to-a-held-index", "unified-counter", "two-origins-on-one-id"],
)
def test_a_snapshot_that_would_offer_a_held_key_again_is_corrupt(loopback, tmp_path, lower):
    """m/0/0 and m/0/0/0 are held. A lowered counter would hand out a held
    index again, and two origins on one server id would share one unified
    key: refused at import and at load."""
    _, _, origin = loopback
    agent, _ = _fresh_agent(tmp_path)
    agent.visit(origin + "/", _now())
    agent.visit(origin + "/", _now(), fresh=True, unified=True)
    data = json.loads(agent.store.export())
    assert (data["J"], data["S"], data["Y"]) == (1, {"0": 1}, {origin: 0})
    lower(data)
    blob = json.dumps(data).encode()
    with pytest.raises(CorruptStore):
        AgentStore.import_(blob)
    files.compact(agent.store_path, blob)
    with pytest.raises(CorruptStore):
        Agent.load(agent.store_path)


def test_an_appending_save_encodes_the_header_once(tmp_path, monkeypatch):
    """The header encoded to find whether it changed is the one kept as
    saved."""
    agent = _journal_agent(tmp_path)
    encode, encodes = StoreHeader._wire_out[OPT], []

    def counting(store):
        encodes.append(store)
        return encode(store)

    monkeypatch.setitem(StoreHeader._wire_out, OPT, counting)
    _visit_and_save(agent, 0, "/a")
    assert _records(agent) and len(encodes) == 1


def test_only_claim_path_advances_a_session_counter():
    """A session index is spent in one rule, ``AgentStore.claim_path``;
    nothing else assigns to a counter, so nothing can hand an index back."""
    import vcrkit

    def counter(target) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(map(counter, target.elts))
        if isinstance(target, (ast.Starred, ast.Subscript)):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr in (
            "next_j",
            "server_counters",
        )

    def writes(node, scope: str):
        """The scope of each assignment to a counter below ``node``."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from writes(child, f"{scope}.{child.name}")
                continue
            targets = getattr(child, "targets", [getattr(child, "target", None)])
            if any(map(counter, targets)):
                yield f"{scope}:{child.lineno}"
            yield from writes(child, scope)

    found = []
    for path in sorted(Path(vcrkit.__file__).parent.glob("*.py")):
        found += writes(ast.parse(path.read_text(), str(path)), path.stem)
    allowed = {f"agent.AgentStore.{f}" for f in ("__init__", "provision_device", "claim_path")}
    assert [w for w in found if w.split(":")[0] not in allowed] == []
    assert any(w.startswith("agent.AgentStore.claim_path:") for w in found)


def test_only_the_signer_decides_retirement():
    """A device is retired in one place, the signer's ledger, and refused
    where signatures are made: no module but signer.py raises
    ``DeviceRetired`` or reads a ``retired`` attribute."""
    import vcrkit

    def decides(node) -> bool:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return getattr(exc, "id", getattr(exc, "attr", None)) == "DeviceRetired"
        return isinstance(node, ast.Attribute) and node.attr == "retired"

    found = []
    for path in sorted(Path(vcrkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree) if decides(node)]
    assert [f for f in found if not f.startswith("signer:")] == []
    assert any(f.startswith("signer:") for f in found)
