"""Client agent: provisioning, session flow, history, store portability."""

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

from builders import random_session_record
from vcrkit import curve, encoding, files, httpwire
from vcrkit.agent import Agent, AgentStore
from vcrkit.encoding import WireMode, byte_size, wire_key
from vcrkit.errors import (
    AlreadyProvisioned,
    CorruptStore,
    DeviceRetired,
    InvalidPublicKey,
    MalformedMessage,
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
from vcrkit.server import ACCESS_INFO, EndpointAdvertisement
from vcrkit.signer import ConfirmationPolicy, SignerState
from vcrkit.vcr import ActionKind, VcrAction
from vcrkit.wrapper import ClientId, ServerKey

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


def _session_with_path(text):
    raw = random_session_record(random.Random(7)).to_wire_dict(OPT)
    raw[wire_key("derivation_path", OPT)] = text
    return raw


# The last three inputs are values the store refuses rather than mistyped
# ones: a bad path, the same session twice and a session of another device.
@pytest.mark.parametrize(
    "key, value",
    [
        ("S", [1]),
        ("L", 5),
        ("X", 7),
        ("L", [_session_with_path("x/1")]),
        ("L", [_session_with_path("m/0/1")] * 2),
        ("L", [_session_with_path("m/9/1")]),
    ],
)
def test_import_of_mistyped_field_is_corrupt_store(tmp_path, key, value):
    agent, _ = _fresh_agent(tmp_path)
    data = json.loads(agent.store.export())
    data[key] = value
    with pytest.raises(CorruptStore):
        AgentStore.import_(json.dumps(data).encode())


def test_add_session_refuses_duplicate_and_foreign_paths(tmp_path):
    agent, _ = _fresh_agent(tmp_path)
    record = random_session_record(random.Random(8))
    agent.store.add_session(record)
    foreign = random_session_record(random.Random(9), device_id=9)
    for refused in (replace(record, client_id=foreign.client_id), foreign):
        with pytest.raises(MalformedMessage):
            agent.store.add_session(refused)
    assert agent.store.sessions == [record]
    assert list(agent.store.cookie_index.values()) == [record]


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


# --- store journal ---------------------------------------------------------------


def _journal_agent(tmp_path, sessions=3):
    """An agent whose snapshot holds ``sessions`` synthetic sessions with
    cookies "00000000", "00000001", ... and no journal yet."""
    agent, _ = _fresh_agent(tmp_path)
    template = random_session_record(random.Random(11))
    for j in range(sessions):
        cookie = ClientId("vcid", f"{j:08d}")
        agent.store.add_session(
            replace(template, path=DerivationPath((0, j)), client_id=cookie, history=[])
        )
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
    agent.store.next_j = 3
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
            random_session_record(random.Random(12)),
            path=DerivationPath((0, 3)),
            client_id=ClientId("vcid", f"{3:08d}"),
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


def test_a_journal_beside_the_store_is_refused(tmp_path):
    """A store whose records sit in ``<store>.journal`` (the layout before
    records followed the snapshot) would load without them: it is refused,
    naming that file."""
    agent = _journal_agent(tmp_path)
    beside = tmp_path / "agent.store.journal"
    beside.write_bytes(b"records")
    with pytest.raises(CorruptStore, match="agent.store.journal"):
        _reload(agent)


def test_a_visit_appends_the_same_bytes_at_any_store_size(tmp_path, monkeypatch):
    """ROADMAP item 2: history_update stays flat. Bytes, not time."""

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


_HEADER_CHANGES = st.sampled_from(["next_j", "counter", "server_id", "pin", "retire"])


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
                        random_session_record(rng),
                        path=DerivationPath((0, j)),
                        client_id=ClientId("vcid", f"{j:08d}"),
                    )
                )
            elif kind == "visit":
                agent.store.record_visit([("vcid", f"{step[1]:08d}")], f"http://h/v{step[1]}", step[1])
            elif kind == "header":
                _, field, value = step
                store = agent.store
                if field == "next_j":
                    store.next_j = value
                elif field == "counter":
                    store.server_counters[value] = len(steps)
                elif field == "server_id":
                    store.server_id_for(f"http://s{value}")
                elif field == "pin":
                    store.pinned_server_keys[f"http://s{value}"] = template.endpoints.server_pubkey
                else:
                    store.retired = True
            elif kind == "save":
                agent.save()
            else:
                agent.save()
                agent = Agent.load(agent.store_path)
        agent.save()
        assert Agent.load(agent.store_path).store.export() == agent.store.export()
