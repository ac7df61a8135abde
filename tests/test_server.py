"""Reference server: cookie flow, endpoints, fulfillment, budgets."""

import json
import socket
import struct
import threading
import time
from dataclasses import replace
from urllib.parse import urlsplit

import pytest

from vcrkit import curve, encoding, httpwire, server, vcr
from vcrkit.encoding import WireMode, wire_key
from vcrkit.errors import (
    BadWrapper,
    DecryptFailed,
    DegenerateKey,
    InvalidPublicKey,
    MalformedMessage,
    QuietDisconnects,
)
from vcrkit.keyhier import DerivationPath, derive_child_pub, derive_path, neuter
from vcrkit.sealing import HybridCiphertext, hybrid_decrypt
from vcrkit.server import (
    ACCESS_INFO,
    COOKIE_NAME,
    VCR_ENDPOINT,
    WRAPPER_ENDPOINT,
    AccessResponse,
    ClientDataRecord,
    EndpointAdvertisement,
    VcrHttpServer,
    VcrServer,
    encrypt_access_response,
)
from vcrkit.vcr import (
    ActionKind,
    ReplayCache,
    UnifiedProof,
    VcrAction,
    VerifiedMemo,
    build_unified_vcr,
    build_vcr,
    seal_vcr,
    sign_vcr,
    verify_vcr,
)
from vcrkit.wrapper import (
    WRAPPER_VERSION,
    ClientId,
    MultiSigPolicy,
    ServerKey,
    Wrapper,
    WrapperRequest,
    issue_wrapper,
)

OPT = WireMode.OPTIMIZED


def _get(origin, path, cookie=None):
    headers = {"Cookie": cookie} if cookie else {}
    return httpwire.request("GET", origin + path, headers=headers)


def _post_json(origin, path, payload_text, cookie=None):
    headers = {"Content-Type": "application/json"}
    if cookie:
        headers["Cookie"] = cookie
    return httpwire.request(
        "POST", origin + path, headers=headers, body=payload_text.encode()
    )


def _cookie_of(exchange):
    raw = exchange.set_cookies[0].split(";", 1)[0]
    name, _, value = raw.partition("=")
    return ClientId(name, value)


def _request_wrapper(origin, vcr_server, client_id, points):
    body = encoding.to_wire(
        WrapperRequest(client_id=client_id, vcr_pubkeys=tuple(points)), OPT
    )
    return _post_json(
        origin,
        vcr_server.advertisement.wrapper_endpoint,
        body,
        cookie=f"{client_id.cookie_name}={client_id.cookie_value}",
    )


def _obtain_wrapper(origin, vcr_server, client_id, points):
    exchange = _request_wrapper(origin, vcr_server, client_id, points)
    assert exchange.status == 200, exchange.body
    return encoding.from_wire(Wrapper, exchange.body.decode(), OPT), exchange


def _signed_request(vcr_server, wrapper, action, signer, path, now=None):
    request = build_vcr([wrapper], action, now or int(time.time()))
    return sign_vcr(request, signer, path)


def _submit(origin, vcr_server, request_or_sealed):
    return _post_json(
        origin,
        vcr_server.advertisement.vcr_endpoint,
        encoding.to_wire(request_or_sealed, OPT),
    )


def test_first_visit_sets_cookie_and_advertises(loopback):
    vcr_server, _, origin = loopback
    exchange = _get(origin, "/")
    assert exchange.status == 200
    assert exchange.set_cookies, "first visit must set a cookie"
    advertisement = EndpointAdvertisement.from_headers(exchange.headers)
    assert advertisement is not None
    assert advertisement.wrapper_endpoint.startswith("/")
    assert advertisement.server_pubkey == vcr_server.server_key.public_point
    client_id = _cookie_of(exchange)
    record = vcr_server.get_record(client_id.cookie_value)
    assert record is not None and len(record.visits) == 1


def test_advertisement_headers_golden():
    advertisement = EndpointAdvertisement(
        "/vcr/wrapper",
        "/vcr/submit",
        bytes.fromhex("02" + "11" * 32),
        bytes.fromhex("0123456789abcdef"),
    )
    headers = advertisement.to_headers()
    assert list(headers.items()) == [
        ("Vcr-Wrapper-Endpoint", "/vcr/wrapper"),
        ("Vcr-Submit-Endpoint", "/vcr/submit"),
        ("Vcr-Server-Key", "02" + "11" * 32),
        ("Vcr-Server-Key-Id", "0123456789abcdef"),
    ]
    captured = {name.lower(): value for name, value in headers.items()}
    assert EndpointAdvertisement.from_headers(captured) == advertisement


def test_returning_visit_reuses_cookie(loopback):
    vcr_server, _, origin = loopback
    first = _get(origin, "/")
    client_id = _cookie_of(first)
    second = _get(
        origin, "/page", cookie=f"{client_id.cookie_name}={client_id.cookie_value}"
    )
    assert second.status == 200
    assert not second.set_cookies
    record = vcr_server.get_record(client_id.cookie_value)
    assert [path for _, path in record.visits] == ["/", "/page"]


def test_hundred_clients_get_disjoint_records(loopback):
    vcr_server, _, origin = loopback
    values = set()
    for _ in range(100):
        exchange = _get(origin, "/landing")
        values.add(_cookie_of(exchange).cookie_value)
    assert len(values) == 100
    for value in values:
        assert len(vcr_server.get_record(value).visits) == 1


def test_malformed_cookie_treated_as_new_client(loopback):
    vcr_server, _, origin = loopback
    exchange = _get(origin, "/", cookie="vcid=")
    assert exchange.set_cookies
    exchange = _get(origin, "/", cookie="garbage-without-equals")
    assert exchange.set_cookies


def test_wrapper_endpoint_roundtrip(loopback, master_pub):
    vcr_server, _, origin = loopback
    page = _get(origin, "/")
    client_id = _cookie_of(page)
    visits_before = len(vcr_server.get_record(client_id.cookie_value).visits)
    records_before = vcr_server.record_count()
    point = derive_path(master_pub, DerivationPath((0, 0))).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])
    from vcrkit.wrapper import check_wrapper_echo, verify_wrapper

    verify_wrapper(
        vcr_server.server_key.public_point,
        wrapper,
        expected_key_id=vcr_server.server_key.key_id,
    )
    check_wrapper_echo(MultiSigPolicy((point,)), client_id, wrapper)
    # Issuance touches nothing in the data store.
    assert vcr_server.record_count() == records_before
    assert len(vcr_server.get_record(client_id.cookie_value).visits) == visits_before


# Bodies that are not one JSON object: bad JSON, other JSON values, bytes
# that are not UTF-8 (UTF-16 included), an integer past Python's conversion
# limit and nesting past its recursion limit.
GARBAGE_BODIES = {
    "bad-json": b"{not json",
    "number": b"5",
    "array": b"[]",
    "string": b'"x"',
    "not-utf8": b'{"a":"\xff"}',
    "utf16": '{"a":1}'.encode("utf-16"),
    "long-int": b'{"a":' + b"1" * 5000 + b"}",
    "deep": b"[" * 100_000,
}


def _assert_garbage_refused(vcr_server, origin, path, body):
    """The body answers 400 MalformedBody, no record changes, and a new
    connection still gets served."""
    before = vcr_server.record_count()
    exchange = httpwire.request("POST", origin + path, body=body)
    assert exchange.status == 400
    assert json.loads(exchange.body)["error"] == "MalformedBody"
    assert vcr_server.record_count() == before
    assert _get(origin, "/").status == 200


@pytest.mark.parametrize("body", GARBAGE_BODIES.values(), ids=GARBAGE_BODIES.keys())
def test_wrapper_endpoint_rejects_garbage(loopback, body):
    vcr_server, _, origin = loopback
    path = vcr_server.advertisement.wrapper_endpoint
    _assert_garbage_refused(vcr_server, origin, path, body)


@pytest.mark.parametrize("body", GARBAGE_BODIES.values(), ids=GARBAGE_BODIES.keys())
def test_submit_endpoint_rejects_garbage(loopback, body):
    vcr_server, _, origin = loopback
    path = vcr_server.advertisement.vcr_endpoint
    _assert_garbage_refused(vcr_server, origin, path, body)


@pytest.mark.parametrize("number", [b"1e400", b"Infinity", b"-Infinity"])
def test_submit_of_an_infinite_timestamp_is_malformed(loopback, number):
    """An infinite JSON number where an integer belongs is a decode error
    like any other, not an escape from the handler."""
    vcr_server, _, origin = loopback
    body = b'{"V":1,"w":[],"a":{"k":1},"t":' + number + b',"s":[]}'
    path = vcr_server.advertisement.vcr_endpoint
    _assert_garbage_refused(vcr_server, origin, path, body)


def test_wrapper_request_with_a_list_for_a_cookie_name_is_malformed_body(loopback):
    """A JSON value of another type is refused, not coerced: a list is not
    turned into the cookie name "['vcid']" and issued a wrapper."""
    vcr_server, _, origin = loopback
    point = vcr_server.server_key.public_point
    payload = WrapperRequest(ClientId("vcid", "abc"), (point,)).to_wire_dict(OPT)
    payload[wire_key("client_id", OPT)][wire_key("cookie_name", OPT)] = ["vcid"]
    path = vcr_server.advertisement.wrapper_endpoint
    exchange = _post_json(origin, path, json.dumps(payload))
    assert exchange.status == 400
    assert json.loads(exchange.body) == {"error": "MalformedBody"}


def test_wrapper_endpoint_rejects_bad_point(loopback):
    vcr_server, _, origin = loopback
    payload = {
        wire_key("client_id", OPT): ClientId("vcid", "abc").to_wire_dict(OPT),
        wire_key("vcr_pubkeys", OPT): [encoding.BIN.encode[OPT](b"\x02" + b"\xff" * 32)],
    }
    exchange = _post_json(
        origin, vcr_server.advertisement.wrapper_endpoint, json.dumps(payload)
    )
    assert exchange.status == 400
    assert json.loads(exchange.body)["error"] == "InvalidPublicKey"


def test_wrapper_issuance_without_a_clock_is_refused(master_pub):
    vcr_server = VcrServer(clock=lambda: 0)
    point = derive_path(master_pub, DerivationPath((0, 1))).public_point
    request = WrapperRequest(client_id=ClientId("vcid", "abc"), vcr_pubkeys=(point,))
    body = encoding.to_wire(request, OPT).encode()
    assert vcr_server.handle_wrapper_request(body) == (403, {"error": "ClockUnavailable"})


def test_wrapper_issuance_latency(loopback, master_pub):
    # Interactive-threshold sanity: issuance is a single signature.
    vcr_server, _, origin = loopback
    client_id = ClientId("vcid", "latency-probe")
    policy = MultiSigPolicy(
        (derive_path(master_pub, DerivationPath((0, 1))).public_point,)
    )
    from vcrkit.wrapper import issue_wrapper

    start = time.perf_counter()
    runs = 10
    for _ in range(runs):
        issue_wrapper(vcr_server.server_key, client_id, policy, int(time.time()))
    average = (time.perf_counter() - start) / runs
    assert average < 0.020, f"issuance averaged {average * 1000:.2f} ms"


def test_access_returns_single_entry_history(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    page = _get(origin, "/only-page")
    client_id = _cookie_of(page)
    path = DerivationPath((0, 3))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])
    request = _signed_request(
        vcr_server, wrapper, VcrAction(ActionKind.ACCESS), local_signer, path
    )
    exchange = _submit(origin, vcr_server, request)
    assert exchange.status == 200, exchange.body
    payload = json.loads(exchange.body)
    records = [
        ClientDataRecord.from_wire_dict(raw, OPT)
        for raw in payload[wire_key("records", OPT)]
    ]
    assert len(records) == 1
    assert [p for _, p in records[0].visits] == ["/only-page"]
    assert records[0].client_id == client_id


def test_access_never_returns_foreign_records(loopback, master, local_signer):
    """Fuzz wrapper/cookie mismatches: returned records always belong to the
    wrapper-bound cookie, regardless of what cookies other clients hold."""
    vcr_server, _, origin = loopback
    others = [_cookie_of(_get(origin, f"/other-{i}")) for i in range(5)]
    mine = _cookie_of(_get(origin, "/mine"))
    path = DerivationPath((0, 4))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, mine, [point])
    request = _signed_request(
        vcr_server, wrapper, VcrAction(ActionKind.ACCESS), local_signer, path
    )
    # Send each submission with a *mismatched* Cookie header claiming to be
    # someone else: the endpoint must key on the verified wrapper alone.
    for imposter in others:
        exchange = _post_json(
            origin,
            vcr_server.advertisement.vcr_endpoint,
            encoding.to_wire(request, OPT),
            cookie=f"{imposter.cookie_name}={imposter.cookie_value}",
        )
        if exchange.status == 403:  # replay after the first acceptance
            assert json.loads(exchange.body)["error"] == "ReplayDetected"
            continue
        payload = json.loads(exchange.body)
        returned = [
            ClientDataRecord.from_wire_dict(raw, OPT)
            for raw in payload[wire_key("records", OPT)]
        ]
        assert {r.client_id.cookie_value for r in returned} == {mine.cookie_value}
        assert all(
            r.client_id.cookie_value not in {o.cookie_value for o in others}
            for r in returned
        )


def test_access_for_unknown_client_is_nodata(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    ghost = ClientId("vcid", "never-visited-anything")
    path = DerivationPath((0, 5))
    point = derive_path(neuter(master), path).public_point
    # The wrapper endpoint refuses a cookie the server never set, so the
    # wrapper is issued in process under the server's key.
    policy = MultiSigPolicy((point,))
    wrapper = issue_wrapper(vcr_server.server_key, ghost, policy, int(time.time()))
    request = _signed_request(
        vcr_server, wrapper, VcrAction(ActionKind.ACCESS), local_signer, path
    )
    exchange = _submit(origin, vcr_server, request)
    assert exchange.status == 404
    assert json.loads(exchange.body)["error"] == "NoData"


def _refusal_of(exchange):
    return exchange.status, json.loads(exchange.body)


def test_strangers_wrapper_for_a_bound_cookie_is_refused(loopback, master, local_signer):
    """Whoever reads a victim's cookie cannot bind a key of their own to it
    once the victim has: the victim's record stays theirs alone."""
    vcr_server, _, origin = loopback
    victim = _cookie_of(_get(origin, "/"))
    path = DerivationPath((0, 8))
    point = derive_path(neuter(master), path).public_point
    _obtain_wrapper(origin, vcr_server, victim, [point])
    vcr_server.set_attribute(victim.cookie_value, "email", "victim@example.com")
    before = encoding.to_wire(vcr_server.get_record(victim.cookie_value), OPT)
    stranger = derive_path(neuter(master), DerivationPath((9, 0))).public_point
    exchange = _request_wrapper(origin, vcr_server, victim, [stranger])
    assert _refusal_of(exchange) == (409, {"error": "CookieAlreadyBound"})
    assert encoding.to_wire(vcr_server.get_record(victim.cookie_value), OPT) == before


@pytest.mark.parametrize("name", [COOKIE_NAME, "other"], ids=["never-set", "renamed"])
def test_wrapper_for_a_cookie_the_server_never_set_is_nodata(loopback, master_pub, name):
    """A cookie value the server never set, or a value it set under another
    cookie name, has no record: 404, and the victim can still bind theirs."""
    vcr_server, _, origin = loopback
    victim = _cookie_of(_get(origin, "/"))
    value = "never-set-by-this-server" if name == COOKIE_NAME else victim.cookie_value
    point = derive_path(master_pub, DerivationPath((0, 1))).public_point
    exchange = _request_wrapper(origin, vcr_server, ClientId(name, value), [point])
    assert _refusal_of(exchange) == (404, {"error": "NoData"})
    _obtain_wrapper(origin, vcr_server, victim, [point])


def _bind_status(vcr_server, value, master_pub, j=0):
    point = derive_path(master_pub, DerivationPath((0, j))).public_point
    body = encoding.to_wire(WrapperRequest(ClientId(COOKIE_NAME, value), (point,)), OPT)
    return vcr_server.handle_wrapper_request(body.encode())[0]


@pytest.fixture()
def signatures(monkeypatch):
    """Client ids of every wrapper the server signs from here on."""
    signed = []
    original = server.issue_wrapper

    def spy(server_key, client_id, keys, now):
        signed.append(client_id)
        return original(server_key, client_id, keys, now)

    monkeypatch.setattr(server, "issue_wrapper", spy)
    return signed


def test_a_cookie_never_set_costs_no_signature(signatures, master_pub):
    assert _bind_status(VcrServer(), "never-set", master_pub) == 404
    assert signatures == []


def test_a_second_wrapper_costs_no_signature(signatures, master_pub):
    vcr_server = VcrServer()
    value, _ = vcr_server.handle_page_request("/", None)
    assert _bind_status(vcr_server, value, master_pub) == 200
    assert _bind_status(vcr_server, value, master_pub, 1) == 409
    assert signatures == [ClientId(COOKIE_NAME, value)]


def test_a_refused_key_leaves_the_cookie_open(master_pub):
    """A 400 for a key off the curve binds nothing: the next valid request
    for the same cookie gets its wrapper."""
    vcr_server = VcrServer()
    value, _ = vcr_server.handle_page_request("/", None)
    request = WrapperRequest(ClientId(COOKIE_NAME, value), (_off_curve_point(),))
    body = encoding.to_wire(request, OPT).encode()
    assert vcr_server.handle_wrapper_request(body) == (400, {"error": "InvalidPublicKey"})
    assert _bind_status(vcr_server, value, master_pub) == 200


def test_racing_wrapper_requests_for_one_cookie_bind_it_once(master_pub):
    vcr_server = VcrServer()
    value, _ = vcr_server.handle_page_request("/", None)
    barrier = threading.Barrier(8)
    statuses = []

    def bind(j):
        barrier.wait(timeout=10)
        statuses.append(_bind_status(vcr_server, value, master_pub, j))

    threads = [threading.Thread(target=bind, args=(j,)) for j in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert sorted(statuses) == [200] + [409] * 7


def test_a_binding_survives_a_restart_on_the_snapshot(tmp_path, master_pub):
    """The snapshot lists the cookies still open for binding: a bound one
    stays bound after a restart, an open one stays open."""
    snapshot, key = str(tmp_path / "snap.json"), ServerKey.generate()
    first = VcrServer(server_key=key, snapshot_path=snapshot)
    bound, _ = first.handle_page_request("/", None)
    still_open, _ = first.handle_page_request("/", None)
    assert _bind_status(first, bound, master_pub) == 200
    first.save_snapshot()
    assert json.loads((tmp_path / "snap.json").read_text())["O"] == [still_open]
    restarted = VcrServer(server_key=key, snapshot_path=snapshot)
    assert _bind_status(restarted, bound, master_pub, 1) == 409
    assert _bind_status(restarted, still_open, master_pub, 2) == 200
    assert _bind_status(restarted, still_open, master_pub, 3) == 409


def test_every_cookie_of_a_snapshot_without_the_open_list_is_bound(tmp_path, master_pub):
    snapshot = tmp_path / "snap.json"
    snapshot.write_text(encoding.to_wire(AccessResponse([_record("abc")]), OPT))
    assert _bind_status(VcrServer(snapshot_path=str(snapshot)), "abc", master_pub) == 409


def test_modify_applies_and_conflicts(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    client_id = _cookie_of(_get(origin, "/"))
    vcr_server.set_attribute(client_id.cookie_value, "email", "old@example.com")
    path = DerivationPath((0, 6))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])

    good = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(
            ActionKind.MODIFY, changes=(("email", "old@example.com", "new@example.com"),)
        ),
        local_signer,
        path,
    )
    exchange = _submit(origin, vcr_server, good)
    assert exchange.status == 200, exchange.body
    assert (
        vcr_server.get_record(client_id.cookie_value).attributes["email"]
        == "new@example.com"
    )

    stale = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(
            ActionKind.MODIFY, changes=(("email", "old@example.com", "x@example.com"),)
        ),
        local_signer,
        path,
        now=int(time.time()) + 1,
    )
    exchange = _submit(origin, vcr_server, stale)
    assert exchange.status == 409
    assert json.loads(exchange.body)["error"] == "ModifyConflict"
    assert (
        vcr_server.get_record(client_id.cookie_value).attributes["email"]
        == "new@example.com"
    )


def test_modify_is_all_or_nothing(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    client_id = _cookie_of(_get(origin, "/"))
    vcr_server.set_attribute(client_id.cookie_value, "a", "1")
    vcr_server.set_attribute(client_id.cookie_value, "b", "2")
    path = DerivationPath((0, 7))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])
    mixed = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(
            ActionKind.MODIFY,
            changes=(("a", "1", "10"), ("b", "WRONG", "20")),
        ),
        local_signer,
        path,
    )
    exchange = _submit(origin, vcr_server, mixed)
    assert exchange.status == 409
    record = vcr_server.get_record(client_id.cookie_value)
    assert record.attributes == {"a": "1", "b": "2"}  # untouched


def test_delete_idempotent(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    client_id = _cookie_of(_get(origin, "/"))
    path = DerivationPath((0, 8))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])

    now = int(time.time())
    first = _signed_request(
        vcr_server, wrapper, VcrAction(ActionKind.DELETE), local_signer, path, now=now
    )
    assert _submit(origin, vcr_server, first).status == 200
    assert vcr_server.get_record(client_id.cookie_value) is None

    # Fresh timestamp, re-signed: a later duplicate delete of absent data
    # still acknowledges with 200.
    second = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(ActionKind.DELETE),
        local_signer,
        path,
        now=now + 1,
    )
    assert _submit(origin, vcr_server, second).status == 200


def test_verification_failures_reveal_only_the_class(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    client_id = _cookie_of(_get(origin, "/"))
    path = DerivationPath((0, 9))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])

    stale = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(ActionKind.ACCESS),
        local_signer,
        path,
        now=int(time.time()) - 10_000,
    )
    exchange = _submit(origin, vcr_server, stale)
    assert exchange.status == 403
    payload = json.loads(exchange.body)
    assert set(payload) == {"error"}
    assert payload["error"] == "StaleTimestamp"

    wrong_key = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(ActionKind.ACCESS),
        local_signer,
        DerivationPath((0, 10)),
    )
    exchange = _submit(origin, vcr_server, wrong_key)
    assert exchange.status == 403
    assert json.loads(exchange.body) == {"error": "BadRequestSignature"}


def test_no_mutation_on_rejected_requests(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    client_id = _cookie_of(_get(origin, "/"))
    vcr_server.set_attribute(client_id.cookie_value, "email", "safe@example.com")
    before_visits = list(vcr_server.get_record(client_id.cookie_value).visits)
    path = DerivationPath((0, 11))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])
    # Signed under the wrong key: rejected with 403 before fulfillment.
    request = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(ActionKind.MODIFY, changes=(("email", "safe@example.com", "evil"),)),
        local_signer,
        DerivationPath((0, 12)),
    )
    exchange = _submit(origin, vcr_server, request)
    assert exchange.status == 403
    record = vcr_server.get_record(client_id.cookie_value)
    assert record.attributes["email"] == "safe@example.com"
    assert record.visits == before_visits


def test_replayed_submission_rejected_over_http(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    client_id = _cookie_of(_get(origin, "/"))
    path = DerivationPath((0, 13))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])
    request = _signed_request(
        vcr_server, wrapper, VcrAction(ActionKind.ACCESS), local_signer, path
    )
    assert _submit(origin, vcr_server, request).status == 200
    replay = _submit(origin, vcr_server, request)
    assert replay.status == 403
    assert json.loads(replay.body)["error"] == "ReplayDetected"


def test_sealed_request_processed(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    client_id = _cookie_of(_get(origin, "/"))
    path = DerivationPath((0, 14))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])
    request = _signed_request(
        vcr_server, wrapper, VcrAction(ActionKind.ACCESS), local_signer, path
    )
    sealed = seal_vcr(vcr_server.server_key.public_point, request)
    exchange = _submit(origin, vcr_server, sealed)
    assert exchange.status == 200, exchange.body
    payload = json.loads(exchange.body)
    assert wire_key("records", OPT) in payload


def test_encrypted_access_response(loopback, master, local_signer):
    vcr_server, _, origin = loopback
    client_id = _cookie_of(_get(origin, "/secret-page"))
    metadata_secret = curve.generate_secret()
    metadata_pub = curve.pubkey_bytes(metadata_secret)
    path = DerivationPath((0, 15))
    point = derive_path(neuter(master), path).public_point
    wrapper, _ = _obtain_wrapper(origin, vcr_server, client_id, [point])
    request = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(ActionKind.ACCESS, response_pubkey=metadata_pub),
        local_signer,
        path,
    )
    exchange = _submit(origin, vcr_server, request)
    assert exchange.status == 200
    box = HybridCiphertext.from_wire_dict(json.loads(exchange.body), OPT)
    plaintext = hybrid_decrypt(curve.private_key(metadata_secret), box, ACCESS_INFO)
    records_payload = json.loads(plaintext)
    records = [
        ClientDataRecord.from_wire_dict(raw, OPT)
        for raw in records_payload[wire_key("records", OPT)]
    ]
    assert [p for _, p in records[0].visits] == ["/secret-page"]


def test_encrypt_access_response_fresh_keys(master):
    record = ClientDataRecord(client_id=ClientId("vcid", "abc"), visits=[(1, "/")])
    secret = curve.generate_secret()
    pub = curve.pubkey_bytes(secret)
    boxes = [encrypt_access_response([record], pub) for _ in range(100)]
    assert len({b.ciphertext for b in boxes}) == 100
    assert len({b.ephemeral_pubkey for b in boxes}) == 100
    # And each decrypts correctly despite the fresh keys.
    payload = json.loads(hybrid_decrypt(curve.private_key(secret), boxes[0], ACCESS_INFO))
    assert wire_key("records", OPT) in payload


def test_encrypt_access_response_tamper(master):
    record = ClientDataRecord(client_id=ClientId("vcid", "abc"), visits=[(1, "/")])
    secret = curve.generate_secret()
    box = encrypt_access_response([record], curve.pubkey_bytes(secret))
    from dataclasses import replace

    broken = replace(box, ciphertext=bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:])
    with pytest.raises(DecryptFailed):
        hybrid_decrypt(curve.private_key(secret), broken, ACCESS_INFO)


def test_post_only_endpoints(loopback):
    vcr_server, _, origin = loopback
    assert _get(origin, vcr_server.advertisement.wrapper_endpoint).status == 405
    assert _get(origin, vcr_server.advertisement.vcr_endpoint).status == 405


def _post_declaring_length(origin, path, content_length):
    """POST headers with a hand-written Content-Length and no body; returns
    (status, error code). The server must answer and then close."""
    parts = urlsplit(origin)
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    )
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(head.encode("latin-1"))
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    header, _, body = raw.partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), json.loads(body)["error"]


@pytest.mark.parametrize("value", ["abc", "", "1.5", "0x10", "\u00b2"])
def test_non_numeric_content_length_is_malformed(loopback, value):
    vcr_server, _, origin = loopback
    path = vcr_server.advertisement.vcr_endpoint
    assert _post_declaring_length(origin, path, value) == (400, "MalformedBody")


def test_negative_content_length_is_malformed(loopback):
    vcr_server, _, origin = loopback
    path = vcr_server.advertisement.vcr_endpoint
    assert _post_declaring_length(origin, path, "-5") == (400, "MalformedBody")


def test_oversized_content_length_is_refused_unread(loopback):
    vcr_server, _, origin = loopback
    path = vcr_server.advertisement.wrapper_endpoint
    status = _post_declaring_length(origin, path, QuietDisconnects.MAX_MESSAGE_BYTES + 1)
    assert status == (413, "BodyTooLarge")
    # Still serving afterwards.
    assert _get(origin, "/").status == 200


def test_chunked_post_is_refused_unread(loopback):
    """A transfer coding is not implemented: one 501, then the connection
    closes, so the chunk bytes are never parsed as a second request."""
    vcr_server, _, origin = loopback
    parts = urlsplit(origin)
    head = (
        f"POST {vcr_server.advertisement.vcr_endpoint} HTTP/1.1\r\n"
        f"Host: {parts.netloc}\r\nTransfer-Encoding: chunked\r\n\r\n"
    )
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(head.encode("latin-1") + b"7\r\n{\"a\":1}\r\n0\r\n\r\n")
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    assert raw.count(b"HTTP/1.1 ") == 1
    header, _, body = raw.partition(b"\r\n\r\n")
    assert header.split(b" ", 2)[1] == b"501"
    assert json.loads(body) == {"error": "UnsupportedTransferEncoding"}


def test_peer_reset_mid_body_is_quiet(capfd):
    """A client that resets its connection mid-body leaves nothing on
    stderr, and the server goes on serving."""
    handled = threading.Event()

    class Observed(VcrHttpServer):
        def handle_error(self, request, client_address):
            super().handle_error(request, client_address)
            handled.set()

    httpd = Observed(("127.0.0.1", 0), VcrServer())
    httpd.serve_in_thread()
    try:
        parts = urlsplit(httpd.origin)
        head = (
            f"POST {VCR_ENDPOINT} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            "Content-Length: 100\r\n\r\n{\""
        )
        with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
            sock.sendall(head.encode("latin-1"))
            time.sleep(0.2)  # let the handler block reading the body
            # Linger 0: close sends a reset instead of a FIN.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert handled.wait(5)
        assert _get(httpd.origin, "/").status == 200
    finally:
        httpd.close()
    assert capfd.readouterr().err == ""


def test_stalled_body_is_closed_at_the_read_deadline(loopback, monkeypatch, capfd):
    """A POST that declares 100 bytes and sends 10 is closed unanswered once
    no byte has come for READ_SECONDS, and its handler thread exits. A page
    request on another connection is served meanwhile."""
    _, httpd, origin = loopback
    monkeypatch.setattr(httpd, "READ_SECONDS", 0.3)
    handlers = []
    finish_request = httpd.finish_request

    def recorded(request, client_address):  # runs on the handler's thread
        handlers.append(threading.current_thread())
        finish_request(request, client_address)

    monkeypatch.setattr(httpd, "finish_request", recorded)
    parts = urlsplit(origin)
    head = (
        f"POST {VCR_ENDPOINT} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
        "Content-Length: 100\r\n\r\n"
    )
    with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
        sock.sendall(head.encode("latin-1") + b"0123456789")
        assert _get(origin, "/").status == 200
        assert sock.recv(65536) == b""
    for thread in handlers:
        thread.join(timeout=2)
    assert len(handlers) == 2 and not any(t.is_alive() for t in handlers)
    assert capfd.readouterr().err == ""


def test_a_body_that_ends_early_gets_no_answer(loopback, capfd):
    """A POST that declares 100 bytes, sends 7 and half-closes is closed
    unanswered and quietly (RFC 9112 §8); a new connection is served."""
    _, _, origin = loopback
    parts = urlsplit(origin)
    head = (
        f"POST {VCR_ENDPOINT} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
        "Content-Length: 100\r\n\r\n"
    )
    with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
        sock.sendall(head.encode("latin-1") + b'{"a":1}')
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(65536) == b""
    assert _get(origin, "/").status == 200
    assert capfd.readouterr().err == ""


def _raw_response(origin, request: bytes) -> bytes:
    """The bytes a server sends for ``request`` until it closes."""
    parts = urlsplit(origin)
    with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
        sock.sendall(request)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    return raw


@pytest.mark.parametrize(
    "request_line, status",
    [(b"GET / HTTP/1.1", b"200"), (b"POST /vcr/submit HTTP/1.1", b"400")],
    ids=["200", "400"],
)
def test_the_server_header_is_the_name_alone(loopback, request_line, status):
    """No trailing space after the name: one byte less in every response."""
    _, _, origin = loopback
    host = urlsplit(origin).netloc.encode()
    request = request_line + b"\r\nHost: " + host + b"\r\nConnection: close\r\n"
    request += b"Content-Length: 2\r\n\r\n{}" if request_line.startswith(b"POST") else b"\r\n"
    header = _raw_response(origin, request).partition(b"\r\n\r\n")[0].split(b"\r\n")
    assert header[0].split(b" ")[1] == status
    assert b"Server: vcrkit-ref" in header


def test_sealed_body_with_mistyped_fields_is_malformed(loopback):
    vcr_server, _, origin = loopback
    exchange = _post_json(
        origin, vcr_server.advertisement.vcr_endpoint, '{"E":5,"N":"AAAA","C":"AAAA"}'
    )
    assert exchange.status == 400
    assert json.loads(exchange.body) == {"error": "MalformedBody"}


def test_snapshot_roundtrip(tmp_path):
    snapshot = str(tmp_path / "snap.json")
    first = VcrServer(snapshot_path=snapshot)
    first._records["abc"] = ClientDataRecord(
        client_id=ClientId("vcid", "abc"),
        visits=[(1_754_650_000, "/")],
        attributes={"email": "x@example.com"},
    )
    first.save_snapshot()
    second = VcrServer(snapshot_path=snapshot)
    record = second.get_record("abc")
    assert record is not None
    assert record.visits == [(1_754_650_000, "/")]
    assert record.attributes == {"email": "x@example.com"}


def test_bandwidth_budgets(loopback, master, local_signer):
    """Wrapper flow <= 1.4 kB and single-entry ACCESS flow <= 1.6 kB,
    headers and payloads included."""
    vcr_server, _, origin = loopback
    page = _get(origin, "/budget-page")
    client_id = _cookie_of(page)
    path = DerivationPath((0, 16))
    point = derive_path(neuter(master), path).public_point
    wrapper, wrapper_exchange = _obtain_wrapper(
        origin, vcr_server, client_id, [point]
    )
    wrapper_total = (
        wrapper_exchange.request_bytes + wrapper_exchange.response_bytes
    )
    assert wrapper_total <= 1400, f"wrapper flow used {wrapper_total} bytes"

    request = _signed_request(
        vcr_server, wrapper, VcrAction(ActionKind.ACCESS), local_signer, path
    )
    access_exchange = _submit(origin, vcr_server, request)
    assert access_exchange.status == 200
    access_total = access_exchange.request_bytes + access_exchange.response_bytes
    assert access_total <= 1600, f"access flow used {access_total} bytes"


# --- one on-curve check per untrusted point -------------------------------------


def _off_curve_point():
    """A well-formed compressed encoding whose x has no point on the curve."""
    x = 1
    while True:
        candidate = b"\x02" + x.to_bytes(32, "big")
        try:
            curve.decompress(candidate)
        except InvalidPublicKey:
            return candidate
        x += 1


def _issued(vcr_server, points):
    """A fresh visitor's cookie bound to ``points`` by the server's key."""
    cookie_value, _ = vcr_server.handle_page_request("/", None)
    return issue_wrapper(
        vcr_server.server_key,
        ClientId(COOKIE_NAME, cookie_value),
        MultiSigPolicy(tuple(points)),
        int(time.time()),
    )


def _access(vcr_server, master, local_signer, j, response_pubkey=None):
    path = DerivationPath((0, j))
    wrapper = _issued(vcr_server, [derive_path(neuter(master), path).public_point])
    action = VcrAction(ActionKind.ACCESS, response_pubkey=response_pubkey)
    return _signed_request(vcr_server, wrapper, action, local_signer, path)


def _body(message):
    return encoding.to_wire(message, OPT).encode()


def test_each_untrusted_point_is_decompressed_once(monkeypatch, master, local_signer):
    vcr_server = VcrServer()
    scoped = derive_path(master, DerivationPath((0, 5)))
    wrappers = [
        _issued(vcr_server, [derive_child_pub(neuter(scoped), j).public_point])
        for j in range(3)
    ]
    action = VcrAction(ActionKind.ACCESS)
    unified = build_unified_vcr(
        wrappers, neuter(scoped), range(3), action, int(time.time())
    )
    unified = replace(
        unified, signatures=(curve.sign_digest(curve.private_key(scoped.secret), unified.digest()),)
    )
    response_pubkey = curve.pubkey_bytes(curve.generate_secret())
    bodies = {
        "plain": _body(_access(vcr_server, master, local_signer, 30)),
        "response key": _body(
            _access(vcr_server, master, local_signer, 31, response_pubkey)
        ),
        "sealed": _body(
            seal_vcr(
                vcr_server.server_key.public_point,
                _access(vcr_server, master, local_signer, 32),
            )
        ),
        "unified": _body(unified),
    }
    calls = []
    decompress = curve.decompress
    monkeypatch.setattr(
        curve, "decompress", lambda data: calls.append(data) or decompress(data)
    )
    counts = {}
    for name, body in bodies.items():
        calls.clear()
        status, payload = vcr_server.handle_vcr(body)
        assert status == 200, (name, payload)
        counts[name] = len(calls)
    # Wrapper keys were checked at issuance and the wrapper signature covers
    # them; ephemeral keys are parsed by OpenSSL alone.
    assert counts == {"plain": 0, "response key": 1, "sealed": 0, "unified": 1}


def test_off_curve_response_key_is_malformed_body(master, local_signer):
    vcr_server = VcrServer()
    payload = _access(vcr_server, master, local_signer, 33).to_wire_dict(OPT)
    action = payload[wire_key("action", OPT)]
    action[wire_key("response_pubkey", OPT)] = encoding.BIN.encode[OPT](
        _off_curve_point()
    )
    body = json.dumps(payload).encode()
    assert vcr_server.handle_vcr(body) == (400, {"error": "MalformedBody"})


def test_empty_cookie_name_in_wrapper_is_malformed_body(master, local_signer):
    vcr_server = VcrServer()
    payload = _access(vcr_server, master, local_signer, 34).to_wire_dict(OPT)
    payload[wire_key("wrappers", OPT)][0][wire_key("client_id", OPT)] = {
        "n": "",
        "c": "abc",
    }
    body = json.dumps(payload).encode()
    assert vcr_server.handle_vcr(body) == (400, {"error": "MalformedBody"})


def test_signed_off_curve_wrapper_key_same_answer_plain_or_sealed(
    master, local_signer
):
    vcr_server = VcrServer()
    server_key = vcr_server.server_key
    cookie_value, _ = vcr_server.handle_page_request("/", None)
    unsigned = Wrapper(
        version=WRAPPER_VERSION,
        client_id=ClientId(COOKIE_NAME, cookie_value),
        vcr_pubkeys=(_off_curve_point(),),
        issued_at=int(time.time()),
        server_key_id=server_key.key_id,
        signature=bytes(64),
    )
    # Signed past MultiSigPolicy: no request signature can verify under it.
    wrapper = replace(
        unsigned, signature=server_key.sign(curve.sha256(unsigned.signed_payload()))
    )
    request = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(ActionKind.ACCESS),
        local_signer,
        DerivationPath((0, 35)),
    )
    plain = vcr_server.handle_vcr(_body(request))
    sealed = vcr_server.handle_vcr(_body(seal_vcr(server_key.public_point, request)))
    assert plain == sealed == (403, {"error": "BadRequestSignature"})


# --- fixed-size fields are sized on JSON reads ---------------------------------


@pytest.mark.parametrize("field", ["wrapper key", "signature"])
def test_short_fixed_field_in_plain_request_is_malformed_body(
    loopback, master, local_signer, field
):
    vcr_server, _, origin = loopback
    request = _access(vcr_server, master, local_signer, 36)
    payload = request.to_wire_dict(OPT)
    if field == "wrapper key":  # 32 of 33 bytes
        wrapper = payload[wire_key("wrappers", OPT)][0]
        wrapper[wire_key("vcr_pubkeys", OPT)] = [
            encoding.BIN.encode[OPT](request.wrappers[0].vcr_pubkeys[0][:32])
        ]
    else:  # 63 of 64 bytes
        payload[wire_key("signatures", OPT)] = [
            encoding.BIN.encode[OPT](request.signatures[0][:63])
        ]
    exchange = _post_json(origin, vcr_server.advertisement.vcr_endpoint, json.dumps(payload))
    assert exchange.status == 400
    assert json.loads(exchange.body) == {"error": "MalformedBody"}


# --- outside input goes through the codec ------------------------------------


def test_get_on_a_post_endpoint_names_the_allowed_method(loopback):
    vcr_server, _, origin = loopback
    for path in (WRAPPER_ENDPOINT, VCR_ENDPOINT):
        exchange = _get(origin, path)
        assert exchange.status == 405
        assert exchange.headers.get("allow") == "POST"  # RFC 9110 §15.5.6


def _advertised_headers(**overrides):
    advertisement = EndpointAdvertisement(
        "/vcr/wrapper", "/vcr/submit", bytes.fromhex("02" + "11" * 32), bytes(8)
    )
    headers = {k.lower(): v for k, v in advertisement.to_headers().items()}
    headers.update(overrides)
    return headers


@pytest.mark.parametrize(
    "header, value",
    [("vcr-server-key", "02"), ("vcr-server-key-id", "01"), ("vcr-server-key", "zz")],
)
def test_advertised_key_or_key_id_of_another_size_is_malformed(header, value):
    with pytest.raises(MalformedMessage):
        EndpointAdvertisement.from_headers(_advertised_headers(**{header: value}))


@pytest.mark.parametrize("header", ["vcr-submit-endpoint", "vcr-server-key-id"])
def test_missing_or_empty_advertisement_header_means_no_support(header):
    headers = _advertised_headers(**{header: ""})
    assert EndpointAdvertisement.from_headers(headers) is None
    del headers[header]
    assert EndpointAdvertisement.from_headers(headers) is None


def _record(cookie_value):
    return ClientDataRecord(
        client_id=ClientId(COOKIE_NAME, cookie_value),
        visits=[(1_754_650_000, "/")],
        attributes={"email": "x@example.com"},
    )


def test_snapshot_file_is_the_records_table(tmp_path):
    snapshot = tmp_path / "snap.json"
    server = VcrServer(snapshot_path=str(snapshot))
    server._records["abc"] = _record("abc")
    server.save_snapshot()
    records = AccessResponse([_record("abc")])
    assert snapshot.read_text() == encoding.to_wire(records, OPT)
    assert snapshot.read_text().startswith('{"D":[')


@pytest.mark.parametrize(
    "data",
    [
        b"[]",  # the old bare-list layout, empty
        json.dumps([_record("abc").to_wire_dict(OPT)]).encode(),  # and not empty
        b"\xff\xfe[]",  # not UTF-8
        b'{"D":[{"y":{"n":"vcid","c":""},"A":[]}]}',  # a record the codec refuses
    ],
    ids=["bare-list", "bare-list-of-records", "not-utf8", "empty-cookie"],
)
def test_snapshot_that_does_not_decode_is_refused_not_loaded_empty(tmp_path, data):
    snapshot = tmp_path / "snap.json"
    snapshot.write_bytes(data)
    with pytest.raises(MalformedMessage):
        VcrServer(snapshot_path=str(snapshot))


def test_close_before_serving_returns_and_saves_the_snapshot(tmp_path):
    snapshot = tmp_path / "snap.json"
    httpd = VcrHttpServer(("127.0.0.1", 0), VcrServer(snapshot_path=str(snapshot)))
    closer = threading.Thread(target=httpd.close, daemon=True)
    closer.start()
    closer.join(timeout=5)
    assert not closer.is_alive(), "close() waited for a loop that never ran"
    assert snapshot.read_text() == '{"D":[]}'


def test_close_of_a_serving_server_returns_promptly():
    """close() waits for the serve loop's next poll, not half a second."""
    elapsed = []
    for _ in range(5):
        httpd = VcrHttpServer(("127.0.0.1", 0), VcrServer())
        httpd.serve_in_thread()
        started = time.perf_counter()
        httpd.close()
        elapsed.append(time.perf_counter() - started)
    assert sum(elapsed) / len(elapsed) < 0.1, elapsed


@pytest.mark.parametrize("secret", [0, -1, curve.N, curve.N + 1])
def test_server_key_outside_the_group_is_refused_when_built(secret):
    with pytest.raises(DegenerateKey):
        ServerKey(secret=secret)


# --- the memo of checks that passed ---------------------------------------------


MEMO_NOW = 1_754_650_000


def _stopped_clock_server(server_key=None):
    """Requests stamped ``MEMO_NOW - age`` differ for each age, whatever
    second the test runs in."""
    return VcrServer(server_key, clock=lambda: MEMO_NOW)


@pytest.fixture()
def wrapper_checks(monkeypatch):
    """Client ids of every wrapper whose signature is checked from here on."""
    checked = []
    original = vcr.verify_wrapper

    def spy(server_pubkey, wrapper, expected_key_id=None):
        checked.append(wrapper.client_id)
        return original(server_pubkey, wrapper, expected_key_id)

    monkeypatch.setattr(vcr, "verify_wrapper", spy)
    return checked


def _accepted(vcr_server, master, local_signer, j):
    """A wrapper for session m/0/j, remembered after one accepted ACCESS."""
    path = DerivationPath((0, j))
    wrapper = _issued(vcr_server, [derive_path(neuter(master), path).public_point])
    assert _resend(vcr_server, wrapper, local_signer, path, 0)[0] == 200
    return wrapper, path


def _resend(vcr_server, wrapper, local_signer, path, age):
    """handle_vcr of an ACCESS over ``wrapper``, stamped ``age`` seconds ago
    so that each is a new request."""
    request = _signed_request(
        vcr_server,
        wrapper,
        VcrAction(ActionKind.ACCESS),
        local_signer,
        path,
        now=MEMO_NOW - age,
    )
    return vcr_server.handle_vcr(_body(request))


def test_a_remembered_wrapper_skips_only_its_own_check(
    monkeypatch, wrapper_checks, master, local_signer
):
    vcr_server = _stopped_clock_server()
    wrapper, path = _accepted(vcr_server, master, local_signer, 40)
    verifications = []
    verify_digest = curve.verify_digest
    monkeypatch.setattr(
        curve,
        "verify_digest",
        lambda *args: verifications.append(args) or verify_digest(*args),
    )
    assert _resend(vcr_server, wrapper, local_signer, path, 1)[0] == 200
    assert wrapper_checks == [wrapper.client_id]  # the first use only
    assert len(verifications) == 1  # the request signature, every time


@pytest.mark.parametrize(
    "tamper",
    [
        lambda w: replace(w, signature=bytes([w.signature[0] ^ 1]) + w.signature[1:]),
        lambda w: replace(w, issued_at=w.issued_at + 1),
    ],
    ids=["signature-byte", "payload-byte"],
)
def test_a_remembered_wrapper_changed_in_one_byte_is_refused(
    tamper, master, local_signer
):
    vcr_server = _stopped_clock_server()
    wrapper, path = _accepted(vcr_server, master, local_signer, 41)
    status, payload = _resend(vcr_server, tamper(wrapper), local_signer, path, 1)
    assert (status, payload) == (403, {"error": "BadWrapper"})


def test_a_wrapper_remembered_under_one_key_is_refused_under_another(
    master, local_signer
):
    first = _stopped_clock_server()
    wrapper, path = _accepted(first, master, local_signer, 42)
    second = _stopped_clock_server(ServerKey.generate())
    second.memo = first.memo
    status, payload = _resend(second, wrapper, local_signer, path, 1)
    assert (status, payload) == (403, {"error": "BadWrapper"})
    request = _signed_request(
        second, wrapper, VcrAction(ActionKind.ACCESS), local_signer, path, MEMO_NOW
    )
    with pytest.raises(BadWrapper):
        verify_vcr(
            second.server_key.public_point,
            request,
            MEMO_NOW,
            ReplayCache(),
            first.memo,
        )


def test_the_memo_keeps_its_bound_and_drops_the_oldest(
    monkeypatch, wrapper_checks, master, local_signer
):
    monkeypatch.setattr(VerifiedMemo, "MAX_ENTRIES", 2)
    vcr_server = _stopped_clock_server()
    accepted = []
    for j in range(43, 46):
        accepted.append(_accepted(vcr_server, master, local_signer, j))
        assert len(vcr_server.memo) <= 2
    wrapper_checks.clear()
    (oldest, oldest_path), _, (newest, newest_path) = accepted
    assert _resend(vcr_server, newest, local_signer, newest_path, 1)[0] == 200
    assert wrapper_checks == []
    assert _resend(vcr_server, oldest, local_signer, oldest_path, 1)[0] == 200
    assert wrapper_checks == [oldest.client_id]  # evicted, so checked again
    assert len(vcr_server.memo) == 2


def test_a_refused_wrapper_is_checked_on_each_arrival(
    monkeypatch, master, local_signer
):
    vcr_server = _stopped_clock_server()
    wrapper, path = _accepted(vcr_server, master, local_signer, 46)
    forged = replace(wrapper, signature=bytes(64))
    verifications = []
    verify_digest = curve.verify_digest
    monkeypatch.setattr(
        curve,
        "verify_digest",
        lambda *args: verifications.append(args) or verify_digest(*args),
    )
    for age in (1, 2):
        status, payload = _resend(vcr_server, forged, local_signer, path, age)
        assert (status, payload) == (403, {"error": "BadWrapper"})
    assert len(verifications) == 2
    assert len(vcr_server.memo) == 1


def test_a_wrong_session_index_is_refused_after_a_good_one_was_remembered(
    monkeypatch, master
):
    vcr_server = _stopped_clock_server()
    scoped = derive_path(master, DerivationPath((0, 6)))
    scoped_key = curve.private_key(scoped.secret)
    wrappers = [
        _issued(vcr_server, [derive_child_pub(neuter(scoped), j).public_point])
        for j in range(3)
    ]
    derivations = []
    derive = vcr.derive_child_pub
    monkeypatch.setattr(
        vcr,
        "derive_child_pub",
        lambda xpub, j: derivations.append(j) or derive(xpub, j),
    )

    def unified(indices, age):
        proof = UnifiedProof(neuter(scoped), tuple(indices))
        action = VcrAction(ActionKind.ACCESS)
        request = build_vcr(wrappers, action, MEMO_NOW - age, proof)
        signature = curve.sign_digest(scoped_key, request.digest())
        return vcr_server.handle_vcr(_body(replace(request, signatures=(signature,))))

    assert unified([0, 1, 2], 0)[0] == 200
    assert unified([0, 1, 2], 1)[0] == 200
    assert derivations == [0, 1, 2]  # once each, by the first request
    for age, indices in enumerate(([1, 0, 2], [0, 1, 5]), start=2):
        assert unified(indices, age) == (403, {"error": "SessionKeyMismatch"})


def test_threads_sending_one_wrapper_at_once_are_all_answered(master, local_signer):
    vcr_server = _stopped_clock_server()
    path = DerivationPath((0, 47))
    wrapper = _issued(vcr_server, [derive_path(neuter(master), path).public_point])
    barrier = threading.Barrier(8)
    statuses = []

    def send(age):
        barrier.wait(timeout=10)
        statuses.append(_resend(vcr_server, wrapper, local_signer, path, age)[0])

    threads = [threading.Thread(target=send, args=(age,)) for age in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert statuses == [200] * 8
    assert len(vcr_server.memo) == 1
