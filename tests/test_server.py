"""Reference server: cookie flow, endpoints, fulfillment, budgets."""

import json
import socket
import time
from dataclasses import replace
from urllib.parse import urlsplit

import pytest

from vcrkit import curve, encoding, httpwire
from vcrkit.encoding import WireMode, wire_key
from vcrkit.errors import DecryptFailed, InvalidPublicKey
from vcrkit.keyhier import DerivationPath, derive_child_pub, derive_path, neuter
from vcrkit.sealing import HybridCiphertext, hybrid_decrypt
from vcrkit.server import (
    ACCESS_INFO,
    COOKIE_NAME,
    MAX_BODY_BYTES,
    ClientDataRecord,
    EndpointAdvertisement,
    VcrServer,
    encrypt_access_response,
)
from vcrkit.vcr import (
    ActionKind,
    VcrAction,
    build_unified_vcr,
    build_vcr,
    seal_vcr,
    sign_vcr,
)
from vcrkit.wrapper import (
    WRAPPER_VERSION,
    ClientId,
    MultiSigPolicy,
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


def _obtain_wrapper(origin, vcr_server, client_id, points):
    body = encoding.to_wire(
        WrapperRequest(client_id=client_id, vcr_pubkeys=tuple(points)), OPT
    )
    exchange = _post_json(
        origin,
        vcr_server.advertisement.wrapper_endpoint,
        body,
        cookie=f"{client_id.cookie_name}={client_id.cookie_value}",
    )
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


def test_wrapper_endpoint_rejects_garbage(loopback):
    vcr_server, _, origin = loopback
    before = vcr_server.record_count()
    exchange = _post_json(
        origin, vcr_server.advertisement.wrapper_endpoint, "{not json"
    )
    assert exchange.status == 400
    assert json.loads(exchange.body)["error"] == "MalformedBody"
    assert vcr_server.record_count() == before


def test_wrapper_endpoint_rejects_bad_point(loopback):
    vcr_server, _, origin = loopback
    payload = {
        wire_key("client_id", OPT): ClientId("vcid", "abc").to_wire_dict(OPT),
        wire_key("vcr_pubkeys", OPT): [encoding.bin_to_wire(b"\x02" + b"\xff" * 32, OPT)],
    }
    exchange = _post_json(
        origin, vcr_server.advertisement.wrapper_endpoint, json.dumps(payload)
    )
    assert exchange.status == 400
    assert json.loads(exchange.body)["error"] == "InvalidPublicKey"


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
    wrapper, _ = _obtain_wrapper(origin, vcr_server, ghost, [point])
    request = _signed_request(
        vcr_server, wrapper, VcrAction(ActionKind.ACCESS), local_signer, path
    )
    exchange = _submit(origin, vcr_server, request)
    assert exchange.status == 404
    assert json.loads(exchange.body)["error"] == "NoData"


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
    plaintext = hybrid_decrypt(metadata_secret, box, ACCESS_INFO)
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
    payload = json.loads(hybrid_decrypt(secret, boxes[0], ACCESS_INFO))
    assert wire_key("records", OPT) in payload


def test_encrypt_access_response_tamper(master):
    record = ClientDataRecord(client_id=ClientId("vcid", "abc"), visits=[(1, "/")])
    secret = curve.generate_secret()
    box = encrypt_access_response([record], curve.pubkey_bytes(secret))
    from dataclasses import replace

    broken = replace(box, ciphertext=bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:])
    with pytest.raises(DecryptFailed):
        hybrid_decrypt(secret, broken, ACCESS_INFO)


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
    status = _post_declaring_length(origin, path, MAX_BODY_BYTES + 1)
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
        unified, signatures=(curve.sign_digest(scoped.secret, unified.digest()),)
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
    action[wire_key("response_pubkey", OPT)] = encoding.bin_to_wire(
        _off_curve_point(), OPT
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
