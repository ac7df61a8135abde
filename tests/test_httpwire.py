"""The HTTP client's held connection: reuse, framing and the resend rule."""

import socket
import threading
import time

import pytest

from vcrkit import curve, encoding, httpwire
from vcrkit.encoding import WireMode
from vcrkit.errors import NetworkError, QuietDisconnects
from vcrkit.keyhier import DerivationPath, derive_path, generate_master, neuter
from vcrkit.server import (
    COOKIE_NAME,
    WRAPPER_ENDPOINT,
    ClientDataRecord,
    VcrHttpServer,
    VcrServer,
    encrypt_access_response,
)
from vcrkit.vcr import ActionKind, UnifiedProof, VcrAction, VcrRequest
from vcrkit.wrapper import (
    ClientId,
    MultiSigPolicy,
    WrapperRequest,
    fresh_cookie_value,
    issue_wrapper,
)

OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
_SCOPED = neuter(generate_master(b"httpwire-test-scoped-key"))


class CountedServer(VcrHttpServer):
    """The reference server, counting the connections it accepts."""

    accepts = 0

    def process_request(self, request, client_address):  # the serve loop's thread
        self.accepts += 1
        super().process_request(request, client_address)


@pytest.fixture()
def counted():
    httpd = CountedServer(("127.0.0.1", 0), VcrServer())
    httpd.serve_in_thread()
    yield httpd
    httpd.close()


class RawServer:
    """A loopback listener that reads request heads (no bodies) and sends
    ``answers[n]`` for the n-th request it reads: None reads the request and
    never answers, a callable is called with the connection to answer on,
    and an answer without a Content-Length closes its connection after it
    is sent."""

    def __init__(self, answers):
        self.answers = answers
        self.requests: list[bytes] = []
        self.accepts = 0
        self.eof = threading.Event()  # a client closed its connection
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.origin = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:  # closed
                return
            self.accepts += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn:
            buffered = b""
            while True:
                while b"\r\n\r\n" not in buffered:
                    chunk = conn.recv(65536)
                    if not chunk:
                        self.eof.set()
                        return
                    buffered += chunk
                head, _, buffered = buffered.partition(b"\r\n\r\n")
                self.requests.append(head)
                answer = self.answers[len(self.requests) - 1]
                if callable(answer):
                    answer(conn)
                elif answer is not None:
                    conn.sendall(answer)
                    if b"Content-Length" not in answer:
                        return

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.listener.close()


@pytest.fixture()
def raw_servers():
    started = []

    def start(answers):
        started.append(RawServer(answers))
        return started[-1]

    yield start
    for raw in started:
        raw.close()


def _page(origin, cookie=None):
    headers = {"Cookie": f"{COOKIE_NAME}={cookie}"} if cookie else {}
    return httpwire.request("GET", origin + "/", headers=headers)


def test_two_page_views_from_one_thread_use_one_connection(counted):
    assert _page(counted.origin).status == 200
    assert _page(counted.origin).status == 200
    assert counted.accepts == 1


def test_a_request_on_a_connection_the_server_closed_arrives_once(
    counted, monkeypatch, master_pub
):
    """The server closes the held connection after READ_SECONDS idle; the
    wrapper POST that meets it closed is sent again on a new connection and
    handled once: 200, not 409, and the record holds the one visit sent."""
    monkeypatch.setattr(counted, "READ_SECONDS", 0.3)
    vcr_server = counted.vcr
    handled = []
    handle = vcr_server.handle_wrapper_request

    def recorded(body):
        handled.append(body)
        return handle(body)

    monkeypatch.setattr(vcr_server, "handle_wrapper_request", recorded)
    page = _page(counted.origin)
    cookie = page.set_cookies[0].split(";", 1)[0].partition("=")[2]
    time.sleep(0.5)
    point = derive_path(master_pub, DerivationPath((0, 0))).public_point
    body = encoding.to_wire(
        WrapperRequest(ClientId(COOKIE_NAME, cookie), (point,)), WireMode.OPTIMIZED
    ).encode()
    exchange = httpwire.request(
        "POST",
        counted.origin + WRAPPER_ENDPOINT,
        headers={"Cookie": f"{COOKIE_NAME}={cookie}"},
        body=body,
    )
    assert exchange.status == 200, exchange.body
    assert handled == [body]
    assert counted.accepts == 2
    assert len(vcr_server.get_record(cookie).visits) == 1


def test_after_a_refusal_that_closes_the_next_request_connects_anew(
    counted, monkeypatch
):
    monkeypatch.setattr(counted, "MAX_MESSAGE_BYTES", 8)
    assert _page(counted.origin).status == 200
    url = counted.origin + WRAPPER_ENDPOINT
    refused = httpwire.request("POST", url, body=b"{}" * 8)
    assert (refused.status, refused.headers["connection"]) == (413, "close")
    assert refused.body == b'{"error":"BodyTooLarge"}'
    assert _page(counted.origin).status == 200
    assert counted.accepts == 2


def test_no_resend_after_a_timeout(raw_servers):
    raw = raw_servers([OK, None])
    assert httpwire.request("GET", raw.origin + "/a").body == b"ok"
    started = time.perf_counter()
    with pytest.raises(NetworkError, match="timed out"):
        httpwire.request("GET", raw.origin + "/b", timeout=0.3)
    assert time.perf_counter() - started < 2
    assert raw.eof.wait(2)  # the client gave the connection up ...
    time.sleep(0.1)
    assert [head.split(b" ")[1] for head in raw.requests] == [b"/a", b"/b"]
    assert raw.accepts == 1  # ... and sent nothing again


def test_a_response_without_length_is_read_to_eof_and_not_held(raw_servers):
    raw = raw_servers([b"HTTP/1.1 200 OK\r\n\r\nuntil the end", OK])
    first = httpwire.request("GET", raw.origin + "/")
    assert first.body == b"until the end"
    assert first.response_body_bytes == len(b"until the end")
    assert httpwire.request("GET", raw.origin + "/").body == b"ok"
    assert raw.accepts == 2


def test_a_request_to_another_origin_closes_the_held_connection(raw_servers):
    first, second = raw_servers([OK]), raw_servers([OK])
    assert httpwire.request("GET", first.origin + "/").body == b"ok"
    assert not first.eof.is_set()
    assert httpwire.request("GET", second.origin + "/").body == b"ok"
    assert first.eof.wait(2)


def test_page_views_on_a_held_connection_do_not_wait_for_delayed_acks(counted):
    """A response sent as headers then body in two writes waits about 40 ms
    for the client's delayed ACK on a kept-alive connection."""
    _page(counted.origin)
    started = time.perf_counter()
    for _ in range(50):
        assert _page(counted.origin).status == 200
    assert time.perf_counter() - started < 1.0
    assert counted.accepts == 1


def test_a_closed_server_answers_no_held_connection(counted):
    """close() ends the idle held connection at once, not READ_SECONDS later,
    so nothing reaches the records after the snapshot."""
    assert _page(counted.origin).status == 200
    started = time.perf_counter()
    counted.close()
    assert time.perf_counter() - started < 1.0
    with pytest.raises(NetworkError, match="refused"):
        _page(counted.origin)
    assert counted.vcr.record_count() == 1


def test_a_body_over_the_limit_is_refused_and_not_held(raw_servers, monkeypatch):
    monkeypatch.setattr(httpwire, "MAX_BODY_BYTES", 16)
    long_body = b"HTTP/1.1 200 OK\r\nContent-Length: 17\r\n\r\n" + b"x" * 17
    raw = raw_servers([long_body, OK])
    with pytest.raises(NetworkError, match="over the limit"):
        httpwire.request("GET", raw.origin + "/")
    assert raw.eof.wait(2)
    assert httpwire.request("GET", raw.origin + "/").body == b"ok"
    assert raw.accepts == 2


def test_a_body_read_to_eof_over_the_limit_is_refused(raw_servers, monkeypatch):
    monkeypatch.setattr(httpwire, "MAX_BODY_BYTES", 16)
    raw = raw_servers([b"HTTP/1.1 200 OK\r\n\r\n" + b"x" * 17])
    with pytest.raises(NetworkError, match="over the limit"):
        httpwire.request("GET", raw.origin + "/")


def test_a_header_block_over_the_limit_is_refused(raw_servers, monkeypatch):
    monkeypatch.setattr(httpwire, "MAX_HEADER_BYTES", 64)
    padded = OK.replace(b"\r\n", b"\r\nX-Pad: " + b"p" * 64 + b"\r\n", 1)
    raw = raw_servers([padded, OK])
    with pytest.raises(NetworkError, match="header block over the limit"):
        httpwire.request("GET", raw.origin + "/")
    assert raw.eof.wait(2)


def test_a_header_block_in_many_reads_is_found(raw_servers):
    """The blank line that ends the head may straddle two reads."""

    def in_pieces(conn):
        for piece in (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r", b"\n\r", b"\nok"):
            conn.sendall(piece)
            time.sleep(0.05)

    raw = raw_servers([in_pieces])
    exchange = httpwire.request("GET", raw.origin + "/")
    assert (exchange.status, exchange.body) == (200, b"ok")
    assert exchange.response_header_bytes == len(
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n"
    )


def test_a_trickling_server_meets_the_deadline(raw_servers):
    """Each byte arrives well within ``timeout``, the whole answer does not."""

    def trickle(conn):
        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n")
        for _ in range(20):
            time.sleep(0.1)
            try:
                conn.sendall(b"x")
            except OSError:  # the client gave up
                return

    raw = raw_servers([trickle])
    started = time.perf_counter()
    with pytest.raises(NetworkError, match="timed out"):
        httpwire.request("GET", raw.origin + "/", timeout=0.5)
    assert time.perf_counter() - started < 1.0


def test_a_held_connection_with_a_reply_over_the_limit_is_not_held_again(
    raw_servers, monkeypatch
):
    monkeypatch.setattr(httpwire, "MAX_BODY_BYTES", 16)
    too_long = b"HTTP/1.1 200 OK\r\nContent-Length: 17\r\n\r\n" + b"x" * 17
    raw = raw_servers([OK, too_long, OK])
    assert httpwire.request("GET", raw.origin + "/a").body == b"ok"
    with pytest.raises(NetworkError, match="over the limit"):
        httpwire.request("GET", raw.origin + "/b")
    assert raw.eof.wait(2)  # closed, not held ...
    assert httpwire.request("GET", raw.origin + "/c").body == b"ok"
    assert [head.split(b" ")[1] for head in raw.requests] == [b"/a", b"/b", b"/c"]
    assert raw.accepts == 2  # ... and /b was not sent again


def test_a_unified_access_answer_fits_the_body_limit(
    loopback, provisioned_agent, local_signer
):
    """The reference server's largest answer is an ACCESS over a unified
    request; one of several MiB arrives whole under the default limits."""
    vcr_server, _, origin = loopback
    now = int(time.time())
    sessions = [
        provisioned_agent.visit(origin + "/", now, unified=True, fresh=True)[0]
        for _ in range(3)
    ]
    history = [(1_754_650_000 + i, "/" + "p" * 63) for i in range(20_000)]
    for session in sessions:
        record = vcr_server.get_record(session.wrapper.client_id.cookie_value)
        record.visits.extend(history)
    access = VcrAction(ActionKind.ACCESS)
    outcome = provisioned_agent.submit_request(
        sessions, access, local_signer, now, unified=True
    )
    assert outcome.status == 200
    assert outcome.exchange.response_body_bytes > 4 * 1024 * 1024
    assert [len(r["A"]) for r in outcome.payload["D"]] == [20_001] * 3


def test_the_largest_unified_access_answer_fits_the_body_limit(server_key):
    """A unified request of at most MAX_MESSAGE_BYTES names about 4,000
    sessions; with 100 visits of 64-byte paths each, their sealed ACCESS
    answer is still under MAX_BODY_BYTES."""
    response_key = curve.pubkey_bytes(curve.generate_secret())
    history = [(1_754_650_000 + i, "/" + "p" * 63) for i in range(100)]

    def sizes(count):
        wrappers = [
            issue_wrapper(
                server_key,
                ClientId(COOKIE_NAME, fresh_cookie_value()),
                MultiSigPolicy((response_key,)),
                1_754_650_000,
            )
            for _ in range(count)
        ]
        request = VcrRequest(
            1,
            tuple(wrappers),
            VcrAction(ActionKind.ACCESS, response_pubkey=response_key),
            1_754_650_000,
            UnifiedProof(_SCOPED, tuple(range(count))),
            (b"\x00" * 64,),
        )
        records = [ClientDataRecord(w.client_id, list(history)) for w in wrappers]
        answer = encrypt_access_response(records, response_key)
        return len(encoding.to_wire(request, WireMode.OPTIMIZED)), len(
            encoding.to_wire(answer, WireMode.OPTIMIZED)
        )

    (request_1, answer_1), (request_2, answer_2) = sizes(1), sizes(2)
    limit = QuietDisconnects.MAX_MESSAGE_BYTES
    sessions = (limit - request_1) // (request_2 - request_1) + 1
    assert sessions > 4_000
    largest = answer_1 + (sessions - 1) * (answer_2 - answer_1)
    assert largest + 4 < httpwire.MAX_BODY_BYTES  # 4: base64 rounding
