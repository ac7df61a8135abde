"""Benchmark harness: per-phase latency, flow bandwidth, store sizes.

Latencies are monotonic-clock averages over a declared run count, each phase
measured in isolation. Bandwidth is counted from the bytes of the agent's own
exchanges with a loopback instance of the reference server, split into
header and payload. Storage numbers come straight from the wire encodings,
so they are deterministic across runs.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, replace

from . import curve, encoding, httpwire
from .agent import SESSION_ROW, Agent, AgentStore, SessionRecord
from .encoding import WireMode
from .errors import BenchEnvironmentError
from .keyhier import derive_child_pub
from .server import COOKIE_NAME, VcrHttpServer, VcrServer
from .signer import ConfirmationPolicy, SignerState
from .vcr import ActionKind, ReplayCache, VcrAction, build_vcr, sign_vcr, verify_vcr
from .wrapper import (
    ClientId,
    MultiSigPolicy,
    check_wrapper_echo,
    fresh_cookie_value,
    issue_wrapper,
    verify_wrapper,
)

SCHEMA_VERSION = 1
DEFAULT_RUNS = 10

LATENCY_PHASES = (
    "key_derivation",
    "wrapper_generation",
    "wrapper_verification",
    "wrapper_storage",
    "history_matching",
    "history_update",
    "vcr_generation",
    "vcr_verification",
)


def _flow_bytes(exchange: httpwire.HttpExchange) -> dict[str, int]:
    counts = {
        "request_header_bytes": exchange.request_header_bytes,
        "request_payload_bytes": exchange.request_body_bytes,
        "response_header_bytes": exchange.response_header_bytes,
        "response_payload_bytes": exchange.response_body_bytes,
    }
    counts["total_bytes"] = sum(counts.values())
    return counts


@dataclass
class BenchReport:
    runs: int
    latency_ms: dict[str, float]
    bandwidth: dict[str, httpwire.HttpExchange]
    storage_bytes: dict[str, int]
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "runs": self.runs,
            "latency_ms": {k: round(v, 4) for k, v in self.latency_ms.items()},
            "bandwidth": {k: _flow_bytes(v) for k, v in self.bandwidth.items()},
            "storage_bytes": dict(self.storage_bytes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_table(self) -> str:
        lines = [f"latency (avg over {self.runs} runs)"]
        for phase in LATENCY_PHASES:
            lines.append(f"  {phase:<22} {self.latency_ms[phase]:>9.3f} ms")
        lines.append("bandwidth (header + payload)")
        for flow, exchange in self.bandwidth.items():
            request, response = exchange.request_bytes, exchange.response_bytes
            lines.append(
                f"  {flow:<22} request {request:>5} B"
                f"  response {response:>5} B"
                f"  total {(request + response) / 1000:.2f} kB"
            )
        lines.append("storage")
        for name, size in self.storage_bytes.items():
            lines.append(f"  {name:<34} {size:>6} B")
        return "\n".join(lines)


def _average(fn, runs: int) -> float:
    total = 0.0
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        total += time.perf_counter() - start
    return total / runs * 1000.0


def run_bench(runs: int = DEFAULT_RUNS, seed: bytes | None = None) -> BenchReport:
    if runs < 1:
        raise BenchEnvironmentError("runs must be >= 1")
    with tempfile.TemporaryDirectory(prefix="vcrkit-bench-") as workdir:
        signer = SignerState.init(
            "bench",
            seed or os.urandom(32),
            os.path.join(workdir, "signer.state"),
            policy=ConfirmationPolicy.AUTO_APPROVE,
        )
        device_xpub = signer.issue_device_xpub(0)

        vcr_server = VcrServer()
        try:
            httpd = VcrHttpServer(("127.0.0.1", 0), vcr_server)
        except OSError as exc:
            raise BenchEnvironmentError(f"cannot bind loopback server: {exc}") from None
        httpd.serve_in_thread()

        try:
            return _run_phases(runs, workdir, device_xpub, signer, vcr_server, httpd)
        finally:
            httpd.close()


def _run_phases(runs, workdir, device_xpub, signer, vcr_server, httpd) -> BenchReport:
    now = int(time.time())
    origin = httpd.origin
    store_path = os.path.join(workdir, "agent.store")
    store = AgentStore()
    store.provision_device(device_xpub, 0)
    exchanges: list[httpwire.HttpExchange] = []

    def recording_http(*args, **kwargs) -> httpwire.HttpExchange:
        exchanges.append(httpwire.request(*args, **kwargs))
        return exchanges[-1]

    agent = Agent(store, store_path=store_path, http=recording_http)

    session, _ = agent.visit(origin + "/", now)
    if session is None:
        raise BenchEnvironmentError("loopback server did not advertise endpoints")

    latency: dict[str, float] = {}

    curve.scalar_base_mult(2)  # warm the comb table outside any timing

    counter = [1000]

    def derive_phase():
        counter[0] += 1
        derive_child_pub(device_xpub, counter[0])

    latency["key_derivation"] = _average(derive_phase, runs)

    cookie = ClientId(COOKIE_NAME, fresh_cookie_value())
    policy = MultiSigPolicy((derive_child_pub(device_xpub, 999).public_point,))
    latency["wrapper_generation"] = _average(
        lambda: issue_wrapper(vcr_server.server_key, cookie, policy, now), runs
    )

    fixture_wrapper = issue_wrapper(vcr_server.server_key, cookie, policy, now)

    def verify_phase():
        verify_wrapper(vcr_server.server_key.public_point, fixture_wrapper)
        check_wrapper_echo(policy, cookie, fixture_wrapper)

    latency["wrapper_verification"] = _average(verify_phase, runs)

    def storage_phase():
        path = agent.store.claim_path(origin, unified=False)
        client_id = ClientId(COOKIE_NAME, fresh_cookie_value())
        record = SessionRecord(
            server_origin=origin,
            endpoints=vcr_server.advertisement,
            client_id=client_id,
            path=path,
            wrapper=issue_wrapper(
                vcr_server.server_key,
                client_id,
                MultiSigPolicy((derive_child_pub(device_xpub, path.segments[1]).public_point,)),
                now,
            ),
            created_at=now,
        )
        start = time.perf_counter()
        agent.store.add_session(record)
        agent.save()
        return time.perf_counter() - start

    total = 0.0
    for _ in range(runs):
        total += storage_phase()
    latency["wrapper_storage"] = total / runs * 1000.0

    cid = session.client_id
    latency["history_matching"] = _average(
        lambda: agent.store.find_by_cookie(origin, cid.cookie_name, cid.cookie_value),
        runs,
    )

    def history_phase():
        agent.store.record_visit(
            [(cid.cookie_name, cid.cookie_value)], origin + "/page", now
        )
        agent.save()

    latency["history_update"] = _average(history_phase, runs)

    sign_path = session.path

    def vcr_generation_phase():
        request = build_vcr([session.wrapper], VcrAction(ActionKind.ACCESS), now)
        sign_vcr(request, signer, sign_path)

    latency["vcr_generation"] = _average(vcr_generation_phase, runs)

    signed = sign_vcr(
        build_vcr([session.wrapper], VcrAction(ActionKind.ACCESS), now),
        signer,
        sign_path,
    )
    # Fresh cache per run so the replay guard never rejects the probe.
    latency["vcr_verification"] = _average(
        lambda: verify_vcr(
            vcr_server.server_key.public_point, signed, now, ReplayCache()
        ),
        runs,
    )

    # The flows the bandwidth table counts: a first visit's wrapper request,
    # then an ACCESS request over the session it started.
    flow_session, _ = agent.visit(origin + "/bench-flow", now, fresh=True)
    wrapper_exchange = exchanges[-1]
    outcome = agent.submit_request(
        [flow_session], VcrAction(ActionKind.ACCESS), signer, now
    )
    if outcome.status != 200:
        raise BenchEnvironmentError("vcr flow failed during bandwidth run")

    # A session as a store record holds it, one row, with no history and
    # with 100 visits.
    baseline = agent.store.stored(replace(session, history=[]))
    hundred = replace(
        baseline, history=[(session.created_at + i, "/some/page") for i in range(100)]
    )

    def row_size(stored, mode: WireMode) -> int:
        return encoding.json_size(SESSION_ROW.encode[mode](stored))

    return BenchReport(
        runs=runs,
        latency_ms=latency,
        bandwidth={"obtain_wrapper": wrapper_exchange, "verify_vcr": outcome.exchange},
        storage_bytes={
            "baseline_optimized": row_size(baseline, WireMode.OPTIMIZED),
            "baseline_verbose": row_size(baseline, WireMode.VERBOSE),
            "history100_optimized": row_size(hundred, WireMode.OPTIMIZED),
            "history100_verbose": row_size(hundred, WireMode.VERBOSE),
        },
    )
