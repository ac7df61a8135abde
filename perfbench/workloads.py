"""The three workloads: one closed-loop client per device, each with a seeded
operation stream and a model of what the server must answer.

A client runs a fixed number of operations back to back, so every commit
does the same work. Every operation checks its output against the model;
a mismatch raises ``CheckFailed`` and counts as a failed operation.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from functools import partial

from vcrkit import curve, encoding, httpwire, vcr
from vcrkit.agent import Agent, VcrOutcome
from vcrkit.errors import VcrkitError
from vcrkit.keyhier import DerivationPath
from vcrkit.server import VCR_ENDPOINT, WIRE_MODE, ClientDataRecord
from vcrkit.vcr import ActionKind, VcrAction

import inputs
import spans

VCR_KINDS = (
    "access", "access_enc", "modify", "sealed_access", "sealed_modify",
    "unified", "roommate", "delete", "vcr",
)
MIN_DELETE_POOL = 50  # below this many plain sessions a DELETE becomes an ACCESS
MAX_LOGGED_ERRORS = 5


class CheckFailed(Exception):
    """An output differs from the model."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class RecordModel:
    """What the server holds for one cookie: visits as (earliest, latest,
    path), since a live visit's server time is only known to lie between
    the client's clock readings around the request."""

    visits: list[tuple[int, int, str]]
    attributes: dict[str, str]


@dataclass
class Context:
    """What every client of one set-up shares."""

    world: inputs.World
    origin: str
    store_paths: list[str]
    signer: object  # anything with sign_digest(path, digest)
    tracer: spans.Tracer | None = None


class TracedSigner:
    """Signer client recording the round trip; the operation id travels as
    the request's summary so the daemon can tag its own spans."""

    def __init__(self, signer, tracer: spans.Tracer) -> None:
        self._sign = tracer.wrap("signer.client_roundtrip", signer.sign_digest)
        self._tracer = tracer

    def sign_digest(self, path, digest):
        return self._sign(path, digest, self._tracer.current_op())


class Client:
    """One closed-loop client; subclasses define ``MIX`` and ``next_op``."""

    workload = ""
    # (operations per block, kind): kinds are drawn from shuffled blocks that
    # hold each kind's exact share, so every seed runs the same mix.
    MIX: tuple[tuple[int, str], ...] = ()

    def __init__(self, index: int, ctx: Context) -> None:
        self.index = index
        self.ctx = ctx
        self.world = ctx.world
        self.device_id = ctx.world.clients[index].device_id
        self.store_path = ctx.store_paths[index]
        self.rng = random.Random(f"perfbench/{self.workload}/{ctx.world.seed}/ops/{index}")
        self.model: dict[str, RecordModel] = {}
        for s in self.world.clients[index].sessions + self.world.clients[index].roommates:
            self.model[s.cookie] = RecordModel(
                [(ts, ts, path) for ts, path in s.history], dict(s.attributes)
            )
        # (kind, latency in ms) per timed operation; a failed operation's
        # latency is infinite.
        self.samples: list[tuple[str, float]] = []
        self.attempted = self.failed = 0
        self.seq = 0  # timed operations so far
        self.timed = False
        self.wire_bytes = 0  # of timed operations
        self.last_accepted: tuple[str, bytes] | None = None
        self._last_stamp: dict[tuple, int] = {}
        self._deck: list[str] = []

    # --- plumbing -------------------------------------------------------------

    def http(self, method, url, headers=None, body=b"", timeout=10.0):
        """httpwire.request, counting header and payload bytes and
        remembering the last accepted request body."""
        tracer = self.ctx.tracer
        request = httpwire.request
        if tracer is not None:
            headers = dict(headers or {}, **{spans.OP_HEADER: tracer.current_op()})
        exchange = request(method, url, headers=headers, body=body, timeout=timeout)
        if self.timed:
            self.wire_bytes += exchange.request_bytes + exchange.response_bytes
        if method == "POST" and url.endswith(VCR_ENDPOINT) and exchange.status == 200:
            self.last_accepted = (url, body)
        return exchange

    def next_kind(self) -> str:
        if not self._deck:
            self._deck = [kind for count, kind in self.MIX for _ in range(count)]
            self.rng.shuffle(self._deck)
        return self._deck.pop()

    def stamp(self, key: tuple) -> int:
        """Request time, bumped past the last one used for the same sessions,
        so that no signed body ever repeats."""
        now = max(int(time.time()), self._last_stamp.get(key, 0) + 1)
        self._last_stamp[key] = now
        return now

    def run(self, ops: int, timed: bool = True) -> None:
        """The next ``ops`` operations of this client's stream. Warm-up
        operations (``timed=False``) are checked but not measured."""
        tracer = self.ctx.tracer
        self.timed = timed
        for n in range(ops):
            kind, op = self.next_op()
            if tracer is not None:
                tracer.set_op(spans.op_id(self.index, self.seq) if timed else spans.NO_OP)
            t0 = time.perf_counter()
            ok = self.attempt(op, f"{kind} ({'timed' if timed else 'warm-up'} #{n})")
            t1 = time.perf_counter()
            if timed:
                self.samples.append((kind, (t1 - t0) * 1e3 if ok else float("inf")))
                self.seq += 1
        self.timed = False
        if tracer is not None:
            tracer.set_op(spans.NO_OP)

    def attempt(self, op, label: str) -> bool:
        self.attempted += 1
        try:
            op()
            return True
        except CheckFailed as exc:
            self._fail(f"{label}: check failed: {exc}")
        except VcrkitError as exc:
            self._fail(f"{label}: {exc.code}: {exc}")
        except Exception:  # noqa: BLE001 - the load loop must keep running
            self._fail(f"{label}: {traceback.format_exc()}")
        return False

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_LOGGED_ERRORS:
            print(f"client {self.index}: {message}", file=sys.stderr)

    # --- shared operations ----------------------------------------------------------

    def check_records(self, outcome: VcrOutcome, cookies: list[str]) -> None:
        expect(outcome.status == 200, f"status {outcome.status} ({outcome.error})")
        records = outcome.records or []
        got = [r.client_id.cookie_value for r in records]
        expect(got == cookies, "records for other cookies than requested")
        for record in records:
            model = self.model[record.client_id.cookie_value]
            expect(record.attributes == model.attributes, "attributes differ from the model")
            expect(len(record.visits) == len(model.visits), "visit count differs from the model")
            for (ts, path), (lo, hi, want) in zip(record.visits, model.visits):
                expect(path == want and lo <= ts <= hi, "visits differ from the model")

    def access(self, agent: Agent, session, encrypt: bool = False, seal: bool = False) -> None:
        secret = self.rng.randrange(1, curve.N) if encrypt else None
        action = VcrAction(
            ActionKind.ACCESS,
            response_pubkey=curve.pubkey_bytes(secret) if encrypt else None,
        )
        cookie = session.client_id.cookie_value
        outcome = agent.submit_request(
            [session], action, self.ctx.signer, self.stamp((cookie,)),
            seal=seal, response_secret=secret,
        )
        self.check_records(outcome, [cookie])

    def delete(self, agent: Agent, session) -> None:
        cookie = session.client_id.cookie_value
        outcome = agent.submit_request(
            [session], VcrAction(ActionKind.DELETE), self.ctx.signer, self.stamp((cookie,))
        )
        expect(outcome.status == 200 and outcome.payload == {"ok": True}, "DELETE refused")
        del self.model[cookie]

    def visit_model(self, session, page: str, lo: int, hi: int) -> None:
        """Record a page view the client stamped ``lo`` in the model and check
        the agent recorded it."""
        self.model[session.client_id.cookie_value].visits.append((lo, hi, page))
        expect(session.history[-1] == (lo, page), "agent history missed the visit")

    # --- checks after the timed phase ------------------------------------------------

    def post_checks(self) -> None:
        """Store contents, one ACCESS, its replay (403 ReplayDetected) and an
        ACCESS on a deleted session (404 NoData)."""
        agent = Agent.load(self.store_path, http=self.http)
        self.attempt(partial(self.check_store, agent), "store check")
        self.last_accepted = None
        self.attempt(partial(self.access, agent, self.check_target(agent)), "check access")
        self.attempt(self.check_replay, "replay check")
        self.attempt(partial(self.check_deleted, agent), "deleted-session check")

    def check_store(self, agent: Agent) -> None:
        """The store on disk holds every session the model knows, with one
        history entry, stamped with the client's time, per server visit."""
        by_cookie = {s.client_id.cookie_value: s for s in agent.store.sessions}
        for cookie, model in self.model.items():
            session = by_cookie.get(cookie)
            if session is None:  # roommate groups live outside the store
                continue
            expect(
                session.history == [(lo, path) for lo, _, path in model.visits],
                "stored history differs from the model",
            )

    def check_target(self, agent: Agent):
        return agent.store.sessions[-1]

    def check_replay(self) -> None:
        expect(self.last_accepted is not None, "no accepted request to replay")
        url, body = self.last_accepted
        exchange = self.http("POST", url, headers={"Content-Type": "application/json"}, body=body)
        error = json.loads(exchange.body).get("error")
        expect((exchange.status, error) == (403, "ReplayDetected"), f"replay answered {exchange.status} {error}")

    def deleted_session(self, agent: Agent):
        """A session deleted during the run, or one deleted now."""
        session = agent.store.sessions[0]
        self.delete(agent, session)
        return session

    def check_deleted(self, agent: Agent) -> None:
        session = self.deleted_session(agent)
        cookie = session.client_id.cookie_value
        outcome = agent.submit_request(
            [session], VcrAction(ActionKind.ACCESS), self.ctx.signer, self.stamp((cookie,))
        )
        expect((outcome.status, outcome.error) == (404, "NoData"), f"deleted session answered {outcome.status} {outcome.error}")

    def next_op(self):
        raise NotImplementedError


class Browse(Client):
    """90% return page views, 10% first visits on the live origin."""

    workload = "browse"
    MIX = ((1, "first_visit"), (9, "return_visit"))

    def __init__(self, index: int, ctx: Context) -> None:
        super().__init__(index, ctx)
        self.agent = Agent.load(self.store_path, http=self.http)
        self.next_j = self.agent.store.next_j

    def next_op(self):
        kind = self.next_kind()
        return kind, partial(self.visit, self.rng.choice(inputs.PAGES), kind == "first_visit")

    def visit(self, page: str, fresh: bool) -> None:
        latest = self.agent.store.sessions[-1]
        lo = int(time.time())
        session, _ = self.agent.visit(self.ctx.origin + page, lo, fresh=fresh)
        hi = int(time.time())
        expect(session is not None, "page view joined no session")
        if fresh:
            expect(session.path == DerivationPath((self.device_id, self.next_j)), "unexpected session path")
            expect(session.client_id.cookie_value not in self.model, "server reused a cookie")
            self.next_j += 1
            self.model[session.client_id.cookie_value] = RecordModel([], {})
        else:
            expect(session is latest, "return visit joined another session")
        self.visit_model(session, page, lo, hi)


class VcrMix(Client):
    """Consumer requests over plain, unified and roommate sessions."""

    workload = "vcr-mix"
    MIX = (
        (40, "access"),
        (20, "access_enc"),
        (15, "modify"),
        (5, "sealed_access"),
        (5, "sealed_modify"),
        (10, "unified"),
        (3, "roommate"),
        (2, "delete"),
    )

    def __init__(self, index: int, ctx: Context) -> None:
        super().__init__(index, ctx)
        self.agent = Agent.load(self.store_path, http=self.http)
        self.plain = [s for s in self.agent.store.sessions if not s.is_unified]
        self.unified = [s for s in self.agent.store.sessions if s.is_unified]
        self.roommates = self.world.clients[index].roommates
        self.deleted: list = []

    def next_op(self):
        kind = self.next_kind()
        if kind == "delete" and len(self.plain) <= MIN_DELETE_POOL:
            kind = "access"
        if kind == "unified":
            return kind, partial(self.unified_access, self.rng.sample(self.unified, 3))
        if kind == "roommate":
            return kind, partial(self.roommate_access, self.rng.choice(self.roommates))
        session = self.rng.choice(self.plain)
        if kind == "access":
            return kind, partial(self.access, self.agent, session)
        if kind == "access_enc":
            return kind, partial(self.access, self.agent, session, encrypt=True)
        if kind == "modify":
            return kind, partial(self.modify, session)
        if kind == "sealed_access":
            return kind, partial(self.access, self.agent, session, seal=True)
        if kind == "sealed_modify":
            return kind, partial(self.modify, session, seal=True)
        return kind, partial(self.retire, session)

    def modify(self, session, seal: bool = False) -> None:
        cookie = session.client_id.cookie_value
        attributes = self.model[cookie].attributes
        name = self.rng.choice(sorted(attributes))
        new = f"{name}-{self.rng.getrandbits(48):012x}"
        action = VcrAction(ActionKind.MODIFY, changes=((name, attributes[name], new),))
        outcome = self.agent.submit_request(
            [session], action, self.ctx.signer, self.stamp((cookie,)), seal=seal
        )
        expect(outcome.status == 200 and outcome.payload == {"ok": True}, f"MODIFY answered {outcome.status} {outcome.error}")
        attributes[name] = new

    def unified_access(self, sessions) -> None:
        cookies = [s.client_id.cookie_value for s in sessions]
        outcome = self.agent.submit_request(
            sessions, VcrAction(ActionKind.ACCESS), self.ctx.signer,
            self.stamp(tuple(cookies)), unified=True,
        )
        self.check_records(outcome, cookies)

    def roommate_access(self, group: inputs.Roommate) -> None:
        request = vcr.build_vcr([group.wrapper], VcrAction(ActionKind.ACCESS), self.stamp((group.cookie,)))
        for path in group.paths:
            request = vcr.sign_vcr(request, self.ctx.signer, path)
        exchange = self.http(
            "POST",
            self.ctx.origin + VCR_ENDPOINT,
            headers={"Content-Type": "application/json"},
            body=encoding.to_wire(request, WIRE_MODE).encode(),
        )
        payload = json.loads(exchange.body)
        records = payload.get(encoding.wire_key("records", WIRE_MODE)) or []
        outcome = VcrOutcome(
            status=exchange.status,
            payload=payload,
            records=[ClientDataRecord.from_wire_dict(raw, WIRE_MODE) for raw in records],
            error=payload.get("error"),
        )
        self.check_records(outcome, [group.cookie])

    def retire(self, session) -> None:
        self.plain.remove(session)
        self.delete(self.agent, session)
        self.deleted.append(session)

    def check_target(self, agent: Agent):
        return next(s for s in agent.store.sessions if s.client_id.cookie_value in self.model)

    def deleted_session(self, agent: Agent):
        if self.deleted:
            return self.deleted[0]
        return super().deleted_session(agent)


class ColdClient(Client):
    """Each operation loads the store as one CLI call would, then makes a
    return page view (70%) or a plain ACCESS (30%)."""

    workload = "cold-client"
    MIX = ((7, "return_visit"), (3, "vcr"))

    def __init__(self, index: int, ctx: Context) -> None:
        super().__init__(index, ctx)
        self.sessions = len(self.world.clients[index].sessions)

    def next_op(self):
        if self.next_kind() == "return_visit":
            return "return_visit", partial(self.visit, self.rng.choice(inputs.PAGES))
        return "vcr", partial(self.cold_access, self.rng.randrange(self.sessions))

    def visit(self, page: str) -> None:
        agent = Agent.load(self.store_path, http=self.http)
        latest = agent.store.sessions[-1]
        lo = int(time.time())
        session, _ = agent.visit(self.ctx.origin + page, lo)
        hi = int(time.time())
        expect(session is not None and session.client_id == latest.client_id, "visit joined another session")
        self.visit_model(session, page, lo, hi)

    def cold_access(self, position: int) -> None:
        agent = Agent.load(self.store_path, http=self.http)
        self.access(agent, agent.store.sessions[position])


CLIENTS = {cls.workload: cls for cls in (Browse, VcrMix, ColdClient)}


def run_clients(clients: list[Client], ops: int, timed: bool = True) -> tuple[float, float]:
    """Run every client in its own thread; returns the perf_counter readings
    at the start and the end."""
    threads = [
        threading.Thread(target=c.run, args=(ops, timed), name=f"client-{c.index}")
        for c in clients
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return start, time.perf_counter()
