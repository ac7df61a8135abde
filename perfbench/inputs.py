"""Seeded input generator: server key, server snapshot, signer seed, agent stores.

Everything is built through vcrkit's public API from one ``random.Random``
per seed, so the same seed and origin give byte-identical files. Stores are
written directly instead of being grown through the live flow, which is
quadratic in the number of sessions.

A ``World`` is the in-memory description of one workload's inputs and the
model the output checks compare against: per client, every session's
history, the server's visits and attributes for it, and roommate groups.
"""

from __future__ import annotations

import os
import random
import uuid
from dataclasses import dataclass, field

from vcrkit import curve, server as vserver
from vcrkit.agent import AgentStore, SessionRecord
from vcrkit.keyhier import (
    DerivationPath,
    derive_child_priv,
    derive_child_pub,
    generate_master,
    neuter,
)
from vcrkit.server import (
    COOKIE_NAME,
    VCR_ENDPOINT,
    WRAPPER_ENDPOINT,
    EndpointAdvertisement,
    VcrServer,
)
from vcrkit.wrapper import ClientId, MultiSigPolicy, ServerKey, Wrapper, issue_wrapper

CLIENTS = 2
T_GEN = 1_700_000_000  # generated history lies in the hour before this time
PASSPHRASE = "perfbench passphrase, not a secret"
ROOMMATE_BASE = 5000  # member keys of roommate group r: m/d/(5000 + 3r + i)
ROOMMATE_MEMBERS = 3
UNIFIED_SERVER_ID = 0

KEY_FILE = "server.key"
SNAPSHOT_FILE = "server.snapshot"
SIGNER_SEED_FILE = "signer.seed"


@dataclass(frozen=True)
class Sizes:
    plain: int  # plain sessions per client (m/d/j)
    unified: int = 0  # unified sessions per client (m/d/0/j)
    roommates: int = 0  # 3-member roommate groups per client
    visits: tuple[int, int] = (2, 8)  # history entries per session, inclusive
    attributes: int = 0  # modifiable attributes per server record


SIZES = {
    "browse": Sizes(plain=100, visits=(3, 9)),
    "vcr-mix": Sizes(plain=150, unified=40, roommates=8, visits=(2, 6), attributes=3),
    "cold-client": Sizes(plain=400, visits=(3, 9), attributes=1),
}

PAGES = ("/", "/shop", "/cart", "/news", "/about", "/help", "/search", "/account")
ATTRIBUTE_NAMES = ("email", "phone", "newsletter", "zip")


@dataclass
class Session:
    """One generated session, from the client's and the server's side."""

    cookie: str
    path: DerivationPath
    wrapper: Wrapper
    history: list[tuple[int, str]]
    attributes: dict[str, str]

    @property
    def unified(self) -> bool:
        return len(self.path.segments) == 3


@dataclass
class Roommate:
    """A shared-device session: one wrapper binding three member keys."""

    cookie: str
    paths: tuple[DerivationPath, ...]
    wrapper: Wrapper
    history: list[tuple[int, str]]
    attributes: dict[str, str]


@dataclass
class ClientWorld:
    device_id: int
    device_xpub: object
    sessions: list[Session] = field(default_factory=list)
    roommates: list[Roommate] = field(default_factory=list)


@dataclass
class World:
    workload: str
    seed: int
    server_secret: int
    signer_seed: bytes
    clients: list[ClientWorld]

    @property
    def server_key(self) -> ServerKey:
        return ServerKey(secret=self.server_secret)


def make_world(workload: str, seed: int) -> World:
    """Sessions, wrappers and server records for ``workload``, from ``seed``."""
    sizes = SIZES[workload]
    rng = random.Random(f"perfbench/{workload}/{seed}")
    server_key = ServerKey(secret=rng.randrange(1, curve.N))
    signer_seed = rng.randbytes(32)
    master = generate_master(signer_seed)

    def history() -> list[tuple[int, str]]:
        count = rng.randint(*sizes.visits)
        start = T_GEN - 3600 + rng.randrange(1800)
        return [(start + 60 * i + rng.randrange(60), rng.choice(PAGES)) for i in range(count)]

    def attributes() -> dict[str, str]:
        names = ATTRIBUTE_NAMES[: sizes.attributes]
        return {name: f"{name}-{rng.getrandbits(48):012x}" for name in names}

    def cookie() -> str:
        return str(uuid.UUID(int=rng.getrandbits(128), version=4))

    clients = []
    for device_id in range(CLIENTS):
        device_xpub = neuter(derive_child_priv(master, device_id))
        cw = ClientWorld(device_id=device_id, device_xpub=device_xpub)
        scoped = derive_child_pub(device_xpub, UNIFIED_SERVER_ID) if sizes.unified else None
        specs = [(derive_child_pub(device_xpub, j), (device_id, j)) for j in range(sizes.plain)]
        specs += [
            (derive_child_pub(scoped, j), (device_id, UNIFIED_SERVER_ID, j))
            for j in range(sizes.unified)
        ]
        for xpub, segments in specs:
            hist = history()
            value = cookie()
            wrapper = issue_wrapper(
                server_key,
                ClientId(COOKIE_NAME, value),
                MultiSigPolicy((xpub.public_point,)),
                hist[0][0],
            )
            cw.sessions.append(
                Session(value, DerivationPath(segments), wrapper, hist, attributes())
            )
        for r in range(sizes.roommates):
            paths = tuple(
                DerivationPath((device_id, ROOMMATE_BASE + ROOMMATE_MEMBERS * r + i))
                for i in range(ROOMMATE_MEMBERS)
            )
            keys = [derive_child_pub(device_xpub, p.segments[1]).public_point for p in paths]
            hist = history()
            value = cookie()
            wrapper = issue_wrapper(
                server_key, ClientId(COOKIE_NAME, value), MultiSigPolicy(tuple(keys)), hist[0][0]
            )
            cw.roommates.append(Roommate(value, paths, wrapper, hist, attributes()))
        clients.append(cw)
    return World(workload, seed, server_key.secret, signer_seed, clients)


class _Clock:
    def __init__(self) -> None:
        self.now = T_GEN

    def __call__(self) -> int:
        return self.now


def write_server_inputs(world: World, directory: str) -> None:
    """Key file (as ``vcrkit serve --key-file`` reads it), snapshot, signer seed.

    The snapshot's records are created through ``handle_page_request`` and
    ``set_attribute``; the server's cookie generator is rebound for the
    duration so that cookie values come from the seed.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, KEY_FILE), "w", encoding="utf-8") as fh:
        fh.write(f"{world.server_secret:064x}\n")
    with open(os.path.join(directory, SIGNER_SEED_FILE), "w", encoding="utf-8") as fh:
        fh.write(world.signer_seed.hex() + "\n")

    clock = _Clock()
    snapshot = os.path.join(directory, SNAPSHOT_FILE)
    srv = VcrServer(server_key=world.server_key, snapshot_path=snapshot, clock=clock)
    pending: list[str] = []
    original = vserver.fresh_cookie_value
    vserver.fresh_cookie_value = pending.pop
    try:
        for cw in world.clients:
            for item in cw.sessions + cw.roommates:
                (first_ts, first_path), *rest = item.history
                pending.append(item.cookie)
                clock.now = first_ts
                value, _ = srv.handle_page_request(first_path, None)
                for ts, path in rest:
                    clock.now = ts
                    srv.handle_page_request(path, value)
                for name, attr in item.attributes.items():
                    srv.set_attribute(value, name, attr)
    finally:
        vserver.fresh_cookie_value = original
    srv.save_snapshot()


def build_agent_store(world: World, client: int, origin: str) -> AgentStore:
    cw = world.clients[client]
    key = world.server_key
    endpoints = EndpointAdvertisement(
        wrapper_endpoint=WRAPPER_ENDPOINT,
        vcr_endpoint=VCR_ENDPOINT,
        server_pubkey=key.public_point,
        server_key_id=key.key_id,
    )
    store = AgentStore()
    store.provision_device(cw.device_xpub, cw.device_id)
    store.pinned_server_keys[origin] = endpoints.server_pubkey
    for s in cw.sessions:
        store.add_session(
            SessionRecord(
                server_origin=origin,
                endpoints=endpoints,
                client_id=s.wrapper.client_id,
                path=s.path,
                wrapper=s.wrapper,
                created_at=s.history[0][0],
            )
        )
        for ts, path in s.history:
            store.record_visit([(COOKIE_NAME, s.cookie)], origin + path, ts)
    plain = [s for s in cw.sessions if not s.unified]
    unified = [s for s in cw.sessions if s.unified]
    store.next_j = len(plain)
    if unified:
        store.server_counters[store.server_id_for(origin)] = len(unified)
    return store


def write_agent_stores(world: World, directory: str, origin: str) -> list[str]:
    """One store file per client; returns their paths."""
    paths = []
    for client in range(len(world.clients)):
        path = os.path.join(directory, f"agent{client}.store")
        with open(path, "wb") as fh:
            fh.write(build_agent_store(world, client, origin).export())
        paths.append(path)
    return paths
