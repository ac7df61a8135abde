"""Randomized protocol-message builders shared across test modules.

Structure generators only: signatures are random bytes unless a test
explicitly signs. Keys are real curve points (cheaply derived from a fixed
parent) so point validation always passes.
"""

import json
import random
import string
from dataclasses import replace

from vcrkit.agent import SessionRecord, StoredSession
from vcrkit.keyhier import DerivationPath, derive_child_pub, generate_master, neuter
from vcrkit.server import ClientDataRecord, EndpointAdvertisement
from vcrkit.vcr import ActionKind, UnifiedProof, VcrAction, VcrRequest
from vcrkit.wrapper import ClientId, Wrapper

_POOL_PARENT = neuter(generate_master(b"builder-pool-seed"))
_POOL = [derive_child_pub(_POOL_PARENT, i) for i in range(64)]


def some_point(rng: random.Random) -> bytes:
    return _POOL[rng.randrange(len(_POOL))].public_point


def some_text(rng: random.Random, min_len=1, max_len=24) -> str:
    alphabet = string.ascii_letters + string.digits + "-_./ "
    return "".join(
        rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len))
    )


def random_client_id(rng: random.Random) -> ClientId:
    return ClientId(
        cookie_name=some_text(rng, 1, 16).strip() or "c",
        cookie_value=some_text(rng, 1, 64),
    )


def random_wrapper(rng: random.Random) -> Wrapper:
    return Wrapper(
        version=1,
        client_id=random_client_id(rng),
        vcr_pubkeys=tuple(
            some_point(rng) for _ in range(rng.randint(1, 4))
        ),
        issued_at=rng.randrange(1, 2**33),
        server_key_id=rng.getrandbits(64).to_bytes(8, "big"),
        signature=rng.getrandbits(512).to_bytes(64, "big"),
    )


def random_action(rng: random.Random) -> VcrAction:
    kind = rng.choice(list(ActionKind))
    if kind is ActionKind.ACCESS:
        key = some_point(rng) if rng.random() < 0.5 else None
        return VcrAction(kind=kind, response_pubkey=key)
    if kind is ActionKind.MODIFY:
        changes = tuple(
            (some_text(rng, 1, 12), some_text(rng, 0, 20), some_text(rng, 0, 20))
            for _ in range(rng.randint(1, 3))
        )
        return VcrAction(kind=kind, changes=changes)
    return VcrAction(kind=kind)


def random_request(rng: random.Random) -> VcrRequest:
    wrapper_count = rng.randint(1, 3)
    wrappers = tuple(random_wrapper(rng) for _ in range(wrapper_count))
    unified = None
    if rng.random() < 0.3:
        unified = UnifiedProof(
            server_xpub=_POOL[rng.randrange(len(_POOL))],
            session_indices=tuple(
                rng.randrange(0, 2**31) for _ in range(wrapper_count)
            ),
        )
    return VcrRequest(
        version=1,
        wrappers=wrappers,
        action=random_action(rng),
        timestamp=rng.randrange(1, 2**33),
        unified=unified,
        signatures=tuple(
            rng.getrandbits(512).to_bytes(64, "big")
            for _ in range(rng.randint(0, 3))
        ),
    )


def random_advertisement(rng: random.Random) -> EndpointAdvertisement:
    return EndpointAdvertisement(
        wrapper_endpoint="/" + some_text(rng, 3, 16).replace(" ", ""),
        vcr_endpoint="/" + some_text(rng, 3, 16).replace(" ", ""),
        server_pubkey=some_point(rng),
        server_key_id=rng.getrandbits(64).to_bytes(8, "big"),
    )


def random_session_record(rng: random.Random, device_id=0) -> SessionRecord:
    origin = f"http://127.0.0.1:{rng.randint(1024, 65535)}"
    history = [
        (rng.randrange(1, 2**32), "/" + some_text(rng, 0, 20).replace(" ", ""))
        for _ in range(rng.randint(0, 5))
    ]
    endpoints = random_advertisement(rng)
    random_client_id(rng)  # unused; later draws, and their golden digests, follow it
    path = DerivationPath((device_id, rng.randrange(0, 2**31)))
    wrapper = random_wrapper(rng)
    return SessionRecord(
        server_origin=origin,
        endpoints=endpoints,
        client_id=wrapper.client_id,
        path=path,
        wrapper=wrapper,
        created_at=rng.randrange(1, 2**32),
        history=history,
    )


def random_stored_session(rng: random.Random) -> StoredSession:
    """A session as a store file holds it, naming one of four table entries."""
    record = random_session_record(rng)
    return StoredSession(
        rng.randrange(4), record.path, record.wrapper, record.created_at, record.history
    )


def version_2_layout(export: bytes) -> bytes:
    """An OPTIMIZED export rewritten in the layout of store version 2: each
    session is an object, its wrapper an object inside it, and its cookie
    an object inside that."""
    data = json.loads(export)
    sessions = []
    for row in data.get("L", []):
        server, path, version, name, value, keys, issued, key_id, signature, created, history = row
        cookie = {"n": name, "c": value}
        wrapper = {"V": version, "y": cookie, "v": keys, "i": issued, "d": key_id, "g": signature}
        sessions.append({"F": server, "q": path, "x": wrapper, "b": created, "H": history})
    data.update(V=2, L=sessions)
    return json.dumps(data).encode()


def version_1_layout(export: bytes) -> bytes:
    """An OPTIMIZED export rewritten in the layout of store version 1: each
    session carries its origin, its advertisement and its cookie, and there
    is no server table."""
    data = json.loads(version_2_layout(export))
    table = data.pop("G")
    for session in data["L"]:
        session["O"], session["P"] = table[session.pop("F")]
        session["y"] = session["x"]["y"]
    data["V"] = 1
    return json.dumps(data).encode()


def with_client_id(record: SessionRecord, client_id: ClientId) -> SessionRecord:
    """``record`` under another cookie, bound by its wrapper too."""
    wrapper = replace(record.wrapper, client_id=client_id)
    return replace(record, client_id=client_id, wrapper=wrapper)


def random_data_record(rng: random.Random) -> ClientDataRecord:
    return ClientDataRecord(
        client_id=random_client_id(rng),
        visits=[
            (rng.randrange(1, 2**32), "/" + some_text(rng, 0, 16).replace(" ", ""))
            for _ in range(rng.randint(0, 5))
        ],
        attributes={
            some_text(rng, 1, 8): some_text(rng, 0, 16)
            for _ in range(rng.randint(0, 3))
        },
    )
