"""Every decoder generated from a field table, against the table itself.

For each ``Message`` subclass: both JSON modes and, where the message has
one, the canonical form round-trip; and input mutated in each way below is
refused with the one decode error and nothing else.
"""

import json
import random
import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (
    random_action,
    random_advertisement,
    random_client_id,
    random_data_record,
    random_request,
    random_session_record,
    random_stored_session,
    random_wrapper,
    some_point,
    some_text,
    with_client_id,
)
from vcrkit import encoding, files, httpwire
from vcrkit.agent import STORE_VERSION, Agent, AgentStore, StoreChange, StoredSession, StoreHeader
from vcrkit.encoding import BIN, Field, Message, WireMode, nested, wire_key
from vcrkit.errors import CorruptStore, MalformedMessage
from vcrkit.keyhier import DerivationPath, derive_child_pub, generate_master, neuter
from vcrkit.sealing import NONCE_BYTES, HybridCiphertext
from vcrkit.server import (
    VCR_ENDPOINT,
    WRAPPER_ENDPOINT,
    AccessResponse,
    ClientDataRecord,
    EndpointAdvertisement,
)
from vcrkit.vcr import XPUB, ActionKind, UnifiedProof, VcrAction, VcrRequest
from vcrkit.wrapper import ClientId, Wrapper, WrapperRequest

MODES = (WireMode.OPTIMIZED, WireMode.VERBOSE)
EXAMPLES = settings(max_examples=15, deadline=None, derandomize=True)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

_PARENT = neuter(generate_master(b"decoder-test-seed"))
_DEVICE = derive_child_pub(_PARENT, 0)


def _unified(rng):
    return UnifiedProof(
        server_xpub=derive_child_pub(_PARENT, rng.randrange(4)),
        session_indices=tuple(rng.randrange(2**31) for _ in range(rng.randint(1, 3))),
    )


def _store(rng):
    store = AgentStore()
    store.provision_device(_DEVICE, 0)
    store.next_j = rng.randrange(2**31 - 2)
    store.server_counters = {rng.randrange(100): rng.randrange(100) for _ in range(2)}
    store.server_ids = {f"https://s{i}.example": i for i in range(rng.randint(0, 2))}
    for _ in range(rng.randint(0, 2)):
        path = store.claim_path("https://s.example", unified=False)
        store.add_session(replace(random_session_record(rng), path=path))
    store.pinned_server_keys = {"https://s0.example": some_point(rng)}
    return store


def _snapshot(rng):
    """A store's snapshot record: its version, header and sessions."""
    store = _store(rng)
    return StoreChange(STORE_VERSION, store, [store.stored(r) for r in store.sessions])


def _store_change(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return StoreChange(header=_store(rng))
    if pick == 1:
        return StoreChange(sessions=[random_stored_session(rng)])
    cid = random_client_id(rng)
    server = rng.randrange(4)
    when, page = rng.randrange(2**32), "/" + some_text(rng)
    visit = (server, cid.cookie_name, cid.cookie_value, when, page)
    return StoreChange(visit=visit)


# One builder per message class: a message to encode from a seeded rng.
# StoreHeader encodes from an AgentStore.
BUILDERS = {
    ClientId: random_client_id,
    Wrapper: random_wrapper,
    WrapperRequest: lambda rng: WrapperRequest(
        client_id=random_client_id(rng),
        vcr_pubkeys=tuple(some_point(rng) for _ in range(rng.randint(1, 3))),
    ),
    VcrAction: random_action,
    UnifiedProof: _unified,
    VcrRequest: random_request,
    HybridCiphertext: lambda rng: HybridCiphertext(
        ephemeral_pubkey=some_point(rng),
        nonce=rng.randbytes(NONCE_BYTES),
        ciphertext=rng.randbytes(rng.randrange(40)),
    ),
    EndpointAdvertisement: random_advertisement,
    ClientDataRecord: random_data_record,
    AccessResponse: lambda rng: AccessResponse(
        [random_data_record(rng) for _ in range(rng.randint(0, 2))]
    ),
    StoredSession: random_stored_session,
    StoreHeader: _store,
    StoreChange: _store_change,
}
# The messages with a canonical form (every field has a canonical kind).
CANONICAL = (
    ClientId,
    Wrapper,
    WrapperRequest,
    VcrAction,
    UnifiedProof,
    VcrRequest,
    HybridCiphertext,
    EndpointAdvertisement,
    StoredSession,
)
# The JSON cases: each message class, and StoreChange's snapshot form too.
JSON_CASES = {cls.__name__: (cls, build) for cls, build in BUILDERS.items()}
JSON_CASES["StoreSnapshot"] = (StoreChange, _snapshot)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_message_class_is_covered():
    defined = {c for c in _subclasses(Message) if c.__module__.startswith("vcrkit.")}
    assert defined == set(BUILDERS)


def _message(cls, seed):
    return BUILDERS[cls](random.Random(seed))


def _case(case, seed):
    """The class of JSON case ``case`` and a message of it."""
    cls, build = JSON_CASES[case]
    return cls, build(random.Random(seed))


def _wire(cls, message, mode) -> dict:
    """The JSON object ``message`` encodes to, parsed back: a fresh copy."""
    return json.loads(json.dumps(nested(cls).encode[mode](message)))


def _header(store) -> dict:
    return {f.attr: getattr(store, f.attr) for f in StoreHeader.FIELDS}


def _assert_same(cls, decoded, message):
    if cls is StoreHeader:
        assert decoded == _header(message)
    elif cls is StoreChange:
        header = message.header and _header(message.header)
        assert (decoded.version, decoded.header, decoded.sessions, decoded.visit) == (
            message.version,
            header,
            message.sessions,
            message.visit,
        )
    else:
        assert decoded == message


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("case", JSON_CASES)
@EXAMPLES
@given(seed=SEEDS)
def test_json_round_trip(case, mode, seed):
    cls, message = _case(case, seed)
    decoded = cls.from_wire_dict(_wire(cls, message, mode), mode)
    _assert_same(cls, decoded, message)


@pytest.mark.parametrize("cls", CANONICAL, ids=lambda c: c.__name__)
@EXAMPLES
@given(seed=SEEDS)
def test_canonical_round_trip(cls, seed):
    message = _message(cls, seed)
    assert cls.from_canonical(message.to_canonical()) == message


def _required(cls, mode):
    """The (attr, key) of each top-level field whose key must be present."""
    for f in cls.FIELDS:
        if not (f.optional or f.omit_empty or f.flatten):
            yield f.attr, wire_key(f.name, mode)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("case", JSON_CASES)
@EXAMPLES
@given(seed=SEEDS)
def test_a_dropped_required_key_is_named(case, mode, seed):
    cls, message = _case(case, seed)
    wire = _wire(cls, message, mode)
    required = list(_required(cls, mode))
    if getattr(message, "header", None) is not None:  # flattened: its keys but I
        required += [r for r in _required(StoreHeader, mode) if r[0] != "device_id"]
    for attr, key in required:
        data = {k: v for k, v in wire.items() if k != key}
        named = re.escape(f"missing wire field {attr} ({key})")
        with pytest.raises(MalformedMessage, match=named):
            cls.from_wire_dict(data, mode)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("case", JSON_CASES)
@EXAMPLES
@given(seed=SEEDS)
def test_an_extra_key_is_ignored(case, mode, seed):
    cls, message = _case(case, seed)
    data = {**_wire(cls, message, mode), "~extra": [1, {"n": None}]}
    _assert_same(cls, cls.from_wire_dict(data, mode), message)


def _positions(value):
    """Every (container, index) in a parsed JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for index, item in list(items):
        yield value, index
        if isinstance(item, (dict, list)):
            yield from _positions(item)


# A value of each JSON type, and numbers no unsigned integer field can hold.
OTHER_VALUES = (None, True, 0, -1, 1.5, 1e400, "", "x", [], [0], {}, {"n": 0})


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("case", JSON_CASES)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_any_value_anywhere_decodes_or_is_malformed(case, mode, seed):
    """Each value in the object, at any depth, replaced by each of
    OTHER_VALUES in turn (most of a wrong JSON type): decoding succeeds or
    raises MalformedMessage, never anything else."""
    cls, message = _case(case, seed)
    wire = _wire(cls, message, mode)
    for container, index in _positions(wire):
        original = container[index]
        for other in OTHER_VALUES:
            container[index] = other
            try:
                cls.from_wire_dict(wire, mode)
            except MalformedMessage:
                pass
        container[index] = original


NON_OBJECTS = ([], [{}], "x", "", 0, 1.5, None)


@pytest.mark.parametrize("data", NON_OBJECTS, ids=repr)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("case", JSON_CASES)
def test_a_non_object_is_malformed(case, mode, data):
    cls, _ = JSON_CASES[case]
    with pytest.raises(MalformedMessage):
        cls.from_wire_dict(data, mode)


def _fixed_fields(cls, message):
    """The top-level fields of a fixed size set in ``message``: (field,
    the bytes, whether they are the first item of a list)."""
    for f in cls.FIELDS:
        value = getattr(message, f.attr, None)
        if f.kind is not BIN and isinstance(value, bytes):
            yield f, value, False
        elif isinstance(value, tuple) and value and isinstance(value[0], bytes):
            yield f, value[0], True


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("case", JSON_CASES)
@EXAMPLES
@given(seed=SEEDS)
def test_a_fixed_field_of_the_wrong_length_is_malformed(case, mode, delta, seed):
    cls, message = _case(case, seed)
    for f, value, listed in _fixed_fields(cls, message):
        data = _wire(cls, message, mode)
        resized = BIN.encode[mode](bytes(len(value) + delta))
        key = wire_key(f.name, mode)
        if listed:
            data[key][0] = resized
        else:
            data[key] = resized
        with pytest.raises(MalformedMessage):
            cls.from_wire_dict(data, mode)


@pytest.mark.parametrize("cls", CANONICAL, ids=lambda c: c.__name__)
@EXAMPLES
@given(seed=SEEDS, extra=st.binary(min_size=1, max_size=4))
def test_truncated_or_extended_canonical_bytes_are_refused(cls, seed, extra):
    blob = _message(cls, seed).to_canonical()
    for cut in range(len(blob)):
        with pytest.raises(cls.CANONICAL_ERROR):
            cls.from_canonical(blob[:cut])
    with pytest.raises(cls.CANONICAL_ERROR):
        cls.from_canonical(blob + extra)


@pytest.mark.parametrize(
    "row", [[], [1760000000], [1760000000, "/", "x"]], ids=["empty", "short", "long"]
)
def test_a_row_of_another_length_is_malformed(row):
    """An OPTIMIZED row is an array of exactly its columns."""
    data = random_stored_session(random.Random(1)).to_wire_dict(WireMode.OPTIMIZED)
    data[wire_key("history", WireMode.OPTIMIZED)] = [row]
    with pytest.raises(MalformedMessage):
        StoredSession.from_wire_dict(data, WireMode.OPTIMIZED)


BUILT_IN_PLACE = [cls for cls in BUILDERS if encoding._built_in_place(cls)]


def test_the_frozen_messages_are_built_in_place():
    assert {ClientId, Wrapper, VcrRequest, EndpointAdvertisement} <= set(BUILT_IN_PLACE)
    assert not {StoredSession, StoreChange} & set(BUILT_IN_PLACE)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("cls", BUILT_IN_PLACE, ids=lambda c: c.__name__)
@EXAMPLES
@given(seed=SEEDS)
def test_a_message_built_in_place_is_the_one_its_init_builds(cls, mode, seed):
    """Same attributes, hash and frozenness as ``cls(...)`` gives."""
    decoded = cls.from_wire_dict(_wire(cls, _message(cls, seed), mode), mode)
    built = cls(**vars(decoded))
    assert vars(decoded) == vars(built) and hash(decoded) == hash(built)
    with pytest.raises(FrozenInstanceError):
        decoded.version = 2


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_a_message_built_in_place_is_checked_as_its_init_checks(mode):
    """__post_init__ runs: a wrapper whose cookie name is empty is refused."""
    data = _wire(Wrapper, _message(Wrapper, 3), mode)
    data[wire_key("client_id", mode)][wire_key("cookie_name", mode)] = ""
    with pytest.raises(MalformedMessage, match="cookie name empty"):
        Wrapper.from_wire_dict(data, mode)


def test_a_key_error_inside_a_field_is_not_renamed():
    """An unknown word in a VERBOSE choice is a KeyError of its own: it is
    reported as itself, not as a missing key of the message around it."""
    data = VcrAction(ActionKind.DELETE).to_wire_dict(WireMode.VERBOSE)
    data["kind"] = "erase"
    with pytest.raises(MalformedMessage) as caught:
        VcrAction.from_wire_dict(data, WireMode.VERBOSE)
    assert "missing wire field" not in str(caught.value)
    assert "erase" in str(caught.value)


def test_a_field_attribute_that_is_not_an_identifier_is_refused():
    """Attribute names are written into the generated decoders' source, so
    a class whose table has any other name is refused when it is defined."""
    for attr in ("cookie-name", "cookie_name)", "class", "a b"):
        with pytest.raises(TypeError, match="not an identifier"):

            class Bad(Message):
                FIELDS = (Field("cookie_name", encoding.STR, attr),)


# --- at the HTTP layer ----------------------------------------------------------


def _retyped(value):
    """The same content as another JSON type: a number as text, text in a
    list, a list as an object keyed by position, an object as a list."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return {str(i): item for i, item in enumerate(value)}
    return list(value.values())


def _mutated_bodies(cls, seed):
    """(what, body): a message of ``cls`` in the HTTP path's OPTIMIZED form
    without each required key, with each value at any depth retyped, and
    each non-object in its place."""
    wire = _wire(cls, _message(cls, seed), WireMode.OPTIMIZED)
    for _, key in _required(cls, WireMode.OPTIMIZED):
        yield f"without {key}", json.dumps({k: v for k, v in wire.items() if k != key})
    for container, index in _positions(wire):
        original = container[index]
        container[index] = _retyped(original)
        yield f"{index} = {container[index]!r}", json.dumps(wire)
        container[index] = original
    for data in NON_OBJECTS:
        yield repr(data), json.dumps(data)


@pytest.mark.parametrize(
    "path, cls",
    [(WRAPPER_ENDPOINT, WrapperRequest), (VCR_ENDPOINT, VcrRequest)],
    ids=["wrapper", "submit"],
)
def test_a_mutated_body_is_malformed_over_http(loopback, path, cls):
    """Each mutated POST body answers 400 MalformedBody, and a new
    connection is served afterwards."""
    _, _, origin = loopback
    for what, body in _mutated_bodies(cls, seed=1):
        exchange = httpwire.request("POST", origin + path, body=body.encode())
        assert (exchange.status, json.loads(exchange.body)) == (
            400,
            {"error": "MalformedBody"},
        ), what
    assert httpwire.request("GET", origin + "/").status == 200


# --- in the agent store file ---------------------------------------------------

OPT = WireMode.OPTIMIZED


def _store_of_two_sessions():
    """Its plain counter is past index 5, which the session record holds."""
    store = AgentStore()
    store.provision_device(_DEVICE, 0)
    store.next_j, store.server_counters, store.server_ids = 6, {3: 1}, {"https://s.example": 3}
    for j in range(2):
        store.add_session(_session(j))
    return store


def _session(j, device_id=0):
    """A session of ``device_id`` with path (device_id, j) and cookie j."""
    return replace(
        with_client_id(random_session_record(random.Random(j)), ClientId("vcid", f"{j:08d}")),
        path=DerivationPath((device_id, j)),
        history=[],
    )


def _stored(session, server=0):
    """``session`` as a store file holds it, naming table entry ``server``."""
    return StoredSession(server, session.path, session.wrapper, session.created_at, [])


# One record of each kind the store writes, for _store_of_two_sessions: its
# server table has one entry per session, and session j is at entry j.
RECORDS = {
    "header": lambda store: StoreChange(header=store),
    "session": lambda store: StoreChange(sessions=[_stored(_session(5))]),
    "visit": lambda store: StoreChange(visit=(1, "vcid", "00000001", 1754650000, "/a")),
}


def _mutated_records(kind, store):
    """(what, record): the ``kind`` record without each key it needs, with
    each value at any depth retyped, and those the rules refuse."""
    wire = RECORDS[kind](store).to_wire_dict(OPT)
    needed = [key for _, key in _required(StoreHeader, OPT)] if kind == "header" else wire
    for key in needed:
        yield f"without {key}", {k: v for k, v in wire.items() if k != key}
    if kind == "session":
        for _, key in _required(StoredSession, OPT):
            session = {k: v for k, v in wire["L"][0].items() if k != key}
            yield f"session without {key}", {"L": [session]}
    for container, index in _positions(wire):
        original = container[index]
        container[index] = _retyped(original)
        yield f"{index} = {container[index]!r}", json.loads(json.dumps(wire))
        container[index] = original
    yield "record carrying the store version", {"V": 2, **wire}
    if kind == "header":
        table = wire["G"]
        yield "header without a held server", {**wire, "G": table[:1]}
        yield "header with its servers reordered", {**wire, "G": table[::-1]}
        yield "header with a server twice", {**wire, "G": table + table[:1]}
        yield "header lowering J", {**wire, "J": 5}
        yield "header lowering a unified counter", {**wire, "S": {"3": 0}}
        yield "header dropping a unified counter", {**wire, "S": {}}
        yield "header giving two origins one id", {**wire, "Y": {**wire["Y"], "https://t": 3}}
        yield "header moving an origin's id", {**wire, "Y": {"https://s.example": 4}}
        yield "header changing the device id", {**wire, "I": 1}
        other = XPUB.encode[OPT](derive_child_pub(_PARENT, 1))
        yield "header changing the device xpub", {**wire, "X": other}
    if kind == "visit":
        yield "visit to a cookie the store lacks", {"A": [1, "vcid", "00000009", 1, "/"]}
        yield "visit to a cookie held at another origin", {"A": [0, "vcid", "00000001", 1, "/"]}
        yield "visit naming no server", {"A": [2, "vcid", "00000001", 1, "/"]}
        yield "visit naming server -1", {"A": [-1, "vcid", "00000001", 1, "/"]}
    if kind == "session":
        foreign = StoreChange(sessions=[_stored(_session(5, device_id=1))])
        yield "session of another device", foreign.to_wire_dict(OPT)
        held = _stored(with_client_id(_session(5), ClientId("vcid", f"{1:08d}")), server=1)
        held = StoreChange(sessions=[held]).to_wire_dict(OPT)
        yield "session for a cookie held at its origin", held
        nowhere = StoreChange(sessions=[_stored(_session(5), server=2)])
        yield "session naming no server", nowhere.to_wire_dict(OPT)
        for path in [(0, 6), (0, 3, 1), (0, 4, 0), (0,), (0, 3, 0, 0)]:
            unspent = replace(_session(5), path=DerivationPath(path))
            yield f"session at {path}", StoreChange(sessions=[_stored(unspent)]).to_wire_dict(OPT)


def _load_with_record(path: str, snapshot: bytes, record: dict) -> Agent:
    """Load a store file of ``snapshot`` and one CRC-valid ``record``."""
    assert files.compact(path, snapshot).append([json.dumps(record).encode()])
    return Agent.load(path)


@pytest.mark.parametrize("kind", RECORDS)
def test_a_mutated_journal_record_is_a_corrupt_store(tmp_path, kind):
    """A record that frames and checks but that the store never wrote makes
    Agent.load raise CorruptStore, and nothing else."""
    store = _store_of_two_sessions()
    path, snapshot = str(tmp_path / "agent.store"), store.export()
    record = RECORDS[kind](store).to_wire_dict(OPT)
    _load_with_record(path, snapshot, record)  # as the store writes it, it loads
    for what, mutated in _mutated_records(kind, store):
        try:
            _load_with_record(path, snapshot, mutated)
        except CorruptStore:
            continue
        pytest.fail(f"loaded with {what}")
