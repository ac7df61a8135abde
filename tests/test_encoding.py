"""Canonical-encoding injectivity, wire-mode equivalence and size budgets."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (
    random_advertisement,
    random_client_id,
    random_data_record,
    random_request,
    random_session_record,
    random_wrapper,
)
from vcrkit.agent import SessionRecord
from vcrkit.encoding import (
    WIRE_KEYS,
    CanonicalReader,
    CanonicalWriter,
    WireMode,
    byte_size,
    from_wire,
    time_from_wire,
    time_to_wire,
    to_wire,
)
from vcrkit.errors import MalformedMessage, UnencodableField
from vcrkit.keyhier import DerivationPath, derive_path, generate_master, neuter
from vcrkit.sealing import HybridCiphertext
from vcrkit.server import ClientDataRecord, EndpointAdvertisement
from vcrkit.vcr import ActionKind, VcrAction, VcrRequest, build_vcr
from vcrkit.wrapper import ClientId, MultiSigPolicy, ServerKey, Wrapper, issue_wrapper

MODES = (WireMode.OPTIMIZED, WireMode.VERBOSE)


def test_key_dictionary_is_a_bijection():
    letters = list(WIRE_KEYS.values())
    assert len(set(letters)) == len(letters), "two long names share a letter"
    assert all(len(letter) == 1 for letter in letters)
    assert len(set(WIRE_KEYS)) == len(WIRE_KEYS)
    assert WIRE_KEYS["vcr_pubkeys"] == "v"


def test_canonical_roundtrip_bulk():
    # Heavy randomized sweep. decode(encode(x)) == x for every x also
    # gives injectivity: equal bytes decode to equal messages.
    rng = random.Random(20240817)
    for _ in range(10_000):
        request = random_request(rng)
        blob = request.to_canonical()
        assert VcrRequest.from_canonical(blob) == request


def test_canonical_injectivity_one_bit_of_cookie():
    rng = random.Random(7)
    wrapper = random_wrapper(rng)
    twin = Wrapper(
        version=wrapper.version,
        client_id=ClientId(
            wrapper.client_id.cookie_name,
            wrapper.client_id.cookie_value[:-1]
            + chr(ord(wrapper.client_id.cookie_value[-1]) ^ 1),
        ),
        vcr_pubkeys=wrapper.vcr_pubkeys,
        issued_at=wrapper.issued_at,
        server_key_id=wrapper.server_key_id,
        signature=wrapper.signature,
    )
    assert wrapper.to_canonical() != twin.to_canonical()


def test_canonical_deterministic():
    rng = random.Random(11)
    request = random_request(rng)
    assert request.to_canonical() == request.to_canonical()


def test_canonical_trailing_bytes_rejected():
    from vcrkit.errors import MalformedWrapper

    rng = random.Random(13)
    wrapper = random_wrapper(rng)
    with pytest.raises(MalformedWrapper):
        Wrapper.from_canonical(wrapper.to_canonical() + b"\x00")
    request = random_request(rng)
    with pytest.raises(MalformedMessage):
        VcrRequest.from_canonical(request.to_canonical() + b"\x00")


@pytest.mark.parametrize("mode", MODES)
def test_wire_roundtrip_all_message_types(mode):
    rng = random.Random(21)
    for _ in range(50):
        for builder, cls in (
            (random_client_id, ClientId),
            (random_wrapper, Wrapper),
            (random_request, VcrRequest),
            (random_advertisement, EndpointAdvertisement),
            (random_session_record, SessionRecord),
            (random_data_record, ClientDataRecord),
        ):
            message = builder(rng)
            assert from_wire(cls, to_wire(message, mode), mode) == message


def test_verbose_and_optimized_decode_to_equal_messages():
    rng = random.Random(31)
    for _ in range(200):
        request = random_request(rng)
        parsed_opt = from_wire(
            VcrRequest, to_wire(request, WireMode.OPTIMIZED), WireMode.OPTIMIZED
        )
        parsed_verb = from_wire(
            VcrRequest, to_wire(request, WireMode.VERBOSE), WireMode.VERBOSE
        )
        assert parsed_opt == parsed_verb == request


def test_optimized_never_larger():
    rng = random.Random(41)
    for _ in range(200):
        for builder in (
            random_wrapper,
            random_request,
            random_session_record,
            random_data_record,
        ):
            message = builder(rng)
            assert byte_size(message, WireMode.OPTIMIZED) <= byte_size(
                message, WireMode.VERBOSE
            )


def _golden_fixture():
    master = generate_master(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    server_key = ServerKey(
        secret=0x1D0F2F6B7C9A1E3B5D7F90123456789ABCDEF0123456789ABCDEF012345678
    )
    client_id = ClientId("vcid", "f47ac10b-58cc-4372-a567-0e02b2c3d479")
    session_key = derive_path(neuter(master), DerivationPath((0, 0)))
    policy = MultiSigPolicy((session_key.public_point,))
    wrapper = issue_wrapper(server_key, client_id, policy, 1754650000)
    advertisement = EndpointAdvertisement(
        "/vcr/wrapper", "/vcr/submit", server_key.public_point, server_key.key_id
    )
    record = SessionRecord(
        server_origin="http://127.0.0.1:8080",
        endpoints=advertisement,
        client_id=client_id,
        path=DerivationPath((0, 0)),
        wrapper=wrapper,
        created_at=1754650000,
        history=[],
    )
    return wrapper, record


def test_golden_envelope_sizes_pinned():
    # Golden numbers measured once from the deterministic fixture and
    # frozen; a drift here means the wire format changed.
    wrapper, record = _golden_fixture()
    assert len(wrapper.to_canonical()) == 168
    assert byte_size(wrapper, WireMode.OPTIMIZED) == 246
    assert byte_size(wrapper, WireMode.VERBOSE) == 400
    assert byte_size(record, WireMode.OPTIMIZED) == 486
    assert byte_size(record, WireMode.VERBOSE) == 813
    unsigned = build_vcr([wrapper], VcrAction(ActionKind.DELETE), 1754650001)
    assert len(unsigned.to_canonical()) == 192


def test_baseline_record_within_budget():
    _, record = _golden_fixture()
    assert byte_size(record, WireMode.OPTIMIZED) <= 512


def test_wrapper_flow_optimized_reduction():
    # Request + response payloads of the wrapper flow shrink by at least
    # 14% in OPTIMIZED form.
    from vcrkit.wrapper import WrapperRequest

    wrapper, record = _golden_fixture()
    request = WrapperRequest(
        client_id=wrapper.client_id, vcr_pubkeys=wrapper.vcr_pubkeys
    )
    verbose = byte_size(request, WireMode.VERBOSE) + byte_size(
        wrapper, WireMode.VERBOSE
    )
    optimized = byte_size(request, WireMode.OPTIMIZED) + byte_size(
        wrapper, WireMode.OPTIMIZED
    )
    assert optimized <= 0.86 * verbose


def test_history_entries_path_only_in_optimized():
    rng = random.Random(55)
    record = random_session_record(rng)
    record.history.append((1754650000, "/inbox"))
    raw = json.loads(to_wire(record, WireMode.OPTIMIZED))
    entries = raw[WIRE_KEYS["history"]]
    assert entries[-1] == [1754650000, "/inbox"]
    verbose_raw = json.loads(to_wire(record, WireMode.VERBOSE))
    assert verbose_raw["history"][-1]["visit_url"].startswith(record.server_origin)
    assert verbose_raw["history"][-1]["visit_url"].endswith("/inbox")


def test_timestamps_unix_in_optimized_iso_in_verbose():
    assert time_to_wire(1754650000, WireMode.OPTIMIZED) == 1754650000
    iso = time_to_wire(1754650000, WireMode.VERBOSE)
    assert isinstance(iso, str) and iso.endswith("Z")
    for mode in MODES:
        assert time_from_wire(time_to_wire(1754650000, mode), mode) == 1754650000


def test_writer_bounds():
    writer = CanonicalWriter()
    with pytest.raises(UnencodableField):
        writer.u8(256)
    with pytest.raises(UnencodableField):
        writer.u32(1 << 32)
    with pytest.raises(UnencodableField):
        writer.vbytes(b"\x00" * ((1 << 20) + 1))
    with pytest.raises(UnencodableField):
        writer.fixed(b"\x00" * 3, 4)


def test_oversized_cookie_unencodable():
    with pytest.raises(Exception):
        ClientId("vcid", "x" * 300)


def test_reader_truncation():
    reader = CanonicalReader(b"\x00\x00")
    with pytest.raises(MalformedMessage):
        reader.u32()


@settings(max_examples=200, deadline=None)
@given(data=st.binary(min_size=0, max_size=64))
def test_fuzzed_canonical_never_crashes(data):
    for cls in (Wrapper, VcrRequest):
        try:
            cls.from_canonical(data)
        except MalformedMessage:
            pass
        except Exception as exc:  # any other escape is a parser bug
            from vcrkit.errors import MalformedWrapper

            assert isinstance(exc, MalformedWrapper), exc


# --- golden bytes -------------------------------------------------------------
# The layouts are pinned byte for byte, not just by size or round trip: a
# codec that reordered JSON keys or canonical fields would fail here.

GOLDEN_WRAPPER_HEX = (
    "02010100000004766369640000002466343761633130622d353863632d343337"
    "322d613536372d30653032623263336434373900000001"
    "02756de182c5dd4b717ea87e693006da62dbb3cddaa4a5cad2ed1f5bbab755f0f5"
    "000000006895d5900768f3662a373ae8"
    "ff05189790c6c9f75ce388d0fde84a9955772da5873d9013"
    "dd3c46b7b3cdd9be19e920c29b3dfb177478fd61e577f701b7d4a343f5b427a0"
    "741c9a7053bc6109"
)
GOLDEN_WRAPPER_REQUEST_JSON = (
    '{"y":{"n":"vcid","c":"f47ac10b-58cc-4372-a567-0e02b2c3d479"},'
    '"v":["AnVt4YLF3Utxfqh-aTAG2mLbs83apKXK0u0fW7q3VfD1"]}'
)
GOLDEN_WRAPPER_JSON = (
    '{"V":1,"y":{"n":"vcid","c":"f47ac10b-58cc-4372-a567-0e02b2c3d479"},'
    '"v":["AnVt4YLF3Utxfqh-aTAG2mLbs83apKXK0u0fW7q3VfD1"],"i":1754650000,'
    '"d":"B2jzZio3Oug","g":"_wUYl5DGyfdc44jQ_ehKmVV3LaWHPZAT3TxGt7PN2b4Z6SDCmz37'
    'F3R4_WHld_cBt9SjQ_W0J6B0HJpwU7xhCQ"}'
)


def test_golden_worked_examples():
    from vcrkit.wrapper import WrapperRequest

    wrapper, _ = _golden_fixture()
    request = WrapperRequest(client_id=wrapper.client_id, vcr_pubkeys=wrapper.vcr_pubkeys)
    assert wrapper.to_canonical().hex() == GOLDEN_WRAPPER_HEX
    assert to_wire(request, WireMode.OPTIMIZED) == GOLDEN_WRAPPER_REQUEST_JSON
    assert to_wire(wrapper, WireMode.OPTIMIZED) == GOLDEN_WRAPPER_JSON


def _golden_messages():
    """One seeded instance of every wire message, covering each variant."""
    from builders import some_point
    from vcrkit.agent import AgentStore
    from vcrkit.keyhier import derive_child_pub
    from vcrkit.vcr import UnifiedProof
    from vcrkit.wrapper import WrapperRequest

    rng = random.Random(20261018)
    wrappers = [random_wrapper(rng) for _ in range(3)]
    signatures = tuple(bytes([i]) * 64 for i in (1, 2))

    def request(action, unified=None, paths=("m/0/7", "m/0/8")):
        return VcrRequest(
            version=1,
            wrappers=tuple(wrappers[:2]),
            action=action,
            timestamp=1754650005,
            unified=unified,
            signer_paths=paths,
            signatures=signatures,
        )

    parent = neuter(generate_master(bytes(range(16))))
    unified = UnifiedProof(server_xpub=derive_child_pub(parent, 4), session_indices=(0, 3))
    session = random_session_record(rng)
    session.history.extend([(1754650000, "/"), (1754650060, "/inbox?x=1")])
    data_record = random_data_record(rng)
    data_record.visits.append((1754650000, "/a"))
    data_record.attributes["email"] = "a@example.com"
    store = AgentStore()
    store.provision_device(derive_child_pub(parent, 0), 0)
    store.next_j = 2
    store.server_counters = {0: 3, 5: 1}
    store.server_ids = {"http://127.0.0.1:8080": 0, "https://shop.example": 5}
    store.sessions = [random_session_record(rng) for _ in range(2)]
    store.sessions[0].history.append((1754650000, "/cart"))
    store.pinned_server_keys = {"http://127.0.0.1:8080": some_point(rng)}
    return {
        "client_id": random_client_id(rng),
        "wrapper": wrappers[2],
        "wrapper_request": WrapperRequest(
            client_id=wrappers[0].client_id, vcr_pubkeys=wrappers[0].vcr_pubkeys
        ),
        "access": request(VcrAction(ActionKind.ACCESS)),
        "access_response_key": request(
            VcrAction(ActionKind.ACCESS, response_pubkey=some_point(rng)), paths=()
        ),
        "modify": request(
            VcrAction(
                ActionKind.MODIFY,
                changes=(("email", "old@example.com", "new@example.com"), ("nick", "", "z")),
            )
        ),
        "delete": request(VcrAction(ActionKind.DELETE)),
        "unified": request(VcrAction(ActionKind.ACCESS), unified=unified, paths=("m/0/0",)),
        "sealed": HybridCiphertext(
            ephemeral_pubkey=some_point(rng), nonce=bytes(range(12)), ciphertext=b"\x00\xff" * 20
        ),
        "advertisement": random_advertisement(rng),
        "session_record": session,
        "data_record": data_record,
        "agent_store": store,
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


# First 16 bytes (hex) of SHA-256 over each form, measured once and frozen.
GOLDEN_DIGESTS = {
    "client_id": {
        "optimized": "ae1c37dccecefa04a067b6957be0905c",
        "verbose": "5782a0823ee1f6356c062dbd0cf06a73",
    },
    "wrapper": {
        "optimized": "cd028bbc348ba3f8139f1e9c2e811e2c",
        "verbose": "d04f767b32e3cc8deb6f5f8a8c6a6bff",
        "canonical": "a1117bf3db134441e42b3cb77e1ee19d",
        "signed": "e85894efd2243b04e9b3c49c097a91aa",
    },
    "wrapper_request": {
        "optimized": "bb85a6b3779d9ac3d4826f014bcd9728",
        "verbose": "04df4b5df24339b345342e6e3b984492",
    },
    "access": {
        "optimized": "5fd378f057f6e8601da3f249c1a74be1",
        "verbose": "d3109e9f8cab397ee5108c032b5ea157",
        "canonical": "1750d393efb835a3f03f6cad72891f22",
        "signed": "7faa052a27c94123061275f34c58e63a",
    },
    "access_response_key": {
        "optimized": "6a2007102c953aecd4f0ef8851d02881",
        "verbose": "79faf30a888d78ba2350c35b1fb00076",
        "canonical": "628255fb03079b1c9f9d454c75ad4aac",
        "signed": "5f308639466a1f418a331d528b2b0b33",
    },
    "modify": {
        "optimized": "23cbac8afc4961f4196f3ad5d46dbe24",
        "verbose": "75397092731ebd5fceedb3360a843738",
        "canonical": "0dd4a9a5b29de12e203531f183010bff",
        "signed": "1cfbb52434b5ff28ec9390055ff2d61a",
    },
    "delete": {
        "optimized": "ff74aab24a2de860703ecb2a8dcd532f",
        "verbose": "07e9e29cd12f32ddfd1e50877ec00fc6",
        "canonical": "70d6ee13ce76f353f4e05cfbd9f22cad",
        "signed": "1a2e75b36f0adf2780ee932a620a3470",
    },
    "unified": {
        "optimized": "b8efc82c4cd11d2996ee7b36d9d1e823",
        "verbose": "0f542cae6abcea74f71eacc24a3b2a65",
        "canonical": "192775781e1b5638fcb88ba5b48f7fb2",
        "signed": "22e7362a514d9717a450a4bdc557dc25",
    },
    "sealed": {
        "optimized": "6dac9b5ddb418aec6b3254ac4f1b7f22",
        "verbose": "2b63b85e8992ab76f7ad078421f0c506",
        "canonical": "7fb6051b3d8054515274b45878105ffb",
    },
    "advertisement": {
        "optimized": "1f360279b00629030d69a7c01ca6df63",
        "verbose": "6e4a3e3037344193dd5e281eb833ff97",
    },
    "session_record": {
        "optimized": "f3ac0999d70c8001da8d79f491bb16ae",
        "verbose": "ca2b2c9ecefb6023342ae2b663966f33",
    },
    "data_record": {
        "optimized": "4c475fc3ae109e7e10c47f785fcf96a6",
        "verbose": "9f1d5c0a4a0e5a10be75889caaabf6f9",
    },
    "agent_store": {
        "optimized": "7568bb9b457dc04eafff94e90356f886",
        "verbose": "1262747efd269a7c6d0c7e92801865fc",
    },
}


def test_golden_digests_every_message_type():
    seen = {}
    for name, message in _golden_messages().items():
        cls = type(message)
        digests = {}
        for mode in MODES:
            text = to_wire(message, mode)
            digests[mode.value] = _sha(text.encode())
            assert to_wire(from_wire(cls, text, mode), mode) == text, (name, mode)
        if isinstance(message, (Wrapper, VcrRequest, HybridCiphertext)):
            blob = message.to_canonical()
            digests["canonical"] = _sha(blob)
            assert cls.from_canonical(blob) == message, name
        if isinstance(message, Wrapper):
            digests["signed"] = _sha(message.signed_payload())
        if isinstance(message, VcrRequest):
            digests["signed"] = _sha(message.signed_body())
            assert message.digest() == hashlib.sha256(message.signed_body()).digest()
        seen[name] = digests
    assert seen == GOLDEN_DIGESTS
