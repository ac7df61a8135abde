"""Canonical byte serialization and the two JSON wire modes.

Two distinct encodings live here:

* The canonical encoding: a deterministic, injective, length-prefixed binary
  layout. This is the only thing that is ever hashed or signed. Field order
  is fixed per message type and each top-level message starts with a 1-byte
  type tag, so no two distinct messages can share bytes.

* The JSON wire encodings, VERBOSE and OPTIMIZED, used on the HTTP path and
  in store files. OPTIMIZED substitutes single-letter keys for the long
  field names, stores times as unix integers and binary fields as unpadded
  urlsafe base64. VERBOSE keeps long names, ISO-8601 timestamps and hex
  binaries. Both decode to equal in-memory messages; nothing on the JSON
  path is ever signed.

Each message is described once: a ``Message`` subclass lists its fields in
wire order as ``FIELDS``, each with a kind (``STR``, ``TIME``, ``BIN``,
``integer``, ``fixed``, ``nested``, ``list_of``, ``map_of``, ...). Both JSON
modes and the canonical writer and reader are derived from that list. Each
class's JSON encoder and decoder are generated once per mode, on first use:
two straight-line functions written in one pass over the field table, the
way ``dataclasses`` writes ``__init__``, built only from the table itself.
``message_row`` writes a message as one row instead, its nested messages'
fields inlined, from the same tables.
A JSON value is decoded only from its own JSON type: a string field takes a
string, an integer field an integer (not a bool), and so on, and a text
value (base64, hex, a time) only in the one spelling its encoder writes.
"""

from __future__ import annotations

import binascii
import dataclasses
import inspect
import itertools
import json
import keyword
from dataclasses import KW_ONLY, dataclass
from datetime import datetime, timezone
from enum import Enum

from .errors import MalformedMessage, UnencodableField, VcrkitError

MAX_FIELD_BYTES = 1 << 20
MAX_LIST_ITEMS = 1 << 16

# Canonical type tags.
TAG_CLIENT_ID = 0x01
TAG_WRAPPER = 0x02
TAG_VCR_BODY = 0x03
TAG_SEALED = 0x05


class WireMode(Enum):
    VERBOSE = "verbose"
    OPTIMIZED = "optimized"


# Long field name -> single-letter wire key. One global bijection, checked
# by tests. "vcr_pubkeys" -> "v" matches the protocol's published example.
WIRE_KEYS = {
    "version": "V",
    "cookie_name": "n",
    "cookie_value": "c",
    "client_id": "y",
    "vcr_pubkeys": "v",
    "issued_at": "i",
    "server_key_id": "d",
    "signature": "g",
    "wrappers": "w",
    "action": "a",
    "kind": "k",
    "response_pubkey": "r",
    "changes": "m",
    "field": "f",
    "old_value": "o",
    "new_value": "e",
    "timestamp": "t",
    "signatures": "s",
    "unified_xpub": "u",
    "session_indices": "j",
    "ephemeral_pubkey": "E",
    "nonce": "N",
    "ciphertext": "C",
    "wrapper_endpoint": "W",
    "vcr_endpoint": "R",
    "server_pubkey": "K",
    "derivation_path": "q",
    "wrapper": "x",
    "created_at": "b",
    "history": "H",
    "visit_time": "T",
    "visit_url": "U",
    "device_id": "I",
    "device_xpub": "X",
    "next_session": "J",
    "server_counters": "S",
    "server_ids": "Y",
    "sessions": "L",
    "servers": "G",
    "server": "F",
    "pinned_keys": "Q",
    "visits": "A",
    "attributes": "B",
    "records": "D",
    "unbound_cookies": "O",
}


def wire_key(name: str, mode: WireMode) -> str:
    if mode is WireMode.OPTIMIZED:
        return WIRE_KEYS[name]
    return name


class CanonicalWriter:
    """Deterministic binary writer for the signing path."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        if not 0 <= value < 1 << 8:
            raise UnencodableField(f"u8 out of range: {value}")
        self._parts.append(bytes([value]))

    def u32(self, value: int) -> None:
        if not 0 <= value < 1 << 32:
            raise UnencodableField(f"u32 out of range: {value}")
        self._parts.append(value.to_bytes(4, "big"))

    def u64(self, value: int) -> None:
        if not 0 <= value < 1 << 64:
            raise UnencodableField(f"u64 out of range: {value}")
        self._parts.append(value.to_bytes(8, "big"))

    def fixed(self, data: bytes, size: int) -> None:
        if len(data) != size:
            raise UnencodableField(f"expected {size} bytes, got {len(data)}")
        self._parts.append(data)

    def vbytes(self, data: bytes) -> None:
        if len(data) > MAX_FIELD_BYTES:
            raise UnencodableField(f"field of {len(data)} bytes exceeds bound")
        self.u32(len(data))
        self._parts.append(data)

    def vstr(self, text: str) -> None:
        self.vbytes(text.encode("utf-8"))

    def count(self, n: int) -> None:
        if n > MAX_LIST_ITEMS:
            raise UnencodableField(f"list of {n} items exceeds bound")
        self.u32(n)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class CanonicalReader:
    """Mirror of CanonicalWriter; any shortfall raises MalformedMessage."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise MalformedMessage("truncated canonical message")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def fixed(self, size: int) -> bytes:
        return self._take(size)

    def vbytes(self) -> bytes:
        size = self.u32()
        if size > MAX_FIELD_BYTES:
            raise MalformedMessage("oversized field in canonical message")
        return self._take(size)

    def vstr(self) -> str:
        try:
            return self.vbytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedMessage(f"bad utf-8: {exc}") from None

    def count(self) -> int:
        n = self.u32()
        if n > MAX_LIST_ITEMS:
            raise MalformedMessage("oversized list in canonical message")
        return n

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise MalformedMessage("trailing bytes after canonical message")


# --- field kinds -------------------------------------------------------------

def _same(value):
    return value


def _modes(optimized, verbose=None) -> dict:
    return {WireMode.OPTIMIZED: optimized, WireMode.VERBOSE: verbose or optimized}


def _lift(table: dict, make) -> dict:
    """Per-mode functions built by ``make`` from ``table``'s."""
    return {mode: make(table[mode]) for mode in WireMode}


class Kind:
    """How one field value is written: ``write(w, value)`` and ``read(r)``
    for the canonical form (None for kinds that have none), and per JSON
    mode ``encode[mode](value)`` and ``decode[mode](raw)``. A row also
    keeps ``unpack(raw, names)``, the source that decodes one OPTIMIZED row
    in line (see ``_unpack_row``), and its ``label``, so that a list of
    rows decodes in one loop. A nested message's kind keeps its
    ``message`` class."""

    def __init__(
        self, write=None, read=None, encode=None, decode=None, *, unpack=None, label="", message=None
    ) -> None:
        self.write = write
        self.read = read
        self.encode = _modes(_same) if encode is None else encode
        self.decode = _modes(_same) if decode is None else decode
        self.unpack = unpack
        self.label = label
        self.message = message


# --- generated codecs --------------------------------------------------------
# An encoder or decoder is written as source once, when its row is defined
# or its message class is first used, and compiled with ``exec``. The source
# holds only class-definition data: attribute names checked by
# ``_check_identifier``, wire keys placed by ``repr`` and the local names
# below. Neither a message nor decoded input ever reaches it.


def _check_identifier(name: str) -> None:
    if not name.isidentifier() or keyword.iskeyword(name):
        raise TypeError(f"{name!r} is not an identifier")


def _compile(name: str, label: str, arg: str, body: list[str], names: dict):
    """``def <name>(<arg>): <body>``, with ``names`` bound in its closure;
    ``<name label>`` names its source in tracebacks and profiles. Every
    message's ``encode`` and ``decode`` and every row's decoders are built
    here."""
    source = "\n".join(
        [
            f"def make({', '.join(names)}):",
            f"    def {name}({arg}):",
            *(f"        {line}" for line in body),
            f"    return {name}",
        ]
    )
    scope: dict = {}
    exec(compile(source, f"<{name} {label}>", "exec"), scope)
    return scope["make"](**names)


def _tuple(items) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


# Unpadded urlsafe base64, straight through binascii: the base64 module's
# wrappers cost more than the conversion for these short fields. Each value
# is read only as it is written: binascii skips characters outside its
# alphabet, so "+", "/" and "=" are mapped to one it skips, and a skipped
# character shows as a short result. A last character's bits beyond the
# data must be zero, or "AB" would read as "AA" does.
_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
_TO_URLSAFE = bytes.maketrans(b"+/", b"-_")
_FROM_URLSAFE = bytes.maketrans(b"-_+/=", b"+/!!!")
# By length mod 4: the padding binascii wants, and the characters a value
# may end with (none for a length no value has).
_PADDING = (b"", b"===", b"==", b"=")
_LAST_CHARS = ("", "", _ALPHABET[::16], _ALPHABET[::4])


def _b64_encode(data: bytes) -> str:
    encoded = binascii.b2a_base64(data, newline=False).rstrip(b"=")
    return encoded.translate(_TO_URLSAFE).decode("ascii")


def _b64_decode(text: str) -> bytes:
    tail = len(text) % 4
    padded = text.encode("ascii").translate(_FROM_URLSAFE) + _PADDING[tail]
    data = binascii.a2b_base64(padded)
    if len(data) != len(text) * 3 // 4 or tail and text[-1] not in _LAST_CHARS[tail]:
        raise ValueError(f"{text!r} is not unpadded urlsafe base64 as written")
    return data


def _b64_sized(size: int):
    """``_b64_decode`` of a value of ``size`` bytes, the size checked in the
    same call: the text has the one length such a value is written in, and
    a skipped character shows as a short result."""
    chars = -(-size * 4 // 3)
    padding, last = _PADDING[chars % 4], _LAST_CHARS[chars % 4]

    def decode(text: str) -> bytes:
        data = binascii.a2b_base64(text.encode("ascii").translate(_FROM_URLSAFE) + padding)
        if len(data) != size or len(text) != chars or last and text[-1] not in last:
            raise ValueError(f"{text!r} is not {size} bytes of unpadded urlsafe base64")
        return data

    return decode


def _hex_decode(text: str) -> bytes:
    """Lowercase hex pairs, nothing between them: ``bytes.fromhex`` would
    also take spaces and uppercase."""
    data = bytes.fromhex(text)
    if data.hex() != text:
        raise ValueError(f"{text!r} is not lowercase hex as written")
    return data


def _iso_from_unix(ts: int) -> str:
    return (
        datetime.fromtimestamp(int(ts), tz=timezone.utc)
        .isoformat()
        .replace("+00:00", "Z")
    )


def _unix_from_iso(text: str) -> int:
    ts = int(datetime.fromisoformat(text.replace("Z", "+00:00")).timestamp())
    if _iso_from_unix(ts) != text:
        raise ValueError(f"time {text!r} is not written as {_iso_from_unix(ts)!r}")
    return ts


def _exactly(json_type: type):
    """A decoder that passes a value of exactly ``json_type`` and refuses any
    other with TypeError: no value is coerced, and a bool is not an int."""

    def decode(raw):
        if type(raw) is not json_type:
            raise TypeError(f"expected {json_type.__name__}, got {type(raw).__name__}")
        return raw

    decode.json_type = json_type  # lets a row check it in line; see _unpack_row
    return decode


_STR, _INT, _LIST = _exactly(str), _exactly(int), _exactly(list)

STR = Kind(CanonicalWriter.vstr, CanonicalReader.vstr, decode=_modes(_STR))
# Unix seconds: a JSON integer in OPTIMIZED, ISO-8601 text in VERBOSE.
TIME = Kind(
    CanonicalWriter.u64,
    CanonicalReader.u64,
    _modes(int, _iso_from_unix),
    _modes(_INT, _unix_from_iso),
)
# Length-prefixed bytes: unpadded urlsafe base64 in OPTIMIZED, hex in VERBOSE.
BIN = Kind(
    CanonicalWriter.vbytes,
    CanonicalReader.vbytes,
    _modes(_b64_encode, bytes.hex),
    _modes(_b64_decode, _hex_decode),
)


def integer(bits: int = 64) -> Kind:
    """Unsigned integer; canonical width of 8, 32 or 64 bits."""
    return Kind(
        getattr(CanonicalWriter, f"u{bits}"),
        getattr(CanonicalReader, f"u{bits}"),
        decode=_modes(_INT),
    )


def fixed(size: int) -> Kind:
    """Bytes of one size. JSON is as for ``BIN``; a JSON read of another
    size raises ValueError, as the canonical reader's would fail."""

    def read(raw) -> bytes:
        data = _hex_decode(raw)
        if len(data) != size:
            raise ValueError(f"expected {size} bytes, got {len(data)}")
        return data

    return Kind(
        lambda w, value: w.fixed(value, size),
        lambda r: r.fixed(size),
        BIN.encode,
        _modes(_b64_sized(size), read),
    )


def choice(enum, words: dict) -> Kind:
    """An IntEnum: a u8, its number in OPTIMIZED and its word in VERBOSE."""
    by_word = {word: member for member, word in words.items()}
    return Kind(
        lambda w, value: w.u8(int(value)),
        lambda r: enum(r.u8()),
        _modes(int, words.__getitem__),
        _modes(lambda raw: enum(_INT(raw)), by_word.__getitem__),
    )


def converted(kind: Kind, parse, format) -> Kind:
    """A value held as another type: ``parse`` builds it from ``kind``'s
    value and ``format`` turns it back."""
    return Kind(
        lambda w, value: kind.write(w, format(value)),
        lambda r: parse(kind.read(r)),
        _lift(kind.encode, lambda encode: lambda value: encode(format(value))),
        _lift(kind.decode, lambda decode: lambda raw: parse(decode(raw))),
    )


def maybe(kind: Kind) -> Kind:
    """A value or None; canonically a presence byte, then the value."""

    def write(w: CanonicalWriter, value) -> None:
        w.u8(value is not None)
        if value is not None:
            kind.write(w, value)

    return Kind(
        write,
        lambda r: kind.read(r) if r.u8() else None,
        _lift(kind.encode, lambda encode: lambda v: None if v is None else encode(v)),
        _lift(kind.decode, lambda decode: lambda v: None if v is None else decode(v)),
    )


def list_of(kind: Kind, container=tuple) -> Kind:
    """A sequence held as ``container``; canonically a count, then items."""

    def write(w: CanonicalWriter, value) -> None:
        w.count(len(value))
        for item in value:
            kind.write(w, item)

    decode = _lift(
        kind.decode, lambda decode: lambda raw: container(map(decode, _LIST(raw)))
    )
    if kind.unpack:
        # A list of rows is read straight through, with no call per row.
        names = {"container": container}
        lines, value = kind.unpack("item", names)
        decode[WireMode.OPTIMIZED] = _compile(
            "decode",
            f"list_of({kind.label}) optimized",
            "raw",
            [
                "out = []",
                "for item in array(raw):",
                *(f"    {line}" for line in lines),
                f"    out.append({value})",
                "return out" if container is list else "return container(out)",
            ],
            names,
        )
    return Kind(
        write,
        lambda r: container([kind.read(r) for _ in range(r.count())]),
        _lift(kind.encode, lambda encode: lambda value: list(map(encode, value))),
        decode,
    )


def map_of(kind: Kind, key=str) -> Kind:
    """A dict whose keys are str on the wire; ``key`` converts them back,
    and a key is read only as it is written (``"1"``, not ``"01"``)."""

    def exact(text: str):
        if str(value := key(text)) != text:
            raise ValueError(f"map key {text!r} is not written as {str(value)!r}")
        return value

    return Kind(
        encode=_lift(
            kind.encode,
            lambda encode: lambda value: {str(k): encode(v) for k, v in value.items()},
        ),
        decode=_lift(
            kind.decode,
            lambda decode: lambda raw: {exact(k): decode(v) for k, v in raw.items()},
        ),
    )


def row(*columns: tuple[str, Kind]) -> Kind:
    """A fixed tuple of named columns: a JSON array in OPTIMIZED, an object
    keyed by the column names in VERBOSE."""
    kinds = [kind for _, kind in columns]

    def write(w: CanonicalWriter, value) -> None:
        for kind, item in zip(kinds, value):
            kind.write(w, item)

    return _row(
        f"row({', '.join(name for name, _ in columns)})",
        columns,
        [f"m[{i}]" for i in range(len(columns))],
        lambda values, names: ([], _tuple(values)),
        write,
        lambda r: tuple([kind.read(r) for kind in kinds]),
    )


def message_row(cls: type["Message"]) -> Kind:
    """``cls`` as one row: its fields in table order, each nested message's
    fields inlined in their own table order. Decoding builds each message
    as its own decoder does (``_built``), inner ones first. Every field on
    the way must be required, as a row has no optional column; the
    canonical form is the message's own."""
    columns, getters = [], []

    def inline(message, at: str) -> None:
        default = message._from_fields.__func__ is Message._from_fields.__func__
        for f in message.FIELDS:
            if f.omit_empty or f.flatten or not default:
                raise TypeError(f"{message.__name__}.{f.attr} cannot be a row's column")
            if f.kind.message:
                inline(f.kind.message, f"{at}.{f.attr}")
            else:
                columns.append((f.name, f.kind))
                getters.append(f"{at}.{f.attr}")

    def build(values, names):
        values, lines, tags = iter(values), [], itertools.count()

        def construct(message) -> str:
            args = [
                (f.attr, construct(f.kind.message) if f.kind.message else next(values))
                for f in message.FIELDS
            ]
            more, value = _built(message, args, names, str(next(tags)))
            lines.extend(more)
            return value

        value = construct(cls)
        return lines, value

    inline(cls, "m")
    whole = nested(cls)
    return _row(f"row({cls.__name__})", columns, getters, build, whole.write, whole.read)


def _row(label: str, columns, getters, build, write, read) -> Kind:
    """A row of ``columns`` (name, kind): a JSON array in OPTIMIZED, an
    object keyed by the column names in VERBOSE. ``getters`` are the
    expressions of each column's value in the value ``m`` encoded, and
    ``build(values, names)`` gives the source lines that build a decoded
    value from its columns' expressions, and the expression of that value.
    Every encoder and decoder is generated here."""
    if len({name for name, _ in columns}) < len(columns):
        raise TypeError(f"{label} names a column twice")

    def unpack(raw: str, names: dict) -> tuple[list[str], str]:
        lines, values = _unpack_row(columns, raw, names)
        built, value = build(values, names)
        return [*lines, *built], value

    encode, decode = {}, {}
    for mode in WireMode:
        items = [f"e{i}({getter})" for i, getter in enumerate(getters)]
        if mode is WireMode.VERBOSE:
            out = "{" + ", ".join(f"{n!r}: {e}" for (n, _), e in zip(columns, items)) + "}"
        else:
            out = "[" + ", ".join(items) + "]"
        names = {f"e{i}": kind.encode[mode] for i, (_, kind) in enumerate(columns)}
        encode[mode] = _compile("encode", f"{label} {mode.value}", "m", [f"return {out}"], names)
    names = {}
    lines, value = unpack("raw", names)
    decode[WireMode.OPTIMIZED] = _compile(
        "decode", f"{label} optimized", "raw", [*lines, f"return {value}"], names
    )
    names = {f"d{i}": kind.decode[WireMode.VERBOSE] for i, (_, kind) in enumerate(columns)}
    lines, value = build([f"d{i}(raw[{name!r}])" for i, (name, _) in enumerate(columns)], names)
    decode[WireMode.VERBOSE] = _compile(
        "decode", f"{label} verbose", "raw", [*lines, f"return {value}"], names
    )
    return Kind(write, read, encode, decode, unpack=unpack, label=label)


def _unpack_row(columns, raw: str, names: dict) -> tuple[list[str], list[str]]:
    """Source lines that check the OPTIMIZED array named ``raw`` and unpack
    it, which refuses an array of another length, and the expression of
    each decoded column. A column whose decoder only checks its JSON type
    is checked in line; that decoder is called only to raise its error.
    Binds the names the lines use in ``names``."""
    names["array"] = _LIST
    items = [f"a{i}" for i in range(len(columns))]
    lines = [f"if type({raw}) is not list:", f"    array({raw})"]
    lines.append(f"[{', '.join(items)}] = {raw}")
    values = []
    for i, (_, kind) in enumerate(columns):
        decode = names[f"d{i}"] = kind.decode[WireMode.OPTIMIZED]
        json_type = getattr(decode, "json_type", None)
        if json_type is None:
            values.append(f"d{i}(a{i})")
            continue
        names[f"t{i}"] = json_type
        lines += [f"if type(a{i}) is not t{i}:", f"    d{i}(a{i})"]
        values.append(f"a{i}")
    return lines, values


def nested(cls: type["Message"]) -> Kind:
    """Another message; canonically its tag (if any), then its fields."""
    return Kind(
        lambda w, value: value._write_canonical(w),
        cls._read_canonical,
        cls._wire_out,
        cls._wire_in,
        message=cls,
    )


def time_to_wire(ts: int, mode: WireMode):
    return TIME.encode[mode](ts)


# --- messages ------------------------------------------------------------------

@dataclass
class Field:
    """One message field, in wire order, and how it is written."""

    name: str  # long wire name; WIRE_KEYS gives its letter
    kind: Kind
    attr: str = ""  # attribute holding the value, when it is not ``name``
    _: KW_ONLY
    omit_empty: bool = False  # left out of the JSON when empty, so may be absent
    signed: bool = True  # False on the trailing fields no signature covers
    when: tuple | None = None  # (attr, value): canonical only if attr is value
    flatten: str | None = None  # nested keys go here; names the one marking it

    def __post_init__(self) -> None:
        self.attr = self.attr or self.name


def _missing(data, required) -> None:
    """Name the first of the ``required`` (attr, key) pairs ``data`` lacks."""
    for attr, key in required:
        if key not in data:
            raise MalformedMessage(f"missing wire field {attr} ({key})") from None


def _under(test, line: str) -> list[str]:
    """``line``, under ``if <test>:`` when there is a test."""
    return [f"if {test}:", f"    {line}"] if test else [line]


def _json_codec(cls, mode: WireMode):
    """``cls``'s ``encode(m)`` and ``decode(data)`` in ``mode``, written in
    one pass over its field table: one line per field each way.

    An ``omit_empty`` field is written under ``if m.<attr>:`` and read
    under ``if <key> in data:``; every other key is required. A flattened
    field's keys are merged into the object, and read back from it when its
    marker key is set. With the default ``_from_fields`` and only plain
    required fields, the decoder builds the message from
    ``d0(data[key]), ...`` as ``_built`` writes it; otherwise it fills a
    dict of attributes for ``_from_fields``. A KeyError with a required key absent
    is that key's MalformedMessage; any other (an unknown word inside a
    field) goes on as it is."""
    names = {"cls": cls, "build": cls._from_fields, "missing": _missing}
    encode, decode, args, required = ["out = {}"], ["values = {}"], [], []
    for i, f in enumerate(cls.FIELDS):
        e, d, attr = f"e{i}", f"d{i}", f.attr
        names[e], names[d] = f.kind.encode[mode], f.kind.decode[mode]
        into = f"values[{attr!r}] ="
        if f.flatten:
            marker = wire_key(f.flatten, mode)
            encode += _under(f"m.{attr} is not None", f"out.update({e}(m.{attr}))")
            decode += _under(f"data.get({marker!r}) is not None", f"{into} {d}(data)")
            continue
        key = wire_key(f.name, mode)
        decoded = f"{d}(data[{key!r}])"
        encode += _under(f.omit_empty and f"m.{attr}", f"out[{key!r}] = {e}(m.{attr})")
        decode += _under(f.omit_empty and f"{key!r} in data", f"{into} {decoded}")
        if not f.omit_empty:
            required.append((attr, key))
            args.append((attr, decoded))
    encode.append("return out")
    default = cls._from_fields.__func__ is Message._from_fields.__func__
    if default and len(args) == len(cls.FIELDS):
        lines, value = _built(cls, args, names)
        decode = [*lines, f"return {value}"]
    else:
        decode.append("return cls(**values)" if default else "return build(values)")
    if required:
        names["required"] = tuple(required)
        decode = ["try:", *(f"    {line}" for line in decode)]
        decode += ["except KeyError:", "    missing(data, required)", "    raise"]
    label = f"{cls.__qualname__} {mode.value}"
    return (
        _compile("encode", label, "m", encode, names),
        _compile("decode", label, "data", decode, names),
    )


class _Compiled(dict):
    """A message class's generated encoders or decoders by mode, compiled on
    first use: by then the class is complete, its decorators applied. A
    message that nests it compiles it when that message is defined."""

    def __init__(self, cls) -> None:
        super().__init__()
        self.cls = cls

    def __missing__(self, mode: WireMode):
        cls = self.cls
        cls._wire_out[mode], cls._wire_in[mode] = _json_codec(cls, mode)
        return self[mode]


def _built(cls, args, names: dict, tag: str = "") -> tuple[list[str], str]:
    """Source lines that build ``cls`` from ``args``, its (attribute,
    expression) pairs, and the expression of the message built. When
    ``_built_in_place`` allows, each attribute is set in the new object's
    ``__dict__`` and then ``__post_init__`` checks it; otherwise ``cls`` is
    called. ``tag`` tells apart the names of the messages one function
    builds."""
    names[f"cls{tag}"] = cls
    if not _built_in_place(cls):
        # Positional when the table lists __init__'s parameters in order, a
        # call that matches no keywords; attributes are identifiers either
        # way: __init_subclass__ checked them.
        if [attr for attr, _ in args] == list(inspect.signature(cls).parameters):
            return [], f"cls{tag}({', '.join(value for _, value in args)})"
        return [], f"cls{tag}({', '.join(f'{a}={v}' for a, v in args)})"
    names["new"] = object.__new__
    lines = [f"m{tag} = new(cls{tag})", f"attrs = m{tag}.__dict__"]
    lines += [f"attrs[{attr!r}] = {value}" for attr, value in args]
    if hasattr(cls, "__post_init__"):
        names[f"post_init{tag}"] = cls.__post_init__
        lines.append(f"post_init{tag}(m{tag})")
    return lines, f"m{tag}"


def _built_in_place(cls) -> bool:
    """Whether a decoder may build ``cls`` as the ``__init__`` that
    ``dataclass(frozen=True)`` writes does, without that ``__init__``'s
    ``object.__setattr__`` per field: a frozen dataclass with no slots whose
    ``__init__`` takes exactly its fields, which are its table's."""
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or hasattr(cls, "__slots__"):
        return False
    names = [f.name for f in dataclasses.fields(cls)]
    return list(inspect.signature(cls).parameters) == names and set(names) == {
        f.attr for f in cls.FIELDS
    }


# Errors raised while a message is built from JSON or canonical bytes: input
# of the wrong shape or type, or a value a message refuses (a bad cookie, an
# off-curve point, a bad path). The decode entry points, and every other
# reader of outside input, turn any of them into the one decode error.
# OverflowError is an integer field given an infinite JSON number (1e400).
DECODE_ERRORS = (
    VcrkitError,
    TypeError,
    ValueError,
    LookupError,
    AttributeError,
    OverflowError,
)


class Message:
    """Base of every wire message: subclasses list their ``FIELDS`` in wire
    order and, when the message has a top-level canonical form, its ``TAG``.
    ``CANONICAL_ERROR`` is what ``from_canonical`` raises on bad bytes."""

    FIELDS: tuple[Field, ...] = ()
    TAG: int | None = None
    CANONICAL_ERROR: type[Exception] = MalformedMessage

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for f in cls.FIELDS:
            _check_identifier(f.attr)
        # Per mode, the encoder and decoder generated from the field table.
        cls._wire_out, cls._wire_in = _Compiled(cls), _Compiled(cls)

    @classmethod
    def _from_fields(cls, values: dict):
        return cls(**values)

    def to_wire_dict(self, mode: WireMode) -> dict:
        return self._wire_out[mode](self)

    @classmethod
    def from_wire_dict(cls, data, mode: WireMode):
        if not isinstance(data, dict):
            raise MalformedMessage(f"{cls.__name__} wire form is not an object")
        try:
            return cls._wire_in[mode](data)
        except DECODE_ERRORS as exc:
            raise MalformedMessage(f"bad {cls.__name__} wire form: {exc!r}") from None

    def _write_canonical(self, w: CanonicalWriter, signed_only: bool = False) -> None:
        if self.TAG is not None:
            w.u8(self.TAG)
        for f in self.FIELDS:
            if signed_only and not f.signed:
                break
            if f.when is None or getattr(self, f.when[0]) is f.when[1]:
                f.kind.write(w, getattr(self, f.attr))

    @classmethod
    def _read_canonical(cls, r: CanonicalReader):
        if cls.TAG is not None and r.u8() != cls.TAG:
            raise MalformedMessage(f"expected {cls.__name__} tag")
        values: dict = {}
        for f in cls.FIELDS:
            if f.when is None or values[f.when[0]] is f.when[1]:
                values[f.attr] = f.kind.read(r)
        return cls._from_fields(values)

    def to_canonical(self, signed_only: bool = False) -> bytes:
        w = CanonicalWriter()
        self._write_canonical(w, signed_only)
        return w.getvalue()

    def signed_canonical(self) -> bytes:
        """Canonical bytes up to the first field marked ``signed=False``."""
        return self.to_canonical(signed_only=True)

    @classmethod
    def from_canonical(cls, data: bytes):
        r = CanonicalReader(data)
        try:
            message = cls._read_canonical(r)
            r.expect_end()
        except DECODE_ERRORS as exc:
            raise cls.CANONICAL_ERROR(str(exc)) from None
        return message


# --- entry points ------------------------------------------------------------

def to_wire(message, mode: WireMode) -> str:
    """Compact JSON text of any message exposing to_wire_dict()."""
    return _compact(message.to_wire_dict(mode))


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=False)


def json_object(data: bytes | str) -> dict:
    """The one decoder for JSON from outside: strict UTF-8 (so no UTF-16),
    then an object, or MalformedMessage. ValueError covers bad UTF-8, bad
    JSON and too long an integer; RecursionError, too deep a nesting."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        value = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise MalformedMessage(f"bad JSON: {exc}") from None
    if not isinstance(value, dict):
        raise MalformedMessage("JSON value is not an object")
    return value


def from_wire(cls, data: bytes | str, mode: WireMode):
    return cls.from_wire_dict(json_object(data), mode)


def byte_size(message, mode: WireMode) -> int:
    """Wire size in bytes; the quantity the storage tables measure."""
    return json_size(message.to_wire_dict(mode))


def json_size(value) -> int:
    """Bytes of the compact JSON text of ``value``, a wire form a kind's
    encoder made (a session row, say)."""
    return len(_compact(value).encode("utf-8"))
