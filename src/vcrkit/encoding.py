"""Canonical byte serialization and the two JSON wire modes.

Two distinct encodings live here:

* The canonical encoding: a deterministic, injective, length-prefixed binary
  layout. This is the only thing that is ever hashed or signed. Field order
  is fixed per message type and each top-level message starts with a 1-byte
  type tag, so no two distinct messages can share bytes.

* The JSON wire encodings, VERBOSE and OPTIMIZED, used on the HTTP path and
  in store files. OPTIMIZED substitutes single-letter keys for the long
  field names, stores times as unix integers, binary fields as unpadded
  urlsafe base64, and history entries as URL paths only. VERBOSE keeps long
  names, ISO-8601 timestamps, hex binaries and full URLs. Both decode to
  equal in-memory messages; nothing on the JSON path is ever signed.

Each message is described once: a ``Message`` subclass lists its fields in
wire order as ``FIELDS``, each with a kind (``STR``, ``TIME``, ``BIN``,
``integer``, ``fixed``, ``nested``, ``list_of``, ``map_of``, ...). Both JSON
modes and the canonical writer and reader are derived from that list. The
JSON decoders are generated once per class and mode, when the class is
defined: one straight-line function per field table, the way ``dataclasses``
writes ``__init__``, built only from the table itself.
"""

from __future__ import annotations

import binascii
import json
import keyword
from dataclasses import KW_ONLY, dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import partial

from .errors import MalformedMessage, UnencodableField, VcrkitError

MAX_FIELD_BYTES = 1 << 20
MAX_LIST_ITEMS = 1 << 16

# Canonical type tags.
TAG_CLIENT_ID = 0x01
TAG_WRAPPER = 0x02
TAG_VCR_BODY = 0x03
TAG_VCR_REQUEST = 0x04
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
    "signer_paths": "p",
    "signatures": "s",
    "unified_xpub": "u",
    "session_indices": "j",
    "ephemeral_pubkey": "E",
    "nonce": "N",
    "ciphertext": "C",
    "server_origin": "O",
    "endpoints": "P",
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
    "pinned_keys": "Q",
    "retired": "Z",
    "visits": "A",
    "attributes": "B",
    "records": "D",
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
    return {mode: make(fn) for mode, fn in table.items()}


class Kind:
    """How one field value is written: ``write(w, value)`` and ``read(r)``
    for the canonical form (None for kinds that have none), and per JSON
    mode ``encode[mode](value)`` and ``decode[mode](raw)``."""

    def __init__(self, write=None, read=None, encode=None, decode=None) -> None:
        self.write = write
        self.read = read
        self.encode = encode or _modes(_same)
        self.decode = decode or _modes(_same)


# --- generated decoders ------------------------------------------------------
# A decoder is written as source once, when its row or message class is
# defined, and compiled with ``exec``. The source holds only class-definition
# data: attribute names checked by ``_check_identifier``, wire keys placed by
# ``repr`` and the local names below. Decoded input never reaches it.


def _check_identifier(name: str) -> None:
    if not name.isidentifier() or keyword.iskeyword(name):
        raise TypeError(f"{name!r} is not an identifier")


def _compile(label: str, arg: str, body: list[str], names: dict):
    """``def decode(<arg>): <body>``, with ``names`` bound in its closure;
    ``label`` names its source in tracebacks and profiles."""
    source = "\n".join(
        [
            f"def make({', '.join(names)}):",
            f"    def decode({arg}):",
            *(f"        {line}" for line in body),
            "    return decode",
        ]
    )
    scope: dict = {}
    exec(compile(source, f"<decode {label}>", "exec"), scope)
    return scope["make"](**names)


def _tuple(items) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


# Unpadded urlsafe base64, straight through binascii: the base64 module's
# wrappers cost more than the conversion for these short fields.
_TO_URLSAFE = bytes.maketrans(b"+/", b"-_")
_PADDING = ("", "===", "==", "=")  # by length mod 4


def _b64_encode(data: bytes) -> str:
    encoded = binascii.b2a_base64(data, newline=False).rstrip(b"=")
    return encoded.translate(_TO_URLSAFE).decode("ascii")


def _b64_decode(text: str) -> bytes:
    text = text.replace("-", "+").replace("_", "/")
    return binascii.a2b_base64(text + _PADDING[len(text) % 4])


def _iso_from_unix(ts: int) -> str:
    return (
        datetime.fromtimestamp(int(ts), tz=timezone.utc)
        .isoformat()
        .replace("+00:00", "Z")
    )


def _unix_from_iso(value) -> int:
    return int(datetime.fromisoformat(str(value).replace("Z", "+00:00")).timestamp())


STR = Kind(CanonicalWriter.vstr, CanonicalReader.vstr, decode=_modes(str))
BOOL = Kind(decode=_modes(bool))
# Unix seconds: a JSON integer in OPTIMIZED, ISO-8601 text in VERBOSE.
TIME = Kind(
    CanonicalWriter.u64,
    CanonicalReader.u64,
    _modes(int, _iso_from_unix),
    _modes(int, _unix_from_iso),
)
# Length-prefixed bytes: unpadded urlsafe base64 in OPTIMIZED, hex in VERBOSE.
BIN = Kind(
    CanonicalWriter.vbytes,
    CanonicalReader.vbytes,
    _modes(_b64_encode, bytes.hex),
    _modes(_b64_decode, bytes.fromhex),
)


def integer(bits: int = 64) -> Kind:
    """Unsigned integer; canonical width of 8, 32 or 64 bits."""
    return Kind(
        getattr(CanonicalWriter, f"u{bits}"),
        getattr(CanonicalReader, f"u{bits}"),
        decode=_modes(int),
    )


def fixed(size: int) -> Kind:
    """Bytes of one size. JSON is as for ``BIN``; a JSON read of another
    size raises ValueError, as the canonical reader's would fail."""

    def sized(decode):
        def read(raw) -> bytes:
            data = decode(raw)
            if len(data) != size:
                raise ValueError(f"expected {size} bytes, got {len(data)}")
            return data

        return read

    return Kind(
        lambda w, value: w.fixed(value, size),
        lambda r: r.fixed(size),
        BIN.encode,
        _lift(BIN.decode, sized),
    )


def choice(enum, words: dict) -> Kind:
    """An IntEnum: a u8, its number in OPTIMIZED and its word in VERBOSE."""
    by_word = {word: member for member, word in words.items()}
    return Kind(
        lambda w, value: w.u8(int(value)),
        lambda r: enum(r.u8()),
        _modes(int, words.__getitem__),
        _modes(lambda raw: enum(int(raw)), lambda raw: by_word[str(raw)]),
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

    return Kind(
        write,
        lambda r: container([kind.read(r) for _ in range(r.count())]),
        _lift(kind.encode, lambda encode: lambda value: list(map(encode, value))),
        _lift(kind.decode, lambda decode: lambda raw: container(map(decode, raw))),
    )


def map_of(kind: Kind, key=str) -> Kind:
    """A dict whose keys are str on the wire; ``key`` converts them back."""
    return Kind(
        encode=_lift(
            kind.encode,
            lambda encode: lambda value: {str(k): encode(v) for k, v in value.items()},
        ),
        decode=_lift(
            kind.decode,
            lambda decode: lambda raw: {key(k): decode(v) for k, v in raw.items()},
        ),
    )


def row(*columns: tuple[str, Kind]) -> Kind:
    """A fixed tuple of named columns: a JSON array in OPTIMIZED, an object
    keyed by the column names in VERBOSE."""
    names = [name for name, _ in columns]
    kinds = [kind for _, kind in columns]

    def write(w: CanonicalWriter, value) -> None:
        for kind, item in zip(kinds, value):
            kind.write(w, item)

    optimized, verbose = WireMode.OPTIMIZED, WireMode.VERBOSE
    to_array = [kind.encode[optimized] for kind in kinds]
    to_object = [kind.encode[verbose] for kind in kinds]
    # OPTIMIZED unpacks the array, which refuses one of another length.
    items = [f"a{i}" for i in range(len(kinds))]
    from_array = _compile(
        f"row({', '.join(names)}) optimized",
        "raw",
        [
            f"[{', '.join(items)}] = raw",
            "return " + _tuple(f"d{i}({item})" for i, item in enumerate(items)),
        ],
        {f"d{i}": kind.decode[optimized] for i, kind in enumerate(kinds)},
    )
    from_object = _compile(
        f"row({', '.join(names)}) verbose",
        "raw",
        ["return " + _tuple(f"d{i}(raw[{n!r}])" for i, n in enumerate(names))],
        {f"d{i}": kind.decode[verbose] for i, kind in enumerate(kinds)},
    )
    return Kind(
        write,
        lambda r: tuple([kind.read(r) for kind in kinds]),
        _modes(
            lambda value: [e(item) for e, item in zip(to_array, value)],
            lambda value: {n: e(item) for n, e, item in zip(names, to_object, value)},
        ),
        _modes(from_array, from_object),
    )


def nested(cls: type["Message"]) -> Kind:
    """Another message; canonically its tag (if any), then its fields."""
    return Kind(
        lambda w, value: value._write_canonical(w),
        cls._read_canonical,
        {m: partial(_encode_fields, cls._wire_out[m]) for m in WireMode},
        cls._wire_in,
    )


def bin_to_wire(data: bytes, mode: WireMode) -> str:
    return BIN.encode[mode](data)


def time_to_wire(ts: int, mode: WireMode):
    return TIME.encode[mode](ts)


def time_from_wire(value, mode: WireMode) -> int:
    try:
        return TIME.decode[mode](value)
    except (TypeError, ValueError) as exc:
        raise MalformedMessage(f"bad timestamp: {exc}") from None


# --- messages ------------------------------------------------------------------

@dataclass
class Field:
    """One message field, in wire order, and how it is written."""

    name: str  # long wire name; WIRE_KEYS gives its letter
    kind: Kind
    attr: str = ""  # attribute holding the value, when it is not ``name``
    _: KW_ONLY
    optional: bool = False  # may be absent when decoding JSON
    omit_empty: bool = False  # optional, and left out of the JSON when empty
    signed: bool = True  # False on the trailing fields no signature covers
    when: tuple | None = None  # (attr, value): canonical only if attr is value
    flatten: str | None = None  # nested keys go here; names the one marking it
    verbose: tuple | None = None  # VERBOSE hook: (encode, decode), see below

    def __post_init__(self) -> None:
        self.attr = self.attr or self.name

    def json_entries(self, mode: WireMode) -> tuple:
        """The field's encode and decode steps in ``mode``. A plain field
        gives (key, attr, encode, omit_empty) and (attr, key, decode,
        required). A flattened or hooked one gives steps that see the whole
        message: (None, None, write(message, out), False) and (None, None,
        read(data, values), False). A ``verbose`` hook's encode gets the
        message; its decode gets the raw value and the fields decoded so
        far."""
        attr = self.attr
        encode, decode = self.kind.encode[mode], self.kind.decode[mode]
        if self.flatten:
            present = wire_key(self.flatten, mode)

            def write(message, out):
                value = getattr(message, attr)
                if value is not None:
                    out.update(encode(value))

            def read(data, values):
                if data.get(present) is not None:
                    values[attr] = decode(data)

            return (None, None, write, False), (None, None, read, False)
        key = wire_key(self.name, mode)
        if self.verbose is None or mode is not WireMode.VERBOSE:
            required = not (self.optional or self.omit_empty)
            return (key, attr, encode, self.omit_empty), (attr, key, decode, required)
        encode_all, decode_all = self.verbose

        def write(message, out):
            out[key] = encode_all(message)

        def read(data, values):
            values[attr] = decode_all(data[key], values)

        return (None, None, write, False), (None, None, read, False)


def _encode_fields(steps, message) -> dict:
    out: dict = {}
    for key, attr, encode, omit_empty in steps:
        if key is None:
            encode(message, out)
            continue
        value = getattr(message, attr)
        if omit_empty and not value:
            continue
        out[key] = encode(value)
    return out


def _missing(data, required) -> None:
    """Name the first of the ``required`` (attr, key) pairs ``data`` lacks."""
    for attr, key in required:
        if key not in data:
            raise MalformedMessage(f"missing wire field {attr} ({key})") from None


def _message_decoder(cls, mode: WireMode, steps):
    """``decode(data)`` for ``cls``'s decode ``steps`` in ``mode``.

    With the default ``_from_fields`` and only plain required fields it is
    one ``cls(attr=d0(data[key]), ...)`` call; otherwise it fills a dict of
    attributes for ``_from_fields``. A KeyError with a required key absent
    is that key's MalformedMessage; any other (an unknown word inside a
    field) goes on as it is."""
    names = {f"d{i}": decode for i, (_, _, decode, _) in enumerate(steps)}
    names.update(cls=cls, build=cls._from_fields, missing=_missing)
    required = tuple((attr, key) for attr, key, _, req in steps if attr and req)
    default = cls._from_fields.__func__ is Message._from_fields.__func__
    if default and len(required) == len(steps):
        # Attributes are identifiers: __init_subclass__ checked them.
        args = [f"{attr}=d{i}(data[{key!r}])" for i, (attr, key) in enumerate(required)]
        body = [f"return cls({', '.join(args)})"]
    else:
        body = ["values = {}"]
        for i, (attr, key, _, req) in enumerate(steps):
            value = f"values[{attr!r}] = d{i}(data[{key!r}])"
            if attr is None:
                body.append(f"d{i}(data, values)")
            elif req:
                body.append(value)
            else:
                body += [f"if {key!r} in data:", f"    {value}"]
        body.append("return cls(**values)" if default else "return build(values)")
    if required:
        names["required"] = required
        body = ["try:", *(f"    {line}" for line in body)]
        body += ["except KeyError:", "    missing(data, required)", "    raise"]
    return _compile(f"{cls.__qualname__} {mode.value}", "data", body, names)


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
        # Per mode: the encode steps, and the decoder generated from the
        # decode steps.
        cls._wire_out, cls._wire_in = {}, {}
        for mode in WireMode:
            steps = [f.json_entries(mode) for f in cls.FIELDS]
            cls._wire_out[mode] = tuple(out for out, _ in steps)
            cls._wire_in[mode] = _message_decoder(cls, mode, [s for _, s in steps])

    @classmethod
    def _from_fields(cls, values: dict):
        return cls(**values)

    def to_wire_dict(self, mode: WireMode) -> dict:
        return _encode_fields(self._wire_out[mode], self)

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
    return json.dumps(
        message.to_wire_dict(mode), separators=(",", ":"), sort_keys=False
    )


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
    return len(to_wire(message, mode).encode("utf-8"))
