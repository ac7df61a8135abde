"""Trusted-device signer: encrypted master key at rest, JSON daemon.

The master private key never leaves this module. At rest it sits in a state
file encrypted with AES-256-GCM under a scrypt-derived key; in memory it
lives only inside an unlocked SignerState, next to at most KEY_CACHE_SIZE
derived signing keys, for as long as the process that unlocked it. The
daemon serves one connection at a time over a unix socket: the client sends
one JSON object and half-closes, the daemon answers one and closes.
Responses carry signatures and extended *public* keys, never private
material.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import curve, encoding, errors, files
from .errors import (
    DeviceRetired,
    MalformedMessage,
    QuietDisconnects,
    SignerRefused,
    StateExists,
    StateMissing,
    UnknownPath,
    WrongPassphrase,
)
from .keyhier import (
    DerivationPath,
    ExtendedPrivateKey,
    ExtendedPublicKey,
    derive_child_priv,
    derive_path,
    deserialize_xprv,
    generate_master,
    neuter,
)
from .vcr import XPUB
from .wrapper import SIGNATURE_BYTES

# Derived signing keys an unlocked signer keeps, least recently used dropped
# first. A miss costs a path derivation plus an OpenSSL key build, about three
# times a signature with a kept key; 512 kept keys take about 1 MB.
KEY_CACHE_SIZE = 512

_SCRYPT_N = 1 << 14
_SCRYPT_R = 8
_SCRYPT_P = 1

# Request values, read as VERBOSE JSON is: a number is no digest, a list no text.
_TEXT = encoding.STR.decode[encoding.WireMode.VERBOSE]
_DIGEST = encoding.fixed(32).decode[encoding.WireMode.VERBOSE]
_SIGNATURE = encoding.fixed(SIGNATURE_BYTES).decode[encoding.WireMode.VERBOSE]
_XPUB = XPUB.decode[encoding.WireMode.VERBOSE]
# State file values: exact lowercase hex, and a device ledger whose keys are
# read only as written ("1", not "01") and whose values are a known status.
# The ledger records retirements; an "active" entry, which older versions
# wrote on a device's first issuance, is read and dropped.
_HEX = encoding.BIN.decode[encoding.WireMode.VERBOSE]
_LEDGER = encoding.map_of(encoding.STR, key=int).decode[encoding.WireMode.VERBOSE]
_STATUSES = {"active", "retired"}


class ConfirmationPolicy(Enum):
    AUTO_APPROVE = "auto"
    PROMPT = "prompt"
    DENY_ALL = "deny"


# PROMPT hook: (path string, optional human-readable summary) -> approve?
ConfirmHook = Callable[[str, Optional[str]], bool]


def _derive_file_key(passphrase: str, salt: bytes) -> bytes:
    return hashlib.scrypt(
        passphrase.encode("utf-8"),
        salt=salt,
        n=_SCRYPT_N,
        r=_SCRYPT_R,
        p=_SCRYPT_P,
        maxmem=64 * 1024 * 1024,
        dklen=32,
    )


class SignerState:
    """Unlocked signer: master key, ledger of retired devices, confirmation
    policy. Issuing a device key writes nothing; retiring a device saves."""

    def __init__(
        self,
        master: ExtendedPrivateKey,
        retired: set[int],
        state_path: str,
        passphrase: str,
        policy: ConfirmationPolicy = ConfirmationPolicy.AUTO_APPROVE,
        confirm_hook: ConfirmHook | None = None,
    ) -> None:
        self._master = master
        self._keys: OrderedDict[DerivationPath, curve.PrivateKey] = OrderedDict()
        self._keys_lock = threading.Lock()
        self._retired = retired
        self._state_path = state_path
        self._passphrase = passphrase
        self.policy = policy
        self.confirm_hook = confirm_hook

    # --- lifecycle ----------------------------------------------------------

    @classmethod
    def init(
        cls,
        passphrase: str,
        seed: bytes,
        state_path: str,
        policy: ConfirmationPolicy = ConfirmationPolicy.AUTO_APPROVE,
    ) -> "SignerState":
        if os.path.exists(state_path):
            raise StateExists(state_path)
        master = generate_master(seed)
        state = cls(master, set(), state_path, passphrase, policy)
        state.save()
        return state

    @classmethod
    def unlock(
        cls,
        passphrase: str,
        state_path: str,
        policy: ConfirmationPolicy = ConfirmationPolicy.AUTO_APPROVE,
        confirm_hook: ConfirmHook | None = None,
    ) -> "SignerState":
        if not os.path.exists(state_path):
            raise StateMissing(state_path)
        with open(state_path, "rb") as fh:
            data = fh.read()
        try:
            envelope = encoding.json_object(data)
            kdf = envelope["kdf"]
            aad = json.dumps(kdf, sort_keys=True).encode()
            key = _derive_file_key(passphrase, _HEX(kdf["salt"]))
            nonce, box = (_HEX(envelope[k]) for k in ("nonce", "ciphertext"))
            plaintext = AESGCM(key).decrypt(nonce, box, aad)
            inner = encoding.json_object(plaintext)
            master = deserialize_xprv(_HEX(inner["master"]))
            devices = _LEDGER(inner["devices"])
            if not _STATUSES.issuperset(devices.values()):
                raise MalformedMessage("device status is not active or retired")
            retired = {d for d, status in devices.items() if status == "retired"}
        except InvalidTag:
            raise WrongPassphrase("passphrase does not unlock this state") from None
        except encoding.DECODE_ERRORS as exc:
            raise MalformedMessage(f"corrupt signer state: {exc!r}") from None
        return cls(master, retired, state_path, passphrase, policy, confirm_hook)

    def save(self) -> None:
        inner = json.dumps(
            {
                "master": self._master.serialize().hex(),
                "devices": {str(d): "retired" for d in sorted(self._retired)},
            }
        ).encode()
        salt = os.urandom(16)
        kdf = {
            "name": "scrypt",
            "n": _SCRYPT_N,
            "r": _SCRYPT_R,
            "p": _SCRYPT_P,
            "salt": salt.hex(),
        }
        aad = json.dumps(kdf, sort_keys=True).encode()
        nonce = os.urandom(12)
        key = _derive_file_key(self._passphrase, salt)
        ciphertext = AESGCM(key).encrypt(nonce, inner, aad)
        envelope = {
            "kdf": kdf,
            "nonce": nonce.hex(),
            "ciphertext": ciphertext.hex(),
        }
        files.write_private(self._state_path, json.dumps(envelope).encode())

    # --- operations ---------------------------------------------------------

    def issue_device_xpub(self, device_id: int) -> ExtendedPublicKey:
        DerivationPath((device_id,))  # an int in [0, 2^31), or raises
        if device_id in self._retired:
            raise DeviceRetired(f"device {device_id} is retired")
        return neuter(derive_child_priv(self._master, device_id))

    def retire_device(self, device_id: int) -> None:
        DerivationPath((device_id,))  # an int in [0, 2^31), or raises
        if device_id not in self._retired:
            self._retired.add(device_id)
            self.save()

    def _confirm(self, path: DerivationPath, summary: str | None) -> bool:
        if self.policy is ConfirmationPolicy.AUTO_APPROVE:
            return True
        if self.policy is ConfirmationPolicy.DENY_ALL:
            return False
        if self.confirm_hook is None:
            return False
        # Summary is caller-supplied and unvalidated; shown verbatim.
        return bool(self.confirm_hook(str(path), summary))

    def sign_digest(
        self, path: DerivationPath, digest: bytes, summary: str | None = None
    ) -> bytes:
        if len(path) == 0:
            raise UnknownPath("signing under the bare master is not allowed")
        if len(digest) != 32:
            raise MalformedMessage("digest must be 32 bytes")
        if path.segments[0] in self._retired:
            raise DeviceRetired(f"device {path.segments[0]} is retired")
        if not self._confirm(path, summary):
            raise SignerRefused(str(path))
        return curve.sign_digest(self._signing_key(path), digest)

    def _signing_key(self, path: DerivationPath) -> curve.PrivateKey:
        with self._keys_lock:
            key = self._keys.get(path)
            if key is not None:
                self._keys.move_to_end(path)
                return key
        key = curve.private_key(derive_path(self._master, path).secret)
        with self._keys_lock:
            self._keys[path] = key
            if len(self._keys) > KEY_CACHE_SIZE:
                self._keys.popitem(last=False)
        return key


# --- messages ----------------------------------------------------------------
# One JSON object each way per connection, ended by its sender's half-close.

def send_message(sock: socket.socket, payload) -> None:
    """Send ``payload`` as JSON, then half-close the socket."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > QuietDisconnects.MAX_MESSAGE_BYTES:
        raise MalformedMessage("message too large")
    sock.sendall(data)
    sock.shutdown(socket.SHUT_WR)


def read_message(sock: socket.socket, deadline: float | None = None) -> dict:
    """The JSON object in the bytes up to the peer's EOF. More than
    QuietDisconnects.MAX_MESSAGE_BYTES is MalformedMessage; bytes still
    missing at ``deadline``, a ``time.monotonic()`` value, are TimeoutError."""
    data = bytearray()
    while True:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("message not read by its deadline")
            sock.settimeout(remaining)
        chunk = sock.recv(1 << 16)
        if not chunk:
            return encoding.json_object(bytes(data))
        data += chunk
        if len(data) > QuietDisconnects.MAX_MESSAGE_BYTES:
            raise MalformedMessage("message too large")


class _Handler(socketserver.BaseRequestHandler):
    """Answers one request, read whole within READ_SECONDS of accept, as
    one slow peer holds every later one; the connection then closes. A
    refusal names its error class and nothing else, as the HTTP server's
    do: none quotes the request, so none outgrows the message limit."""

    def handle(self) -> None:
        deadline = time.monotonic() + self.server.READ_SECONDS
        try:
            reply = self.server._handle(read_message(self.request, deadline))
        except encoding.DECODE_ERRORS as exc:
            known = isinstance(exc, errors.VcrkitError)
            reply = {"ok": False, "err": exc.code if known else "MalformedMessage"}
        send_message(self.request, reply)


class SignerDaemon(QuietDisconnects, socketserver.UnixStreamServer):
    """Serves one connection at a time over a unix socket that exists, mode
    0600, once the constructor returns."""

    request_queue_size = 8

    def __init__(self, state: SignerState, socket_path: str) -> None:
        self.state = state
        self.socket_path = socket_path
        super().__init__(socket_path, _Handler)

    def server_bind(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        super().server_bind()
        os.chmod(self.socket_path, 0o600)

    def server_close(self) -> None:
        """Close the listening socket and remove its file (loop end or close())."""
        super().server_close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.socket_path)

    def _handle(self, request: dict) -> dict:
        """The ok reply to ``request``; anything else raises."""
        op = request.get("op")
        if op == "ping":
            result = "pong"
        elif op == "device_xpub":
            xpub = self.state.issue_device_xpub(request["device_id"])
            result = xpub.serialize().hex()
        elif op == "retire_device":
            self.state.retire_device(request["device_id"])
            result = "retired"
        elif op == "sign":
            path = DerivationPath.parse(_TEXT(request["path"]))
            digest = _DIGEST(request["digest"])
            summary = _TEXT(request["summary"]) if "summary" in request else None
            result = self.state.sign_digest(path, digest, summary).hex()
        else:
            raise MalformedMessage("no such op")
        return {"ok": True, "result": result}


@dataclass
class SignerClient:
    """Client side of the daemon's protocol; satisfies the signing-oracle
    interface that sign_vcr expects. It waits for each answer for as long
    as the daemon's policy takes."""

    socket_path: str

    def _request(self, payload: dict, decode=_TEXT):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(self.socket_path)
            send_message(sock, payload)
            response = read_message(sock)
        if response.get("ok"):
            try:
                return decode(response["result"])
            except encoding.DECODE_ERRORS as exc:
                raise MalformedMessage(f"bad signer reply: {exc!r}") from None
        # The reply names the class alone; the message tells what was asked.
        asked = {k: payload[k] for k in ("op", "device_id", "path") if k in payload}
        err_cls = getattr(errors, str(response.get("err")), None)
        if isinstance(err_cls, type) and issubclass(err_cls, errors.VcrkitError):
            raise err_cls(f"signer refused {asked}")
        raise MalformedMessage(f"signer reply to {asked} names no error class")

    def ping(self) -> bool:
        return self._request({"op": "ping"}) == "pong"

    def issue_device_xpub(self, device_id: int) -> ExtendedPublicKey:
        return self._request({"op": "device_xpub", "device_id": device_id}, _XPUB)

    def retire_device(self, device_id: int) -> None:
        self._request({"op": "retire_device", "device_id": device_id})

    def sign_digest(
        self, path: DerivationPath, digest: bytes, summary: str | None = None
    ) -> bytes:
        payload = {"op": "sign", "path": str(path), "digest": digest.hex()}
        if summary is not None:
            payload["summary"] = summary
        return self._request(payload, _SIGNATURE)
