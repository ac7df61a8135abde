"""Trusted-device signer: encrypted master key at rest, framed-JSON daemon.

The master private key never leaves this module. At rest it sits in a state
file encrypted with AES-256-GCM under a scrypt-derived key; in memory it
lives only inside an unlocked SignerState, next to at most KEY_CACHE_SIZE
derived signing keys, for as long as the process that unlocked it. The
daemon speaks 4-byte little-endian length-prefixed JSON frames over a unix
socket and serves one connection at a time, one request frame and its
answer each; responses carry signatures and extended *public* keys, never
private material.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import socket
import socketserver
import threading
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

MAX_FRAME_BYTES = 1 << 20

# Derived signing keys an unlocked signer keeps, least recently used dropped
# first. A miss costs a path derivation plus an OpenSSL key build, about three
# times a signature with a kept key; 512 kept keys take about 1 MB.
KEY_CACHE_SIZE = 512

_SCRYPT_N = 1 << 14
_SCRYPT_R = 8
_SCRYPT_P = 1

# Frame values, read as VERBOSE JSON is: a number is no digest, a list no text.
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


# --- framing -----------------------------------------------------------------

def write_frame(sock: socket.socket, payload: dict) -> None:
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise MalformedMessage("frame too large")
    sock.sendall(len(data).to_bytes(4, "little") + data)


def read_frame(sock: socket.socket) -> dict | None:
    """One frame, or None on clean EOF at a frame boundary."""
    header = _read_exact(sock, 4)
    if header is None:
        return None
    length = int.from_bytes(header, "little")
    if length > MAX_FRAME_BYTES:
        raise MalformedMessage("frame too large")
    body = _read_exact(sock, length)
    if body is None and length > 0:
        raise MalformedMessage("connection closed mid-frame")
    return encoding.json_object(body or b"")


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly n bytes; None on EOF before any byte, error on partial read."""
    chunks = b""
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            if not chunks:
                return None
            raise MalformedMessage("connection closed mid-frame")
        chunks += chunk
    return chunks


class _FrameHandler(socketserver.BaseRequestHandler):
    """Answers one request frame; the connection then closes."""

    def handle(self) -> None:
        try:
            frame = read_frame(self.request)
            if frame is None:
                return
            reply = self.server._handle(frame)
        except MalformedMessage as exc:
            reply = {"ok": False, "err": exc.code, "message": str(exc)}
        write_frame(self.request, reply)


class SignerDaemon(QuietDisconnects, socketserver.UnixStreamServer):
    """Serves one connection at a time over a unix socket that exists, mode
    0600, once the constructor returns."""

    request_queue_size = 8

    def __init__(self, state: SignerState, socket_path: str) -> None:
        self.state = state
        self.socket_path = socket_path
        super().__init__(socket_path, _FrameHandler)

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

    def _handle(self, frame: dict) -> dict:
        op = frame.get("op")
        try:
            if op == "ping":
                return {"ok": True, "result": "pong"}
            if op == "device_xpub":
                xpub = self.state.issue_device_xpub(frame["device_id"])
                return {"ok": True, "result": xpub.serialize().hex()}
            if op == "retire_device":
                self.state.retire_device(frame["device_id"])
                return {"ok": True, "result": "retired"}
            if op == "sign":
                path = DerivationPath.parse(_TEXT(frame["path"]))
                digest = _DIGEST(frame["digest"])
                summary = _TEXT(frame["summary"]) if "summary" in frame else None
                signature = self.state.sign_digest(path, digest, summary)
                return {"ok": True, "result": signature.hex()}
            return {"ok": False, "err": "UnknownOp", "message": f"no such op {op!r}"}
        except errors.VcrkitError as exc:
            return {"ok": False, "err": exc.code, "message": str(exc)}
        except encoding.DECODE_ERRORS as exc:  # the rest of the one tuple
            return {"ok": False, "err": "MalformedMessage", "message": str(exc)}


@dataclass
class SignerClient:
    """Client side of the framed protocol; satisfies the signing-oracle
    interface that sign_vcr expects. It waits for each answer for as long
    as the daemon's policy takes."""

    socket_path: str

    def _request(self, payload: dict, decode=_TEXT):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(self.socket_path)
            write_frame(sock, payload)
            response = read_frame(sock)
        if response is None:
            raise MalformedMessage("daemon closed the connection")
        if response.get("ok"):
            try:
                return decode(response["result"])
            except encoding.DECODE_ERRORS as exc:
                raise MalformedMessage(f"bad signer reply: {exc!r}") from None
        err_cls = getattr(errors, str(response.get("err")), None)
        if isinstance(err_cls, type) and issubclass(err_cls, errors.VcrkitError):
            raise err_cls(response.get("message", ""))
        raise MalformedMessage(
            f"{response.get('err')}: {response.get('message', '')}"
        )

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
