"""Trusted-device signer: encrypted master key at rest, framed-JSON daemon.

The master private key never leaves this module. At rest it sits in a state
file encrypted with AES-256-GCM under a scrypt-derived key; in memory it
lives only inside an unlocked SignerState, next to at most KEY_CACHE_SIZE
derived signing keys, all dropped by ``lock()``. The daemon speaks 4-byte
little-endian length-prefixed JSON frames over a unix socket and serves one
connection at a time; responses carry signatures and extended *public* keys,
never private material.
"""

from __future__ import annotations

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
    Locked,
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

MAX_FRAME_BYTES = 1 << 20

# Derived signing keys an unlocked signer keeps, least recently used dropped
# first. A miss costs a path derivation plus an OpenSSL key build, about three
# times a signature with a kept key; 512 kept keys take about 1 MB.
KEY_CACHE_SIZE = 512

_SCRYPT_N = 1 << 14
_SCRYPT_R = 8
_SCRYPT_P = 1


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
    """Unlocked signer: master key, device ledger, confirmation policy."""

    def __init__(
        self,
        master: ExtendedPrivateKey,
        devices: dict[int, str],
        state_path: str,
        passphrase: str,
        policy: ConfirmationPolicy = ConfirmationPolicy.AUTO_APPROVE,
        confirm_hook: ConfirmHook | None = None,
    ) -> None:
        self._master: ExtendedPrivateKey | None = master
        self._keys: OrderedDict[DerivationPath, curve.PrivateKey] = OrderedDict()
        self._keys_lock = threading.Lock()
        self._devices = devices
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
        state = cls(master, {}, state_path, passphrase, policy)
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
            key = _derive_file_key(passphrase, bytes.fromhex(kdf["salt"]))
            nonce, box = (bytes.fromhex(envelope[k]) for k in ("nonce", "ciphertext"))
            plaintext = AESGCM(key).decrypt(nonce, box, aad)
            inner = encoding.json_object(plaintext)
            master = deserialize_xprv(bytes.fromhex(inner["master"]))
            devices = {int(k): v for k, v in inner["devices"].items()}
        except InvalidTag:
            raise WrongPassphrase("passphrase does not unlock this state") from None
        except encoding.DECODE_ERRORS as exc:
            raise MalformedMessage(f"corrupt signer state: {exc!r}") from None
        return cls(master, devices, state_path, passphrase, policy, confirm_hook)

    def save(self) -> None:
        master = self._require_unlocked()
        inner = json.dumps(
            {
                "master": master.serialize().hex(),
                "devices": {str(k): v for k, v in self._devices.items()},
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

    def lock(self) -> None:
        """Drop key material; every signing op afterwards raises Locked."""
        with self._keys_lock:
            self._master = None
            self._keys.clear()

    def export_backup(self) -> bytes:
        """Encrypted backup = the state file bytes; never plaintext."""
        with open(self._state_path, "rb") as fh:
            return fh.read()

    def _require_unlocked(self) -> ExtendedPrivateKey:
        if self._master is None:
            raise Locked("signer state is locked")
        return self._master

    # --- operations ---------------------------------------------------------

    def issue_device_xpub(self, device_id: int) -> ExtendedPublicKey:
        DerivationPath((device_id,))  # an int in [0, 2^31), or raises
        master = self._require_unlocked()
        if self._devices.get(device_id) == "retired":
            raise DeviceRetired(f"device {device_id} is retired")
        xpub = neuter(derive_child_priv(master, device_id))
        if self._devices.get(device_id) != "active":
            self._devices[device_id] = "active"
            self.save()
        return xpub

    def retire_device(self, device_id: int) -> None:
        DerivationPath((device_id,))  # an int in [0, 2^31), or raises
        self._require_unlocked()
        if self._devices.get(device_id) != "retired":
            self._devices[device_id] = "retired"
            self.save()

    def device_status(self, device_id: int) -> str:
        return self._devices.get(device_id, "unknown")

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
        master = self._require_unlocked()
        if len(path) == 0:
            raise UnknownPath("signing under the bare master is not allowed")
        if len(digest) != 32:
            raise MalformedMessage("digest must be 32 bytes")
        if self._devices.get(path.segments[0]) == "retired":
            raise DeviceRetired(f"device {path.segments[0]} is retired")
        if not self._confirm(path, summary):
            raise SignerRefused(str(path))
        return curve.sign_digest(self._signing_key(master, path), digest)

    def _signing_key(
        self, master: ExtendedPrivateKey, path: DerivationPath
    ) -> curve.PrivateKey:
        with self._keys_lock:
            key = self._keys.get(path)
            if key is not None:
                self._keys.move_to_end(path)
                return key
        key = curve.private_key(derive_path(master, path).secret)
        with self._keys_lock:
            if self._master is master:  # not locked meanwhile
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
    """Answers frames on one connection until the peer closes it."""

    def handle(self) -> None:
        while True:
            try:
                frame = read_frame(self.request)
            except MalformedMessage as exc:
                reply = {"ok": False, "err": exc.code, "message": str(exc)}
                write_frame(self.request, reply)
                return
            if frame is None:
                return
            write_frame(self.request, self.server._handle(frame))


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

    def serve_forever(self, poll_interval: float = 0.2) -> None:
        try:
            super().serve_forever(poll_interval)
        finally:
            self.server_close()

    def server_close(self) -> None:
        """Close the listening socket and remove its file."""
        super().server_close()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

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
                path = DerivationPath.parse(str(frame["path"]))
                digest = bytes.fromhex(str(frame["digest"]))
                signature = self.state.sign_digest(
                    path, digest, frame.get("summary")
                )
                return {"ok": True, "result": signature.hex()}
            return {"ok": False, "err": "UnknownOp", "message": f"no such op {op!r}"}
        except errors.VcrkitError as exc:
            return {"ok": False, "err": exc.code, "message": str(exc)}
        except encoding.DECODE_ERRORS as exc:  # the rest of the one tuple
            return {"ok": False, "err": "MalformedMessage", "message": str(exc)}


@dataclass
class SignerClient:
    """Client side of the framed protocol; satisfies the signing-oracle
    interface that sign_vcr expects."""

    socket_path: str
    timeout: float = 10.0

    def _request(self, payload: dict, decode=str):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(self.timeout)
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
        return self._request(
            {"op": "device_xpub", "device_id": device_id},
            lambda result: ExtendedPublicKey.deserialize(bytes.fromhex(result)),
        )

    def retire_device(self, device_id: int) -> None:
        self._request({"op": "retire_device", "device_id": device_id})

    def sign_digest(
        self, path: DerivationPath, digest: bytes, summary: str | None = None
    ) -> bytes:
        payload = {"op": "sign", "path": str(path), "digest": digest.hex()}
        if summary is not None:
            payload["summary"] = summary
        return self._request(payload, bytes.fromhex)
