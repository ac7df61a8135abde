"""Exception classes shared across the toolkit.

Every error carries a stable machine-readable ``code`` (the class name) so
the CLI and the reference server can surface error classes without leaking
anything beyond the class itself. ``QuietDisconnects`` is the one serving
base of both servers: how they serve, stop and close, and which errors they
report on stderr.
"""

import sys
import threading


class VcrkitError(Exception):
    """Base class for all protocol and tooling errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- key hierarchy ---------------------------------------------------------

class InvalidSeedLength(VcrkitError):
    """Master seed outside the accepted 16..64 byte range."""


class DegenerateKey(VcrkitError):
    """A secret scalar (a seed's master, a server key) is 0 or >= N."""


class HardenedIndexRejected(VcrkitError):
    """Derivation index >= 2^31; only non-hardened keys are supported."""


class DegenerateChild(VcrkitError):
    """Child derivation hit the scheme's skip case; retry with the next index."""


class MalformedPath(VcrkitError):
    """Derivation path string or segment list is not valid here."""


# --- encoding --------------------------------------------------------------

class UnencodableField(VcrkitError):
    """A message field exceeds its declared wire bounds."""


class MalformedMessage(VcrkitError):
    """Canonical or wire bytes do not parse as the expected message."""


# --- wrappers --------------------------------------------------------------

class InvalidPublicKey(VcrkitError):
    """Bytes are not a valid compressed curve point."""


class ClockUnavailable(VcrkitError):
    """No usable current time was supplied for issuance."""


class BadSignature(VcrkitError):
    """Signature does not verify under the expected key."""


class MalformedWrapper(VcrkitError):
    """Wrapper structure violates its invariants."""


class UnknownServerKey(VcrkitError):
    """Wrapper names a server key id the verifier does not hold."""


class PublicKeyMismatch(VcrkitError):
    """Echoed wrapper carries different keys than were sent (injection)."""


class ClientIdMismatch(VcrkitError):
    """Echoed wrapper carries a different cookie than was sent."""


# --- consumer requests -----------------------------------------------------

class MixedServers(VcrkitError):
    """Wrappers in one request were issued under different server keys."""


class EmptyWrapperList(VcrkitError):
    """A request needs at least one wrapper."""


class SignerRefused(VcrkitError):
    """The trusted device declined to sign."""


class UnknownPath(VcrkitError):
    """The signer cannot resolve the requested derivation path."""


class BadWrapper(VcrkitError):
    """A wrapper inside the request failed verification."""


class BadRequestSignature(VcrkitError):
    """A request signature failed verification."""


class MissingSignature(VcrkitError):
    """Fewer signatures than required signers."""


class StaleTimestamp(VcrkitError):
    """Request timestamp is older than the tolerance window."""


class FutureTimestamp(VcrkitError):
    """Request timestamp is further ahead than the tolerance window."""


class ReplayDetected(VcrkitError):
    """Identical request already seen within the tolerance window."""


class SessionKeyMismatch(VcrkitError):
    """A wrapper's key is not a child of the claimed server-scoped key."""


class DecryptFailed(VcrkitError):
    """Sealed or encrypted payload failed to decrypt (wrong key or tampered)."""


# --- reference server ------------------------------------------------------

class MalformedBody(VcrkitError):
    """HTTP body failed to decode as the expected message."""


class ModifyConflict(VcrkitError):
    """Stored value does not equal the old value carried by a MODIFY."""


class NoData(VcrkitError):
    """No record exists for the verified client id."""


class CookieAlreadyBound(VcrkitError):
    """A wrapper was already issued for this cookie."""


# --- client agent ----------------------------------------------------------

class AlreadyProvisioned(VcrkitError):
    """Agent store already holds a device key."""


class NotProvisioned(VcrkitError):
    """Agent store has no device key yet."""


class WrapperVerifyFailed(VcrkitError):
    """Server-returned wrapper did not verify."""


class NetworkError(VcrkitError):
    """HTTP exchange with the server failed."""


class CorruptStore(VcrkitError):
    """Store bytes do not parse back into a consistent agent store."""


class DeviceRetired(VcrkitError):
    """Device id was retired; no further issuance or signing."""


class PinnedKeyMismatch(VcrkitError):
    """Server advertised a key different from the pinned one."""


# --- signer daemon ---------------------------------------------------------

class WrongPassphrase(VcrkitError):
    """Passphrase does not decrypt the signer state file."""


class StateExists(VcrkitError):
    """Refusing to overwrite an existing signer state file."""


class StateMissing(VcrkitError):
    """No signer state file at the given path."""


# --- bench -----------------------------------------------------------------

class BenchEnvironmentError(VcrkitError):
    """Benchmark harness could not set up its loopback environment."""


# --- servers ---------------------------------------------------------------

class QuietDisconnects:
    """Serving base of both servers: the loop polls for shutdown every
    ``POLL_SECONDS`` and closes the listening socket when it ends; ``close()``
    stops a started loop, then closes the socket. A request's bytes are
    waited for at most ``READ_SECONDS``: the signer's whole request, and each
    read of an HTTP one. ``MAX_MESSAGE_BYTES`` bounds an HTTP request body and
    each signer message, request or reply. A peer gone mid-request (reset,
    broken pipe) or out of time is dropped silently; other errors are
    printed."""

    POLL_SECONDS = 0.05  # close() waits for the loop up to this long
    READ_SECONDS = 5.0  # loopback clients send within microseconds of connect
    MAX_MESSAGE_BYTES = 1 << 20
    _serving = False  # set once a loop starts: shutdown() waits for one

    def serve_forever(self, poll_interval: float = POLL_SECONDS) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self.server_close()

    def serve_in_thread(self) -> threading.Thread:
        self._serving = True  # close() must wait even if the thread is late
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        if self._serving:
            self.shutdown()
        self.server_close()

    def handle_error(self, request, client_address) -> None:
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            super().handle_error(request, client_address)
