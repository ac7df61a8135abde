import os
import time

import pytest
from hypothesis import settings

from vcrkit import curve
from vcrkit.agent import Agent, AgentStore
from vcrkit.keyhier import DerivationPath, derive_path, generate_master, neuter
from vcrkit.server import VcrHttpServer, VcrServer
from vcrkit.signer import ConfirmationPolicy, SignerState
from vcrkit.wrapper import ServerKey

V1_SEED = bytes.fromhex("000102030405060708090a0b0c0d0e0f")

# Every property test draws the same examples on every run, and none has a
# time limit; each test's own settings keep its example count.
settings.register_profile("vcrkit", derandomize=True, deadline=None)
settings.load_profile("vcrkit")


@pytest.fixture(scope="session")
def master():
    return generate_master(V1_SEED)


@pytest.fixture(scope="session")
def master_pub(master):
    return neuter(master)


@pytest.fixture()
def server_key():
    # Fixed scalar keeps wrapper fixtures deterministic across runs.
    return ServerKey(secret=0x1D0F2F6B7C9A1E3B5D7F90123456789ABCDEF0123456789ABCDEF012345678)


class InProcessSigner:
    """Signing oracle backed directly by an extended private key."""

    def __init__(self, master):
        self.master = master

    def sign_digest(self, path, digest, summary=None):
        if isinstance(path, str):
            path = DerivationPath.parse(path)
        key = derive_path(self.master, path)
        return curve.sign_digest(curve.private_key(key.secret), digest)


@pytest.fixture(scope="session")
def local_signer(master):
    return InProcessSigner(master)


@pytest.fixture()
def loopback():
    """A live reference server on 127.0.0.1; yields (logic, httpd, origin)."""
    vcr_server = VcrServer()
    httpd = VcrHttpServer(("127.0.0.1", 0), vcr_server)
    httpd.serve_in_thread()
    yield vcr_server, httpd, httpd.origin
    httpd.close()


@pytest.fixture()
def provisioned_agent(master, tmp_path):
    device_xpub = neuter(derive_path(master, DerivationPath((0,))))
    store = AgentStore()
    store.provision_device(device_xpub, 0)
    return Agent(store, store_path=str(tmp_path / "agent.store"))


@pytest.fixture()
def signer_state(tmp_path):
    return SignerState.init(
        "correct horse battery",
        os.urandom(32),
        str(tmp_path / "signer.state"),
        policy=ConfirmationPolicy.AUTO_APPROVE,
    )


def unix_now() -> int:
    return int(time.time())
