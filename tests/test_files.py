"""Every file vcrkit writes: created 0600, replaced atomically and durably."""

import ast
import os
import stat
from pathlib import Path

import pytest
from click.testing import CliRunner

import vcrkit
from vcrkit import cli
from vcrkit.agent import Agent, AgentStore
from vcrkit.keyhier import DerivationPath, derive_path, generate_master, neuter
from vcrkit.server import ClientDataRecord, VcrServer
from vcrkit.wrapper import ClientId


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def _agent(tmp_path) -> Agent:
    master = generate_master(bytes(range(32)))
    store = AgentStore()
    store.provision_device(neuter(derive_path(master, DerivationPath((0,)))), 0)
    return Agent(store, store_path=str(tmp_path / "agent.store"))


def _server(tmp_path) -> VcrServer:
    server = VcrServer(snapshot_path=str(tmp_path / "snap.json"))
    server._records["abc"] = ClientDataRecord(client_id=ClientId("vcid", "abc"))
    return server


def _fail_fsync(monkeypatch):
    def fsync(fd):
        raise OSError("injected: disk gone")

    monkeypatch.setattr(os, "fsync", fsync)


def test_store_and_snapshot_are_created_private(tmp_path):
    agent = _agent(tmp_path)
    agent.save()
    server = _server(tmp_path)
    server.save_snapshot()
    assert _mode(agent.store_path) == 0o600
    assert _mode(server.snapshot_path) == 0o600


def _add_session_counter(agent: Agent) -> str:
    agent.store.next_j = 7
    return agent.store_path


def _save_as_new_agent(agent: Agent) -> None:
    """The first save of a newly built Agent writes a whole snapshot."""
    Agent(agent.store, store_path=agent.store_path).save()


def _add_record(server: VcrServer) -> str:
    server._records["def"] = ClientDataRecord(client_id=ClientId("vcid", "def"))
    return server.snapshot_path


@pytest.mark.parametrize(
    "make, change, save",
    [
        (_agent, _add_session_counter, _save_as_new_agent),
        (_server, _add_record, VcrServer.save_snapshot),
    ],
)
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, make, change, save):
    owner = make(tmp_path)
    save(owner)
    path = change(owner)
    before = Path(path).read_bytes()
    _fail_fsync(monkeypatch)
    with pytest.raises(OSError, match="injected"):
        save(owner)
    assert Path(path).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(path)]


def test_generated_server_key_file_is_private(tmp_path, monkeypatch):
    class NoNetwork:
        origin = "http://127.0.0.1:0"

        def __init__(self, address, vcr):
            pass

        def serve_forever(self):
            raise KeyboardInterrupt

        def close(self):
            pass

    monkeypatch.setattr(cli, "VcrHttpServer", NoNetwork)
    key_file = tmp_path / "server.key"
    result = CliRunner().invoke(cli.main, ["serve", "--key-file", str(key_file)])
    assert result.exit_code == 0, result.output
    assert _mode(key_file) == 0o600
    assert len(key_file.read_text().strip()) == 64


_WRITE_CALLS = {"open", "write", "fdopen", "replace"}  # as attributes of os


def _writes(node: ast.AST) -> bool:
    """Whether ``node`` is a call that writes a file or may: ``os.open``,
    ``os.write``, ``os.fdopen``, ``os.replace``, or ``open`` whose mode is
    not a constant without "w", "a", "x" or "+"."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (
            isinstance(func.value, ast.Name)
            and func.value.id == "os"
            and func.attr in _WRITE_CALLS
        )
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
    if not modes:
        return False
    [mode] = modes
    return not (isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value))


def test_only_files_py_writes_files():
    """Every file goes through one write helper: no module but files.py
    opens a file for writing or calls the os-level write functions."""
    found = []
    for path in sorted(Path(vcrkit.__file__).parent.glob("*.py")):
        if path.name == "files.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _writes(node) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and _WRITE_CALLS & {alias.name for alias in node.names}
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
