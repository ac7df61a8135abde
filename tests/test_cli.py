"""End-to-end CLI flows driven through click's test runner."""

import contextlib
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import vcrkit
from builders import version_1_layout
from vcrkit import bench, curve, httpwire
from vcrkit.agent import Agent
from vcrkit.bench import run_bench
from vcrkit.cli import main
from vcrkit.keyhier import derive_child_priv, generate_master, neuter
from vcrkit.signer import ConfirmationPolicy, SignerDaemon, SignerState

PASSPHRASE = "cli test passphrase"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def env(tmp_path):
    return {
        "VCRKIT_PASSPHRASE": PASSPHRASE,
        "VCRKIT_STORE": str(tmp_path / "agent.store"),
        "VCRKIT_SIGNER_STATE": str(tmp_path / "signer.state"),
    }


def _run(runner, env, args, expect_exit=0):
    result = runner.invoke(main, args, env=env, catch_exceptions=False)
    assert result.exit_code == expect_exit, result.output
    return result


def _bootstrap(runner, env):
    _run(runner, env, ["signer-init"])
    _run(runner, env, ["device-issue", "--device-id", "0", "--state", env["VCRKIT_SIGNER_STATE"]])
    _run(runner, env, ["agent-init", "--device-id", "0", "--state", env["VCRKIT_SIGNER_STATE"]])


def test_signer_init_and_device_issue(runner, env):
    result = _run(runner, env, ["signer-init"])
    assert json.loads(result.output)["ok"] is True
    result = _run(
        runner,
        env,
        ["device-issue", "--device-id", "0", "--state", env["VCRKIT_SIGNER_STATE"]],
    )
    payload = json.loads(result.output)
    assert payload["device_id"] == 0
    assert len(payload["xpub_hex"]) == 142
    assert payload["xpub_b58"]


def test_agent_init_refuses_overwrite(runner, env):
    _bootstrap(runner, env)
    result = runner.invoke(
        main,
        ["agent-init", "--device-id", "0", "--state", env["VCRKIT_SIGNER_STATE"]],
        env=env,
    )
    assert result.exit_code == 1
    assert "AlreadyProvisioned" in result.output or "AlreadyProvisioned" in (
        result.stderr if hasattr(result, "stderr") else ""
    )


def test_visit_sessions_history_vcr_flow(runner, env, loopback):
    _, _, origin = loopback
    _bootstrap(runner, env)

    result = _run(runner, env, ["visit", origin + "/"])
    first = json.loads(result.output)
    assert first["path"] == "m/0/0"

    _run(runner, env, ["visit", origin + "/products"])

    result = _run(runner, env, ["sessions", "--as-json"])
    sessions = json.loads(result.output)
    assert len(sessions) == 1 and sessions[0]["history_entries"] == 2
    sid = sessions[0]["sid"]

    result = _run(runner, env, ["history", sid, "--as-json"])
    entries = json.loads(result.output)
    assert [path for _, path in entries] == ["/", "/products"]

    result = _run(
        runner,
        env,
        ["vcr", "access", "--session", sid, "--state", env["VCRKIT_SIGNER_STATE"]],
    )
    payload = json.loads(result.output)
    assert payload["status"] == 200
    assert len(payload["records"][0]["visits"]) == 2

    # Encrypted response and sealed request together.
    result = _run(
        runner,
        env,
        [
            "vcr",
            "access",
            "--session",
            sid,
            "--state",
            env["VCRKIT_SIGNER_STATE"],
            "--encrypt-response",
            "--seal",
        ],
    )
    payload = json.loads(result.output)
    assert payload["status"] == 200
    assert len(payload["records"][0]["visits"]) == 2

    result = _run(
        runner,
        env,
        ["vcr", "delete", "--session", sid, "--state", env["VCRKIT_SIGNER_STATE"]],
    )
    assert json.loads(result.output)["status"] == 200

    # A new second, so this access is not byte-identical to the first one
    # (an identical body within the window is, correctly, a replay).
    time.sleep(1.1)
    result = _run(
        runner,
        env,
        ["vcr", "access", "--session", sid, "--state", env["VCRKIT_SIGNER_STATE"]],
        expect_exit=1,
    )
    payload = json.loads(result.output)
    assert payload == {"status": 404, "error": "NoData"}


def test_modify_requires_old_and_new(runner, env, loopback):
    vcr_server, _, origin = loopback
    _bootstrap(runner, env)
    result = _run(runner, env, ["visit", origin + "/"])
    sid = json.loads(result.output)["sid"]

    result = runner.invoke(
        main,
        [
            "vcr",
            "modify",
            "--session",
            sid,
            "--state",
            env["VCRKIT_SIGNER_STATE"],
            "--set",
            "email=newvalue",  # missing the old:new split
        ],
        env=env,
    )
    assert result.exit_code == 1

    sessions = json.loads(_run(runner, env, ["sessions", "--as-json"]).output)
    cookie = None
    for record in vcr_server._records.values():
        cookie = record.client_id.cookie_value
    vcr_server.set_attribute(cookie, "email", "old@example.com")
    result = _run(
        runner,
        env,
        [
            "vcr",
            "modify",
            "--session",
            sid,
            "--state",
            env["VCRKIT_SIGNER_STATE"],
            "--set",
            "email=old@example.com:new@example.com",
        ],
    )
    assert json.loads(result.output)["status"] == 200
    assert vcr_server.get_record(cookie).attributes["email"] == "new@example.com"


def test_unified_vcr_over_three_sessions(runner, env, loopback):
    _, _, origin = loopback
    _bootstrap(runner, env)
    sids = []
    for _ in range(3):
        result = _run(runner, env, ["visit", origin + "/", "--unified", "--fresh"])
        sids.append(json.loads(result.output)["sid"])
    args = ["vcr", "access", "--unified", "--state", env["VCRKIT_SIGNER_STATE"]]
    for sid in sids:
        args += ["--session", sid]
    result = _run(runner, env, args)
    payload = json.loads(result.output)
    assert payload["status"] == 200
    assert len(payload["records"]) == 3


def test_vcr_through_signer_daemon(runner, env, tmp_path, loopback):
    _, _, origin = loopback
    _bootstrap(runner, env)
    result = _run(runner, env, ["visit", origin + "/"])
    sid = json.loads(result.output)["sid"]

    state = SignerState.unlock(
        PASSPHRASE, env["VCRKIT_SIGNER_STATE"], ConfirmationPolicy.AUTO_APPROVE
    )
    daemon = SignerDaemon(state, str(tmp_path / "signer.sock"))
    daemon.serve_in_thread()
    try:
        result = _run(
            runner,
            env,
            ["vcr", "access", "--session", sid, "--socket", daemon.socket_path],
        )
        assert json.loads(result.output)["status"] == 200
    finally:
        daemon.shutdown()


def test_export_import(runner, env, tmp_path, loopback):
    _, _, origin = loopback
    _bootstrap(runner, env)
    _run(runner, env, ["visit", origin + "/"])
    out = str(tmp_path / "export.bin")
    result = _run(runner, env, ["export", "--out", out])
    assert json.loads(result.output)["ok"] is True

    second_store = str(tmp_path / "second.store")
    result = _run(runner, env, ["import", "--in", out, "--store", second_store])
    payload = json.loads(result.output)
    assert payload["sessions"] == 1
    assert os.path.exists(second_store)


def test_a_version_1_store_is_one_json_line_at_import_and_at_load(
    runner, env, tmp_path, loopback
):
    """A store of version 1 is refused whole, naming its version, by the
    command that imports it and by one that loads it."""
    _, _, origin = loopback
    _bootstrap(runner, env)
    _run(runner, env, ["visit", origin + "/"])
    old = tmp_path / "old.export"
    old.write_bytes(version_1_layout(Agent.load(env["VCRKIT_STORE"]).store.export()))
    second = tmp_path / "second.store"
    result = _run(runner, env, ["import", "--in", str(old), "--store", str(second)], 1)
    error = _one_json_error(result.stderr)
    assert error["error"] == "CorruptStore" and "store version 1" in error["message"]
    assert not second.exists()
    Path(env["VCRKIT_STORE"]).write_bytes(old.read_bytes())
    result = _run(runner, env, ["visit", origin + "/"], 1)
    error = _one_json_error(result.stderr)
    assert error["error"] == "CorruptStore" and "store version 1" in error["message"]


def _records(env) -> bytes:
    """The store file's bytes after its snapshot line."""
    return Path(env["VCRKIT_STORE"]).read_bytes().partition(b"\n")[2]


def test_import_over_a_journaled_store_keeps_only_the_imported_store(
    runner, env, tmp_path, loopback
):
    _, _, origin = loopback
    _bootstrap(runner, env)
    _run(runner, env, ["visit", origin + "/a"])
    exported = tmp_path / "export.bin"
    _run(runner, env, ["export", "--out", str(exported)])
    _run(runner, env, ["visit", origin + "/b"])
    _run(runner, env, ["visit", origin + "/c"])
    assert _records(env)
    _run(runner, env, ["import", "--in", str(exported)])
    assert Path(env["VCRKIT_STORE"]).read_bytes() == exported.read_bytes()
    assert Agent.load(env["VCRKIT_STORE"]).store.export() == exported.read_bytes()


def test_export_includes_journaled_visits(runner, env, tmp_path, loopback):
    _, _, origin = loopback
    _bootstrap(runner, env)
    _run(runner, env, ["visit", origin + "/a"])
    _run(runner, env, ["visit", origin + "/b"])
    assert _records(env)
    exported = tmp_path / "export.bin"
    _run(runner, env, ["export", "--out", str(exported)])
    store = env["VCRKIT_STORE"]
    Agent(Agent.load(store).store, store_path=store).save()  # compact in place
    assert _records(env) == b""
    assert exported.read_bytes() == Path(store).read_bytes()


def test_import_of_a_store_file_with_records_is_one_json_line(
    runner, env, tmp_path, loopback
):
    """Only an export imports: a store file with records after its snapshot
    is refused whole, not imported without its latest visits."""
    _, _, origin = loopback
    _bootstrap(runner, env)
    _run(runner, env, ["visit", origin + "/a"])
    _run(runner, env, ["visit", origin + "/b"])
    assert _records(env)
    second = tmp_path / "second.store"
    args = ["import", "--in", env["VCRKIT_STORE"], "--store", str(second)]
    result = _run(runner, env, args, expect_exit=1)
    assert _one_json_error(result.stderr)["error"] == "CorruptStore"
    assert not second.exists()


@pytest.mark.parametrize("device_id", ["-1", str(2**31), str(2**40)])
def test_device_retire_of_an_id_outside_the_range_is_one_json_line(
    runner, env, device_id
):
    _run(runner, env, ["signer-init"])
    state = Path(env["VCRKIT_SIGNER_STATE"])
    before = state.read_bytes()
    args = ["device-retire", "--device-id", device_id, "--state", str(state)]
    result = _run(runner, env, args, expect_exit=1)
    assert result.stdout == ""
    assert _one_json_error(result.stderr)["error"] in (
        "MalformedPath",
        "HardenedIndexRejected",
    )
    assert state.read_bytes() == before


@pytest.mark.parametrize(
    "args",
    [
        ["serve", "--listen", "127.0.0.1:abc"],
        ["serve", "--listen", "127.0.0.1:0", "--key-file", "{key_file}"],
        ["signer-init", "--seed-hex", "zz"],
        ["agent-init", "--device-id", "0", "--device-xpub", "zz"],
    ],
)
def test_unparseable_option_value_is_one_json_line(runner, env, tmp_path, args):
    key_file = tmp_path / "server.key"
    key_file.write_text("not a hex scalar\n")
    args = [arg.format(key_file=key_file) for arg in args]
    result = _run(runner, env, args, expect_exit=1)
    [line] = result.stderr.splitlines()
    error = json.loads(line)
    assert set(error) == {"error", "message"}
    assert error["error"] == "MalformedMessage"
    assert "not a hex scalar" not in result.stderr


def _one_json_error(stderr: str) -> dict:
    [line] = stderr.splitlines()
    error = json.loads(line)
    assert set(error) == {"error", "message"}
    return error


@pytest.mark.parametrize("device_id", ["-1", str(2**31)])
def test_agent_init_of_an_id_outside_the_range_writes_no_store(
    runner, env, device_id
):
    master = generate_master(bytes(range(32)))
    xpub_hex = neuter(derive_child_priv(master, 0)).serialize().hex()
    args = ["agent-init", "--device-id", device_id, "--device-xpub", xpub_hex]
    result = _run(runner, env, args, expect_exit=1)
    assert result.stdout == ""
    assert _one_json_error(result.stderr)["error"] in (
        "MalformedPath",
        "HardenedIndexRejected",
    )
    assert not os.path.exists(env["VCRKIT_STORE"])


@pytest.mark.parametrize(
    "contents",
    [b"0\n", b"-1\n", f"{curve.N:064x}\n".encode(), b"\xff\xfe\n"],
    ids=["zero", "negative", "group-order", "not-utf8"],
)
def test_serve_with_a_bad_key_file_exits_instead_of_hanging(env, tmp_path, contents):
    key_file = tmp_path / "server.key"
    key_file.write_bytes(contents)
    src = os.path.dirname(os.path.dirname(vcrkit.__file__))
    args = ["serve", "--listen", "127.0.0.1:0", "--key-file", str(key_file)]
    done = subprocess.run(
        [sys.executable, "-m", "vcrkit.cli", *args],
        env={**os.environ, **env, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert _one_json_error(done.stderr)["error"] == "MalformedMessage"
    assert f"{curve.N:064x}" not in done.stderr


def test_serve_with_a_snapshot_that_is_not_utf8_is_one_json_line(runner, env, tmp_path):
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_bytes(b"\xff\xfe[]")
    args = ["serve", "--listen", "127.0.0.1:0", "--snapshot", str(snapshot)]
    result = _run(runner, env, args, expect_exit=1)
    assert _one_json_error(result.stderr)["error"] == "MalformedMessage"


@pytest.mark.parametrize(
    "contents", [b"[]", b'{"kdf":1,"nonce":"00","ciphertext":"00"}']
)
def test_device_issue_with_a_corrupt_state_is_one_json_line(runner, env, contents):
    Path(env["VCRKIT_SIGNER_STATE"]).write_bytes(contents)
    args = ["device-issue", "--device-id", "0", "--state", env["VCRKIT_SIGNER_STATE"]]
    result = _run(runner, env, args, expect_exit=1)
    assert _one_json_error(result.stderr)["error"] == "MalformedMessage"


def test_unknown_sid_fails_with_error_class(runner, env, loopback):
    _, _, origin = loopback
    _bootstrap(runner, env)
    result = runner.invoke(
        main,
        [
            "vcr",
            "access",
            "--session",
            "deadbeef",
            "--state",
            env["VCRKIT_SIGNER_STATE"],
        ],
        env=env,
    )
    assert result.exit_code == 1


def test_bench_runs_and_is_deterministic_on_sizes(runner, env):
    first = _run(runner, env, ["bench", "--runs", "1", "--as-json"])
    second = _run(runner, env, ["bench", "--runs", "2", "--as-json"])
    a = json.loads(first.output)
    b = json.loads(second.output)
    assert a["schema"] == b["schema"] == 1
    assert set(a["latency_ms"]) == set(b["latency_ms"])
    # Sizes are a function of the wire format, not of run count.
    assert a["storage_bytes"] == b["storage_bytes"]
    assert (
        a["bandwidth"]["verify_vcr"]["request_payload_bytes"]
        == b["bandwidth"]["verify_vcr"]["request_payload_bytes"]
    )


def test_bench_removes_its_work_directory():
    def leftovers():
        return {
            name
            for name in os.listdir(tempfile.gettempdir())
            if name.startswith("vcrkit-bench-")
        }

    before = leftovers()
    run_bench(runs=1)
    assert leftovers() <= before


def test_the_store_bench_leaves_loads(monkeypatch):
    """Each session the storage phase adds holds a path from claim_path,
    so the store file reloads with every session in it."""
    run_phases, stores = bench._run_phases, []

    def then_load(runs, workdir, *args):
        report = run_phases(runs, workdir, *args)
        stores.append(Agent.load(os.path.join(workdir, "agent.store")).store)
        return report

    monkeypatch.setattr(bench, "_run_phases", then_load)
    run_bench(runs=2)
    (store,) = stores
    assert [str(s.path) for s in store.sessions] == ["m/0/0", "m/0/1", "m/0/2", "m/0/3"]


def test_serve_command_help(runner):
    result = runner.invoke(main, ["serve", "--help"])
    assert result.exit_code == 0
    assert "--tolerance" in result.output


def test_os_error_is_one_json_line(runner, env, tmp_path):
    _run(runner, env, ["signer-init"])
    socket_path = str(tmp_path / "no-such-dir" / "signer.sock")
    args = ["signer-unlock", "--socket", socket_path, "--policy", "auto"]
    result = _run(runner, env, args, expect_exit=1)
    assert "Traceback" not in result.output
    [line] = result.stderr.splitlines()
    assert json.loads(line)["error"] == "FileNotFoundError"


@contextlib.contextmanager
def _child(args, env):
    """Run ``vcrkit <args>`` as a child process; yields it with its parsed
    ready line, and kills it on the way out if it is still running."""
    src = os.path.dirname(os.path.dirname(vcrkit.__file__))
    child = subprocess.Popen(
        [sys.executable, "-m", "vcrkit.cli", *args],
        env={**os.environ, **env, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        text=True,
    )
    with child:
        try:
            yield child, json.loads(child.stdout.readline())
        finally:
            child.kill()


def test_sigterm_saves_the_server_snapshot(env, tmp_path):
    snapshot = tmp_path / "snapshot.json"
    args = ["serve", "--listen", "127.0.0.1:0", "--snapshot", str(snapshot)]
    with _child(args, env) as (child, ready):
        assert httpwire.request("GET", ready["origin"] + "/").status == 200
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=10) == 0
    assert len(json.loads(snapshot.read_text())["D"]) == 1  # records


def test_sigterm_removes_the_signer_socket(runner, env, tmp_path):
    _run(runner, env, ["signer-init"])
    socket_path = tmp_path / "signer.sock"
    args = ["signer-unlock", "--socket", str(socket_path), "--policy", "auto"]
    with _child(args, env) as (child, ready):
        assert ready["ok"] and socket_path.exists()
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=10) == 0
    assert not socket_path.exists()


def test_serve_with_a_snapshot_keeps_its_key_beside_it(env, tmp_path):
    """Without --key-file, a restart on the same snapshot serves under the
    same key, so its owners can still reach the data it holds."""
    snapshot = tmp_path / "snapshot.json"
    args = ["serve", "--listen", "127.0.0.1:0", "--snapshot", str(snapshot)]
    key_ids = []
    for _ in range(2):
        with _child(args, env) as (child, ready):
            key_ids.append(ready["server_key_id"])
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=10) == 0
    assert key_ids[0] == key_ids[1]
    key_file = Path(str(snapshot) + ".key")
    assert stat.S_IMODE(key_file.stat().st_mode) == 0o600
