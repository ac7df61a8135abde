"""Command-line surface for the whole toolkit.

Replaces the browser pop-up: key lifecycle, a demo server, browsing
simulation, session/history inspection, request issuance and the bench
harness. Every command is scriptable — pass the passphrase via
VCRKIT_PASSPHRASE and run the signer with --policy auto to avoid prompts.
Failures exit nonzero with the machine-readable error class on stderr.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import click

from . import curve, encoding, files
from .agent import Agent, AgentStore
from .bench import DEFAULT_RUNS, run_bench
from .encoding import WireMode
from .errors import MalformedMessage, VcrkitError
from .keyhier import ExtendedPublicKey, display
from .server import VcrHttpServer, VcrServer
from .signer import ConfirmationPolicy, SignerClient, SignerDaemon, SignerState
from .vcr import ActionKind, VcrAction
from .wrapper import ServerKey

STORE_ENV = "VCRKIT_STORE"
STATE_ENV = "VCRKIT_SIGNER_STATE"
SOCKET_ENV = "VCRKIT_SIGNER_SOCKET"
PASSPHRASE_ENV = "VCRKIT_PASSPHRASE"


def _fail(error: VcrkitError) -> None:
    click.echo(
        json.dumps({"error": error.code, "message": str(error)}), err=True
    )
    sys.exit(1)


def surface_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except VcrkitError as exc:
            _fail(exc)

    return wrapper


def _passphrase() -> str:
    passphrase = os.environ.get(PASSPHRASE_ENV)
    if passphrase is None:
        passphrase = click.prompt("passphrase", hide_input=True)
    return passphrase


def _signer(socket_path: str | None, state_path: str | None):
    """Daemon client if a socket is given, else an in-process unlock."""
    if socket_path:
        return SignerClient(socket_path)
    if state_path:
        return SignerState.unlock(
            _passphrase(), state_path, policy=ConfirmationPolicy.AUTO_APPROVE
        )
    raise MalformedMessage("need --socket or --state (or the matching env var)")


def _agent(store_path: str) -> Agent:
    return Agent.load(store_path)


store_option = click.option(
    "--store",
    envvar=STORE_ENV,
    required=True,
    help="agent store file [env VCRKIT_STORE]",
)
state_option = click.option(
    "--state",
    envvar=STATE_ENV,
    default=None,
    help="signer state file [env VCRKIT_SIGNER_STATE]",
)
socket_option = click.option(
    "--socket",
    envvar=SOCKET_ENV,
    default=None,
    help="signer daemon socket [env VCRKIT_SIGNER_SOCKET]",
)


@click.group()
def main() -> None:
    """Verifiable accountless consumer requests."""


@main.command("signer-init")
@click.option("--state", envvar=STATE_ENV, required=True)
@click.option("--seed-hex", default=None, help="16..64 bytes of entropy as hex")
@surface_errors
def signer_init(state: str, seed_hex: str | None) -> None:
    """Create a new encrypted signer state file."""
    seed = bytes.fromhex(seed_hex) if seed_hex else os.urandom(32)
    SignerState.init(_passphrase(), seed, state)
    click.echo(json.dumps({"ok": True, "state": state}))


@main.command("signer-unlock")
@click.option("--state", envvar=STATE_ENV, required=True)
@click.option("--socket", envvar=SOCKET_ENV, required=True)
@click.option(
    "--policy",
    type=click.Choice([p.value for p in ConfirmationPolicy]),
    default=ConfirmationPolicy.PROMPT.value,
)
@surface_errors
def signer_unlock(state: str, socket: str, policy: str) -> None:
    """Unlock the signer and serve signing requests on a local socket."""

    def confirm(path: str, summary: str | None) -> bool:
        text = f"sign under {path}" + (f" ({summary})" if summary else "")
        return click.confirm(text, default=False)

    signer = SignerState.unlock(
        _passphrase(),
        state,
        policy=ConfirmationPolicy(policy),
        confirm_hook=confirm,
    )
    daemon = SignerDaemon(signer, socket)
    click.echo(json.dumps({"ok": True, "socket": socket, "policy": policy}))
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.shutdown()


@main.command("device-issue")
@click.option("--device-id", type=int, required=True)
@socket_option
@state_option
@surface_errors
def device_issue(device_id: int, socket: str | None, state: str | None) -> None:
    """Issue (or re-print) the extended public key for a device id."""
    signer = _signer(socket, state)
    if isinstance(signer, SignerClient):
        xpub = signer.device_xpub(device_id)
    else:
        xpub = signer.issue_device_xpub(device_id)
    click.echo(
        json.dumps(
            {
                "device_id": device_id,
                "xpub_hex": xpub.serialize().hex(),
                "xpub_b58": display(xpub),
            }
        )
    )


@main.command("device-retire")
@click.option("--device-id", type=int, required=True)
@socket_option
@state_option
@surface_errors
def device_retire(device_id: int, socket: str | None, state: str | None) -> None:
    """Retire a device id: the signer refuses its paths from now on."""
    signer = _signer(socket, state)
    signer.retire_device(device_id)
    click.echo(json.dumps({"ok": True, "device_id": device_id, "status": "retired"}))


@main.command("agent-init")
@store_option
@click.option("--device-id", type=int, required=True)
@click.option("--device-xpub", "xpub_hex", default=None, help="serialized xpub hex")
@socket_option
@state_option
@surface_errors
def agent_init(
    store: str,
    device_id: int,
    xpub_hex: str | None,
    socket: str | None,
    state: str | None,
) -> None:
    """Provision a fresh agent store with a device public key."""
    if os.path.exists(store):
        from .errors import AlreadyProvisioned

        raise AlreadyProvisioned(f"store file {store} already exists")
    if xpub_hex:
        xpub = ExtendedPublicKey.deserialize(bytes.fromhex(xpub_hex))
    else:
        signer = _signer(socket, state)
        if isinstance(signer, SignerClient):
            xpub = signer.device_xpub(device_id)
        else:
            xpub = signer.issue_device_xpub(device_id)
    agent_store = AgentStore()
    agent_store.provision_device(xpub, device_id)
    Agent(agent_store, store_path=store).save()
    click.echo(json.dumps({"ok": True, "store": store, "device_id": device_id}))


@main.command("visit")
@click.argument("url")
@store_option
@click.option("--unified", is_flag=True, help="derive under a server-scoped key")
@click.option("--fresh", is_flag=True, help="do not send an existing cookie")
@surface_errors
def visit(url: str, store: str, unified: bool, fresh: bool) -> None:
    """Fetch a page; start or extend a session when supported."""
    agent = _agent(store)
    session, _ = agent.visit(url, int(time.time()), unified=unified, fresh=fresh)
    if session is None:
        click.echo(json.dumps({"ok": True, "supported": False}))
        return
    click.echo(
        json.dumps(
            {
                "ok": True,
                "sid": session.sid,
                "path": str(session.path),
                "origin": session.server_origin,
                "history_entries": len(session.history),
            }
        )
    )


@main.command("sessions")
@store_option
@click.option("--as-json", "as_json", is_flag=True)
@surface_errors
def sessions(store: str, as_json: bool) -> None:
    """List stored sessions; SID is the first bytes of the session key."""
    agent = _agent(store)
    rows = [
        {
            "sid": s.sid,
            "origin": s.server_origin,
            "path": str(s.path),
            "created_at": s.created_at,
            "history_entries": len(s.history),
        }
        for s in agent.store.sessions
    ]
    if as_json:
        click.echo(json.dumps(rows, indent=2))
        return
    for row in rows:
        click.echo(
            f"{row['sid']}  {row['origin']:<28} {row['path']:<12}"
            f" visits={row['history_entries']}"
        )


@main.command("history")
@click.argument("sid")
@store_option
@click.option("--as-json", "as_json", is_flag=True)
@surface_errors
def history(sid: str, store: str, as_json: bool) -> None:
    """Show the visit history of one session."""
    agent = _agent(store)
    session = agent.store.find_by_sid(sid)
    if session is None:
        raise MalformedMessage(f"no session with sid {sid}")
    if as_json:
        click.echo(json.dumps([[ts, path] for ts, path in session.history]))
        return
    for ts, path in session.history:
        click.echo(f"{encoding.time_to_wire(ts, WireMode.VERBOSE)}  {path}")


def _parse_changes(raw_changes: tuple[str, ...]) -> tuple[tuple[str, str, str], ...]:
    changes = []
    for raw in raw_changes:
        name, eq, rest = raw.partition("=")
        old, colon, new = rest.partition(":")
        if not name or not eq or not colon:
            raise MalformedMessage(
                f"--set wants field=old:new with both values, got {raw!r}"
            )
        changes.append((name, old, new))
    return tuple(changes)


@main.command("vcr")
@click.argument("kind", type=click.Choice(["access", "modify", "delete"]))
@store_option
@socket_option
@state_option
@click.option("--session", "sids", multiple=True, help="SID; repeat for unified")
@click.option("--unified", is_flag=True)
@click.option("--encrypt-response", is_flag=True)
@click.option("--seal", is_flag=True)
@click.option("--set", "raw_changes", multiple=True, help="field=old:new (modify)")
@surface_errors
def vcr_command(
    kind: str,
    store: str,
    socket: str | None,
    state: str | None,
    sids: tuple[str, ...],
    unified: bool,
    encrypt_response: bool,
    seal: bool,
    raw_changes: tuple[str, ...],
) -> None:
    """Issue a signed consumer request for one or more sessions."""
    agent = _agent(store)
    if not sids:
        raise MalformedMessage("pass at least one --session SID")
    sessions = []
    for sid in sids:
        session = agent.store.find_by_sid(sid)
        if session is None:
            raise MalformedMessage(f"no session with sid {sid}")
        sessions.append(session)

    action_kind = ActionKind[kind.upper()]
    response_secret = None
    response_pubkey = None
    if encrypt_response:
        if action_kind is not ActionKind.ACCESS:
            raise MalformedMessage("--encrypt-response only applies to access")
        response_secret = curve.generate_secret()
        response_pubkey = curve.pubkey_bytes(response_secret)
    action = VcrAction(
        kind=action_kind,
        response_pubkey=response_pubkey,
        changes=_parse_changes(raw_changes) if action_kind is ActionKind.MODIFY else (),
    )

    signer = _signer(socket, state)
    outcome = agent.submit_request(
        sessions,
        action,
        signer,
        int(time.time()),
        unified=unified,
        seal=seal,
        response_secret=response_secret,
    )
    result = {"status": outcome.status}
    if outcome.error:
        result["error"] = outcome.error
    if outcome.records is not None:
        result["records"] = [
            r.to_wire_dict(WireMode.VERBOSE) for r in outcome.records
        ]
    elif outcome.status == 200:
        result["ok"] = True
    click.echo(json.dumps(result, indent=2))
    if outcome.status != 200:
        sys.exit(1)


@main.command("serve")
@click.option(
    "--listen", default="127.0.0.1:8080", envvar="VCRKIT_LISTEN", help="host:port"
)
@click.option("--tolerance", type=int, default=300, envvar="VCRKIT_TOLERANCE")
@click.option("--key-file", default=None, help="server signing key (hex scalar)")
@click.option("--snapshot", default=None, help="JSON snapshot path")
@surface_errors
def serve(listen: str, tolerance: int, key_file: str | None, snapshot: str | None) -> None:
    """Run the reference server until interrupted."""
    host, _, port_text = listen.rpartition(":")
    server_key = None
    if key_file:
        if os.path.exists(key_file):
            with open(key_file, "r", encoding="utf-8") as fh:
                server_key = ServerKey(secret=int(fh.read().strip(), 16))
        else:
            server_key = ServerKey.generate()
            files.write_private(key_file, f"{server_key.secret:064x}\n".encode())
    vcr_server = VcrServer(
        server_key=server_key, tolerance=tolerance, snapshot_path=snapshot
    )
    httpd = VcrHttpServer((host or "127.0.0.1", int(port_text)), vcr_server)
    click.echo(
        json.dumps(
            {
                "ok": True,
                "origin": httpd.origin,
                "server_key_id": vcr_server.server_key.key_id.hex(),
            }
        )
    )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.close()


@main.command("bench")
@click.option("--runs", type=int, default=DEFAULT_RUNS)
@click.option("--as-json", "as_json", is_flag=True)
@surface_errors
def bench(runs: int, as_json: bool) -> None:
    """Measure per-phase latency, flow bandwidth and store sizes."""
    report = run_bench(runs=runs)
    if as_json:
        click.echo(report.to_json())
    else:
        click.echo(report.format_table())


@main.command("export")
@store_option
@click.option("--out", required=True, help="output file")
@click.option(
    "--mode",
    type=click.Choice([m.value for m in WireMode]),
    default=WireMode.OPTIMIZED.value,
)
@surface_errors
def export(store: str, out: str, mode: str) -> None:
    """Write the store (device public key and wrappers only) to a file."""
    agent = _agent(store)
    data = agent.store.export(WireMode(mode))
    files.write_private(out, data)
    click.echo(json.dumps({"ok": True, "bytes": len(data), "out": out}))


@main.command("import")
@click.option("--in", "infile", required=True, help="file produced by export")
@store_option
@surface_errors
def import_(infile: str, store: str) -> None:
    """Load an exported store into a (new) agent store file."""
    with open(infile, "rb") as fh:
        agent_store = AgentStore.import_(fh.read())
    Agent(agent_store, store_path=store).save()
    click.echo(
        json.dumps(
            {"ok": True, "store": store, "sessions": len(agent_store.sessions)}
        )
    )


if __name__ == "__main__":
    main()
