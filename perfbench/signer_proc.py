"""Signer process: ``SignerState`` plus ``SignerDaemon`` with the AUTO policy.

Creates the signer state from the generated seed file, issues the two
device keys (which builds the comb table before any request), serves on the
given unix socket and prints one JSON line when it accepts connections. It
stops when its standard input closes and writes its spans when traced.

    python3 perfbench/signer_proc.py --seed-file F --state S --socket P
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]

from vcrkit.signer import ConfirmationPolicy, SignerDaemon, SignerState  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402


def trace_signer(tracer: spans.Tracer) -> None:
    """Spans inside the daemon. The client passes its operation id as the
    request's free-text summary, which the AUTO policy ignores."""
    spans.trace_common(tracer)
    span = tracer.wrap("signer.sign_digest", SignerState.sign_digest)

    def sign_digest(self, path, digest, summary=None):
        tracer.set_op(summary or spans.NO_OP)
        return span(self, path, digest, summary)

    SignerState.sign_digest = sign_digest


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed-file", required=True)
    ap.add_argument("--state", required=True)
    ap.add_argument("--socket", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    tracer = spans.Tracer() if args.trace_out else None
    if tracer:
        trace_signer(tracer)
    with open(args.seed_file, "r", encoding="utf-8") as fh:
        seed = bytes.fromhex(fh.read().strip())
    state = SignerState.init(
        inputs.PASSPHRASE, seed, args.state, policy=ConfirmationPolicy.AUTO_APPROVE
    )
    for device_id in range(inputs.CLIENTS):
        state.issue_device_xpub(device_id)
    daemon = SignerDaemon(state, args.socket)
    thread = daemon.serve_in_thread()
    print(json.dumps({"ok": thread.is_alive(), "socket": args.socket}), flush=True)
    try:
        sys.stdin.read()
    finally:
        daemon.shutdown()
        thread.join(timeout=10)
        if tracer:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    main()
