"""Server process: the reference server built the way ``vcrkit serve`` builds it.

Reads the key file, loads the snapshot, optionally prefills the replay cache,
binds an ephemeral loopback port and prints one JSON line with the origin and
key id (computing the key id builds the comb table before any request). It
serves until its standard input closes, then closes the server, which saves
the snapshot, and writes its spans when traced.

    python3 perfbench/server_proc.py --key-file K --snapshot S [--prefill N]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]

from vcrkit.server import VcrHttpServer, VcrServer  # noqa: E402
from vcrkit.vcr import ReplayCache  # noqa: E402
from vcrkit.wrapper import ServerKey  # noqa: E402

import spans  # noqa: E402


def prefill(cache: ReplayCache, entries: int, seed: int) -> None:
    """``entries`` random digests with arrival times spread evenly over the
    tolerance window ending now, admitted through ``ReplayCache.admit``."""
    rng = random.Random(f"perfbench/prefill/{seed}")
    now = int(time.time())
    window = cache.tolerance
    for i in range(entries):
        ReplayCache.admit(cache, rng.randbytes(32), now - window + 1 + i * window // entries)


def traced_server(tracer: spans.Tracer):
    """A VcrServer subclass and ReplayCache subclass recording spans, plus
    spans around the functions the server calls into."""
    from vcrkit import sealing, vcr, wrapper

    spans.trace_common(tracer)
    spans.trace_functions(tracer, vcr, ("verify_vcr", "unseal_vcr"))
    spans.trace_functions(tracer, wrapper, ("issue_wrapper", "verify_wrapper"))
    spans.trace_functions(tracer, sealing, ("hybrid_encrypt", "hybrid_decrypt"))

    class TimingReplayCache(ReplayCache):
        admit = tracer.wrap("vcr.replay_admit", ReplayCache.admit, lambda r, a: len(a[0]))

    class BenchServer(VcrServer):
        handle_page_request = tracer.wrap(
            "server.handle_page_request", VcrServer.handle_page_request
        )
        handle_wrapper_request = tracer.wrap(
            "server.handle_wrapper_request", VcrServer.handle_wrapper_request
        )
        handle_vcr = tracer.wrap("server.handle_vcr", VcrServer.handle_vcr)
        advertisement = property(
            tracer.wrap("server.advertisement", VcrServer.advertisement.fget)
        )

    return BenchServer, TimingReplayCache


def traced_handler(tracer: spans.Tracer, base):
    """Request handler recording one ``server.request`` span per request,
    tagged with the client's operation id, and a ``server.non200`` mark per
    error response."""
    non200 = tracer.wrap("server.non200", lambda code: None)

    def handled(method):
        span = tracer.wrap("server.request", method)

        def run(self):
            tracer.set_op(self.headers.get(spans.OP_HEADER, spans.NO_OP))
            span(self)

        return run

    class TracedHandler(base):
        do_GET = handled(base.do_GET)
        do_POST = handled(base.do_POST)

        def send_response(self, code, message=None):
            if code != 200:
                non200(code)
            super().send_response(code, message)

    return TracedHandler


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--key-file", required=True)
    ap.add_argument("--snapshot", required=True)
    ap.add_argument("--prefill", type=int, default=0)
    ap.add_argument("--prefill-seed", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    tracer = spans.Tracer() if args.trace_out else None
    server_cls, cache_cls = traced_server(tracer) if tracer else (VcrServer, ReplayCache)

    with open(args.key_file, "r", encoding="utf-8") as fh:
        server_key = ServerKey(secret=int(fh.read().strip(), 16))
    vcr_server = server_cls(server_key=server_key, snapshot_path=args.snapshot)
    vcr_server.cache = cache_cls(vcr_server.cache.tolerance)
    if args.prefill:
        prefill(vcr_server.cache, args.prefill, args.prefill_seed)
    httpd = VcrHttpServer(("127.0.0.1", 0), vcr_server)
    if tracer:
        httpd.RequestHandlerClass = traced_handler(tracer, httpd.RequestHandlerClass)
    print(
        json.dumps(
            {
                "ok": True,
                "origin": httpd.origin,
                "server_key_id": vcr_server.server_key.key_id.hex(),
                "replay_entries": len(vcr_server.cache),
            }
        ),
        flush=True,
    )
    thread = httpd.serve_in_thread()
    try:
        sys.stdin.read()
    finally:
        httpd.close()
        thread.join(timeout=10)
        if tracer:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    main()
