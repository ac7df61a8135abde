"""vcrkit benchmark: closed-loop loopback load with a traced per-layer breakdown.

    python3 perfbench/run.py --workload browse|vcr-mix|cold-client \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The server and the signer each run in their own process, started the way
``vcrkit serve`` and ``vcrkit signer-unlock`` start them; the load comes
from two client threads in this process, one per device, each waiting for
its reply before the next operation.

``--trace 0`` sets up several times, reports the median set-up time, runs
the timed phase and prints the end-to-end metrics. ``--trace 1`` runs the
timed phase once untraced and once traced, each from a fresh set-up, and
prints the per-layer metrics and the tracing overhead. Both check every
output against the generator's model and exit non-zero if any check fails.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("browse", "vcr-mix", "cold-client")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
# Operations per second on a 2-vCPU x86 VM (Python 3.11). A run makes
# seconds x rate operations, split over the clients, so it takes about
# --seconds there and every commit does the same work.
NOMINAL_OPS_PER_S = {"browse": 120, "vcr-mix": 140, "cold-client": 22}
MIN_OPS_PER_CLIENT = 20
# The first operations after start-up run slower; set-up ends with this
# much of each client's stream, checked but not measured.
WARMUP_S = 1.0
PREFILL = {"vcr-mix": 20_000}  # live replay-cache entries before the timed phase
READY_TIMEOUT_S = 120
STOP_TIMEOUT_S = 30

# End-to-end metrics on the result line: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "wire_bytes_per_op": "B",
    "store_bytes_per_session": "B",
    "server_peak_rss_mb": "MB",
}


def _layer_metrics() -> list[tuple[str, str, str, str, str]]:
    """(metric, process, span, statistic, unit) for the traced run.

    Statistics over the timed operations: ``ms``/``us`` mean time per call;
    ``calls_per_op`` calls per operation; ``count`` calls; ``extra_per_call``
    and ``extra_per_op`` the sum of the span's numbers (bytes, live entries)
    per call and per operation.
    A metric is prefixed with its process where the span runs in more than
    one.
    """
    m = []
    for span in ("handle_page_request", "advertisement", "handle_wrapper_request", "handle_vcr"):
        m.append((f"server.{span}.ms", "server", f"server.{span}", "ms", "ms"))
    m.append(("server.non200.count", "server", "server.non200", "count", "count"))
    for proc in ("client", "server", "signer"):
        m.append((f"{proc}.curve.scalar_base_mult.calls_per_op", proc, "curve.scalar_base_mult", "calls_per_op", "count"))
        m.append((f"{proc}.curve.scalar_base_mult.ms", proc, "curve.scalar_base_mult", "ms", "ms"))
    for proc in ("server", "signer"):
        m.append((f"{proc}.curve.sign_digest.ms", proc, "curve.sign_digest", "ms", "ms"))
    for proc in ("client", "server"):
        m.append((f"{proc}.curve.verify_digest.calls_per_op", proc, "curve.verify_digest", "calls_per_op", "count"))
        m.append((f"{proc}.curve.verify_digest.ms", proc, "curve.verify_digest", "ms", "ms"))
        m.append((f"{proc}.curve.decompress.calls_per_op", proc, "curve.decompress", "calls_per_op", "count"))
        m.append((f"{proc}.curve.ecdh.calls_per_op", proc, "curve.ecdh", "calls_per_op", "count"))
        m.append((f"{proc}.keyhier.derive_child_pub.calls_per_op", proc, "keyhier.derive_child_pub", "calls_per_op", "count"))
        m.append((f"{proc}.keyhier.derive_child_pub.ms", proc, "keyhier.derive_child_pub", "ms", "ms"))
    m.append(("signer.keyhier.derive_path.ms", "signer", "keyhier.derive_path", "ms", "ms"))
    m.append(("wrapper.issue_wrapper.ms", "server", "wrapper.issue_wrapper", "ms", "ms"))
    for proc in ("client", "server"):
        m.append((f"{proc}.wrapper.verify_wrapper.calls_per_op", proc, "wrapper.verify_wrapper", "calls_per_op", "count"))
        m.append((f"{proc}.wrapper.verify_wrapper.ms", proc, "wrapper.verify_wrapper", "ms", "ms"))
    m.append(("vcr.verify_vcr.ms", "server", "vcr.verify_vcr", "ms", "ms"))
    m.append(("vcr.replay_admit.us", "server", "vcr.replay_admit", "us", "us"))
    m.append(("vcr.replay_live_entries", "server", "vcr.replay_admit", "extra_per_call", "count"))
    m.append(("vcr.unseal_vcr.ms", "server", "vcr.unseal_vcr", "ms", "ms"))
    m.append(("vcr.sign_vcr.ms", "client", "vcr.sign_vcr", "ms", "ms"))
    for proc in ("client", "server"):
        for span in ("sealing.hybrid_encrypt", "sealing.hybrid_decrypt", "encoding.to_wire", "encoding.from_wire"):
            m.append((f"{proc}.{span}.ms", proc, span, "ms", "ms"))
        for span in ("encoding.to_wire", "encoding.from_wire"):
            m.append((f"{proc}.{span}.bytes_per_call", proc, span, "extra_per_call", "B"))
    m.append(("httpwire.request.ms", "client", "httpwire.request", "ms", "ms"))
    m.append(("httpwire.request.calls_per_op", "client", "httpwire.request", "calls_per_op", "count"))
    m.append(("agent.save.ms", "client", "agent.save", "ms", "ms"))
    m.append(("agent.save.calls_per_op", "client", "agent.save", "calls_per_op", "count"))
    m.append(("agent.save.bytes_written_per_op", "client", "agent.save", "extra_per_op", "B"))
    m.append(("agent.load.ms", "client", "agent.load", "ms", "ms"))
    m.append(("agent.record_visit.us", "client", "agent.record_visit", "us", "us"))
    m.append(("agent.add_session.us", "client", "agent.add_session", "us", "us"))
    m.append(("signer.client_roundtrip.ms", "client", "signer.client_roundtrip", "ms", "ms"))
    m.append(("signer.sign_digest.ms", "signer", "signer.sign_digest", "ms", "ms"))
    return m


LAYER_METRICS = _layer_metrics()
# Per-layer metrics derived from two spans, and the tracing overhead.
DERIVED = {
    "httpwire.transport.ms": "ms",  # client request time minus server handler time
    "signer.queue_wait.ms": "ms",  # client round trip minus time inside the daemon
    "trace.overhead_pct": "%",  # traced vs untraced ops_per_s
}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, _, _, _, unit in LAYER_METRICS}
    units.update(DERIVED)
    return units


class BenchError(Exception):
    """The benchmark could not run; nothing is reported."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Process:
    """A launcher process that prints one JSON line when ready and stops
    when its standard input closes."""

    def __init__(self, script: str, args: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=_child_env(),
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        try:
            self.info = json.loads(line)
        except json.JSONDecodeError:
            self.info = {}
        if not self.info.get("ok"):
            self.stop()
            raise BenchError(f"{script} did not start: {line.strip()!r}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"launcher exited with {self.proc.returncode}")


class Setup:
    """Inputs, server, signer and clients, from launch to the first
    timed operation."""

    def __init__(
        self, workload: str, seed: int, directory: str, warmup_ops: int, tracer=None
    ) -> None:
        import inputs
        import workloads
        from vcrkit.signer import SignerClient

        self.directory = directory
        self.server = self.signer = None
        start = time.perf_counter()
        os.makedirs(directory)
        world = inputs.make_world(workload, seed)
        inputs.write_server_inputs(world, directory)
        rel = os.path.relpath(directory, ROOT)
        server_args = [
            "--key-file", os.path.join(rel, inputs.KEY_FILE),
            "--snapshot", os.path.join(rel, inputs.SNAPSHOT_FILE),
            "--prefill", str(PREFILL.get(workload, 0)),
            "--prefill-seed", str(seed),
        ]
        signer_args = [
            "--seed-file", os.path.join(rel, inputs.SIGNER_SEED_FILE),
            "--state", os.path.join(rel, "signer.state"),
            # Relative to the checkout: a unix socket path is limited to ~100 bytes.
            "--socket", os.path.join(rel, "signer.sock"),
        ]
        if tracer is not None:
            server_args += ["--trace-out", os.path.join(rel, "server.spans")]
            signer_args += ["--trace-out", os.path.join(rel, "signer.spans")]
        try:
            self.server = Process("server_proc.py", server_args)
            self.origin = self.server.info["origin"]
            if self.server.info["replay_entries"] != PREFILL.get(workload, 0):
                raise BenchError(f"replay prefill left {self.server.info['replay_entries']} entries")
            store_paths = inputs.write_agent_stores(world, directory, self.origin)
            self.store_bytes = sum(os.path.getsize(p) for p in store_paths)
            self.sessions = sum(len(c.sessions) for c in world.clients)
            self.signer = Process("signer_proc.py", signer_args)
            signer = SignerClient(self.signer.info["socket"])
            signer.ping()
            if tracer is not None:
                signer = workloads.TracedSigner(signer, tracer)
            ctx = workloads.Context(world, self.origin, store_paths, signer, tracer)
            self.clients = [workloads.CLIENTS[workload](i, ctx) for i in range(inputs.CLIENTS)]
            workloads.run_clients(self.clients, warmup_ops, timed=False)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        procs = [p for p in (self.signer, self.server) if p is not None]
        self.signer = self.server = None
        errors = []
        for proc in procs:
            try:
                proc.stop()
            except BenchError as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    def tally(self) -> tuple[int, int]:
        """Operations and checks attempted and failed so far."""
        return sum(c.attempted for c in self.clients), sum(c.failed for c in self.clients)

    def spans(self, name: str) -> list:
        with open(os.path.join(self.directory, name), encoding="utf-8") as fh:
            return json.load(fh)


def cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of this machine, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return sum(fields), fields[7]


class Phase:
    """One timed phase plus the checks after it."""

    def __init__(self, setup: Setup, ops_per_client: int) -> None:
        import workloads

        clients = setup.clients
        ticks = cpu_ticks()
        self.start, self.end = workloads.run_clients(clients, ops_per_client)
        total, stolen = (b - a for a, b in zip(ticks, cpu_ticks()))
        # Time the hypervisor gave to other guests: the main cause of slow runs.
        self.steal_pct = 100.0 * stolen / total if total else 0.0
        self.ops = sum(c.seq for c in clients)
        self.wire_bytes = sum(c.wire_bytes for c in clients)
        self.peak_rss_mb = setup.server.peak_rss_mb()
        for c in clients:
            c.post_checks()
        self.samples = [s for c in clients for s in c.samples]

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.end - self.start)

    def latencies(self, kinds=None) -> list[float]:
        return [ms for kind, ms in self.samples if kinds is None or kind in kinds]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(setups: list[Setup], phase: Phase, attempted: int, failed: int) -> tuple[dict, dict]:
    """(metrics on the result line, report-only metrics)."""
    last = setups[-1]
    every = phase.latencies()
    metrics = {
        "setup_s": statistics.median(s.setup_s for s in setups),
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": percentile(every, 50),
        "wire_bytes_per_op": phase.wire_bytes / phase.ops,
        "store_bytes_per_session": last.store_bytes / last.sessions,
        "server_peak_rss_mb": phase.peak_rss_mb,
    }
    import workloads

    extra = {
        "fail_ratio": (failed / attempted, "1"),
        "op_samples": (len(every), "count"),
        "op_p90_ms": (percentile(every, 90), "ms"),
        "op_p95_ms": (percentile(every, 95), "ms"),
        "op_p99_ms": (percentile(every, 99), "ms"),
        "host_steal_pct": (phase.steal_pct, "%"),
    }
    groups = {
        "first_visit": phase.latencies(("first_visit",)),
        "return_visit": phase.latencies(("return_visit",)),
        "vcr": phase.latencies(workloads.VCR_KINDS),
    }
    for group, values in groups.items():
        if values:
            extra[f"{group}_p50_ms"] = (percentile(values, 50), "ms")
            extra[f"{group}_samples"] = (len(values), "count")
    return metrics, extra


def per_layer(client_spans, server_spans, signer_spans, ops, overhead_pct):
    import spans

    aggs = {
        "client": spans.aggregate(client_spans),
        "server": spans.aggregate(server_spans),
        "signer": spans.aggregate(signer_spans),
    }
    empty = spans.Aggregate()
    metrics = {}
    for name, proc, span, stat, _ in LAYER_METRICS:
        a = aggs[proc].get(span, empty)
        metrics[name] = {
            "ms": a.mean_ms(),
            "us": a.mean_ms() * 1e3,
            "calls_per_op": a.calls / ops,
            "count": a.calls,
            "extra_per_call": a.extra / a.calls if a.calls else 0.0,
            "extra_per_op": a.extra / ops,
        }[stat]
    request = aggs["client"].get("httpwire.request", empty).mean_ms()
    handler = aggs["server"].get("server.request", empty).mean_ms()
    metrics["httpwire.transport.ms"] = request - handler
    roundtrip = aggs["client"].get("signer.client_roundtrip", empty).mean_ms()
    inside = aggs["signer"].get("signer.sign_digest", empty).mean_ms()
    metrics["signer.queue_wait.ms"] = roundtrip - inside if roundtrip else 0.0
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics, aggs


def instrument_client(tracer) -> None:
    """Spans around the calls this process makes into each layer."""
    import spans
    from vcrkit import httpwire, sealing, vcr, wrapper
    from vcrkit.agent import Agent, AgentStore

    spans.trace_common(tracer)
    spans.trace_functions(tracer, vcr, ("sign_vcr", "build_vcr"))
    spans.trace_functions(tracer, wrapper, ("verify_wrapper",))
    spans.trace_functions(tracer, sealing, ("hybrid_encrypt", "hybrid_decrypt"))
    spans.trace_functions(tracer, httpwire, ("request",))
    written = lambda result, args: os.path.getsize(args[0].store_path)  # noqa: E731
    spans.trace_method(tracer, Agent, "save", "agent.save", written)
    spans.trace_method(tracer, Agent, "load", "agent.load")
    spans.trace_method(tracer, AgentStore, "record_visit", "agent.record_visit")
    spans.trace_method(tracer, AgentStore, "add_session", "agent.add_session")


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>14.4f} {unit}")


def _print_spans(aggs, ops: int) -> None:
    print("spans over the timed operations (ms per call; calls per operation)")
    print(f"  {'process':<7} {'span':<32} {'calls':>8} {'per_op':>8} {'mean':>9} {'self':>9} {'total_ms':>10}")
    for proc, table in aggs.items():
        for span, a in sorted(table.items()):
            print(
                f"  {proc:<7} {span:<32} {a.calls:>8} {a.calls / ops:>8.3f}"
                f" {a.mean_ms():>9.4f} {a.self_ms():>9.4f} {a.total_ns / 1e6:>10.1f}"
            )


def run(workload: str, seed: int, seconds: float, traced: bool, work: str) -> int:
    import inputs

    def per_client(s: float) -> int:
        return round(s * NOMINAL_OPS_PER_S[workload] / inputs.CLIENTS)

    ops = max(MIN_OPS_PER_CLIENT, per_client(seconds))
    warmup = per_client(WARMUP_S)
    if not traced:
        setups = []
        for k in range(SETUPS):
            setup = Setup(workload, seed, os.path.join(work, f"setup{k}"), warmup)
            setups.append(setup)
            if k < SETUPS - 1:
                setup.stop()
        try:
            phase = Phase(setup, ops)
        finally:
            setup.stop()
        attempted, failed = map(sum, zip(*(s.tally() for s in setups)))
        metrics, extra = end_to_end(setups, phase, attempted, failed)
        units = END_TO_END
        _print_table(f"{workload} seed {seed}: end-to-end", [(n, v, units[n]) for n, v in metrics.items()])
        _print_table("reported, not gated", [(n, v, u) for n, (v, u) in extra.items()])
    else:
        import spans

        plain = Setup(workload, seed, os.path.join(work, "untraced"), warmup)
        try:
            untraced = Phase(plain, ops)
        finally:
            plain.stop()
        tracer = spans.Tracer()
        instrument_client(tracer)
        setup = Setup(workload, seed, os.path.join(work, "traced"), warmup, tracer)
        try:
            phase = Phase(setup, ops)
        finally:
            setup.stop()
        overhead = 100.0 * (1 - phase.ops_per_s / untraced.ops_per_s)
        metrics, aggs = per_layer(
            tracer.spans(), setup.spans("server.spans"), setup.spans("signer.spans"),
            phase.ops, overhead,
        )
        units = per_layer_units()
        _print_spans(aggs, phase.ops)
        _print_table(f"{workload} seed {seed}: per layer", [(n, v, units[n]) for n, v in metrics.items()])
        print(f"  ops_per_s untraced {untraced.ops_per_s:.2f}, traced {phase.ops_per_s:.2f}")
        attempted, failed = map(sum, zip(plain.tally(), setup.tally()))
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vcrkit", "__init__.py")):
        print(f"no vcrkit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import vcrkit

    if os.path.dirname(os.path.abspath(vcrkit.__file__)) != os.path.join(SRC, "vcrkit"):
        print(f"vcrkit imported from {vcrkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
