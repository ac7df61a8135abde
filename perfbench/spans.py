"""In-memory span recorder used by the traced run, and its aggregation.

A span is ``[name, start_ns, end_ns, parent, op, extra]``: ``parent`` is the
index of the enclosing span in the same list (-1 at top level), ``op`` the
operation id it belongs to and ``extra`` an optional number (bytes, live
entries). Spans are appended to per-thread lists, so recording takes no
lock, and are written out once, when the run ends.

Wrapping happens from the benchmark's own files only: module attributes are
rebound and methods are wrapped in subclasses or on the class, so the program
under test is unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

NO_OP = "-"
OP_HEADER = "X-Bench-Op"  # carries the client's operation id to the server


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lists: list[list] = []
        self._lock = threading.Lock()

    def _state(self):
        loc = self._local
        if not hasattr(loc, "spans"):
            loc.spans, loc.stack, loc.op = [], [], NO_OP
            with self._lock:
                self._lists.append(loc.spans)
        return loc

    def set_op(self, op: str) -> None:
        """Operation id for spans this thread records from now on."""
        self._state().op = op

    def current_op(self) -> str:
        return self._state().op

    def wrap(self, name: str, fn, extra=None):
        """``fn`` recording a span per call; ``extra(result, args)`` gives
        the span's extra number."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            loc = self._state()
            stack = loc.stack
            rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, loc.op, None]
            stack.append(len(loc.spans))
            loc.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    rec[5] = extra(result, args)
                return result
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def spans(self) -> list[list]:
        """All spans, parents re-indexed into the flat list."""
        out: list[list] = []
        with self._lock:
            lists = list(self._lists)
        for spans in lists:
            base = len(out)
            for name, start, end, parent, op, extra in spans:
                out.append([name, start, end, parent + base if parent >= 0 else -1, op, extra])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans(), fh, separators=(",", ":"))


def rebind(original, replacement, package: str = "vcrkit") -> None:
    """Point every module-level name bound to ``original`` in ``package`` at
    ``replacement``."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    if not count:
        raise RuntimeError(f"nothing bound to {getattr(original, '__name__', original)!r}")


def trace_functions(tracer: Tracer, module, names) -> None:
    """Wrap ``module.<name>`` for each name wherever vcrkit binds it; spans
    are named ``<module>.<name>``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name in names:
        original = getattr(module, name)
        rebind(original, tracer.wrap(f"{layer}.{name}", original))


def trace_method(tracer: Tracer, cls, name: str, span: str, extra=None) -> None:
    """Wrap a plain or class method on ``cls`` in place."""
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(tracer.wrap(span, raw.__func__, extra)))
    else:
        setattr(cls, name, tracer.wrap(span, raw, extra))


def op_id(client: int, seq: int) -> str:
    return f"c{client}:{seq}"


def op_seq(op: str) -> int | None:
    """Sequence number of a timed operation id; None for set-up, warm-up
    and check spans."""
    if not op.startswith("c"):
        return None
    return int(op.partition(":")[2])


class Aggregate:
    """Per span name over the timed operations: calls, total and self time,
    and the sum of the spans' extra numbers."""

    __slots__ = ("calls", "total_ns", "self_ns", "extra")

    def __init__(self) -> None:
        self.calls = self.total_ns = self.self_ns = self.extra = 0

    def mean_ms(self) -> float:
        return self.total_ns / self.calls / 1e6 if self.calls else 0.0

    def self_ms(self) -> float:
        return self.self_ns / self.calls / 1e6 if self.calls else 0.0


def aggregate(spans: list[list]) -> dict[str, Aggregate]:
    """Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, Aggregate] = {}
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        if op_seq(op) is None:
            continue
        agg = out.get(name)
        if agg is None:
            agg = out[name] = Aggregate()
        duration = end - start
        agg.calls += 1
        agg.total_ns += duration
        agg.self_ns += duration - child_ns[i]
        agg.extra += extra or 0
    return out


def _text_bytes(result, args):
    return len(result)


def _arg_text_bytes(result, args):
    return len(args[1])


def trace_common(tracer: Tracer) -> None:
    """Spans every process records: curve primitives, derivation, the codec."""
    from vcrkit import curve, encoding, keyhier

    trace_functions(
        tracer, curve, ("scalar_base_mult", "sign_digest", "verify_digest", "decompress", "ecdh")
    )
    trace_functions(tracer, keyhier, ("derive_child_pub", "derive_path"))
    rebind(encoding.to_wire, tracer.wrap("encoding.to_wire", encoding.to_wire, _text_bytes))
    rebind(
        encoding.from_wire,
        tracer.wrap("encoding.from_wire", encoding.from_wire, _arg_text_bytes),
    )
