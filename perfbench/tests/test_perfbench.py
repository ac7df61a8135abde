"""Self-tests of the benchmark: tiny runs of every workload, the traced run,
input determinism, and the pieces the result depends on.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DETERMINISTIC = (".calls_per_op", ".bytes_per_call", "bytes_written_per_op")
REPORTED = {
    "browse": ("first_visit_p50_ms", "return_visit_p50_ms"),
    "vcr-mix": ("vcr_p50_ms",),
    "cold-client": ("return_visit_p50_ms", "vcr_p50_ms"),
}


def bench(workload: str, seed: int = 3, seconds: float = 0.5, traced: bool = False, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(proc) -> dict[str, tuple[float, str]]:
    """The metric table printed above the result line: name -> (value, unit)."""
    rows = re.findall(r"^  (\S+) +(-?[\d.]+) (\S+)$", proc.stdout, re.M)
    return {name: (float(value), unit) for name, value, unit in rows}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = bench(workload)
    res = result(proc)
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 2 * run.MIN_OPS_PER_CLIENT
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    rows = table(proc)
    assert rows["fail_ratio"] == (0.0, "1")
    for name in ("op_p90_ms", "op_p95_ms", "op_p99_ms") + REPORTED[workload]:
        assert rows[name][1] == "ms" and rows[name][0] > 0, name


def test_traced_run_reports_every_layer_metric_and_counts_repeat():
    first = result(bench("browse", traced=True))
    second = result(bench("browse", traced=True))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.per_layer_units()
    assert first["correct"] and second["correct"]
    counts = [k for k in first["metrics"] if k.endswith(DETERMINISTIC)]
    assert "agent.save.bytes_written_per_op" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["client.curve.scalar_base_mult.calls_per_op"]["value"] > 0
    assert first["metrics"]["server.handle_page_request.ms"]["value"] > 0


def test_wire_bytes_repeat_for_a_seed():
    a, b = (result(bench("vcr-mix", seed=5)) for _ in range(2))
    for name in ("wire_bytes_per_op", "store_bytes_per_session"):
        assert a["metrics"][name] == b["metrics"][name]


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_same_seed_gives_identical_inputs(tmp_path):
    origin = "http://127.0.0.1:40000"
    dirs = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = str(tmp_path / name)
        world = inputs.make_world("browse", seed)
        inputs.write_server_inputs(world, d)
        inputs.write_agent_stores(world, d, origin)
        dirs.append(d)
    files = sorted(os.listdir(dirs[0]))
    assert len(files) == 5
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
    assert match == files and not mismatch and not errors
    _, mismatch, _ = filecmp.cmpfiles(dirs[0], dirs[2], files, shallow=False)
    assert mismatch == files


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("browse", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_check_records_flags_a_wrong_attribute():
    from vcrkit.agent import VcrOutcome
    from vcrkit.server import ClientDataRecord

    world = inputs.make_world("vcr-mix", 1)
    ctx = workloads.Context(world, "http://127.0.0.1:1", ["a", "b"], signer=None)
    client = workloads.Client(0, ctx)
    session = world.clients[0].sessions[0]
    record = ClientDataRecord(session.wrapper.client_id, list(session.history), dict(session.attributes))
    client.check_records(VcrOutcome(200, {}, [record]), [session.cookie])
    record.attributes["email"] = "changed"
    with pytest.raises(workloads.CheckFailed):
        client.check_records(VcrOutcome(200, {}, [record]), [session.cookie])
    with pytest.raises(workloads.CheckFailed):
        client.check_records(VcrOutcome(404, {}, None), [session.cookie])


def test_self_time_subtracts_direct_children():
    op = spans.op_id(0, 0)
    recorded = [
        ["outer", 0, 100, -1, op, None],
        ["inner", 10, 40, 0, op, 7],
        ["inner", 50, 60, 0, op, 3],
        ["leaf", 12, 20, 1, op, None],
        ["setup", 0, 1000, -1, spans.NO_OP, None],
    ]
    aggs = spans.aggregate(recorded)
    assert aggs["outer"].self_ns == 60
    assert aggs["inner"].calls == 2 and aggs["inner"].self_ns == 32
    assert aggs["inner"].extra == 10
    assert "setup" not in aggs
