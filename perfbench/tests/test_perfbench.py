"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

The metric-name tests run the real command on the cheapest workload for one
second, so the whole file takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def ceforge():
    return worker.import_ceforge(ROOT / "src")


@pytest.mark.parametrize("name", ["sweep", "kc-stream"])
def test_inputs_are_byte_identical_for_the_same_seed(ceforge, tmp_path, name):
    workload = wl.WORKLOADS[name]
    first = wl.write_inputs(ceforge, workload, 7, tmp_path / "first")
    again = wl.write_inputs(ceforge, workload, 7, tmp_path / "again")
    assert worker.same_files(first, again)
    assert wl.pass_plan(workload, 7) == wl.pass_plan(workload, 7)
    other = wl.write_inputs(ceforge, workload, 8, tmp_path / "other")
    assert other["requests"].read_bytes() != first["requests"].read_bytes()


def test_a_corrupted_trace_fails_the_audit_operation(ceforge, tmp_path):
    reference = json.loads(worker.REFERENCE.read_text())["digests"]
    ops = worker.Ops(ceforge, wl.SMALL, reference, tmp_path)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(wl.scenario_text(ceforge, wl.SMALL, 0))
    ops.run(scenario, 0, "single")
    ops.audit(scenario, 0, "single")
    assert (ops.attempted, ops.failures, ops.trace_mismatches) == (2, [], set())

    trace = ops.paths(0, "single")["trace"]
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    victim = next(r for r in records[1:] if r["b_added"] is not None)
    victim["b_added"] = None
    trace.write_text(ceforge.trace_to_jsonl(records))
    ops.audit(scenario, 0, "single")
    assert ops.attempted == 3
    assert len(ops.failures) == 1
    assert ops.failures[0].startswith("audit small/0/single")


def test_a_wrapper_that_never_fires_fails_the_traced_pass(ceforge, tmp_path):
    reference = json.loads(worker.REFERENCE.read_text())["digests"]
    workload = wl.Workload("tiny", wl.SMALL, 200)
    inputs = wl.write_inputs(ceforge, workload, 0, tmp_path / "in")
    requests = worker.parse_requests(inputs["requests"].read_text())
    plan = wl.pass_plan(workload, 0)
    ops = worker.Ops(ceforge, wl.SMALL, reference, tmp_path)
    tracer = Tracer(ceforge)
    tracer.install()
    ops.tracer = tracer
    try:
        worker.traced_pass(ops, tracer, plan, inputs, requests)
        assert ops.failures == []
        # As if the program now called check_markers through another name.
        owner, attr, original = next(
            saved for saved in tracer._saved if saved[1] == "check_markers"
        )
        setattr(owner, attr, original)
        _, layer = worker.traced_pass(ops, tracer, plan, inputs, requests)
    finally:
        tracer.uninstall()
    assert layer["audit.check_markers_s"] == 0
    assert ops.failures == ["trace: no calls recorded by audit.check_markers"]


def test_kc_oracle_rejects_a_prefix_pair_and_a_wrong_length():
    requests = [("1", 2), ("0", 3)]
    assert worker.kc_oracle("00\t1\n010\t0\n", requests) is None
    assert worker.kc_oracle("00\t1\n001\t0\n", requests) is not None
    assert worker.kc_oracle("00\t1\n0100\t0\n", requests) is not None
    assert worker.kc_oracle("00\t1\n", requests) is not None


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kc-stream",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    assert set(expected) <= printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
