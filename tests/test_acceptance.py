"""Acceptance gate: one test (one ``pytest -v`` line) per shipped criterion.

The sweep fixture runs fifty generated scenarios per engine at the default
ten-thousand-stage horizon and audits every trace; the criteria below read
off that shared evidence.  All arithmetic is exact, so every bound is
checked with zero tolerance.
"""

import random
import time
from types import SimpleNamespace

import pytest

from ceforge.approx import (
    CERealApprox,
    block_range,
    encode_real,
    gen_scenario,
)
from ceforge.audit import audit_trace, report_to_json, trace_to_jsonl
from ceforge.bitcore import Dyadic
from ceforge.engine import DualEngine, SingleEngine
from ceforge.machines import FreeBlockSet

from conftest import assert_same_lines, load_jsonl
from oracles import decode_real, thresholds

SEEDS = range(50)
HALF = Dyadic.pow2_neg(1)


def _check(report: dict, name: str) -> bool:
    return next(c["pass"] for c in report["checks"] if c["name"] == name)


@pytest.fixture(scope="session")
def sweep():
    runs = {"single": [], "dual": []}
    for engine_name, cls in (("single", SingleEngine), ("dual", DualEngine)):
        for seed in SEEDS:
            scenario = gen_scenario(seed)
            engine = cls(scenario)
            start = time.perf_counter()
            records = engine.run(scenario.stages)
            elapsed = time.perf_counter() - start
            runs[engine_name].append(
                SimpleNamespace(
                    seed=seed,
                    scenario=scenario,
                    engine=engine,
                    records=records,
                    report=audit_trace(records, scenario),
                    elapsed=elapsed,
                )
            )
    return runs


def test_criterion_01_allocation_streams():
    """1000 random request streams allocate exact lengths, prefix-free,
    in under ten seconds total."""
    rng = random.Random(2026)
    start = time.perf_counter()
    for _ in range(1000):
        free = FreeBlockSet()
        lengths = [rng.randint(4, 18) for _ in range(rng.randint(1, 50))]
        total = 0.0
        words = []
        for length in lengths:
            if total + 2.0**-length >= 1.0:
                break
            words.append(free.allocate(length))
            total += 2.0**-length
        assert [len(w) for w in words] == lengths[: len(words)]
        # independent pairwise oracle, no package helper involved
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                assert not a.startswith(b) and not b.startswith(a)
    assert time.perf_counter() - start < 10.0


def test_criterion_02_n_machine_budget(sweep):
    """Every per-marker machine version (live and archived) across fifty
    ten-thousand-stage runs weighs at most one half; each run under 5 s."""
    for run in sweep["single"]:
        assert run.elapsed < 5.0, (run.seed, run.elapsed)
        machines = [
            m for _, _, m in run.engine.archived
        ] + [mk.machines["a"] for mk in run.engine.markers]
        for machine in machines:
            assert machine.weight <= HALF, (run.seed, machine.name)
        assert _check(run.report, "n-machine-bounds"), run.seed


def test_criterion_03_decanter_accounting(sweep):
    """Container weights respect the geometric bounds and dominate the
    output-machine weight in every run."""
    for run in sweep["single"]:
        for name in (
            "active-transitions",
            "decanter-bounds-a",
            "m-weight-a",
            "container-nesting-a",
        ):
            assert _check(run.report, name), (run.seed, name)


def test_criterion_04_marker_discipline(sweep, data_dir, single_scripted):
    """Marker monotonicity and consistency hold in every run, and the
    corrupted control trace is rejected."""
    for engine_name in ("single", "dual"):
        for run in sweep[engine_name]:
            for name in (
                "marker-monotone-stages",
                "marker-monotone-indices",
                "marker-consistency",
                "reuse-bounds",
            ):
                assert _check(run.report, name), (engine_name, run.seed, name)
    control = load_jsonl(data_dir / "negative_control_trace.jsonl")
    report = audit_trace(control, single_scripted)
    assert not _check(report, "marker-monotone-stages")
    assert not report["pass"]


def test_criterion_05_coding_property(sweep):
    """Markers stable over the final quarter decide halting-set membership
    correctly, with no exceptions, in every run."""
    for engine_name in ("single", "dual"):
        for run in sweep[engine_name]:
            assert run.report["stable_markers"], (engine_name, run.seed)
            assert _check(run.report, "coding"), (engine_name, run.seed)
            stable = set(run.report["stable_markers"])
            for row in run.report["coding_table"]:
                if row["index"] in stable:
                    assert row["match"], (engine_name, run.seed, row)


def test_criterion_06_coverage(sweep):
    """In the settled region, the output machine compresses the built set
    at least as well as the schedule compresses the given set."""
    for run in sweep["single"]:
        assert _check(run.report, "coverage-a"), run.seed


def test_criterion_07_dual_analogues(sweep):
    """The two-set engine meets the strict machine budget, both-side
    decanter and coverage checks, and the deficit bounds."""
    for run in sweep["dual"]:
        assert run.elapsed < 5.0, (run.seed, run.elapsed)
        machines = [
            m for _, _, m in run.engine.archived
        ] + [mk.machines[s] for mk in run.engine.markers for s in ("a", "d")]
        for machine in machines:
            assert machine.weight < HALF, (run.seed, machine.name)
        for name in (
            "n-machine-bounds",
            "decanter-bounds-a",
            "decanter-bounds-d",
            "m-weight-a",
            "m-weight-d",
            "coverage-a",
            "coverage-d",
            "deficit-bounds",
        ):
            assert _check(run.report, name), (run.seed, name)
        for marker in run.engine.markers:
            for side in ("a", "d"):
                pair = thresholds(run.engine, marker, side)
                if pair is not None:
                    q, p = pair
                    assert p <= q, (run.seed, marker.index)
                    assert q <= Dyadic.pow2_neg(marker.c), (
                        run.seed, marker.index,
                    )


def test_criterion_08_real_round_trips():
    """Two hundred random monotone reals encode within their block budgets
    and decode back bit-exactly at every stage."""
    rng = random.Random(404)
    for _ in range(200):
        width = rng.randint(3, 8)
        value = 0
        stages = [value]
        for _ in range(rng.randint(1, (1 << (width - 1)) - 1)):
            value += 1
            stages.append(value)
        vectors = [
            [(v >> (width - 1 - n)) & 1 for n in range(width)]
            for v in stages
        ]
        real = CERealApprox(vectors)
        encoded = encode_real(real)
        per_block: dict[int, int] = {}
        for element, _ in encoded.schedule:
            k = next(
                k for k in range(width) if block_range(k)[0] <= element
                and element < block_range(k)[1]
            )
            per_block[k] = per_block.get(k, 0) + 1
        for k, count in per_block.items():
            assert count <= 1 << k
        for stage in range(real.stages):
            assert decode_real(encoded, stage, width) == vectors[stage]


def test_criterion_09_scripted_traces(data_dir, single_scripted, dual_scripted):
    """Both hand-derived scripted scenarios reproduce the frozen reference
    traces byte for byte."""
    single = trace_to_jsonl(SingleEngine(single_scripted).run(6))
    assert single == (data_dir / "single_scripted_trace.jsonl").read_text()
    dual = trace_to_jsonl(DualEngine(dual_scripted).run(8))
    assert dual == (data_dir / "dual_scripted_trace.jsonl").read_text()


def test_criterion_10_determinism():
    """Identical seeds yield byte-identical scenarios, traces, and audit
    reports across independent executions."""
    for seed in (7, 23):
        first, second = gen_scenario(seed), gen_scenario(seed)
        assert first.to_json() == second.to_json()
        for cls in (SingleEngine, DualEngine):
            records_a = cls(first).run(2_000)
            records_b = cls(second).run(2_000)
            assert_same_lines(
                trace_to_jsonl(records_a), trace_to_jsonl(records_b)
            )
            assert report_to_json(audit_trace(records_a, first)) == (
                report_to_json(audit_trace(records_b, second))
            )
