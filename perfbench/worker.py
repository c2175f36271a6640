"""One benchmark run in a fresh process: set up, measure, check, report.

Started by ``run.py``; prints one JSON object on standard output.  Each
operation is one ``ceforge.cli.main(argv)`` call made in this process, one
after another (a closed loop with one client).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads as wl
from speed import timed
from tracer import COUNTERS, PHASES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
#: Wrapped calls made only while setting up, not in every pass.
SETUP_SPANS = ("approx.gen",)

E2E_UNITS = {
    "setup_s": "s",
    "single.run_s": "s",
    "dual.run_s": "s",
    "single.audit_s": "s",
    "dual.audit_s": "s",
    "kc.run_s": "s",
    "trace_mb": "MB",
    "peak_rss_mb": "MB",
}

_SPAN_TIMES = {
    "approx.parse_s": "approx.parse",
    "machines.describe_s": "machines.describe",
    "engine.init_s": "engine.init",
    "engine.run_s": "engine.run",
    "audit.encode_s": "audit.encode",
    "audit.decode_s": "audit.decode",
    "audit.check_weights_s": "audit.check_weights",
    "audit.check_markers_s": "audit.check_markers",
    "audit.check_coverage_s": "audit.check_coverage",
    "audit.check_deficits_s": "audit.check_deficits",
    "audit.decode_halting_s": "audit.decode_halting",
}
_ENGINE_COUNTS = (
    "markers",
    "archived_versions",
    "injuries",
    "n_entries",
    "m_entries",
    "stages.noop",
    "stages.act",
    "stages.place",
    "stages.describe",
)


#: Layers whose self time is reported as ``<layer>.self_s``; ``cli``'s is
#: ``cli.io_s`` and ``bitcore`` has counts only.
_SELF_TIMED = ("approx", "machines", "engine", "audit")

LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in _SELF_TIMED},
    **dict.fromkeys(_SPAN_TIMES, "s"),
    **dict.fromkeys(COUNTERS, "count"),
    **{
        f"{name}.{phase}": "count"
        for name in COUNTERS
        if name.startswith("bitcore.")
        for phase in PHASES
    },
    **{f"engine.{name}": "count" for name in _ENGINE_COUNTS},
    "approx.gen_s": "s",
    "approx.gen_calls": "count",
    "machines.describe_calls": "count",
    "machines.overflow": "count",
    "machines.allocate_s": "s",
    "engine.step_us.p50": "us",
    "engine.step_us.p99": "us",
    "engine.useful_ratio": "ratio",
    "audit.trace_records": "count",
    "audit.trace_bytes": "bytes",
    "audit.replay_s": "s",
    "audit.checks_failed": "count",
    "cli.io_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no ceforge sources)."""


def import_ceforge(src: Path):
    """Import ceforge from ``src`` and nowhere else."""
    package = src / "ceforge"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no ceforge package under {src}")
    sys.path.insert(0, str(src))
    import ceforge
    import ceforge.cli

    if Path(ceforge.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported ceforge from {ceforge.__file__}")
    return ceforge


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_requests(text: str) -> list[tuple[str, int]]:
    return [
        (target, int(length))
        for target, length in (line.split() for line in text.splitlines())
    ]


def kc_oracle(output: str, requests: list[tuple[str, int]]) -> str | None:
    """None if ``output`` is a valid allocation table for ``requests``:
    one row per request in order, exact lengths, prefix-free."""
    rows = output.splitlines()
    if len(rows) != len(requests):
        return f"{len(rows)} rows for {len(requests)} requests"
    codewords = []
    for i, (row, (target, length)) in enumerate(zip(rows, requests)):
        codeword, _, got = row.partition("\t")
        if got != target or len(codeword) != length or codeword.strip("01"):
            return f"row {i} is {row!r} for request {target} {length}"
        codewords.append(codeword)
    codewords.sort()
    for a, b in zip(codewords, codewords[1:]):
        if b.startswith(a):
            return f"{a} is a prefix of {b}"
    return None


class Ops:
    """Runs CLI operations in-process, times them and checks their outputs."""

    def __init__(self, ceforge, shape: wl.Shape, reference: dict, work: Path):
        self.cli = ceforge.cli
        self.shape = shape
        self.expected = reference.get(shape.name, {})
        self.work = work
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.trace_mismatches: set[str] = set()

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def _main(self, argv: list[str], out: io.StringIO):
        try:
            with redirect_stdout(out):
                return self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # any crash fails the op
            traceback.print_exc(file=sys.stderr)
            return repr(exc)

    def _call(self, label: str, argv: list[str]) -> tuple[str | None, tuple]:
        """One timed ``ceforge`` invocation: (stdout or None on failure,
        (seconds, reference seconds))."""
        out = io.StringIO()
        gc.collect()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
        code, *times = timed(self._main, argv, out)
        if self.tracer is not None:
            self.tracer.finish_op()
        if code != 0:
            self.fail(label, f"exit {code}")
            return None, tuple(times)
        return out.getvalue(), tuple(times)

    def paths(self, scenario_seed: int, engine: str) -> dict[str, Path]:
        stem = self.work / f"{scenario_seed}-{engine}"
        return {
            "trace": stem.with_suffix(".trace.jsonl"),
            "report": stem.with_suffix(".run.json"),
            "audit": stem.with_suffix(".audit.json"),
        }

    def _check_report(self, label: str, ref: dict | None, report: bytes):
        if ref is None:
            self.fail(label, "no reference digest")
        elif sha256(report) != ref["report"]:
            self.fail(label, "report digest differs from the reference")

    def run(self, scenario: Path, scenario_seed: int, engine: str):
        """``ceforge run``; returns (times, trace bytes)."""
        key = f"{scenario_seed}/{engine}"
        label = f"run {self.shape.name}/{key}"
        paths = self.paths(scenario_seed, engine)
        for path in paths.values():
            path.unlink(missing_ok=True)
        argv = [
            "run", "--scenario", str(scenario), "--engine", engine,
            "--trace-out", str(paths["trace"]),
            "--report-out", str(paths["report"]),
        ]
        out, times = self._call(label, argv)
        if out is None:
            return times, 0
        ref = self.expected.get(key)
        self._check_report(label, ref, paths["report"].read_bytes())
        trace = paths["trace"].read_bytes()
        if ref is not None and sha256(trace) != ref["trace"]:
            self.trace_mismatches.add(f"{self.shape.name}/{key}")
        return times, len(trace)

    def audit(self, scenario: Path, scenario_seed: int, engine: str) -> tuple:
        """``ceforge audit`` of the trace the last run wrote; returns times."""
        key = f"{scenario_seed}/{engine}"
        label = f"audit {self.shape.name}/{key}"
        paths = self.paths(scenario_seed, engine)
        argv = [
            "audit", "--scenario", str(scenario),
            "--trace", str(paths["trace"]),
            "--report-out", str(paths["audit"]),
        ]
        out, times = self._call(label, argv)
        if out is None:
            return times
        report = paths["audit"].read_bytes()
        if not paths["report"].is_file() or (
            report != paths["report"].read_bytes()
        ):
            self.fail(label, "report differs from the run report")
        else:
            self._check_report(label, self.expected.get(key), report)
        return times

    def kc(self, requests: Path, expected: list[tuple[str, int]]) -> tuple:
        """``ceforge kc`` of the request file; returns times."""
        out, times = self._call("kc", ["kc", str(requests)])
        if out is not None:
            why = kc_oracle(out, expected)
            if why is not None:
                self.fail("kc", why)
        return times


def run_pass(ops: Ops, plan: list[tuple], inputs: dict, requests) -> dict:
    """Every unit of the plan once: ``{"<metric> <op>": [(seconds,
    reference seconds), ...]}``, one pair per call of the operation, plus
    the trace bytes written, under ``"trace_bytes"``."""
    times: dict = {"trace_bytes": 0}
    for unit in plan:
        if unit[0] == "kc":
            times["kc.run_s"] = [
                ops.kc(inputs["requests"], requests) for _ in range(unit[1])
            ]
            continue
        _, scenario_seed, engine, repeats = unit
        scenario = inputs["scenarios"][scenario_seed]
        run_times, trace_bytes = ops.run(scenario, scenario_seed, engine)
        times[f"{engine}.run_s {scenario_seed}"] = [run_times]
        times["trace_bytes"] += trace_bytes
        times[f"{engine}.audit_s {scenario_seed}"] = [
            ops.audit(scenario, scenario_seed, engine) for _ in range(repeats)
        ]
    return times


def timed_passes(ops, plan, inputs, requests, seconds: float) -> list[dict]:
    """Whole passes, started while less than ``seconds`` have gone by."""
    passes: list[dict] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(ops, plan, inputs, requests))
    return passes


def totals(passes: list[dict], which: int) -> Counter:
    """Per metric, the sum over its operations of each operation's median
    time over all its calls in the passes (``which`` 0: seconds, 1:
    reference seconds); ``pass_s`` sums every operation."""
    result: Counter = Counter()
    for label in passes[0]:
        if label == "trace_bytes":
            continue
        median = statistics.median(
            call[which] for p in passes for call in p[label]
        )
        result[label.split()[0]] += median
        result["pass_s"] += median
    return result


def same_files(a: dict, b: dict) -> bool:
    pairs = [(a["requests"], b["requests"])] + [
        (a["scenarios"][s], b["scenarios"][s]) for s in a["scenarios"]
    ]
    return all(x.read_bytes() == y.read_bytes() for x, y in pairs)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def percentile(samples: list[int], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, engine: Counter) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    own = tracer.self_ns()
    layer_self: Counter = Counter()
    span_ns: Counter = Counter()
    span_calls: Counter = Counter()
    for span, self_ns in zip(tracer.spans, own):
        name = span[0]
        layer_self[name.split(".")[0]] += self_ns
        span_ns[name] += span[2] - span[1]
        span_calls[name] += 1
    layer_self["machines"] += tracer.allocate_ns
    m: dict[str, float] = {}
    for layer in _SELF_TIMED:
        m[f"{layer}.self_s"] = layer_self[layer] / 1e9
    for metric, name in _SPAN_TIMES.items():
        m[metric] = span_ns[name] / 1e9
    for name in COUNTERS:
        m[name] = sum(tracer.counts[name].values())
        if name.startswith("bitcore."):
            for phase in ("engine", "audit"):
                m[f"{name}.{phase}"] = tracer.counts[name][phase]
    m["machines.describe_calls"] = span_calls["machines.describe"]
    m["machines.overflow"] = tracer.overflow
    m["machines.allocate_s"] = tracer.allocate_ns / 1e9
    m["engine.step_us.p50"] = percentile(tracer.step_ns, 0.50) / 1e3
    m["engine.step_us.p99"] = percentile(tracer.step_ns, 0.99) / 1e3
    for name in _ENGINE_COUNTS:
        m[f"engine.{name}"] = engine[name]
    m["engine.useful_ratio"] = (
        engine["stages"] - engine["stages.noop"]
    ) / engine["stages"]
    m["audit.trace_records"] = sum(r for r, _ in tracer.encoded)
    m["audit.trace_bytes"] = sum(b for _, b in tracer.encoded)
    m["audit.replay_s"] = sum(
        s for span, s in zip(tracer.spans, own) if span[0] == "audit.replay"
    ) / 1e9
    m["audit.checks_failed"] = tracer.checks_failed
    m["cli.io_s"] = layer_self["cli"] / 1e9
    return m


def traced_pass(ops, tracer: Tracer, plan, inputs, requests):
    """One pass with ``tracer`` installed: (its times, its layer metrics).
    The pass fails its trace check if the spans do not close or if any
    wrapper that every pass calls through recorded no call."""
    tracer.reset()
    times = run_pass(ops, plan, inputs, requests)
    why = tracer.check_closure()
    silent = tracer.silent(n for n in tracer.wrapped if n not in SETUP_SPANS)
    if why is None and silent:
        why = f"no calls recorded by {', '.join(silent)}"
    if why is not None:
        ops.fail("trace", why)
    return times, layer_metrics(tracer, tracer.engine)


def end_to_end(ops, plan, inputs, requests, seconds, setup, notes) -> dict:
    passes = timed_passes(ops, plan, inputs, requests, seconds)
    raw, ref = totals(passes, 0), totals(passes, 1)
    metrics = {"setup_s": setup[1]}
    notes["seconds"] = {"setup_s": setup[0]}
    for name in E2E_UNITS:
        if name.endswith(".run_s") or name.endswith(".audit_s"):
            metrics[name] = ref[name]
            notes["seconds"][name] = raw[name]
    metrics["trace_mb"] = passes[0]["trace_bytes"] / 1e6
    metrics["peak_rss_mb"] = peak_rss_mb()
    notes["pass_ref_s"] = [totals([p], 1)["pass_s"] for p in passes]
    return metrics


def per_layer(
    ceforge, ops, plan, inputs, requests, seconds, rebuild, notes
) -> dict:
    """Untraced passes for half of ``seconds``, then a traced set-up
    (``rebuild()`` must write the same inputs again) and traced passes for
    the other half."""
    plain = timed_passes(ops, plan, inputs, requests, seconds / 2)
    tracer = Tracer(ceforge)
    tracer.install()
    try:
        if not same_files(inputs, rebuild()):
            ops.fail("setup", "traced set-up wrote different inputs")
        silent = tracer.silent(SETUP_SPANS)
        if silent:
            ops.fail("trace", f"no calls recorded by {', '.join(silent)}")
        gen_spans = [s for s in tracer.spans if s[0] == "approx.gen"]
        metrics = {
            f"{name}.gen": tracer.counts[name]["gen"]
            for name in COUNTERS
            if name.startswith("bitcore.")
        }
        metrics["approx.gen_s"] = sum(s[2] - s[1] for s in gen_spans) / 1e9
        metrics["approx.gen_calls"] = len(gen_spans)
        closure = tracer.check_closure()
        if closure is not None:
            ops.fail("trace", closure)
        ops.tracer = tracer
        traced, layers = [], []
        start = perf_counter()
        while not traced or perf_counter() - start < seconds / 2:
            times, layer = traced_pass(ops, tracer, plan, inputs, requests)
            traced.append(times)
            layers.append(layer)
    finally:
        tracer.uninstall()
        ops.tracer = None
    for name in layers[0]:
        metrics[name] = statistics.median(p[name] for p in layers)
    metrics["trace.overhead"] = (
        totals(traced, 1)["pass_s"] / totals(plain, 1)["pass_s"]
    )
    notes["pass_ref_s"] = [totals([p], 1)["pass_s"] for p in plain + traced]
    return metrics


def measure(args, ceforge, import_times: tuple, work: Path) -> dict:
    workload = wl.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())["digests"]
    ops = Ops(ceforge, workload.shape, reference, work / "out")
    ops.work.mkdir()
    plan = wl.pass_plan(workload, args.seed)
    notes: dict = {}

    def setup(name: str):
        return timed(wl.write_inputs, ceforge, workload, args.seed, work / name)

    setups = [setup(f"in{i}") for i in range(SETUP_REPEATS)]
    inputs = setups[0][0]
    for other, *_ in setups[1:]:
        if not same_files(inputs, other):
            ops.fail("setup", "inputs differ between set-ups of one seed")
    requests = parse_requests(inputs["requests"].read_text())
    notes["setup_ref_s"] = [t[2] for t in setups]

    if args.trace == 0:
        times = [
            import_times[which] + statistics.median(t[1 + which] for t in setups)
            for which in (0, 1)
        ]
        metrics = end_to_end(
            ops, plan, inputs, requests, args.seconds, times, notes
        )
        units = E2E_UNITS
    else:
        metrics = per_layer(
            ceforge, ops, plan, inputs, requests, args.seconds,
            lambda: setup("traced")[0], notes,
        )
        units = LAYER_UNITS
    if set(units) != set(metrics):
        raise BenchError(
            f"metric set differs from its definition: {set(units) ^ set(metrics)}"
        )
    failed = len(ops.failures)
    notes["fail_ratio"] = failed / ops.attempted
    return {
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
        "failures": ops.failures[:20],
        "trace_mismatches": sorted(ops.trace_mismatches),
        "notes": notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        ceforge, *import_times = timed(import_ceforge, ROOT / "src")
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = measure(args, ceforge, tuple(import_times), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
