"""ceforge benchmark: one workload run, end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run itself happens in a fresh
subprocess (``worker.py``), so its peak memory is its own.  Prints one line
per metric and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
machine's provenance, goes to ``.bench_results/``.  Exits non-zero without
a result when the run cannot be made (for example, with no ``src/ceforge``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ceforge" / "__init__.py").is_file():
        print(f"perfbench: no src/ceforge under {ROOT}", file=sys.stderr)
        return 2

    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: the run timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: the run exited {done.returncode}", file=sys.stderr)
        return done.returncode if done.returncode > 0 else 1
    result = json.loads(done.stdout.splitlines()[-1])

    result["workload"] = args.workload
    result["seed"] = args.seed
    result["seconds"] = args.seconds
    result["trace"] = args.trace
    result["provenance"] = provenance(ROOT)
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for name, metric in result["metrics"].items():
        print(f"{name:34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'fail_ratio':34} {result['notes']['fail_ratio']:>14.6g} ratio")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for label in result["trace_mismatches"]:
        print(f"trace digest differs from the reference: {label}")
    print(f"provenance {json.dumps(result['provenance'], sort_keys=True)}")
    print(f"result file {out.relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in (
        "correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
