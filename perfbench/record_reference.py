"""Record the sha256 of every trace and report the workloads produce.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``.  A benchmark run counts an operation
as failed when a report's digest differs from the one recorded here, and
lists (without failing) the traces whose digest differs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import workloads as wl
from run import ROOT, git_commit
from worker import REFERENCE, import_ceforge, sha256


def record(ceforge, shape: wl.Shape, work: Path) -> dict[str, dict]:
    digests = {}
    for seed in shape.seeds:
        scenario = work / f"{shape.name}-{seed}.json"
        scenario.write_text(wl.scenario_text(ceforge, shape, seed))
        for engine in wl.ENGINES:
            trace = work / "trace.jsonl"
            report = work / "report.json"
            audited = work / "audit.json"
            with redirect_stdout(StringIO()):
                ran = ceforge.cli.main([
                    "run", "--scenario", str(scenario), "--engine", engine,
                    "--trace-out", str(trace), "--report-out", str(report),
                ])
                checked = ceforge.cli.main([
                    "audit", "--scenario", str(scenario),
                    "--trace", str(trace), "--report-out", str(audited),
                ])
            if ran != 0 or checked != 0:
                raise SystemExit(
                    f"{shape.name} seed {seed} {engine}: exit {ran}/{checked}"
                )
            if report.read_bytes() != audited.read_bytes():
                raise SystemExit(f"{shape.name} seed {seed} {engine}: "
                                 "audit report differs from run report")
            digests[f"{seed}/{engine}"] = {
                "trace": sha256(trace.read_bytes()),
                "report": sha256(report.read_bytes()),
            }
            print(shape.name, seed, engine, "ok", file=sys.stderr)
    return digests


def main() -> int:
    ceforge = import_ceforge(ROOT / "src")
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=base))
    try:
        digests = {
            name: record(ceforge, shape, work)
            for name, shape in wl.SHAPES.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(
        json.dumps(
            {"commit": git_commit(ROOT), "digests": digests},
            indent=1, sort_keys=True,
        ) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
