"""One-shot scale ladder: how each layer's cost grows with the workload.

    python3 perfbench/ladder.py

Not a gated workload.  For k = 1, 2, 4, 8 it multiplies ``stages``,
``events``, ``active_stages``, ``element_bound`` and ``set_size`` of the
default ``GenParams`` by k and sets ``max_length`` to 14 + k, then times
scenario generation (seed 0) and, for each engine, the engine run, JSONL
encode, JSONL decode and the audit, in reference seconds (``speed.py``).  It
prints each time and its growth per doubling of k (linear cost grows 2x
per doubling), and writes the table with the machine's provenance to
``.bench_results/ladder.json``.  Takes about a minute on a 2-vCPU
host; k = 8 peaks near 0.9 GB of memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from run import ROOT, provenance
from speed import timed
from worker import import_ceforge

KS = (1, 2, 4, 8)
SEED = 0
SCALED = ("stages", "events", "active_stages", "element_bound", "set_size")
ENGINES = ("single", "dual")


def ref_timed(fn, *args):
    result, _, ref_seconds = timed(fn, *args)
    return result, ref_seconds


def rung(ceforge, k: int) -> dict[str, float]:
    params = ceforge.GenParams()
    for name in SCALED:
        setattr(params, name, getattr(params, name) * k)
    params.max_length = 14 + k
    row: dict[str, float] = {}
    scenario, row["gen_s"] = ref_timed(ceforge.gen_scenario, SEED, params)
    for name, cls in zip(ENGINES, (ceforge.SingleEngine, ceforge.DualEngine)):
        gc.collect()
        records, row[f"{name}.engine_s"] = ref_timed(
            cls(scenario).run, scenario.stages
        )
        text, row[f"{name}.encode_s"] = ref_timed(ceforge.trace_to_jsonl, records)
        del records
        decoded, row[f"{name}.decode_s"] = ref_timed(ceforge.trace_from_jsonl, text)
        report, row[f"{name}.audit_s"] = ref_timed(
            ceforge.audit_trace, decoded, scenario
        )
        row[f"{name}.trace_mb"] = len(text.encode()) / 1e6
        row[f"{name}.pass"] = report["pass"]
        del text, decoded
    return row


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    ceforge = import_ceforge(ROOT / "src")
    rows = {}
    for k in KS:
        rows[k] = rung(ceforge, k)
        print(f"k={k} done", file=sys.stderr)

    columns = [c for c in rows[KS[0]] if c.endswith("_s")]
    print(f"{'layer':16}" + "".join(f"{'k=' + str(k):>10}" for k in KS)
          + "   growth per doubling")
    growth = {}
    for column in columns:
        times = [rows[k][column] for k in KS]
        growth[column] = [b / a for a, b in zip(times, times[1:])]
        print(
            f"{column:16}"
            + "".join(f"{t:>10.3f}" for t in times)
            + "   " + " ".join(f"{g:5.2f}x" for g in growth[column])
        )
    for name in ENGINES:
        print(f"{name} trace MB " + " ".join(
            f"{rows[k][name + '.trace_mb']:.1f}" for k in KS
        ) + "; audit pass " + " ".join(
            str(rows[k][name + ".pass"]) for k in KS
        ))

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / "ladder.json"
    out.write_text(json.dumps(
        {
            "seed": SEED,
            "rows": {str(k): row for k, row in rows.items()},
            "growth_per_doubling": growth,
            "provenance": provenance(ROOT),
        },
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"result file {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
