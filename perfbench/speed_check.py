"""Check that reference seconds follow a known change to the program.

    python3 perfbench/speed_check.py

Times ``ceforge run --engine single`` on the first ``sweep`` scenario as the
program is and under two changes made from outside, interleaved round by
round so that the host's drift hits all three alike:

* ``cpu`` adds fixed arithmetic to every engine step;
* ``memory`` holds about 100 MB of extra objects and reads 60 of them at
  random in every step, so the program's working set grows far past the
  caches.

For each change it prints the median over rounds of the time ratio to the
unchanged program, in seconds and in reference seconds (``speed.py``), and
exits 1 if the two ratios differ by more than ``TOLERANCE``.  A probe that
measured the program's own state instead of the host would pull the
reference-seconds ratio towards 1.  Writes only under ``.bench_work/``.
"""

from __future__ import annotations

import gc
import io
import random
import shutil
import statistics
import sys
from contextlib import redirect_stdout

import workloads as wl
from speed import timed
from worker import ROOT, import_ceforge

TOLERANCE = 0.05
#: Rounds of the three variants (about 2 minutes on a 2-vCPU host).
ROUNDS = 30


def main() -> int:
    ceforge = import_ceforge(ROOT / "src")
    work = ROOT / ".bench_work" / "speed-check"
    work.mkdir(parents=True, exist_ok=True)
    scenario = work / "scenario.json"
    scenario.write_text(wl.scenario_text(ceforge, wl.SWEEP, wl.SWEEP.seeds[0]))
    argv = [
        "run", "--scenario", str(scenario), "--engine", "single",
        "--trace-out", str(work / "trace.jsonl"),
        "--report-out", str(work / "report.json"),
    ]

    engine = ceforge.engine.BaseEngine
    step = engine.__dict__["step"]
    rng = random.Random(0)
    extra: list[str] = []

    def cpu_step(self, *a, **k):
        acc = 0
        for i in range(400):
            acc += i * i
        return step(self, *a, **k)

    def memory_step(self, *a, **k):
        for _ in range(60):
            len(extra[rng.randrange(len(extra))])
        return step(self, *a, **k)

    def call() -> None:
        with redirect_stdout(io.StringIO()):
            if ceforge.cli.main(argv) != 0:
                raise RuntimeError("ceforge run failed")

    steps = {"none": step, "cpu": cpu_step, "memory": memory_step}
    times: dict[str, list[tuple[float, float]]] = {v: [] for v in steps}
    try:
        for _ in range(ROUNDS):
            for variant, wrapper in steps.items():
                if variant == "memory":
                    extra[:] = [str(i) * 3 for i in range(1_500_000)]
                gc.collect()
                engine.step = wrapper
                try:
                    times[variant].append(timed(call)[1:])
                finally:
                    engine.step = step
                    extra.clear()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    worst = 0.0
    for variant in ("cpu", "memory"):
        raw, ref = (
            statistics.median(
                t[which] / base[which]
                for t, base in zip(times[variant], times["none"])
            )
            for which in (0, 1)
        )
        worst = max(worst, abs(ref / raw - 1))
        print(f"{variant:7} seconds x{raw:.3f}  reference seconds x{ref:.3f}")
    print(f"largest disagreement {worst:.1%} (tolerance {TOLERANCE:.0%})")
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
