"""Workload definitions: which scenarios and request streams a run uses.

Every workload runs the same three kinds of operation -- ``ceforge run``,
``ceforge audit`` (each on both engines) and ``ceforge kc`` -- so that every
end-to-end metric is measured on every workload.  The workloads differ in
how much of each they hold, which is what makes them stress different
layers:

* ``sweep``: the acceptance-sweep shape (default ``GenParams``).  Over 90%
  of its stage records are quiet-phase noop copies, so JSONL encode/decode,
  trace size and the audit's per-record scans carry a large share.
* ``dense-x4``: ``GenParams`` with events, active stages, element bound and
  set size times 4 and the active phase filling most of the horizon, so the
  engine's per-marker work dominates and generation dominates set-up.
* ``kc-stream``: one long request stream through ``ceforge kc``; a single
  small scenario keeps the engine and audit metrics defined while the
  allocator carries almost all of the time.

A workload's scenarios are a fixed set of generator seeds.  Engine cost
varies by up to 2.5x between scenario seeds, and a run has room for only a
few scenarios (a dense one costs about 2.5 s to generate and 5.5 s to run),
so scenarios drawn from ``--seed`` would make run-to-run totals differ by
more than the metrics' bounds.  The fixed set also lets every report be
checked against a digest recorded with the benchmark.  ``--seed`` sets the
order of the operations and the kc request stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ENGINES = ("single", "dual")


@dataclass(frozen=True)
class Shape:
    """A scenario family: ``GenParams`` overrides plus the seeds a run uses."""

    name: str
    params: dict
    seeds: tuple[int, ...]


SWEEP = Shape("sweep", {}, (0, 1, 2, 3))
DENSE_X4 = Shape(
    "dense-x4",
    {
        "stages": 6_000,
        "events": 1_600,
        "active_stages": 4_800,
        "set_size": 56,
        "element_bound": 192,
        "max_length": 18,
    },
    (1,),
)
SMALL = Shape(
    "small", {"stages": 1_000, "events": 60, "active_stages": 300}, (0,)
)

SHAPES = {shape.name: shape for shape in (SWEEP, DENSE_X4, SMALL)}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    kc_lines: int
    #: Calls per pass of each short operation (every audit, and kc).  A
    #: dense-x4 run holds only four or five passes, and with one sample
    #: per pass its audit and kc totals spread between runs twice as far
    #: as its run totals.
    repeats: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", SWEEP, 20_000),
        Workload("dense-x4", DENSE_X4, 20_000, repeats=3),
        Workload("kc-stream", SMALL, 200_000),
    )
}

KC_MIN_LENGTH = 18
KC_MAX_LENGTH = 26


def kc_requests(seed: int, lines: int) -> str:
    """A ``target length`` request file of total weight below 1.

    Lengths are uniform on 18..26, so the expected weight of 200,000 lines
    is about 0.17; the total is still checked exactly.
    """
    rng = random.Random(f"kc:{seed}")
    rows = []
    weight = 0  # in units of 2**-KC_MAX_LENGTH
    for _ in range(lines):
        length = rng.randint(KC_MIN_LENGTH, KC_MAX_LENGTH)
        weight += 1 << (KC_MAX_LENGTH - length)
        target = format(rng.getrandbits(24), "b")
        rows.append(f"{target} {length}")
    if weight >= 1 << KC_MAX_LENGTH:
        raise ValueError("request stream weight reached 1")
    return "\n".join(rows) + "\n"


def gen_params(ceforge, shape: Shape):
    params = ceforge.GenParams()
    for key, value in shape.params.items():
        setattr(params, key, value)
    return params


def scenario_text(ceforge, shape: Shape, scenario_seed: int) -> str:
    # Looked up on the module at call time so a traced run sees the wrapper.
    scenario = ceforge.approx.gen_scenario(
        scenario_seed, gen_params(ceforge, shape)
    )
    return scenario.to_json() + "\n"


def write_inputs(ceforge, workload: Workload, seed: int, out: Path) -> dict:
    """Generate and write every input file of one run; returns their paths."""
    out.mkdir(parents=True, exist_ok=True)
    scenarios = {}
    for scenario_seed in workload.shape.seeds:
        path = out / f"scenario-{scenario_seed}.json"
        path.write_text(scenario_text(ceforge, workload.shape, scenario_seed))
        scenarios[scenario_seed] = path
    requests = out / "requests.txt"
    requests.write_text(kc_requests(seed, workload.kc_lines))
    return {"scenarios": scenarios, "requests": requests}


def pass_plan(workload: Workload, seed: int) -> list[tuple]:
    """The order of one pass: ``("scenario", seed, engine, repeats)`` units
    (a run, then ``repeats`` audits of its trace) and one ``("kc",
    repeats)`` unit, shuffled by the workload seed and kept the same in
    every pass of the run."""
    units: list[tuple] = [
        ("scenario", s, engine, workload.repeats)
        for s in workload.shape.seeds
        for engine in ENGINES
    ]
    units.append(("kc", workload.repeats))
    random.Random(f"order:{seed}").shuffle(units)
    return units
