import functools
import itertools
import json
import pathlib

import pytest

from ceforge import GenParams, Scenario, gen_scenario

DATA = pathlib.Path(__file__).parent / "data"

#: The benchmark's dense-x4 shape: four times the events and given-set
#: elements, active over most of the horizon.
DENSE_X4 = GenParams(
    stages=6_000,
    events=1_600,
    active_stages=4_800,
    set_size=56,
    element_bound=192,
    max_length=18,
)

#: All activity at stage 1, so the quiet point is the longest segment.
ONE_EVENT = GenParams(
    stages=40, events=1, active_stages=1, set_size=1, element_bound=2,
    halting_size=0, zero_budget_share=0.0, min_length=2, max_length=2,
    max_output=1,
)
#: No events and no schedules: the dual engine's quiet point is 0, so the
#: first no-op past it is stage 1's, which carries marker 0's snapshot.
EMPTY = GenParams(
    stages=30, events=0, active_stages=1, set_size=0, element_bound=2,
    halting_size=0, zero_budget_share=0.0, min_length=2, max_length=2,
    max_output=1,
)


@functools.lru_cache(maxsize=None)
def generated(seed: int, dense: bool = False) -> Scenario:
    """``gen_scenario(seed)``, in the dense-x4 shape when ``dense``; built
    once per test run, so callers must not change it."""
    return gen_scenario(seed, DENSE_X4 if dense else None)


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA


@pytest.fixture(scope="session")
def single_scripted() -> Scenario:
    return Scenario.from_json((DATA / "single_scripted.json").read_text())


@pytest.fixture(scope="session")
def dual_scripted() -> Scenario:
    return Scenario.from_json((DATA / "dual_scripted.json").read_text())


@pytest.fixture(scope="session")
def demo_scenario() -> Scenario:
    return Scenario.from_json((DATA / "demo_scenario.json").read_text())


def load_jsonl(path: pathlib.Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def assert_same_lines(text: str, expected: str) -> None:
    """Assert that two traces are equal, line by line, so that a failure
    shows the first line that differs, not a diff of whole traces."""
    pairs = itertools.zip_longest(text.split("\n"), expected.split("\n"))
    for number, (line, want) in enumerate(pairs, 1):
        assert line == want, f"line {number}"
