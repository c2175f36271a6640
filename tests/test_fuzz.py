"""Mutation fuzzer for the command-line contract.

Real inputs are mutated one fault at a time: the sweep seed-0 and dense-x4
seed-1 scenarios, their traces from both engines, and a ``kc`` request
file.  A mutation drops a key, changes a value's JSON type, shifts an int
by +-1 or sets it to -1 or 2^53, swaps or duplicates records or entries,
truncates a line, inserts an unknown key, or replaces one of a trace's line
breaks with ``\\r\\n``, ``\\r`` or U+2028.  Every mutant must meet the
contract each command keeps:

* exit 0, 2 or 3, never 1, with no traceback, within 5 s;
* on exit 2, stderr is one ``trace error:``, ``scenario error:`` or
  ``request error:`` line, and that line is not a bare quoted key;
* on exit 0 or 3, stdout holds one report that ``json.loads`` reads, or,
  for ``kc``, a table that allocates every request at its length,
  prefix-free.  The one exit 3 without a report is a ``run`` that the
  engine itself stops, with one ``lemma violation:`` line: the README's
  exit 3 covers a bound violated, engine- or audit-detected.

A ``kc`` mutant's exit code, stdout and stderr must also equal those of
``oracles.kc_naive``, which tests every line's length spelling on its own.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ceforge import DualEngine, SingleEngine, report_to_json, trace_to_jsonl
from ceforge.audit import UsageLedger
from ceforge.cli import EXIT_LEMMA, EXIT_OK, EXIT_SCENARIO, main

from conftest import generated

ENGINES = {"single": SingleEngine, "dual": DualEngine}
SCENARIOS = {"sweep-0": (0, False), "dense-x4-1": (1, True)}
#: One value of each JSON type, for a value that changes its type.
JSON_VALUES = [7, "x", 1.5, True, None, [], {"k": 1}]
#: A refusal worded by a bare ``KeyError``: the key alone, quoted.
BARE_KEY = re.compile(r"^[a-z]+ error: '[^']*'$")


@functools.cache
def scenario_text(name: str) -> str:
    seed, dense = SCENARIOS[name]
    return generated(seed, dense).to_json()


@functools.cache
def trace_lines(name: str, engine: str) -> tuple[str, ...]:
    scenario = generated(*SCENARIOS[name])
    records = ENGINES[engine](scenario).run(scenario.stages)
    return tuple(trace_to_jsonl(records).splitlines())


@functools.cache
def rich_lines(name: str, engine: str) -> tuple[int, ...]:
    """The header and every record that holds more than a bare stage."""
    return tuple(
        number
        for number, line in enumerate(trace_lines(name, engine))
        if number == 0 or '"markers":{}' not in line
        or '"b_added":null' not in line or '"m_entries":[]' not in line
        or '"n_entries":[]' not in line or '"injured":[]' not in line
    )


def kc_lines() -> list[str]:
    """Requests of total weight below 1, with a comment and a blank.  The
    lengths 5..12 repeat, so every mutant meets spellings ``kc`` has already
    tested."""
    lines = ["# fuzzed stream", ""]
    lines += [f"t{i} {5 + i % 8}" for i in range(40)]
    return lines


def _slots(value, out):
    """Append (holder, key) for every value inside ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return out
    for key, item in items:
        out.append((value, key))
        _slots(item, out)
    return out


def _containers(root):
    """Every object and array inside ``root``, itself included."""
    return [root] + [
        h[k] for h, k in _slots(root, []) if isinstance(h[k], (dict, list))
    ]


def _shifted(data, value: int) -> int:
    return data.draw(
        st.sampled_from([value + 1, value - 1, -1, 2**53]), label="int"
    )


def _mutate_value(data, root, kind: str) -> bool:
    """Apply a mutation of ``kind`` somewhere inside ``root``, in place;
    False if ``root`` holds nowhere it applies."""
    if kind == "drop-key":
        slots = [(h, k) for h, k in _slots(root, []) if isinstance(h, dict)]
        if not slots:
            return False
        holder, key = data.draw(st.sampled_from(slots), label="slot")
        del holder[key]
    elif kind == "retype":
        slots = _slots(root, [])
        if not slots:
            return False
        holder, key = data.draw(st.sampled_from(slots), label="slot")
        old = type(holder[key])
        holder[key] = data.draw(
            st.sampled_from([v for v in JSON_VALUES if type(v) is not old]),
            label="value",
        )
    elif kind == "shift-int":
        slots = [
            (h, k) for h, k in _slots(root, []) if type(h[k]) is int
        ]
        if not slots:
            return False
        holder, key = data.draw(st.sampled_from(slots), label="slot")
        holder[key] = _shifted(data, holder[key])
    elif kind == "unknown-key":
        objects = [c for c in _containers(root) if isinstance(c, dict)]
        if not objects:
            return False
        target = data.draw(st.sampled_from(objects), label="object")
        target["zz_unknown"] = data.draw(
            st.sampled_from(JSON_VALUES), label="value"
        )
    else:  # swap-entries or duplicate-entry
        arrays = [
            c for c in _containers(root)
            if isinstance(c, list) and len(c) >= (2 if "swap" in kind else 1)
        ]
        if not arrays:
            return False
        array = data.draw(st.sampled_from(arrays), label="array")
        i = data.draw(st.integers(0, len(array) - 1), label="i")
        if kind == "duplicate-entry":
            array.insert(i, json.loads(json.dumps(array[i])))
        else:
            j = data.draw(st.integers(0, len(array) - 1), label="j")
            array[i], array[j] = array[j], array[i]
    return True


VALUE_KINDS = [
    "drop-key", "retype", "shift-int", "unknown-key", "swap-entries",
    "duplicate-entry",
]
LINE_KINDS = ["swap-lines", "duplicate-line", "truncate-line"]
#: Line breaks other than ``\n`` that ``str.splitlines`` also breaks at.
OTHER_BREAKS = ["\r\n", "\r", "\u2028"]


def _mutate_lines(data, lines: list[str], pick, kind: str) -> None:
    """Apply a line-level mutation of ``kind`` to ``lines``, in place;
    ``pick`` draws a line number."""
    i = pick()
    if kind == "swap-lines":
        j = pick()
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "duplicate-line":
        lines.insert(i, lines[i])
    else:
        cut = data.draw(st.integers(0, max(len(lines[i]) - 1, 0)), label="cut")
        lines[i] = lines[i][:cut]


def _run(*argv: str) -> tuple[int, str, str]:
    """``main`` in-process; an exception escaping it is exit 1 with a
    traceback, which the contract forbids."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    elapsed = time.perf_counter() - start
    assert elapsed < 5, (argv, elapsed)
    return code, out.getvalue(), err.getvalue()


def _assert_refusal(err: str, prefixes: tuple[str, ...]) -> None:
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith(prefixes), err
    assert not BARE_KEY.match(err.rstrip("\n")), err


def _assert_audit_contract(command: str, code: int, out: str, err: str):
    assert code in (EXIT_OK, EXIT_SCENARIO, EXIT_LEMMA), (code, err)
    if code == EXIT_SCENARIO:
        assert out == "", out[:200]
        _assert_refusal(err, ("trace error: ", "scenario error: "))
        return
    if code == EXIT_LEMMA and command == "run" and not out:
        _assert_refusal(err, ("lemma violation: ",))
        return
    assert out.endswith("\n") and out.count("\n") == 1, out[:200]
    report = json.loads(out)
    assert isinstance(report, dict) and (code == EXIT_OK) == report["pass"]
    if code == EXIT_LEMMA and command == "run":
        _assert_refusal(err, ("audit failed: ",))
    else:
        assert err == "", err


def _assert_kc_contract(lines: list[str], code: int, out: str, err: str):
    assert code in (EXIT_OK, EXIT_SCENARIO), (code, err)
    if code == EXIT_SCENARIO:
        assert out == ""
        _assert_refusal(err, ("request error: ",))
        return
    assert err == ""
    requests = [
        line.split() for line in lines
        if line.split() and not line.split()[0].startswith("#")
    ]
    rows = [row.split("\t") for row in out.splitlines()]
    assert len(rows) == len(requests)
    for (codeword, target), (want_target, length) in zip(rows, requests):
        assert target == want_target
        assert set(codeword) <= {"0", "1"} and len(codeword) == int(length)
    codewords = sorted(codeword for codeword, _ in rows)
    assert not any(b.startswith(a) for a, b in zip(codewords, codewords[1:]))


_FUZZ = settings(deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(_FUZZ, max_examples=120)
@given(
    data=st.data(),
    name=st.sampled_from(list(SCENARIOS)),
    engine=st.sampled_from(list(ENGINES)),
    kind=st.sampled_from(VALUE_KINDS + LINE_KINDS + ["line-break"]),
)
def test_mutated_trace_keeps_the_audit_contract(
    workdir, data, name, engine, kind
):
    lines = list(trace_lines(name, engine))
    rich = rich_lines(name, engine)

    def pick():
        return data.draw(
            st.sampled_from(rich) | st.integers(0, len(lines) - 1),
            label="line",
        )

    if kind in LINE_KINDS:
        _mutate_lines(data, lines, pick, kind)
    elif kind in VALUE_KINDS:
        number = pick()
        record = json.loads(lines[number])
        if not _mutate_value(data, record, kind):
            return
        lines[number] = json.dumps(record)
    breaks = ["\n"] * len(lines)
    if kind == "line-break":
        breaks[pick()] = data.draw(
            st.sampled_from(OTHER_BREAKS), label="break"
        )
    scenario = workdir / f"{name}.json"
    if not scenario.exists():
        scenario.write_text(scenario_text(name))
    trace = workdir / "trace.jsonl"
    trace.write_text("".join(line + end for line, end in zip(lines, breaks)))
    result = _run("audit", "--scenario", str(scenario), "--trace", str(trace))
    _assert_audit_contract("audit", *result)


def _lowered_positions(records, scenario):
    """At every fourth record that changes a marker, one more marker
    placed before it, taken in turn, gets a snapshot one below its
    position: violations at many indices, out of stage order."""
    snaps: dict[str, dict] = {}
    changes = 0
    for record in records[1:]:
        markers = record["markers"]
        if not markers:
            continue
        changes += 1
        placed = sorted(
            (key for key, snap in snaps.items()
             if snap["pos"] and key not in markers),
            key=int,
        )
        if changes % 4 == 0 and placed:
            key = placed[changes // 4 % len(placed)]
            markers[key] = {**snaps[key], "pos": snaps[key]["pos"] - 1}
        snaps.update(markers)


def _duplicated_inactive(records, scenario):
    """Every side-a m-entry whose description no longer matches A at the
    last change record is used once more there, with no cause."""
    last = [r for r in records[1:] if "repeat" not in r][-1]
    ledger = UsageLedger(scenario, "a")
    again = [
        {**entry, "cause": None}
        for record in records[1:]
        for entry in record["m_entries"]
        if entry["side"] == "a"
        and not ledger.is_active(entry["justify"], last["stage"])
    ]
    assert len({entry["justify"] for entry in again}) >= 2
    last["m_entries"] += again


def _overdrawn_deficits(records, scenario):
    """``p_a`` of every fourth placed snapshot and ``p_d`` of every third
    become 1/2, above every bound 2^-c (each c is at least 4)."""
    placed = [
        snap
        for record in records[1:]
        for snap in record["markers"].values()
        if snap["pos"] is not None
    ]
    for snap in placed[::4]:
        snap["p_a"] = "1/2^1"
    for snap in placed[::3]:
        snap["p_d"] = "1/2^1"


#: Well-formed trace mutants with many violations of one named check, at
#: several marker indices and stages: mutation, engines, check.
NAMED_CHECK_MUTANTS = {
    "lowered-positions": (
        _lowered_positions, ENGINES, "marker-monotone-stages"
    ),
    "duplicated-inactive": (
        _duplicated_inactive, ENGINES, "active-transitions"
    ),
    "overdrawn-deficits": (_overdrawn_deficits, ["dual"], "deficit-bounds"),
}


@pytest.mark.parametrize(
    "mutant, name, engine",
    [
        (mutant, name, engine)
        for mutant, (_, engines, _) in NAMED_CHECK_MUTANTS.items()
        for name in SCENARIOS
        for engine in engines
    ],
)
def test_trace_failing_a_named_check_keeps_the_audit_contract(
    workdir, mutant, name, engine
):
    """The exit-3 branch of the contract, which the derandomized mutants
    do not reach: the audit writes one report that fails the check, and
    that report equals the one the audit's former walks build
    (``oracles.audit_trace_walks``), whose witness is the last violation
    in (index, stage) order, or in record order for
    ``active-transitions``."""
    mutate, _, check = NAMED_CHECK_MUTANTS[mutant]
    scenario = generated(*SCENARIOS[name])
    records = [json.loads(line) for line in trace_lines(name, engine)]
    mutate(records, scenario)
    scenario_path = workdir / f"{name}.json"
    if not scenario_path.exists():
        scenario_path.write_text(scenario_text(name))
    trace = workdir / "trace.jsonl"
    trace.write_text(trace_to_jsonl(records))
    code, out, err = _run(
        "audit", "--scenario", str(scenario_path), "--trace", str(trace)
    )
    _assert_audit_contract("audit", code, out, err)
    assert code == EXIT_LEMMA
    report = json.loads(out)
    assert check in [c["name"] for c in report["checks"] if not c["pass"]]
    assert out == report_to_json(
        oracles.audit_trace_walks(records, scenario)
    ) + "\n"


@settings(_FUZZ, max_examples=40)
@given(
    data=st.data(),
    name=st.sampled_from(list(SCENARIOS)),
    engine=st.sampled_from(list(ENGINES)),
    command=st.sampled_from(["run", "audit"]),
    kind=st.sampled_from(VALUE_KINDS + ["truncate-line"]),
)
def test_mutated_scenario_keeps_the_contract(
    workdir, data, name, engine, command, kind
):
    text = scenario_text(name)
    if kind == "truncate-line":
        text = text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    else:
        payload = json.loads(text)
        if not _mutate_value(data, payload, kind):
            return
        text = json.dumps(payload)
    scenario = workdir / "mutant.json"
    scenario.write_text(text)
    if command == "run":
        argv = ["run", "--scenario", str(scenario), "--engine", engine]
    else:
        trace = workdir / f"{name}-{engine}.jsonl"
        if not trace.exists():
            trace.write_text("\n".join(trace_lines(name, engine)) + "\n")
        argv = ["audit", "--scenario", str(scenario), "--trace", str(trace)]
    _assert_audit_contract(command, *_run(*argv))


@settings(_FUZZ, max_examples=150)
@given(
    data=st.data(),
    kind=st.sampled_from(
        ["drop-field", "retype", "shift-int", "unknown-field"] + LINE_KINDS
    ),
)
def test_mutated_kc_requests_keep_the_contract(workdir, data, kind):
    lines = kc_lines()
    requests = [i for i, line in enumerate(lines) if line[:1] == "t"]

    def pick():
        return data.draw(st.sampled_from(requests), label="line")

    if kind in LINE_KINDS:
        _mutate_lines(data, lines, pick, kind)
    else:
        number = pick()
        fields = lines[number].split()
        if kind == "drop-field":
            del fields[data.draw(st.integers(0, 1), label="field")]
        elif kind == "retype":
            fields[1] = data.draw(
                st.sampled_from(
                    [json.dumps(v) for v in JSON_VALUES if type(v) is not int]
                ),
                label="value",
            )
        elif kind == "shift-int":
            fields[1] = str(_shifted(data, int(fields[1])))
        else:
            fields.insert(
                data.draw(st.integers(0, 2), label="at"), "zz_unknown"
            )
        lines[number] = " ".join(fields)
    text = "\n".join(lines) + "\n"
    requests_file = workdir / "requests.txt"
    requests_file.write_text(text, encoding="utf-8")
    result = _run("kc", str(requests_file))
    assert result == oracles.kc_naive(text)
    _assert_kc_contract(lines, *result)
