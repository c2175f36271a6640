"""Command-line entry points, exercised in-process via ``main``."""

import io
import json
import random
import sys

import pytest

from ceforge import DualEngine, SingleEngine, audit_trace, trace_to_jsonl
from ceforge.audit import _Replay, check_weights, stable_indices
from ceforge.bitcore import Dyadic, ZERO
from ceforge.cli import (
    EXIT_FAIL,
    EXIT_LEMMA,
    EXIT_OK,
    EXIT_SCENARIO,
    KC_LENGTH_BOUND,
    main,
)

from conftest import DATA, generated, load_jsonl
from oracles import EagerFreeBlockSet


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--seed", "5", "--out", str(a)]) == EXIT_OK
        assert main(["gen", "--seed", "5", "--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_prints_to_stdout_without_out(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--seed", "1", "--stages", "50")
        assert code == EXIT_OK
        assert json.loads(out)["stages"] == 50

    @pytest.mark.parametrize("stages", ["0", "-5"])
    def test_stages_below_one_exit_two(self, capsys, stages):
        code, out, err = run_cli(
            capsys, "gen", "--seed", "1", "--stages", stages
        )
        assert code == EXIT_SCENARIO
        assert not out
        assert err.startswith("scenario error:") and err.count("\n") == 1

    def test_stages_of_2_pow_53_exit_two(self, capsys, tmp_path):
        out_path = tmp_path / "scenario.json"
        code, out, err = run_cli(
            capsys, "gen", "--seed", "1", "--stages", str(2**53),
            "--out", str(out_path),
        )
        assert code == EXIT_SCENARIO
        assert not out and not out_path.exists()
        assert err == "scenario error: stages must be below 2^53\n"


class TestRun:
    def test_demo_scenario_exits_clean(self, capsys, tmp_path, data_dir):
        trace = tmp_path / "trace.jsonl"
        report = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys,
            "run",
            "--scenario", str(data_dir / "demo_scenario.json"),
            "--engine", "dual",
            "--trace-out", str(trace),
            "--report-out", str(report),
        )
        assert code == EXIT_OK, err
        assert json.loads(report.read_text())["pass"] is True
        assert trace.read_text().splitlines()

    def test_malformed_scenario_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == EXIT_SCENARIO
        assert "scenario error" in err

    def test_overweight_schedule_exits_two(self, capsys, tmp_path):
        heavy = tmp_path / "heavy.json"
        heavy.write_text(
            json.dumps(
                {
                    "universal_events": [[1, "00", "0"], [1, "01", "1"]],
                    "set_a": [],
                    "set_d": [],
                    "halting": [],
                    "stages": 5,
                }
            )
        )
        code, _, _ = run_cli(capsys, "run", "--scenario", str(heavy))
        assert code == EXIT_SCENARIO

    @pytest.mark.parametrize("stages", ["0", "-3"])
    def test_stages_flag_below_one_exits_two(self, capsys, data_dir, stages):
        code, out, err = run_cli(
            capsys,
            "run",
            "--scenario", str(data_dir / "demo_scenario.json"),
            "--stages", stages,
        )
        assert code == EXIT_SCENARIO
        assert not out
        assert err.startswith("scenario error:") and err.count("\n") == 1

    def test_stages_flag_of_2_pow_53_exits_two(self, capsys, data_dir):
        code, out, err = run_cli(
            capsys,
            "run",
            "--scenario", str(data_dir / "demo_scenario.json"),
            "--stages", str(2**53),
        )
        assert code == EXIT_SCENARIO
        assert not out
        assert err == "scenario error: stages must be below 2^53\n"

    def test_scenario_stages_below_one_exits_two(
        self, capsys, tmp_path, data_dir
    ):
        payload = json.loads((data_dir / "demo_scenario.json").read_text())
        payload["stages"] = -4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == EXIT_SCENARIO
        assert not out
        assert err.startswith("scenario error:") and err.count("\n") == 1

    @pytest.mark.parametrize("engine", ["single", "dual"])
    def test_huge_given_element_runs_and_audits(
        self, capsys, tmp_path, data_dir, engine
    ):
        # Only segments up to the longest schedule output are read, so an
        # element far past them must not size any buffer.
        payload = json.loads((data_dir / "single_scripted.json").read_text())
        payload["set_a"].append([10**12, 2])
        scenario = tmp_path / "huge.json"
        scenario.write_text(json.dumps(payload))
        trace = tmp_path / "trace.jsonl"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        code = main(
            [
                "run", "--scenario", str(scenario), "--engine", engine,
                "--trace-out", str(trace), "--report-out", str(first),
            ]
        )
        assert code in (EXIT_OK, EXIT_LEMMA)
        capsys.readouterr()
        assert main(
            [
                "audit", "--scenario", str(scenario), "--trace", str(trace),
                "--report-out", str(second),
            ]
        ) == code
        assert first.read_text() == second.read_text()

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "run", "--scenario", str(tmp_path / "nope.json")
        )
        assert code == EXIT_SCENARIO


class TestAudit:
    def test_replay_report_is_byte_identical(self, capsys, tmp_path, data_dir):
        scenario = str(data_dir / "demo_scenario.json")
        trace = tmp_path / "trace.jsonl"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(
            [
                "run", "--scenario", scenario, "--engine", "single",
                "--trace-out", str(trace), "--report-out", str(first),
            ]
        ) == EXIT_OK
        capsys.readouterr()
        assert main(
            [
                "audit", "--scenario", scenario, "--trace", str(trace),
                "--report-out", str(second),
            ]
        ) == EXIT_OK
        assert first.read_text() == second.read_text()

    def test_negative_control_exits_three(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--scenario", str(data_dir / "single_scripted.json"),
            "--trace", str(data_dir / "negative_control_trace.jsonl"),
        )
        assert code == EXIT_LEMMA
        assert json.loads(out)["pass"] is False


#: Edits of the scripted scenario that must make ``run`` and ``audit`` exit
#: 2: numbers that are not JSON integers (``1e999`` parses as an infinite
#: float), event and given-set stages below 1 (the stage loop starts at 1),
#: codewords and outputs that are not strings, a file that is not UTF-8,
#: and integers of 2^53 or more, past the range JSON readers agree on.
_BAD_SCENARIOS = {
    "element-3.5": (b'"set_a":[[2,4]]', b'"set_a":[[3.5,2]]'),
    "stage-2.5": (b'"set_a":[[2,4]]', b'"set_a":[[3,2.5]]'),
    "element-true": (b'"set_a":[[2,4]]', b'"set_a":[[true,2]]'),
    "element-1e999": (b'"set_a":[[2,4]]', b'"set_a":[[1e999,2]]'),
    "stages-1e999": (b'"stages":6', b'"stages":1e999'),
    "event-stage-1e999": (b'[[1,"0000"', b'[[1e999,"0000"'),
    "event-stage-0": (b'[[1,"0000"', b'[[0,"0000"'),
    "event-stage-minus-3": (b'[[1,"0000"', b'[[-3,"0000"'),
    "set-a-stage-0": (b'"set_a":[[2,4]]', b'"set_a":[[2,0]]'),
    "set-d-stage-0": (b'"set_d":[]', b'"set_d":[[2,0]]'),
    "codeword-number": (b'[1,"0000","00"]', b'[1,1111,"00"]'),
    "output-number": (b'"0001","000"]', b'"0001",0]'),
    "not-utf8": (b"{", b"\xff\xfe{"),
    "element-2^53": (b'"set_a":[[2,4]]', b'"set_a":[[9007199254740992,4]]'),
    "stages-2^53": (b'"stages":6', b'"stages":9007199254740992'),
}


@pytest.mark.parametrize("command", ["run", "audit"])
@pytest.mark.parametrize("case", list(_BAD_SCENARIOS))
def test_bad_scenario_file_exits_two(capsys, tmp_path, case, command):
    old, new = _BAD_SCENARIOS[case]
    text = (DATA / "single_scripted.json").read_bytes()
    assert text.count(old) == 1
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(text.replace(old, new))
    argv = [command, "--scenario", str(scenario)]
    if command == "audit":
        argv += ["--trace", str(DATA / "single_scripted_trace.jsonl")]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_SCENARIO
    assert out == ""
    assert err.startswith("scenario error:") and err.count("\n") == 1


def _markers_as_list(records):
    records[1]["markers"] = list(records[1]["markers"].values())


def _n_length_null(records):
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["length"] = None


def _m_justify_as_list(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["justify"] = [entry["justify"]]


def _stage_as_string(records):
    records[2] = "noop"


def _stage_as_list(records):
    records[2] = [records[2]]


def _header_as_list(records):
    records[0] = [records[0]]


def _negative_deficit(records):
    records[1]["markers"]["0"]["p_a"] = "-1/2^0"


def _deficit_exponent_huge(records):
    records[1]["markers"]["0"]["p_a"] = "1/2^1000000000000"


def _deficit_exponent_negative(records):
    records[1]["markers"]["0"]["p_a"] = "1/2^-1000000000000"


def _m_n_huge(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["n"] = 10**12


def _n_length_huge(records):
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["length"] = 10**12


def _c_huge_with_n_length_huge(records):
    records[1]["markers"]["0"]["c"] = 10**12
    _n_length_huge(records)


def _c_offset_missing(records):
    del records[0]["c_offset"]


def _marker_index_skipped(records):
    records[1]["markers"]["2"] = records[1]["markers"].pop("0")


def _stage_repeated(records):
    records[2]["stage"] = records[1]["stage"]


def _b_added_twice(records):
    acts = [r for r in records[1:] if r["b_added"] is not None]
    acts[1]["b_added"] = acts[0]["b_added"]


def _injured_as_string(records):
    record = next(r for r in records[1:] if r["injured"])
    record["injured"] = [str(index) for index in record["injured"]]


def _m_cause_as_list(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["cause"] = [entry["cause"]]


def _c_offset_huge(records):
    records[0]["c_offset"] = 10**12
    _c_huge_with_n_length_huge(records)


def _engine_unknown(records):
    records[0]["engine"] = "triple"


def _engine_as_list(records):
    records[0]["engine"] = ["single"]


def _engine_as_object(records):
    records[0]["engine"] = {"single": 3}


def _c_below_offset(records):
    # marker 0's c starts at the header's c_offset, 3
    records[1]["markers"]["0"]["c"] = -1


def _c_offset_of_other_engine(records):
    records[0]["c_offset"] = 4


def _n_side_unknown(records):
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["side"] = "q"


def _m_side_unknown(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["side"] = "z"


def _m_codeword_short(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["codeword"] = entry["codeword"][1:]


def _n_codeword_not_bits(records):
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["codeword"] = "2" + entry["codeword"][1:]


def _n_length_past_bound(records):
    # the codeword matches, so the audit's N-entry length rule must refuse it
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["length"] = 200
    entry["codeword"] = "0" * 200


#: Faults whose message must name the value at fault: a bare KeyError
#: would print only the side.
_NAMED = {
    _engine_as_list: "unknown engine ['single']",
    _c_below_offset: "marker 0 c -1 lies outside 3..3",
    _n_side_unknown: "side 'q' is not",
    _m_side_unknown: "side 'z' is not",
    _m_codeword_short: "record 5 m_entries codeword is not 4 bits",
    _n_codeword_not_bits: "record 3 n_entries codeword is not 7 bits",
    _n_length_past_bound: "record 3 n_entries length 200 exceeds",
}


def _stages_as_string(records):
    records[0]["stages"] = str(records[0]["stages"])


def _stages_short(records):
    records[0]["stages"] -= 1


# The dual fixture's last record is an empty no-op at stage 8; with the
# horizon raised to 9 it may stand for stages 8 and 9 with ``repeat`` 2.
# Each case below breaks one rule of that otherwise valid fold.


def _folded(records, repeat=2):
    records[0]["stages"] = 9
    records[-1]["repeat"] = repeat
    return records[-1]


def _repeat_as_string(records):
    _folded(records, "2")


def _repeat_as_bool(records):
    _folded(records, True)


def _repeat_zero(records):
    _folded(records, 0)


def _repeat_one(records):
    _folded(records, 1)


def _repeat_with_b_added(records):
    _folded(records)["b_added"] = 9


def _repeat_with_m_entry(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    _folded(records)["m_entries"] = [entry]


def _repeat_with_marker(records):
    _folded(records)["markers"] = {"1": records[7]["markers"]["1"]}


def _repeat_overlaps_next(records):
    records[2]["repeat"] = 2  # stage 2 through 3, and record 3 is stage 3


def _repeat_past_stages(records):
    records[-1]["repeat"] = 2


def _repeat_huge(records):
    # must exit at once: no loop or allocation per stage
    records[-1]["repeat"] = 10**18


@pytest.mark.parametrize(
    "fixture, corrupt",
    [
        ("single_scripted", _markers_as_list),
        ("single_scripted", _n_length_null),
        ("dual_scripted", _m_justify_as_list),
        ("single_scripted", _stage_as_string),
        ("single_scripted", _stage_as_list),
        ("single_scripted", _header_as_list),
        ("dual_scripted", _negative_deficit),
        ("dual_scripted", _deficit_exponent_huge),
        ("dual_scripted", _deficit_exponent_negative),
        ("dual_scripted", _m_n_huge),
        ("single_scripted", _n_length_huge),
        ("single_scripted", _c_huge_with_n_length_huge),
        ("dual_scripted", _c_offset_missing),
        ("single_scripted", _marker_index_skipped),
        ("dual_scripted", _stage_repeated),
        ("single_scripted", _b_added_twice),
        ("dual_scripted", _injured_as_string),
        ("dual_scripted", _m_cause_as_list),
        ("single_scripted", _c_offset_huge),
        ("single_scripted", _engine_unknown),
        ("single_scripted", _engine_as_list),
        ("dual_scripted", _engine_as_object),
        ("single_scripted", _c_below_offset),
        ("single_scripted", _c_offset_of_other_engine),
        ("dual_scripted", _stages_as_string),
        ("dual_scripted", _stages_short),
        ("dual_scripted", _repeat_as_string),
        ("dual_scripted", _repeat_as_bool),
        ("dual_scripted", _repeat_zero),
        ("dual_scripted", _repeat_one),
        ("dual_scripted", _repeat_with_b_added),
        ("dual_scripted", _repeat_with_m_entry),
        ("dual_scripted", _repeat_with_marker),
        ("single_scripted", _repeat_overlaps_next),
        ("dual_scripted", _repeat_past_stages),
        ("dual_scripted", _repeat_huge),
        ("single_scripted", _n_side_unknown),
        ("dual_scripted", _m_side_unknown),
        ("dual_scripted", _m_codeword_short),
        ("single_scripted", _n_codeword_not_bits),
        ("single_scripted", _n_length_past_bound),
    ],
    ids=lambda value: getattr(value, "__name__", value).lstrip("_"),
)
def test_malformed_trace_exits_two(
    capsys, tmp_path, data_dir, fixture, corrupt
):
    records = load_jsonl(data_dir / f"{fixture}_trace.jsonl")
    corrupt(records)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(
        capsys,
        "audit",
        "--scenario", str(data_dir / f"{fixture}.json"),
        "--trace", str(trace),
    )
    assert code == EXIT_SCENARIO
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("trace error:"), err
    assert _NAMED.get(corrupt, "") in err, err


def _overweight_n_machine(records):
    """Add length-2 n-entries to the record of the first n-entry until that
    entry's (side, index, version) weighs more than 1/2 in the trace, and
    return them.  Length 2 lies within the audit's ``max_length`` rule."""
    record = next(r for r in records[1:] if r["n_entries"])
    first = record["n_entries"][0]
    key = first["side"], first["index"], first["version"]
    weight = sum(
        (
            Dyadic.pow2_neg(entry["length"])
            for r in records[1:]
            for entry in r["n_entries"]
            if (entry["side"], entry["index"], entry["version"]) == key
        ),
        ZERO,
    )
    added = []
    while weight <= Dyadic.pow2_neg(1):
        added.append({**first, "length": 2, "codeword": "00"})
        weight += Dyadic.pow2_neg(2)
    record["n_entries"] += added
    return added


@pytest.mark.parametrize("engine_cls", [SingleEngine, DualEngine])
def test_overweight_n_machine_fails_the_audit(capsys, tmp_path, engine_cls):
    """A passing sweep trace with one N-machine version pushed past weight
    1/2 fails ``n-machine-bounds`` alone (exit 3).  The same entries under
    a side the engine does not have are a malformed trace (exit 2)."""
    scenario = generated(0)
    records = engine_cls(scenario).run(scenario.stages)
    assert audit_trace(records, scenario)["pass"]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(scenario.to_json())
    trace = tmp_path / "trace.jsonl"
    added = _overweight_n_machine(records)
    for side, code in ((added[0]["side"], EXIT_LEMMA), ("q", EXIT_SCENARIO)):
        for entry in added:
            entry["side"] = side
        trace.write_text(trace_to_jsonl(records))
        got, out, err = run_cli(
            capsys,
            "audit", "--scenario", str(scenario_path), "--trace", str(trace),
        )
        assert got == code, err
        if code == EXIT_LEMMA:
            report = json.loads(out)
            failed = [c["name"] for c in report["checks"] if not c["pass"]]
            assert failed == ["n-machine-bounds"]
        else:
            assert out == ""
            assert err.startswith("trace error: malformed trace:"), err
            assert "side 'q'" in err and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("repaired", [False, True], ids=["kept", "repaired"])
def test_swapped_markers_fail_the_ordering_check(capsys, tmp_path, repaired):
    """Two placed markers of a passing sweep trace that never move again
    take each other's position in one record: ``ceforge audit`` exits 3 and
    names ``marker-monotone-indices``.  Kept, the swap is still out of order
    at the last record that changes a marker.  Repaired, a record three
    changes later writes the true snapshots back, and the witness is the
    change record before it: the last stage the order was violated."""
    scenario = generated(0)
    records = SingleEngine(scenario).run(scenario.stages)
    final = _Replay.from_records(records).final_markers()
    i, j = sorted(
        index for index, snap in final.items() if snap["pos"] is not None
    )[:2]
    changes = [r for r in records[1:] if r["markers"]]
    settled = max(
        number for number, r in enumerate(changes)
        if str(i) in r["markers"] or str(j) in r["markers"]
    )
    swap = changes[settled + 1]
    swap["markers"][str(i)] = {**final[i], "pos": final[j]["pos"]}
    swap["markers"][str(j)] = {**final[j], "pos": final[i]["pos"]}
    last_violated = changes[-1]
    if repaired:
        changes[settled + 4]["markers"].update(
            {str(i): final[i], str(j): final[j]}
        )
        last_violated = changes[settled + 3]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(scenario.to_json())
    trace = tmp_path / "trace.jsonl"
    trace.write_text(trace_to_jsonl(records))
    code, out, err = run_cli(
        capsys,
        "audit", "--scenario", str(scenario_path), "--trace", str(trace),
    )
    assert code == EXIT_LEMMA, err
    check = next(
        c for c in json.loads(out)["checks"]
        if c["name"] == "marker-monotone-indices"
    )
    assert not check["pass"]
    witness = check["witness"]
    assert witness["stage"] == last_violated["stage"] > swap["stage"]
    assert i <= witness["i"] < witness["j"] <= j
    assert witness["pos_i"] >= witness["pos_j"]


def _drop_last_m_entries(side):
    """Drop the side's m-entries from the last record that has any."""

    def mutate(records, scenario):
        last = [
            r for r in records[1:]
            if any(entry["side"] == side for entry in r["m_entries"])
        ][-1]
        last["m_entries"] = [
            entry for entry in last["m_entries"] if entry["side"] != side
        ]

    return mutate


def _overdrawn_deficit(records, scenario):
    """Set ``p_a`` to 1/2 in the last snapshot of the highest marker placed
    at the end; every c is at least 3, so the bound 2^-c is below it."""
    final = _Replay.from_records(records).final_markers()
    index = max(i for i, snap in final.items() if snap["pos"] is not None)
    last = [r for r in records[1:] if str(index) in r["markers"]][-1]
    last["markers"][str(index)]["p_a"] = "1/2^1"


def _last_change(records, scenario):
    """The replay, the side-a ledger and the last record that is not a
    folded quiet tail: entries added there come after every other use."""
    replay = _Replay.from_records(records)
    _, ledgers = check_weights(replay, scenario)
    last = [r for r in records[1:] if "repeat" not in r][-1]
    return replay, ledgers["a"], last


def _reused_inactive(records, scenario):
    """Repeat, with no cause, a side-a m-entry whose justifying description
    was used once and no longer matches A at the last change record.  The
    repeat moves an inactive description one container deeper."""
    _, ledger, last = _last_change(records, scenario)
    entry = next(
        entry
        for record in records[1:]
        for entry in record["m_entries"]
        if entry["side"] == "a"
        and ledger.uses[entry["justify"]] == 1
        and not ledger.is_active(entry["justify"], last["stage"])
    )
    last["m_entries"].append({**entry, "cause": None})


def _repeated_active(records, scenario):
    """Repeat, with no cause, the shortest side-a description that matches
    A at the last change record, until it is used as many times as it has
    bits.  Used u times, it lies in container S_(u-1), whose bound is
    2^-u, and it alone weighs 2^-(its length)."""
    _, ledger, last = _last_change(records, scenario)
    codeword = min(
        (cw for cw in ledger.output_of if ledger.is_active(cw, last["stage"])),
        key=len,
    )
    for _ in range(len(codeword) - ledger.uses.get(codeword, 0)):
        last["m_entries"].append({
            "side": "a", "justify": codeword, "length": len(codeword),
            "n": len(ledger.output_of[codeword]), "cause": None,
            "codeword": "0" * len(codeword),
        })


def _moved_coding_position(records, scenario):
    """Move the highest stable marker whose position is in B, in its last
    snapshot, to the least position above it that never enters B: its
    index is in the halting set, but B no longer says so."""
    replay = _Replay.from_records(records)
    final = replay.final_markers()
    index = max(
        i for i in stable_indices(replay)
        if replay.in_b(final[i]["pos"], replay.final_stage)
    )
    pos = final[index]["pos"] + 1
    while pos in replay.b_stage:
        pos += 1
    last = [r for r in records[1:] if str(index) in r["markers"]][-1]
    last["markers"][str(index)]["pos"] = pos


def _overdraw(records, scenario, index, number, end):
    """At record ``number``, file side-a reuses caused by marker ``index``
    of descriptions used once so far that match A at that record and at
    stage ``end``, the end of the marker's uninjured interval, until their
    weight passes the bound there: 2^-c of the marker's snapshot at
    ``end``, plus its ``p_a`` on the dual engine."""
    record = records[number]
    snap = _Replay.from_records(records).marker_at(index, end)
    bound = Dyadic.pow2_neg(snap["c"])
    if "p_a" in snap:
        bound += Dyadic.parse(snap["p_a"])
    _, ledgers = check_weights(
        _Replay.from_records(records[: number + 1]), scenario
    )
    ledger = ledgers["a"]
    weight = ZERO
    for codeword in sorted(ledger.uses, key=len):
        if weight > bound:
            break
        if ledger.uses[codeword] == 1 and all(
            ledger.is_active(codeword, at) for at in (record["stage"], end)
        ):
            weight += Dyadic.pow2_neg(len(codeword))
            record["m_entries"].append({
                "side": "a", "justify": codeword, "length": len(codeword),
                "n": len(ledger.output_of[codeword]), "cause": index,
                "codeword": "0" * len(codeword),
            })
    assert weight > bound, (index, weight, bound)


def _overdrawn_reuses(records, scenario):
    """Overdraw (``_overdraw``), at the last change record, the last
    uninjured interval of the highest marker that is placed at the end,
    outside the halting set, and last injured, if ever, before that
    record."""
    replay, _, last = _last_change(records, scenario)
    stage, final = last["stage"], replay.final_stage
    index = max(
        index
        for index, snap in replay.final_markers().items()
        if snap["pos"] is not None
        and not scenario.halting.contains(index, final)
        and replay.injuries.get(index, [0])[-1] < stage
    )
    _overdraw(records, scenario, index, records.index(last), final)


def _overdrawn_first_interval(records, scenario):
    """Overdraw (``_overdraw``), at its last stage, the first uninjured
    interval of the highest marker that first appears after stage 1 and
    is later injured, outside the halting set at the interval's end.  The
    interval starts at stage 1, before the marker's first snapshot."""
    replay = _Replay.from_records(records)
    firsts = [
        (index, replay.injuries[index][0] - 1)
        for index, timeline in replay.timelines.items()
        if timeline[0][0] > 1 and index in replay.injuries
    ]
    index, end = max(
        (index, end)
        for index, end in firsts
        if not scenario.halting.contains(index, end)
    )
    number = next(n for n, r in enumerate(records) if n and r["stage"] == end)
    _overdraw(records, scenario, index, number, end)


@pytest.mark.parametrize(
    "engine_cls, check, mutate",
    [
        (DualEngine, "deficit-bounds", _overdrawn_deficit),
        (SingleEngine, "coverage-a", _drop_last_m_entries("a")),
        (DualEngine, "coverage-a", _drop_last_m_entries("a")),
        (DualEngine, "coverage-d", _drop_last_m_entries("d")),
        (SingleEngine, "active-transitions", _reused_inactive),
        (DualEngine, "active-transitions", _reused_inactive),
        (SingleEngine, "reuse-bounds", _overdrawn_reuses),
        (DualEngine, "reuse-bounds", _overdrawn_reuses),
        (SingleEngine, "reuse-bounds", _overdrawn_first_interval),
        (DualEngine, "reuse-bounds", _overdrawn_first_interval),
        (SingleEngine, "decanter-bounds-a", _repeated_active),
        (DualEngine, "decanter-bounds-a", _repeated_active),
        (SingleEngine, "coding", _moved_coding_position),
        (DualEngine, "coding", _moved_coding_position),
    ],
    ids=["dual-deficit-bounds", "single-coverage-a", "dual-coverage-a",
         "dual-coverage-d", "single-active-transitions",
         "dual-active-transitions", "single-reuse-bounds",
         "dual-reuse-bounds", "single-reuse-bounds-first-interval",
         "dual-reuse-bounds-first-interval", "single-decanter-bounds-a",
         "dual-decanter-bounds-a", "single-coding", "dual-coding"],
)
def test_corrupted_trace_fails_its_check(
    capsys, tmp_path, engine_cls, check, mutate
):
    """A passing sweep trace with one corruption fails exactly the check
    that exists for it (exit 3): a deficit above 2^-c fails
    ``deficit-bounds``, an output machine that misses the last
    descriptions of a side fails that side's coverage, a reuse of a
    description that no longer matches the given set fails
    ``active-transitions``, reuses caused by one marker that weigh more
    than its bound fail ``reuse-bounds``, in the last uninjured interval
    and in a first one that starts before the marker appears, uncaused
    repeats of one active description that fill a container past its
    bound fail ``decanter-bounds-a``, and a stable marker moved off its
    position in B fails ``coding``."""
    scenario = generated(0)
    records = engine_cls(scenario).run(scenario.stages)
    assert audit_trace(records, scenario)["pass"]
    mutate(records, scenario)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(scenario.to_json())
    trace = tmp_path / "trace.jsonl"
    trace.write_text(trace_to_jsonl(records))
    code, out, err = run_cli(
        capsys,
        "audit", "--scenario", str(scenario_path), "--trace", str(trace),
    )
    assert code == EXIT_LEMMA, err
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == [check]


#: Arrays nested 100,000 deep, past the JSON parser's recursion limit:
#: ``json.loads`` raises RecursionError, not a JSONDecodeError.
_DEEP = "[" * 100_000 + "]" * 100_000


#: Trace files that cannot be read as JSONL at all: the scripted trace with
#: one line that is not JSON, with bytes that are not UTF-8, with a record
#: split over two lines, or with two records on one line.  None is a
#: missing trace path.  The split and joined records read as the scripted
#: trace if the lines are joined into one JSON array, so a decode that did
#: that would accept them.  Arrays nested too deep to parse replace the
#: whole trace.
_UNREADABLE_TRACES = {
    "not-json": lambda text: text.replace(b"\n", b"\n{oops\n", 1),
    "not-utf8": lambda text: b"\xff\xfe" + text,
    "split-record": lambda text: text.replace(
        b',"n_entries"', b'\n"n_entries"', 1
    ),
    "two-records-on-a-line": lambda text: text.replace(b"}\n{", b"},{", 1),
    "deep-nesting": lambda text: _DEEP.encode(),
    # orjson 3.8.3 crashes the interpreter on this one; the standard
    # library's parser refuses it.
    "million-deep": lambda text: b"[" * 1_000_000 + b"]" * 1_000_000,
    "missing": None,
}


@pytest.mark.parametrize("case", list(_UNREADABLE_TRACES))
def test_unreadable_trace_exits_two(capsys, tmp_path, data_dir, case):
    trace = tmp_path / "trace.jsonl"
    corrupt = _UNREADABLE_TRACES[case]
    if corrupt is not None:
        text = (data_dir / "single_scripted_trace.jsonl").read_bytes()
        trace.write_bytes(corrupt(text))
    code, out, err = run_cli(
        capsys,
        "audit",
        "--scenario", str(data_dir / "single_scripted.json"),
        "--trace", str(trace),
    )
    assert code == EXIT_SCENARIO
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("trace error:"), err


@pytest.mark.parametrize("command", ["run", "audit"])
@pytest.mark.parametrize(
    "text, limit",
    [("9" * 5000, None), ("9" * 5000, 0), (_DEEP, None)],
    ids=["long-int", "long-int-no-digit-limit", "deep-nesting"],
)
def test_scenario_past_parser_limits_exits_two(
    capsys, tmp_path, data_dir, command, text, limit
):
    """A scenario file that is one bare 5,000-digit integer exits 2 with
    or without the interpreter's integer digit limit: past the limit
    ``json.loads`` raises a plain ValueError, and without it an integer is
    no scenario.  So does a scenario nested too deep to parse."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    argv = [command, "--scenario", str(scenario)]
    if command == "audit":
        argv += ["--trace", str(data_dir / "single_scripted_trace.jsonl")]
    saved = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == EXIT_SCENARIO
    assert out == ""
    assert err.startswith("scenario error:") and err.count("\n") == 1, err


class TestKc:
    def test_complete_code_table(self, capsys, tmp_path):
        requests = tmp_path / "req.txt"
        requests.write_text("x 1\ny 2\nz 2\n")
        code, out, _ = run_cli(capsys, "kc", str(requests))
        assert code == EXIT_OK
        assert out.splitlines() == ["0\tx", "10\ty", "11\tz"]

    def test_comments_and_blank_lines_are_skipped(self, capsys, tmp_path):
        requests = tmp_path / "req.txt"
        requests.write_text(
            "# header\n\n  \t\nx 1\n   # indented 2\n\t#tab\ny 2\n"
        )
        code, out, _ = run_cli(capsys, "kc", str(requests))
        assert code == EXIT_OK
        assert out.splitlines() == ["0\tx", "10\ty"]

    @pytest.mark.parametrize("line", ["y 2 z", "y", "y 2 # note"])
    def test_line_without_two_fields_exits_two(self, capsys, tmp_path, line):
        requests = tmp_path / "req.txt"
        requests.write_text(f"x 1\n{line}\n")
        code, out, err = run_cli(capsys, "kc", str(requests))
        assert code == EXIT_SCENARIO
        assert out == ""
        assert err.startswith("request error:") and err.count("\n") == 1

    def test_exhaustion_exits_two(self, capsys, tmp_path):
        requests = tmp_path / "req.txt"
        requests.write_text("a 1\nb 1\nc 1\n")
        code, _, err = run_cli(capsys, "kc", str(requests))
        assert code == EXIT_SCENARIO
        assert "request error" in err

    def test_exhaustion_mid_stream_prints_no_rows(self, capsys, tmp_path):
        # "c" finds no free block of length <= 1, and "d" would still fit.
        requests = tmp_path / "req.txt"
        requests.write_text("a 1\nb 2\nc 1\nd 2\n")
        code, out, err = run_cli(capsys, "kc", str(requests))
        assert code == EXIT_SCENARIO
        assert out == ""
        assert err.startswith("request error:") and err.count("\n") == 1

    def test_length_at_the_bound_is_allocated(self, capsys, tmp_path):
        requests = tmp_path / "req.txt"
        requests.write_text(f"x {KC_LENGTH_BOUND}\ny 1\n")
        code, out, _ = run_cli(capsys, "kc", str(requests))
        assert code == EXIT_OK
        assert out == "0" * KC_LENGTH_BOUND + "\tx\n1\ty\n"

    @pytest.mark.parametrize(
        "length",
        [str(KC_LENGTH_BOUND + 1), "99999999999999999999"],
        ids=["bound+1", "10^20"],
    )
    def test_length_above_the_bound_exits_two(
        self, capsys, tmp_path, length
    ):
        requests = tmp_path / "req.txt"
        requests.write_text(f"x 1\ny {length}\n")
        code, out, err = run_cli(capsys, "kc", str(requests))
        assert code == EXIT_SCENARIO
        assert out == ""
        assert err.startswith("request error:") and err.count("\n") == 1

    def test_table_matches_per_row_output(self, capsys, tmp_path):
        rng = random.Random(8)
        lines, requests, room = ["# seeded stream", ""], [], 1 << 24
        for i in range(3_000):
            length = rng.randint(10, 24)
            if 1 << (24 - length) <= room:
                room -= 1 << (24 - length)
                lines.append(f"t{i} {length}")
                requests.append((f"t{i}", length))
        path = tmp_path / "req.txt"
        path.write_text("\n".join(lines) + "\n")
        expected = io.StringIO()
        free = EagerFreeBlockSet()
        for target, length in requests:
            print(f"{free.allocate(length)}\t{target}", file=expected)
        code, out, _ = run_cli(capsys, "kc", str(path))
        assert code == EXIT_OK
        assert len(requests) > 1_000
        assert out == expected.getvalue()


_SCRIPTED = str(DATA / "single_scripted.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--seed", "3", "--out"],
        ["run", "--scenario", _SCRIPTED, "--trace-out"],
        ["run", "--scenario", _SCRIPTED, "--report-out"],
        [
            "audit", "--scenario", _SCRIPTED,
            "--trace", str(DATA / "single_scripted_trace.jsonl"),
            "--report-out",
        ],
    ],
    ids=["gen-out", "run-trace-out", "run-report-out", "audit-report-out"],
)
def test_unwritable_output_path_exits_one(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "out"))
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith("output error:") and err.count("\n") == 1


class TestEncodeReal:
    def test_constant_zero_is_empty(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("[[0, 0], [0, 0]]")
        code, out, _ = run_cli(capsys, "encode-real", str(real))
        assert code == EXIT_OK
        assert out == ""

    def test_single_flip(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("[[0, 0], [0, 1]]")
        code, out, _ = run_cli(capsys, "encode-real", str(real))
        assert code == EXIT_OK
        assert out.splitlines() == ["2\t1"]

    def test_overflow_exits_two(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("[[0, 0], [0, 1], [1, 0], [1, 1]]")
        code, _, _ = run_cli(capsys, "encode-real", str(real))
        assert code == EXIT_SCENARIO

    @pytest.mark.parametrize(
        "text",
        ["5", "[5]", "[]", '"01"', '["01"]', "[[0], 1]", "[[2]]", "[[true]]",
         "[[0.0]]", '{"0": [0]}', pytest.param(_DEEP, id="deep-nesting")],
    )
    def test_malformed_real_exits_two(self, capsys, tmp_path, text):
        real = tmp_path / "real.json"
        real.write_text(text)
        code, out, err = run_cli(capsys, "encode-real", str(real))
        assert code == EXIT_SCENARIO
        assert out == ""
        assert len(err.splitlines()) == 1, err
