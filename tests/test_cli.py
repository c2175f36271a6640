"""Command-line entry points, exercised in-process via ``main``."""

import copy
import decimal
import gc
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import oracles
import ceforge
from ceforge import (
    DualEngine,
    SingleEngine,
    audit_trace,
    gen_scenario,
    report_to_json,
    trace_from_jsonl,
    trace_to_jsonl,
)
from ceforge.audit import (
    _M_ENTRY_FIELDS,
    _N_ENTRY_FIELDS,
    _RECORD_FIELDS,
    _SNAPSHOT_FIELDS,
    _Replay,
    stable_indices,
)
from ceforge.bitcore import Dyadic, ZERO
from ceforge import cli
from ceforge.cli import (
    EXIT_FAIL,
    EXIT_LEMMA,
    EXIT_OK,
    EXIT_SCENARIO,
    KC_LENGTH_BOUND,
    main,
)
from ceforge.machines import PrefixFreeMachine

from conftest import (
    CAUSED_REUSES, DATA, SUM_CLAUSE_ACT, generated, load_jsonl,
)
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

    @pytest.mark.parametrize("engine", ["single", "dual"])
    def test_long_codewords_run_and_audit(self, capsys, tmp_path, engine):
        """A codeword of 15,000 bits gives the report's ``m-weight-a``
        witness numerators past ``str``'s default limit of 4,300 digits:
        ``run`` and ``audit`` write them exactly, and their reports are
        byte-identical."""
        trace, paths = _long_codeword_trace(capsys, tmp_path, engine)
        report = tmp_path / "audit.json"
        code, out, err = run_cli(
            capsys, "audit", "--scenario", str(paths["scenario"]),
            "--trace", str(trace), "--report-out", str(report),
        )
        assert (code, out, err) == (EXIT_OK, "", "")
        assert report.read_text() == paths["report"].read_text()
        checks = json.loads(report.read_text())["checks"]
        witness = next(c for c in checks if c["name"] == "m-weight-a")
        events = ceforge.Scenario.from_json(
            paths["scenario"].read_text()
        ).schedule.events
        lengths = [
            len(events[entry["justify"]].codeword)
            for record in load_jsonl(trace)[1:]
            for entry in record["m_entries"]
            if entry["side"] == "a"
        ]
        assert max(lengths) == 15_000
        m = Dyadic.parse(witness["witness"]["m"])
        assert (m.num, m.exp) == _pow2_sum(lengths)
        assert len(witness["witness"]["m"].partition("/")[0]) > 4_300

    @pytest.mark.parametrize("engine", ["single", "dual"])
    def test_lemma_violation_exits_three(self, capsys, monkeypatch, engine):
        """A machine that describes at length 0 reaches weight 1 with its
        first entry: ``run`` prints one ``lemma violation`` line that names
        the machine once."""
        describe = PrefixFreeMachine.describe
        monkeypatch.setattr(
            PrefixFreeMachine,
            "describe",
            lambda self, output, length, stage: describe(
                self, output, 0, stage
            ),
        )
        code, out, err = run_cli(
            capsys, "run", "--scenario", str(DATA / "single_scripted.json"),
            "--engine", engine,
        )
        assert code == EXIT_LEMMA
        assert out == ""
        assert err.startswith("lemma violation: ") and err.endswith(
            " v0: weight would reach 1/2^0\n"
        ), err
        assert err.count("\n") == 1, err
        name = err.removeprefix("lemma violation: ").split(" ")[0]
        assert err.count(name) == 1, err


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


def _n_length_huge(records):
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["length"] = 10**12


def _c_huge_with_n_length_huge(records):
    # c is derived, never read: a written one cannot license a longer
    # n-entry
    records[1]["markers"]["0"]["c"] = 10**12
    _n_length_huge(records)


def _c_offset_missing(records):
    del records[0]["c_offset"]


def _marker_index_skipped(records):
    records[1]["markers"]["2"] = records[1]["markers"].pop("0")


def _marker_one_before_zero(records):
    # Marker 1 is the least unplaced index, but marker 0, placed before
    # record 1, has no snapshot yet; a trace that never writes marker 0
    # would leave it out of the coding table.
    records[1].update(action="place", markers={"1": {"pos": 10}})


def _stage_repeated(records):
    records[2]["stage"] = records[1]["stage"]


def _b_added_twice(records):
    acts = [r for r in records[1:] if r["b_added"] is not None]
    acts[1]["b_added"] = acts[0]["b_added"]


def _b_added_unheld(records):
    # marker 0 holds position 1 before record 3, and no marker holds 2
    records[3]["b_added"] = 2


def _injured_as_string(records):
    record = next(r for r in records[1:] if r["injured"])
    record["injured"] = [str(index) for index in record["injured"]]


def _m_cause_as_list(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["cause"] = [None]


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
    # marker 0's c is the header's c_offset, 3, which the audit derives
    records[1]["markers"]["0"]["c"] = -1


def _c_offset_of_other_engine(records):
    records[0]["c_offset"] = 4


def _n_side_unknown(records):
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["side"] = "q"


def _m_side_unknown(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["side"] = "z"


def _n_length_past_bound(records):
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["length"] = 200


def _n_length_negative(records):
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["length"] = -1


def _n_length_hugely_negative(records):
    # 2^-length would take the memory of 10^12 bits, so it is refused
    # before any weight is summed
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["length"] = -10**12


def _m_justify_unknown(records):
    # the fixture's schedule has two events, 0 and 1
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["justify"] = 2


def _m_justify_negative(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["justify"] = -1


def _m_justify_spelled(records):
    # the codeword of event 0, as traces once spelled the description out
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["justify"] = "0000"


def _m_justify_late(records):
    # event 1 is enumerated at stage 2, after record 1
    records[1]["action"] = "describe"
    records[1]["m_entries"] = [{"side": "a", "justify": 1}]


# Record 4 places marker 1; the replay refuses a deficit it cannot read
# before ``deficit-bounds`` compares it.


def _deficit_not_a_number(records):
    records[4]["markers"]["1"]["p_a"] = "abc"


def _deficit_negative_unplaced(records):
    records[4]["markers"]["1"]["p_a"] = "-5/2^3"


# Spellings that ``int`` reads but a trace may not write: a deficit is
# ASCII decimal digits on both sides of "/2^".


def _deficit_signed(records):
    records[1]["markers"]["0"]["p_a"] = "0/2^+0"


def _deficit_numerator_signed(records):
    records[1]["markers"]["0"]["p_a"] = "+0/2^0"


def _deficit_spaced(records):
    records[1]["markers"]["0"]["p_a"] = " 0/2^0"


def _deficit_underscored(records):
    records[1]["markers"]["0"]["p_a"] = "0/2^0_0"


def _deficit_non_ascii_digits(records):
    records[1]["markers"]["0"]["p_d"] = "\u0660/2^0"  # ARABIC-INDIC ZERO


def _marker_key_padded(records):
    # "00" would be a second snapshot of marker 0 in the same record
    records[1]["markers"]["00"] = dict(records[1]["markers"]["0"])


def _marker_key_not_a_number(records):
    records[1]["markers"]["x"] = records[1]["markers"].pop("0")


def _stages_as_string(records):
    records[0]["stages"] = str(records[0]["stages"])


def _stages_short(records):
    records[0]["stages"] -= 1


def _stages_zero(records):
    records[0]["stages"] = 0


def _records_cut(records):
    # ``run`` writes every stage up to the header's: a trace cut after
    # record 3 lacks stages 4 to 6
    del records[4:]


def _header_only(records):
    del records[1:]


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
    _folded(records)["markers"] = {"0": records[7]["markers"]["0"]}


def _repeat_overlaps_next(records):
    records[2]["repeat"] = 2  # stage 2 through 3, and record 3 is stage 3


def _repeat_past_stages(records):
    records[-1]["repeat"] = 2


def _repeat_huge(records):
    # must exit at once: no loop or allocation per stage
    records[-1]["repeat"] = 10**18


# The action, clauses and injuries of a record must agree with what it
# does.  Each of these faults alone leaves the dual fixture's checks
# passing: no named check reads the action or clauses, and the forged
# injuries spread the n-entries they come with under the bound.


def _action_unknown(records):
    records[4]["action"] = "wait"


def _act_as_place(records):
    records[3]["action"] = "place"


def _describe_as_noop(records):
    records[5]["action"] = "noop"


def _act_without_clauses(records):
    records[7]["clauses"] = None


def _place_as_noop(records):
    records[4]["action"] = "noop"


def _noop_as_place(records):
    records[6]["action"] = "place"


def _noop_moves(records):
    # marker 1 holds position 6 from record 4 on; the move alone would
    # fail only ``marker-consistency``, as 6 never enters B
    records[6]["markers"] = {"1": {"p_a": "0/2^0", "p_d": "0/2^0", "pos": 9}}


def _forged_injuries(records):
    # Three length-2 n-entries of marker 0 weigh 3/4 with its first N-machine
    # and fail ``n-machine-bounds``; two forged injuries of marker 0 in
    # records that add nothing to B would spread them over three versions,
    # each under the bound.
    for number in (4, 5, 8):
        records[number]["n_entries"].append(
            {"side": "a", "index": 0, "length": 2}
        )
    for number in (4, 6):
        records[number]["injured"] = [0]


def _forged_injuries_in_acts(records):
    # The same n-entries, with the forged injuries of marker 0 in the act
    # records 3 and 7, whose acting marker is marker 0 itself.
    for number in (4, 5, 8):
        records[number]["n_entries"].append(
            {"side": "a", "index": 0, "length": 2}
        )
    records[3]["injured"] = [0]
    records[7]["injured"] = [0, 1]


def _injured_unknown(records):
    records[5]["injured"] = [99]


def _injured_unplaced(records):
    # record 4 no longer places marker 1, so record 5 injures a marker that
    # was never placed
    records[4].update(action="noop", markers={})


def _snapshot_pos_null(records):
    # only an act unplaces a marker, and the audit derives its injuries
    records[1]["markers"]["0"]["pos"] = None


def _placed_over_unplaced(records):
    # The last record places the least unplaced marker k; renamed k + 1,
    # it is placed while marker k is not.
    ((key, snap),) = records[-1]["markers"].items()
    records[-1]["markers"] = {str(int(key) + 1): snap}


def _injured_snapshot(records):
    # record 5 injures marker 1, whose snapshot the audit derives
    records[5]["markers"]["1"] = {"pos": None}


# Fields that older traces wrote, each with a value the engine once wrote
# in it.  The audit reads no such field, so it refuses each.


def _header_k_index(records):
    records[0]["k_index"] = "s+1"


def _record_weights(records):
    records[1]["weights"] = {"m_a": "0/2^0", "n": {}}


def _record_acting(records):
    records[3]["acting"] = 0


def _record_placed(records):
    records[4]["placed"] = [1, 6]


def _record_frozen(records):
    records[5]["frozen"] = True


def _record_z(records):
    records[1]["z"] = {"a": None}


def _snapshot_frozen(records):
    records[1]["markers"]["0"]["frozen"] = False


def _snapshot_c(records):
    records[1]["markers"]["0"]["c"] = 3


def _m_cause(records):
    records[5]["m_entries"][0]["cause"] = None


def _m_codeword(records):
    records[5]["m_entries"][0]["codeword"] = "0000"


def _m_length(records):
    records[5]["m_entries"][0]["length"] = 4


def _m_n(records):
    records[5]["m_entries"][0]["n"] = 2


def _n_codeword(records):
    records[3]["n_entries"][0]["codeword"] = "0000000"


def _n_version(records):
    # A version read from the trace could spread one N-machine's weight
    # over versions of its own.
    records[3]["n_entries"][0]["version"] = 1000


def _n_n(records):
    records[3]["n_entries"][0]["n"] = 2


#: The whole message that refuses each fault, as the audit words it.  Each
#: must name the value at fault where there is one: a bare KeyError
#: would print only the side.
_NAMED = {
    _markers_as_list: (
        "malformed trace: record 1 field 'markers' is missing or of the "
        "wrong type"
    ),
    _n_length_null: (
        "malformed trace: record 3 n_entries field 'length' is missing or of "
        "the wrong type"
    ),
    _m_justify_as_list: (
        "malformed trace: record 5 m_entries field 'justify' is missing or of "
        "the wrong type"
    ),
    _stage_as_string: "malformed trace: record 2 is not an object",
    _stage_as_list: "malformed trace: record 2 is not an object",
    _header_as_list: "trace must start with a header record",
    _negative_deficit: (
        "malformed trace: record 1 marker 0 p_a '-1/2^0' is not num/2^exp "
        "with num >= 0 and exp in 0..4"
    ),
    _deficit_exponent_huge: (
        "malformed trace: record 1 marker 0 p_a '1/2^1000000000000' is not "
        "num/2^exp with num >= 0 and exp in 0..4"
    ),
    _deficit_exponent_negative: (
        "malformed trace: record 1 marker 0 p_a '1/2^-1000000000000' is not "
        "num/2^exp with num >= 0 and exp in 0..4"
    ),
    _n_length_huge: (
        "malformed trace: record 3 n_entries length 1000000000000 exceeds 10"
    ),
    _c_huge_with_n_length_huge: (
        "malformed trace: record 1 markers field 'c' is unknown"
    ),
    _c_offset_missing: (
        "malformed trace: header c_offset None is not the dual engine's 4"
    ),
    _marker_index_skipped: (
        "malformed trace: record 1 marker 2 appears before marker 0"
    ),
    _marker_one_before_zero: (
        "malformed trace: record 1 marker 1 appears before marker 0"
    ),
    _stage_repeated: (
        "malformed trace: record 2 stage 1 does not follow stage 1"
    ),
    _b_added_twice: "malformed trace: record 5 adds position 1 to B again",
    _b_added_unheld: (
        "malformed trace: record 3 b_added 2 is the position of no marker "
        "placed before the record"
    ),
    _injured_as_string: (
        "malformed trace: record 7 injured ['1'] is not [1], the markers "
        "placed above acting marker 0"
    ),
    _m_cause_as_list: (
        "malformed trace: record 5 m_entries field 'cause' is unknown"
    ),
    _c_offset_huge: (
        "malformed trace: header c_offset 1000000000000 is not the single "
        "engine's 3"
    ),
    _engine_unknown: "malformed trace: unknown engine 'triple'",
    _engine_as_list: "malformed trace: unknown engine ['single']",
    _engine_as_object: "malformed trace: unknown engine {'single': 3}",
    _c_below_offset: "malformed trace: record 1 markers field 'c' is unknown",
    _c_offset_of_other_engine: (
        "malformed trace: header c_offset 4 is not the single engine's 3"
    ),
    _stages_as_string: (
        "malformed trace: header field 'stages' is missing or of the "
        "wrong type"
    ),
    _stages_short: (
        "malformed trace: records run to stage 8, past the header's 7"
    ),
    _stages_zero: "malformed trace: header stages 0 is below 1",
    _records_cut: (
        "malformed trace: records run to stage 3, before the header's 6"
    ),
    _header_only: (
        "malformed trace: records run to stage 0, before the header's 8"
    ),
    _repeat_as_string: (
        "malformed trace: record 8 repeat '2' is not an int of at least 2"
    ),
    _repeat_as_bool: (
        "malformed trace: record 8 repeat True is not an int of at least 2"
    ),
    _repeat_zero: (
        "malformed trace: record 8 repeat 0 is not an int of at least 2"
    ),
    _repeat_one: (
        "malformed trace: record 8 repeat 1 is not an int of at least 2"
    ),
    _repeat_with_b_added: (
        "malformed trace: record 8 repeats a stage that changes something"
    ),
    _repeat_with_m_entry: (
        "malformed trace: record 8 repeats a stage that changes something"
    ),
    _repeat_with_marker: (
        "malformed trace: record 8 repeats a stage that changes something"
    ),
    _repeat_overlaps_next: (
        "malformed trace: record 3 stage 3 does not follow stage 3"
    ),
    _repeat_past_stages: (
        "malformed trace: records run to stage 9, past the header's 8"
    ),
    _repeat_huge: (
        "malformed trace: records run to stage 1000000000000000007, past the "
        "header's 8"
    ),
    _n_side_unknown: (
        "malformed trace: record 3 n_entries side 'q' is not a single "
        "engine side"
    ),
    _m_side_unknown: (
        "malformed trace: record 5 m_entries side 'z' is not a dual "
        "engine side"
    ),
    _n_length_past_bound: (
        "malformed trace: record 3 n_entries length 200 exceeds 10"
    ),
    _n_length_negative: (
        "malformed trace: record 3 n_entries length -1 is not a natural"
    ),
    _n_length_hugely_negative: (
        "malformed trace: record 3 n_entries length -1000000000000 is not a "
        "natural"
    ),
    _m_justify_unknown: (
        "malformed trace: record 5 m_entries justify 2 is not the index of "
        "one of the schedule's 2 events"
    ),
    _m_justify_negative: (
        "malformed trace: record 5 m_entries justify -1 is not the index of "
        "one of the schedule's 2 events"
    ),
    _m_justify_spelled: (
        "malformed trace: record 5 m_entries field 'justify' is missing or of "
        "the wrong type"
    ),
    _m_justify_late: (
        "malformed trace: record 1 m_entries justify 1 names a description "
        "enumerated at stage 2, after the record's 1"
    ),
    _deficit_not_a_number: (
        "malformed trace: record 4 marker 1 p_a 'abc' is not num/2^exp with "
        "num >= 0 and exp in 0..4"
    ),
    _deficit_negative_unplaced: (
        "malformed trace: record 4 marker 1 p_a '-5/2^3' is not num/2^exp "
        "with num >= 0 and exp in 0..4"
    ),
    _marker_key_padded: (
        "malformed trace: record 1 marker key '00' is not a natural below "
        "2^53 in decimal without leading zeros"
    ),
    _marker_key_not_a_number: (
        "malformed trace: record 1 marker key 'x' is not a natural below 2^53 "
        "in decimal without leading zeros"
    ),
    _deficit_signed: (
        "malformed trace: record 1 marker 0 p_a '0/2^+0' is not num/2^exp "
        "with num >= 0 and exp in 0..4"
    ),
    _deficit_numerator_signed: (
        "malformed trace: record 1 marker 0 p_a '+0/2^0' is not num/2^exp "
        "with num >= 0 and exp in 0..4"
    ),
    _deficit_spaced: (
        "malformed trace: record 1 marker 0 p_a ' 0/2^0' is not num/2^exp "
        "with num >= 0 and exp in 0..4"
    ),
    _deficit_underscored: (
        "malformed trace: record 1 marker 0 p_a '0/2^0_0' is not num/2^exp "
        "with num >= 0 and exp in 0..4"
    ),
    _deficit_non_ascii_digits: (
        "malformed trace: record 1 marker 0 p_d '\u0660/2^0' is not num/2^exp "
        "with num >= 0 and exp in 0..4"
    ),
    _action_unknown: (
        "malformed trace: record 4 action 'wait' is not noop, place, "
        "describe or act"
    ),
    _act_as_place: (
        "malformed trace: record 3 action 'place' does not match b_added 1: "
        "a record acts exactly when it adds to B"
    ),
    _describe_as_noop: (
        "malformed trace: record 5 action 'noop' does not match b_added None "
        "and 1 m_entries: a record describes exactly when it adds nothing to "
        "B and has m_entries"
    ),
    _act_without_clauses: (
        "malformed trace: record 7 action 'act' does not match clauses None: "
        "a record names its clauses exactly when it acts"
    ),
    _place_as_noop: (
        "malformed trace: record 4 action 'noop' does not match the record's "
        "snapshots: a record that neither acts nor describes places exactly "
        "when it gives a marker a position the marker did not hold before"
    ),
    _noop_as_place: (
        "malformed trace: record 6 action 'place' does not match the record's "
        "snapshots: a record that neither acts nor describes places exactly "
        "when it gives a marker a position the marker did not hold before"
    ),
    _noop_moves: (
        "malformed trace: record 6 action 'noop' does not match the record's "
        "snapshots: a record that neither acts nor describes places exactly "
        "when it gives a marker a position the marker did not hold before"
    ),
    _forged_injuries: (
        "malformed trace: record 4 injured [0] in a record that adds nothing "
        "to B: only an act injures"
    ),
    _forged_injuries_in_acts: (
        "malformed trace: record 3 injured [0] is not [], the markers placed "
        "above acting marker 0"
    ),
    _injured_unknown: (
        "malformed trace: record 5 injured [99] is not [1], the markers "
        "placed above acting marker 0"
    ),
    _injured_unplaced: (
        "malformed trace: record 5 injured [1] is not [], the markers placed "
        "above acting marker 0"
    ),
    _injured_snapshot: (
        "malformed trace: record 5 marker 1 has a snapshot, but the record "
        "injures it"
    ),
    _snapshot_pos_null: (
        "malformed trace: record 1 markers field 'pos' is missing or of the "
        "wrong type"
    ),
    # sweep seed 1's single trace, cut after its stage-97 record
    # (``test_placed_over_unplaced_exits_two``)
    _placed_over_unplaced: (
        "malformed trace: record 55 marker 3 is placed while marker 2 is not"
    ),
    _header_k_index: "malformed trace: header field 'k_index' is unknown",
    _record_weights: "malformed trace: record 1 field 'weights' is unknown",
    _record_acting: "malformed trace: record 3 field 'acting' is unknown",
    _record_placed: "malformed trace: record 4 field 'placed' is unknown",
    _record_frozen: "malformed trace: record 5 field 'frozen' is unknown",
    _record_z: "malformed trace: record 1 field 'z' is unknown",
    _snapshot_frozen: (
        "malformed trace: record 1 markers field 'frozen' is unknown"
    ),
    _snapshot_c: "malformed trace: record 1 markers field 'c' is unknown",
    _m_cause: "malformed trace: record 5 m_entries field 'cause' is unknown",
    _m_codeword: (
        "malformed trace: record 5 m_entries field 'codeword' is unknown"
    ),
    _m_length: "malformed trace: record 5 m_entries field 'length' is unknown",
    _m_n: "malformed trace: record 5 m_entries field 'n' is unknown",
    _n_codeword: (
        "malformed trace: record 3 n_entries field 'codeword' is unknown"
    ),
    _n_version: (
        "malformed trace: record 3 n_entries field 'version' is unknown"
    ),
    _n_n: "malformed trace: record 3 n_entries field 'n' is unknown",
}


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
        ("single_scripted", _n_length_huge),
        ("single_scripted", _c_huge_with_n_length_huge),
        ("dual_scripted", _c_offset_missing),
        ("single_scripted", _marker_index_skipped),
        ("single_scripted", _marker_one_before_zero),
        ("dual_scripted", _stage_repeated),
        ("single_scripted", _b_added_twice),
        ("single_scripted", _b_added_unheld),
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
        ("single_scripted", _stages_zero),
        ("single_scripted", _records_cut),
        ("dual_scripted", _header_only),
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
        ("single_scripted", _n_length_past_bound),
        ("single_scripted", _n_length_negative),
        ("dual_scripted", _n_length_hugely_negative),
        ("dual_scripted", _m_justify_unknown),
        ("dual_scripted", _m_justify_negative),
        ("dual_scripted", _m_justify_spelled),
        ("dual_scripted", _m_justify_late),
        ("dual_scripted", _deficit_not_a_number),
        ("dual_scripted", _deficit_negative_unplaced),
        ("dual_scripted", _marker_key_padded),
        ("single_scripted", _marker_key_not_a_number),
        ("dual_scripted", _deficit_signed),
        ("dual_scripted", _deficit_numerator_signed),
        ("dual_scripted", _deficit_spaced),
        ("dual_scripted", _deficit_underscored),
        ("dual_scripted", _deficit_non_ascii_digits),
        ("dual_scripted", _action_unknown),
        ("dual_scripted", _act_as_place),
        ("dual_scripted", _describe_as_noop),
        ("dual_scripted", _act_without_clauses),
        ("dual_scripted", _place_as_noop),
        ("dual_scripted", _noop_as_place),
        ("dual_scripted", _noop_moves),
        ("dual_scripted", _forged_injuries),
        ("dual_scripted", _forged_injuries_in_acts),
        ("single_scripted", _injured_unknown),
        ("single_scripted", _injured_unplaced),
        ("single_scripted", _injured_snapshot),
        ("dual_scripted", _snapshot_pos_null),
        ("single_scripted", _header_k_index),
        ("single_scripted", _record_weights),
        ("single_scripted", _record_acting),
        ("single_scripted", _record_placed),
        ("single_scripted", _record_frozen),
        ("single_scripted", _record_z),
        ("single_scripted", _snapshot_frozen),
        ("single_scripted", _snapshot_c),
        ("dual_scripted", _m_cause),
        ("dual_scripted", _m_codeword),
        ("dual_scripted", _m_length),
        ("dual_scripted", _m_n),
        ("single_scripted", _n_codeword),
        ("single_scripted", _n_version),
        ("single_scripted", _n_n),
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
    assert (code, out, err) == (
        EXIT_SCENARIO, "", f"trace error: {_NAMED[corrupt]}\n"
    )


def _cut_after(records, stage):
    """The trace ``records`` cut after its record at ``stage``, with the
    header's ``stages`` there: well formed, as no record folds that stage
    with later ones."""
    number = next(
        number for number, record in enumerate(records)
        if record.get("stage") == stage
    )
    assert "repeat" not in records[number]
    return [{**records[0], "stages": stage}, *records[1 : number + 1]]


def test_placed_over_unplaced_exits_two(capsys, tmp_path):
    """Sweep seed 1's single trace, cut after its stage-97 record, which
    places marker 2 again after an injury, audits clean; with marker 3
    placed there instead, over the unplaced marker 2, it is refused."""
    scenario = generated(1)
    records = _cut_after(SingleEngine(scenario).run(scenario.stages), 97)
    assert audit_trace(records, scenario)["pass"]
    _placed_over_unplaced(records)
    assert _audit_records(capsys, tmp_path, records, scenario) == (
        EXIT_SCENARIO, "", f"trace error: {_NAMED[_placed_over_unplaced]}\n"
    )


@pytest.mark.parametrize(
    "engine_cls, seed, stage, index",
    [
        (SingleEngine, 0, 301, 5),
        (DualEngine, 1, 102, 2),
        (DualEngine, 0, 309, 5),
    ],
    ids=["single-0", "dual-1", "dual-0"],
)
def test_placed_over_unplaced_is_refused(engine_cls, seed, stage, index):
    """More engine traces cut after a record that places marker ``index``
    again after an injury: each audits clean, and is refused once the
    record places marker ``index`` + 1 instead."""
    scenario = generated(seed)
    records = _cut_after(engine_cls(scenario).run(scenario.stages), stage)
    assert audit_trace(records, scenario)["pass"]
    _placed_over_unplaced(records)
    with pytest.raises(
        ValueError,
        match=f"^malformed trace: record {len(records) - 1} marker "
        f"{index + 1} is placed while marker {index} is not$",
    ):
        _Replay.from_records(records, scenario)


def _audit_records(capsys, tmp_path, records, scenario):
    """``ceforge audit`` of ``records`` against ``scenario``, both written
    to ``tmp_path``: its exit code, stdout and stderr."""
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(scenario.to_json())
    trace = tmp_path / "trace.jsonl"
    trace.write_text(trace_to_jsonl(records))
    return run_cli(
        capsys,
        "audit", "--scenario", str(scenario_path), "--trace", str(trace),
    )


def _refused(number, what):
    """What ``ceforge audit`` writes as it refuses record ``number``."""
    message = f"trace error: malformed trace: record {number} {what}\n"
    return EXIT_SCENARIO, "", message


@pytest.mark.parametrize(
    "seed, engine_cls, stage, later",
    [
        (3, DualEngine, 260, 1003),
        (3, SingleEngine, 1126, 1166),
        (5, DualEngine, 361, 828),
    ],
    ids=["3-dual", "3-single", "5-dual"],
)
def test_description_enumerated_after_its_record_is_refused(
    capsys, tmp_path, seed, engine_cls, stage, later
):
    """An m-entry that names a description the universal machine
    enumerates only after the entry's record is refused, even where the
    description has the output and length of the one the engine used, so
    that every named check would pass: here the m-entry of the record at
    ``stage`` is switched to such a description, enumerated at ``later``."""
    scenario = generated(seed)
    events = scenario.schedule.events
    records = engine_cls(scenario).run(scenario.stages)
    number, record = next(
        (number, record) for number, record in enumerate(records)
        if record.get("stage") == stage
    )
    entry = record["m_entries"][0]
    used = events[entry["justify"]]
    entry["justify"] = next(
        index for index, event in enumerate(events)
        if event.stage == later and event.output == used.output
        and len(event.codeword) == len(used.codeword)
    )
    assert _audit_records(capsys, tmp_path, records, scenario) == _refused(
        number, f"m_entries justify {entry['justify']} names a description "
        f"enumerated at stage {later}, after the record's {stage}"
    )


def test_place_and_noop_are_told_apart(capsys, tmp_path):
    """Relabelled, three place records of sweep seed 0 (single), the
    first, one in the middle and the last, and its first bare no-op after
    stage 1 are each refused: a record that neither acts nor describes
    places exactly when it gives a marker a position it did not hold."""
    scenario = generated(0)
    records = SingleEngine(scenario).run(scenario.stages)
    places = [n for n, r in enumerate(records) if r.get("action") == "place"]
    noop = next(
        n for n, r in enumerate(records[2:], 2) if oracles.is_bare(r)
    )
    for number, action in [
        (places[0], "noop"),
        (places[len(places) // 2], "noop"),
        (places[-1], "noop"),
        (noop, "place"),
    ]:
        corrupted = copy.deepcopy(records)
        corrupted[number]["action"] = action
        assert _audit_records(
            capsys, tmp_path, corrupted, scenario
        ) == _refused(
            number, f"action {action!r} does not match the record's "
            "snapshots: a record that neither acts nor describes places "
            "exactly when it gives a marker a position the marker did not "
            "hold before"
        )


#: For each engine, and each trace of sweep seed i audited against the
#: scenario of sweep seed j != i: the record the audit refuses, the event
#: index its m-entry names and the stage that event is enumerated at in
#: scenario j, which comes after the record's stage.
_CROSSED = {
    "single": {
        (0, 1): (5, 3, 17), (0, 2): (5, 3, 17), (0, 3): (5, 3, 10),
        (1, 0): (164, 99, 291), (1, 2): (27, 10, 41), (1, 3): (31, 11, 37),
        (2, 0): (155, 70, 203), (2, 1): (41, 21, 83), (2, 3): (45, 26, 72),
        (3, 0): (127, 73, 216), (3, 1): (62, 24, 97), (3, 2): (9, 5, 24),
    },
    "dual": {
        (0, 1): (5, 3, 17), (0, 2): (5, 3, 17), (0, 3): (5, 3, 10),
        (1, 0): (162, 94, 275), (1, 2): (28, 10, 41), (1, 3): (32, 11, 37),
        (2, 0): (122, 70, 203), (2, 1): (44, 19, 63), (2, 3): (53, 26, 72),
        (3, 0): (138, 73, 216), (3, 1): (62, 24, 97), (3, 2): (9, 5, 24),
    },
}


@pytest.mark.parametrize(
    "engine_cls", [SingleEngine, DualEngine], ids=["single", "dual"]
)
def test_trace_audited_against_another_scenario_is_refused(
    capsys, tmp_path, engine_cls
):
    """A trace names descriptions by their index in its own scenario's
    schedule, so against another scenario's schedule the same indices name
    other descriptions; on sweep seeds 0-3 each such audit meets one
    enumerated after the record that names it, and exits 2."""
    traces = {
        seed: engine_cls(generated(seed)).run(generated(seed).stages)
        for seed in range(4)
    }
    crossed = _CROSSED[engine_cls.engine_name]
    for (own, other), (number, index, enumerated) in crossed.items():
        stage = traces[own][number]["stage"]
        assert _audit_records(
            capsys, tmp_path, traces[own], generated(other)
        ) == _refused(
            number, f"m_entries justify {index} names a description "
            f"enumerated at stage {enumerated}, after the record's {stage}"
        ), (own, other)


#: One JSON value of each kind, and a field taken out.
_MISSING = object()
_JSON_VALUES = {
    "missing": _MISSING,
    "int": 7,
    "string": "x",
    "float": 1.5,
    "bool": True,
    "null": None,
    "list": [],
    "object": {},
}
#: Each part of a stage record with its field table, and the path in the
#: dual fixture to one well-formed instance: record number first.
_TYPED_PARTS = {
    "": (_RECORD_FIELDS, (1,)),
    " m_entries": (_M_ENTRY_FIELDS, (5, "m_entries", 0)),
    " n_entries": (_N_ENTRY_FIELDS, (3, "n_entries", 0)),
    " markers": (_SNAPSHOT_FIELDS["dual"], (1, "markers", "0")),
}
#: The field each part once held and the audit now derives: a snapshot's
#: c and an m-entry's cause.  Its table lists no such key, so every value
#: of it is refused as unknown.
_RETIRED = {" markers": "c", " m_entries": "cause"}
#: Every field, and the part itself (``None``), with every value its table
#: does not allow; and each retired field with every value.
_TYPED_CASES = [
    (part, key, kind)
    for part, (table, _) in _TYPED_PARTS.items()
    for key, kinds in [(None, (dict,)), *table.items()]
    for kind, value in _JSON_VALUES.items()
    if (key is not None if value is _MISSING else type(value) not in kinds)
] + [
    (part, key, kind)
    for part, key in _RETIRED.items()
    for kind, value in _JSON_VALUES.items()
    if value is not _MISSING
]


@pytest.mark.parametrize(
    "part, key, kind",
    _TYPED_CASES,
    ids=[f"{p.strip() or 'record'}-{k}-{v}" for p, k, v in _TYPED_CASES],
)
def test_field_of_the_wrong_type_is_refused_as_its_table_words_it(
    capsys, tmp_path, data_dir, part, key, kind
):
    """The field tables decide every field's type, through the test each
    table compiles; a value its table refuses, a missing field that may be
    null included, must exit 2 with the message the table words, so a
    compiled test that lets it through fails here.  A retired field is a
    key its table does not list, whatever its value."""
    records = load_jsonl(data_dir / "dual_scripted_trace.jsonl")
    _, path = _TYPED_PARTS[part]
    holder = records
    for step in path[:-1]:
        holder = holder[step]
    value = _JSON_VALUES[kind]
    if value is not _MISSING:
        value = copy.deepcopy(value)
    number = path[0]
    if key is None:
        holder[path[-1]] = value
        want = f"record {number}{part} is not an object"
    elif _RETIRED.get(part) == key:
        holder[path[-1]][key] = value
        want = f"record {number}{part} field {key!r} is unknown"
    else:
        fields = holder[path[-1]]
        if value is _MISSING:
            del fields[key]
        else:
            fields[key] = value
        want = (
            f"record {number}{part} field {key!r} is missing or of the "
            "wrong type"
        )
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(
        capsys,
        "audit",
        "--scenario", str(data_dir / "dual_scripted.json"),
        "--trace", str(trace),
    )
    assert (code, out, err) == (
        EXIT_SCENARIO, "", f"trace error: malformed trace: {want}\n"
    )


def _bad_events():
    """Event lists that make the scripted scenario exit 2, each with the
    message that refuses it: the second event with each field replaced by
    each value it may not hold, and faults in one or two events.  The
    first fault a walk over the events meets is named, and every event's
    types are tested before any word is tested for being binary."""
    first, good = [1, "0000", "00"], [2, "0001", "000"]
    cases = {
        "event-stage-zero": (
            [first, [0, "0001", "000"]],
            "event stage must be at least 1, got 0",
        ),
        "event-stage-2^53": (
            [first, [2**53, "0001", "000"]],
            "event stage must be below 2^53",
        ),
        "empty": ([[1, "", "00"]], "empty codeword"),
        "binary-then-type": (
            [[1, "0020", "00"], [2, "0001", 3]],
            "output must be a string, got 3",
        ),
        "binary-then-empty": (
            [[1, "0000", "0x"], [2, "", "000"]],
            "codewords/outputs must be binary",
        ),
        "empty-then-binary": (
            [[1, "", "00"], [2, "0001", "0z0"]],
            "empty codeword",
        ),
        "output-before-empty": (
            [[1, "", "0y"]],
            "codewords/outputs must be binary",
        ),
    }
    for index, what, kinds in [
        (0, "event stage", "an integer"),
        (1, "codeword", "a string"),
        (2, "output", "a string"),
    ]:
        for kind, value in _JSON_VALUES.items():
            event = list(good)
            if value is _MISSING:
                del event[index]
                message = (
                    "bad scenario structure: not enough values to unpack "
                    "(expected 3, got 2)"
                )
            elif type(value) is type(good[index]):
                continue
            else:
                event[index] = value
                message = f"{what} must be {kinds}, got {value!r}"
            cases[f"{what.replace(' ', '-')}-{kind}"] = (
                [first, event], message
            )
    return cases


_BAD_EVENTS = _bad_events()


@pytest.mark.parametrize("case", list(_BAD_EVENTS))
def test_bad_event_exits_two_naming_the_first_fault(capsys, tmp_path, case):
    events, message = _BAD_EVENTS[case]
    payload = json.loads((DATA / "single_scripted.json").read_text())
    payload["universal_events"] = events
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "run", "--scenario", str(scenario))
    assert (code, out, err) == (
        EXIT_SCENARIO, "", f"scenario error: {message}\n"
    )


def _overweight_n_machine(records, scenario, half=False):
    """Add n-entries to the record of the first n-entry until that entry's
    (side, index, version) weighs more than 1/2 in the trace, each of
    length 2, or exactly 1/2 when ``half``, one entry for each bit of the
    weight missing; return them.  Every length added lies within the
    audit's N-entry length bound: 2, or at most that version's longest.
    The versions are those the trace fixes (``oracles.restore_entries``):
    the entries added come before the record's injuries, so they take the
    first entry's."""
    restored = oracles.restore_entries(records, scenario)
    number = next(n for n, r in enumerate(records) if n and r["n_entries"])
    record = records[number]
    first = record["n_entries"][0]
    version = restored[number]["n_entries"][0]["version"]
    key = first["side"], first["index"], version
    weight = sum(
        (
            Dyadic.pow2_neg(entry["length"])
            for r in restored[1:]
            for entry in r["n_entries"]
            if (entry["side"], entry["index"], entry["version"]) == key
        ),
        ZERO,
    )
    added = []
    if half:
        missing = Dyadic.pow2_neg(1) - weight
        for bit in range(missing.num.bit_length()):
            if missing.num >> bit & 1:
                length = missing.exp - bit
                added.append({**first, "length": length})
    while not half and weight <= Dyadic.pow2_neg(1):
        added.append({**first, "length": 2})
        weight += Dyadic.pow2_neg(2)
    assert added
    record["n_entries"] += added
    return added


@pytest.mark.parametrize(
    "engine_cls, half",
    [
        (SingleEngine, False),
        (DualEngine, False),
        (SingleEngine, True),
        (DualEngine, True),
    ],
    ids=["SingleEngine", "DualEngine", "SingleEngine-half", "DualEngine-half"],
)
def test_overweight_n_machine_fails_the_audit(
    capsys, tmp_path, engine_cls, half
):
    """A passing sweep trace with one N-machine version pushed past weight
    1/2 fails ``n-machine-bounds`` alone (exit 3).  At exactly 1/2 it
    passes on the single engine, whose bound is <= 1/2, and fails on the
    dual engine, whose bound is < 1/2.  The same entries under a side the
    engine does not have are a malformed trace (exit 2)."""
    scenario = generated(0)
    records = engine_cls(scenario).run(scenario.stages)
    assert audit_trace(records, scenario)["pass"]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(scenario.to_json())
    trace = tmp_path / "trace.jsonl"
    added = _overweight_n_machine(records, scenario, half)
    passes = half and engine_cls is SingleEngine
    sides = ((added[0]["side"], EXIT_OK if passes else EXIT_LEMMA),
             ("q", EXIT_SCENARIO))
    for side, code in sides:
        for entry in added:
            entry["side"] = side
        trace.write_text(trace_to_jsonl(records))
        got, out, err = run_cli(
            capsys,
            "audit", "--scenario", str(scenario_path), "--trace", str(trace),
        )
        assert got == code, err
        if code != EXIT_SCENARIO:
            report = json.loads(out)
            failed = [c["name"] for c in report["checks"] if not c["pass"]]
            assert failed == ([] if passes else ["n-machine-bounds"])
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
    final = _Replay.from_records(records, scenario).final_markers()
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


def _as_it_reads(record):
    """Name the action that the b_added and m_entries of ``record`` now
    make it: an act stays one; a record that adds nothing to B is a
    ``describe`` if it has m-entries, and a ``describe`` left with none is
    a ``noop``.  So the audit, which refuses a record whose action
    disagrees with them, reaches the named checks."""
    if record["b_added"] is not None:
        return
    if record["m_entries"]:
        record["action"] = "describe"
    elif record["action"] == "describe":
        record["action"] = "noop"


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
        _as_it_reads(last)

    return mutate


def _overdrawn_deficit(records, scenario):
    """Set ``p_a`` to 1/2 in the last snapshot of the highest marker placed
    at the end; every c is at least 3, so the bound 2^-c is below it."""
    final = _Replay.from_records(records, scenario).final_markers()
    index = max(i for i, snap in final.items() if snap["pos"] is not None)
    last = [r for r in records[1:] if str(index) in r["markers"]][-1]
    last["markers"][str(index)]["p_a"] = "1/2^1"


def _last_change(records, scenario, side="a"):
    """The replay, the ledger of ``side`` and the last record that is not a
    ``repeat`` record: entries added there come after every other use."""
    replay = _Replay.from_records(records, scenario)
    last = [r for r in records[1:] if "repeat" not in r][-1]
    return replay, replay.ledgers[side], last


def _reused_inactive(records, scenario):
    """Repeat, in a record that does not act, so with no cause, a side-a
    m-entry whose justifying description
    was used once and no longer matches A at the last change record.  The
    repeat moves an inactive description one container deeper."""
    _, ledger, last = _last_change(records, scenario)
    events = scenario.schedule.events
    entry = next(
        entry
        for record in records[1:]
        for entry in record["m_entries"]
        if entry["side"] == "a"
        and ledger.uses[events[entry["justify"]].codeword] == 1
        and not ledger.is_active(
            events[entry["justify"]].codeword, last["stage"]
        )
    )
    last["m_entries"].append(dict(entry))


def _repeated_active(side):
    """Repeat, in a record that does not act, so with no cause, the
    shortest description on ``side`` enumerated by the last change record
    that matches its given set there, until it is used as many times as
    it has bits.  Used u times, it lies in container S_(u-1), whose bound
    is 2^-u, and it alone weighs 2^-(its length)."""

    def mutate(records, scenario):
        _, ledger, last = _last_change(records, scenario, side)
        index, codeword = min(
            (
                (index, event.codeword)
                for index, event in enumerate(scenario.schedule.events)
                if event.stage <= last["stage"]
                and ledger.is_active(event.codeword, last["stage"])
            ),
            key=lambda described: len(described[1]),
        )
        for _ in range(len(codeword) - ledger.uses.get(codeword, 0)):
            last["m_entries"].append({"side": side, "justify": index})

    return mutate


def _moved_coding_position(records, scenario):
    """Move the highest stable marker whose position is in B, in its last
    snapshot, to the least position above it that never enters B: its
    index is in the halting set, but B no longer says so."""
    replay = _Replay.from_records(records, scenario)
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


def _counted_act(records, scenario):
    """The replay, and the number, acting marker and uninjured interval's
    end of the last act record whose reuses count against the acting
    marker's bound: the marker is placed at that end and outside the
    halting set there."""
    replay = _Replay.from_records(records, scenario)
    restated = oracles.restore_restated(oracles.restore_implied(records))
    for number in range(len(records) - 1, 0, -1):
        index = restated[number]["acting"]
        if index is None:
            continue
        stage = records[number]["stage"]
        end = next(
            (s - 1 for s in replay.injuries.get(index, []) if s > stage),
            replay.final_stage,
        )
        if replay.marker_at(index, end)["pos"] is not None and not (
            scenario.halting.contains(index, end)
        ):
            return replay, number, index, end
    raise AssertionError("no act whose reuses count")


def _overdraw(records, scenario, replay, number, index, end):
    """At the act record ``number``, whose acting marker ``index`` the
    audit names as the cause of each of its m-entries, use each side-a
    description enumerated by that record that matches A there and at
    stage ``end``, the end of the marker's uninjured interval, and that
    the trace uses at most once, no later than that record, until it is
    used twice, until the weight of those reuses passes the bound there:
    2^-c of the marker's snapshot at ``end``, plus its ``p_a`` on the dual
    engine.  No container but S_0 and S_1 gains a description."""
    record = records[number]
    snap = replay.marker_at(index, end)
    bound = Dyadic.pow2_neg(snap["c"])
    if "p_a" in snap:
        bound += Dyadic.parse(snap["p_a"])
    ledger = replay.ledgers["a"]
    events = scenario.schedule.events
    before = {}
    for earlier in records[1 : number + 1]:
        for entry in earlier["m_entries"]:
            if entry["side"] == "a":
                before[entry["justify"]] = before.get(entry["justify"], 0) + 1
    weight = ZERO
    for described in sorted(
        range(len(events)), key=lambda i: len(events[i].codeword)
    ):
        if weight > bound:
            break
        stage, codeword, _ = events[described]
        uses = ledger.uses.get(codeword, 0)
        if (
            stage <= record["stage"]
            and uses == before.get(described, 0) <= 1
            and all(
                ledger.is_active(codeword, at)
                for at in (record["stage"], end)
            )
        ):
            weight += Dyadic.pow2_neg(len(codeword))
            record["m_entries"] += [
                {"side": "a", "justify": described} for _ in range(2 - uses)
            ]
    assert weight > bound, (index, weight, bound)


def _overdrawn_reuses(records, scenario):
    """Overdraw (``_overdraw``), at the last act record whose reuses
    count, the acting marker's uninjured interval."""
    _overdraw(records, scenario, *_counted_act(records, scenario))


def _overdrawn_first_interval(records, scenario):
    """Overdraw (``_overdraw``) the first uninjured interval of marker 0
    at its act, with its snapshot of stage 1 dropped: the interval starts
    at stage 1, before the marker's first snapshot.  Marker 0 is the one
    marker placed before any record (on position 1), and so the one that
    can act before its first snapshot is written."""
    replay, number, index, end = _counted_act(records, scenario)
    assert index == 0 and 0 not in replay.injuries
    del records[1]["markers"]["0"]
    _overdraw(records, scenario, replay, number, index, end)


def _spread_n_machine(records, scenario):
    """Add to the record of the first n-entry three n-entries of length 2,
    on that entry's side and index: they weigh 3/4, past either engine's
    N-machine bound."""
    record = next(r for r in records[1:] if r["n_entries"])
    first = record["n_entries"][0]
    record["n_entries"] += [
        {"side": first["side"], "index": first["index"], "length": 2}
        for _ in range(3)
    ]


def _sweep():
    return generated(0)


def _sum_clause_act():
    return gen_scenario(6, SUM_CLAUSE_ACT)


#: One corruption of a passing trace per named check: the engine, the one
#: check the corrupted trace fails, the mutation, and the scenario: sweep
#: seed 0, or, for the reuse bounds, one whose act by marker 0 counts
#: (``SUM_CLAUSE_ACT``: on sweep seed 0 every act's marker is in the halting
#: set by the end of its interval).
_NAMED_CHECK_MUTANTS = [
    (DualEngine, "deficit-bounds", _overdrawn_deficit, _sweep),
    (SingleEngine, "coverage-a", _drop_last_m_entries("a"), _sweep),
    (DualEngine, "coverage-a", _drop_last_m_entries("a"), _sweep),
    (DualEngine, "coverage-d", _drop_last_m_entries("d"), _sweep),
    (SingleEngine, "active-transitions", _reused_inactive, _sweep),
    (DualEngine, "active-transitions", _reused_inactive, _sweep),
    (SingleEngine, "reuse-bounds", _overdrawn_reuses, _sum_clause_act),
    (DualEngine, "reuse-bounds", _overdrawn_reuses, _sum_clause_act),
    (
        SingleEngine, "reuse-bounds", _overdrawn_first_interval,
        _sum_clause_act,
    ),
    (DualEngine, "reuse-bounds", _overdrawn_first_interval, _sum_clause_act),
    (SingleEngine, "decanter-bounds-a", _repeated_active("a"), _sweep),
    (DualEngine, "decanter-bounds-a", _repeated_active("a"), _sweep),
    (DualEngine, "decanter-bounds-d", _repeated_active("d"), _sweep),
    (SingleEngine, "coding", _moved_coding_position, _sweep),
    (DualEngine, "coding", _moved_coding_position, _sweep),
    (SingleEngine, "n-machine-bounds", _spread_n_machine, _sweep),
]
_NAMED_CHECK_IDS = [
    "dual-deficit-bounds", "single-coverage-a", "dual-coverage-a",
    "dual-coverage-d", "single-active-transitions", "dual-active-transitions",
    "single-reuse-bounds", "dual-reuse-bounds",
    "single-reuse-bounds-first-interval", "dual-reuse-bounds-first-interval",
    "single-decanter-bounds-a", "dual-decanter-bounds-a",
    "dual-decanter-bounds-d", "single-coding", "dual-coding",
    "single-n-machine-bounds",
]


@pytest.mark.parametrize(
    "engine_cls, check, mutate, scenario_of", _NAMED_CHECK_MUTANTS,
    ids=_NAMED_CHECK_IDS,
)
def test_corrupted_trace_fails_its_check(
    capsys, tmp_path, engine_cls, check, mutate, scenario_of
):
    """A passing trace with one corruption fails exactly the check
    that exists for it (exit 3): a deficit above 2^-c fails
    ``deficit-bounds``, an output machine that misses the last
    descriptions of a side fails that side's coverage, a reuse of a
    description that no longer matches the given set fails
    ``active-transitions``, reuses in an act that weigh more than the
    acting marker's bound fail ``reuse-bounds``, also in an interval that
    starts before the marker's first snapshot, uncaused
    repeats of one active description that fill a container past its
    bound fail that side's ``decanter-bounds``, a stable marker moved
    off its position in B fails ``coding``, and n-entries that push one
    N-machine past its bound fail ``n-machine-bounds``."""
    scenario = scenario_of()
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


@pytest.mark.parametrize(
    "engine_cls, check, mutate, scenario_of", _NAMED_CHECK_MUTANTS,
    ids=_NAMED_CHECK_IDS,
)
def test_corrupted_trace_report_matches_the_walks(
    engine_cls, check, mutate, scenario_of
):
    """Each corrupted trace above audits to the report that the audit's
    former walks over the records and timelines build
    (``oracles.audit_trace_walks``), witness for witness."""
    scenario = scenario_of()
    records = engine_cls(scenario).run(scenario.stages)
    mutate(records, scenario)
    assert report_to_json(audit_trace(records, scenario)) == report_to_json(
        oracles.audit_trace_walks(records, scenario)
    )


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


#: Third lines that the trace decoder refuses, each with the line break
#: written between the lines: a JSON syntax error, and two values that
#: ``json.loads`` refuses with no position, nested too deep or holding an
#: integer past the interpreter's 4,300-digit limit.
_BAD_THIRD_LINES = {
    "lf": ('{"stage":2,}', "\n"),  # no name after the comma, at column 12
    "crlf": ('{"stage":2,}', "\r\n"),
    "deep-nesting": (_DEEP, "\n"),
    "long-int": ("9" * 5_000, "\n"),
}


@pytest.mark.parametrize("case", list(_BAD_THIRD_LINES))
def test_json_syntax_error_names_the_trace_line(
    capsys, tmp_path, data_dir, case
):
    """A third line the decoder refuses is refused naming line 3.  A JSON
    syntax error is placed at line 3, column 12: each line is decoded
    alone, but the message places it in the trace, with ``char`` counted
    in the lines joined by ``\\n``.  The parser's own message for a line
    nested too deep or an integer too long gets ``line 3: `` before it."""
    line, newline = _BAD_THIRD_LINES[case]
    lines = (data_dir / "single_scripted_trace.jsonl").read_text().split("\n")
    lines[2] = line
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(newline.join(lines).encode())
    code, out, err = run_cli(
        capsys,
        "audit",
        "--scenario", str(data_dir / "single_scripted.json"),
        "--trace", str(trace),
    )
    if case in ("lf", "crlf"):
        char = len(lines[0]) + len(lines[1]) + 2 + 11
        message = (
            "Expecting property name enclosed in double quotes: "
            f"line 3 column 12 (char {char})"
        )
    else:
        with pytest.raises((ValueError, RecursionError)) as refused:
            json.loads(line)
        message = f"line 3: {refused.value}"
    assert (code, out, err) == (EXIT_SCENARIO, "", f"trace error: {message}\n")


def test_audit_hands_the_decoder_the_trace_line_breaks(
    capsys, monkeypatch, tmp_path, data_dir
):
    """``audit`` reads the trace file as bytes and decodes them whole, so
    the decoder gets a CRLF trace's ``\\r\\n`` and its own rewrite decides
    the lines; the report is the one of the LF trace."""
    scenario = str(data_dir / "single_scripted.json")
    plain = data_dir / "single_scripted_trace.jsonl"
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
    texts = []

    def decode(text):
        texts.append(text)
        return trace_from_jsonl(text)

    monkeypatch.setattr(cli, "trace_from_jsonl", decode)
    results = [
        run_cli(capsys, "audit", "--scenario", scenario, "--trace", str(path))
        for path in (plain, crlf)
    ]
    assert results[0] == results[1]
    text = plain.read_text()
    assert texts == [text, text.replace("\n", "\r\n")]


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

    def test_leading_zeros_are_accepted(self, capsys, tmp_path):
        requests = tmp_path / "req.txt"
        requests.write_text("x 01\ny 002\n")
        code, out, _ = run_cli(capsys, "kc", str(requests))
        assert (code, out) == (EXIT_OK, "0\tx\n10\ty\n")
        # Each spelling of 2, repeated, is its own key of ``kc``'s dict.
        requests.write_text("a 2\nb 02\nc 2\nd 02\n")
        code, out, _ = run_cli(capsys, "kc", str(requests))
        assert (code, out) == (EXIT_OK, "00\ta\n01\tb\n10\tc\n11\td\n")

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

    @pytest.mark.parametrize(
        "before, length",
        [
            ("1", "+3"),
            ("1", "1_0"),
            ("1", "\u0663"),
            ("3", "+3"),
            ("10", "1_0"),
            ("3", "\u0663"),
        ],
        ids=[
            "signed",
            "underscored",
            "arabic-indic",
            "signed-after-3",
            "underscored-after-10",
            "arabic-indic-after-3",
        ],
    )
    def test_length_not_in_ascii_digits_exits_two(
        self, capsys, tmp_path, before, length
    ):
        """``int`` reads each of these lengths (3, 10 and 3), but a length
        must be written in ASCII decimal digits, also when its value was
        already allocated under its ASCII spelling."""
        requests = tmp_path / "req.txt"
        requests.write_text(f"x {before}\ny {length}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "kc", str(requests))
        assert (code, out, err) == (
            EXIT_SCENARIO,
            "",
            f"request error: length {length!r} is not written in ASCII "
            "decimal digits\n",
        )

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
        "before, length",
        [
            ("x 1\n", str(KC_LENGTH_BOUND + 1)),
            ("x 1\n", "99999999999999999999"),
            ("x 20\nw 20\nv 20\n", str(KC_LENGTH_BOUND + 1)),
        ],
        ids=["bound+1", "10^20", "bound+1-after-repeats"],
    )
    def test_length_above_the_bound_exits_two(
        self, capsys, tmp_path, before, length
    ):
        requests = tmp_path / "req.txt"
        requests.write_text(f"{before}y {length}\n")
        code, out, err = run_cli(capsys, "kc", str(requests))
        assert (code, out, err) == (
            EXIT_SCENARIO,
            "",
            f"request error: length {length} exceeds the bound "
            f"{KC_LENGTH_BOUND}\n",
        )

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


#: Two events, the second with a codeword of 15,000 bits, so that the
#: dyadic weights the report and the dual engine's deficits write can have
#: numerators past ``str``'s default limit of 4,300 digits.
LONG_CODEWORDS = {
    "universal_events": [[1, "001", "0"], [1, "1" + "0" * 14_999, "00"]],
    "set_a": [],
    "set_d": [],
    "halting": [],
    "stages": 30,
}


def _long_codeword_trace(capsys, tmp_path, engine):
    """Run ``LONG_CODEWORDS`` on ``engine``; returns the trace path and the
    paths of the scenario and the report, which ``run`` must write with
    exit 0 and nothing on stdout or stderr."""
    paths = {
        "scenario": tmp_path / "long.json", "report": tmp_path / "run.json"
    }
    paths["scenario"].write_text(json.dumps(LONG_CODEWORDS))
    trace = tmp_path / "trace.jsonl"
    code, out, err = run_cli(
        capsys, "run", "--scenario", str(paths["scenario"]),
        "--engine", engine, "--trace-out", str(trace),
        "--report-out", str(paths["report"]),
    )
    assert (code, out, err) == (EXIT_OK, "", "")
    return trace, paths


def _pow2_sum(lengths):
    """(num, exp) in lowest terms of the sum of 2^-length over
    ``lengths``."""
    exp = max(lengths)
    num = sum(1 << (exp - length) for length in lengths)
    while num % 2 == 0 and exp > 0:
        num, exp = num // 2, exp - 1
    return num, exp


def _digits(n):
    """``n`` in decimal past ``str``'s digit limit."""
    return str(decimal.Decimal(n))


@pytest.mark.parametrize(
    "numerator, code, failed",
    [
        # 3/16 + 2^-15000 > 2^-c = 1/16: read exactly, the bound fails.
        ((3 << 14_996) + 1, EXIT_LEMMA, ["deficit-bounds"]),
        # 5,002 digits: more than a value below 1 at 2^-15000 can have.
        (10**5_001, EXIT_SCENARIO, None),
        # Exactly 2^-c passes; one unit of 2^-15000 more fails.
        (1 << 14_996, EXIT_OK, []),
        ((1 << 14_996) + 1, EXIT_LEMMA, ["deficit-bounds"]),
    ],
    ids=["read", "too-long", "at-bound", "one-unit-above"],
)
def test_deficit_numerator_past_the_digit_limit(
    capsys, tmp_path, numerator, code, failed
):
    """A deficit whose numerator has more than 4,300 digits is read exactly
    when a value below 1 at the longest codeword's scale could have it, and
    is a trace error when it is longer.  Marker 0 has c = 4: a deficit of
    exactly 2^-4 passes ``deficit-bounds`` and one unit of 2^-15000 above
    it fails."""
    trace, paths = _long_codeword_trace(capsys, tmp_path, "dual")
    records = load_jsonl(trace)
    records[1]["markers"]["0"]["p_a"] = f"{_digits(numerator)}/2^15000"
    trace.write_text(trace_to_jsonl(records))
    got, out, err = run_cli(
        capsys, "audit", "--scenario", str(paths["scenario"]),
        "--trace", str(trace),
    )
    assert got == code
    if failed is None:
        assert out == ""
        assert err.startswith("trace error: ") and err.count("\n") == 1
    else:
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == failed


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

    def test_wide_real(self, capsys, tmp_path):
        """Bits 0 and 14,999 rise at stage 1.  Block 14,999's last element
        is 2^15000 - 2, whose 4,516 digits pass ``str``'s default limit."""
        real = tmp_path / "real.json"
        real.write_text(json.dumps([[0], [1] + [0] * 14_998 + [1]]))
        code, out, err = run_cli(capsys, "encode-real", str(real))
        assert (code, err) == (EXIT_OK, "")
        assert out == f"0\t1\n{_digits((1 << 15_000) - 2)}\t1\n"

    def test_wide_overflow_prints_nothing(self, capsys, tmp_path):
        """Bit 1 changes three times, once more than its block holds, and
        bit 14,999 rises: the error leaves stdout empty."""
        real = tmp_path / "real.json"
        wide = [0] * 14_998 + [1]
        real.write_text(
            json.dumps([[0, 1] + wide, [1, 0] + wide, [1, 1] + wide])
        )
        code, out, err = run_cli(capsys, "encode-real", str(real))
        assert code == EXIT_SCENARIO
        assert out == ""
        assert err.startswith("real error: ") and err.count("\n") == 1

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


@pytest.mark.parametrize(
    "command", ["run", "audit", "gen", "kc", "encode-real"]
)
def test_main_parses_again_after_an_error(
    capsys, monkeypatch, tmp_path, command
):
    """``main`` builds its parser once per process: a command gives the
    same exit code and output a second time, after an argparse error
    (exit 2 through SystemExit) in between.  The parser keeps no command
    function: a ``cmd_*`` replaced on the module later is the one run."""
    trace = tmp_path / "trace.jsonl"
    requests = tmp_path / "req.txt"
    requests.write_text("x 1\ny 2\nz 2\n")
    real = tmp_path / "real.json"
    real.write_text("[[0, 0], [0, 1]]")
    scenario = str(DATA / "demo_scenario.json")
    argv = {
        "run": ["run", "--scenario", scenario, "--engine", "dual"],
        "audit": ["audit", "--scenario", scenario, "--trace", str(trace)],
        "gen": ["gen", "--seed", "3", "--stages", "40"],
        "kc": ["kc", str(requests)],
        "encode-real": ["encode-real", str(real)],
    }[command]
    assert main(
        ["run", "--scenario", scenario, "--trace-out", str(trace)]
    ) == EXIT_OK
    capsys.readouterr()
    first = run_cli(capsys, *argv)
    assert first[0] == EXIT_OK and first[1], first
    with pytest.raises(SystemExit) as error:
        main([command, "--no-such-option"])
    assert error.value.code == EXIT_SCENARIO
    assert "error:" in capsys.readouterr().err
    assert run_cli(capsys, *argv) == first
    ran = []
    monkeypatch.setattr(
        cli, "cmd_" + command.replace("-", "_"), lambda args: ran.append(args)
    )
    assert main(argv) is None
    assert [args.command for args in ran] == [command]


@pytest.fixture
def collector_off():
    """The cyclic garbage collector off for the test, then as it was.  The
    objects made before the test are frozen out of its collections, so
    that ``gc.collect`` walks only what the test makes, not the session's
    heap."""
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def _cyclic_garbage(capsys, tmp_path, argv: list[str], code: int) -> int:
    """How many unreachable objects ``gc.collect`` finds after
    ``main(argv)``, which must exit ``code``.  A warm-up ``run`` that
    writes a trace goes first: the first command in a process leaves
    garbage once, from importing orjson (which imports ``datetime``) and
    from building the shared parser's help formatters."""
    main([
        "run", "--scenario", str(DATA / "demo_scenario.json"),
        "--trace-out", str(tmp_path / "warm-up.jsonl"),
    ])
    capsys.readouterr()
    gc.collect()
    assert main(argv) == code
    found = gc.collect()
    capsys.readouterr()
    return found


#: Scenarios whose ``run`` and ``audit`` must make no reference cycle; the
#: caused-reuses scenario fails its dual audit (exit 3).
_ACYCLIC_SCENARIOS = {
    "sweep-0": lambda: generated(0),
    "dense-x4-1": lambda: generated(1, dense=True),
    "caused-reuses": lambda: gen_scenario(9898, CAUSED_REUSES),
}


@pytest.mark.parametrize("engine", ["single", "dual"])
@pytest.mark.parametrize("name", list(_ACYCLIC_SCENARIOS))
def test_run_and_audit_leave_no_cyclic_garbage(
    capsys, tmp_path, collector_off, name, engine
):
    """``main`` pauses the cyclic collector for each command, which is sound
    only while no command makes a reference cycle: with the collector off,
    ``gc.collect`` finds nothing after a ``run`` or an ``audit``."""
    scenario = _ACYCLIC_SCENARIOS[name]()
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(scenario.to_json())
    trace = tmp_path / "trace.jsonl"
    fails = (name, engine) == ("caused-reuses", "dual")
    code = EXIT_LEMMA if fails else EXIT_OK
    run = [
        "run", "--scenario", str(scenario_path), "--engine", engine,
        "--trace-out", str(trace),
    ]
    assert _cyclic_garbage(capsys, tmp_path, run, code) == 0
    audit = ["audit", "--scenario", str(scenario_path), "--trace", str(trace)]
    assert _cyclic_garbage(capsys, tmp_path, audit, code) == 0


@pytest.mark.parametrize(
    "case", ["kc", "kc-exhausted", "gen", "encode-real", "bad-scenario",
             "bad-trace"],
)
def test_other_commands_leave_no_cyclic_garbage(
    capsys, tmp_path, collector_off, case
):
    """The other commands and the refusals of malformed input make no
    reference cycle either."""
    (tmp_path / "req.txt").write_text("x 1\ny 2\nz 2\n")
    (tmp_path / "heavy.txt").write_text("x 1\nx 1\nx 1\n")
    (tmp_path / "real.json").write_text("[[0, 0], [0, 1]]")
    (tmp_path / "bad.json").write_text("{oops")
    bad = str(tmp_path / "bad.json")
    argv, code = {
        "kc": (["kc", str(tmp_path / "req.txt")], EXIT_OK),
        "kc-exhausted": (["kc", str(tmp_path / "heavy.txt")], EXIT_SCENARIO),
        "gen": (["gen", "--seed", "3"], EXIT_OK),
        "encode-real": (["encode-real", str(tmp_path / "real.json")], EXIT_OK),
        "bad-scenario": (["run", "--scenario", bad], EXIT_SCENARIO),
        "bad-trace": (
            ["audit", "--scenario", str(DATA / "demo_scenario.json"),
             "--trace", bad],
            EXIT_SCENARIO,
        ),
    }[case]
    assert _cyclic_garbage(capsys, tmp_path, argv, code) == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("code", [EXIT_OK, EXIT_SCENARIO, EXIT_LEMMA])
def test_main_leaves_the_collector_as_it_found_it(
    capsys, monkeypatch, tmp_path, enabled, code
):
    """The command runs with the cyclic collector off, and ``main`` leaves
    the collector on or off as it found it, whatever the exit code."""
    scenario = tmp_path / "scenario.json"
    if code == EXIT_OK:
        scenario = DATA / "demo_scenario.json"
    elif code == EXIT_SCENARIO:
        scenario.write_text("{oops")
    else:
        scenario.write_text(gen_scenario(9898, CAUSED_REUSES).to_json())
    real_cmd_run = cli.cmd_run
    during = []

    def cmd_run(args):
        during.append(gc.isenabled())
        return real_cmd_run(args)

    monkeypatch.setattr(cli, "cmd_run", cmd_run)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        got = main(
            ["run", "--scenario", str(scenario), "--engine", "dual"]
        )
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert got == code
    assert during == [False]


def _process(tmp_path, *argv: str, hashseed: str = "0", **environ: str):
    """``python -m ceforge.cli`` with ``argv`` in a new process, under the
    string hash seed ``hashseed`` and the further variables ``environ``.
    The child imports the ``ceforge`` this test imported, whatever the
    interpreter has installed."""
    return _python(
        tmp_path, "-m", "ceforge.cli", *argv, hashseed=hashseed, **environ
    )


def _python(tmp_path, *argv: str, hashseed: str, **environ: str):
    """(exit code, stdout, stderr) of ``python`` with ``argv`` in a new
    process in ``tmp_path``, under the string hash seed ``hashseed`` and
    the further variables ``environ``, with the ``ceforge`` this test
    imported on its path.  Its output is decoded as UTF-8."""
    source = str(pathlib.Path(ceforge.__file__).parents[1])
    path = [source, os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "PYTHONHASHSEED": hashseed,
        **environ,
    }
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, cwd=tmp_path, env=env,
        encoding="utf-8", timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize(
    "environ",
    [{"PYTHONIOENCODING": "ascii"}, {"LC_ALL": "C", "PYTHONUTF8": "0"}],
    ids=["ascii-stdout", "c-locale"],
)
def test_kc_and_encode_real_read_and_write_utf8_in_any_locale(
    tmp_path, environ
):
    """``kc`` reads its requests as UTF-8 and writes its table as UTF-8
    bytes, and ``encode-real`` reads its input as UTF-8, whatever
    encoding the locale or ``PYTHONIOENCODING`` gives the process's
    streams and files.  No input to ``encode-real`` that holds a
    non-ASCII character is valid, so a no-break space after the vectors
    shows the read: the JSON parser refuses it as extra data, where an
    ASCII read would refuse the file's bytes."""
    (tmp_path / "req.txt").write_text("caf\u00e9 2\n", encoding="utf-8")
    (tmp_path / "real.json").write_text(
        '[[0, 0], [0, 1]] \u00a0', encoding="utf-8"
    )
    assert _process(tmp_path, "kc", "req.txt", **environ) == (
        EXIT_OK, "00\tcaf\u00e9\n", ""
    )
    assert _process(tmp_path, "encode-real", "real.json", **environ) == (
        EXIT_SCENARIO, "", "real error: Extra data: line 1 column 18 "
        "(char 17)\n"
    )


#: Two string hash seeds under which a set of two side names is walked in
#: opposite orders.
_HASH_SEEDS = ("0", "2")


def test_processes_write_the_same_bytes_under_two_hash_seeds(tmp_path):
    """Real processes, where the tests above call ``main`` in this one.
    Under ``PYTHONHASHSEED`` 0 and 2, which walk the set of side names
    ``{"a", "d"}`` in opposite orders (seeds 0 and 1 walk it alike),
    ``run`` writes the same trace and report bytes on either engine, and
    ``audit`` of the trace writes the run's report.  Each exit code passes
    through the process: 1 for a report that cannot be written, 2 with one
    line for a malformed scenario, and 3 for the caused-reuses scenario's
    dual run."""
    assert _process(tmp_path, "gen", "--seed", "3", "--out", "s.json") == (
        EXIT_OK, "", ""
    )
    orders = [
        _python(tmp_path, "-c", 'print(tuple({"a", "d"}))', hashseed=seed)
        for seed in _HASH_SEEDS
    ]
    assert orders[0][0] == orders[1][0] == EXIT_OK
    assert orders[0][1] != orders[1][1], orders
    for engine in ("single", "dual"):
        written = []
        for hashseed in _HASH_SEEDS:
            argv = ["--trace-out", f"{engine}{hashseed}.jsonl",
                    "--report-out", f"{engine}{hashseed}.json"]
            assert _process(
                tmp_path, "run", "--scenario", "s.json", "--engine", engine,
                *argv, hashseed=hashseed,
            ) == (EXIT_OK, "", "")
            written.append([(tmp_path / f).read_bytes() for f in argv[1::2]])
        assert written[0] == written[1], engine
        assert _process(
            tmp_path, "audit", "--scenario", "s.json",
            "--trace", f"{engine}0.jsonl", "--report-out", "audit.json",
        ) == (EXIT_OK, "", "")
        assert (tmp_path / "audit.json").read_bytes() == written[0][1]
    code, out, err = _process(
        tmp_path, "run", "--scenario", "s.json", "--report-out", "no/r.json"
    )
    assert (code, out) == (EXIT_FAIL, "")
    assert err.startswith("output error:") and err.count("\n") == 1, err
    (tmp_path / "bad.json").write_text("{oops")
    code, out, err = _process(tmp_path, "run", "--scenario", "bad.json")
    assert (code, out) == (EXIT_SCENARIO, "")
    assert err.startswith("scenario error:") and err.count("\n") == 1, err
    (tmp_path / "caused.json").write_text(
        gen_scenario(9898, CAUSED_REUSES).to_json()
    )
    code, out, err = _process(
        tmp_path, "run", "--scenario", "caused.json", "--engine", "dual"
    )
    assert (code, err) == (EXIT_LEMMA, "audit failed: reuse-bounds\n")
    assert json.loads(out)["pass"] is False
