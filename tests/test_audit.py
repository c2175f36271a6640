"""Independent trace replay and the bound checks it performs."""

import pytest

from ceforge.approx import (
    CESetApprox,
    Scenario,
    ScheduleEvent,
    UniversalSchedule,
)
from ceforge.audit import (
    LengthMismatch,
    UsageLedger,
    _Replay,
    audit_trace,
    report_to_json,
    trace_from_jsonl,
    trace_to_jsonl,
)
from ceforge.engine import DualEngine, SingleEngine

from conftest import load_jsonl


@pytest.fixture()
def tiny_scenario() -> Scenario:
    schedule = UniversalSchedule(
        [
            ScheduleEvent(1, "0000", "00"),
            ScheduleEvent(2, "0001", "000"),
        ]
    )
    return Scenario(
        schedule=schedule,
        set_a=CESetApprox([(1, 3)]),
        set_d=CESetApprox(),
        halting=CESetApprox(),
        stages=10,
    )


class TestUsageLedger:
    def test_containers_nest_with_use_counts(self, tiny_scenario):
        ledger = UsageLedger(tiny_scenario, "a")
        ledger.record_use("0000", 4, 2, stage=1, cause=0)
        assert ledger.containers() == {0: {"0000"}}
        ledger.record_use("0000", 4, 2, stage=2, cause=0)
        ledger.record_use("0001", 4, 3, stage=2, cause=1)
        assert ledger.containers() == {0: {"0000", "0001"}, 1: {"0000"}}
        assert ledger.use_count("0000") == 2
        assert ledger.use_count("0001") == 1

    def test_unknown_codeword_rejected(self, tiny_scenario):
        ledger = UsageLedger(tiny_scenario, "a")
        with pytest.raises(LengthMismatch):
            ledger.record_use("1111", 4, 2, stage=1, cause=None)

    def test_length_mismatch_rejected(self, tiny_scenario):
        ledger = UsageLedger(tiny_scenario, "a")
        with pytest.raises(LengthMismatch):
            ledger.record_use("0000", 5, 2, stage=1, cause=None)

    def test_segment_length_mismatch_rejected(self, tiny_scenario):
        # "0000" describes "00", so it cannot justify a segment of length 3
        ledger = UsageLedger(tiny_scenario, "a")
        with pytest.raises(LengthMismatch):
            ledger.record_use("0000", 4, 3, stage=1, cause=None)

    def test_is_active_tracks_given_set(self, tiny_scenario):
        ledger = UsageLedger(tiny_scenario, "a")
        # output "00" matches A|2 until element 1 arrives at stage 3
        assert ledger.is_active("0000", 2)
        assert not ledger.is_active("0000", 3)

    def test_empty_side_sees_constant_zero_string(self, tiny_scenario):
        ledger = UsageLedger(tiny_scenario, "d")
        assert ledger.is_active("0001", 9)


class TestReplay:
    def test_requires_header(self):
        with pytest.raises(ValueError):
            _Replay.from_records([{"stage": 1}])

    def test_marker_timeline_lookup(self, data_dir):
        records = load_jsonl(data_dir / "single_scripted_trace.jsonl")
        replay = _Replay.from_records(records)
        assert replay.marker_at(0, 0) is None  # records start at stage 1
        assert replay.marker_at(0, 2)["pos"] == 1
        assert replay.marker_at(0, 3)["pos"] == 5
        assert replay.marker_at(1, 2) is None
        assert replay.marker_at(1, 5)["pos"] is None  # just injured
        assert replay.marker_at(1, 6)["pos"] == 7

    def test_b_restrict(self, data_dir):
        records = load_jsonl(data_dir / "single_scripted_trace.jsonl")
        replay = _Replay.from_records(records)
        assert replay.b_restrict(6, 2) == "000000"
        assert replay.b_restrict(6, 3) == "010000"
        assert replay.b_restrict(6, 6) == "010001"


class TestAuditVerdicts:
    def test_demo_scenario_passes_both_engines(self, demo_scenario):
        for engine_cls in (SingleEngine, DualEngine):
            records = engine_cls(demo_scenario).run(demo_scenario.stages)
            report = audit_trace(records, demo_scenario)
            failed = [c["name"] for c in report["checks"] if not c["pass"]]
            assert report["pass"], failed

    def test_negative_control_fails_marker_discipline(
        self, data_dir, single_scripted
    ):
        records = load_jsonl(data_dir / "negative_control_trace.jsonl")
        report = audit_trace(records, single_scripted)
        assert not report["pass"]
        by_name = {c["name"]: c["pass"] for c in report["checks"]}
        assert not by_name["marker-monotone-stages"]
        assert not by_name["marker-consistency"]

    def test_report_is_deterministic(self, demo_scenario):
        records = DualEngine(demo_scenario).run(demo_scenario.stages)
        first = report_to_json(audit_trace(records, demo_scenario))
        second = report_to_json(audit_trace(records, demo_scenario))
        assert first == second

    def test_coding_table_covers_every_marker(self, demo_scenario):
        records = SingleEngine(demo_scenario).run(demo_scenario.stages)
        report = audit_trace(records, demo_scenario)
        replay = _Replay.from_records(records)
        assert [row["index"] for row in report["coding_table"]] == (
            replay.marker_indices()
        )

    def test_stable_markers_agree_with_halting_set(self, demo_scenario):
        records = SingleEngine(demo_scenario).run(demo_scenario.stages)
        report = audit_trace(records, demo_scenario)
        stable = set(report["stable_markers"])
        assert stable  # the run settles well before its final quarter
        for row in report["coding_table"]:
            if row["index"] in stable:
                assert row["match"]


class TestTraceSerialization:
    def test_round_trip(self, demo_scenario):
        records = SingleEngine(demo_scenario).run(demo_scenario.stages)
        text = trace_to_jsonl(records)
        assert trace_from_jsonl(text) == records
        assert trace_to_jsonl(trace_from_jsonl(text)) == text

    def test_frozen_traces_replay_identically(self, data_dir, dual_scripted):
        frozen = (data_dir / "dual_scripted_trace.jsonl").read_text()
        records = DualEngine(dual_scripted).run(8)
        assert trace_to_jsonl(records) == frozen
