"""Independent trace replay and the bound checks it performs."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ceforge.approx import (
    CESetApprox,
    GenParams,
    Scenario,
    ScheduleEvent,
    UniversalSchedule,
    gen_scenario,
)
from ceforge.audit import (
    UsageLedger,
    _Replay,
    _reused,
    audit_trace,
    check_markers,
    report_to_json,
    trace_from_jsonl,
    trace_to_jsonl,
)
from ceforge.engine import DualEngine, SingleEngine

from conftest import (
    CAUSED_REUSES,
    DATA,
    EMPTY,
    ONE_EVENT,
    assert_same_lines,
    generated,
    load_jsonl,
)


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
        assert ledger.record_use("0000", stage=1, cause=0) == 1
        assert ledger.containers() == {0: {"0000"}}
        assert ledger.record_use("0000", stage=2, cause=0) == 2
        assert ledger.record_use("0001", stage=2, cause=1) == 1
        assert ledger.containers() == {0: {"0000", "0001"}, 1: {"0000"}}
        assert ledger.uses == {"0000": 2, "0001": 1}

    def test_is_active_tracks_given_set(self, tiny_scenario):
        ledger = UsageLedger(tiny_scenario, "a")
        # output "00" matches A|2 until element 1 arrives at stage 3
        assert ledger.is_active("0000", 2)
        assert not ledger.is_active("0000", 3)

    def test_empty_side_sees_constant_zero_string(self, tiny_scenario):
        ledger = UsageLedger(tiny_scenario, "d")
        assert ledger.is_active("0001", 9)

    def test_reuses_filed_by_cause_as_they_arrive(self, tiny_scenario):
        # A first use is no reuse, even with a cause, and a reuse with no
        # cause is filed nowhere.  "0000" is first used before "0001" but
        # reused after it, so marker 0's reuses follow the stage order of
        # the reuses, not of the first uses.
        ledger = UsageLedger(tiny_scenario, "a")
        ledger.record_use("0000", stage=1, cause=2)
        ledger.record_use("0001", stage=1, cause=None)
        ledger.record_use("0001", stage=2, cause=0)
        ledger.record_use("0000", stage=3, cause=None)
        ledger.record_use("0000", stage=4, cause=0)
        ledger.record_use("0001", stage=4, cause=1)
        assert ledger.reuses == {
            0: [(2, "0001"), (4, "0000")],
            1: [(4, "0001")],
        }
        for reuses in ledger.reuses.values():
            for start in range(1, 6):
                for end in range(start - 1, 6):
                    assert _reused(reuses, start, end) == {
                        codeword
                        for stage, codeword in reuses
                        if start <= stage <= end
                    }, (reuses, start, end)


class TestReplay:
    def test_requires_header(self, single_scripted):
        with pytest.raises(ValueError):
            _Replay.from_records([{"stage": 1}], single_scripted)

    def test_marker_timeline_lookup(self, data_dir, single_scripted):
        records = load_jsonl(data_dir / "single_scripted_trace.jsonl")
        replay = _Replay.from_records(records, single_scripted)
        assert replay.marker_at(0, 0) is None  # records start at stage 1
        assert replay.marker_at(0, 2)["pos"] == 1
        assert replay.marker_at(0, 3)["pos"] == 5
        assert replay.marker_at(1, 2) is None
        assert replay.marker_at(1, 5)["pos"] is None  # just injured
        assert replay.marker_at(1, 6)["pos"] == 7

    def test_b_restrict(self, data_dir, single_scripted):
        records = load_jsonl(data_dir / "single_scripted_trace.jsonl")
        replay = _Replay.from_records(records, single_scripted)
        assert oracles.b_restrict(replay, 6, 2) == "000000"
        assert oracles.b_restrict(replay, 6, 3) == "010000"
        assert oracles.b_restrict(replay, 6, 6) == "010001"

    def test_repeat_record_stands_for_its_stages(
        self, data_dir, dual_scripted
    ):
        # The dual fixture's last record, an empty no-op at stage 8, folded
        # over a horizon raised to 9.
        records = load_jsonl(data_dir / "dual_scripted_trace.jsonl")
        records[0]["stages"] = 9
        records[-1]["repeat"] = 2
        assert _Replay.from_records(records, dual_scripted).final_stage == 9
        expanded = oracles.expand_repeats(records)
        assert [r["stage"] for r in expanded[-2:]] == [8, 9]
        assert report_to_json(audit_trace(records, dual_scripted)) == (
            report_to_json(audit_trace(expanded, dual_scripted))
        )


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
        _assert_report_matches_the_walks(records, single_scripted)
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
        replay = _Replay.from_records(records, demo_scenario)
        assert [row["index"] for row in report["coding_table"]] == sorted(
            replay.timelines
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


#: Scenarios whose traces ``trace_to_jsonl`` must write as the standard
#: library's encoder does: sweep seeds 0-3, the dense-x4 seed, the small
#: shape, the caused-reuses scenario, both scripted fixtures, and index 0
#: halting at stage 0 with no events.
_WRITER_SCENARIOS = {
    "sweep-0": lambda: generated(0),
    "sweep-1": lambda: generated(1),
    "sweep-2": lambda: generated(2),
    "sweep-3": lambda: generated(3),
    "dense-x4-1": lambda: generated(1, dense=True),
    "small-0": lambda: gen_scenario(
        0, GenParams(stages=1_000, events=60, active_stages=300)
    ),
    "caused-reuses": lambda: gen_scenario(9898, CAUSED_REUSES),
    "single-scripted": lambda: Scenario.from_json(
        (DATA / "single_scripted.json").read_text()
    ),
    "dual-scripted": lambda: Scenario.from_json(
        (DATA / "dual_scripted.json").read_text()
    ),
    "halt-0": lambda: Scenario.from_json(
        '{"universal_events":[],"set_a":[],"set_d":[],'
        '"halting":[[0,0]],"stages":20}'
    ),
}


@pytest.mark.parametrize("name", list(_WRITER_SCENARIOS))
@pytest.mark.parametrize(
    "engine_cls", [SingleEngine, DualEngine], ids=["single", "dual"]
)
def test_writer_matches_stdlib_encoder(engine_cls, name):
    """The trace is written as the standard library's encoder writes it,
    and decodes to the engine's records, so ``audit`` of a written trace
    reads what ``run`` audited."""
    scenario = _WRITER_SCENARIOS[name]()
    records = engine_cls(scenario).run(scenario.stages)
    text = trace_to_jsonl(records)
    assert_same_lines(text, oracles.jsonl_stdlib(records))
    assert trace_from_jsonl(text) == records


#: JSON values a trace line may hold, record or not.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
#: Padding around a line's value: JSON whitespace, and characters that
#: ``str.strip`` removes but JSON does not allow.
_PADDING = st.sampled_from(["", " ", "\t", " \t ", "\xa0", "\u3000"])
#: Lines that the C scanner does not read to the end, or that raise; a
#: value split across two lines, which the scanner reads past its first
#: line's end; and a string holding a raw ``\r``, which splits its line.
_AWKWARD_LINES = [
    "", " ", "\t", "\xa0", "\ufeff{}", "\ufeff", "NaN", "-Infinity",
    "{} {}", "1 2", '{"a": 1}x', "{", "]", '"\\x"', "1" * 5000,
    "[" * 100_000 + "]" * 100_000, '{"a":\n1}', '"a\rb"',
]
#: Every line break ``str.splitlines`` knows.
_NEWLINES = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029",
]
_LINES = st.one_of(
    st.builds(
        lambda before, value, after: before + json.dumps(value) + after,
        _PADDING, _JSON_VALUES, _PADDING,
    ),
    st.sampled_from(_AWKWARD_LINES),
    st.text(max_size=6),
)


def _decoded(decode, text):
    """What ``decode`` makes of ``text``: the repr of its result (so NaN
    equals NaN, and 1 differs from 1.0 and True), or the type and message
    of what it raises."""
    try:
        return "ok", repr(decode(text))
    except Exception as exc:  # RecursionError is one
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    lines=st.lists(_LINES, max_size=6),
    newline=st.sampled_from(_NEWLINES),
    final=st.booleans(),
)
@example(lines=['{"a":\n1}'], newline="\n", final=True)
@example(lines=['{"a":', "1}"], newline="\u2028", final=False)
@example(lines=["{}", '"a\rb"', "{}"], newline="\n", final=True)
@example(lines=[" {}", "{} ", "", "  ", "{}"], newline="\n", final=True)
@example(lines=["\ufeff{}"], newline="\n", final=False)
@example(lines=["NaN", "[NaN, Infinity]"], newline="\n", final=True)
@example(lines=["{}", "{} {}"], newline="\n", final=False)
@example(lines=["1 2"], newline="\n", final=False)
@example(lines=["[" * 100_000 + "]" * 100_000], newline="\n", final=True)
def test_trace_decoder_matches_the_naive_decoder(lines, newline, final):
    text = newline.join(lines) + (newline if final else "")
    assert _decoded(trace_from_jsonl, text) == _decoded(
        oracles.trace_from_jsonl_naive, text
    )


def _ordering_entry(checks):
    """``(pass, witness)`` of the ``marker-monotone-indices`` check."""
    entry = next(c for c in checks if c["name"] == "marker-monotone-indices")
    return entry["pass"], entry["witness"]


def _assert_report_matches_the_walks(records, scenario):
    """The one-pass audit's report equals, byte for byte, the one the
    audit's former walks over the records and timelines build."""
    assert report_to_json(audit_trace(records, scenario)) == report_to_json(
        oracles.audit_trace_walks(records, scenario)
    )


@pytest.mark.parametrize("name", list(_WRITER_SCENARIOS))
@pytest.mark.parametrize(
    "engine_cls", [SingleEngine, DualEngine], ids=["single", "dual"]
)
def test_one_pass_report_matches_the_walks(engine_cls, name):
    scenario = _WRITER_SCENARIOS[name]()
    records = engine_cls(scenario).run(scenario.stages)
    _assert_report_matches_the_walks(records, scenario)


def _assert_indexes_match_oracles(records, scenario):
    """Every index the audit builds once equals the naive scan it replaced,
    and the same index of the trace with its ``repeat`` records written
    out; the n-entry lengths of each N-machine version are grouped under
    the versions ``oracles.restore_entries`` rebuilds.  The report equals
    the one the audit's former record walks build
    (``oracles.audit_trace_walks``), and the trace with its ``repeat``
    records written out audits to the same report.  No two adjacent
    records of the trace could be folded into one.  Each marker's
    timeline, with the snapshots and every c the audit derives, is the one
    the trace with what its acts imply put back
    (``oracles.restore_implied``) writes out."""
    _assert_report_matches_the_walks(records, scenario)
    unfolded = oracles.expand_repeats(records)
    assert report_to_json(audit_trace(records, scenario)) == report_to_json(
        audit_trace(unfolded, scenario)
    )
    assert not oracles.mergeable_pairs(records)
    replay = _Replay.from_records(records, scenario)
    expanded = _Replay.from_records(unfolded, scenario)
    for name in ("b_stage", "timelines", "injuries", "final_stage"):
        assert getattr(replay, name) == getattr(expanded, name), name
    assert {
        index: [(stage, {**snap, "c": c}) for stage, snap, c in timeline]
        for index, timeline in replay.timelines.items()
    } == oracles.walk_timelines(oracles.restore_implied(records)[1:])
    n_lengths = {}
    for record in oracles.restore_entries(records, scenario)[1:]:
        for entry in record["n_entries"]:
            key = entry["side"], entry["index"], entry["version"]
            n_lengths.setdefault(key, []).append(entry["length"])
    assert replay.n_lengths == n_lengths
    ledgers = replay.ledgers
    marker_checks = check_markers(replay, scenario)
    assert _ordering_entry(marker_checks) == oracles.monotone_indices(replay)
    assert next(
        c for c in marker_checks if c["name"] == "reuse-bounds"
    ) == oracles.reuse_bounds(replay, scenario)
    for index in set(replay.timelines) | set(replay.injuries):
        assert replay.injuries.get(index, []) == oracles.injury_stages(
            replay, index
        ), index
    final = replay.final_stage
    for side, ledger in ledgers.items():
        assert ledger.reuses == oracles.reuses(replay, scenario, side), side
        for index, reuses in ledger.reuses.items():
            cuts = [0] + replay.injuries.get(index, []) + [final + 1]
            # the uninjured intervals the check reads, and intervals that
            # start or end at each reuse
            intervals = [(lo + 1, hi - 1) for lo, hi in zip(cuts, cuts[1:])]
            for stage, _ in reuses:
                intervals += [(stage, stage), (1, stage - 1)]
                intervals.append((stage + 1, final))
            for start, end in intervals:
                assert _reused(reuses, start, end) == oracles.reused(
                    replay, scenario, side, index, start, end
                ), (index, side, start, end)
    width = max((len(e.output) for e in scenario.schedule.events), default=0)
    bits = bytearray(b"0" * width)
    for record in oracles.b_walk(replay, bits):
        if record["m_entries"] or record["b_added"] is not None:
            stage = record["stage"]
            assert bits.decode() == oracles.b_restrict(replay, width, stage)
    assert bits.decode() == oracles.b_restrict(replay, width, final)


@pytest.mark.parametrize("dense", [False, True], ids=["sweep", "dense"])
@pytest.mark.parametrize(
    "engine_cls", [SingleEngine, DualEngine], ids=["single", "dual"]
)
def test_indexes_match_oracles(engine_cls, dense):
    scenario = generated(1 if dense else 0, dense)
    records = engine_cls(scenario).run(scenario.stages)
    _assert_indexes_match_oracles(records, scenario)


def test_caused_reuses_match_oracles():
    scenario = gen_scenario(9898, CAUSED_REUSES)
    records = DualEngine(scenario).run(scenario.stages)
    ledgers = _Replay.from_records(records, scenario).ledgers
    assert any(ledger.reuses for ledger in ledgers.values())
    _assert_indexes_match_oracles(records, scenario)


@pytest.mark.parametrize("name", ["single", "dual"])
def test_scripted_fixtures_match_oracles(data_dir, name):
    scenario = Scenario.from_json(
        (data_dir / f"{name}_scripted.json").read_text()
    )
    records = load_jsonl(data_dir / f"{name}_scripted_trace.jsonl")
    _assert_indexes_match_oracles(records, scenario)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "engine_cls", [SingleEngine, DualEngine], ids=["single", "dual"]
)
def test_ordering_check_matches_full_scan(engine_cls, seed):
    """Sweep seed 0 and dense-x4 seed 1 are compared in
    ``test_indexes_match_oracles``."""
    scenario = generated(seed)
    records = engine_cls(scenario).run(scenario.stages)
    report = audit_trace(records, scenario)
    assert _ordering_entry(report["checks"]) == oracles.monotone_indices(
        _Replay.from_records(records, scenario)
    )


@pytest.mark.parametrize(
    "engine_cls, cases",
    [(SingleEngine, 200), (DualEngine, 60)],
    ids=["single", "dual"],
)
def test_ordering_check_matches_full_scan_when_corrupted(engine_cls, cases):
    """Seeded corruptions of a passing sweep trace, each setting 1-6
    snapshot positions to a random int (a snapshot's ``pos`` is never
    None), drawn up to one past the largest position or within 1 of the
    old one, audit to the same ordering verdict and witness as the full
    scan.  Most of them fail the check; some of those are repaired by a
    later record, so the witness is not always the first violation.  The
    replay is rebuilt from the corrupted records, as the pass that reads
    them decides the order.  A corruption that moves the marker an act's
    ``b_added`` names, or the markers placed above it, or that makes a
    place record move no marker or a no-op move one, makes the trace
    malformed: the pass must refuse it for that
    (``oracles.breaks_action_rules``), and it does not count among the
    ``cases`` compared."""
    scenario = generated(0)
    records = engine_cls(scenario).run(scenario.stages)
    snaps = [
        snap for record in records[1:] for snap in record["markers"].values()
    ]
    top = max(snap["pos"] for snap in snaps)
    rng = random.Random(cases)
    failed = audited = 0
    while audited < cases:
        picked = rng.sample(snaps, rng.randint(1, 6))
        saved = [snap["pos"] for snap in picked]
        for snap, old in zip(picked, saved):
            snap["pos"] = rng.choice([
                rng.randint(0, top + 1), rng.randint(max(old - 1, 0), old + 1)
            ])
        if oracles.breaks_action_rules(records):
            with pytest.raises(
                ValueError,
                match="is the position of no marker|injured .* is|"
                "does not match the record's snapshots",
            ):
                _Replay.from_records(records, scenario)
        else:
            replay = _Replay.from_records(records, scenario)
            got = _ordering_entry(check_markers(replay, scenario))
            assert got == oracles.monotone_indices(replay), saved
            failed += not got[0]
            audited += 1
        for snap, pos in zip(picked, saved):
            snap["pos"] = pos
    assert cases // 2 < failed < cases


class _CountingList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


#: Passes ``audit_trace`` makes over the stage records after the replay is
#: built: none, as ``_Replay.from_records`` builds every check's index.
AUDIT_PASSES = 0


def test_audit_passes_do_not_grow_with_markers(
    monkeypatch, data_dir, single_scripted
):
    """A check that rescans the records once per marker would make the
    pass count follow the marker count; it must stay fixed."""
    build = _Replay.from_records
    counted = []

    def counting(records, scenario):
        replay = build(records, scenario)
        replay.stages = _CountingList(replay.stages)
        counted.append(replay)
        return replay

    monkeypatch.setattr(_Replay, "from_records", staticmethod(counting))
    runs = [
        (load_jsonl(data_dir / "single_scripted_trace.jsonl"), single_scripted)
    ]
    sweep = generated(0)
    for engine_cls in (SingleEngine, DualEngine):
        runs.append((engine_cls(sweep).run(sweep.stages), sweep))
    for records, scenario in runs:
        audit_trace(records, scenario)
    markers = [len(replay.timelines) for replay in counted]
    assert min(markers[1:]) > 10 * markers[0], markers
    assert [replay.stages.passes for replay in counted] == [
        AUDIT_PASSES
    ] * len(runs)


@st.composite
def _small_params(draw):
    """Small ``GenParams`` whose horizon leaves the run time to settle.

    The coverage check reads the final state, so it holds only once the
    engine has stopped placing markers and describing segments.  After the
    last scheduled change that takes about one stage per segment length
    and two per event; the horizon is twice that, or more.
    """
    active_stages = draw(st.integers(1, 100))
    events = draw(st.integers(0, 40))
    element_bound = draw(st.integers(2, 30))
    max_output = draw(st.integers(1, 60))
    longest = max(element_bound + 12, max_output)
    min_length = draw(st.integers(2, 6))
    return GenParams(
        stages=2 * (active_stages + longest + 2 * events)
        + draw(st.integers(0, 100)),
        events=events,
        active_stages=active_stages,
        set_size=draw(st.integers(0, 10)),
        element_bound=element_bound,
        halting_size=draw(st.integers(0, 6)),
        zero_budget_share=draw(st.floats(0.0, 0.85)),
        min_length=min_length,
        max_length=draw(st.integers(min_length, 12)),
        max_output=max_output,
    )


_SMALL = GenParams(
    stages=300, events=40, active_stages=150, set_size=8, element_bound=24,
    max_length=10,
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(seed=st.integers(0, 2**32 - 1), params=_small_params())
# A j that lost its description used to stay deficient, and the engine
# crashed describing it with an infinite length.
@example(seed=10, params=_SMALL)
@example(seed=42, params=_SMALL)
# The single engine used to start replaying no-op stages one stage before
# its exclusive cursor reached the longest segment, which it never described.
@example(seed=0, params=ONE_EVENT)
# The dual engine used to replay stage 1's no-op, marker snapshot and all,
# over the quiet tail.
@example(seed=0, params=EMPTY)
def test_small_scenarios_run_and_audit_clean(seed, params):
    scenario = gen_scenario(seed, params)
    for engine_cls in (SingleEngine, DualEngine):
        records = engine_cls(scenario).run(scenario.stages)
        report = audit_trace(records, scenario)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert report["pass"], (engine_cls.engine_name, failed)
        _assert_indexes_match_oracles(records, scenario)
