"""Stage-by-stage engine behaviour on the hand-worked scripted scenarios.

Every assertion here was derived by hand from the construction rules before
the engine ran, so these serve as the independent oracle for the reference
traces bundled under tests/data.
"""

import copy
import hashlib
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceforge import (
    DualEngine,
    LemmaViolation,
    PrefixFreeMachine,
    Scenario,
    SingleEngine,
    WeightOverflow,
    audit_trace,
    gen_scenario,
    report_to_json,
    trace_to_jsonl,
)
from ceforge.approx import CESetApprox, ScheduleEvent, UniversalSchedule
from ceforge.bitcore import Dyadic, INFINITE, ZERO
from ceforge.engine import _Schedule, _SideTracker, _Table, _fires

from conftest import EMPTY, ONE_EVENT, assert_same_lines, generated
import oracles
from oracles import (
    expand_repeats,
    fires_dyadic,
    k_at_n,
    least_unplaced,
    machine_k_at,
    restore_codewords,
    restore_entries,
    restore_implied,
    restore_justify,
    restore_restated,
    thresholds,
)


def recording(engine_cls):
    """``engine_cls`` made to keep what its trace does not write, from the
    calls that compute it: ``cursors`` maps each stage that read the
    deficiency cursors to each side's cursor, and ``n_of`` maps each stage
    to the segment length n of each of its n-entries, in entry order."""

    class Recording(engine_cls):
        def __init__(self, scenario):
            super().__init__(scenario)
            self.cursors, self.n_of = {}, {}
            for side, tracker in self.sides.items():
                tracker.deficiency_cursor = self._recorded(
                    side, tracker.deficiency_cursor
                )

        def _recorded(self, side, cursor):
            def read(*args):
                z = cursor(*args)
                # ``step`` advances ``stage`` once the record is made
                self.cursors.setdefault(self.stage + 1, {})[side] = z
                return z

            return read

        def _enumerate_n(self, marker, side, k, length, stage, record):
            self.n_of.setdefault(stage, []).append(k)
            super()._enumerate_n(marker, side, k, length, stage, record)

    return Recording


@pytest.fixture(scope="module")
def single_run(single_scripted):
    engine = recording(SingleEngine)(single_scripted)
    records = restore_entries(restore_implied(engine.run(6)), single_scripted)
    return engine, restore_restated(records)[1:]


@pytest.fixture(scope="module")
def dual_run(dual_scripted):
    engine = recording(DualEngine)(dual_scripted)
    records = restore_entries(restore_implied(engine.run(8)), dual_scripted)
    return engine, restore_restated(records)[1:]


class TestSingleScripted:
    def test_initial_marker_on_one(self, single_run):
        _, stages = single_run
        assert stages[0]["markers"]["0"] == {
            "pos": 1, "c": 3, "frozen": False,
        }

    def test_stages_one_and_two_idle(self, single_run):
        # K(2) and K(A|3) are described but no threshold is reachable yet
        _, stages = single_run
        assert [s["action"] for s in stages[:2]] == ["noop", "noop"]

    def test_stage_three_moves_on_clause_b(self, single_run):
        # t_0 = 2, q_0 = 2^-(4+3); the stage-2 description of A|3 gives
        # sum 2^-4 >= 2^-7, so the marker moves and 1 enters B
        engine, stages = single_run
        act = stages[2]
        assert act["action"] == "act"
        assert act["clauses"] == {"a": False, "b": True}
        assert act["b_added"] == 1
        assert act["markers"]["0"]["pos"] == 5
        (enum,) = act["n_entries"]
        (n,) = engine.n_of[act["stage"]]
        assert (n, enum["length"]) == (2, 7)

    def test_stage_four_places_second_marker(self, single_run):
        # deficiency cursor z = 2 and marker 1 is undefined with 1 < z
        engine, stages = single_run
        place = stages[3]
        assert place["action"] == "place"
        assert place["placed"] == [1, 6]
        assert engine.cursors[place["stage"]] == {"a": 2}
        # one prior move below index 1 bumps its counter to 3 + 1 + 1
        assert place["markers"]["1"]["c"] == 5

    def test_stage_five_freezes_on_halting_entry(self, single_run):
        _, stages = single_run
        act = stages[4]
        assert act["action"] == "act"
        assert act["clauses"] == {"a": True, "b": False}
        assert act["frozen"] is True
        assert act["b_added"] == 5
        assert act["markers"]["0"]["pos"] == 5  # coding position kept
        assert act["injured"] == [1]
        assert act["markers"]["1"] == {"pos": None, "c": 6, "frozen": False}

    def test_stage_six_replaces_injured_marker(self, single_run):
        _, stages = single_run
        assert stages[5]["placed"] == [1, 7]

    def test_final_state(self, single_run):
        engine, _ = single_run
        assert sorted(engine.b_stage) == [1, 5]
        assert engine.markers[0].position in engine.b_stage  # frozen
        assert engine.markers[0].t["a"] == 3
        q, _ = thresholds(engine, engine.markers[0], "a")
        assert q == Dyadic.pow2_neg(7)


class TestDualScripted:
    def test_initial_counter_offset(self, dual_run):
        _, stages = dual_run
        assert stages[0]["markers"]["0"]["c"] == 4

    def test_stage_three_fires_both_sides(self, dual_run):
        # both sums reach q - p = 2^-8 via the stage-2 description
        engine, stages = dual_run
        act = stages[2]
        assert act["clauses"] == {"a": False, "b": True, "c": True}
        sides = sorted(
            (e["side"], n, e["length"])
            for e, n in zip(
                act["n_entries"], engine.n_of[act["stage"]], strict=True
            )
        )
        assert sides == [("a", 2, 8), ("d", 2, 8)]
        assert act["markers"]["0"]["p_a"] == "0/2^0"
        assert act["markers"]["0"]["p_d"] == "0/2^0"

    def test_stage_four_places_when_below_both_cursors(self, dual_run):
        engine, stages = dual_run
        assert stages[3]["placed"] == [1, 6]
        assert engine.cursors[stages[3]["stage"]] == {"a": 2, "d": 2}

    def test_stage_five_describes_only_defined_side(self, dual_run):
        # the D-change kills every D-segment description, so z_d is gone
        # while the A-side deficiency at 2 gets repaired
        engine, stages = dual_run
        desc = stages[4]
        assert desc["action"] == "describe"
        assert engine.cursors[desc["stage"]] == {"a": 2, "d": None}
        (entry,) = desc["m_entries"]
        assert (entry["side"], entry["n"], entry["length"]) == ("a", 2, 4)

    def test_stage_seven_freeze_and_injury(self, dual_run):
        _, stages = dual_run
        act = stages[6]
        assert act["clauses"] == {"a": True, "b": False, "c": False}
        assert act["frozen"] is True
        assert act["markers"]["1"]["pos"] is None
        assert act["markers"]["1"]["c"] == 7

    def test_deficits_stay_within_thresholds(self, dual_run):
        engine, _ = dual_run
        for marker in engine.markers:
            if marker.position is None:
                continue
            for side in ("a", "d"):
                pair = thresholds(engine, marker, side)
                if pair is not None:
                    q, p = pair
                    assert p <= q
                    assert q <= Dyadic.pow2_neg(marker.c)


class TestEngineProperties:
    def test_run_requires_positive_stages(self):
        with pytest.raises(ValueError):
            SingleEngine(gen_scenario(3)).run(0)

    def test_header_record(self):
        records = SingleEngine(gen_scenario(3)).run(5)
        assert records[0]["type"] == "header"
        assert records[0]["engine"] == "single"
        assert records[0]["c_offset"] == 3

    def test_abandoned_positions_enter_b(self):
        engine = SingleEngine(gen_scenario(17))
        records = engine.run(3_000)
        moved = {
            record["b_added"]
            for record in records[1:]
            if record["action"] == "act"
        }
        assert moved <= set(engine.b_stage)

    def test_marker_positions_strictly_increase_in_index(self):
        engine = DualEngine(gen_scenario(17))
        engine.run(3_000)
        defined = [m.position for m in engine.markers if m.position is not None]
        assert defined == sorted(defined)
        assert len(set(defined)) == len(defined)

    def test_lemma_violation_is_raising_type(self):
        assert issubclass(LemmaViolation, RuntimeError)

    def test_weight_overflow_is_a_lemma_violation(self):
        assert issubclass(WeightOverflow, LemmaViolation)

    @pytest.mark.parametrize(
        "engine_cls", [SingleEngine, DualEngine], ids=["single", "dual"]
    )
    def test_engine_raises_the_machines_overflow(
        self, monkeypatch, single_scripted, engine_cls
    ):
        """A machine that describes at length 0 reaches weight 1 with its
        first entry; the run raises the machine's own WeightOverflow, with
        no second exception wrapped around it."""
        describe = PrefixFreeMachine.describe
        monkeypatch.setattr(
            PrefixFreeMachine,
            "describe",
            lambda self, output, length, stage: describe(
                self, output, 0, stage
            ),
        )
        engine = engine_cls(single_scripted)
        with pytest.raises(WeightOverflow) as caught:
            engine.run(single_scripted.stages)
        assert type(caught.value) is WeightOverflow
        assert str(caught.value).endswith(" v0: weight would reach 1/2^0")


class _Naive:
    """Turns off the engine's shortcuts: the jump of the stage clock and
    its stamps applied without a step, the tables applied only at their
    stamps, the candidate filter (frozen markers, and markers above every
    described segment whose index has not entered the halting set) with
    its halting join, the dirty set and the t index, so that every stage is
    stepped, the schedule is folded and every table is applied at every
    stage, the attention walk, the zero-drop repair and ``_mark_from`` walk
    every placed marker, and every placed marker's t is recomputed from
    scratch."""

    def __init__(self, scenario):
        super().__init__(scenario)
        # Marker 0 was placed under the real rule.
        self._candidates = oracles.candidates(self)

    def _next_stop(self):
        # Step every stage; ``run`` still folds what it steps.
        return self.stage + 1, False

    def _apply(self, stage):
        improved = self.schedule.apply(stage)
        for tracker in self.sides.values():
            tracker.apply(stage, improved)
        return self.zero.apply(stage, improved)

    def _can_act(self, marker, stage):
        return True

    def _attention(self, marker, s_old, stage):
        # A position in B needs no attention: this is the rule the
        # candidate filter's frozen exclusion stands for.
        if marker.position in self.b_stage:
            return False, {side: False for side in self.side_names}, {}
        return super()._attention(marker, s_old, stage)

    def _pairs_above(self, lowest):
        return oracles.pairs_above(self, lowest)

    def _mark_from(self, lowest, sides):
        self._dirty.update(oracles.marked_from(self, lowest, sides))

    def step(self, applied=None):
        for marker in self.markers:
            if marker.position is None:
                continue
            for side in self.side_names:
                self._dirty.add((marker.index, side))
        return super().step(applied)


class _NaiveSingle(_Naive, SingleEngine):
    pass


class _NaiveDual(_Naive, DualEngine):
    pass


def _thresholds(engine):
    return [(marker.t, marker.p) for marker in engine.markers]


def _pin_indexes(engine):
    """Check each index lookup of ``engine`` against the walk it replaces,
    at every call: the pairs the zero-drop repair visits and the pairs
    ``_mark_from`` marks, and per side tracker the descriptions and dirty
    j after a set change (against the full recompute over the events the
    schedule has folded, those of the set change's stage included) and
    the j a change of B or X marks."""
    pairs_above, mark_from = engine._pairs_above, engine._mark_from
    fold, folded = engine.schedule.apply, SimpleNamespace(stage=0)

    def noted_fold(stage):
        folded.stage = stage
        return fold(stage)

    def checked_pairs_above(lowest):
        pairs = pairs_above(lowest)
        assert pairs == oracles.pairs_above(engine, lowest), lowest
        return pairs

    def checked_mark_from(lowest, sides):
        kept, engine._dirty = engine._dirty, set()
        mark_from(lowest, sides)
        assert engine._dirty == oracles.marked_from(engine, lowest, sides)
        engine._dirty |= kept

    engine._pairs_above = checked_pairs_above
    engine._mark_from = checked_mark_from
    engine.schedule.apply = noted_fold
    for tracker in engine.sides.values():
        _pin_tracker(engine, tracker, folded)


def _applied_events(engine, stage=None):
    """The scenario's events applied by the end of ``stage``, by default
    ``engine.stage``, each with its index in the schedule's events."""
    stage = engine.stage if stage is None else stage
    return [
        (index, e)
        for index, e in enumerate(engine.scenario.schedule.events)
        if e.stage <= stage
    ]


def _pin_tracker(engine, tracker, folded):
    recompute, mark_above = tracker._recompute_matches, tracker.mark_above

    def checked_recompute(position):
        old, dirty = dict(tracker.k_best), set(tracker._dirty)
        recompute(position)
        # Above ``position`` the recompute reads every folded event, those
        # of the set change's stage included; at or below it, X|j is as it
        # was, and the fold of the stage's events comes after.
        best, marked = oracles.recompute_matches(
            _applied_events(engine, folded.stage), tracker.x_str, old
        )
        kept, _ = oracles.recompute_matches(
            _applied_events(engine, folded.stage - 1), tracker.x_str, old
        )
        assert tracker.k_best == {
            **{j: d for j, d in kept.items() if j <= position},
            **{j: d for j, d in best.items() if j > position},
        }
        assert tracker._dirty == dirty | {j for j in marked if j > position}
        # What is left unmarked keeps its description.
        assert all(old.get(j) == kept.get(j) for j in marked if j <= position)

    def checked_mark_above(position):
        dirty = set(tracker._dirty)
        mark_above(position)
        above = {j for j in tracker.k_best if j > position}
        assert tracker._dirty == dirty | above

    tracker._recompute_matches = checked_recompute
    tracker.mark_above = checked_mark_above


def _check_indexes(engine):
    """The engine's marker indexes, K(0^n) table and side-tracker keys
    against scans of every placed marker and every applied event.  No set
    change is left for a later stage to read."""
    assert engine._candidates == oracles.candidates(engine)
    assert engine._t_sorted == oracles.t_sorted(engine)
    applied = _applied_events(engine)
    zeros = {}  # n -> the applied events whose output is 0^n
    for _, event in applied:
        if "1" not in event.output:
            zeros.setdefault(len(event.output), []).append(event)
    assert {n: best[0] for n, best in engine.zero.k_best.items()} == {
        n: k_at_n(SimpleNamespace(events=events), n, engine.stage)
        for n, events in zeros.items()
    }
    assert engine.zero._keys == sorted(zeros)
    for tracker in engine.sides.values():
        assert tracker.min_changed_pos is None
        best, _ = oracles.recompute_matches(applied, tracker.x_str, {})
        assert tracker.k_best == best
        assert tracker._keys == sorted(best)
        assert not oracles.stale_deficiency(tracker, engine.b_str)


def _fresh_floor(scenario, side_names):
    """The bound every fresh position exceeds besides its stage and the
    earlier positions: the longest codeword, the longest output, and one
    past every element of each side's given set."""
    events = scenario.schedule.events
    given = {"a": scenario.set_a, "d": scenario.set_d}
    return max(
        [len(e.codeword) for e in events]
        + [len(e.output) for e in events]
        + [el + 1 for side in side_names for el, _ in given[side].schedule],
        default=0,
    )


def _check_marker_invariants(engine, record, seen):
    """The invariants of ``BaseEngine`` after the stage of ``record``, a
    stage record with its implied and restated fields put back
    (``oracles.Implier``, ``oracles.Restater``),
    against what the records before it showed.  ``seen`` holds each
    index's last position (``pos``), every position (``positions``), the
    acting index of each act record (``acting``) and how many machines the
    engine had archived (``archived``), and gains ``record``.

    The placed markers are ``markers[:placed]``; every snapshot of a
    placed marker has c = c_offset + index + the act records by a lower
    index so far; every index an act injures was placed before it, and
    every machine the engine archives at the stage is one of such a
    marker; a position placed or moved to in ``record`` exceeds its stage,
    every earlier position and ``_fresh_floor``; and an act's m-entries lie
    strictly between its abandoned position and the previous stage."""
    assert engine.placed == least_unplaced(engine.markers)
    assert all(m.position is None for m in engine.markers[engine.placed :])
    placed = set()
    if record["action"] == "act":
        seen.acting.append(record["acting"])
        placed = {i for i, pos in seen.pos.items() if pos is not None}
    assert set(record["injured"]) <= placed, record
    archived = engine.archived[seen.archived :]
    seen.archived = len(engine.archived)
    assert {index for _, index, _ in archived} <= placed, record
    for key, snap in record["markers"].items():
        index = int(key)
        if snap["pos"] is not None:
            lower = sum(acting < index for acting in seen.acting)
            assert snap["c"] == engine.c_offset + index + lower, record
        seen.pos[index] = snap["pos"]
    fresh = None
    if record["action"] == "place":
        fresh = record["placed"][1]
    elif record["action"] == "act" and not record["frozen"]:
        fresh = record["markers"][str(record["acting"])]["pos"]
    if fresh is not None:
        floor = _fresh_floor(engine.scenario, engine.side_names)
        assert fresh > max(record["stage"], floor, *seen.positions), record
    seen.positions.update(
        snap["pos"]
        for snap in record["markers"].values()
        if snap["pos"] is not None
    )
    # An act describes B's old segments only strictly between the
    # abandoned position and the previous stage.
    events = engine.scenario.schedule.events
    for entry in record["m_entries"]:
        if entry["cause"] is not None:
            n = len(events[entry["justify"]].output)
            assert record["b_added"] < n < record["stage"] - 1


def _written(**fields):
    """A scenario written out here: no events and no schedules but
    ``fields``."""
    payload = {"universal_events": [], "set_a": [], "set_d": [], **fields}
    return Scenario.from_json(json.dumps(payload))


#: Lockstep scenarios by test id: two sweep seeds, the dense-x4 seed, two
#: tiny ones that settle at once, so the fold starts right past the quiet
#: point, and three written here:
#:
#: * "wide": given-set elements beyond every output and codeword length, so
#:   the first fresh position is one past A's width (single) or D's (dual);
#:   index 1 enters the halting set at stage 12, when its marker sits on
#:   a fresh position above every described segment;
#: * "halt-0", "halt-1": no events, so marker 0's position 1 lies above
#:   every described segment, and index 0 enters the halting set at stage
#:   0 or 1.  Marker 0 is a candidate from construction (stage 0) in the
#:   first, and joins only at stage 1 in the second;
#: * "keys": K(0^2) is 7 from stage 1, and from stage 2, A|4 = 0111 has a
#:   description of 6 bits.  Marker 0 on position 1 gets its threshold t
#:   = 2 at stage 3, when s_old reaches the key 2 of the K(0^n) table, and
#:   on the single engine its side-a sum reaches the 6-bit description at
#:   stage 5, when s_old reaches the key 4, a stage before the exclusive
#:   cursor could reach 4.  Between stamps, only the clock's key rules
#:   stop there;
#: * "late-zero": K(0^19) arrives at stage 3, but D changes below 19 at
#:   stage 4, so only the K(0^n) table keeps the key 19, and marker 0's t
#:   can change only at stage 20, long after the last stamp;
#: * "stamps": the events at stages 7 and 20 describe 11 and 111, which
#:   match no segment of A or D, so the clock applies them without a step.
#:   A gains 9 at stage 9 and D gains 8 at stage 13, above every described
#:   segment: the clock steps there on the inputs it applied, and the step
#:   is a bare no-op that extends the open run.  Index 5 enters the halting
#:   set at stage 12, a stamp the clock steps at;
#: * "element": A gains 1 at stage 2 and 0 at stage 10, so no output ever
#:   matches A and side a keeps no key.  Marker 0 gets t = 4 at stage 5,
#:   from K(0^4), and the first description of 00, at stage 6, is repaired
#:   into N_0 below t.  The element at stage 10 changes no K(X|j) but
#:   changes X|2, which N_0 describes: the clock must step there, and on
#:   the single engine t drops to 2.  From stage 12, 110 = A|3 is
#:   described, and a marker is placed above it.
LOCKSTEP = {
    "2": lambda: generated(2),
    "5": lambda: generated(5),
    "dense": lambda: generated(1, dense=True),
    "one": lambda: gen_scenario(0, ONE_EVENT),
    "empty": lambda: gen_scenario(0, EMPTY),
    "wide": lambda: _written(
        universal_events=[[1, "0000", "00"], [2, "0001", "000"]],
        set_a=[[20, 30]],
        set_d=[[30, 40]],
        halting=[[1, 12]],
        stages=60,
    ),
    "halt-0": lambda: _written(halting=[[0, 0]], stages=20),
    "halt-1": lambda: _written(halting=[[0, 1]], stages=20),
    "keys": lambda: _written(
        universal_events=[[1, "0000000", "00"], [2, "000001", "0111"]],
        set_a=[[1, 2], [2, 2], [3, 2]],
        halting=[],
        stages=30,
    ),
    "late-zero": lambda: _written(
        universal_events=[
            [3, "000000", "0" * 19], [4, "00000100", "000000010000"]
        ],
        set_a=[[7, 2]],
        set_d=[[2, 4]],
        halting=[],
        stages=30,
    ),
    "stamps": lambda: _written(
        universal_events=[
            [1, "0000000", "00"],
            [7, "0000001", "11"],
            [10, "00000100", "000"],
            [20, "0000101", "111"],
        ],
        set_a=[[9, 9]],
        set_d=[[8, 13]],
        halting=[[5, 12]],
        stages=30,
    ),
    "element": lambda: _written(
        universal_events=[
            [1, "0000000", "0000"],
            [1, "0000001", "00000000"],
            [6, "000001", "00"],
            [12, "00001", "110"],
        ],
        set_a=[[1, 2], [0, 10]],
        halting=[],
        stages=30,
    ),
}

#: The lockstep scenarios on which the clock applies some stamp without a
#: step.
ABSORBING = {"2", "5", "dense", "stamps"}


@pytest.mark.parametrize("name", list(LOCKSTEP))
@pytest.mark.parametrize(
    "fast_cls, naive_cls",
    [(SingleEngine, _NaiveSingle), (DualEngine, _NaiveDual)],
    ids=["single", "dual"],
)
def test_shortcuts_match_naive_path(fast_cls, naive_cls, name):
    """Stepping in lockstep: the same JSONL record at every stage, and the
    same thresholds t and deficits p up to the quiet point.  Every stage
    that the stage clock would skip after a bare no-op repeats that no-op's
    record but for ``stage``, and its thresholds; so does every stamp that
    it would apply without a step, which the fast engine does here as
    ``run`` does, while the naive engine steps it.  Run whole: the fast
    trace is the naive trace, which steps every stage and applies every
    tracker at every stage, byte for byte, folded and written out.  At
    every stage the marker invariants of ``BaseEngine`` hold against scans
    of the markers and the records, and every index lookup matches the
    walk it replaces."""
    scenario = LOCKSTEP[name]()
    stages = min(1_500, scenario.stages)
    quiet = oracles.quiet_after(scenario, fast_cls.cursor_inclusive)
    fast, naive = fast_cls(scenario), naive_cls(scenario)
    _pin_indexes(fast)
    _check_indexes(fast)
    records = fast.run(1)
    assert_same_lines(trace_to_jsonl(records), trace_to_jsonl(naive.run(1)))
    seen = SimpleNamespace(pos={}, positions=set(), acting=[], archived=0)
    imply, restate = oracles.Implier(records[0]), oracles.Restater()
    _check_marker_invariants(fast, restate(imply(records[-1])), seen)
    _check_indexes(fast)
    skipped = absorbed = 0  # the stages the clock would skip, and absorb
    jump = None  # the last bare no-op, while the clock would skip
    for stage in range(2, stages + 1):
        absorbs = False
        if jump is not None and stage == jump.to and jump.stamp_only:
            drops = fast._apply(stage)
            absorbs = fast._changes_nothing(drops)
            if absorbs:
                fast.stage = stage
                records.append({**jump.record, "stage": stage})
            else:
                records.append(fast.step(drops))
        else:
            records.append(fast.step())
        record = trace_to_jsonl(records[-1:])
        assert record == trace_to_jsonl([naive.step()]), stage
        if stage <= quiet:
            assert _thresholds(fast) == _thresholds(naive), stage
        if jump is not None and (stage < jump.to or absorbs):
            assert {**records[-1], "stage": jump.stage} == jump.record, stage
            assert _thresholds(fast) == jump.thresholds, stage
            if absorbs:
                jump.to, jump.stamp_only = fast._next_stop()
                absorbed += 1
            else:
                skipped += 1
        elif oracles.is_bare(records[-1]):
            to, stamp_only = fast._next_stop()
            jump = SimpleNamespace(
                to=to, stamp_only=stamp_only, stage=stage,
                record=records[-1],
                thresholds=copy.deepcopy(_thresholds(fast)),
            )
        else:
            jump = None
        _check_marker_invariants(
            fast, restate(imply(records[-1])), seen
        )
        _check_indexes(fast)
    # Some marker sits above every described segment, where it is a
    # candidate only once its index has entered the halting set, the
    # horizon reaches past the quiet point (the dense one is active
    # throughout), the clock skips some stage and, where a stamp changes
    # nothing, absorbs it, so every shortcut is exercised.
    assert any(
        m.position is not None and m.position > fast._max_key_bound
        for m in fast.markers
    )
    if name != "dense":
        assert quiet < stages - 1
    assert skipped
    assert absorbed or name not in ABSORBING
    folded = fast_cls(scenario).run(stages)
    stepped = naive_cls(scenario).run(stages)
    assert_same_lines(trace_to_jsonl(folded), trace_to_jsonl(stepped))
    assert_same_lines(
        trace_to_jsonl(expand_repeats(folded)),
        trace_to_jsonl(expand_repeats(stepped)),
    )


#: sha256 of the full-horizon JSONL traces as ``run`` writes them, and of
#: their audit reports, which were recorded before the audit built its
#: indexes in one pass.
FROZEN_TRACES = {
    (0, "single"): "85651dba8ba72016b9ad0e4a7c03b250381e09f7223acc35b38f1cabec4241a4",
    (0, "dual"): "1620cdfefd3cc9cc4f328356a902defcfad69f2bf2c55dedf0b534d061d90ad8",
    (2, "single"): "ca312b063076b5a102dafecc5c421bdae184394622e27cdd3e04f3cb04b2ed20",
    (2, "dual"): "4dc066b29ece5ce1d955f87177a2feeac4a2952ebfd5ba7c92e3d0db408dd444",
}
#: sha256 of the same traces with each m-entry's codeword spelled out in
#: its ``justify`` (``oracles.restore_justify``): the bytes ``run`` wrote
#: while m-entries still spelled their descriptions out.
JUSTIFIED_TRACES = {
    (0, "single"): "57a5f44ee94e271b03c1c145c95dc78498d5b0ab00e319ad43850de2a78106e6",
    (0, "dual"): "665ab7184fd3814f21b164fdae17f53ef226009542c9a17c83f041ad2369bade",
    (2, "single"): "4d42974334e0e75e307ac140d6d6f8eda2390e1d1f856daa0b5993b1db29843e",
    (2, "dual"): "0c6a481d830c0db41c5747b9c800cd30b6b529a8dfbc8cbadd97378bef77380f",
}
#: sha256 of those traces with what each act implies put back as well
#: (``oracles.restore_implied``): the bytes ``run`` wrote while the engine
#: still wrote the injured markers' snapshots, every c and every cause.
IMPLIED_TRACES = {
    (0, "single"): "6c16657aedfa5b0a43538eed12b7ea8add4a87c6a6485b13a67ebee53656ef7f",
    (0, "dual"): "f57c62161403ceb8fa29d6e1c45bc6e412132344ff582e7d542d9f6bee222348",
    (2, "single"): "b4276ff570a1c9bda540c7e1953103d99ceb5e998d6940abedbe403460ac0080",
    (2, "dual"): "3da0cdf979e797efe054eb595c60a45144ecd84e552c8e42a07f7c5234135554",
}
FROZEN_REPORTS = {
    (0, "single"): "ed9b0ea9c727a4e4ac6540ca3e8647b4a6ef8378f39818df46917e469acf4a7a",
    (0, "dual"): "eb2746415661ee81b7c84ed003db9a16813eded48ec07aae052ec81da8cbdd9e",
    (2, "single"): "d786009cb102a1c210cf4ae20f82317d8af78dfb849616beab1f03f655a35871",
    (2, "dual"): "60ce6dbbfb53e4118af088ecf414e256e4c1cbc6836d0d645a3527597db5d94b",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "seed, engine_cls",
    [
        (seed, cls)
        for seed in (0, 2)
        for cls in (SingleEngine, DualEngine)
    ],
    ids=lambda value: getattr(value, "engine_name", value),
)
def test_generated_traces_are_byte_frozen(seed, engine_cls):
    """Full-horizon traces of generated scenarios, quiet phase and all
    markers included, and their audit reports stay byte-identical."""
    scenario = generated(seed)
    records = engine_cls(scenario).run(scenario.stages)
    key = seed, engine_cls.engine_name
    assert _sha256(trace_to_jsonl(records)) == FROZEN_TRACES[key]
    report = report_to_json(audit_trace(records, scenario))
    assert _sha256(report) == FROZEN_REPORTS[key]


@pytest.mark.parametrize(
    "seed, engine_cls",
    [
        (seed, cls)
        for seed in (0, 2)
        for cls in (SingleEngine, DualEngine)
    ],
    ids=lambda value: getattr(value, "engine_name", value),
)
def test_traces_imply_what_they_no_longer_write(seed, engine_cls):
    """The same traces with each m-entry's codeword put back from the
    event its ``justify`` indexes (``oracles.restore_justify``) are, byte
    for byte, the traces the engine wrote while it spelled codewords out;
    with the injured markers' snapshots, every c and every cause put back
    as well, from ``b_added`` and the positions the records leave
    (``oracles.restore_implied``), they are the traces it wrote while it
    still wrote those."""
    scenario = generated(seed)
    records = engine_cls(scenario).run(scenario.stages)
    key = seed, engine_cls.engine_name
    justified = restore_justify(records, scenario)
    assert _sha256(trace_to_jsonl(justified)) == JUSTIFIED_TRACES[key]
    restored = trace_to_jsonl(restore_implied(justified))
    assert _sha256(restored) == IMPLIED_TRACES[key]


@pytest.mark.parametrize(
    "seed, dense",
    [(0, False), (1, False), (2, False), (3, False), (1, True)],
    ids=["sweep-0", "sweep-1", "sweep-2", "sweep-3", "dense-1"],
)
@pytest.mark.parametrize(
    "engine_cls", [SingleEngine, DualEngine], ids=["single", "dual"]
)
def test_no_op_runs_are_folded_maximally(engine_cls, seed, dense):
    """No two adjacent records of a written trace are bare no-ops, which
    ``run`` would have written as one.  Runs are
    folded before the quiet tail too, and the stage clock steps fewer
    stages than lie before the quiet point."""
    scenario = generated(seed, dense)
    engine = engine_cls(scenario)
    steps = 0
    step = engine.step

    def counted(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    engine.step = counted
    records = engine.run(scenario.stages)
    assert oracles.mergeable_pairs(records) == []
    assert any("repeat" in record for record in records[1:-1])
    assert steps < oracles.quiet_after(scenario, engine_cls.cursor_inclusive)


@pytest.mark.parametrize(
    "engine_cls", [SingleEngine, DualEngine], ids=["single", "dual"]
)
def test_clock_steps_no_stamp_it_could_absorb(engine_cls):
    """On dense-x4 seed 1, ``run`` steps no stage right after a bare no-op
    that it could have let join the run unstepped: a stage that is no
    halting stamp and no stop of a key or a deficient cursor, brings no
    given-set element, and leaves the described lengths ``k_best`` of
    every tracker as they were.  The K(0^n) table and the side trackers
    are read as the step before left them."""
    scenario = generated(1, dense=True)
    engine = engine_cls(scenario)
    trackers = (engine.zero, *engine.sides.values())
    reach = 1 if engine_cls.cursor_inclusive else 2
    given = {"a": scenario.set_a, "d": scenario.set_d}
    forced = {stamp for _, stamp in scenario.halting.schedule} | {
        stage
        for side in engine.side_names
        for _, stage in given[side].schedule
    }
    step = engine.step
    last = None  # what the last step left behind
    absorbable = []

    def checked(*args):
        nonlocal last
        record = step(*args)
        stage = record["stage"]
        best = [dict(tracker.k_best) for tracker in trackers]
        if (
            last is not None
            and last.bare
            and stage not in forced
            and stage - 1 not in last.keys
            and stage not in last.cursor_stops
            and best == last.best
        ):
            absorbable.append(stage)
        last = SimpleNamespace(
            bare=oracles.is_bare(record),
            best=best,
            keys={k for tracker in trackers for k in tracker._keys},
            cursor_stops={
                min(tracker._deficient) + reach
                for tracker in engine.sides.values()
                if tracker._deficient
            },
        )
        return record

    engine.step = checked
    engine.run(scenario.stages)
    assert absorbable == []


def test_schedule_is_folded_once_into_one_shared_index():
    """On dense-x4 seed 1 (dual), the K(0^n) table and both sides read one
    description index, and a run folds each schedule event into it once:
    the ``_least`` comparisons its ``apply`` makes, one per event of the
    stage it folds, number the events stamped within the horizon.  No
    table keeps the index's events, ``_least`` or ``_lengths``, and the
    K(0^n) table keeps nothing of a side's: no machine, no dirty and no
    deficient j."""
    scenario = generated(1, dense=True)
    engine = DualEngine(scenario)
    schedule = engine.schedule
    tables = (engine.zero, *engine.sides.values())
    assert all(table.schedule is schedule for table in tables)
    assert type(engine.zero) is _Table
    fold = schedule.apply
    folded = []

    def counted(stage):
        folded.append(stage)
        return fold(stage)

    schedule.apply = counted
    engine.run(scenario.stages)
    compared = sum(len(schedule._events_by_stage.get(s, [])) for s in folded)
    events = scenario.schedule.events
    assert compared == sum(e.stage <= scenario.stages for e in events) > 0
    assert len(folded) == len(set(folded))
    copies = {"_events_by_stage", "_least", "_lengths"}
    for table in tables:
        assert not copies & set(vars(table)), table
    assert not {"machine", "_dirty", "_deficient"} & set(vars(engine.zero))


@pytest.mark.parametrize("dense", [False, True], ids=["sweep", "dense"])
@pytest.mark.parametrize(
    "engine_cls", [SingleEngine, DualEngine], ids=["single", "dual"]
)
def test_entry_lengths_sum_to_machine_weights(engine_cls, dense):
    """The trace holds every machine weight: the sum of 2^-``length`` over
    a side's m-entries is the weight of that output machine, and the sum
    over the n-entries of one (side, index, version) is the weight of that
    N-machine version, live or archived.  Versions with no entry weigh 0.
    The trace writes no codeword, no m-entry ``length``, ``n`` or
    ``cause``, no n-entry ``version`` and no snapshot ``c``: each is what
    the trace fixes (``oracles.restore_entries``,
    ``oracles.restore_implied``), and each machine's codewords are what a
    fresh allocator hands out for its entries' lengths, in trace order
    (``oracles.restore_codewords``).  Grouped so, each machine's entries
    are those the engine's machine holds, in order: codeword, output
    length and stage, for each output machine and each N-machine version,
    live or archived; an n-entry's output length is the n the engine
    enumerated it at, which the trace does not write.  The header, stage
    records, snapshots and entries hold exactly the fields the audit
    reads, so a field it does not read cannot come back unseen."""
    scenario = generated(1 if dense else 0, dense)
    engine = recording(engine_cls)(scenario)
    records = engine.run(scenario.stages)
    stages = records[1:]
    deficits = {f"p_{side}" for side in engine.side_names}
    for part, items, fields in (
        ("header", records[:1], {"type", "engine", "stages", "c_offset"}),
        ("record", stages, {
            "stage", "action", "clauses", "b_added", "injured", "markers",
            "m_entries", "n_entries", "repeat",
        }),
        (
            "markers",
            [snap for record in stages for snap in record["markers"].values()],
            {"pos"} | (deficits if engine.use_deficits else set()),
        ),
        (
            "m_entries",
            [e for record in stages for e in record["m_entries"]],
            {"side", "justify"},
        ),
        (
            "n_entries",
            [e for record in stages for e in record["n_entries"]],
            {"side", "index", "length"},
        ),
    ):
        assert {key for item in items for key in item} == fields, part
    m_sums = {side: ZERO for side in engine.side_names}
    n_sums = {}
    entries = {}
    restored = restore_codewords(restore_entries(records, scenario))
    for record in restored[1:]:
        for entry in record["m_entries"]:
            side = entry["side"]
            m_sums[side] += Dyadic.pow2_neg(entry["length"])
            entries.setdefault(side, []).append(
                (entry["codeword"], entry["n"], record["stage"])
            )
        enumerated = engine.n_of.get(record["stage"], [])
        for entry, n in zip(record["n_entries"], enumerated, strict=True):
            key = entry["side"], entry["index"], entry["version"]
            n_sums[key] = n_sums.get(key, ZERO) + Dyadic.pow2_neg(
                entry["length"]
            )
            entries.setdefault(key, []).append(
                (entry["codeword"], n, record["stage"])
            )
    assert all(m_sums.values()) and n_sums
    for side, tracker in engine.sides.items():
        assert tracker.machine.weight == m_sums[side], side
    machines = {
        (side, index, machine.version): machine
        for side, index, machine in engine.archived
    }
    for marker in engine.markers:
        for side, machine in marker.machines.items():
            machines[side, marker.index, machine.version] = machine
    assert len(machines) == len(engine.archived) + sum(
        len(marker.machines) for marker in engine.markers
    )
    for key, machine in machines.items():
        assert machine.weight == n_sums.get(key, ZERO), key
    assert set(n_sums) <= set(machines)
    for side, tracker in engine.sides.items():
        machines[side] = tracker.machine
    assert entries == {
        key: [
            (entry.codeword, len(entry.output), entry.stage)
            for entry in machine.entries
        ]
        for key, machine in machines.items()
        if machine.entries
    }


class TestAgainstOracles:
    def test_zero_tracker_matches_naive_scan(self):
        """The engine's K(0^n) table against the schedule scan, and the
        drops ``apply`` returns against the n where the scan fell: an
        event stamped at a stage is the only way K(0^n) can change there,
        so the n of that stage's events are the ones to compare."""
        scenario = gen_scenario(4)
        schedule = scenario.schedule
        engine = SingleEngine(scenario)
        table = engine.zero
        lengths = range(max(len(e.output) for e in schedule.events) + 2)
        last = max(e.stage for e in schedule.events)
        checkpoints = set(range(1, last + 2, 97)) | {last, last + 1}
        dropped = 0
        for stage in range(1, last + 2):
            drops = table.apply(stage, engine.schedule.apply(stage))
            stamped = {
                len(e.output) for e in schedule.events if e.stage == stage
            }
            fell = {}
            for n in stamped:
                now = k_at_n(schedule, n, stage)
                if now < k_at_n(schedule, n, stage - 1):
                    fell[n] = now
            assert drops == fell, stage
            dropped += len(drops)
            if stage in checkpoints:
                for n in lengths:
                    best = table.k_best.get(n)
                    k = INFINITE if best is None else best[0]
                    assert k == k_at_n(schedule, n, stage), (stage, n)
        assert dropped > 0

    def test_side_tracker_keeps_least_description_per_output(self):
        """A scripted tracker: X gains element 1 at stage 4, which turns
        X|2 from 00 into 01 and leaves X|3 = 010 with no description.
        (a) The shorter description of 01, kept while 01 does not match X,
        becomes ``k_best[2]`` at the change; (b) a later description of
        equal length replaces neither the matching output's nor the other
        one's; (c) the change deletes ``k_best[3]`` and marks 3 dirty."""
        events = [
            ScheduleEvent(1, "000000", "00"),
            ScheduleEvent(1, "000001", "01"),
            ScheduleEvent(1, "000010", "000"),
            ScheduleEvent(2, "00010", "01"),
            ScheduleEvent(2, "00011", "00"),
            ScheduleEvent(3, "00100", "00"),
            ScheduleEvent(3, "00101", "01"),
        ]
        UniversalSchedule(events)  # a valid schedule: prefix-free, < 1/4
        schedule = _Schedule(events)
        tracker = _SideTracker("a", CESetApprox([(1, 4)]), schedule)

        def apply(stage):
            return tracker.apply(stage, schedule.apply(stage))

        assert apply(1) == {2: 6, 3: 6}
        assert apply(2) == {2: 5}
        assert apply(3) == {}
        # descriptions are (length, stage, index): 4 is "00011", 2 "000010"
        assert tracker.k_best == {2: (5, 2, 4), 3: (6, 1, 2)}
        tracker._dirty.clear()
        assert apply(4) == {}
        assert tracker.min_changed_pos == 1
        assert tracker.k_best == {2: (5, 2, 3)}  # "00010"
        assert tracker._keys == [2]
        assert tracker._dirty == {2, 3}

    def test_element_and_improving_event_share_a_stage(self):
        """X gains element 1 at stage 2, which turns X|2 from 00 into 01,
        and stage 2 also brings a shorter description of 01 and the first
        one of 010, now X|3, of a length not applied before.  The schedule
        is folded before the set change, so the recompute already reads
        both; the table ends as if they came after it.  ``k_best[2]`` is
        the shorter description, each length is one key, both are dirty,
        and the drops are those of the events that match the new X."""
        events = [
            ScheduleEvent(1, "000000", "00"),
            ScheduleEvent(1, "000001", "01"),
            ScheduleEvent(2, "00010", "01"),
            ScheduleEvent(2, "000011", "010"),
        ]
        UniversalSchedule(events)  # a valid schedule: prefix-free, < 1/4
        schedule = _Schedule(events)
        tracker = _SideTracker("a", CESetApprox([(1, 2)]), schedule)
        assert tracker.apply(1, schedule.apply(1)) == {2: 6}
        assert tracker._keys == [2]
        tracker._dirty.clear()
        assert tracker.apply(2, schedule.apply(2)) == {2: 5, 3: 6}
        assert tracker.min_changed_pos == 1
        # descriptions are (length, stage, index): 2 is "00010", 3 "000011"
        assert tracker.k_best == {2: (5, 2, 2), 3: (6, 2, 3)}
        assert tracker._keys == [2, 3]
        assert tracker._dirty == {2, 3}

    @pytest.mark.parametrize("dense", [False, True], ids=["sweep", "dense"])
    def test_sum_range_matches_naive_sum(self, dense):
        """Every interval sum (lo, hi] of 2^-K(X|j), on both sides at
        checkpoints through the active phase, against a sum over
        ``k_best``."""
        scenario = generated(1 if dense else 0, dense)
        engine = DualEngine(scenario)
        top = engine._max_key_bound + 2
        last = max(e.stage for e in scenario.schedule.events)
        for checkpoint in (last // 4, last // 2, 3 * last // 4, last + 1):
            while engine.stage < checkpoint:
                engine.step()
            for tracker in engine.sides.values():
                assert tracker.k_best
                for lo in range(-1, top):
                    naive = 0
                    for hi in range(-1, top):
                        if hi > lo and hi in tracker.k_best:
                            naive += 1 << (
                                engine.schedule.sum_exp
                                - tracker.k_best[hi][0]
                            )
                        assert tracker.sum_range(lo, hi) == naive, (lo, hi)

    @pytest.mark.parametrize("engine_cls", [SingleEngine, DualEngine])
    def test_machine_k_of_is_minimum_over_entries(self, engine_cls):
        engine = engine_cls(gen_scenario(9))
        engine.run(1_500)
        machines = [tracker.machine for tracker in engine.sides.values()]
        machines += [m for _, _, m in engine.archived]
        machines += [
            m for marker in engine.markers for m in marker.machines.values()
        ]
        assert sum(len(m.entries) for m in machines) > 0
        for machine in machines:
            outputs = {entry.output for entry in machine.entries}
            for output in outputs | {"2"}:
                assert machine.k_of(output) == machine_k_at(machine, output)


@st.composite
def _fire_cases(draw):
    """(s, p, length, sum_exp), with s often within two units of q - p."""
    sum_exp = draw(st.integers(0, 40))
    length = draw(st.integers(0, 80))
    # q in units of 2^-sum_exp; 0 when q is below one unit
    q = 1 << (sum_exp - length) if length <= sum_exp else 0
    p = draw(st.integers(0, 2 * q + 4))
    near = max(0, q - p + draw(st.integers(-2, 2)))
    s = draw(st.one_of(st.just(near), st.integers(0, 2 * q + 4)))
    return s, p, length, sum_exp


class TestFireRule:
    """The engine's sum clause in ints against the same rule in dyadics."""

    @staticmethod
    def _dyadic(s, p, length, sum_exp):
        return fires_dyadic(
            Dyadic(s, sum_exp), Dyadic(p, sum_exp), Dyadic.pow2_neg(length)
        )

    # sum_exp 5 unless noted; q = 2^-3 is 4 units of 2^-5
    @pytest.mark.parametrize(
        "s, p, length, sum_exp, fires",
        [
            (0, 0, 3, 5, False),  # s = 0
            (0, 9, 3, 5, False),  # s = 0 with p > q
            (1, 9, 3, 5, True),  # p > q: the threshold floors at 0
            (1, 4, 3, 5, True),  # p = q
            (3, 1, 3, 5, True),  # s + p = q exactly
            (1, 3, 3, 5, True),  # s + p = q, mostly deficit
            (2, 1, 3, 5, False),  # one unit short
            (4, 0, 3, 5, True),  # s = q, no deficit
            (3, 0, 3, 5, False),
            (1, 0, 80, 5, True),  # large c: q far below one unit
            (2**50 - 7, 7, 20, 70, True),  # large scale, s + p = q
            (2**50 - 8, 7, 20, 70, False),
        ],
    )
    def test_edge_cases(self, s, p, length, sum_exp, fires):
        assert self._dyadic(s, p, length, sum_exp) is fires
        assert _fires(s, p, length, sum_exp) is fires

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(case=_fire_cases())
    def test_matches_dyadic_rule(self, case):
        assert _fires(*case) is self._dyadic(*case)
