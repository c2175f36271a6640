"""Stage-by-stage engine behaviour on the hand-worked scripted scenarios.

Every assertion here was derived by hand from the construction rules before
the engine ran, so these serve as the independent oracle for the reference
traces bundled under tests/data.
"""

import math

import pytest

from ceforge import (
    DualEngine,
    LemmaViolation,
    SingleEngine,
    gen_scenario,
    trace_to_jsonl,
)
from ceforge.bitcore import Dyadic
from ceforge.engine import _ZeroTracker

from oracles import k_at_n, machine_k_at


@pytest.fixture(scope="module")
def single_run(single_scripted):
    engine = SingleEngine(single_scripted)
    records = engine.run(6)
    return engine, records[1:]


@pytest.fixture(scope="module")
def dual_run(dual_scripted):
    engine = DualEngine(dual_scripted)
    records = engine.run(8)
    return engine, records[1:]


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
        _, stages = single_run
        act = stages[2]
        assert act["action"] == "act"
        assert act["clauses"] == {"a": False, "b": True}
        assert act["b_added"] == 1
        assert act["markers"]["0"]["pos"] == 5
        (enum,) = act["n_entries"]
        assert (enum["n"], enum["length"]) == (2, 7)

    def test_stage_four_places_second_marker(self, single_run):
        # deficiency cursor z = 2 and marker 1 is undefined with 1 < z
        _, stages = single_run
        place = stages[3]
        assert place["action"] == "place"
        assert place["placed"] == [1, 6]
        assert place["z"] == {"a": 2}
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
        assert engine.markers[0].frozen
        assert engine.markers[0].t["a"] == 3
        assert engine.markers[0].q["a"] == Dyadic.pow2_neg(7)


class TestDualScripted:
    def test_initial_counter_offset(self, dual_run):
        _, stages = dual_run
        assert stages[0]["markers"]["0"]["c"] == 4

    def test_stage_three_fires_both_sides(self, dual_run):
        # both sums reach q - p = 2^-8 via the stage-2 description
        _, stages = dual_run
        act = stages[2]
        assert act["clauses"] == {"a": False, "b": True, "c": True}
        sides = sorted((e["side"], e["n"], e["length"]) for e in act["n_entries"])
        assert sides == [("a", 2, 8), ("d", 2, 8)]
        assert act["markers"]["0"]["p_a"] == "0/2^0"
        assert act["markers"]["0"]["p_d"] == "0/2^0"

    def test_stage_four_places_when_below_both_cursors(self, dual_run):
        _, stages = dual_run
        assert stages[3]["placed"] == [1, 6]
        assert stages[3]["z"] == {"a": 2, "d": 2}

    def test_stage_five_describes_only_defined_side(self, dual_run):
        # the D-change kills every D-segment description, so z_d is gone
        # while the A-side deficiency at 2 gets repaired
        _, stages = dual_run
        desc = stages[4]
        assert desc["action"] == "describe"
        assert desc["z"] == {"a": 2, "d": None}
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
                q = marker.q[side]
                if q is not None:
                    assert marker.p[side] <= q
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


class _Naive:
    """Turns off the engine's three shortcuts: the quiet-phase replay, the
    past-max-key skip and the ``_compute_t`` stamp cache."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self._quiet_after = math.inf
        self._max_key_bound = math.inf

    def step(self):
        for marker in self.markers:
            for side in marker._t_stamp:
                marker._t_stamp[side] = -1
        return super().step()

    def _compute_t(self, marker, side, s_old):
        # A second, independent cache miss: a change to the cache condition
        # that ignores the stamp must not turn this engine's cache back on.
        self.zero.changed_at_stage = True
        super()._compute_t(marker, side, s_old)


class _NaiveSingle(_Naive, SingleEngine):
    pass


class _NaiveDual(_Naive, DualEngine):
    pass


def _thresholds(engine):
    return [(marker.t, marker.q) for marker in engine.markers]


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize(
    "fast_cls, naive_cls",
    [(SingleEngine, _NaiveSingle), (DualEngine, _NaiveDual)],
    ids=["single", "dual"],
)
def test_shortcuts_match_naive_path(fast_cls, naive_cls, seed):
    """Same JSONL record at every stage; up to the quiet point, where the
    fast engine stops computing, also the same thresholds t and q."""
    stages = 1_500
    scenario = gen_scenario(seed)
    fast, naive = fast_cls(scenario), naive_cls(scenario)
    assert trace_to_jsonl(fast.run(1)) == trace_to_jsonl(naive.run(1))
    for stage in range(2, stages + 1):
        record = trace_to_jsonl([fast.step()])
        assert record == trace_to_jsonl([naive.step()]), stage
        if stage <= fast._quiet_after:
            assert _thresholds(fast) == _thresholds(naive), stage
    # The horizon reaches past the quiet point, and some marker sits where
    # the past-max-key skip applies, so both shortcuts are exercised.
    assert fast._quiet_after < stages - 1
    assert any(
        m.position is not None and m.position > fast._max_key_bound
        for m in fast.markers
    )


class TestAgainstOracles:
    def test_zero_tracker_matches_naive_scan(self):
        scenario = gen_scenario(4)
        schedule = scenario.schedule
        tracker = _ZeroTracker(schedule.events)
        lengths = range(max(len(e.output) for e in schedule.events) + 2)
        last = max(e.stage for e in schedule.events)
        checkpoints = set(range(1, last + 2, 97)) | {last, last + 1}
        for stage in range(1, last + 2):
            tracker.apply(stage)
            if stage in checkpoints:
                for n in lengths:
                    assert tracker.k_of(n) == k_at_n(schedule, n, stage), (
                        stage, n,
                    )

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
