"""Set/real approximations, the block encoder, and scenario generation."""

import random

import pytest

from ceforge.approx import (
    BlockOverflow,
    CERealApprox,
    CESetApprox,
    GenParams,
    Scenario,
    ScenarioError,
    ScheduleEvent,
    UniversalSchedule,
    block_range,
    decode_real,
    encode_real,
    gen_scenario,
)
from ceforge.bitcore import Dyadic, INFINITE

from oracles import k_at, k_at_n


class TestCESetApprox:
    def test_restrict(self):
        ce = CESetApprox([(1, 3), (4, 5)])
        assert ce.restrict(5, 2) == "00000"
        assert ce.restrict(5, 3) == "01000"
        assert ce.restrict(5, 9) == "01001"

    def test_duplicate_enumeration_rejected(self):
        ce = CESetApprox([(1, 3)])
        with pytest.raises(ScenarioError):
            ce.add(1, 7)


class TestCERealApprox:
    def test_carry_rule_enforced(self):
        # a bit may drop only when a more significant bit rises
        CERealApprox([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            CERealApprox([[0, 1], [0, 0]])

    def test_change_stages_count_initial_value(self):
        real = CERealApprox([[0, 1], [1, 0], [1, 1]])
        assert real.change_stages(0) == [1]
        assert real.change_stages(1) == [0, 1, 2]

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            CERealApprox([[2]])


class TestBlockEncoding:
    def test_block_range(self):
        assert block_range(0) == (0, 1)
        assert block_range(1) == (1, 3)
        assert block_range(3) == (7, 15)

    def test_constant_zero_encodes_to_empty(self):
        real = CERealApprox([[0, 0], [0, 0]])
        assert encode_real(real).schedule == []

    def test_single_flip_lands_at_block_top(self):
        real = CERealApprox([[0, 0], [0, 1]])
        encoded = encode_real(real)
        # bit 1's block is [1, 3); first change takes the largest element
        assert encoded.schedule == [(2, 1)]

    def test_overflow_detected(self):
        # bit 1 changing three times exceeds its two-element block
        vectors = [[0, 0], [0, 1], [1, 0], [1, 1]]
        real = CERealApprox(vectors)
        with pytest.raises(BlockOverflow):
            encode_real(real)

    def test_round_trip_identity_every_stage(self):
        rng = random.Random(11)
        width = 6
        for _ in range(40):
            value = 0
            stages = [value]
            # at most 2^(width-1) unit increments keeps every bit within
            # its block budget
            for _ in range(rng.randint(1, (1 << (width - 1)) - 1)):
                value += 1
                stages.append(value)
            vectors = [
                [(v >> (width - 1 - n)) & 1 for n in range(width)]
                for v in stages
            ]
            real = CERealApprox(vectors)
            encoded = encode_real(real)
            for stage in range(real.stages):
                assert decode_real(encoded, stage, width) == vectors[stage]


class TestUniversalSchedule:
    """The weight bound, and the naive K scans of ``oracles`` checked by
    hand before they check the engine."""

    def test_weight_bound_enforced(self):
        heavy = [
            ScheduleEvent(1, "00", "0"),
            ScheduleEvent(1, "01", "1"),
        ]
        with pytest.raises(ScenarioError):
            UniversalSchedule(heavy)

    def test_k_at_takes_minimum_in_time(self):
        sched = UniversalSchedule(
            [
                ScheduleEvent(1, "00000", "11"),
                ScheduleEvent(4, "0001", "11"),
            ]
        )
        assert k_at(sched, "11", 0) is INFINITE
        assert k_at(sched, "11", 1) == 5
        assert k_at(sched, "11", 4) == 4

    def test_k_at_n_uses_zero_string(self):
        sched = UniversalSchedule([ScheduleEvent(2, "0001", "000")])
        assert k_at_n(sched, 3, 2) == 4
        assert k_at_n(sched, 2, 2) is INFINITE


class TestScenarioSerialization:
    def test_round_trip(self):
        scenario = gen_scenario(13)
        again = Scenario.from_json(scenario.to_json())
        assert again.to_json() == scenario.to_json()

    def test_malformed_json_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_json("{not json")

    def test_missing_field_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_json('{"universal_events": []}')

    def test_non_binary_codeword_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_json(
                '{"universal_events": [[1, "2x", "0"]], "set_a": [],'
                ' "set_d": [], "halting": [], "stages": 5}'
            )


class TestGenScenario:
    def test_deterministic(self):
        assert gen_scenario(99).to_json() == gen_scenario(99).to_json()

    def test_seeds_differ(self):
        assert gen_scenario(1).to_json() != gen_scenario(2).to_json()

    def test_schedule_weight_under_quarter(self):
        for seed in range(5):
            assert gen_scenario(seed).schedule.weight < Dyadic.pow2_neg(2)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            gen_scenario(0, GenParams(stages=10, active_stages=20))
