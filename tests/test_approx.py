"""Set/real approximations, the block encoder, and scenario generation."""

import hashlib
import itertools
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
    encode_real,
    _pick_length,
    gen_scenario,
)
from ceforge.bitcore import Dyadic, INFINITE

from conftest import generated
from oracles import (
    decode_real,
    first_drop,
    k_at,
    k_at_n,
    pick_length_loop,
)


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

    def test_drop_check_matches_bitwise_scan(self):
        """Every pair of 3- or 4-bit stages (3-bit ones pad to 4): accepted
        exactly when the bitwise scan finds no drop, else the error names
        the bit the scan finds."""
        vectors = [
            list(bits)
            for width in (3, 4)
            for bits in itertools.product((0, 1), repeat=width)
        ]
        for prev, cur in itertools.product(vectors, repeat=2):
            drop = first_drop(*(v + [0] * (4 - len(v)) for v in (prev, cur)))
            if drop is None:
                CERealApprox([prev, cur])
            else:
                with pytest.raises(ValueError, match=rf"^bit {drop} drops"):
                    CERealApprox([prev, cur])

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

    def test_halting_stamp_zero_accepted(self):
        # The engine reads halting stamps through ``contains``, so a stamp
        # of 0 holds from stage 1 on, unlike a given-set stamp of 0.
        scenario = Scenario.from_json(
            '{"universal_events": [], "set_a": [], "set_d": [],'
            ' "halting": [[0, 0]], "stages": 5}'
        )
        assert scenario.halting.contains(0, 1)


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


def _budgets():
    """Remaining budgets from 1/4 down to 2^-2000: exact powers of two,
    numerators on either side of a bit-length boundary, and random ones."""
    rng = random.Random(5)
    exps = sorted({2, 3, 4, 5, 64, 65, 1999, 2000} | set(range(6, 2000, 97)))
    for exp in exps:
        nums = {1}
        for bits in {1, 2, exp // 2, exp - 3, exp - 2}:
            if 1 <= bits <= exp - 2:
                nums |= {(1 << bits) - 1, (1 << bits) + 1, 1 << bits}
        nums.add(rng.randrange(1, (1 << (exp - 2)) + 1))
        for num in nums:
            if 0 < num <= 1 << (exp - 2):
                yield Dyadic(num, exp)


def test_pick_length_closed_form_matches_loop():
    cases = 0
    for remaining in _budgets():
        answer = pick_length_loop(
            random.Random(0), GenParams(min_length=1, max_length=1), remaining
        )
        for drawn in {1, answer - 1, answer, answer + 1, answer + 40}:
            if drawn < 1:
                continue
            params = GenParams(min_length=drawn, max_length=drawn)
            assert _pick_length(random.Random(0), params, remaining) == (
                pick_length_loop(random.Random(0), params, remaining)
            )
            cases += 1
    assert cases > 1_000


def _ladder_k8() -> GenParams:
    params = GenParams()
    for name in ("stages", "events", "active_stages", "element_bound",
                 "set_size"):
        setattr(params, name, getattr(params, name) * 8)
    params.max_length = 22
    return params


#: sha256 of ``Scenario.to_json()``, recorded with the generator that
#: raised each codeword length one bit at a time and spelled out every free
#: block.
FROZEN_SCENARIOS = {
    "sweep-0": "481134193f252ee8fcc8620088cbd861781b9d6abb1668e42e9e6a548c8a4099",
    "dense-x4-1": "1ce565b8f283047eb83addfe2bffbbdf91a7dc7b622092a01c81bd182f9fedc0",
    "ladder-k8-0": "199fdba749e7bcd6a4800fb3e9292bf6230456f71475ad50d888eb9dfaa70e9d",
}


@pytest.mark.parametrize("key", sorted(FROZEN_SCENARIOS))
def test_generated_scenarios_are_byte_frozen(key):
    scenario = {
        "sweep-0": lambda: generated(0),
        "dense-x4-1": lambda: generated(1, dense=True),
        "ladder-k8-0": lambda: gen_scenario(0, _ladder_k8()),
    }[key]()
    digest = hashlib.sha256(scenario.to_json().encode()).hexdigest()
    assert digest == FROZEN_SCENARIOS[key]
