"""Online code-space allocation and prefix-free machine behaviour."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from ceforge.audit import _wgt
from ceforge.bitcore import Dyadic, INFINITE, ONE, ZERO
from ceforge.machines import (
    Exhausted,
    FreeBlockSet,
    NotPrefixFree,
    PrefixFreeMachine,
    WeightOverflow,
    check_prefix_free,
)

from oracles import EagerFreeBlockSet, machine_k_at, spelled


def machine_from(requests: list[tuple[str, int]]) -> PrefixFreeMachine:
    """Describe each ``(target, length)`` request in order, stage = index."""
    machine = PrefixFreeMachine()
    for stage, (target, length) in enumerate(requests):
        machine.describe(target, length, stage)
    return machine


class TestFreeBlockSet:
    def test_complete_tree_allocation(self):
        free = FreeBlockSet()
        assert [free.allocate(n) for n in (1, 2, 2)] == ["0", "10", "11"]

    def test_huge_first_request_files_one_run(self):
        free = FreeBlockSet()
        assert free.allocate(10**6) == "0" * 10**6
        assert free.allocate(1) == "1"

    def test_raw_allocator_fills_to_exactly_one(self):
        free = FreeBlockSet()
        assert free.allocate(1) == "0"
        assert free.allocate(1) == "1"
        with pytest.raises(Exhausted):
            free.allocate(5)

    def test_one_block_per_length_invariant(self):
        free = FreeBlockSet()
        rng = random.Random(9)
        for _ in range(200):
            free.allocate(rng.randint(9, 24))
            lengths = [len(b) for b in spelled(free).values()]
            assert sorted(lengths) == sorted(set(lengths))

    def test_free_weight_accounts_for_allocations(self):
        free = FreeBlockSet()
        spent = ZERO
        for length in (3, 1, 4, 4):
            free.allocate(length)
            spent = spent + Dyadic.pow2_neg(length)
        assert _wgt(set(spelled(free).values())) + spent == ONE


class TestAgainstEagerAllocator:
    """``FreeBlockSet`` hands out the codewords of the allocator that spells
    out every free block, and leaves the same free blocks behind."""

    @staticmethod
    def lockstep(lengths):
        fast, eager = FreeBlockSet(), EagerFreeBlockSet()
        exhausted = 0
        for length in lengths:
            try:
                expected = eager.allocate(length)
            except Exhausted:
                with pytest.raises(Exhausted):
                    fast.allocate(length)
                exhausted += 1
            else:
                assert fast.allocate(length) == expected
            assert spelled(fast) == eager.free
        return fast, eager, exhausted

    @pytest.mark.parametrize("seed", range(3))
    def test_short_lengths(self, seed):
        rng = random.Random(f"short:{seed}")
        self.lockstep([rng.randint(18, 26) for _ in range(3_000)])

    @pytest.mark.parametrize("seed", range(3))
    def test_long_lengths(self, seed):
        # Lengths that grow with the request index, as the generator's do
        # once its budget is spent, mixed with short ones that must fall
        # back to shallower blocks or find none.
        rng = random.Random(f"long:{seed}")
        lengths = [
            rng.randint(1, 12) if rng.random() < 0.3 else
            rng.randint(i // 2, i + 5)
            for i in range(2_000)
        ]
        _, _, exhausted = self.lockstep(lengths)
        assert exhausted

    @pytest.mark.parametrize("seed", range(3))
    def test_fresh_sets_with_a_long_first_request(self, seed):
        # The engine's N-machines: a freshly reset set whose first request
        # is K(0^t) + c bits long, then requests both shorter and longer.
        rng = random.Random(f"fresh:{seed}")
        for _ in range(4):
            first = rng.randint(500, 3_000)
            self.lockstep(
                [first]
                + [
                    rng.randint(1, 40) if rng.random() < 0.3 else
                    rng.randint(first - 300, first + 300)
                    for _ in range(25)
                ]
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_fill_to_exactly_one(self, seed):
        rng = random.Random(f"fill:{seed}")
        fast, eager, _ = self.lockstep(
            [rng.randint(1, 40) for _ in range(60)]
        )
        # Take every free block whole, so the weight reaches exactly 1.
        for length in sorted(eager.free):
            assert fast.allocate(length) == eager.allocate(length)
        assert spelled(fast) == eager.free == {}
        for length in (0, 1, 2_000):
            with pytest.raises(Exhausted):
                eager.allocate(length)
            with pytest.raises(Exhausted):
                fast.allocate(length)

    def test_length_zero_takes_the_whole_space(self):
        fast, _, exhausted = self.lockstep([0, 0, 3])
        assert exhausted == 2
        assert spelled(fast) == {}


class TestRequestSet:
    """``PrefixFreeMachine.describe`` keeps the exact weight of a stream of
    description requests and refuses one that would bring it to 1."""

    def test_rejects_weight_one(self):
        machine = machine_from([("0", 1)])
        with pytest.raises(WeightOverflow):
            machine.describe("1", 1, stage=1)
        assert machine.weight == Dyadic(1, 1)

    def test_tracks_exact_weight(self):
        machine = PrefixFreeMachine()
        for length, weight in ((1, Dyadic(1, 1)), (3, Dyadic(5, 3)),
                               (2, Dyadic(7, 3))):
            machine.describe("0", length, stage=length)
            assert machine.weight == weight


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=7, max_value=90),
        ),
        max_size=60,
    )
)
def test_weight_and_overflow_match_the_dyadic_sum(lengths):
    """The int weight reads out as the ``Dyadic`` sum of 2^-length over the
    entries, and ``describe`` raises WeightOverflow, naming the weight it
    would reach and changing nothing, exactly when that sum would reach 1."""
    machine = PrefixFreeMachine("N_0")
    for stage, length in enumerate(lengths):
        entries = list(machine.entries)
        after = machine.weight + Dyadic.pow2_neg(length)
        if after >= ONE:
            message = f"N_0 v0: weight would reach {after}"
            with pytest.raises(WeightOverflow, match=re.escape(message)):
                machine.describe("0", length, stage)
            assert machine.entries == entries
        else:
            machine.describe("0", length, stage)
        assert machine.weight == sum(
            (Dyadic.pow2_neg(len(e.codeword)) for e in machine.entries),
            ZERO,
        )
    with pytest.raises(ValueError):
        machine.describe("0", -1, len(lengths))


class TestMachineFromRequests:
    """``PrefixFreeMachine.describe`` over a request stream hands out
    prefix-free codewords whose weight is the request total."""

    def test_empty(self):
        machine = machine_from([])
        assert machine.weight == ZERO
        assert machine.entries == []

    def test_two_requests(self):
        machine = machine_from([("0", 1), ("11", 2)])
        assert machine.weight == Dyadic(3, 2)
        assert [e.codeword for e in machine.entries] == ["0", "10"]

    def test_weight_matches_request_total(self):
        rng = random.Random(3)
        requests = [(format(i, "b"), rng.randint(9, 16)) for i in range(200)]
        machine = machine_from(requests)
        total = ZERO
        for _, length in requests:
            total = total + Dyadic.pow2_neg(length)
        assert machine.weight == total
        check_prefix_free([e.codeword for e in machine.entries])

    def test_duplicate_requests_get_two_codewords(self):
        machine = machine_from([("01", 3), ("01", 3)])
        assert len({e.codeword for e in machine.entries}) == 2


class TestKOf:
    def test_infinite_when_unknown(self):
        assert PrefixFreeMachine().k_of("101") is INFINITE

    def test_minimum_over_entries(self):
        m = PrefixFreeMachine()
        m.describe("1", 3, stage=1)
        m.describe("1", 2, stage=4)
        assert m.k_of("1") == 2 == machine_k_at(m, "1")
        assert machine_k_at(m, "1", stage=1) == 3
        assert machine_k_at(m, "1", stage=0) is INFINITE

    def test_monotone_in_stage(self):
        m = PrefixFreeMachine()
        m.describe("00", 5, stage=2)
        before = m.k_of("00")
        m.describe("00", 3, stage=7)
        assert m.k_of("00") <= before
        m.describe("00", 6, stage=9)
        assert m.k_of("00") == 3


class TestReset:
    def test_version_bump_and_seal(self):
        m = PrefixFreeMachine("N_3")
        m.describe("0", 4, stage=1)
        fresh = m.reset()
        # The allocator waits for the first description.
        assert fresh._free is None and m._free is not None
        assert fresh.version == m.version + 1
        assert fresh.k_of("0") is INFINITE
        assert m.entries  # archive keeps the old computations
        with pytest.raises(RuntimeError):
            m.describe("1", 4, stage=2)


class TestWgt:
    """The audit's exact weight of a codeword set, and the prefix-free
    guard that codeword sets pass through."""

    def test_complete_code(self):
        assert _wgt({"0", "10", "11"}) == ONE

    def test_empty(self):
        assert _wgt(set()) == ZERO

    def test_rejects_prefix_pairs(self):
        with pytest.raises(NotPrefixFree):
            check_prefix_free(["0", "01"])
        check_prefix_free(["0", "10", "11"])


@given(st.lists(st.integers(min_value=6, max_value=16), max_size=60))
def test_allocation_sound_while_under_budget(lengths):
    """Lengths of at most 2^-6 summing under 1 always allocate, and the
    resulting codewords form a prefix-free set of exactly those lengths."""
    free = FreeBlockSet()
    total = ZERO
    words = []
    for length in lengths:
        if not total + Dyadic.pow2_neg(length) < ONE:
            break
        words.append(free.allocate(length))
        total = total + Dyadic.pow2_neg(length)
    assert [len(w) for w in words] == lengths[: len(words)]
    for a in words:
        for b in words:
            if a is not b:
                assert not b.startswith(a)
