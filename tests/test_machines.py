"""Online code-space allocation and prefix-free machine behaviour."""

import random

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

from oracles import machine_k_at


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
            lengths = [len(b) for b in free.free.values()]
            assert sorted(lengths) == sorted(set(lengths))

    def test_free_weight_accounts_for_allocations(self):
        free = FreeBlockSet()
        spent = ZERO
        for length in (3, 1, 4, 4):
            free.allocate(length)
            spent = spent + Dyadic.pow2_neg(length)
        assert _wgt(set(free.free.values())) + spent == ONE


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
