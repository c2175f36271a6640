"""Stage-indexed approximations: c.e. sets, c.e. reals, adversary schedules.

The "universal" machine here is a finite, stage-stamped adversary schedule
with prefix-free domain and weight below 1/4; the engines only ever read its
shortest-description lengths and its domain weight, so any such schedule is
a faithful desk-scale stand-in.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import NamedTuple

from .bitcore import Dyadic
from .machines import FreeBlockSet, check_prefix_free

#: Integers a scenario may hold lie below this: 2^53 bounds the integers
#: that every JSON reader agrees on (RFC 8259), and it keeps every integer
#: the engine writes into a trace below 2^63.
JSON_INT_BOUND = 1 << 53


class BlockOverflow(RuntimeError):
    """A coding block received more flips than it has room for."""


class ScenarioError(ValueError):
    """A scenario file violates a structural invariant."""


class CESetApprox:
    """A computably enumerable set given by its finite enumeration schedule."""

    def __init__(self, schedule: list[tuple[int, int]] | None = None) -> None:
        self.schedule: list[tuple[int, int]] = []
        self._stage_of: dict[int, int] = {}
        for element, stage in schedule or []:
            self.add(element, stage)

    def add(self, element: int, stage: int) -> None:
        if element < 0 or stage < 0:
            raise ScenarioError("elements and stages must be naturals")
        if element in self._stage_of:
            raise ScenarioError(f"element {element} enumerated twice")
        self.schedule.append((element, stage))
        self._stage_of[element] = stage

    def contains(self, element: int, stage: int) -> bool:
        entered = self._stage_of.get(element)
        return entered is not None and entered <= stage

    def restrict(self, n: int, stage: int) -> str:
        """The first ``n`` characteristic bits at ``stage``."""
        bits = bytearray(b"0" * n)
        for element, entered in self.schedule:
            if element < n and entered <= stage:
                bits[element] = ord("1")
        return bits.decode()


class CERealApprox:
    """Stagewise binary expansions of a nondecreasing dyadic sequence.

    Valid instances satisfy two constraints: the sequence is nondecreasing as
    reals (a bit may only drop when a more significant bit rises), and bit
    ``n`` changes at most ``2**n`` times over all stages, where the value at
    stage 0 counts as a change from the implicit all-zero state.
    """

    def __init__(self, bits_per_stage: list[list[int]]) -> None:
        if (
            type(bits_per_stage) is not list
            or not bits_per_stage
            or not all(type(v) is list for v in bits_per_stage)
        ):
            raise ValueError("need a non-empty list of per-stage bit lists")
        self.bits_per_stage = [list(v) for v in bits_per_stage]
        for vec in self.bits_per_stage:
            if any(type(b) is not int or b not in (0, 1) for b in vec):
                raise ValueError("bit vectors must contain only 0/1")
        width = max(len(v) for v in self.bits_per_stage)
        for vec in self.bits_per_stage:
            vec.extend([0] * (width - len(vec)))
        self.width = width
        for prev, cur in zip(self.bits_per_stage, self.bits_per_stage[1:]):
            # Equal-width bit lists compare as binary expansions, most
            # significant bit first: a drop is the first differing bit
            # going from 1 to 0.
            if cur < prev:
                n = next(i for i in range(width) if cur[i] != prev[i])
                raise ValueError(
                    f"bit {n} drops without a more significant rise"
                )

    @property
    def stages(self) -> int:
        return len(self.bits_per_stage)

    def bit(self, n: int, stage: int) -> int:
        vec = self.bits_per_stage[stage]
        return vec[n] if n < len(vec) else 0

    def change_stages(self, n: int) -> list[int]:
        """Stages at which bit ``n`` changes (stage 0 counts from zero)."""
        changes = []
        prev = 0
        for stage in range(self.stages):
            cur = self.bit(n, stage)
            if cur != prev:
                changes.append(stage)
                prev = cur
        return changes


def block_range(k: int) -> tuple[int, int]:
    """Positions ``[2**k - 1, 2**(k+1) - 1)`` reserved for bit ``k``."""
    return (1 << k) - 1, (1 << (k + 1)) - 1


def encode_real(real: CERealApprox) -> CESetApprox:
    """Encode a c.e. real's oscillations into a c.e. set, block by block.

    Block ``k`` occupies positions ``[2**k - 1, 2**(k+1) - 1)``; the ``j``-th
    change of bit ``k`` enumerates the largest block element not yet present,
    stamped with the stage of the change.
    """
    result = CESetApprox()
    for k in range(real.width):
        lo, hi = block_range(k)
        changes = real.change_stages(k)
        if len(changes) > hi - lo:
            raise BlockOverflow(
                f"bit {k} changed {len(changes)} times, block holds {hi - lo}"
            )
        for j, stage in enumerate(changes):
            result.add(hi - 1 - j, stage)
    return result


class ScheduleEvent(NamedTuple):
    stage: int
    codeword: str
    output: str


class UniversalSchedule:
    """Stage-stamped enumeration of (codeword, output) pairs standing in
    for the universal machine; prefix-free domain, weight < 1/4.

    ``events`` are sorted as tuples: codewords are distinct, so that is
    (stage, codeword) order.  ``output_of`` maps each codeword to its
    output, the index the audit reads."""

    def __init__(self, events: list[ScheduleEvent]) -> None:
        self.events = sorted(events)
        self.output_of = {e.codeword: e.output for e in self.events}
        check_prefix_free([e.codeword for e in self.events])
        # One integer sum at the longest codeword's scale (at least 2, the
        # scale of the 1/4 bound).
        lengths = [len(e.codeword) for e in self.events]
        scale = max([2, *lengths])
        total = sum(1 << (scale - length) for length in lengths)
        self.weight = Dyadic(total, scale)
        if total >= 1 << (scale - 2):
            raise ScenarioError(
                f"schedule weight {self.weight} is not below 1/4"
            )


def _json_int(value: object, what: str) -> int:
    """``value`` if it is a JSON integer below ``JSON_INT_BOUND``; a float
    (``1e999`` included), a bool or a larger integer is a ScenarioError."""
    if type(value) is not int:
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    if value >= JSON_INT_BOUND:
        raise ScenarioError(f"{what} must be below 2^53")
    return value


def _json_stage(value: object, what: str, least: int = 1) -> int:
    """``value`` if it is a JSON integer of at least ``least``.  The
    engine's stage loop starts at 1, so an event or given-set element
    stamped earlier would never be applied."""
    stage = _json_int(value, what)
    if stage < least:
        raise ScenarioError(f"{what} must be at least {least}, got {stage}")
    return stage


def _json_str(value: object, what: str) -> str:
    if type(value) is not str:
        raise ScenarioError(f"{what} must be a string, got {value!r}")
    return value


def _json_set(pairs: list, least_stage: int = 1) -> CESetApprox:
    return CESetApprox(
        [
            (
                _json_int(element, "set element"),
                _json_stage(stage, "set stage", least_stage),
            )
            for element, stage in pairs
        ]
    )


@dataclass
class Scenario:
    """One engine input: adversary schedule plus the given c.e. sets."""

    schedule: UniversalSchedule
    set_a: CESetApprox
    set_d: CESetApprox
    halting: CESetApprox
    stages: int

    def to_json(self) -> str:
        payload = {
            # Each event, a tuple, is written as a JSON array.
            "universal_events": self.schedule.events,
            "set_a": sorted(self.set_a.schedule),
            "set_d": sorted(self.set_d.schedule),
            "halting": sorted(self.halting.schedule),
            "stages": self.stages,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Read a scenario; raise ScenarioError unless it is well formed.

        ``_json_stage`` and ``_json_str`` decide each event's ``(stage,
        codeword, output)`` and word its refusal.  The words are then
        tested for being binary on two joins, one of every codeword and one
        of every output; the events are walked again in order only when a
        join fails, so the first fault named is the one a walk in order
        meets.
        """
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers an integer past the interpreter's digit
            # limit, and RecursionError arrays or objects nested too deep.
            raise ScenarioError(f"malformed scenario JSON: {exc}") from exc
        try:
            events = [
                ScheduleEvent(
                    _json_stage(s, "event stage"),
                    _json_str(c, "codeword"),
                    _json_str(o, "output"),
                )
                for s, c, o in payload["universal_events"]
            ]
            codewords = [event.codeword for event in events]
            outputs = [event.output for event in events]
            # Codewords and outputs are joined apart, so that only one
            # join is held at a time; two counts run faster than one
            # strip("01").
            if "" in codewords or any(
                joined.count("0") + joined.count("1") != len(joined)
                for joined in map("".join, (codewords, outputs))
            ):
                for event in events:
                    for word in (event.codeword, event.output):
                        if word.count("0") + word.count("1") != len(word):
                            raise ScenarioError(
                                "codewords/outputs must be binary"
                            )
                    if not event.codeword:
                        raise ScenarioError("empty codeword")
            return cls(
                schedule=UniversalSchedule(events),
                set_a=_json_set(payload["set_a"]),
                set_d=_json_set(payload["set_d"]),
                # Halting stamps may be 0: the engine reads them through
                # ``contains``, which holds at every stage from the stamp on.
                halting=_json_set(payload["halting"], least_stage=0),
                stages=_json_int(payload["stages"], "stages"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"bad scenario structure: {exc}") from exc


@dataclass
class GenParams:
    """Knobs for deterministic scenario generation.

    ``zero_budget_share`` controls how much of the adversary's activity goes
    to descriptions of 0^n versus evolving initial segments of the given
    sets; the split is a free parameter of the generator.

    ``min_length`` and ``max_length`` bound only the drawn codeword length.
    Each event may spend at most half of the budget left, so once the 1/4
    budget is spent, lengths grow past ``max_length`` with the event index.
    """

    stages: int = 10_000
    events: int = 400
    active_stages: int = 1_200
    set_size: int = 14
    element_bound: int = 48
    halting_size: int = 6
    zero_budget_share: float = 0.45
    min_length: int = 4
    max_length: int = 14
    max_output: int = 160

    def validate(self) -> None:
        if self.stages < 1 or self.events < 0:
            raise ValueError("stages must be >= 1 and events >= 0")
        if self.stages >= JSON_INT_BOUND:
            raise ValueError("stages must be below 2^53")
        if not 1 <= self.active_stages <= self.stages:
            raise ValueError("active_stages must lie in [1, stages]")


def _pick_length(
    rng: random.Random, params: GenParams, left: int, scale: int
) -> int:
    """The drawn length, raised until the event costs at most half of the
    budget ``left / 2**scale`` still unspent, so the stream can always
    continue and the total stays strictly below 1/4.

    With ``left > 0``, ``2**-(length - 1) <= left / 2**scale`` holds exactly
    when ``length >= scale - left.bit_length() + 2``, so the shortest such
    length is that bound or the drawn one, whichever is larger.  ``left``
    stays positive: the starting budget is, and each event takes at most
    half of what is left.
    """
    drawn = rng.randint(params.min_length, params.max_length)
    return max(drawn, scale - left.bit_length() + 2)


def gen_scenario(seed: int, params: GenParams | None = None) -> Scenario:
    """Deterministic pseudo-random scenario; same seed, same scenario."""
    params = params or GenParams()
    params.validate()
    rng = random.Random(seed)

    def gen_set(size: int, bound: int) -> CESetApprox:
        ce = CESetApprox()
        elements = rng.sample(range(1, bound), min(size, bound - 1))
        for element in elements:
            ce.add(element, rng.randint(1, params.active_stages))
        return ce

    set_a = gen_set(params.set_size, params.element_bound)
    set_d = gen_set(params.set_size, params.element_bound)
    halting = CESetApprox()
    for n in range(params.halting_size):
        if rng.random() < 0.7:
            halting.add(n, rng.randint(1, params.active_stages))

    free = FreeBlockSet()
    # The budget 1/4 - 2^-(max_length + 2) as ``left / 2**scale``; the
    # scale grows to each longer codeword's length, so every cost is an
    # integer.
    scale = params.max_length + 2
    left = (1 << params.max_length) - 1
    events: list[ScheduleEvent] = []
    described: list[str] = []
    for _ in range(params.events):
        stage = rng.randint(1, params.active_stages)
        roll = rng.random()
        if described and roll < 0.15:
            # Re-describe a known output with a shot at a shorter codeword,
            # so K values actually drop and the repair subroutines fire.
            output = rng.choice(described)
        elif roll < 0.15 + params.zero_budget_share:
            if rng.random() < 0.6:
                n = rng.randint(0, params.element_bound + 12)
            else:
                n = rng.randint(1, max(2, min(stage, params.max_output)))
            output = "0" * n
        else:
            source = set_a if rng.random() < 0.5 else set_d
            if rng.random() < 0.5:
                n = rng.randint(1, params.element_bound + 12)
            else:
                n = rng.randint(
                    1, max(2, min(2 * stage, params.max_output))
                )
            output = source.restrict(n, stage)
        length = _pick_length(rng, params, left, scale)
        if length > scale:
            left <<= length - scale
            scale = length
        left -= 1 << (scale - length)
        codeword = free.allocate(length)
        events.append(ScheduleEvent(stage, codeword, output))
        described.append(output)

    return Scenario(
        schedule=UniversalSchedule(events),
        set_a=set_a,
        set_d=set_d,
        halting=halting,
        stages=params.stages,
    )
