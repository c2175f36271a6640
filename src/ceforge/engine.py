"""Shared stage-loop machinery for the marker construction engines.

The engine is strictly sequential and fully deterministic: a scenario plus a
stage budget reproduces the same trace byte for byte.  All weight comparisons
are exact dyadics; the only floating value anywhere is the INFINITE length
sentinel for strings that have no description yet.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any

from .approx import CESetApprox, Scenario, ScheduleEvent
from .bitcore import Dyadic, INFINITE, ZERO
from .machines import PrefixFreeMachine, WeightOverflow


class LemmaViolation(RuntimeError):
    """A machine weight bound failed while the construction ran."""


class _ZeroTracker:
    """Stagewise shortest-description lengths for the strings 0^n."""

    def __init__(self, events: list[ScheduleEvent]) -> None:
        self._by_stage: dict[int, list[ScheduleEvent]] = {}
        for event in events:
            if not event.output.strip("0"):
                self._by_stage.setdefault(event.stage, []).append(event)
        self.best: dict[int, int] = {}
        self.keys: list[int] = []
        self.changed_at_stage = False

    def apply(self, stage: int) -> dict[int, int]:
        """Advance to ``stage``; return the lengths that strictly dropped."""
        drops: dict[int, int] = {}
        self.changed_at_stage = False
        for event in self._by_stage.get(stage, []):
            n = len(event.output)
            length = len(event.codeword)
            known = self.best.get(n)
            if known is None:
                # A first description is a drop from infinity.
                self.best[n] = length
                bisect.insort(self.keys, n)
                drops[n] = length
                self.changed_at_stage = True
            elif length < known:
                self.best[n] = length
                drops[n] = length
                self.changed_at_stage = True
        return drops

    def k_of(self, n: int) -> int | float:
        value = self.best.get(n)
        return INFINITE if value is None else value


class _SideTracker:
    """Per given set X: K(X restricted to j), the output machine M_x,
    the deficiency cursor, and exact interval sums of 2^-K(X|j)."""

    def __init__(
        self, side: str, given: CESetApprox, events: list[ScheduleEvent]
    ) -> None:
        self._events_by_stage: dict[int, list[ScheduleEvent]] = {}
        for event in events:
            self._events_by_stage.setdefault(event.stage, []).append(event)
        self._set_by_stage: dict[int, list[int]] = {}
        for element, stage in given.schedule:
            self._set_by_stage.setdefault(stage, []).append(element)
        width = max((len(e.output) for e in events), default=0)
        width = max(
            width, max((el + 1 for el, _ in given.schedule), default=0)
        )
        self.width = width
        self._bits = bytearray(b"0" * width)
        self.x_str = self._bits.decode()
        self._applied: list[ScheduleEvent] = []
        # j -> (length, stage, codeword) of the least shortest description
        self.k_best: dict[int, tuple[int, int, str]] = {}
        self._sum_exp = max((len(e.codeword) for e in events), default=1)
        self._sum_keys: list[int] = []
        self._sum_prefix: list[int] = [0]
        self._sums_stale = False
        self.machine = PrefixFreeMachine(f"M_{side}")
        self._deficient: set[int] = set()
        self._dirty: set[int] = set()
        self.changed_at_stage = False
        self.min_changed_pos: int | None = None

    def apply(self, stage: int) -> None:
        """Fold in the stage's given-set elements and schedule events."""
        self.changed_at_stage = False
        self.min_changed_pos = None
        elements = self._set_by_stage.get(stage, [])
        if elements:
            for element in elements:
                self._bits[element] = ord("1")
            self.x_str = self._bits.decode()
            self.min_changed_pos = min(elements)
            self._recompute_matches()
            self.changed_at_stage = True
        for event in self._events_by_stage.get(stage, []):
            self._applied.append(event)
            self._offer(event)

    def _offer(self, event: ScheduleEvent) -> None:
        """Keep ``event`` as the best description of X restricted to its
        output length if it describes the current X and beats the known one."""
        j = len(event.output)
        if event.output != self.x_str[:j]:
            return
        candidate = (len(event.codeword), event.stage, event.codeword)
        known = self.k_best.get(j)
        if known is None or candidate < known:
            self.k_best[j] = candidate
            self._sums_stale = True
            self._dirty.add(j)
            self.changed_at_stage = True

    def _recompute_matches(self) -> None:
        self.k_best = {}
        for event in self._applied:
            self._offer(event)
        self._sums_stale = True
        self._dirty = set(self._sum_keys) | set(self.k_best)

    def _refresh_sums(self) -> None:
        if not self._sums_stale:
            return
        self._sum_keys = sorted(self.k_best)
        prefix = [0]
        for j in self._sum_keys:
            prefix.append(
                prefix[-1] + (1 << (self._sum_exp - self.k_best[j][0]))
            )
        self._sum_prefix = prefix
        self._sums_stale = False

    def k_len(self, j: int) -> int | float:
        best = self.k_best.get(j)
        return INFINITE if best is None else best[0]

    def best_event(self, j: int) -> str:
        """Codeword of the least shortest description of X restricted to j."""
        return self.k_best[j][2]

    def sum_range(self, lo_exclusive: int, hi_inclusive: int) -> Dyadic:
        """Exact sum of 2^-K(X|j) over described j in (lo, hi]."""
        self._refresh_sums()
        lo = bisect.bisect_right(self._sum_keys, lo_exclusive)
        hi = bisect.bisect_right(self._sum_keys, hi_inclusive)
        if hi <= lo:
            return ZERO
        return Dyadic(self._sum_prefix[hi] - self._sum_prefix[lo], self._sum_exp)

    def mark_b_change(self, position: int) -> None:
        for j in self.k_best:
            if j > position:
                self._dirty.add(j)

    def mark_dirty(self, j: int) -> None:
        self._dirty.add(j)

    def deficiency_cursor(
        self, b_str: str, bound: int, inclusive: bool
    ) -> int | None:
        """Least j (< bound, or <= bound when inclusive) where the output
        machine describes the current B segment worse than K(X|j)."""
        for j in self._dirty:
            best = self.k_best.get(j)
            if best is not None and self.machine.k_of(b_str[:j]) > best[0]:
                self._deficient.add(j)
            else:
                self._deficient.discard(j)
        self._dirty.clear()
        limit = bound + 1 if inclusive else bound
        candidates = [j for j in self._deficient if j < limit]
        return min(candidates) if candidates else None


@dataclass
class Marker:
    """Finite-injury bookkeeping for one coding position."""

    index: int
    sides: tuple[str, ...]
    c: int
    position: int | None = None
    frozen: bool = False
    move_count: int = 0
    machines: dict[str, PrefixFreeMachine] = field(default_factory=dict)
    t: dict[str, int | None] = field(default_factory=dict)
    q: dict[str, Dyadic | None] = field(default_factory=dict)
    p: dict[str, Dyadic] = field(default_factory=dict)
    _t_stamp: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for side in self.sides:
            self.machines[side] = PrefixFreeMachine(f"N_{side}{self.index}")
            self.t[side] = None
            self.q[side] = None
            self.p[side] = ZERO
            self._t_stamp[side] = -1


class BaseEngine:
    """Stage loop shared by the one-set and two-set constructions."""

    # The defaults are the one-set construction's; DualEngine overrides them.
    side_names: tuple[str, ...] = ("a",)
    c_offset: int = 3
    use_deficits: bool = False
    cursor_inclusive: bool = False
    engine_name: str = "single"

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        events = scenario.schedule.events
        self.zero = _ZeroTracker(events)
        given = {"a": scenario.set_a, "d": scenario.set_d}
        self.sides = {
            name: _SideTracker(name, given[name], events)
            for name in self.side_names
        }
        self.stage = 0
        self.b_stage: dict[int, int] = {}
        width = max(t.width for t in self.sides.values())
        self._b_bits = bytearray(b"0" * width)
        self.b_str = self._b_bits.decode()
        self.markers: list[Marker] = []
        self.move_history: list[int] = []
        self.archived: list[tuple[str, int, PrefixFreeMachine]] = []
        self._last: dict[str, Any] | None = None
        # Bounds past which nothing in the scenario can change: markers with
        # positions above every described segment length can only act through
        # the halting clause, and once all event stages have passed a no-op
        # stage repeats forever.
        self._max_key_bound = max((len(e.output) for e in events), default=0)
        self._halting_indices = {e for e, _ in scenario.halting.schedule}
        self._quiet_after = max(
            [self._max_key_bound]
            + [e.stage for e in events]
            + [s for _, s in scenario.halting.schedule]
            + [s for _, s in scenario.set_a.schedule]
            + [s for _, s in scenario.set_d.schedule],
        )
        self._max_seen = 0
        self._note(width)
        self._note(max((len(e.codeword) for e in events), default=0))
        # At stage 0 the first marker is placed on position 1.
        first = self._materialize(0)
        first.position = 1
        self._note(1)
        # Emitted with the first stage record so the trace carries the
        # initial placement.
        self._pending_touched: set[int] = {0}

    # -- plumbing -----------------------------------------------------------

    def _note(self, value: int) -> None:
        if value > self._max_seen:
            self._max_seen = value

    def _fresh(self) -> int:
        value = self._max_seen + 1
        self._max_seen = value
        return value

    def _materialize(self, index: int) -> Marker:
        while len(self.markers) <= index:
            i = len(self.markers)
            c = self.c_offset + i + sum(1 for n in self.move_history if n < i)
            self.markers.append(Marker(index=i, sides=self.side_names, c=c))
        return self.markers[index]

    def _b_add(self, position: int, stage: int) -> None:
        self.b_stage[position] = stage
        if position < len(self._b_bits):
            self._b_bits[position] = ord("1")
            self.b_str = self._b_bits.decode()
        for tracker in self.sides.values():
            tracker.mark_b_change(position)
        self._note(position)

    def _in_halting(self, index: int, stage: int) -> bool:
        return self.scenario.halting.contains(index, stage)

    # -- per-stage parameters ----------------------------------------------

    def _compute_t(self, marker: Marker, side: str, s_old: int) -> None:
        tracker = self.sides[side]
        machine = marker.machines[side]
        stamp = len(machine.entries) + (machine.version << 20)
        cache_ok = (
            not self.zero.changed_at_stage
            and not tracker.changed_at_stage
            and tracker.min_changed_pos is None
            and marker._t_stamp[side] == stamp
            and marker.t[side] is not None
        )
        old_t = marker.t[side]
        if not cache_ok:
            found: int | None = None
            for t in self.zero.keys:
                if t > s_old:
                    break
                threshold = self.zero.best[t] + marker.c
                if machine.k_of(tracker.x_str[:t]) > threshold:
                    found = t
                    break
            # Conditional monotonicity: if X did not change below the old
            # value, t may not decrease.
            if (
                old_t is not None
                and found is not None
                and (
                    tracker.min_changed_pos is None
                    or tracker.min_changed_pos >= old_t
                )
                and marker._t_stamp[side] == stamp
            ):
                assert found >= old_t, (
                    f"t_{side}[{marker.index}] dropped {old_t}->{found} "
                    "without a set change below it"
                )
            marker.t[side] = found
            marker._t_stamp[side] = stamp
        t = marker.t[side]
        if t is None:
            marker.q[side] = None
        else:
            # Freshly placed positions exceed every stage bound, so t stays
            # below them; the initial marker on position 1 and frozen
            # positions are the two legitimate exceptions.
            if (
                marker.position is not None
                and not marker.frozen
                and (marker.index > 0 or marker.move_count > 0)
            ):
                assert t < marker.position, (
                    f"t_{side}[{marker.index}]={t} not below marker position "
                    f"{marker.position}"
                )
            k_t = self.zero.k_of(t)
            marker.q[side] = (
                None
                if k_t is INFINITE
                else Dyadic.pow2_neg(int(k_t) + marker.c)
            )

    def _attention(
        self, marker: Marker, s_old: int, stage: int
    ) -> tuple[bool, dict[str, bool], dict[str, Dyadic]]:
        sums = {
            side: self.sides[side].sum_range(marker.position, s_old)
            for side in self.side_names
        }
        if marker.position is None or marker.position in self.b_stage:
            return False, {side: False for side in self.side_names}, sums
        fired = {}
        for side in self.side_names:
            q = marker.q[side]
            if q is None:
                fired[side] = False
                continue
            threshold = q - marker.p[side] if q >= marker.p[side] else ZERO
            fired[side] = sums[side] > ZERO and sums[side] >= threshold
        return (
            self._in_halting(marker.index, stage) or any(fired.values()),
            fired,
            sums,
        )

    # -- stage actions ------------------------------------------------------

    def _describe_output(
        self,
        side: str,
        k: int,
        stage: int,
        cause: int | None,
        record: list[dict[str, Any]],
    ) -> None:
        tracker = self.sides[side]
        length = int(tracker.k_len(k))
        try:
            entry = tracker.machine.describe(self.b_str[:k], length, stage)
        except WeightOverflow as exc:
            raise LemmaViolation(f"M_{side}: {exc}") from exc
        tracker.mark_dirty(k)
        record.append(
            {
                "side": side,
                "n": k,
                "length": length,
                "codeword": entry.codeword,
                "justify": tracker.best_event(k),
                "cause": cause,
            }
        )

    def _enumerate_n(
        self,
        marker: Marker,
        side: str,
        k: int,
        length: int,
        stage: int,
        record: list[dict[str, Any]],
    ) -> None:
        machine = marker.machines[side]
        try:
            entry = machine.describe(self.sides[side].x_str[:k], length, stage)
        except WeightOverflow as exc:
            raise LemmaViolation(
                f"N_{side}{marker.index} v{machine.version}: {exc}"
            ) from exc
        record.append(
            {
                "side": side,
                "index": marker.index,
                "version": machine.version,
                "n": k,
                "length": length,
                "codeword": entry.codeword,
            }
        )

    def step(self) -> dict[str, Any]:
        """Run one stage and return its trace record.

        Past the quiet point a replayed no-op record is a shallow copy of the
        previous one: the records share their nested containers, so callers
        must treat returned records as read-only.
        """
        s_old = self.stage
        stage = s_old + 1
        last = self._last
        if (
            s_old > self._quiet_after
            and last is not None
            and last["action"] == "noop"
        ):
            # Past the last scheduled event a no-op stage reproduces itself:
            # sums, cursors and clauses all read the same unchanged state.
            record = dict(last)
            record["stage"] = stage
            self._last = record
            self.stage = stage
            return record
        self._note(stage)
        zero_drops = self.zero.apply(stage)
        for tracker in self.sides.values():
            tracker.apply(stage)

        # Repair drops below the previous stage's t first: this is what keeps
        # t from sliding backwards when only description lengths improve.
        n_entries: list[dict[str, Any]] = []
        if zero_drops:
            drops_sorted = sorted(zero_drops.items())
            for marker in self.markers:
                if marker.position is None:
                    continue
                for side in self.side_names:
                    t = marker.t[side]
                    if t is None:
                        continue
                    for k, new_len in drops_sorted:
                        if k < t:
                            self._enumerate_n(
                                marker,
                                side,
                                k,
                                new_len + marker.c,
                                stage,
                                n_entries,
                            )

        for marker in self.markers:
            if marker.position is not None:
                for side in self.side_names:
                    self._compute_t(marker, side, s_old)

        attention_index: int | None = None
        fired: dict[str, bool] = {side: False for side in self.side_names}
        sums: dict[str, Dyadic] = {}
        for marker in self.markers:
            if marker.position is None:
                continue
            if (
                marker.position > self._max_key_bound
                and marker.index not in self._halting_indices
            ):
                # No described segment reaches past this position and the
                # index never enters the halting set: no clause can fire.
                continue
            wants, marker_fired, marker_sums = self._attention(
                marker, s_old, stage
            )
            if wants:
                attention_index = marker.index
                fired = marker_fired
                sums = marker_sums
                break

        record: dict[str, Any] = {
            "stage": stage,
            "action": "noop",
            "acting": None,
            "clauses": None,
            "frozen": False,
            "b_added": None,
            "placed": None,
            "z": None,
            "injured": [],
            "m_entries": [],
            "n_entries": n_entries,
        }
        touched = set(self._pending_touched)
        self._pending_touched.clear()

        if attention_index is None:
            cursors = {
                side: self.sides[side].deficiency_cursor(
                    self.b_str, s_old, self.cursor_inclusive
                )
                for side in self.side_names
            }
            record["z"] = cursors
            for z in cursors.values():
                if z is not None:
                    self._note(z)
            least_undef = next(
                (
                    m.index
                    for m in self.markers
                    if m.position is None
                ),
                len(self.markers),
            )
            if all(z is not None for z in cursors.values()) and all(
                least_undef < z for z in cursors.values()
            ):
                marker = self._materialize(least_undef)
                marker.position = self._fresh()
                record["action"] = "place"
                record["placed"] = [least_undef, marker.position]
                touched.add(least_undef)
            elif any(z is not None for z in cursors.values()):
                record["action"] = "describe"
                for side in self.side_names:
                    z = cursors[side]
                    if z is not None:
                        self._describe_output(
                            side, z, stage, None, record["m_entries"]
                        )
        else:
            marker = self.markers[attention_index]
            clause_a = self._in_halting(attention_index, stage)
            record["action"] = "act"
            record["acting"] = attention_index
            touched.add(attention_index)
            clause_letter = {"a": "b", "d": "c"}
            record["clauses"] = {
                "a": clause_a,
                **{clause_letter[side]: fired[side] for side in self.side_names},
            }
            old_position = marker.position
            assert old_position is not None
            old_b_str = self.b_str
            self._b_add(old_position, stage)
            record["b_added"] = old_position
            if clause_a:
                # The coding position must stay put so that membership of the
                # index in the halting set remains readable from B.
                marker.frozen = True
                record["frozen"] = True
            else:
                marker.position = self._fresh()
                marker.move_count += 1
            for side in self.side_names:
                tracker = self.sides[side]
                for k in sorted(tracker.k_best):
                    if not old_position < k < s_old:
                        continue
                    if tracker.machine.k_of(old_b_str[:k]) <= tracker.k_len(k):
                        self._describe_output(
                            side, k, stage, attention_index, record["m_entries"]
                        )
            for other in self.markers:
                if other.index > attention_index:
                    record["injured"].append(other.index)
                    touched.add(other.index)
                    other.position = None
                    other.frozen = False
                    other.c += 1
                    for side in self.side_names:
                        self.archived.append(
                            (side, other.index, other.machines[side])
                        )
                        other.machines[side] = other.machines[side].reset()
                        other.t[side] = None
                        other.q[side] = None
                        other.p[side] = ZERO
                        other._t_stamp[side] = -1
            self.move_history.append(attention_index)
            for side in self.side_names:
                if fired[side]:
                    t = marker.t[side]
                    assert t is not None
                    self._enumerate_n(
                        marker,
                        side,
                        t,
                        int(self.zero.k_of(t)) + marker.c,
                        stage,
                        n_entries,
                    )
                    marker.p[side] = ZERO
                elif self.use_deficits and marker.q[side] is not None:
                    marker.p[side] = marker.p[side] + sums[side]

        record["markers"] = self._marker_snapshot(touched)
        record["weights"] = self._weight_snapshot(n_entries)
        self._last = record
        self.stage = stage
        return record

    def _marker_snapshot(self, touched: set[int]) -> dict[str, Any]:
        """Delta snapshot: full state of just the markers touched this stage."""
        snapshot: dict[str, Any] = {}
        for index in sorted(touched):
            marker = self.markers[index]
            entry: dict[str, Any] = {
                "pos": marker.position,
                "c": marker.c,
                "frozen": marker.frozen,
            }
            if self.use_deficits:
                for side in self.side_names:
                    entry[f"p_{side}"] = str(marker.p[side])
            snapshot[str(index)] = entry
        return snapshot

    def _weight_snapshot(
        self, n_entries: list[dict[str, Any]]
    ) -> dict[str, Any]:
        """Output-machine weights, plus new weights of N-machines that grew."""
        weights: dict[str, Any] = {}
        for side, tracker in self.sides.items():
            weights[f"m_{side}"] = str(tracker.machine.weight)
        changed: dict[str, str] = {}
        for entry in n_entries:
            marker = self.markers[entry["index"]]
            machine = marker.machines[entry["side"]]
            if machine.version == entry["version"]:
                key = f"{entry['side']}:{entry['index']}:{machine.version}"
                changed[key] = str(machine.weight)
        weights["n"] = changed
        return weights

    def header(self, stages: int) -> dict[str, Any]:
        return {
            "type": "header",
            "engine": self.engine_name,
            "stages": stages,
            "c_offset": self.c_offset,
            "k_index": "s+1",
        }

    def run(self, stages: int) -> list[dict[str, Any]]:
        """Execute stages 1..``stages``; returns the full trace."""
        if stages < 1:
            raise ValueError("stages must be >= 1")
        records = [self.header(stages)]
        for _ in range(stages):
            records.append(self.step())
        return records


class SingleEngine(BaseEngine):
    """One given set A: builds B, machine M and per-marker machines N_i."""


class DualEngine(BaseEngine):
    """Two given sets A and D: one marker system, machines M_a and M_d."""

    side_names = ("a", "d")
    c_offset = 4
    use_deficits = True
    cursor_inclusive = True
    engine_name = "dual"
