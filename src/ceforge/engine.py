"""Shared stage-loop machinery for the marker construction engines.

The engine is strictly sequential and fully deterministic: a scenario plus a
stage budget reproduces the same trace byte for byte.  Every weight is an
exact int at one dyadic scale, and the stage loop builds no ``Dyadic``:
machine weights count units of 2^-(the machine's longest codeword)
(``PrefixFreeMachine``), interval sums and deficits count units of
2^-``sum_exp``, and the sum clause compares them by shifts (``_fires``).  A
deficit becomes the string ``num/2^exp`` only in a marker snapshot
(``bitcore.dyadic_str``).  The only floating value anywhere is the INFINITE
length sentinel for undescribed strings.

A machine whose weight would reach 1 raises its own ``WeightOverflow``, a
``LemmaViolation`` (both in ``machines``), and the engines let it through
as it is; ``LemmaViolation`` is imported here for the callers that catch
it from this module.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable

from .approx import CESetApprox, Scenario, ScheduleEvent
from .bitcore import INFINITE, dyadic_str
from .machines import LemmaViolation, PrefixFreeMachine


#: (output, (length, stage, codeword)) of each event that improved the
#: least description of its output, as the schedule's ``apply`` returns.
_Improved = list[tuple[str, tuple[int, int, str]]]


def _by_stage(pairs: Iterable[tuple[Any, int]]) -> dict[int, list[Any]]:
    """stage -> the items stamped at it, in order, from (item, stage)
    pairs."""
    by_stage: dict[int, list[Any]] = {}
    for item, stage in pairs:
        by_stage.setdefault(stage, []).append(item)
    return by_stage


def _fires(s: int, p: int, length: int, sum_exp: int) -> bool:
    """Sum clause: s > 0 reaches q - p, floored at 0, for q = 2^-``length``.
    s and p count units of 2^-``sum_exp``, so s + p >= q compares ints."""
    return s > 0 and (s + p) << length >= 1 << sum_exp


class _Schedule:
    """The universal machine's enumeration, folded once per engine: the
    description index that the K(0^n) table and every given set's K(X|j)
    table read, and none of them copies.

    ``_least`` holds the least applied description of every output,
    ``_lengths`` the distinct applied output lengths, sorted; ``sum_exp``
    is the longest codeword (the scale of the interval sums and deficits)
    and ``longest`` the longest output."""

    def __init__(self, events: list[ScheduleEvent]) -> None:
        self._events_by_stage = _by_stage((e, e.stage) for e in events)
        # output -> (length, stage, codeword), its least applied description
        self._least: dict[str, tuple[int, int, str]] = {}
        self._lengths: list[int] = []
        self.sum_exp = max((len(e.codeword) for e in events), default=1)
        self.longest = max((len(e.output) for e in events), default=0)

    def apply(self, stage: int) -> _Improved:
        """Fold in the stage's events; returns (output, description) of
        each event that improved ``_least``, in event order."""
        improved = []
        for event in self._events_by_stage.get(stage, []):
            candidate = (len(event.codeword), event.stage, event.codeword)
            least = self._least.get(event.output)
            if least is None:
                j = len(event.output)
                i = bisect.bisect_left(self._lengths, j)
                if i == len(self._lengths) or self._lengths[i] != j:
                    self._lengths.insert(i, j)
            elif not candidate < least:
                continue
            self._least[event.output] = candidate
            improved.append((event.output, candidate))
        return improved


class _Table:
    """K(X restricted to j) for one given set X, read off the shared
    ``_Schedule``.  The engine's table of K(0^n) is one of these over the
    empty set, so that its ``k_best[n][0]`` is K(0^n) and ``apply``
    returns where it dropped.

    Invariant: for every applied output length j, ``k_best[j]`` is the
    schedule's ``_least[x_str[:j]]``, or absent."""

    def __init__(self, given: CESetApprox, schedule: _Schedule) -> None:
        self.schedule = schedule
        self._set_by_stage = _by_stage(given.schedule)
        # Only segments up to the longest output are read, so X is kept that
        # far; fresh positions lie above every element (``BaseEngine``).
        self._bits = bytearray(b"0" * schedule.longest)
        self.x_str = self._bits.decode()
        # j -> (length, stage, codeword) of the least shortest description
        self.k_best: dict[int, tuple[int, int, str]] = {}
        # The keys of ``k_best``, sorted.
        self._keys: list[int] = []
        self.min_changed_pos: int | None = None

    def apply(self, stage: int, improved: _Improved) -> dict[int, int]:
        """Fold in the stage's given-set elements, then ``improved``, what
        the schedule's ``apply`` returned for the stage.
        ``min_changed_pos`` is the least element added, if any, until the
        engine's ``step`` has read it and cleared it.  Returns the lengths
        the stage's events strictly dropped, j -> new length, a first
        description included.

        The schedule is folded before the set change, so the recompute
        above the least element already reads the stage's events.  The
        table ends as it would with the events folded after the change:
        ``k_best[j]`` is ``_least[x_str[:j]]`` in either order (an output's
        last improving event is its least description); ``_keys`` holds
        each described j once, since the fold inserts only a j not yet in
        ``k_best``; and the drops are the improved events that match the
        new X in either order.  So a side's ``_dirty`` gains the same j
        too."""
        elements = self._set_by_stage.get(stage)
        if elements:
            for element in elements:
                if element < len(self._bits):
                    self._bits[element] = ord("1")
            self.x_str = self._bits.decode()
            self.min_changed_pos = min(elements)
            self._recompute_matches(self.min_changed_pos)
        drops: dict[int, int] = {}
        for output, candidate in improved:
            j = len(output)
            if output != self.x_str[:j]:
                continue
            if j not in self.k_best:
                bisect.insort(self._keys, j)
            self.k_best[j] = candidate
            # Events come in (stage, codeword) order, so one of equal
            # length never replaces: every improvement is a drop.
            drops[j] = candidate[0]
        return drops

    def _recompute_matches(self, position: int) -> None:
        # X|j is unchanged for j <= ``position``, and so is its best
        # description; above it, each applied length is looked up afresh.
        cut = bisect.bisect_right(self._keys, position)
        for j in self._keys[cut:]:
            del self.k_best[j]
        del self._keys[cut:]
        lengths = self.schedule._lengths
        for j in lengths[bisect.bisect_right(lengths, position) :]:
            best = self.schedule._least.get(self.x_str[:j])
            if best is not None:
                self.k_best[j] = best
                self._keys.append(j)


class _SideTracker(_Table):
    """The K(X|j) table of one side, with what the sides read besides: the
    output machine M_x, the j whose deficiency may have changed
    (``_dirty``) and those found deficient, the deficiency cursor, and
    exact interval sums of 2^-K(X|j), as ints in units of 2^-``sum_exp``
    of the schedule index, like marker deficits."""

    def __init__(
        self, side: str, given: CESetApprox, schedule: _Schedule
    ) -> None:
        super().__init__(given, schedule)
        self.machine = PrefixFreeMachine(f"M_{side}")
        self._deficient: set[int] = set()
        self._dirty: set[int] = set()

    def apply(self, stage: int, improved: _Improved) -> dict[int, int]:
        drops = super().apply(stage, improved)
        self._dirty.update(drops)
        return drops

    def _recompute_matches(self, position: int) -> None:
        # Every j above ``position`` that had a description joins the dirty
        # set, and so does every j whose new X|j has one, so no j that lost
        # its description stays deficient.
        self.mark_above(position)
        super()._recompute_matches(position)
        self.mark_above(position)

    def sum_range(self, lo_exclusive: int, hi_inclusive: int) -> int:
        """Exact sum of 2^-K(X|j) over described j in (lo, hi], in units
        of 2^-``sum_exp``."""
        lo = bisect.bisect_right(self._keys, lo_exclusive)
        hi = bisect.bisect_right(self._keys, hi_inclusive)
        exp = self.schedule.sum_exp
        return sum(
            1 << (exp - self.k_best[j][0]) for j in self._keys[lo:hi]
        )

    def mark_above(self, position: int) -> None:
        """Mark dirty every described j > ``position``: B|j or X|j
        changed."""
        cut = bisect.bisect_right(self._keys, position)
        self._dirty.update(self._keys[cut:])

    def deficiency_cursor(
        self, b_str: str, bound: int, inclusive: bool
    ) -> int | None:
        """Least j (< bound, or <= bound when inclusive) where the output
        machine describes the current B segment worse than K(X|j)."""
        if not self._dirty and not self._deficient:
            return None
        for j in self._dirty:
            best = self.k_best.get(j)
            if best is not None and self.machine.k_of(b_str[:j]) > best[0]:
                self._deficient.add(j)
            else:
                self._deficient.discard(j)
        self._dirty.clear()
        limit = bound + 1 if inclusive else bound
        return min((j for j in self._deficient if j < limit), default=None)


@dataclass
class Marker:
    """Finite-injury bookkeeping for one coding position."""

    index: int
    sides: tuple[str, ...]
    c: int
    position: int | None = None
    frozen: bool = False
    # The act count (``len(b_stage)``) when the marker was last unplaced.
    unplaced_at: int = 0
    machines: dict[str, PrefixFreeMachine] = field(default_factory=dict)
    t: dict[str, int | None] = field(default_factory=dict)
    p: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for side in self.sides:
            self.machines[side] = PrefixFreeMachine(f"N_{side}{self.index}")
            self.t[side] = None
            self.p[side] = 0


class BaseEngine:
    """Stage loop shared by the one-set and two-set constructions.

    Each placed marker i keeps, per side, a threshold t: the least key
    n <= s_old of the K(0^n) table ``zero`` at which N_i fails to describe
    X|n within K(0^n) + c_i.  Its weight q = 2^-(K(0^t) + c_i) is derived,
    not stored, and compared in ints with sums and deficits (``_fires``).
    A stage recomputes t only for the (index, side) pairs in ``_dirty``, in
    index order.  A pair is marked dirty when an input of its t changes:

    * the marker is placed: a fresh marker, or an injured one coming back
      with a reset machine and a larger c (unplaced markers have no t);
    * its N-machine grows (``_enumerate_n``);
    * ``zero`` gets a new key or a drop at n (``zero.apply`` returns
      both): pairs whose t is None or t >= n.  A change above t cannot
      move the least key, and one below t is repaired into N first, which
      marks the pair as growth;
    * the given set of the side changes at p and above: pairs whose t is
      None or t > p, since X|n is unchanged for n <= p;
    * s_old reaches a key that already exists: pairs whose t is None, since
      a defined t already lies at or below the previous s_old.

    An event that only improves the side tracker's ``k_best`` marks nothing:
    K(X|j) feeds the attention sums and the deficiency cursor, not t.

    These invariants and indexes keep the marker bookkeeping free of scans:

    * the placed markers are always ``markers[:placed]``: a place takes the
      least unplaced index, an act by i injures ``markers[i + 1 : placed]``
      and so unplaces every index above i, and marker 0 is never injured.
      An unplaced marker holds no position, t or machine entry, so an act
      leaves it as it is;
    * every placement of marker i, the first and each later one, gives it
      c = ``c_offset`` + i + (number of acts by lower indices so far).  Each
      act puts one new position into B, so ``len(b_stage)`` counts them.
      An injury adds the act that made it and notes the count in
      ``unplaced_at``; every act while i is unplaced is by a lower index,
      so a placement adds the acts since.  A new marker starts at
      ``c_offset`` + i with a count of 0;
    * the attention walk visits only ``_candidates``, the sorted indices of
      the placed markers that ``_can_act`` at the stage: those not frozen
      whose position lies within a described segment or whose index has
      entered the halting set.  The list changes only with these inputs: a
      place appends the new index if it can act, an act by i drops every
      index from i up and puts i back if it can still act (not if the act
      froze it), and an index joins at its halting stamp if it can act;
    * the placed pairs are indexed by t: ``_t_sorted`` holds (t, index,
      side) for every placed pair, sorted, with ``INFINITE`` for a t that is
      None.  It changes where t does: on place (None), in ``_compute_t``
      and on injury (the pair leaves).  The zero-drop repair and
      ``_mark_from`` each read one slice of it;
    * a fresh position is one past the larger of the stage and the last
      fresh position, which starts at the longest codeword (the index's
      ``sum_exp``, at least the initial position 1), the longest output
      and one past every element of a side's given set (``_fresh``);
    * the stage clock: after a bare no-op at stage s (no act, place or
      describe, no marker snapshot and no n-entry), every input a stage
      reads stays as it is until the first of these stages, so ``run``
      stops next there (``_next_stop``): the next stamp in ``_stamps``,
      which takes its event stages from the schedule index, its element
      stages from the given sets and its halting stages from the halting
      set; k + 1 for the least key k >= s of ``zero`` (s_old reaches a
      key) or of a side tracker (the upper bound of ``sum_range`` passes
      it); and the least deficient j of a side plus 2, or plus 1 on an
      inclusive cursor (the cursor's bound reaches it).  With no such
      stage the run ends in one record.  A stop that is only an event or
      given-set stamp (no halting stamp, and every other stop lies later)
      has its inputs applied by ``run`` first.  If K(0^n) did not drop, no
      side tracker has a dirty j and no element arrived, the stage repeats
      the no-op, since reading the no-op's cursors emptied every side's
      ``_dirty``; the clock goes on from it and ``step`` does not run.
      Otherwise ``step`` runs at that stage on the inputs already applied.
      Either way the schedule index folds a stage's events once, and a
      side's table is applied only at an event stamp that improved some
      description or at its own element stamps (``_apply``).
    """

    # The defaults are the one-set construction's; DualEngine overrides them.
    side_names: tuple[str, ...] = ("a",)
    c_offset: int = 3
    use_deficits: bool = False
    cursor_inclusive: bool = False
    engine_name: str = "single"

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.schedule = _Schedule(scenario.schedule.events)
        self.zero = _Table(CESetApprox(), self.schedule)
        given = {"a": scenario.set_a, "d": scenario.set_d}
        self.sides = {
            name: _SideTracker(name, given[name], self.schedule)
            for name in self.side_names
        }
        self.stage = 0
        self.b_stage: dict[int, int] = {}
        self.markers: list[Marker] = []
        # Placed markers are always ``markers[:placed]``.
        self.placed = 0
        # Sorted indices of the placed markers that ``_can_act``.
        self._candidates: list[int] = []
        # Placed (t, index, side), sorted, with INFINITE for a t of None.
        self._t_sorted: list[tuple[int | float, int, str]] = []
        self.archived: list[tuple[str, int, PrefixFreeMachine]] = []
        # A marker with a position above every described segment has zero
        # sums, so it can act only once its index enters the halting set
        # (``_can_act``).
        self._max_key_bound = self.schedule.longest
        # B is read only in described segments, so it is kept that far.
        self._b_bits = bytearray(b"0" * self._max_key_bound)
        self.b_str = self._b_bits.decode()
        # stage -> the indices that enter the halting set then
        self._halting_by_stage = _by_stage(scenario.halting.schedule)
        # Every stage at which an input arrives, sorted: an event, an
        # element of a side's given set or a halting stamp.
        entered = [p for name in self.side_names for p in given[name].schedule]
        self._stamps = sorted(
            set(self.schedule._events_by_stage)
            | set(self._halting_by_stage)
            | {stage for _, stage in entered}
        )
        # Fresh positions lie past the longest codeword (at least 1, the
        # initial position), every described segment and every element.
        floor = [self.schedule.sum_exp, self._max_key_bound]
        self._last_fresh = max(floor + [element + 1 for element, _ in entered])
        # At stage 0 the first marker is placed on position 1; halting stamps
        # may be 0, and no later stage joins them.
        self._place(0, 1, 0)
        # (marker index, side) pairs whose t the next stage recomputes.
        # Marker 0 needs no mark: no key exists yet, and every key it could
        # find later arrives through one of the rules for a t that is None.
        self._dirty: set[tuple[int, str]] = set()

    # -- plumbing -----------------------------------------------------------

    def _fresh(self, stage: int) -> int:
        """A position above every position so far, ``stage``, the longest
        codeword and output, and every element of a side's given set.  Every
        position so far is 1 or an earlier fresh one, so the running maximum
        needs no other input."""
        self._last_fresh = max(self._last_fresh, stage) + 1
        return self._last_fresh

    def _place(self, index: int, position: int, stage: int) -> None:
        """Place the least unplaced marker, ``index``, on ``position``."""
        if index == len(self.markers):
            self.markers.append(
                Marker(index, self.side_names, self.c_offset + index)
            )
        marker = self.markers[index]
        # Every act while the marker was unplaced was by a lower index and
        # put one position into B.
        marker.c += len(self.b_stage) - marker.unplaced_at
        marker.position = position
        self.placed = index + 1
        for side in self.side_names:
            bisect.insort(self._t_sorted, (INFINITE, index, side))
        if self._can_act(marker, stage):
            self._candidates.append(index)

    def _can_act(self, marker: Marker, stage: int) -> bool:
        """Whether some clause can fire for the placed ``marker`` at
        ``stage``: it is not frozen (a frozen position is in B, and a
        position enters B once), and its position lies within a described
        segment or its index has entered the halting set (above every
        segment the sums are 0).  This rule alone decides ``_candidates``."""
        return not marker.frozen and (
            marker.position <= self._max_key_bound
            or self.scenario.halting.contains(marker.index, stage)
        )

    def _b_add(self, position: int, stage: int) -> None:
        assert position not in self.b_stage, f"{position} enters B again"
        self.b_stage[position] = stage
        if position < len(self._b_bits):
            self._b_bits[position] = ord("1")
            self.b_str = self._b_bits.decode()
        for tracker in self.sides.values():
            tracker.mark_above(position)

    # -- per-stage parameters ----------------------------------------------

    def _compute_t(self, marker: Marker, side: str, s_old: int) -> None:
        """Recompute ``t`` of a dirty pair from scratch."""
        tracker = self.sides[side]
        machine = marker.machines[side]
        best = self.zero.k_best
        found: int | None = None
        for n in self.zero._keys:
            if n > s_old:
                break
            if machine.k_of(tracker.x_str[:n]) > best[n][0] + marker.c:
                found = n
                break
        old_t = marker.t[side]
        # Conditional monotonicity: unless X changed below the old value, t
        # may not decrease.  Growth of the machine only raises t, a reset
        # leaves it None, and drops of K(0^n) below t were repaired first.
        changed = tracker.min_changed_pos
        if (
            old_t is not None
            and found is not None
            and (changed is None or changed >= old_t)
        ):
            assert found >= old_t, (
                f"t_{side}[{marker.index}] dropped {old_t}->{found} "
                "without a set change below it"
            )
        marker.t[side] = found
        if found != old_t:
            pair = (marker.index, side)
            old_key = INFINITE if old_t is None else old_t
            del self._t_sorted[
                bisect.bisect_left(self._t_sorted, (old_key, *pair))
            ]
            new_key = INFINITE if found is None else found
            bisect.insort(self._t_sorted, (new_key, *pair))
        # Freshly placed positions exceed every stage bound, so t stays below
        # them; the initial position 1 (every fresh one is at least 2) and
        # frozen positions are the two legitimate exceptions.  Positions only
        # grow while t is kept, so checking when t changes is enough.
        if found is not None and not marker.frozen and marker.position != 1:
            assert found < marker.position, (
                f"t_{side}[{marker.index}]={found} not below marker position "
                f"{marker.position}"
            )

    def _mark_from(self, lowest: int | float, sides: tuple[str, ...]) -> None:
        """Mark dirty each placed pair on ``sides`` whose t is None or at
        least ``lowest``: a tail of ``_t_sorted``, where None sorts last."""
        tail = self._t_sorted[bisect.bisect_left(self._t_sorted, (lowest,)) :]
        self._dirty.update((i, side) for _, i, side in tail if side in sides)

    def _pairs_above(self, lowest: int) -> list[tuple[int, str, int]]:
        """The placed pairs whose t exceeds ``lowest``, as (index, side, t)
        in index then side order (side names sort in their declared
        order)."""
        start = bisect.bisect_left(self._t_sorted, (lowest + 1,))
        stop = bisect.bisect_left(self._t_sorted, (INFINITE,))
        return sorted(
            (i, side, t) for t, i, side in self._t_sorted[start:stop]
        )

    def _attention(
        self, marker: Marker, s_old: int, stage: int
    ) -> tuple[bool, dict[str, bool], dict[str, int]]:
        """Whether the candidate ``marker`` wants attention, the sum clauses
        that fire and the sums.  It is not frozen: its position is 1 or
        fresh, never in B."""
        sums = {
            side: self.sides[side].sum_range(marker.position, s_old)
            for side in self.side_names
        }
        fired = {}
        for side in self.side_names:
            t = marker.t[side]
            fired[side] = t is not None and _fires(
                sums[side],
                marker.p[side],
                self.zero.k_best[t][0] + marker.c,
                self.schedule.sum_exp,
            )
        halts = self.scenario.halting.contains(marker.index, stage)
        return halts or any(fired.values()), fired, sums

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
        length, _, justify = tracker.k_best[k]
        tracker.machine.describe(self.b_str[:k], length, stage)
        tracker._dirty.add(k)
        record.append({"side": side, "justify": justify, "cause": cause})

    def _enumerate_n(
        self,
        marker: Marker,
        side: str,
        k: int,
        length: int,
        stage: int,
        record: list[dict[str, Any]],
    ) -> None:
        marker.machines[side].describe(
            self.sides[side].x_str[:k], length, stage
        )
        self._dirty.add((marker.index, side))
        record.append({"side": side, "index": marker.index, "length": length})

    def _apply(self, stage: int) -> dict[int, int]:
        """Fold in the inputs that arrive at ``stage``: the schedule's
        events into the index once, then what they improved into every
        table.  A side's table is applied only when some event improved or
        at its own element stamps, and the K(0^n) table, which has no
        elements, only when some event improved.  Returns the drops of
        K(0^n)."""
        improved = self.schedule.apply(stage)
        for tracker in self.sides.values():
            if improved or stage in tracker._set_by_stage:
                tracker.apply(stage, improved)
        return self.zero.apply(stage, improved) if improved else {}

    def step(self, applied: dict[int, int] | None = None) -> dict[str, Any]:
        """Run one stage and return its trace record.  ``applied`` holds
        the drops of K(0^n) when ``run`` has already applied the stage's
        inputs (``_apply``)."""
        s_old = self.stage
        stage = s_old + 1
        zero_drops = self._apply(stage) if applied is None else applied

        # Repair drops below the previous stage's t first: this is what keeps
        # t from sliding backwards when only description lengths improve.
        n_entries: list[dict[str, Any]] = []
        if zero_drops:
            drops_sorted = sorted(zero_drops.items())
            for index, side, t in self._pairs_above(drops_sorted[0][0]):
                marker = self.markers[index]
                for k, new_len in drops_sorted:
                    if k < t:
                        length = new_len + marker.c
                        self._enumerate_n(
                            marker, side, k, length, stage, n_entries
                        )

        # Mark the pairs whose t has a changed input (see the class
        # docstring), then recompute just those.
        if zero_drops:
            # The pairs whose t is None are among these.
            self._mark_from(min(zero_drops), self.side_names)
        elif s_old in self.zero.k_best:
            self._mark_from(INFINITE, self.side_names)
        for side, tracker in self.sides.items():
            if tracker.min_changed_pos is not None:
                self._mark_from(tracker.min_changed_pos + 1, (side,))
        if self._dirty:
            for index, side in sorted(self._dirty):
                self._compute_t(self.markers[index], side, s_old)
            self._dirty.clear()
        for tracker in self.sides.values():
            tracker.min_changed_pos = None

        # A placed index that enters the halting set now joins the walk.
        for index in self._halting_by_stage.get(stage, []):
            if (
                index < self.placed
                and index not in self._candidates
                and self._can_act(self.markers[index], stage)
            ):
                bisect.insort(self._candidates, index)

        attention_index: int | None = None
        for index in self._candidates:
            wants, fired, sums = self._attention(
                self.markers[index], s_old, stage
            )
            if wants:
                attention_index = index
                break

        record: dict[str, Any] = {
            "stage": stage,
            "action": "noop",
            "clauses": None,
            "b_added": None,
            "injured": [],
            "m_entries": [],
            "n_entries": n_entries,
        }
        # The first record carries the initial placement of marker 0.
        touched = {0} if s_old == 0 else set()

        if attention_index is None:
            # Place when every side's cursor lies above the next index,
            # describe when some side has one.
            index = self.placed
            cursors: dict[str, int | None] = {}
            place, describe = True, False
            for side, tracker in self.sides.items():
                z = cursors[side] = tracker.deficiency_cursor(
                    self.b_str, s_old, self.cursor_inclusive
                )
                place = place and z is not None and index < z
                describe = describe or z is not None
            if place:
                self._place(index, self._fresh(stage), stage)
                self._dirty.update((index, side) for side in self.side_names)
                record["action"] = "place"
                touched.add(index)
            elif describe:
                record["action"] = "describe"
                for side in self.side_names:
                    z = cursors[side]
                    if z is not None:
                        self._describe_output(
                            side, z, stage, None, record["m_entries"]
                        )
        else:
            marker = self.markers[attention_index]
            clause_a = self.scenario.halting.contains(attention_index, stage)
            record["action"] = "act"
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
            else:
                marker.position = self._fresh(stage)
            for side, tracker in self.sides.items():
                keys = tracker._keys
                for k in keys[
                    bisect.bisect_right(keys, old_position) :
                    bisect.bisect_left(keys, s_old)
                ]:
                    if (
                        tracker.machine.k_of(old_b_str[:k])
                        <= tracker.k_best[k][0]
                    ):
                        self._describe_output(
                            side, k, stage, attention_index, record["m_entries"]
                        )
            for other in self.markers[attention_index + 1 : self.placed]:
                record["injured"].append(other.index)
                touched.add(other.index)
                other.position = None
                other.frozen = False
                other.c += 1
                other.unplaced_at = len(self.b_stage)
                for side in self.side_names:
                    self.archived.append(
                        (side, other.index, other.machines[side])
                    )
                    other.machines[side] = other.machines[side].reset()
                    other.t[side] = None
                    other.p[side] = 0
            self.placed = attention_index + 1
            del self._candidates[
                bisect.bisect_left(self._candidates, attention_index) :
            ]
            if self._can_act(marker, stage):
                self._candidates.append(attention_index)
            self._t_sorted = [
                entry
                for entry in self._t_sorted
                if entry[1] <= attention_index
            ]
            for side in self.side_names:
                if fired[side]:
                    t = marker.t[side]
                    assert t is not None
                    self._enumerate_n(
                        marker,
                        side,
                        t,
                        self.zero.k_best[t][0] + marker.c,
                        stage,
                        n_entries,
                    )
                    marker.p[side] = 0
                elif self.use_deficits and marker.t[side] is not None:
                    marker.p[side] += sums[side]

        record["markers"] = self._marker_snapshot(touched)
        self.stage = stage
        return record

    def _marker_snapshot(self, touched: set[int]) -> dict[str, Any]:
        """Delta snapshot: full state of just the markers touched this stage."""
        snapshot: dict[str, Any] = {}
        for index in sorted(touched):
            marker = self.markers[index]
            entry: dict[str, Any] = {"pos": marker.position, "c": marker.c}
            if self.use_deficits:
                for side in self.side_names:
                    entry[f"p_{side}"] = dyadic_str(
                        marker.p[side], self.schedule.sum_exp
                    )
            snapshot[str(index)] = entry
        return snapshot

    def header(self, stages: int) -> dict[str, Any]:
        return {
            "type": "header",
            "engine": self.engine_name,
            "stages": stages,
            "c_offset": self.c_offset,
        }

    def _next_stop(self) -> tuple[int | float, bool]:
        """After a bare no-op at ``self.stage``, the first later stage whose
        record can differ from it in more than ``stage``, INFINITE if none,
        and whether that stage is only an event or given-set stamp (see the
        class docstring)."""
        s = self.stage
        stop: int | float = INFINITE
        for tracker in (self.zero, *self.sides.values()):
            keys = tracker._keys
            i = bisect.bisect_left(keys, s)
            if i < len(keys):
                stop = min(stop, keys[i] + 1)
        reach = 1 if self.cursor_inclusive else 2
        for tracker in self.sides.values():
            if tracker._deficient:
                stop = min(stop, min(tracker._deficient) + reach)
        i = bisect.bisect_right(self._stamps, s)
        if i < len(self._stamps) and self._stamps[i] < stop:
            stamp = self._stamps[i]
            return stamp, stamp not in self._halting_by_stage
        return stop, False

    def _changes_nothing(self, zero_drops: dict[int, int]) -> bool:
        """Whether the inputs ``_apply`` just folded in after a bare no-op
        leave every input a stage reads as it was: K(0^n) did not drop, and
        no side tracker has a dirty j or a new element."""
        return not zero_drops and all(
            not tracker._dirty and tracker.min_changed_pos is None
            for tracker in self.sides.values()
        )

    def run(self, stages: int) -> list[dict[str, Any]]:
        """Execute stages 1..``stages``; returns the full trace.

        The trace has one record per stage, except that each maximal run of
        bare no-ops (no-op records with no marker snapshot and no n-entry)
        is one record whose ``repeat`` counts the stages it stands for: its
        own and those after it, which are identical but for ``stage``.  (A
        no-op found no deficiency cursor: one would have made it place or
        describe.)  The quiet tail is one such run.  After
        a bare no-op the loop stops next at ``_next_stop``, not at every
        stage in between.  At a stop that is only an event or given-set
        stamp it applies the inputs first, and steps only if they change
        something a stage reads; otherwise the stage joins the run.
        """
        if stages < 1:
            raise ValueError("stages must be >= 1")
        records = [self.header(stages)]
        folding: dict[str, Any] | None = None  # the open run's record
        # The drops of K(0^n) at the next stage, once its inputs are applied.
        applied: dict[int, int] | None = None
        while self.stage < stages:
            record = self.step(applied)
            applied = None
            if (
                record["action"] != "noop"
                or record["markers"]
                or record["n_entries"]
            ):
                records.append(record)
                folding = None
                continue
            if folding is None:
                folding = record
                records.append(record)
            # The stages before the next stop repeat this one, and so does
            # a stop whose inputs change nothing a stage reads.
            while True:
                stop, stamp_only = self._next_stop()
                if stamp_only and stop <= stages:
                    drops = self._apply(stop)
                    if self._changes_nothing(drops):
                        self.stage = stop
                        continue
                    applied = drops
                break
            self.stage = min(stop - 1, stages)
            if self.stage > folding["stage"]:
                folding["repeat"] = self.stage - folding["stage"] + 1
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
