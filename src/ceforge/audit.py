"""Trace replay and exact verification of the construction's bounds.

Everything here is recomputed from the serialized trace plus the scenario;
the auditor never reads engine internals, so it is an independent path over
the same events.  Marker records in the trace are deltas: each stage lists
the full state of just the markers that changed at that stage.  The quiet
tail of a run is one no-op record whose ``repeat`` field counts the stages
it stands for; such a record changes nothing, so the audit reads it once
and only its stage span matters.  The audit recomputes every machine weight
from the ``m_entries`` and ``n_entries``: a machine's weight is the sum of
2^-``length`` over its entries.  The engine writes no ``weights`` field, and
the audit reads none, so a trace with or without one (older traces wrote
it) audits to the same report.

The audit does work linear in the trace size.  ``_Replay.from_records``
reads the records once and builds every per-marker index the checks need
in that pass: the marker timelines (``marker_at`` bisects them by stage),
the injury stages of each marker and the stage at which each position
entered B.  ``check_weights`` walks the records once more, and its
``UsageLedger`` files each reuse under the marker that caused it as the
walk reaches it, so ``_check_reuse_bounds`` visits only the markers that
caused a reuse.  ``check_markers`` re-tests marker order only at the pairs
a record's marker changes touch, and ``check_coverage`` walks the records
with one B buffer that it slices for every segment.

``trace_to_jsonl`` writes each record with orjson, with sorted keys; its
lines equal those of the standard library's encoder with sorted keys and
compact separators byte for byte, because a trace holds only ASCII
strings, booleans, nulls and integers below 2^63 (a scenario's integers
lie below 2^53, see ``approx.JSON_INT_BOUND``).  Everything that reads
input from outside the program stays on the standard library's ``json``:
reading traces, and all scenario I/O.  So does writing reports, which can
echo integers read from a trace.  orjson 3.8.3 crashes the interpreter
with a segmentation fault on a line nested about 200,000 deep (seen at
200,000 and 1,000,000; 100,000 parses), reads integers past 64 bits as
floats, and raises on such integers when it writes them; the standard
library raises RecursionError on deep nesting and keeps every integer
exact.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import Any, Iterator

import orjson

from .approx import Scenario
from .bitcore import Dyadic, INFINITE, ZERO


class LengthMismatch(ValueError):
    """An output-machine entry does not match its justifying codeword."""


class UsageLedger:
    """Reuse accounting for one side's output machine against the schedule.

    ``uses`` counts the entries each schedule description justifies, and
    ``reuses`` maps each marker index to the ``(stage, codeword)`` of every
    use after the first that it caused, in stage order.  ``S_k`` is the set
    of schedule descriptions used at least ``k + 1`` times; the containers
    are nested by construction of the counts.
    """

    def __init__(self, scenario: Scenario, side: str) -> None:
        self.side = side
        self.given = scenario.set_a if side == "a" else scenario.set_d
        self.output_of = {
            e.codeword: e.output for e in scenario.schedule.events
        }
        self.uses: dict[str, int] = {}
        self.reuses: dict[int, list[tuple[int, str]]] = {}

    def record_use(
        self,
        u_codeword: str,
        m_length: int,
        n: int,
        stage: int,
        cause: int | None,
    ) -> int:
        """Count one use of ``u_codeword`` by an output-machine entry of
        ``m_length`` bits describing a segment of length ``n``, and return
        its use count.  Uses must be recorded in stage order."""
        if u_codeword not in self.output_of:
            raise LengthMismatch(f"unknown justifying codeword {u_codeword!r}")
        if len(u_codeword) != m_length:
            raise LengthMismatch(
                f"entry length {m_length} != |{u_codeword!r}|"
            )
        if len(self.output_of[u_codeword]) != n:
            raise LengthMismatch(
                f"entry n {n} != output length of {u_codeword!r}"
            )
        count = self.uses.get(u_codeword, 0) + 1
        self.uses[u_codeword] = count
        if count >= 2 and cause is not None:
            self.reuses.setdefault(cause, []).append((stage, u_codeword))
        return count

    def containers(self) -> dict[int, set[str]]:
        """``k -> S_k`` for every nonempty container."""
        result: dict[int, set[str]] = {}
        for codeword, count in self.uses.items():
            for k in range(count):
                result.setdefault(k, set()).add(codeword)
        return result

    def is_active(self, u_codeword: str, stage: int) -> bool:
        output = self.output_of[u_codeword]
        return output == self.given.restrict(len(output), stage)


def _wgt(codewords: set[str]) -> Dyadic:
    total = ZERO
    for word in codewords:
        total = total + Dyadic.pow2_neg(len(word))
    return total


def _check(
    checks: list[dict[str, Any]],
    name: str,
    ok: bool,
    witness: dict[str, Any],
) -> None:
    checks.append({"name": name, "pass": bool(ok), "witness": witness})


# Field types the checks rely on, for each part of a stage record.
_OPTIONAL_INT = (int, type(None))
_RECORD_FIELDS = {
    "stage": (int,),
    "b_added": _OPTIONAL_INT,
    "markers": (dict,),
    "injured": (list,),
    "m_entries": (list,),
    "n_entries": (list,),
}
_M_ENTRY_FIELDS = {
    "side": (str,), "justify": (str,), "length": (int,), "n": (int,),
    "cause": _OPTIONAL_INT, "codeword": (str,),
}
_N_ENTRY_FIELDS = {
    "side": (str,), "index": (int,), "version": (int,), "length": (int,),
    "codeword": (str,),
}
_ENTRY_FIELDS = {"m_entries": _M_ENTRY_FIELDS, "n_entries": _N_ENTRY_FIELDS}


#: The c of marker i starts at c_offset + i; each engine has its own offset.
_C_OFFSETS = {"single": 3, "dual": 4}


def _repeat(record: dict[str, Any], number: int) -> int:
    """The number of stages stage record ``number`` stands for.

    A quiet-tail record with ``repeat`` n stands for its own stage and the
    n - 1 after it.  It may change nothing, so that every index and check
    reads the same as on the trace with the n records written out.
    """
    if "repeat" not in record:
        return 1
    repeat = record["repeat"]
    if type(repeat) is not int or repeat < 2:
        raise ValueError(
            f"malformed trace: record {number} repeat {repeat!r} is not an "
            "int of at least 2"
        )
    if record["b_added"] is not None or any(
        record[key] for key in ("injured", "markers", "m_entries", "n_entries")
    ):
        raise ValueError(
            f"malformed trace: record {number} repeats a stage that changes "
            "something"
        )
    return repeat


def _require(
    value: Any, fields: dict[str, tuple[type, ...]], number: int, part: str
) -> None:
    """Raise ValueError unless ``value``, the ``part`` of stage record
    ``number``, is an object with these fields."""
    if type(value) is not dict:
        raise ValueError(
            f"malformed trace: record {number}{part} is not an object"
        )
    for key, kinds in fields.items():
        if type(value.get(key)) not in kinds:
            raise ValueError(
                f"malformed trace: record {number}{part} field {key!r} is "
                "missing or of the wrong type"
            )


@dataclass
class _Replay:
    """State rebuilt from the trace records alone."""

    header: dict[str, Any]
    stages: list[dict[str, Any]]
    sides: tuple[str, ...]
    b_stage: dict[int, int] = field(default_factory=dict)
    # index -> ordered (stage, snapshot) change events
    timelines: dict[int, list[tuple[int, dict[str, Any]]]] = field(
        default_factory=dict
    )
    # index -> the stages at which it was injured, in order
    injuries: dict[int, list[int]] = field(default_factory=dict)
    # the last stage the records cover
    final_stage: int = 0

    @classmethod
    def from_records(cls, records: list[dict[str, Any]]) -> "_Replay":
        if (
            not records
            or not isinstance(records[0], dict)
            or records[0].get("type") != "header"
        ):
            raise ValueError("trace must start with a header record")
        header = records[0]
        engine = header.get("engine")
        if type(engine) is not str or engine not in _C_OFFSETS:
            raise ValueError(f"malformed trace: unknown engine {engine!r}")
        if type(header.get("stages")) is not int:
            raise ValueError(
                "malformed trace: header field 'stages' is missing or of "
                "the wrong type"
            )
        c_offset = header.get("c_offset")
        if type(c_offset) is not int or c_offset != _C_OFFSETS[engine]:
            raise ValueError(
                f"malformed trace: header c_offset {c_offset!r} is not the "
                f"{engine} engine's {_C_OFFSETS[engine]}"
            )
        sides = ("a", "d") if engine == "dual" else ("a",)
        snap_fields = {"pos": _OPTIONAL_INT, "c": (int,)}
        if engine == "dual":
            snap_fields.update({f"p_{side}": (str,) for side in sides})
        replay = cls(header=header, stages=records[1:], sides=sides)
        previous = 0  # the last stage the records so far cover
        acts = 0
        for number, record in enumerate(replay.stages, 1):
            _require(record, _RECORD_FIELDS, number, "")
            for part, fields in _ENTRY_FIELDS.items():
                for entry in record[part]:
                    _require(entry, fields, number, f" {part}")
                    if entry["side"] not in sides:
                        raise ValueError(
                            f"malformed trace: record {number} {part} side "
                            f"{entry['side']!r} is not a {engine} engine side"
                        )
                    word, length = entry["codeword"], entry["length"]
                    # two counts run faster than one strip("01")
                    if len(word) != length or (
                        word.count("0") + word.count("1") != length
                    ):
                        raise ValueError(
                            f"malformed trace: record {number} {part} "
                            f"codeword is not {length} bits of 0 and 1"
                        )
            stage = record["stage"]
            if number > 1 and stage <= previous:
                raise ValueError(
                    f"malformed trace: record {number} stage {stage} does "
                    f"not follow stage {previous}"
                )
            previous = stage + _repeat(record, number) - 1
            added = record["b_added"]
            if added is not None:
                # a position in B gets no attention, so it enters B once
                if added in replay.b_stage:
                    raise ValueError(
                        f"malformed trace: record {number} adds position "
                        f"{added} to B again"
                    )
                replay.b_stage[added] = stage
                acts += 1
            for index in record["injured"]:
                if type(index) is not int:
                    raise ValueError(
                        f"malformed trace: record {number} injured index "
                        f"{index!r} is not an int"
                    )
                replay.injuries.setdefault(index, []).append(stage)
            for key, snap in record["markers"].items():
                _require(snap, snap_fields, number, " markers")
                index = int(key)
                # Markers appear one index at a time.  A marker's c is
                # c_offset + index plus the acts of lower markers so far:
                # set so at each placement, and one more at an injury,
                # which is such an act.  So it lies between c_offset +
                # index and c_offset + index + acts.
                if (
                    index not in replay.timelines
                    and index != len(replay.timelines)
                ):
                    raise ValueError(
                        f"malformed trace: record {number} marker {index} "
                        f"appears before marker {len(replay.timelines)}"
                    )
                least = c_offset + index
                if not least <= snap["c"] <= least + acts:
                    raise ValueError(
                        f"malformed trace: record {number} marker {index} c "
                        f"{snap['c']} lies outside {least}..{least + acts}"
                    )
                replay.timelines.setdefault(index, []).append((stage, snap))
        if previous > header["stages"]:
            raise ValueError(
                f"malformed trace: records run to stage {previous}, past "
                f"the header's {header['stages']}"
            )
        replay.final_stage = previous
        return replay

    def in_b(self, position: int, stage: int) -> bool:
        entered = self.b_stage.get(position)
        return entered is not None and entered <= stage

    def b_walk(self, bits: bytearray) -> Iterator[dict[str, Any]]:
        """Yield the records in order, first setting the position each one
        adds to B, so that ``bits`` holds B below ``len(bits)``, as ``0``
        and ``1`` bytes, at the stage of the record yielded."""
        for record in self.stages:
            added = record["b_added"]
            if added is not None and 0 <= added < len(bits):
                bits[added] = ord("1")
            yield record

    def marker_at(self, index: int, stage: int) -> dict[str, Any] | None:
        """Marker state after the given stage, or None if never materialized."""
        timeline = self.timelines.get(index)
        if not timeline:
            return None
        pos = bisect.bisect_right(timeline, stage, key=lambda e: e[0]) - 1
        return timeline[pos][1] if pos >= 0 else None

    def final_markers(self) -> dict[int, dict[str, Any]]:
        return {
            index: timeline[-1][1]
            for index, timeline in self.timelines.items()
        }


def check_weights(
    replay: _Replay, scenario: Scenario
) -> tuple[list[dict[str, Any]], dict[str, UsageLedger]]:
    checks: list[dict[str, Any]] = []
    ledgers = {side: UsageLedger(scenario, side) for side in replay.sides}
    m_weight = {side: ZERO for side in replay.sides}
    transitions_ok = True
    transition_witness: dict[str, Any] = {}
    # An N-entry is K(0^k) + c bits long for a schedule description of 0^k
    # and a counter c, and every counter a marker takes shows in a snapshot.
    max_length = max(
        (len(e.codeword) for e in scenario.schedule.events), default=0
    ) + max(
        (
            snap["c"]
            for timeline in replay.timelines.values()
            for _, snap in timeline
        ),
        default=0,
    )
    n_weights: dict[tuple[str, int, int], Dyadic] = {}
    for number, record in enumerate(replay.stages, 1):
        stage = record["stage"]
        for entry in record["m_entries"]:
            side = entry["side"]
            ledger = ledgers[side]
            count = ledger.record_use(
                entry["justify"], entry["length"], entry["n"], stage,
                entry["cause"],
            )
            m_weight[side] = m_weight[side] + Dyadic.pow2_neg(entry["length"])
            # Only descriptions active at the stage of the transition may
            # move one container deeper.
            if count >= 2 and not ledger.is_active(entry["justify"], stage):
                transitions_ok = False
                transition_witness = {
                    "side": side,
                    "codeword": entry["justify"],
                    "stage": stage,
                }
        for entry in record["n_entries"]:
            if entry["length"] > max_length:
                raise ValueError(
                    f"malformed trace: record {number} n_entries length "
                    f"{entry['length']} exceeds {max_length}"
                )
            key = (entry["side"], entry["index"], entry["version"])
            n_weights[key] = n_weights.get(key, ZERO) + Dyadic.pow2_neg(
                entry["length"]
            )
    _check(checks, "active-transitions", transitions_ok, transition_witness)

    for side in replay.sides:
        containers = ledgers[side].containers()
        total = ZERO
        bounds_ok = True
        witness: dict[str, Any] = {}
        for k in sorted(containers):
            weight = _wgt(containers[k])
            total = total + weight
            bound = Dyadic.pow2_neg(2 if k == 0 else k + 1)
            if not weight < bound:
                bounds_ok = False
                witness = {"k": k, "weight": str(weight), "bound": str(bound)}
                break
        _check(checks, f"decanter-bounds-{side}", bounds_ok, witness)
        _check(
            checks,
            f"m-weight-{side}",
            m_weight[side] <= total,
            {"m": str(m_weight[side]), "container_sum": str(total)},
        )
        nesting_ok = all(
            containers.get(k + 1, set()) <= containers[k]
            for k in containers
        )
        _check(checks, f"container-nesting-{side}", nesting_ok, {})

    half = Dyadic.pow2_neg(1)
    strict = replay.header["engine"] == "dual"
    n_ok = True
    n_witness: dict[str, Any] = {}
    for key, weight in sorted(n_weights.items()):
        ok = weight < half if strict else weight <= half
        if not ok:
            n_ok = False
            side, index, version = key
            n_witness = {
                "side": side,
                "index": index,
                "version": version,
                "weight": str(weight),
            }
            break
    _check(checks, "n-machine-bounds", n_ok, n_witness)
    return checks, ledgers


def check_markers(
    replay: _Replay,
    scenario: Scenario,
    ledgers: dict[str, UsageLedger],
) -> list[dict[str, Any]]:
    checks: list[dict[str, Any]] = []

    mono_ok, mono_witness = True, {}
    consist_ok, consist_witness = True, {}
    for index, timeline in replay.timelines.items():
        for (_, before), (stage, after) in zip(timeline, timeline[1:]):
            if before["pos"] is None or after["pos"] is None:
                continue
            if after["pos"] < before["pos"]:
                mono_ok = False
                mono_witness = {
                    "stage": stage, "index": index,
                    "from": before["pos"], "to": after["pos"],
                }
            if after["pos"] != before["pos"] and not replay.in_b(
                before["pos"], stage
            ):
                # an abandoned position must sit in B from that stage on
                consist_ok = False
                consist_witness = {
                    "stage": stage, "index": index,
                    "abandoned": before["pos"],
                }
    _check(checks, "marker-monotone-stages", mono_ok, mono_witness)

    # Cross-index ordering: each placed marker's position lies below that
    # of the next placed index.  Between change records the configuration
    # is constant, and a record can only change the pairs that start at a
    # changed index or at its placed predecessor.  So each change record
    # first applies every change to ``current`` (markers appear one index
    # at a time, ``from_records``) and to ``placed``, the sorted placed
    # indices, and then re-tests just those pairs.  ``bad`` holds each
    # placed i whose pair with its placed successor is out of order.  The
    # witness is the last violation a full scan would report: the greatest
    # i in ``bad`` at the last change record where ``bad`` is non-empty,
    # with j its placed successor.
    order_ok, order_witness = True, {}
    current: list[int | None] = []
    placed: list[int] = []
    bad: set[int] = set()
    for record in replay.stages:
        if not record["markers"]:
            continue
        changed = []
        for key, snap in record["markers"].items():
            index = int(key)
            pos = snap["pos"]
            if index == len(current):
                current.append(None)
            if (current[index] is None) != (pos is None):
                if pos is None:
                    del placed[bisect.bisect_left(placed, index)]
                else:
                    bisect.insort(placed, index)
            current[index] = pos
            changed.append(index)
        for index in changed:
            k = bisect.bisect_left(placed, index)
            if k < len(placed) and placed[k] == index:
                starts = (k - 1, k)
            else:
                bad.discard(index)
                starts = (k - 1,)
            for t in starts:
                if t < 0:
                    continue
                i = placed[t]
                if t + 1 < len(placed) and not (
                    current[i] < current[placed[t + 1]]
                ):
                    bad.add(i)
                else:
                    bad.discard(i)
        if bad:
            order_ok = False
            i = max(bad)
            j = placed[bisect.bisect_right(placed, i)]
            order_witness = {
                "stage": record["stage"], "i": i, "j": j,
                "pos_i": current[i], "pos_j": current[j],
            }
    _check(checks, "marker-monotone-indices", order_ok, order_witness)
    _check(checks, "marker-consistency", consist_ok, consist_witness)

    checks.extend(_check_reuse_bounds(replay, scenario, ledgers))
    return checks


def _reused(reuses: list[tuple[int, str]], start: int, end: int) -> set[str]:
    """Codewords of the stage-ordered ``reuses`` made in ``[start, end]``."""
    lo = bisect.bisect_left(reuses, (start,))
    hi = bisect.bisect_left(reuses, (end + 1,))
    return {codeword for _, codeword in reuses[lo:hi]}


def _check_reuse_bounds(
    replay: _Replay,
    scenario: Scenario,
    ledgers: dict[str, UsageLedger],
) -> list[dict[str, Any]]:
    """Per uninjured interval of each marker, the weight of the schedule
    descriptions it reused and that stay active at the interval end is at
    most 2^-c (plus the end-of-interval deficit on each side, dual case).

    An interval counts only if the marker is placed at its end, and c is
    read off the end snapshot.  A marker causes a reuse only while it is
    placed, and within an interval it is first unplaced (until the engine
    places it again, or from stage 1 until it first appears) and then
    placed, with one c.  So the end c is the one in force at every reuse,
    and a first interval, which starts before the marker's first
    snapshot, is checked like any other.

    Only the markers that caused a reuse are visited.  In any other
    interval the weight is 0 on every side and every bound is at least 0,
    so the interval passes.  A failing interval holds a reuse, so the
    witness is still the last failure in index order.
    """
    checks: list[dict[str, Any]] = []
    dual = replay.header["engine"] == "dual"
    final = replay.final_stage
    causes = set().union(*(ledger.reuses for ledger in ledgers.values()))
    ok = True
    witness: dict[str, Any] = {}
    for index in sorted(causes):
        cuts = [0] + replay.injuries.get(index, []) + [final + 1]
        for lo, hi in zip(cuts, cuts[1:]):
            start, end = lo + 1, hi - 1
            if start > end:
                continue
            if scenario.halting.contains(index, end):
                continue
            end_snap = replay.marker_at(index, end)
            if end_snap is None or end_snap["pos"] is None:
                continue
            c = end_snap["c"]
            for side, ledger in ledgers.items():
                reused = _reused(ledger.reuses.get(index, []), start, end)
                active = {
                    cw for cw in reused if ledger.is_active(cw, end)
                }
                weight = _wgt(active)
                bound = Dyadic.pow2_neg(c)
                if dual:
                    bound = bound + Dyadic.parse(end_snap[f"p_{side}"])
                if not weight <= bound:
                    ok = False
                    witness = {
                        "index": index, "side": side,
                        "interval": [start, end],
                        "weight": str(weight), "bound": str(bound),
                    }
    _check(checks, "reuse-bounds", ok, witness)
    return checks


def stability_horizon(replay: _Replay) -> int:
    """Least stage from which no marker changes again."""
    horizon = 0
    for timeline in replay.timelines.values():
        horizon = max(horizon, timeline[-1][0])
    return horizon


def stable_indices(replay: _Replay) -> list[int]:
    """Markers defined and unchanged over the final quarter of the run."""
    final = replay.final_stage
    cutoff = final - final // 4
    result = []
    for index, timeline in replay.timelines.items():
        last_stage, snap = timeline[-1]
        if snap["pos"] is not None and last_stage <= cutoff:
            result.append(index)
    return sorted(result)


def decode_halting(
    replay: _Replay, scenario: Scenario
) -> list[dict[str, Any]]:
    """Read membership in the halting set off the final B snapshot."""
    final = replay.final_stage
    table = []
    for index, snap in sorted(replay.final_markers().items()):
        position = snap["pos"]
        if position is None:
            decision = None
        else:
            decision = replay.in_b(position, final)
        actual = scenario.halting.contains(index, final)
        table.append(
            {
                "index": index,
                "position": position,
                "decision": decision,
                "actual": actual,
                "match": decision is None or decision == actual,
            }
        )
    return table


def check_coverage(
    replay: _Replay, scenario: Scenario
) -> list[dict[str, Any]]:
    """At the final stage, the output machine describes B at least as
    tightly as the schedule describes the given set, below the region the
    run has stopped disturbing."""
    checks: list[dict[str, Any]] = []
    final = replay.final_stage
    cutoff = final - final // 4
    # Every segment here is a schedule output: an entry's n is the output
    # length of its justifying event (``UsageLedger.record_use``).
    width = max((len(e.output) for e in scenario.schedule.events), default=0)
    # K_M over the replayed entries: each entry described the stagewise B
    # segment of its length.
    k_m: dict[str, dict[str, int]] = {side: {} for side in replay.sides}
    bits = bytearray(b"0" * width)
    for record in replay.b_walk(bits):
        for entry in record["m_entries"]:
            described = bits[: entry["n"]].decode()
            side_k_m = k_m[entry["side"]]
            known = side_k_m.get(described)
            if known is None or entry["length"] < known:
                side_k_m[described] = entry["length"]
    b_final = bits.decode()
    for side in replay.sides:
        given = scenario.set_a if side == "a" else scenario.set_d
        # Largest n undisturbed over the final quarter: no B or given-set
        # change below it, and no late schedule event describing a segment
        # at or below it.
        quiet_bound = INFINITE
        for position, stage in replay.b_stage.items():
            if stage > cutoff and position < quiet_bound:
                quiet_bound = position
        for element, stage in given.schedule:
            if stage > cutoff and element < quiet_bound:
                quiet_bound = element
        given_final = given.restrict(width, final)
        k_a: dict[int, int] = {}
        for event in scenario.schedule.events:
            n = len(event.output)
            if event.output == given_final[:n]:
                known = k_a.get(n)
                if known is None or len(event.codeword) < known:
                    k_a[n] = len(event.codeword)
            if event.stage > cutoff and n < quiet_bound:
                quiet_bound = n
        ok = True
        witness: dict[str, Any] = {}
        for n in sorted(k_a):
            if n >= quiet_bound:
                break
            segment = b_final[:n]
            if k_m[side].get(segment, INFINITE) > k_a[n]:
                ok = False
                witness = {
                    "side": side, "n": n,
                    "k_given": k_a[n],
                    "k_m": k_m[side].get(segment),
                }
                break
        _check(checks, f"coverage-{side}", ok, witness)
    return checks


def _require_deficits(replay: _Replay, scenario: Scenario) -> None:
    """Raise ValueError unless every snapshot deficit ``num/2^exp`` has
    0 <= exp <= the longest schedule codeword.

    A deficit is a sum of weights 2^-K(X|j), each a multiple of 2^-(that
    length), so no exponent outside the range can occur; one far outside
    it would cost memory in the first comparison or in parsing itself.
    """
    if replay.header["engine"] != "dual":
        return
    longest = max(
        (len(e.codeword) for e in scenario.schedule.events), default=0
    )
    for index, timeline in replay.timelines.items():
        for stage, snap in timeline:
            for side in replay.sides:
                _, sep, exp = snap[f"p_{side}"].partition("/2^")
                if sep and not 0 <= int(exp) <= longest:
                    raise ValueError(
                        f"malformed trace: marker {index} at stage {stage} "
                        f"has p_{side} with an exponent outside 0..{longest}"
                    )


def check_deficits(replay: _Replay) -> list[dict[str, Any]]:
    """Dual runs only: every recorded deficit stays at most 2^-c."""
    checks: list[dict[str, Any]] = []
    if replay.header["engine"] != "dual":
        return checks
    ok = True
    witness: dict[str, Any] = {}
    for index, timeline in replay.timelines.items():
        for stage, snap in timeline:
            if snap["pos"] is None:
                continue
            bound = Dyadic.pow2_neg(snap["c"])
            for side in replay.sides:
                p = Dyadic.parse(snap[f"p_{side}"])
                if not p <= bound:
                    ok = False
                    witness = {
                        "stage": stage, "index": index,
                        "side": side, "p": str(p), "bound": str(bound),
                    }
    _check(checks, "deficit-bounds", ok, witness)
    return checks


def audit_trace(
    records: list[dict[str, Any]], scenario: Scenario
) -> dict[str, Any]:
    """Full audit of a trace against its scenario; pure and deterministic."""
    replay = _Replay.from_records(records)
    _require_deficits(replay, scenario)
    checks, ledgers = check_weights(replay, scenario)
    checks.extend(check_markers(replay, scenario, ledgers))
    checks.extend(check_coverage(replay, scenario))
    checks.extend(check_deficits(replay))
    table = decode_halting(replay, scenario)
    stable = set(stable_indices(replay))
    coding_ok = all(
        row["match"] for row in table if row["index"] in stable
    )
    coding_witness = next(
        (
            row for row in table
            if row["index"] in stable and not row["match"]
        ),
        {},
    )
    _check(checks, "coding", coding_ok, dict(coding_witness))
    return {
        "engine": replay.header["engine"],
        "stages": replay.header["stages"],
        "stability_horizon": stability_horizon(replay),
        "stable_markers": sorted(stable),
        "coding_table": table,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


# ``json.dumps`` with non-default arguments builds a new encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def report_to_json(report: dict[str, Any]) -> str:
    return _ENCODER.encode(report)


def trace_to_jsonl(records: list[dict[str, Any]]) -> str:
    # Each line is decoded as it is made: decoding one joined bytes object
    # would hold a second copy of the whole trace.
    return "".join(
        [
            orjson.dumps(record, option=orjson.OPT_SORT_KEYS).decode() + "\n"
            for record in records
        ]
    )


def trace_from_jsonl(text: str) -> list[dict[str, Any]]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]
