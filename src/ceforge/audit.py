"""Trace replay and exact verification of the construction's bounds.

Everything here is recomputed from the serialized trace plus the scenario;
the auditor never reads engine internals, so it is an independent path over
the same events.  Marker records in the trace are deltas: each stage lists
the full state of just the markers that changed at that stage.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import Any

from .approx import Scenario
from .bitcore import Dyadic, INFINITE, ZERO


class LengthMismatch(ValueError):
    """An output-machine entry does not match its justifying codeword."""


@dataclass
class _Use:
    stage: int
    cause: int | None
    ordinal: int  # 1-based use count of the justifying event after this use


class UsageLedger:
    """Reuse accounting for one side's output machine against the schedule.

    ``S_k`` is the set of schedule descriptions used at least ``k + 1`` times;
    the containers are nested by construction of the counts.
    """

    def __init__(self, scenario: Scenario, side: str) -> None:
        self.side = side
        self.given = scenario.set_a if side == "a" else scenario.set_d
        self.output_of = {
            e.codeword: e.output for e in scenario.schedule.events
        }
        self.uses: dict[str, list[_Use]] = {}

    def record_use(
        self, u_codeword: str, m_length: int, stage: int, cause: int | None
    ) -> None:
        if u_codeword not in self.output_of:
            raise LengthMismatch(f"unknown justifying codeword {u_codeword!r}")
        if len(u_codeword) != m_length:
            raise LengthMismatch(
                f"entry length {m_length} != |{u_codeword!r}|"
            )
        bucket = self.uses.setdefault(u_codeword, [])
        bucket.append(_Use(stage, cause, len(bucket) + 1))

    def use_count(self, u_codeword: str) -> int:
        return len(self.uses.get(u_codeword, []))

    def containers(self) -> dict[int, set[str]]:
        """``k -> S_k`` for every nonempty container."""
        result: dict[int, set[str]] = {}
        for codeword, uses in self.uses.items():
            for k in range(len(uses)):
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
}
_N_ENTRY_FIELDS = {
    "side": (str,), "index": (int,), "version": (int,), "length": (int,),
}


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

    @classmethod
    def from_records(cls, records: list[dict[str, Any]]) -> "_Replay":
        if (
            not records
            or not isinstance(records[0], dict)
            or records[0].get("type") != "header"
        ):
            raise ValueError("trace must start with a header record")
        header = records[0]
        sides = ("a", "d") if header["engine"] == "dual" else ("a",)
        snap_fields = {"pos": _OPTIONAL_INT, "c": (int,)}
        if header["engine"] == "dual":
            snap_fields.update({f"p_{side}": (str,) for side in sides})
        replay = cls(header=header, stages=records[1:], sides=sides)
        for number, record in enumerate(replay.stages, 1):
            _require(record, _RECORD_FIELDS, number, "")
            for entry in record["m_entries"]:
                _require(entry, _M_ENTRY_FIELDS, number, " m_entries")
            for entry in record["n_entries"]:
                _require(entry, _N_ENTRY_FIELDS, number, " n_entries")
            added = record["b_added"]
            if added is not None:
                replay.b_stage[added] = record["stage"]
            for key, snap in record["markers"].items():
                _require(snap, snap_fields, number, " markers")
                replay.timelines.setdefault(int(key), []).append(
                    (record["stage"], snap)
                )
        return replay

    @property
    def final_stage(self) -> int:
        return self.stages[-1]["stage"] if self.stages else 0

    def in_b(self, position: int, stage: int) -> bool:
        entered = self.b_stage.get(position)
        return entered is not None and entered <= stage

    def b_restrict(self, n: int, stage: int) -> str:
        return "".join(
            "1" if self.in_b(i, stage) else "0" for i in range(n)
        )

    def marker_at(self, index: int, stage: int) -> dict[str, Any] | None:
        """Marker state after the given stage, or None if never materialized."""
        timeline = self.timelines.get(index)
        if not timeline:
            return None
        pos = bisect.bisect_right([s for s, _ in timeline], stage) - 1
        return timeline[pos][1] if pos >= 0 else None

    def marker_indices(self) -> list[int]:
        return sorted(self.timelines)

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
    for record in replay.stages:
        for entry in record["m_entries"]:
            side = entry["side"]
            ledger = ledgers[side]
            ledger.record_use(
                entry["justify"], entry["length"], record["stage"],
                entry["cause"],
            )
            m_weight[side] = m_weight[side] + Dyadic.pow2_neg(entry["length"])
            # Only descriptions active at the stage of the transition may
            # move one container deeper.
            count = ledger.use_count(entry["justify"])
            if count >= 2 and not ledger.is_active(
                entry["justify"], record["stage"]
            ):
                transitions_ok = False
                transition_witness = {
                    "side": side,
                    "codeword": entry["justify"],
                    "stage": record["stage"],
                }
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

    n_weights: dict[tuple[str, int, int], Dyadic] = {}
    for record in replay.stages:
        for entry in record["n_entries"]:
            key = (entry["side"], entry["index"], entry["version"])
            n_weights[key] = n_weights.get(key, ZERO) + Dyadic.pow2_neg(
                entry["length"]
            )
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

    # Cross-index ordering needs only the stages where some marker changed;
    # between change stages the configuration is constant.
    order_ok, order_witness = True, {}
    current: dict[int, int | None] = {}
    for record in replay.stages:
        if not record["markers"]:
            continue
        for key, snap in record["markers"].items():
            current[int(key)] = snap["pos"]
        defined = [
            (i, p) for i, p in sorted(current.items()) if p is not None
        ]
        for (i, p1), (j, p2) in zip(defined, defined[1:]):
            if not p1 < p2:
                order_ok = False
                order_witness = {
                    "stage": record["stage"], "i": i, "j": j,
                    "pos_i": p1, "pos_j": p2,
                }
    _check(checks, "marker-monotone-indices", order_ok, order_witness)
    _check(checks, "marker-consistency", consist_ok, consist_witness)

    checks.extend(_check_reuse_bounds(replay, scenario, ledgers))
    return checks


def _injury_stages(replay: _Replay, index: int) -> list[int]:
    return [
        record["stage"]
        for record in replay.stages
        if index in record["injured"]
    ]


def _check_reuse_bounds(
    replay: _Replay,
    scenario: Scenario,
    ledgers: dict[str, UsageLedger],
) -> list[dict[str, Any]]:
    """Per uninjured interval of each marker, the weight of the schedule
    descriptions it reused and that stay active at the interval end is at
    most 2^-c (plus the end-of-interval deficit on each side, dual case)."""
    checks: list[dict[str, Any]] = []
    dual = replay.header["engine"] == "dual"
    final = replay.final_stage
    ok = True
    witness: dict[str, Any] = {}
    for index in replay.marker_indices():
        boundaries = _injury_stages(replay, index)
        cuts = [0] + boundaries + [final + 1]
        for lo, hi in zip(cuts, cuts[1:]):
            start, end = lo + 1, hi - 1
            if start > end:
                continue
            if scenario.halting.contains(index, end):
                continue
            start_snap = replay.marker_at(index, start)
            end_snap = replay.marker_at(index, end)
            if (
                start_snap is None
                or end_snap is None
                or end_snap["pos"] is None
            ):
                continue
            c = start_snap["c"]
            for side, ledger in ledgers.items():
                reused = {
                    codeword
                    for codeword, uses in ledger.uses.items()
                    for use in uses
                    if use.cause == index
                    and start <= use.stage <= end
                    and use.ordinal >= 2
                }
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
    for side in replay.sides:
        given = scenario.set_a if side == "a" else scenario.set_d
        # K_M over the replayed entries: each entry described the stagewise
        # B segment of its length.
        k_m: dict[str, int] = {}
        for record in replay.stages:
            for entry in record["m_entries"]:
                if entry["side"] != side:
                    continue
                described = replay.b_restrict(entry["n"], record["stage"])
                known = k_m.get(described)
                if known is None or entry["length"] < known:
                    k_m[described] = entry["length"]
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
        k_a: dict[int, int] = {}
        for event in scenario.schedule.events:
            n = len(event.output)
            if event.output == given.restrict(n, final):
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
            segment = replay.b_restrict(n, final)
            if k_m.get(segment, INFINITE) > k_a[n]:
                ok = False
                witness = {
                    "side": side, "n": n,
                    "k_given": k_a[n],
                    "k_m": k_m.get(segment),
                }
                break
        _check(checks, f"coverage-{side}", ok, witness)
    return checks


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


def report_to_json(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def trace_to_jsonl(records: list[dict[str, Any]]) -> str:
    return "\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records
    ) + "\n"


def trace_from_jsonl(text: str) -> list[dict[str, Any]]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]
