"""Naive reference scans for the incremental structures in ``ceforge``.

Each oracle recomputes its value from scratch by scanning every stamped
event, entry or trace record, so it shares no bookkeeping with the code it
checks.
"""

import bisect
import json
from typing import Any

from ceforge.approx import Scenario, block_range
from ceforge.audit import (
    UsageLedger,
    _check,
    _check_reuse_bounds,
    _Replay,
    _wgt,
    decode_halting,
    stability_horizon,
    stable_indices,
)
from ceforge.bitcore import Dyadic, INFINITE, ZERO, dyadic_parts, dyadic_str
from ceforge.cli import EXIT_OK, EXIT_SCENARIO, KC_LENGTH_BOUND
from ceforge.machines import Exhausted, FreeBlockSet


def canonical_loop(num: int, exp: int) -> tuple[int, int]:
    """The canonical form of num/2^exp, num >= 0, reached one trailing zero
    bit per loop turn, as ``Dyadic`` once did."""
    if exp < 0:
        num <<= -exp
        exp = 0
    while num and num % 2 == 0 and exp > 0:
        num >>= 1
        exp -= 1
    if num == 0:
        exp = 0
    return num, exp


def k_at(schedule, output: str, stage: int):
    """K(output)[stage]: shortest schedule codeword for ``output`` among the
    events enumerated by ``stage``."""
    return min(
        (
            len(event.codeword)
            for event in schedule.events
            if event.stage <= stage and event.output == output
        ),
        default=INFINITE,
    )


def k_at_n(schedule, n: int, stage: int):
    """K(n)[stage], identifying the number ``n`` with the string 0^n."""
    return k_at(schedule, "0" * n, stage)


def fires_dyadic(s, p, q) -> bool:
    """The sum clause in dyadics: the sum ``s`` is positive and reaches the
    threshold q - p, floored at 0."""
    threshold = q - p if q >= p else ZERO
    return s > ZERO and s >= threshold


def thresholds(engine, marker, side):
    """``(q, p)`` of a marker on ``side`` as dyadics, with q = 2^-(K(0^t) + c)
    read off the schedule at the engine's stage; None while t is undefined."""
    t = marker.t[side]
    if t is None:
        return None
    k = k_at_n(engine.scenario.schedule, t, engine.stage)
    q = Dyadic.pow2_neg(k + marker.c)
    return q, Dyadic(marker.p[side], engine.schedule.sum_exp)


def machine_k_at(machine, output: str, stage=INFINITE):
    """Shortest codeword ``machine`` holds for ``output`` by ``stage``."""
    return min(
        (
            len(entry.codeword)
            for entry in machine.entries
            if entry.stage <= stage and entry.output == output
        ),
        default=INFINITE,
    )


def injury_stages(replay, index: int) -> list[int]:
    """Stages at which marker ``index`` was injured, from every record."""
    return [
        record["stage"]
        for record in replay.stages
        if index in record["injured"]
    ]


def reuses(replay, side: str) -> dict[int, list[tuple[int, str]]]:
    """Marker index -> ``(stage, codeword)`` of every use after the first of
    a schedule description on ``side`` that names that marker as its cause,
    in trace order, counted from the m-entries of every record."""
    uses: dict[str, int] = {}
    result: dict[int, list[tuple[int, str]]] = {}
    for record in replay.stages:
        for entry in record["m_entries"]:
            if entry["side"] != side:
                continue
            codeword = entry["justify"]
            uses[codeword] = uses.get(codeword, 0) + 1
            if uses[codeword] >= 2 and entry["cause"] is not None:
                result.setdefault(entry["cause"], []).append(
                    (record["stage"], codeword)
                )
    return result


def reused(replay, side: str, index: int, start: int, end: int) -> set[str]:
    """Codewords on ``side`` whose uses after the first include one caused
    by marker ``index`` within stages ``[start, end]``, from the records."""
    return {
        codeword
        for stage, codeword in reuses(replay, side).get(index, [])
        if start <= stage <= end
    }


def reuse_bounds(replay, scenario) -> dict:
    """The ``reuse-bounds`` check entry from a full scan: every uninjured
    interval of every marker that is placed at its end, with the reuses
    counted from the records, the active descriptions read off the
    scenario and c read off the end snapshot."""
    dual = replay.header["engine"] == "dual"
    final = replay.final_stage
    output_of = {e.codeword: e.output for e in scenario.schedule.events}
    by_side = {side: reuses(replay, side) for side in replay.sides}
    ok, witness = True, {}
    for index in sorted(replay.timelines):
        cuts = [0] + injury_stages(replay, index) + [final + 1]
        for lo, hi in zip(cuts, cuts[1:]):
            start, end = lo + 1, hi - 1
            if start > end or scenario.halting.contains(index, end):
                continue
            end_snap = replay.marker_at(index, end)
            if end_snap is None or end_snap["pos"] is None:
                continue
            for side in replay.sides:
                given = scenario.set_a if side == "a" else scenario.set_d
                weight = ZERO
                for codeword in {
                    codeword
                    for stage, codeword in by_side[side].get(index, [])
                    if start <= stage <= end
                }:
                    output = output_of[codeword]
                    if output == given.restrict(len(output), end):
                        weight = weight + Dyadic.pow2_neg(len(codeword))
                bound = Dyadic.pow2_neg(end_snap["c"])
                if dual:
                    bound = bound + Dyadic.parse(end_snap[f"p_{side}"])
                if not weight <= bound:
                    ok = False
                    witness = {
                        "index": index, "side": side,
                        "interval": [start, end],
                        "weight": str(weight), "bound": str(bound),
                    }
    return {"name": "reuse-bounds", "pass": ok, "witness": witness}


def injures_unplaced(records) -> bool:
    """Whether some stage record injures an index that holds no position
    before it: its last snapshot in the records before has no ``pos``, or
    it has none."""
    pos = {}
    for record in records[1:]:
        if any(pos.get(index) is None for index in record["injured"]):
            return True
        for key, snap in record["markers"].items():
            pos[int(key)] = snap["pos"]
    return False


def b_restrict(replay, n: int, stage: int) -> str:
    """The first ``n`` bits of B at ``stage``."""
    return "".join(
        "1" if replay.in_b(i, stage) else "0" for i in range(n)
    )


def monotone_indices(replay):
    """``(ok, witness)`` of the cross-index ordering check from a full scan:
    at each record that changes a marker, every pair of consecutive placed
    indices is compared, and the witness is the last pair out of order."""
    ok, witness = True, {}
    current = []
    for record in replay.stages:
        if not record["markers"]:
            continue
        for key, snap in record["markers"].items():
            index = int(key)
            if index == len(current):
                current.append(snap["pos"])
            else:
                current[index] = snap["pos"]
        defined = [(i, p) for i, p in enumerate(current) if p is not None]
        for (i, p1), (j, p2) in zip(defined, defined[1:]):
            if not p1 < p2:
                ok = False
                witness = {
                    "stage": record["stage"], "i": i, "j": j,
                    "pos_i": p1, "pos_j": p2,
                }
    return ok, witness


def least_unplaced(markers) -> int:
    """Least index whose marker has no position, ``len(markers)`` if every
    marker has one."""
    return next(
        (m.index for m in markers if m.position is None), len(markers)
    )


def candidates(engine) -> list[int]:
    """Indices of the placed markers that may act at the engine's stage, by
    the engine's rule, from a walk over every placed marker."""
    return [
        m.index
        for m in engine.markers[: engine.placed]
        if engine._can_act(m, engine.stage)
    ]


def t_sorted(engine) -> list[tuple]:
    """Sorted (t, index, side) of every placed pair, with ``INFINITE`` for
    a t that is None."""
    return sorted(
        (INFINITE if m.t[side] is None else m.t[side], m.index, side)
        for m in engine.markers[: engine.placed]
        for side in engine.side_names
    )


def pairs_above(engine, lowest: int) -> list[tuple]:
    """(index, side, t) of every placed pair with t > ``lowest``, walking
    the markers in index order and each marker's sides in order."""
    return [
        (m.index, side, m.t[side])
        for m in engine.markers[: engine.placed]
        for side in engine.side_names
        if m.t[side] is not None and m.t[side] > lowest
    ]


def marked_from(engine, lowest, sides) -> set[tuple]:
    """(index, side) of every placed pair on ``sides`` whose t is None or
    at least ``lowest``."""
    return {
        (m.index, side)
        for m in engine.markers[: engine.placed]
        for side in sides
        if m.t[side] is None or m.t[side] >= lowest
    }


def recompute_matches(applied, x_str: str, k_best: dict):
    """A side tracker's full recompute after its set changed: every applied
    event that describes ``x_str`` is offered again from scratch.  Returns
    the new best descriptions, j -> (length, stage, codeword), and the j to
    mark dirty: each j that had a description in ``k_best`` or has one
    now."""
    best = {}
    for event in applied:
        j = len(event.output)
        if event.output != x_str[:j]:
            continue
        candidate = (len(event.codeword), event.stage, event.codeword)
        if j not in best or candidate < best[j]:
            best[j] = candidate
    return best, set(k_best) | set(best)


def stale_deficiency(tracker, b_str: str) -> set[int]:
    """The j outside the tracker's dirty set whose kept deficiency is
    wrong: j is deficient when it has a best description and the output
    machine describes B|j with a longer codeword."""
    stale = set()
    for j in set(tracker.k_best) | tracker._deficient:
        if j in tracker._dirty:
            continue
        best = tracker.k_best.get(j)
        wanted = best is not None and machine_k_at(
            tracker.machine, b_str[:j]
        ) > best[0]
        if wanted != (j in tracker._deficient):
            stale.add(j)
    return stale


def decode_real(encoded, stage: int, n: int) -> list[int]:
    """Recover bits ``0..n-1`` of a block-encoded real at ``stage`` from
    flip-count parities."""
    bits = []
    for k in range(n):
        lo, hi = block_range(k)
        count = sum(
            1 for pos in range(lo, hi) if encoded.contains(pos, stage)
        )
        bits.append(count % 2)
    return bits


def first_drop(prev, cur):
    """Least bit n that goes from 1 to 0 between the bit lists ``prev`` and
    ``cur`` with no more significant bit going from 0 to 1, else None."""
    for n in range(len(prev)):
        if prev[n] == 1 and cur[n] == 0:
            if not any(prev[i] == 0 and cur[i] == 1 for i in range(n)):
                return n
    return None


def expand_repeats(records):
    """The trace with every ``repeat`` record written out as one record per
    stage it stands for, as the engine wrote traces before it folded them."""
    expanded = []
    for record in records:
        if "repeat" not in record:
            expanded.append(record)
            continue
        base = {key: value for key, value in record.items() if key != "repeat"}
        for offset in range(record["repeat"]):
            expanded.append({**base, "stage": record["stage"] + offset})
    return expanded


def is_bare(record) -> bool:
    """Whether a stage record is a bare no-op: a no-op with no marker
    snapshot and no n-entry."""
    return (
        record["action"] == "noop"
        and not record["markers"]
        and not record["n_entries"]
    )


def mergeable_pairs(records) -> list[tuple[int, int]]:
    """The stages of each two adjacent stage records that could be written
    as one: both bare no-ops, which differ only in ``stage`` (a no-op
    found no deficiency cursor, or it would have placed or described)."""
    return [
        (first["stage"], second["stage"])
        for first, second in zip(records[1:], records[2:])
        if is_bare(first) and is_bare(second)
    ]


def quiet_after(scenario, inclusive: bool) -> int:
    """The stage past which the engine once folded the no-op records: the
    last event, given-set or halting stamp, or the longest output (one
    past it on an exclusive cursor), whichever is latest."""
    events = scenario.schedule.events
    longest = max((len(e.output) for e in events), default=0)
    return max(
        [longest + (0 if inclusive else 1)]
        + [e.stage for e in events]
        + [stamp for _, stamp in scenario.halting.schedule]
        + [stage for _, stage in scenario.set_a.schedule]
        + [stage for _, stage in scenario.set_d.schedule]
    )


class Restater:
    """``restore_restated`` one stage record at a time: called on each
    stage record of a trace in order, it returns the record with the four
    fields put back, from the positions and B that the records before it
    and the record itself show."""

    def __init__(self) -> None:
        # each marker's last position; marker 0 is placed on position 1 at
        # stage 0, before the first record
        self.pos: dict[int, int | None] = {0: 1}
        self.b: set[int] = set()  # the positions in B so far

    def __call__(self, record):
        added = record["b_added"]
        acting = None
        if added is not None:
            acting = next(
                (i for i, pos in self.pos.items() if pos == added), None
            )
            self.b.add(added)
        markers = {
            key: {**snap, "frozen": snap["pos"] in self.b}
            for key, snap in record["markers"].items()
        }
        placed = None
        if record["action"] == "place":
            index = max(map(int, markers))
            placed = [index, markers[str(index)]["pos"]]
        frozen = acting is not None and markers[str(acting)]["pos"] == added
        for key, snap in markers.items():
            self.pos[int(key)] = snap["pos"]
        return {
            **record, "acting": acting, "placed": placed, "frozen": frozen,
            "markers": markers,
        }


def restore_restated(records):
    """The trace with the four fields the engine once wrote that restate
    the others, rebuilt from them.  A stage record's ``acting`` is the
    marker whose position before the record was ``b_added`` (marker 0's
    is 1 before the first record), else None; its ``placed`` is ``[k,
    pos]`` for the largest snapshot key k of a ``place`` record, else
    None; its ``frozen`` says whether the acting marker's new ``pos`` is
    ``b_added``.  A snapshot's ``frozen`` says whether its ``pos`` is not
    None and already in B, this record's ``b_added`` included."""
    restate = Restater()
    return [records[0], *map(restate, records[1:])]


def restore_entries(records, scenario):
    """The trace with the fields the engine once wrote in each entry that
    the trace and scenario fix, rebuilt from them.  An m-entry's
    ``length`` is the length of its ``justify`` and its ``n`` the length
    of that schedule description's output.  An n-entry's ``version`` is
    the number of records before its own that injure its index: an injury
    resets the marker's N-machines, and a record's n-entries come before
    its injuries."""
    output_of = scenario.schedule.output_of
    injuries = {}
    restored = [records[0]]
    for record in records[1:]:
        restored.append({
            **record,
            "m_entries": [
                {
                    **entry,
                    "length": len(entry["justify"]),
                    "n": len(output_of[entry["justify"]]),
                }
                for entry in record["m_entries"]
            ],
            "n_entries": [
                {**entry, "version": injuries.get(entry["index"], 0)}
                for entry in record["n_entries"]
            ],
        })
        for index in record["injured"]:
            injuries[index] = injuries.get(index, 0) + 1
    return restored


def restore_codewords(records):
    """The trace with the ``codeword`` the engine once wrote in each m- and
    n-entry, rebuilt from the lengths.  Output machine M_x's codewords are
    what a fresh allocator (``EagerFreeBlockSet``) hands out for side x's
    m-entry lengths in trace order; each N-machine version's are what a
    fresh one hands out for the lengths of the n-entries with its side,
    index and version."""
    allocators = {}

    def restored(entries, machine_of):
        return [
            {
                **entry,
                "codeword": allocators.setdefault(
                    machine_of(entry), EagerFreeBlockSet()
                ).allocate(entry["length"]),
            }
            for entry in entries
        ]

    return [records[0]] + [
        {
            **record,
            "m_entries": restored(
                record["m_entries"], lambda e: ("M", e["side"])
            ),
            "n_entries": restored(
                record["n_entries"],
                lambda e: ("N", e["side"], e["index"], e["version"]),
            ),
        }
        for record in records[1:]
    ]


def pick_length_loop(rng, params, remaining) -> int:
    """The generator's codeword length found by raising the drawn length one
    bit at a time until the event costs at most half of ``remaining``."""
    length = rng.randint(params.min_length, params.max_length)
    # Never spend more than half the remaining budget on one event, so the
    # stream can always continue and the total stays strictly below 1/4.
    while Dyadic.pow2_neg(length - 1) > remaining:
        length += 1
    return length


class EagerFreeBlockSet:
    """Prefix-free cover of the unallocated code space, one block per length,
    with every free block spelled out as its own string."""

    def __init__(self) -> None:
        self.free: dict[int, str] = {0: ""}

    def allocate(self, length: int) -> str:
        """Return a fresh codeword of exactly ``length`` bits.

        Takes the longest free block of length <= ``length`` (unique by the
        one-block-per-length invariant), returns its leftmost depth-``length``
        extension and re-files the sibling blocks uncovered by the split.
        """
        if length < 0:
            raise ValueError("length must be a natural number")
        candidates = [l for l in self.free if l <= length]
        if not candidates:
            raise Exhausted(f"no free block of length <= {length}")
        base_len = max(candidates)
        block = self.free.pop(base_len)
        for depth in range(base_len, length):
            self.free[depth + 1] = block + "0" * (depth - base_len) + "1"
        return block + "0" * (length - base_len)


def kc_naive(text: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``ceforge kc`` on a request file
    of ``text``, testing every line's length spelling on its own.  It
    allocates with ``FreeBlockSet``, as ``kc`` does: ``EagerFreeBlockSet``
    would spell out L^2/2 bits for a codeword of L bits."""
    free = FreeBlockSet()
    rows = []
    try:
        for line in text.splitlines():
            fields = line.split()
            if not fields or fields[0][:1] == "#":
                continue
            target, field = fields
            length = int(field)
            if not (field.isascii() and field.isdigit()):
                raise ValueError(
                    f"length {field!r} is not written in ASCII decimal digits"
                )
            if length > KC_LENGTH_BOUND:
                raise ValueError(
                    f"length {length} exceeds the bound {KC_LENGTH_BOUND}"
                )
            rows.append(f"{free.allocate(length)}\t{target}\n")
    except (ValueError, Exhausted) as exc:
        return EXIT_SCENARIO, "", f"request error: {exc}\n"
    return EXIT_OK, "".join(rows), ""


def spelled(free) -> dict[int, str]:
    """The free blocks of the ``FreeBlockSet`` ``free`` by length, each
    written out as its own string, from a walk over every length of every
    run."""
    return {
        d: w[: d - 1] + "1" if d else ""
        for lo, hi, w in zip(free._lo, free._hi, free._split)
        for d in range(lo, hi + 1)
    }


def jsonl_stdlib(records) -> str:
    """The trace as JSON Lines from the standard library's encoder, with
    sorted keys and compact separators."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    return "\n".join(map(encoder.encode, records)) + "\n"


def trace_from_jsonl_naive(text: str) -> list:
    """The records of a JSONL trace, one ``json.loads`` per line that is
    not blank.  A JSON syntax error is raised again at its place in the
    lines joined with ``\\n``, so its message names the trace line; any
    other ValueError or a RecursionError is raised again as its type with
    ``line N: `` before its message."""
    lines = text.splitlines()
    joined = "\n".join(lines)
    records, start = [], 0
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise json.JSONDecodeError(exc.msg, joined, start + exc.pos)
            except (ValueError, RecursionError) as exc:
                raise type(exc)(f"line {number}: {exc}")
        start += len(line) + 1
    return records


# The audit's record walks as they were before ``_Replay.from_records``
# built every check's index in its one pass: each named check walks the
# records or the marker timelines again.  ``audit_trace_walks`` is the
# reference report the one-pass audit must equal byte for byte.


def b_walk(replay, bits: bytearray):
    """Yield the records in order, first setting the position each one
    adds to B, so that ``bits`` holds B below ``len(bits)``, as ``0``
    and ``1`` bytes, at the stage of the record yielded."""
    for record in replay.stages:
        added = record["b_added"]
        if added is not None and 0 <= added < len(bits):
            bits[added] = ord("1")
        yield record


def check_weights_walk(
    replay: _Replay, scenario: Scenario
) -> list[dict[str, Any]]:
    """The weight checks.  Machine weights are summed as ints in units of
    2^-``weight_exp`` (``_Replay``); a ``Dyadic`` is built only for the
    containers, which compare weights of different scales, and for the
    report strings."""
    checks: list[dict[str, Any]] = []
    ledgers = {side: UsageLedger(scenario, side) for side in replay.sides}
    exp = replay.weight_exp
    m_weight = {side: 0 for side in replay.sides}
    transitions_ok = True
    transition_witness: dict[str, Any] = {}
    n_weights: dict[tuple[str, int, int], int] = {}
    for record in replay.stages:
        stage = record["stage"]
        for entry in record["m_entries"]:
            side = entry["side"]
            ledger = ledgers[side]
            count = ledger.record_use(entry["justify"], stage, entry["cause"])
            m_weight[side] += 1 << (exp - entry["length"])
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
            key = (entry["side"], entry["index"], entry["version"])
            n_weights[key] = n_weights.get(key, 0) + (
                1 << (exp - entry["length"])
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
        m = Dyadic(m_weight[side], exp)
        _check(
            checks,
            f"m-weight-{side}",
            m <= total,
            {"m": str(m), "container_sum": str(total)},
        )
        nesting_ok = all(
            containers.get(k + 1, set()) <= containers[k]
            for k in containers
        )
        _check(checks, f"container-nesting-{side}", nesting_ok, {})

    # A weight w of 1/2 or more has 2w >= 1: 2w units against 2^exp.
    one = 1 << exp
    strict = replay.header["engine"] == "dual"
    n_ok = True
    n_witness: dict[str, Any] = {}
    for key, weight in sorted(n_weights.items()):
        ok = weight << 1 < one if strict else weight << 1 <= one
        if not ok:
            n_ok = False
            side, index, version = key
            n_witness = {
                "side": side,
                "index": index,
                "version": version,
                "weight": dyadic_str(weight, exp),
            }
            break
    _check(checks, "n-machine-bounds", n_ok, n_witness)
    return checks


def check_markers_walk(
    replay: _Replay, scenario: Scenario
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

    checks.extend(_check_reuse_bounds(replay, scenario))
    return checks


def check_coverage_walk(
    replay: _Replay, scenario: Scenario
) -> list[dict[str, Any]]:
    """At the final stage, the output machine describes B at least as
    tightly as the schedule describes the given set, below the region the
    run has stopped disturbing."""
    checks: list[dict[str, Any]] = []
    final = replay.final_stage
    cutoff = final - final // 4
    # Every segment here is a schedule output: an entry's n is the output
    # length of its justifying event (``_Replay.from_records``).
    width = max((len(e.output) for e in scenario.schedule.events), default=0)
    # K_M over the replayed entries: each entry described the stagewise B
    # segment of its length.
    k_m: dict[str, dict[str, int]] = {side: {} for side in replay.sides}
    bits = bytearray(b"0" * width)
    for record in b_walk(replay, bits):
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


def check_deficits_walk(replay: _Replay) -> list[dict[str, Any]]:
    """Dual runs only: every recorded deficit stays at most 2^-c, compared
    in ints: num/2^exp <= 2^-c when num * 2^c <= 2^exp."""
    checks: list[dict[str, Any]] = []
    if replay.header["engine"] != "dual":
        return checks
    ok = True
    witness: dict[str, Any] = {}
    for index, timeline in replay.timelines.items():
        for stage, snap in timeline:
            if snap["pos"] is None:
                continue
            c = snap["c"]
            for side in replay.sides:
                num, exp = dyadic_parts(snap[f"p_{side}"])
                if num << c > 1 << exp:
                    ok = False
                    witness = {
                        "stage": stage, "index": index, "side": side,
                        "p": dyadic_str(num, exp), "bound": dyadic_str(1, c),
                    }
    _check(checks, "deficit-bounds", ok, witness)
    return checks


def audit_trace_walks(
    records: list[dict[str, Any]], scenario: Scenario
) -> dict[str, Any]:
    """Full audit of a trace against its scenario; pure and deterministic.
    The walks read the entry fields the trace no longer writes, so they
    walk the trace with them put back (``restore_entries``), once
    ``_Replay.from_records`` has found it well formed."""
    replay = _Replay.from_records(records, scenario)
    replay.stages = restore_entries(records, scenario)[1:]
    checks = check_weights_walk(replay, scenario)
    checks.extend(check_markers_walk(replay, scenario))
    checks.extend(check_coverage_walk(replay, scenario))
    checks.extend(check_deficits_walk(replay))
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
