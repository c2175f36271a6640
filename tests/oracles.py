"""Naive reference scans for the incremental structures in ``ceforge``.

Each oracle recomputes its value from scratch by scanning every stamped
event, entry or trace record, so it shares no bookkeeping with the code it
checks.
"""

import json

from ceforge.approx import block_range
from ceforge.bitcore import Dyadic, INFINITE, ZERO
from ceforge.machines import Exhausted


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
    as one: both bare no-ops with equal cursors ``z``."""
    return [
        (first["stage"], second["stage"])
        for first, second in zip(records[1:], records[2:])
        if is_bare(first) and is_bare(second) and first["z"] == second["z"]
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


def fold_quiet_tail(records, scenario):
    """The trace as the engine wrote it when it folded the quiet tail
    alone: every ``repeat`` record written out, then the first no-op record
    past ``quiet_after`` that carries no marker snapshot, unless it is the
    last stage, stands with ``repeat`` for itself and every stage after
    it, which must all be bare no-ops."""
    expanded = expand_repeats(records)
    stages = records[0]["stages"]
    bound = quiet_after(scenario, records[0]["engine"] == "dual")
    for number, record in enumerate(expanded[1:], 1):
        stage = record["stage"]
        if (
            bound < stage < stages
            and record["action"] == "noop"
            and not record["markers"]
        ):
            assert all(map(is_bare, expanded[number:])), stage
            tail = {**record, "repeat": stages - stage + 1}
            return expanded[:number] + [tail]
    return expanded


def injure_unplaced(records):
    """The trace as the engine wrote it when an act also injured the
    markers above the acting one that were already unplaced.  Each such
    index joins the act's ``injured`` list (kept sorted) and gets a
    snapshot with no position, c + 1, not frozen, and deficits of 0 on the
    dual engine; every later n-entry of that index takes a version one
    higher.  A marker that comes back must have the c it would have had
    under that rule."""
    dual = records[0]["engine"] == "dual"
    c, pos, bumps = {}, {}, {}
    rewritten = [records[0]]
    for record in records[1:]:
        record = {
            **record,
            "markers": dict(record["markers"]),
            "n_entries": [
                {**e, "version": e["version"] + bumps.get(e["index"], 0)}
                for e in record["n_entries"]
            ],
        }
        if record["action"] == "act":
            idle = [i for i in pos if i > record["acting"] and pos[i] is None]
            record["injured"] = sorted(record["injured"] + idle)
            for index in idle:
                snap = {"pos": None, "c": c[index] + 1, "frozen": False}
                if dual:
                    snap.update(p_a="0/2^0", p_d="0/2^0")
                record["markers"][str(index)] = snap
                bumps[index] = bumps.get(index, 0) + 1
        for key, snap in record["markers"].items():
            index = int(key)
            was_unplaced = index in pos and pos[index] is None
            if was_unplaced and snap["pos"] is not None:
                assert snap["c"] == c[index], (record["stage"], index)
            c[index], pos[index] = snap["c"], snap["pos"]
        rewritten.append(record)
    return rewritten


def restore_weights(records):
    """The trace with the ``weights`` field the engine once wrote, rebuilt
    from the entries.  ``m_<side>`` is the running sum of 2^-``length`` over
    that side's m-entries, written into every stage record (``"0/2^0"``
    before the first).  ``n`` maps ``side:index:version`` to the running sum
    over that N-machine version's n-entries, for each n-entry in the record
    whose index is not injured in it: an injured marker's machine is reset
    later in the same stage, so the engine wrote no weight for it."""
    sides = ("a", "d") if records[0]["engine"] == "dual" else ("a",)
    m_totals = {f"m_{side}": ZERO for side in sides}
    n_totals = {}
    restored = [records[0]]
    for record in records[1:]:
        for entry in record["m_entries"]:
            key = f"m_{entry['side']}"
            m_totals[key] += Dyadic.pow2_neg(entry["length"])
        n_weights = {}
        for entry in record["n_entries"]:
            key = f"{entry['side']}:{entry['index']}:{entry['version']}"
            n_totals[key] = n_totals.get(key, ZERO) + Dyadic.pow2_neg(
                entry["length"]
            )
            if entry["index"] not in record["injured"]:
                n_weights[key] = str(n_totals[key])
        weights = {key: str(total) for key, total in m_totals.items()}
        weights["n"] = n_weights
        restored.append({**record, "weights": weights})
    return restored


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
    not blank."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]
