"""Trace replay and exact verification of the construction's bounds.

Everything here is recomputed from the serialized trace plus the scenario;
the auditor never reads engine internals, so it is an independent path over
the same events.  Marker records in the trace are deltas: each stage lists
the full state of just the markers that changed at that stage.  Each run
of consecutive bare no-op stages (no marker snapshot, no entry), the quiet
tail among them, is one record whose ``repeat`` field counts the stages it
stands for; such a record changes nothing, so the audit reads it once and
only its stage span matters, and every index reads the same as on the
trace with the run written out.  The audit recomputes every machine weight
from the ``m_entries`` and ``n_entries``: a machine's weight is the sum of
2^-length over its entries, summed as an int in units of 2^-(the
longest entry) and compared by shifts, as are the deficits and their
bounds and each set of codewords whose weight a container or reuse bound
needs; ``Dyadic`` values remain where those weights of different scales
are added and compared, and for report strings.  An m-entry's length
is that of its ``justify`` and its n that of the output ``justify``
describes, and an n-entry's version is the number of injuries of its
index in the records before.

Whether a trace is well formed is decided in one place.
``_Replay.from_records`` tests every rule whose failure makes the audit
refuse the trace (a ValueError, exit 2 at the command line): field types
and key sets, stage order, sides, marker keys, c and deficits, each
N-entry length (a natural, within the bound), each M-entry's justifying
description (a schedule codeword), that each injured index names a
marker placed before its record, and each record's ``action``,
``clauses`` and ``injured`` against its ``b_added`` and m-entries
(``_action_fault``).  It does so in the one pass it makes over every
record, entry and snapshot, before any named check decides.  So a
report is written only for a well-formed trace, and the named checks never
raise.  The field tables decide each part's keys and each field's type:
each table is compiled once, at import, into one test of its fields
(``_Fields``), which a missing field fails even where null is allowed,
and so does a key the table does not list; ``_require`` names the field
at fault once a test has failed.  Each
rule reads ``if <violated>: _refuse(...)``: ``_refuse`` is the one
function that words a refusal (``malformed trace: record N ...``), and
only a trace with no header record at all is refused apart.  The rules
are tested in one fixed order, so a trace that breaks several gets the
message of the first.  The rules of ``_action_fault`` come after every
other: the pass keeps the first record that breaks one and refuses it
once every other rule has held, so a trace that breaks another rule as
well is refused as it was before they existed.

The audit does work linear in the trace size, and it reads the records
once.  The pass of ``_Replay.from_records`` that tests the rules also
builds every index a named check reads: the marker timelines
(``marker_at`` bisects them by stage), the injury stages of each marker,
the stage at which each position entered B, each side's ``UsageLedger``,
which files each reuse under the marker that caused it (so
``_check_reuse_bounds`` visits only the markers that caused a reuse), the
m-weights and the n-entry lengths of each N-machine version, and each
side's K_M, read off one B buffer that it slices for every m-entry.  Where a violation decides a check
(marker order in stage and in index, abandoned positions, deficits,
active transitions), the pass keeps its witness: the last violation the
full scan it replaced would report.  Marker order across indices is
re-tested only at the pairs each snapshot touches.  The named checks turn
these indexes into report entries and walk no record again;
``check_weights`` sums the n-entry weights, whose lengths the pass has
bounded by then.

``trace_to_jsonl`` writes each record with orjson, with sorted keys (it
imports orjson itself, so commands that write no trace never load it); its
lines equal those of the standard library's encoder with sorted keys and
compact separators byte for byte, because a trace holds only ASCII
strings, booleans, nulls and integers below 2^63 (a scenario's integers
lie below 2^53, see ``approx.JSON_INT_BOUND``).  Everything that reads
input from outside the program stays on the standard library's ``json``:
reading traces, and all scenario I/O.  ``trace_from_jsonl`` decodes each
record where it lies in the text, with one call to the standard library's
C scanner (the one ``json.loads`` uses) at the line's offset, so no list
of line copies is made; it hands a line to ``json.loads`` itself only when
the scan does not end exactly at that line's ``\\n``, and that call skips a
blank line and words any refusal; a JSON syntax error is raised again at
its place in the whole text, so its message names the trace line, and a
line nested too deep or holding an integer past the interpreter's digit
limit is refused with ``line N: `` before the parser's message.  Its
lines are those of ``str.splitlines``: a text that may hold another line
break is first rewritten with ``\\n`` between those lines.  Writing
reports, which can echo integers read from a trace, stays on the standard
library too.
orjson 3.8.3 crashes the interpreter with a segmentation fault on a line
nested about 200,000 deep (seen at 200,000 and 1,000,000; 100,000
parses), reads integers past 64 bits as floats, and raises on such
integers when it writes them; the standard library raises RecursionError
on deep nesting and keeps every integer exact.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import Any, NoReturn

from .approx import JSON_INT_BOUND, Scenario
from .bitcore import Dyadic, INFINITE, ZERO, decimal_int, dyadic_str


class UsageLedger:
    """Reuse accounting for one side's output machine against the schedule.

    ``uses`` counts the entries each schedule description justifies, and
    ``reuses`` maps each marker index to the ``(stage, codeword)`` of every
    use after the first that it caused, in stage order.  ``S_k`` is the set
    of schedule descriptions used at least ``k + 1`` times; the containers
    are nested by construction of the counts.
    """

    def __init__(self, scenario: Scenario, side: str) -> None:
        self.given = scenario.set_a if side == "a" else scenario.set_d
        self.output_of = scenario.schedule.output_of
        self.uses: dict[str, int] = {}
        self.reuses: dict[int, list[tuple[int, str]]] = {}

    def record_use(
        self, u_codeword: str, stage: int, cause: int | None
    ) -> int:
        """Count one use of the schedule description ``u_codeword`` and
        return its use count.  Uses must be recorded in stage order."""
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
    """The weight of ``codewords``, summed as an int in units of 2^-(the
    longest); each is a schedule codeword, so the scenario bounds it."""
    top = max(map(len, codewords), default=0)
    return Dyadic(sum(1 << (top - len(word)) for word in codewords), top)


def _check(
    checks: list[dict[str, Any]],
    name: str,
    ok: bool,
    witness: dict[str, Any],
) -> None:
    checks.append({"name": name, "pass": bool(ok), "witness": witness})


#: What a field that is missing reads as: its type is in no table.
_MISSING = object()


class _Fields(dict):
    """A field table: each field of one part of a trace, with the types
    its value may have, and at most one ``optional`` key besides, which
    the part may hold or not.  The table is the one statement of those
    rules, and the part holds no other key.  ``typed`` is its test,
    compiled once into the ``type(...) is T`` chain one would write by
    hand, fields in table order, and then one test of the part's size,
    which, once every field is present, holds only if no other key is:
    it returns the tuple of the values it tested, in table order, or None
    if one fails, so each field is read once.  ``_require`` names the
    field at fault once the test has failed."""

    def __init__(
        self, optional: str | None = None, **fields: tuple[type, ...]
    ) -> None:
        super().__init__(fields)
        self.optional = optional
        tests = ["type(v) is dict"]
        for number, (key, kinds) in enumerate(fields.items()):
            first, *rest = [kind.__name__ for kind in kinds]
            tests.append(
                f"(type(x{number} := v.get({key!r}, _MISSING)) is {first}"
                + "".join(f" or type(x{number}) is {name}" for name in rest)
                + ")"
            )
        size = f"len(v) == {len(fields)}"
        if optional is not None:
            size = (f"({size} or len(v) == {len(fields) + 1} and "
                    f"{optional!r} in v)")
        tests.append(size)
        values = "".join(f"x{number}, " for number in range(len(fields)))
        namespace = {"_MISSING": _MISSING, "NoneType": type(None)}
        self.typed = eval(
            f"lambda v: ({values}) if {' and '.join(tests)} else None",
            namespace,
        )


# The fields of each part of a trace, with the types the checks rely on.
_OPTIONAL_INT = (int, type(None))
_HEADER_FIELDS = _Fields(
    type=(str,), engine=(str,), stages=(int,), c_offset=(int,)
)
_RECORD_FIELDS = _Fields(
    "repeat",
    stage=(int,),
    b_added=_OPTIONAL_INT,
    markers=(dict,),
    injured=(list,),
    m_entries=(list,),
    n_entries=(list,),
    action=(str,),
    clauses=(dict, type(None)),
)
_M_ENTRY_FIELDS = _Fields(side=(str,), justify=(str,), cause=_OPTIONAL_INT)
_N_ENTRY_FIELDS = _Fields(side=(str,), index=(int,), length=(int,))
_SNAPSHOT_FIELDS = {
    "single": _Fields(pos=_OPTIONAL_INT, c=(int,)),
    "dual": _Fields(pos=_OPTIONAL_INT, c=(int,), p_a=(str,), p_d=(str,)),
}


def _refuse(number: int | None, what: str) -> NoReturn:
    """Refuse a malformed trace: raise the ValueError that says ``what``
    is wrong, in stage record ``number`` unless that is None.  Every rule
    but the first (a header record leads the trace) words its refusal
    here, so the ``malformed trace:`` format is stated once."""
    where = "" if number is None else f"record {number} "
    raise ValueError(f"malformed trace: {where}{what}")


def _require(
    value: Any, fields: _Fields, number: int | None, part: str
) -> NoReturn:
    """Refuse (``_refuse``) the trace, naming what keeps ``value``, the
    ``part`` of stage record ``number`` (``""`` for the record itself,
    else the part's name and a space; ``number`` None and ``"header "``
    for the header), from being an object with exactly these fields.
    ``from_records`` calls this once ``fields.typed`` has failed, to name
    the field at fault."""
    if type(value) is not dict:
        _refuse(number, f"{part}is not an object")
    for key, kinds in fields.items():
        if type(value.get(key, _MISSING)) not in kinds:
            _refuse(number, f"{part}field {key!r} is missing or of the "
                    "wrong type")
    key = next(k for k in value if k not in fields and k != fields.optional)
    _refuse(number, f"{part}field {key!r} is unknown")


#: The c of marker i starts at c_offset + i; each engine has its own offset.
_C_OFFSETS = {"single": 3, "dual": 4}
_SIDES = {"single": ("a",), "dual": ("a", "d")}


def _repeat(record: dict[str, Any], number: int) -> int:
    """The number of stages stage record ``number``, which has a
    ``repeat`` field, stands for.

    A record with ``repeat`` n stands for its own stage and the n - 1
    after it, a run of identical no-op stages anywhere in the trace (the
    engine folds every such run, the quiet tail included).  It may change
    nothing, so that every index and check reads the same as on the trace
    with the n records written out.
    """
    repeat = record["repeat"]
    if type(repeat) is not int or repeat < 2:
        _refuse(number, f"repeat {repeat!r} is not an int of at least 2")
    if record["b_added"] is not None or any(
        record[key] for key in ("injured", "markers", "m_entries", "n_entries")
    ):
        _refuse(number, "repeats a stage that changes something")
    return repeat


def _deficit(text: str, longest: int) -> tuple[int, int] | None:
    """The ints ``(num, exp)`` if ``text`` reads as ``num/2^exp``, or a
    bare ``num`` (exp 0), with both written in ASCII decimal digits (no
    sign, space or underscore, which ``int`` would accept) and 0 <= exp
    <= ``longest``, the longest schedule codeword; else None.

    A deficit is a sum of weights 2^-K(X|j), each a multiple of 2^-(that
    length), so no exponent outside the range can occur; one far outside
    it would cost memory in the first comparison or in parsing itself.

    ``int`` refuses a number past the interpreter's digit limit.  Past
    it, a numerator is read (``decimal_int``) only if a value below 1
    could have it: such a numerator lies below 2^``longest``, so it has
    at most ``longest`` // 3 + 1 digits, and no deficit makes the audit
    convert a number longer than the scenario's longest codeword allows.
    """
    num, sep, exp = text.partition("/2^")
    if not (num.isascii() and num.isdigit()) or sep and not (
        exp.isascii() and exp.isdigit()
    ):
        return None
    try:
        power = int(exp) if sep else 0
        if power > longest:
            return None
        if len(num) <= longest // 3 + 1:
            return decimal_int(num), power
        return int(num), power
    except ValueError:
        return None


#: The actions a stage record may name.
_ACTIONS = ("noop", "place", "describe", "act")


def _action_fault(
    action: str,
    clauses: dict[str, Any] | None,
    injured: list[Any],
    added: int | None,
    m_entries: list[Any],
) -> str | None:
    """What is wrong with the ``action``, ``clauses`` and ``injured`` of a
    stage record that adds ``added`` to B and holds ``m_entries``, by the
    first rule it breaks, or None.  A record acts exactly when it adds to
    B, describes exactly when it adds nothing and has m-entries, names its
    clauses exactly when it acts, and injures only when it adds to B."""
    if action not in _ACTIONS:
        return f"action {action!r} is not noop, place, describe or act"
    if (action == "act") != (added is not None):
        return (f"action {action!r} does not match b_added {added!r}: a "
                "record acts exactly when it adds to B")
    if (action == "describe") != (added is None and bool(m_entries)):
        return (f"action {action!r} does not match b_added {added!r} and "
                f"{len(m_entries)} m_entries: a record describes exactly "
                "when it adds nothing to B and has m_entries")
    if (clauses is None) != (action != "act"):
        return (f"action {action!r} does not match clauses {clauses!r}: a "
                "record names its clauses exactly when it acts")
    if injured and added is None:
        return (f"injured {injured} with b_added None: a record injures "
                "only when it adds to B")
    return None


def _keep_last(
    witnesses: dict[str, dict[str, Any]], name: str, witness: dict[str, Any]
) -> None:
    """Keep ``witness`` as check ``name``'s unless one of a higher marker
    index is kept.  Records come in stage order, so the witness kept is
    the last violation in (index, stage) order."""
    kept = witnesses.get(name)
    if kept is None or witness["index"] >= kept["index"]:
        witnesses[name] = witness


def _is_index(key: str) -> bool:
    """Whether ``key`` is a natural below 2^53 in decimal without leading
    zeros, the one way a trace may write a marker index.  The length test
    comes first, so ``int`` never meets a key past its digit limit."""
    return (
        key.isascii()
        and key.isdigit()
        and (key == "0" or key[0] != "0")
        and len(key) <= len(str(JSON_INT_BOUND))
        and int(key) < JSON_INT_BOUND
    )


@dataclass
class _Replay:
    """State rebuilt from the trace records alone, in one pass over them
    (``from_records``): the per-marker indexes, and every index a named
    check reads."""

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
    # Every m- and n-entry is at most this long, so its weight is a whole
    # number of units of 2^-weight_exp.
    weight_exp: int = 0
    # side -> the uses and reuses of its schedule descriptions
    ledgers: dict[str, UsageLedger] = field(default_factory=dict)
    # side -> the weight of its output machine, summed over its m-entries
    m_weight: dict[str, Dyadic] = field(default_factory=dict)
    # (side, index, version) -> the lengths of that N-machine's entries
    n_lengths: dict[tuple[str, int, int], list[int]] = field(
        default_factory=dict
    )
    # side -> K_M: each B segment an m-entry described -> its least length
    k_m: dict[str, dict[str, int]] = field(default_factory=dict)
    # B below the longest schedule output, as "0"/"1", after the last record
    b_final: str = ""
    # check name -> the witness of a check the pass found violated
    witnesses: dict[str, dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def from_records(
        cls, records: list[dict[str, Any]], scenario: Scenario
    ) -> "_Replay":
        """Replay ``records``, a trace of ``scenario``; raise ValueError
        unless it is well formed.  Every rule of a well-formed trace is
        tested here, so the named checks never meet a malformed one.  The
        field tables decide each part's keys and each field's type through
        their compiled tests, which hand back the fields' values; each
        rule that fails calls ``_refuse``, which words the refusal.

        The same pass builds what the named checks read: the ledgers,
        m-weights, n-entry lengths and the ``active-transitions``
        witness (``check_weights``); each marker's consecutive snapshots
        and the cross-index order (``check_markers``); B and each side's
        K_M (``check_coverage``); and each placed snapshot's deficits
        against 2^-c (``check_deficits``).  A check's witness is that of
        the last violation the full scan it replaced would report.  Only
        sizes a rule has bounded are shifted or sliced, and the n-entry
        weights are left to ``check_weights``, after the length bound."""
        if (
            not records
            or not isinstance(records[0], dict)
            or records[0].get("type") != "header"
        ):
            raise ValueError("trace must start with a header record")
        header = records[0]
        engine = header.get("engine")
        if type(engine) is not str or engine not in _C_OFFSETS:
            _refuse(None, f"unknown engine {engine!r}")
        if type(header.get("stages")) is not int:
            _refuse(None, "header field 'stages' is missing or of the "
                    "wrong type")
        c_offset = header.get("c_offset")
        if type(c_offset) is not int or c_offset != _C_OFFSETS[engine]:
            _refuse(None, f"header c_offset {c_offset!r} is not the {engine} "
                    f"engine's {_C_OFFSETS[engine]}")
        # Each header field has held its rule, so only a key the table
        # does not list can fail the table's test.
        if _HEADER_FIELDS.typed(header) is None:
            _require(header, _HEADER_FIELDS, None, "header ")
        sides = _SIDES[engine]
        snap_fields = _SNAPSHOT_FIELDS[engine]
        output_of = scenario.schedule.output_of
        longest = max(map(len, output_of), default=0)
        replay = cls(header=header, stages=records[1:], sides=sides)
        b_stage, timelines = replay.b_stage, replay.timelines
        ledgers = replay.ledgers = {
            side: UsageLedger(scenario, side) for side in sides
        }
        k_m = replay.k_m = {side: {} for side in sides}
        n_lengths, witnesses = replay.n_lengths, replay.witnesses
        injuries = replay.injuries
        # m-entry weights in units of 2^-longest: an m-entry is as long
        # as its justifying schedule codeword.
        m_units = dict.fromkeys(sides, 0)
        bits = bytearray(b"0" * max(map(len, output_of.values()), default=0))
        previous = 0  # the last stage the records so far cover
        acts = 0
        top_c = 0  # the largest c of any snapshot
        n_longest, n_number = 0, 0  # the longest N-entry and its record
        # Each marker key seen so far, with its index: only a new key is
        # tested (``_is_index``) and converted.
        indices: dict[str, int] = {}
        # Cross-index order.  ``current`` holds each marker's position,
        # ``placed`` the sorted placed indices, and ``bad`` each placed i
        # whose pair with its placed successor is out of order.  A snapshot
        # can only change the pairs that start at its index or at its
        # placed predecessor, so only those are re-tested, snapshot by
        # snapshot.  ``bad`` then depends on the configuration alone, so
        # at the end of a record it describes the configuration the record
        # leaves, which holds until the next change record.
        current: list[int | None] = []
        placed: list[int] = []
        bad: set[int] = set()
        # The first record whose action, clauses or injuries break a rule,
        # and what is wrong: it is refused only once every other rule has
        # held.
        action_fault: tuple[int, str] | None = None
        for number, record in enumerate(replay.stages, 1):
            (
                stage, added, markers, injured, m_entries, n_entries, action,
                clauses,
            ) = (
                _RECORD_FIELDS.typed(record)
                or _require(record, _RECORD_FIELDS, number, "")
            )
            # An m-entry describes B as it stands with this record's
            # addition.
            if added is not None and 0 <= added < len(bits):
                bits[added] = 49  # "1"
            for entry in m_entries:
                side, justify, cause = (
                    _M_ENTRY_FIELDS.typed(entry)
                    or _require(entry, _M_ENTRY_FIELDS, number, "m_entries ")
                )
                if side not in sides:
                    _refuse(number, f"m_entries side {side!r} is not a "
                            f"{engine} engine side")
                # An M-entry describes the output of the schedule
                # description it names, at that description's length.
                output = output_of.get(justify)
                if output is None:
                    _refuse(number, f"m_entries justify {justify!r} is not a "
                            "schedule codeword")
                length = len(justify)
                ledger = ledgers[side]
                m_units[side] += 1 << (longest - length)
                # Only descriptions active at the stage of the transition
                # may move one container deeper.
                if ledger.record_use(justify, stage, cause) >= 2 and (
                    not ledger.is_active(justify, stage)
                ):
                    witnesses["active-transitions"] = {
                        "side": side, "codeword": justify, "stage": stage,
                    }
                described = bits[:len(output)].decode()
                known = k_m[side].get(described)
                if known is None or length < known:
                    k_m[side][described] = length
            for entry in n_entries:
                side, index, length = (
                    _N_ENTRY_FIELDS.typed(entry)
                    or _require(entry, _N_ENTRY_FIELDS, number, "n_entries ")
                )
                if side not in sides:
                    _refuse(number, f"n_entries side {side!r} is not a "
                            f"{engine} engine side")
                # a weight of 2^-length: check_weights shifts by it
                if length < 0:
                    _refuse(number, f"n_entries length {length} is not a "
                            "natural")
                if length > n_longest:
                    n_longest, n_number = length, number
                # An injury resets the marker's N-machines, so the version
                # is the number of injuries so far: this record's come
                # after its n-entries.
                version = len(injuries.get(index, ()))
                n_lengths.setdefault((side, index, version), []).append(
                    length
                )
            if number > 1 and stage <= previous:
                _refuse(number, f"stage {stage} does not follow stage "
                        f"{previous}")
            previous = (
                stage + _repeat(record, number) - 1
                if "repeat" in record else stage
            )
            if action_fault is None:
                what = _action_fault(
                    action, clauses, injured, added, m_entries
                )
                if what is not None:
                    action_fault = number, what
            if added is not None:
                # a position in B gets no attention, so it enters B once
                if added in b_stage:
                    _refuse(number, f"adds position {added} to B again")
                b_stage[added] = stage
                acts += 1
            for index in injured:
                if type(index) is not int:
                    _refuse(number, f"injured index {index!r} is not an int")
                # ``current`` holds the positions the records before this
                # one left.
                if not 0 <= index < len(current) or current[index] is None:
                    _refuse(number, f"injured index {index} names no marker "
                            "placed before the record")
                injuries.setdefault(index, []).append(stage)
            if not markers:
                continue
            for key, snap in markers.items():
                index = indices.get(key)
                if index is None:
                    # One key per index: "0" and "00" may not both name
                    # marker 0.
                    if not _is_index(key):
                        _refuse(number, f"marker key {key!r} is not a "
                                "natural below 2^53 in decimal without "
                                "leading zeros")
                    index = indices[key] = int(key)
                pos, c, *deficits = snap_fields.typed(snap) or _require(
                    snap, snap_fields, number, "markers "
                )
                # Markers appear one index at a time.  A marker's c is
                # c_offset + index plus the acts of lower markers so far:
                # set so at each placement, and one more at an injury,
                # which is such an act.  So it lies between c_offset +
                # index and c_offset + index + acts.
                if index > len(current):
                    _refuse(number, f"marker {index} appears before "
                            f"marker {len(current)}")
                least = c_offset + index
                if not least <= c <= least + acts:
                    _refuse(number, f"marker {index} c {c} lies outside "
                            f"{least}..{least + acts}")
                if c > top_c:
                    top_c = c
                # Dual runs (whose snapshot table lists p_a, p_d in side
                # order): every deficit of a placed marker stays at most
                # 2^-c, num/2^exp <= 2^-c when num * 2^c <= 2^exp.
                for side, text in zip(sides, deficits):
                    parts = _deficit(text, longest)
                    if parts is None:
                        _refuse(number, f"marker {index} p_{side} {text!r} "
                                "is not num/2^exp with num >= 0 and exp in "
                                f"0..{longest}")
                    num, exp = parts
                    if pos is not None and num << c > 1 << exp:
                        _keep_last(witnesses, "deficit-bounds", {
                            "stage": stage, "index": index, "side": side,
                            "p": dyadic_str(num, exp),
                            "bound": dyadic_str(1, c),
                        })
                if index == len(current):
                    current.append(None)
                    timelines[index] = []
                timelines[index].append((stage, snap))
                before = current[index]
                if before is not None and pos is not None and pos != before:
                    if pos < before:
                        _keep_last(witnesses, "marker-monotone-stages", {
                            "stage": stage, "index": index,
                            "from": before, "to": pos,
                        })
                    if before not in b_stage:
                        # an abandoned position must sit in B from that
                        # stage on
                        _keep_last(witnesses, "marker-consistency", {
                            "stage": stage, "index": index,
                            "abandoned": before,
                        })
                current[index] = pos
                k = bisect.bisect_left(placed, index)
                if pos is None:
                    if k < len(placed) and placed[k] == index:
                        del placed[k]
                    bad.discard(index)
                    starts: tuple[int, ...] = (k - 1,)
                else:
                    if k == len(placed) or placed[k] != index:
                        placed.insert(k, index)
                    starts = (k - 1, k)
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
                # the last violation a full scan would report: the
                # greatest i in ``bad``, with j its placed successor
                i = max(bad)
                j = placed[bisect.bisect_right(placed, i)]
                witnesses["marker-monotone-indices"] = {
                    "stage": stage, "i": i, "j": j,
                    "pos_i": current[i], "pos_j": current[j],
                }
        if previous > header["stages"]:
            _refuse(None, f"records run to stage {previous}, past the "
                    f"header's {header['stages']}")
        # An N-entry is K(0^k) + c bits long for a schedule description of
        # 0^k and a counter c, and every counter a marker takes shows in a
        # snapshot.
        if n_longest > longest + top_c:
            _refuse(n_number, f"n_entries length {n_longest} exceeds "
                    f"{longest + top_c}")
        if action_fault is not None:
            _refuse(*action_fault)
        replay.final_stage = previous
        # An m-entry is as long as its justifying schedule codeword.
        replay.weight_exp = max(longest, n_longest)
        replay.m_weight = {
            side: Dyadic(units, longest) for side, units in m_units.items()
        }
        replay.b_final = bits.decode()
        return replay

    def in_b(self, position: int, stage: int) -> bool:
        entered = self.b_stage.get(position)
        return entered is not None and entered <= stage

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


def _decided(
    checks: list[dict[str, Any]], replay: _Replay, name: str
) -> None:
    """Append check ``name``, which ``from_records`` decided: it fails
    exactly when the pass kept a witness for it."""
    witness = replay.witnesses.get(name, {})
    _check(checks, name, not witness, witness)


def check_weights(replay: _Replay) -> list[dict[str, Any]]:
    """The weight checks, from the pass's ``active-transitions`` witness,
    ledgers, m-weights and n-entry lengths.  N-machine weights are summed
    here, as ints in units of 2^-``weight_exp`` (``_Replay``); a
    ``Dyadic`` is built only for the containers, which compare weights of
    different scales, and for the report strings."""
    checks: list[dict[str, Any]] = []
    _decided(checks, replay, "active-transitions")
    for side in replay.sides:
        containers = replay.ledgers[side].containers()
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
        m = replay.m_weight[side]
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
    exp = replay.weight_exp
    one = 1 << exp
    strict = replay.header["engine"] == "dual"
    n_ok = True
    n_witness: dict[str, Any] = {}
    for key, lengths in sorted(replay.n_lengths.items()):
        weight = sum(1 << (exp - length) for length in lengths)
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


def check_markers(
    replay: _Replay, scenario: Scenario
) -> list[dict[str, Any]]:
    """The marker checks: the pass's witnesses for marker order in stage
    and in index and for abandoned positions, and the reuse bounds, read
    off the ledgers' reuses and the marker timelines."""
    checks: list[dict[str, Any]] = []
    for name in (
        "marker-monotone-stages",
        "marker-monotone-indices",
        "marker-consistency",
    ):
        _decided(checks, replay, name)
    checks.extend(_check_reuse_bounds(replay, scenario))
    return checks


def _reused(reuses: list[tuple[int, str]], start: int, end: int) -> set[str]:
    """Codewords of the stage-ordered ``reuses`` made in ``[start, end]``."""
    lo = bisect.bisect_left(reuses, (start,))
    hi = bisect.bisect_left(reuses, (end + 1,))
    return {codeword for _, codeword in reuses[lo:hi]}


def _check_reuse_bounds(
    replay: _Replay, scenario: Scenario
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
    final, ledgers = replay.final_stage, replay.ledgers
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
    run has stopped disturbing.  K_M and the final B are the pass's
    (``_Replay.from_records``): each m-entry described the stagewise B
    segment of its length."""
    checks: list[dict[str, Any]] = []
    final = replay.final_stage
    cutoff = final - final // 4
    # Every segment here is a schedule output: an entry's n is the output
    # length of its justifying event, and the pass holds B up to the
    # longest output (``_Replay.from_records``).
    k_m, b_final = replay.k_m, replay.b_final
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
        given_final = given.restrict(len(b_final), final)
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


def check_deficits(replay: _Replay) -> list[dict[str, Any]]:
    """Dual runs only: every deficit of a placed marker stays at most
    2^-c.  The pass compared each snapshot's deficits as it read them
    (``_Replay.from_records``)."""
    checks: list[dict[str, Any]] = []
    if replay.header["engine"] == "dual":
        _decided(checks, replay, "deficit-bounds")
    return checks


def audit_trace(
    records: list[dict[str, Any]], scenario: Scenario
) -> dict[str, Any]:
    """Full audit of a trace against its scenario; pure and deterministic."""
    replay = _Replay.from_records(records, scenario)
    checks = check_weights(replay)
    checks.extend(check_markers(replay, scenario))
    checks.extend(check_coverage(replay, scenario))
    checks.extend(check_deficits(replay))
    table = decode_halting(replay, scenario)
    stable = set(stable_indices(replay))
    witness = next(
        (
            row for row in table
            if row["index"] in stable and not row["match"]
        ),
        {},
    )
    _check(checks, "coding", not witness, dict(witness))
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
    # Imported here, so that commands that write no trace do not pay for
    # orjson's own imports.
    import orjson

    # Each line is decoded as it is made: decoding one joined bytes object
    # would hold a second copy of the whole trace.
    return "".join(
        [
            orjson.dumps(record, option=orjson.OPT_SORT_KEYS).decode() + "\n"
            for record in records
        ]
    )


# The standard library's C scanner, as ``json.loads`` calls it.
_SCAN = json.JSONDecoder().scan_once
#: The ASCII characters other than ``\n`` at which ``str.splitlines``
#: breaks a line; the others (``\x85``, ``\u2028``, ``\u2029``) are not
#: ASCII.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def trace_from_jsonl(text: str) -> list[dict[str, Any]]:
    """The records of a JSONL trace, one per line that is not blank.

    Lines are those of ``text.splitlines()``.  Each record is decoded where
    it lies in ``text``, by one call to the standard library's C scanner at
    the line's offset, with no copy of the line, and is accepted only when
    the scan ends exactly at the line's end.  Only a line that the scan
    does not read to its end (leading or trailing whitespace, a BOM, extra
    data, no JSON value at all, or a value that runs on past the line) goes
    to ``json.loads``: that call skips a blank line, reads a padded one,
    and otherwise raises what ``json.loads`` raises on the line, except
    that a JSONDecodeError is raised again at its place in the whole text:
    its message gives the trace line and the column in that line, and its
    ``char`` counts in the text with ``\\n`` between the lines.  Any other
    ValueError (an integer past the interpreter's digit limit) or a
    RecursionError (a value nested too deep) is raised again as the same
    type, with ``line N: `` before its message.  A text that may hold a
    line break other than ``\\n`` (any non-ASCII character, or one of
    ``\\r``, ``\\v``, ``\\f`` and ``\\x1c``-``\\x1e``) is first rewritten
    with ``\\n`` between its ``splitlines`` lines.
    """
    if not text.isascii() or any(c in text for c in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())
    records = []
    start, size = 0, len(text)
    while start < size:
        stop = text.find("\n", start)
        if stop < 0:
            stop = size
        try:
            record, end = _SCAN(text, start)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end == stop:
            records.append(record)
        else:
            line = text[start:stop]
            if line.strip():
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    # placed in the text, so the message names the line
                    raise json.JSONDecodeError(exc.msg, text, start + exc.pos)
                except (ValueError, RecursionError) as exc:
                    # nested too deep, or an integer past the digit limit
                    number = text.count("\n", 0, start) + 1
                    raise type(exc)(f"line {number}: {exc}")
        start = stop + 1
    return records
