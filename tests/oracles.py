"""Naive reference scans for the incremental structures in ``ceforge``.

Each oracle recomputes its value from scratch by scanning every stamped
event, entry, trace record or ledger use, so it shares no bookkeeping with
the code it checks.
"""

from ceforge.bitcore import INFINITE


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


def reused(ledger, index: int, start: int, end: int) -> set[str]:
    """Codewords whose uses after the first include one caused by marker
    ``index`` within stages ``[start, end]``, from the full ledger."""
    return {
        codeword
        for codeword, uses in ledger.uses.items()
        for use in uses
        if use.cause == index
        and start <= use.stage <= end
        and use.ordinal >= 2
    }


def b_restrict(replay, n: int, stage: int) -> str:
    """The first ``n`` bits of B at ``stage``."""
    return "".join(
        "1" if replay.in_b(i, stage) else "0" for i in range(n)
    )


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
