"""Naive reference scans for the incremental structures in ``ceforge``.

Each oracle recomputes a shortest-description length from scratch by
scanning every stamped event or entry, so it shares no bookkeeping with the
code it checks.
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
