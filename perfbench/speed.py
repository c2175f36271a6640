"""Timing that cancels the changing speed of a shared host.

On the shared two-vCPU host the benchmark was built on, other tenants slow
this process by up to 1.7x, in states that flip within a second and drift
over tens of seconds; the same operation's time varied by over 30% between
runs a minute apart.  So ``timed`` samples the machine's speed while it
measures: a fixed probe -- about a millisecond of pure-Python work much like
the program's own (JSON encode and decode, big integers, string splits) --
runs three times just before and just after the interval and, from a
``SIGALRM`` handler, every 50 ms during it.  The time of every probe that
ran inside the interval is subtracted from it.  The interval is then
reported in *reference seconds*: its seconds times ``PROBE_REF_S`` over the
mean probe time, that is, the seconds it would have taken on a machine
where the probe takes ``PROBE_REF_S``.  On the build host the coefficient
of variation of a 2 s engine run fell from 17% to 4% this way, and over ten
runs of each workload no end-to-end time spread (interquartile range over
median) by more than 11%, and most by less than 8%, against 10-47% raw.
Raw seconds are kept alongside in the result file.

A probe must measure the host, not the program it interrupts.  It never
calls the program and runs with the garbage collector off, and each probe
runs its work twice and times only the second run: the first refills the
caches that the interrupted call left in its own state.  Without that
warm-up, probes inside a call ran about 5% slower than those at its edges,
and a change to the program's working set could have moved them too.
``speed_check.py`` tests that a known change to the program moves
reference seconds by the same ratio as seconds.
"""

from __future__ import annotations

import gc
import json
import signal
from time import perf_counter

#: Probe time that one reference second assumes (about the probe's
#: uncontended time on the build host: 2 vCPUs, Python 3.11).
PROBE_REF_S = 0.001
#: Probes before and after each interval, so short ones have samples too.
EDGE_PROBES = 3
#: Seconds between probes inside an interval (about 5% of its time).
INTERVAL_S = 0.05


def _probe_work() -> int:
    records = [
        {"stage": i, "action": "noop", "w": f"{2 * i + 1}/2^{i % 29}"}
        for i in range(150)
    ]
    acc = 0
    for line in [json.dumps(r, sort_keys=True) for r in records]:
        record = json.loads(line)
        num, exp = record["w"].split("/2^")
        acc = ((acc << 1) + (int(num) << (40 - int(exp)))) & ((1 << 256) - 1)
    return acc


class _Sampler:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in ``probe``, warm-ups included

    def probe(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _probe_work()
        warm = perf_counter()
        _probe_work()
        end = perf_counter()
        self.samples.append(end - warm)
        self.busy += end - start
        if enabled:
            gc.enable()


def timed(fn, *args):
    """``(fn(*args), seconds, reference seconds)``; seconds exclude the
    probes that ran inside the call."""
    sampler = _Sampler()
    for _ in range(EDGE_PROBES):
        sampler.probe()
    edge = sampler.busy
    previous = signal.signal(signal.SIGALRM, sampler.probe)
    try:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = elapsed - (sampler.busy - edge)
    for _ in range(EDGE_PROBES):
        sampler.probe()
    speed = sum(sampler.samples) / len(sampler.samples)
    return result, seconds, seconds * PROBE_REF_S / speed
