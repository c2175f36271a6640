"""Spans and counters around ceforge's public calls, patched from outside.

The tracer replaces module and class attributes where the program looks
them up (``ceforge.cli.audit_trace``, ``ceforge.audit.check_markers``,
``PrefixFreeMachine.describe``, ...) and restores them on ``uninstall``.
Nothing in ``src/`` knows about it.

* A *span* (name, start, end, parent, operation id) is kept for each call of
  a wrapped function that runs rarely enough to record one by one.
* Hot calls -- ``Dyadic`` arithmetic and comparisons, ``k_of``, ``reset``,
  ``restrict``, ``allocate`` and ``step`` -- get counters instead.  Each count
  is attributed to the phase of its nearest enclosing gen, engine or audit
  span.  ``allocate`` also accumulates busy time, which is subtracted from
  the self time of the span it ran in, and ``step`` keeps its durations for
  percentiles.

A span's self time is its duration minus its child spans' durations and the
allocator time spent directly inside it.  All times are integer
nanoseconds.  ``check_closure`` tests the tracer's own bookkeeping: spans
nest, and the self times of a span and of everything below it add up to its
duration.  It cannot see a wrapper that never fires because the program now
looks the name up somewhere else; its time would silently move into a
parent's self time.  ``silent`` names such wrappers, and a traced pass in
which any of them recorded no call fails.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns

PHASES = ("gen", "engine", "audit")

# Span names, by the attribute they wrap.  The first part of a name is its
# layer; the phase of a span, if any, is the one its counters go to.
_MODULE_SPANS = [
    # (module, attribute, span name, phase)
    ("approx", "gen_scenario", "approx.gen", "gen"),
    ("cli", "cmd_run", "cli.run", None),
    ("cli", "cmd_audit", "cli.audit", None),
    ("cli", "cmd_kc", "cli.kc", None),
    ("cli", "trace_to_jsonl", "audit.encode", "audit"),
    ("cli", "trace_from_jsonl", "audit.decode", "audit"),
    ("cli", "audit_trace", "audit.replay", "audit"),
    ("audit", "check_weights", "audit.check_weights", "audit"),
    ("audit", "check_markers", "audit.check_markers", "audit"),
    ("audit", "check_coverage", "audit.check_coverage", "audit"),
    ("audit", "check_deficits", "audit.check_deficits", "audit"),
    ("audit", "decode_halting", "audit.decode_halting", "audit"),
]

COUNTERS = (
    "bitcore.pow2_neg_calls",
    "bitcore.dyadic_cmp_calls",
    "bitcore.dyadic_add_calls",
    "approx.restrict_calls",
    "machines.k_of_calls",
    "machines.reset_calls",
    "machines.allocate_calls",
)


class Tracer:
    def __init__(self, ceforge) -> None:
        self.ceforge = ceforge
        self._saved: list[tuple[object, str, object]] = []
        #: Every span and counter name a wrapper records under.
        self.wrapped: list[str] = ["engine.step", *COUNTERS]
        # Wrappers hold these two objects, so ``reset`` clears them in place.
        self.counts = {name: Counter() for name in COUNTERS}
        self.step_ns: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (the patches stay installed)."""
        # span: [name, start, end, parent index, operation id]
        self.spans: list[list] = []
        self.covered: list[int] = []  # per span: children + allocator ns
        self.allocate_in: list[int] = []  # per span: allocator ns inside
        self.stack: list[int] = []
        self.phase = "other"
        self.op = 0
        for counts in self.counts.values():
            counts.clear()
        self.step_ns.clear()
        self.allocate_ns = 0
        self.overflow = 0
        self.encoded: list[tuple[int, int]] = []  # (records, bytes)
        self.checks_failed = 0
        self.runs: list[tuple[object, list]] = []  # (engine, records)
        self.engine: Counter = Counter()

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op])
        self.covered.append(0)
        self.allocate_in.append(0)
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = perf_counter_ns()
        span = self.spans[index]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.covered[span[3]] += end - span[1]

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, fn, name: str, phase: str | None, after=None):
        tracer = self
        self.wrapped.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            outer = tracer.phase
            if phase is not None:
                tracer.phase = phase
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.phase = outer
                tracer._close(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        tracer = self
        counts = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[tracer.phase] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        cf = self.ceforge
        after = {
            "audit.encode": self._after_encode,
            "audit.replay": self._after_audit,
        }
        for module, attr, name, phase in _MODULE_SPANS:
            owner = getattr(cf, module)
            wrapper = self._span(
                getattr(owner, attr), name, phase, after.get(name)
            )
            self._patch(owner, attr, wrapper)

        scenario = cf.approx.Scenario
        from_json = scenario.__dict__["from_json"].__func__
        self._patch(
            scenario,
            "from_json",
            classmethod(self._span(from_json, "approx.parse", None)),
        )
        self._patch(
            cf.approx.CESetApprox,
            "restrict",
            self._counted(cf.approx.CESetApprox.restrict, "approx.restrict_calls"),
        )

        dyadic = cf.bitcore.Dyadic
        pow2_neg = dyadic.__dict__["pow2_neg"].__func__
        self._patch(
            dyadic,
            "pow2_neg",
            classmethod(self._counted(pow2_neg, "bitcore.pow2_neg_calls")),
        )
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            self._patch(
                dyadic,
                op,
                self._counted(getattr(dyadic, op), "bitcore.dyadic_cmp_calls"),
            )
        self._patch(
            dyadic,
            "__add__",
            self._counted(dyadic.__add__, "bitcore.dyadic_add_calls"),
        )

        machine = cf.machines.PrefixFreeMachine
        self._patch(
            machine,
            "k_of",
            self._counted(machine.k_of, "machines.k_of_calls"),
        )
        self._patch(
            machine,
            "reset",
            self._counted(machine.reset, "machines.reset_calls"),
        )
        self._patch(machine, "describe", self._describe(machine.describe))
        free = cf.machines.FreeBlockSet
        self._patch(free, "allocate", self._allocate(free.allocate))

        engine = cf.engine.BaseEngine
        self._patch(
            engine,
            "__init__",
            self._span(engine.__init__, "engine.init", "engine"),
        )
        self._patch(
            engine,
            "run",
            self._span(engine.run, "engine.run", "engine", self._after_run),
        )
        self._patch(engine, "step", self._step(engine.step))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- special wrappers -----------------------------------------------

    def _describe(self, fn):
        overflow = self.ceforge.machines.WeightOverflow
        span = self._span(fn, "machines.describe", None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return span(*args, **kwargs)
            except overflow:
                tracer.overflow += 1
                raise

        return wrapper

    def _allocate(self, fn):
        tracer = self
        counts = self.counts["machines.allocate_calls"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter_ns() - start
                counts[tracer.phase] += 1
                tracer.allocate_ns += busy
                if tracer.stack:
                    top = tracer.stack[-1]
                    tracer.covered[top] += busy
                    tracer.allocate_in[top] += busy

        return wrapper

    def _step(self, fn):
        samples = self.step_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            samples.append(perf_counter_ns() - start)
            return result

        return wrapper

    def _after_encode(self, args, text) -> None:
        # The JSONL is ASCII (``json.dumps`` escapes the rest): chars = bytes.
        self.encoded.append((len(args[0]), len(text)))

    def _after_audit(self, args, report) -> None:
        self.checks_failed += sum(1 for c in report["checks"] if not c["pass"])

    def _after_run(self, args, records) -> None:
        # Kept until the operation ends; ``finish_op`` reads them outside
        # every span so the reading is not charged to any layer.
        self.runs.append((args[0], records))

    # -- results --------------------------------------------------------

    def finish_op(self) -> None:
        """Add the counts read off this operation's engines and records to
        ``self.engine``; called between operations, outside every span."""
        stats = self.engine
        for engine, records in self.runs:
            stats["markers"] += len(engine.markers)
            stats["archived_versions"] += len(engine.archived)
            for record in records[1:]:
                stats["stages"] += 1
                stats["stages." + record["action"]] += 1
                stats["injuries"] += len(record["injured"])
                stats["n_entries"] += len(record["n_entries"])
                stats["m_entries"] += len(record["m_entries"])
        self.runs.clear()

    def self_ns(self) -> list[int]:
        return [
            (span[2] - span[1]) - covered
            for span, covered in zip(self.spans, self.covered)
        ]

    def silent(self, names) -> list[str]:
        """Those of ``names`` (span or counter names) that recorded no call
        since ``reset``."""
        fired = {span[0] for span in self.spans}
        fired.update(name for name, counts in self.counts.items() if counts)
        if self.step_ns:
            fired.add("engine.step")
        return [name for name in names if name not in fired]

    def check_closure(self) -> str | None:
        """None if every span lies inside its parent, siblings do not
        overlap, and for every span the self times of it and all spans
        below it plus the allocator time inside them equal its duration.
        This checks the tracer's bookkeeping, not the program."""
        if self.stack:
            return f"{len(self.stack)} spans still open"
        own = self.self_ns()
        subtree = list(own)
        last_end: dict[int, int] = {}
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[index]
            subtree[index] += self.allocate_in[index]
            if parent < 0:
                continue
            p_start, p_end = self.spans[parent][1], self.spans[parent][2]
            if not p_start <= start <= end <= p_end:
                return f"span {index} ({name}) lies outside its parent"
            if end > last_end.get(parent, p_end):
                return f"span {index} ({name}) overlaps a sibling"
            last_end[parent] = start
            subtree[parent] += subtree[index]
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if subtree[index] != end - start:
                return f"span {index} ({name}): self times do not add up"
        return None
