"""``ceforge`` command line: generate scenarios, run engines, audit traces,
and drive the standalone code-allocation and real-encoding tools."""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from pathlib import Path
from typing import Any

from .approx import (
    JSON_INT_BOUND,
    CERealApprox,
    BlockOverflow,
    GenParams,
    Scenario,
    ScenarioError,
    encode_real,
    gen_scenario,
)
from .audit import audit_trace, report_to_json, trace_from_jsonl, trace_to_jsonl
from .bitcore import decimal_str
from .engine import DualEngine, LemmaViolation, SingleEngine
from .machines import Exhausted, FreeBlockSet

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCENARIO = 2
EXIT_LEMMA = 3

#: Longest codeword ``kc`` allocates: the table spells every codeword out in
#: bits, so a longer one is a bad request, refused before it is built.
KC_LENGTH_BOUND = 1 << 20


def _load_scenario(path: str) -> Scenario | None:
    """Read the scenario at ``path``; on failure print one ``scenario
    error`` line and return None."""
    try:
        return Scenario.from_json(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        message = f"scenario file is not UTF-8: {exc}"
    except (OSError, ScenarioError) as exc:
        message = str(exc)
    print(f"scenario error: {message}", file=sys.stderr)
    return None


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; on failure print one ``output error``
    line and return False."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return False
    return True


def _report(report: dict[str, Any], path: str | None) -> int:
    """Write ``report`` to ``path``, or print it if there is none, and
    return the exit code: EXIT_FAIL if it could not be written, else
    EXIT_LEMMA if a check failed, else EXIT_OK."""
    text = report_to_json(report)
    if path:
        if not _write(path, text + "\n"):
            return EXIT_FAIL
    else:
        print(text)
    return EXIT_OK if report["pass"] else EXIT_LEMMA


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return EXIT_SCENARIO
    stages = args.stages if args.stages is not None else scenario.stages
    if stages < 1:
        print(f"scenario error: stages must be >= 1, got {stages}",
              file=sys.stderr)
        return EXIT_SCENARIO
    if stages >= JSON_INT_BOUND:
        print("scenario error: stages must be below 2^53", file=sys.stderr)
        return EXIT_SCENARIO
    engine_cls = SingleEngine if args.engine == "single" else DualEngine
    try:
        records = engine_cls(scenario).run(stages)
    except LemmaViolation as exc:
        print(f"lemma violation: {exc}", file=sys.stderr)
        return EXIT_LEMMA
    if args.trace_out:
        if not _write(args.trace_out, trace_to_jsonl(records)):
            return EXIT_FAIL
    report = audit_trace(records, scenario)
    code = _report(report, args.report_out)
    if code == EXIT_LEMMA:
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        print(f"audit failed: {', '.join(failed)}", file=sys.stderr)
    return code


def cmd_gen(args: argparse.Namespace) -> int:
    params = GenParams()
    if args.stages is not None:
        params.stages = args.stages
        params.active_stages = min(params.active_stages, args.stages)
    try:
        params.validate()
    except ValueError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    scenario = gen_scenario(args.seed, params)
    text = scenario.to_json()
    if args.out:
        if not _write(args.out, text + "\n"):
            return EXIT_FAIL
    else:
        print(text)
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return EXIT_SCENARIO
    try:
        # Read as bytes and decoded whole, with no newline translation, so
        # that the decoder alone decides where a line ends.
        trace_text = Path(args.trace).read_bytes().decode("utf-8")
        report = audit_trace(trace_from_jsonl(trace_text), scenario)
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    return _report(report, args.report_out)


def cmd_kc(args: argparse.Namespace) -> int:
    """Requests file: one ``target length`` pair per line.

    Drives the raw allocator, so a stream of total weight exactly 1 is
    honoured (the container types enforce the strict bound instead).  The
    file is read as UTF-8 and the table written as UTF-8 bytes, whatever
    the locale; a stdout with no byte buffer (an in-process caller's
    ``StringIO``) takes the text.

    A request stream repeats a few length spellings (nine in a 200,000-line
    stream of lengths 18..26), so ``lengths`` maps each canonical spelling
    that has passed every test below to its int, and such a spelling is
    tested only at its first line.  A spelling that fails is never stored,
    so it is refused at its first line, in the same order relative to
    ``Exhausted`` as without the dict.  The key is the spelling, not its
    int: "3" passes where "+3" and "٣" must not.  Only a canonical spelling
    ("0", or digits with no leading zero) is stored: a padded one such as
    "007" is tested at each of its lines.  So the dict holds at most one
    entry per length up to ``KC_LENGTH_BOUND``, however many distinct
    spellings the file holds.
    """
    allocate = FreeBlockSet().allocate
    lengths: dict[str, int] = {}
    rows = []
    try:
        # The lines are not bound to a name, so they are freed before the
        # table is joined: kept, they raised the peak by 9 MB on 200,000
        # requests.
        for line in Path(args.requests).read_text(
            encoding="utf-8"
        ).splitlines():
            fields = line.split()
            if not fields or fields[0][0] == "#":
                continue
            target, field = fields
            length = lengths.get(field)
            if length is None:
                # ``int`` words what it refuses, and reads some lengths that
                # are not ASCII decimal digits, such as "+3", "1_0" and "٣".
                length = int(field)
                if not (field.isascii() and field.isdigit()):
                    raise ValueError(
                        f"length {field!r} is not written in ASCII decimal "
                        "digits"
                    )
                if length > KC_LENGTH_BOUND:
                    raise ValueError(
                        f"length {length} exceeds the bound {KC_LENGTH_BOUND}"
                    )
                if field[0] != "0" or field == "0":
                    lengths[field] = length
            rows.append(f"{allocate(length)}\t{target}\n")
    except (OSError, ValueError, Exhausted) as exc:
        print(f"request error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    # One write for the whole table: a stream holds 10^5 rows and more.
    table = "".join(rows)
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(table)
    else:
        sys.stdout.flush()
        buffer.write(table.encode("utf-8"))
    return EXIT_OK


def cmd_encode_real(args: argparse.Namespace) -> int:
    """Real file: JSON list of per-stage bit vectors."""
    try:
        vectors = json.loads(Path(args.real).read_text(encoding="utf-8"))
        real = CERealApprox(vectors)
        encoded = encode_real(real)
    except (OSError, ValueError, BlockOverflow, RecursionError) as exc:
        print(f"real error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    # One write for the whole table, as ``kc`` does.  Block k's elements lie
    # near 2^k, so a wide real's can pass ``str``'s digit limit.
    sys.stdout.write(
        "".join(
            f"{decimal_str(element)}\t{stage}\n"
            for element, stage in sorted(encoded.schedule)
        )
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process and shared after
    it: parsing leaves it as it was, and building it costs about as much as
    a small command's own work."""
    parser = argparse.ArgumentParser(
        prog="ceforge",
        description="Deterministic marker-construction engines and audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an engine and audit the trace")
    run.add_argument("--scenario", required=True)
    run.add_argument("--stages", type=int, default=None)
    run.add_argument("--engine", choices=("single", "dual"), default="single")
    run.add_argument("--trace-out", default=None)
    run.add_argument("--report-out", default=None)

    gen = sub.add_parser("gen", help="generate a scenario from a seed")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--stages", type=int, default=None)
    gen.add_argument("--out", default=None)

    audit = sub.add_parser("audit", help="audit an existing trace")
    audit.add_argument("--scenario", required=True)
    audit.add_argument("--trace", required=True)
    audit.add_argument("--report-out", default=None)

    kc = sub.add_parser("kc", help="allocate codewords for a request file")
    kc.add_argument("requests")

    enc = sub.add_parser(
        "encode-real", help="encode a staged real as a set schedule"
    )
    enc.add_argument("real")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run its command; returns the exit code.

    The interpreter's cyclic garbage collector is paused while the command
    runs.  A command allocates many records, entries and index containers
    and frees them by reference count, so the collector's young-generation
    passes, which allocation counts trigger, walk live objects and free
    nothing; they took 2-6% of a ``run`` or ``audit`` on the benchmark's
    scenarios.  That holds only while no command makes a reference cycle:
    the ``*_leave_no_cyclic_garbage`` tests in ``tests/test_cli.py`` run
    every command with the collector off and require ``gc.collect()`` to
    find nothing afterwards.  The collector's state is restored on the way
    out, so an in-process caller gets it back as it found it.
    """
    args = build_parser().parse_args(argv)
    # Looked up at each call, not kept in the shared parser, so that a
    # ``cmd_*`` replaced on the module after the first call is the one run.
    commands = {
        "run": cmd_run,
        "gen": cmd_gen,
        "audit": cmd_audit,
        "kc": cmd_kc,
        "encode-real": cmd_encode_real,
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        return commands[args.command](args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
