"""Online code-space allocation and prefix-free machines.

The allocator keeps the classical invariant "at most one free block of each
length", which makes every allocation deterministic: take the longest free
block that still fits, hand out its leftmost extension, and return the
split-off siblings to the free set.  The siblings of one split share a
prefix, so the free lengths are stored as runs, one per split, each with the
split's codeword; an allocation costs a bisection over the runs plus the
bits of the codeword it returns, however many lengths it uncovers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .bitcore import INFINITE, Dyadic, ExtendedLength, dyadic_str


class Exhausted(RuntimeError):
    """No free block can accommodate the requested codeword length."""


class LemmaViolation(RuntimeError):
    """A machine weight bound failed while the construction ran.  The
    engines raise what their machines raise, so ``ceforge run`` catches
    this one class (exit 3)."""


class WeightOverflow(LemmaViolation):
    """Describing an output would push a machine's weight to 1 or beyond:
    the lemma violation a machine itself detects."""


class NotPrefixFree(ValueError):
    """A set of codewords contains a proper prefix pair."""


class FreeBlockSet:
    """Prefix-free cover of the unallocated code space, one block per length.

    The free lengths are kept as sorted, disjoint runs ``lo..hi``, and every
    length ``d`` of a run shares the codeword ``w`` returned by the split that
    filed it: the block of length ``d`` is ``w[:d - 1] + "1"``, and the root
    ``""`` is the only block of length 0.  A split from a block of length
    ``b`` to a codeword ``w`` of length ``L`` uncovers exactly the siblings
    ``w[:d - 1] + "1"`` for ``b < d <= L``, one per length, so it files the
    one run ``b + 1..L`` under ``w`` instead of spelling out every sibling.
    Those lengths were free of blocks before, because ``b`` was the longest
    free length up to ``L``; so the runs stay disjoint and the
    one-block-per-length invariant holds.  ``_lo``, ``_hi`` and ``_split``
    hold the runs' bounds and codewords, in increasing order of length.
    """

    def __init__(self) -> None:
        self._lo: list[int] = [0]
        self._hi: list[int] = [0]
        self._split: list[str] = [""]

    def allocate(self, length: int) -> str:
        """Return a fresh codeword of exactly ``length`` bits.

        Takes the longest free block of length <= ``length`` (unique by the
        one-block-per-length invariant), returns its leftmost depth-``length``
        extension and files the sibling blocks uncovered by the split as one
        run.  Costs a bisection over the runs plus the codeword's own bits.
        """
        if length < 0:
            raise ValueError("length must be a natural number")
        lo, hi, split = self._lo, self._hi, self._split
        i = bisect_right(lo, length) - 1
        if i < 0:
            raise Exhausted(f"no free block of length <= {length}")
        run_lo, run_hi, w = lo[i], hi[i], split[i]
        if run_hi < length:
            # Split the run's top block; every run after i starts above
            # length, so the uncovered siblings file as the run
            # run_hi + 1..length just after it.
            block = w[: run_hi - 1] + "1" if run_hi else ""
            codeword = block + "0" * (length - run_hi)
            if run_lo == run_hi:
                # The run's one length is spent: the new run takes its slot.
                lo[i], hi[i], split[i] = run_hi + 1, length, codeword
            else:
                hi[i] = run_hi - 1
                lo.insert(i + 1, run_hi + 1)
                hi.insert(i + 1, length)
                split.insert(i + 1, codeword)
            return codeword
        # The run holds a block of exactly this length: take it out.
        if run_lo == run_hi:
            del lo[i], hi[i], split[i]
        elif length == run_hi:
            hi[i] = length - 1
        elif length == run_lo:
            lo[i] = length + 1
        else:
            hi[i] = length - 1
            lo.insert(i + 1, length + 1)
            hi.insert(i + 1, run_hi)
            split.insert(i + 1, w)
        return w[: length - 1] + "1" if length else ""


@dataclass(frozen=True)
class MachineEntry:
    codeword: str
    output: str
    stage: int


class PrefixFreeMachine:
    """Append-only prefix-free machine built by online allocation.

    ``reset`` hands back a fresh empty machine with a bumped version number;
    the old object stops growing, and an engine keeps it in ``archived``
    for inspection; the audit reads only the trace.

    The weight is kept as one int, ``_num`` units of 2^-``_exp``, where
    ``_exp`` is the longest length described so far, so a description costs
    a shift and an add; ``weight`` reads it out as a ``Dyadic``.  The
    allocator is built at the first description: most archived versions
    never get one.
    """

    def __init__(self, name: str = "M", version: int = 0) -> None:
        self.name = name
        self.version = version
        self.entries: list[MachineEntry] = []
        self._free: FreeBlockSet | None = None
        self._num = 0
        self._exp = 0
        self._min_len: dict[str, int] = {}
        self._sealed = False

    @property
    def weight(self) -> Dyadic:
        return Dyadic(self._num, self._exp)

    def describe(self, output: str, length: int, stage: int) -> MachineEntry:
        """Allocate a codeword of ``length`` bits for ``output``."""
        if self._sealed:
            raise RuntimeError(f"{self.name} v{self.version} was reset")
        if length < 0:
            raise ValueError("length must be a natural number")
        num, exp = self._num, self._exp
        if length > exp:
            num, exp = num << (length - exp), length
        num += 1 << (exp - length)
        if num >> exp:
            raise WeightOverflow(
                f"{self.name} v{self.version}: weight would reach "
                f"{dyadic_str(num, exp)}"
            )
        if self._free is None:
            self._free = FreeBlockSet()
        codeword = self._free.allocate(length)
        entry = MachineEntry(codeword, output, stage)
        self.entries.append(entry)
        self._num, self._exp = num, exp
        known = self._min_len.get(output)
        if known is None or length < known:
            self._min_len[output] = length
        return entry

    def k_of(self, output: str) -> ExtendedLength:
        """Minimum codeword length describing ``output`` so far."""
        return self._min_len.get(output, INFINITE)

    def reset(self) -> "PrefixFreeMachine":
        """Discard all computations: seal this version, return a fresh one."""
        self._sealed = True
        return PrefixFreeMachine(self.name, self.version + 1)


def check_prefix_free(codewords: list[str]) -> None:
    """Raise NotPrefixFree if any codeword is a proper prefix of another."""
    ordered = sorted(codewords)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            raise NotPrefixFree(f"{a!r} is a prefix of {b!r}")
