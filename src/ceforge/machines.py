"""Online code-space allocation and prefix-free machines.

The allocator keeps the classical invariant "at most one free block of each
length", which makes every allocation deterministic: take the longest free
block that still fits, hand out its leftmost extension, and return the
split-off siblings to the free set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitcore import INFINITE, Dyadic, ExtendedLength, ONE, ZERO


class Exhausted(RuntimeError):
    """No free block can accommodate the requested codeword length."""


class WeightOverflow(RuntimeError):
    """Describing an output would push a machine's weight to 1 or beyond."""


class NotPrefixFree(ValueError):
    """A set of codewords contains a proper prefix pair."""


class FreeBlockSet:
    """Prefix-free cover of the unallocated code space, one block per length."""

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


@dataclass(frozen=True)
class MachineEntry:
    codeword: str
    output: str
    stage: int


class PrefixFreeMachine:
    """Append-only prefix-free machine built by online allocation.

    ``reset`` hands back a fresh empty machine with a bumped version number;
    the old object stops growing and serves as the immutable archive needed
    for per-version weight audits.
    """

    def __init__(self, name: str = "M", version: int = 0) -> None:
        self.name = name
        self.version = version
        self.entries: list[MachineEntry] = []
        self._free = FreeBlockSet()
        self._weight = ZERO
        self._min_len: dict[str, int] = {}
        self._sealed = False

    @property
    def weight(self) -> Dyadic:
        return self._weight

    def describe(self, output: str, length: int, stage: int) -> MachineEntry:
        """Allocate a codeword of ``length`` bits for ``output``."""
        if self._sealed:
            raise RuntimeError(f"{self.name} v{self.version} was reset")
        new_weight = self._weight + Dyadic.pow2_neg(length)
        if new_weight >= ONE:
            raise WeightOverflow(
                f"{self.name} v{self.version}: weight would reach {new_weight}"
            )
        codeword = self._free.allocate(length)
        entry = MachineEntry(codeword, output, stage)
        self.entries.append(entry)
        self._weight = new_weight
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
