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
    """Prefix-free cover of the unallocated code space, one block per length.

    ``free`` maps each length ``d`` of a free block to the codeword returned
    by the split that filed it; the block itself is that codeword's first
    ``d - 1`` bits followed by ``1``, and the root ``""`` is the only block of
    length 0.  A split from a block of length ``b`` to a codeword ``w`` of
    length ``L`` uncovers exactly the siblings ``w[:d - 1] + "1"`` for
    ``b < d <= L``, one per length, so it stores the one string ``w`` under
    each new length instead of spelling out every sibling.  The lengths it
    files were free of blocks before, because ``b`` was the longest free
    length up to ``L``; so the one-block-per-length invariant holds.
    """

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
        free = self.free
        base_len = length
        while base_len not in free:
            if base_len == 0:
                raise Exhausted(f"no free block of length <= {length}")
            base_len -= 1
        split = free.pop(base_len)
        block = split[: base_len - 1] + "1" if base_len else ""
        codeword = block + "0" * (length - base_len)
        free.update(dict.fromkeys(range(base_len + 1, length + 1), codeword))
        return codeword


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
