"""Extended lengths and exact dyadic rationals.

Everything downstream (weight accounting, threshold comparisons, lemma
audits) compares exact dyadic sums, so this module never touches floats
except for the single INFINITE sentinel used for undescribed strings.
"""

from __future__ import annotations

import math
from typing import Final, Union

#: Length of a description that does not exist (yet).  ``INFINITE`` compares
#: greater than every natural number while ``INFINITE > INFINITE`` is false,
#: which is exactly the comparison semantics the threshold checks need.
INFINITE: Final = math.inf

#: A natural number or INFINITE.
ExtendedLength = Union[int, float]


class NegativeResult(ArithmeticError):
    """Raised when a dyadic subtraction would produce a negative value."""


class Dyadic:
    """Exact nonnegative dyadic rational ``num / 2**exp``.

    Canonical form: ``num`` is odd or zero, and a zero value has ``exp == 0``.
    All arithmetic is exact; there is no rounding anywhere.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0) -> None:
        if num < 0:
            raise NegativeResult(f"negative dyadic: {num}/2^{exp}")
        if exp < 0:
            num <<= -exp
            exp = 0
        while num and num % 2 == 0 and exp > 0:
            num >>= 1
            exp -= 1
        if num == 0:
            exp = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def pow2_neg(cls, length: int) -> "Dyadic":
        """The weight ``2**-length`` of a codeword of the given length."""
        if length < 0:
            raise ValueError("length must be a natural number")
        return cls(1, length)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse the serialized form ``"num/2^exp"`` (plain ints allowed).

        Malformed text, a negative value included, raises ValueError.
        """
        num_s, sep, exp_s = text.partition("/2^")
        num = int(num_s)
        if num < 0:
            raise ValueError(f"negative dyadic: {text!r}")
        return cls(num, int(exp_s) if sep else 0)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        n = (self.num << (e - self.exp)) - (other.num << (e - other.exp))
        if n < 0:
            raise NegativeResult(f"{self} - {other} is negative")
        return Dyadic(n, e)

    def _cmp(self, other: "Dyadic") -> int:
        e = max(self.exp, other.exp)
        a = self.num << (e - self.exp)
        b = other.num << (e - other.exp)
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Dyadic(other)
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def __bool__(self) -> bool:
        return self.num != 0

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"


ZERO: Final = Dyadic(0)
ONE: Final = Dyadic(1)
