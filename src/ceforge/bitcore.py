"""Extended lengths and exact dyadic rationals.

Everything downstream (weight accounting, threshold comparisons, lemma
audits) compares exact dyadic sums, so this module never touches floats
except for the single INFINITE sentinel used for undescribed strings.  On
hot paths those sums are plain ints counting units of one weight 2^-exp
(machine weights, the engine's sums and deficits, the audit's entry
weights and deficit bounds); ``dyadic_str`` and ``dyadic_parts`` write and
read such a pair in the serialized form ``"num/2^exp"``, and ``Dyadic`` is
the value type where a weight is compared with others of any scale or
becomes a report string.
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


def decimal_str(n: int) -> str:
    """The decimal digits of ``n`` at any size.  ``str`` refuses an int past
    the interpreter's digit limit (4,300 digits by default), and then
    ``decimal.Decimal``, which that limit does not cover, converts it."""
    try:
        return str(n)
    except ValueError:
        import decimal  # only here: most runs never need it

        return str(decimal.Decimal(n))


def decimal_int(text: str) -> int:
    """The int that ``text`` writes, as ``int`` reads it, at any size: past
    the interpreter's digit limit, ASCII decimal digits are read through
    ``decimal.Decimal``.  Anything else raises ValueError."""
    try:
        return int(text)
    except ValueError:
        if not (text.isascii() and text.isdigit()):
            raise
        import decimal

        return int(decimal.Decimal(text))


def canonical(num: int, exp: int) -> tuple[int, int]:
    """``(num, exp)`` for the value num/2^exp, num >= 0, in canonical form:
    ``num`` odd or zero, ``exp`` >= 0, and 0 for a zero value.  The trailing
    zero bits are found at once, not one at a time."""
    if exp < 0:
        return num << -exp, 0
    if not num:
        return 0, 0
    shift = min((num & -num).bit_length() - 1, exp)
    return num >> shift, exp - shift


def dyadic_str(num: int, exp: int) -> str:
    """The serialized form ``"num/2^exp"`` of the value num/2^exp, num >= 0,
    written in canonical form at any size: every weight in a trace or a
    report is written here."""
    num, exp = canonical(num, exp)
    return f"{decimal_str(num)}/2^{decimal_str(exp)}"


def dyadic_parts(text: str) -> tuple[int, int]:
    """The ints ``(num, exp)`` that the serialized form ``"num/2^exp"``
    writes (a plain int has exp 0), at any size, as written, not made
    canonical.  Malformed text raises ValueError; a negative ``num`` is
    returned as such."""
    num_s, sep, exp_s = text.partition("/2^")
    return decimal_int(num_s), decimal_int(exp_s) if sep else 0


class NegativeResult(ArithmeticError):
    """Raised when a dyadic subtraction would produce a negative value."""


class Dyadic:
    """Exact nonnegative dyadic rational ``num / 2**exp``.

    Canonical form: ``num`` is odd or zero, and a zero value has ``exp == 0``.
    All arithmetic is exact; there is no rounding anywhere.  An integral
    value equals, and hashes as, the int it is.

    The stage loop and the audit's per-entry sums keep weights as ints at
    one scale instead (see the module docstring); a ``Dyadic`` is built
    where a weight is read out (``PrefixFreeMachine.weight``), where sums
    of different scales meet (the audit's containers and reuse bounds) and
    where a value becomes a report string.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0) -> None:
        if num < 0:
            raise NegativeResult(f"negative dyadic: {num}/2^{exp}")
        num, exp = canonical(num, exp)
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
        """Parse the serialized form ``"num/2^exp"`` (plain ints allowed), at
        any size.

        Malformed text, a negative value included, raises ValueError.
        """
        num, exp = dyadic_parts(text)
        if num < 0:
            raise ValueError(f"negative dyadic: {text!r}")
        return cls(num, exp)

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
            return self.exp == 0 and self.num == other
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
        # Equal to the int's hash when integral, as ``__eq__`` requires.
        return hash(self.num) if self.exp == 0 else hash((self.num, self.exp))

    def __bool__(self) -> bool:
        return self.num != 0

    def __str__(self) -> str:
        return dyadic_str(self.num, self.exp)

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"


ZERO: Final = Dyadic(0)
ONE: Final = Dyadic(1)
