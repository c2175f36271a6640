"""Exact dyadic arithmetic against an independent Fraction oracle."""

import decimal
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ceforge.bitcore import (
    Dyadic,
    INFINITE,
    NegativeResult,
    ONE,
    ZERO,
    canonical,
    decimal_int,
    decimal_str,
    dyadic_parts,
    dyadic_str,
)

from oracles import canonical_loop

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=0, max_value=60),
)


#: Numerators of up to 15,040 bits, past the 4,300-digit limit of ``str``
#: (about 14,280 bits), with up to 15,039 trailing zero bits.
numerators = st.one_of(
    st.integers(min_value=0, max_value=1 << 70),
    st.builds(
        lambda n, shift: n << shift,
        st.integers(min_value=0, max_value=1 << 70),
        st.integers(min_value=0, max_value=200),
    ),
    st.builds(
        lambda n, shift: ((1 << 14_999) + n) << shift,
        st.sampled_from([0, 1, 3 << 40, (1 << 14_998) - 1]),
        st.integers(min_value=0, max_value=40),
    ),
)
exponents = st.integers(min_value=-80, max_value=15_100)


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(4, 3)
        assert (d.num, d.exp) == (1, 1)
        assert (Dyadic(0, 17).num, Dyadic(0, 17).exp) == (0, 0)

    def test_negative_exponent_means_shift(self):
        assert Dyadic(3, -2) == Dyadic(12)

    def test_pow2_neg(self):
        assert as_fraction(Dyadic.pow2_neg(5)) == Fraction(1, 32)
        with pytest.raises(ValueError):
            Dyadic.pow2_neg(-1)

    def test_parse_round_trip(self):
        for d in (ZERO, ONE, Dyadic(5, 3), Dyadic(7, 60)):
            assert Dyadic.parse(str(d)) == d
        assert Dyadic.parse("3") == Dyadic(3)
        for text in ("-1/2^0", "-3", "x/2^1", "1/2^"):
            with pytest.raises(ValueError):
                Dyadic.parse(text)

    def test_str_and_parse_past_the_digit_limit(self):
        """A numerator of 4,516 digits, past ``str``'s default limit, is
        written and read back exactly."""
        d = Dyadic((1 << 15_000) - 1, 15_000)
        text = str(d)
        num, _, exp = text.partition("/2^")
        assert len(num) == 4_516 and exp == "15000"
        assert num == str(decimal.Decimal(d.num))
        assert Dyadic.parse(text) == d
        for bad in ("-" + text, "1" * 5_000 + "x/2^1", "1" * 5_000 + "/2^x"):
            with pytest.raises(ValueError):
                Dyadic.parse(bad)

    def test_subtraction_below_zero_raises(self):
        with pytest.raises(NegativeResult):
            Dyadic(1, 3) - Dyadic(1, 2)

    def test_immutable(self):
        d = Dyadic(1, 1)
        with pytest.raises(AttributeError):
            d.num = 2

    @given(dyadics, dyadics)
    def test_add_matches_fractions(self, a, b):
        assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)

    @given(dyadics, dyadics)
    def test_sub_matches_fractions(self, a, b):
        fa, fb = as_fraction(a), as_fraction(b)
        if fa >= fb:
            assert as_fraction(a - b) == fa - fb
        else:
            with pytest.raises(NegativeResult):
                a - b

    @given(dyadics, dyadics)
    def test_ordering_matches_fractions(self, a, b):
        fa, fb = as_fraction(a), as_fraction(b)
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a == b) == (fa == fb)

    @given(dyadics)
    def test_canonical_invariant(self, d):
        assert d.num == 0 or d.num % 2 == 1 or d.exp == 0

    def test_integral_values_equal_and_hash_as_ints(self):
        assert Dyadic(2) == 2 and hash(Dyadic(2)) == hash(2)
        assert Dyadic(8, 2) == 2 and hash(Dyadic(8, 2)) == hash(2)
        assert hash(ZERO) == hash(0) and hash(ONE) == hash(1)
        assert {Dyadic(2): "x"}.get(2) == "x"
        assert {2: "x"}.get(Dyadic(4, 1)) == "x"
        assert Dyadic(1, 1) != 0 and Dyadic(1, 1) != 1

    def test_never_equals_a_negative_int(self):
        assert (Dyadic(1) == -1) is False
        assert (ZERO == -1) is False
        assert Dyadic(1) != -1


class TestIntegerShortcuts:
    """``canonical``, ``dyadic_str`` and ``dyadic_parts`` against the loop
    that made ``Dyadic`` canonical one trailing zero at a time."""

    @given(numerators, exponents)
    def test_canonical_matches_the_loop(self, num, exp):
        expected = canonical_loop(num, exp)
        assert canonical(num, exp) == expected
        d = Dyadic(num, exp)
        assert (d.num, d.exp) == expected

    @given(numerators, exponents)
    def test_str_matches_dyadic_str(self, num, exp):
        text = dyadic_str(num, exp)
        assert text == str(Dyadic(num, exp))
        n, e = canonical_loop(num, exp)
        assert text == f"{decimal.Decimal(n)}/2^{e}"
        assert dyadic_parts(text) == (n, e)

    def test_parts_as_written(self):
        assert dyadic_parts("4/2^3") == (4, 3)
        assert dyadic_parts("7") == (7, 0)
        assert dyadic_parts("-1/2^2") == (-1, 2)
        for text in ("x/2^1", "1/2^", "1/2^x"):
            with pytest.raises(ValueError):
                dyadic_parts(text)


class TestInfinite:
    def test_greater_than_every_natural(self):
        assert INFINITE > 10**9
        assert not INFINITE > INFINITE

    def test_threshold_semantics(self):
        # an undescribed string satisfies any finite threshold strictly
        assert INFINITE > 7 + 3



class TestDecimal:
    @pytest.mark.parametrize("bits", [0, 1, 64, 14_000, 15_000, 40_000])
    def test_matches_str_and_int_without_a_limit(self, bits):
        n = (1 << bits) - 1
        text = decimal_str(n)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == str(n)
        finally:
            sys.set_int_max_str_digits(limit)
        assert decimal_int(text) == n

    def test_int_rules_under_the_limit(self):
        assert decimal_int("+7") == 7
        assert decimal_int("-7") == -7
        for bad in ("", "x", "1.5", "1e5", "9" * 5_000 + " ", "٣" * 5_000):
            with pytest.raises(ValueError):
                decimal_int(bad)
