"""Exact dyadic arithmetic against an independent Fraction oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ceforge.bitcore import Dyadic, INFINITE, NegativeResult, ONE, ZERO

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=0, max_value=60),
)


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


class TestInfinite:
    def test_greater_than_every_natural(self):
        assert INFINITE > 10**9
        assert not INFINITE > INFINITE

    def test_threshold_semantics(self):
        # an undescribed string satisfies any finite threshold strictly
        assert INFINITE > 7 + 3

