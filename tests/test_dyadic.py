"""Dyadic arithmetic against the Fraction oracle.

Every operation must agree with fractions.Fraction exactly; there is no
tolerance anywhere in this file.
"""

import operator
import re
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

import pytest
from oracles import as_fraction

from randlab.dyadic import Dyadic

dyadics = st.builds(Dyadic,
                    st.integers(min_value=-(1 << 20), max_value=1 << 20),
                    st.integers(min_value=0, max_value=24))


@given(dyadics)
def test_canonical_form(d):
    # Odd numerator, or zero with exponent zero.
    if d.num == 0:
        assert d.exp == 0
    elif d.exp > 0:
        assert d.num % 2 == 1


@given(dyadics, dyadics)
def test_add_matches_fraction(a, b):
    assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)


@given(dyadics, dyadics)
def test_sub_matches_fraction(a, b):
    assert as_fraction(a - b) == as_fraction(a) - as_fraction(b)


@given(dyadics, dyadics)
def test_mul_matches_fraction(a, b):
    assert as_fraction(a * b) == as_fraction(a) * as_fraction(b)


@given(dyadics, dyadics)
def test_comparisons_match_fraction(a, b):
    fa, fb = as_fraction(a), as_fraction(b)
    assert (a == b) == (fa == fb)
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a > b) == (fa > fb)


@given(dyadics)
def test_negation_and_int_mixing(d):
    assert as_fraction(-d) == -as_fraction(d)
    assert as_fraction(d + 1) == as_fraction(d) + 1
    assert as_fraction(1 - d) == 1 - as_fraction(d)
    assert as_fraction(2 * d) == 2 * as_fraction(d)


@given(dyadics)
def test_fraction_comparison_is_exact(d):
    third = Fraction(1, 3)
    assert (d < third) == (as_fraction(d) < third)
    assert (d == third) is False  # no dyadic equals 1/3


@given(st.builds(Dyadic, st.integers(), st.integers(min_value=0, max_value=200)))
def test_hash_is_the_rational_hash(d):
    # Equal rationals hash alike, so a Dyadic and the Fraction or int it
    # equals are one key; the hash is computed from num and exp alone.
    assert hash(d) == hash(Fraction(d.num, 1 << d.exp))
    assert {d: 1}.get(Fraction(d.num, 1 << d.exp)) == 1


def test_negative_exponent_normalizes():
    assert Dyadic(3, -2) == Dyadic(12)
    assert Dyadic(3, -2).exp == 0


def test_half_pow():
    assert Dyadic.half_pow(3) == Fraction(1, 8)
    with pytest.raises(ValueError):
        Dyadic.half_pow(-1)


def test_zero_one():
    assert Dyadic(0) == 0


@given(dyadics)
def test_render_parse_round_trip(d):
    assert Dyadic.parse(str(d)) == d


def test_parse_rejects_plain_numbers():
    with pytest.raises(ValueError):
        Dyadic.parse("3")


@given(dyadics, dyadics)
def test_hash_consistent_with_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_coercion_rejects_float():
    with pytest.raises(TypeError):
        Dyadic(1, 1) + 0.5


@pytest.mark.parametrize("num, exp, bad", [(0.5, 0, "0.5"), (1, 1.0, "1.0"), (True, 0, "True"),
                                            (1, False, "False"), ("1", 0, "'1'")])
def test_constructor_refuses_an_inexact_part(num, exp, bad):
    # A float would compare and then fail in arithmetic; a bool would print
    # as `Dyadic(True, 0)`.  The error names the value.
    with pytest.raises(TypeError, match=re.escape(bad)):
        Dyadic(num, exp)


@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_ordering_against_a_non_rational_names_both_types(compare):
    with pytest.raises(TypeError, match="'Dyadic' and 'float'"):
        compare(Dyadic(1), 0.5)
    with pytest.raises(TypeError, match="'str' and 'Dyadic'"):
        compare("1", Dyadic(1))
    # `==` still answers False rather than raising.
    assert not Dyadic(1, 1) == 0.5 and Dyadic(1, 1) != 0.5


def loop_normalized(num, exp):
    """The one-factor-at-a-time normalization the constructor replaced."""
    if exp < 0:
        num <<= -exp
        exp = 0
    while num and num % 2 == 0 and exp > 0:
        num //= 2
        exp -= 1
    if num == 0:
        exp = 0
    return num, exp


@given(st.integers(min_value=-(1 << 80), max_value=1 << 80).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(min_value=-8, max_value=90))),
       st.integers(min_value=0, max_value=100))
def test_normalization_matches_loop(num_exp, shift):
    num, exp = num_exp
    # Shifting the numerator up exercises runs of trailing zeros that
    # exceed, match and fall short of the exponent.
    num <<= shift
    d = Dyadic(num, exp)
    assert (d.num, d.exp) == loop_normalized(num, exp)


def test_normalization_is_fast_at_large_exponents():
    # The loop took one big-integer division per factor of two.
    d = Dyadic(1 << 200_000, 300_000)
    assert (d.num, d.exp) == (1, 100_000)
