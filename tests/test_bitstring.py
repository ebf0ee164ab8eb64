from hypothesis import given
from hypothesis import strategies as st

import pytest

from randlab.bitstring import (BitString, EMPTY, decode_pair, encode_pair,
                               from_nat, read_self_delimited, self_delimit,
                               to_nat)

bits = st.text(alphabet="01", max_size=24).map(BitString)


def test_construction_forms():
    assert BitString("0110").bits == "0110"
    assert BitString("^") == EMPTY
    assert BitString([1, 0, 1]).bits == "101"
    assert BitString(BitString("11")).bits == "11"
    with pytest.raises(ValueError):
        BitString("01x")
    with pytest.raises(ValueError):
        BitString("0 1")


def test_render_empty_as_caret():
    assert str(EMPTY) == "^"
    assert str(BitString("00")) == "00"


def test_prefix_relations():
    s = BitString("0101")
    assert EMPTY.is_prefix_of(s)
    assert s.extends(BitString("01"))
    assert not s.extends(BitString("10"))
    assert s.comparable(BitString("010101"))
    assert not BitString("00").comparable(BitString("01"))


def test_length_lex_order_small():
    ordered = [BitString(b) for b in ["^", "0", "1", "00", "01", "10", "11", "000"]]
    assert ordered == sorted(ordered)


@given(bits, bits)
def test_order_matches_to_nat(a, b):
    assert (a < b) == (to_nat(a) < to_nat(b))


@given(bits)
def test_nat_round_trip(s):
    assert from_nat(to_nat(s)) == s


@given(st.integers(min_value=0, max_value=10_000))
def test_nat_round_trip_other_way(n):
    assert to_nat(from_nat(n)) == n


def test_to_nat_base_cases():
    assert to_nat(EMPTY) == 0
    assert to_nat(BitString("0")) == 1
    assert to_nat(BitString("1")) == 2
    assert to_nat(BitString("00")) == 3


@given(bits)
def test_self_delimit_round_trip(s):
    coded = self_delimit(s)
    parsed = read_self_delimited(coded)
    assert parsed is not None
    payload, end = parsed
    assert payload == s
    assert end == len(coded)


@given(bits, bits)
def test_self_delimited_blocks_concatenate(a, b):
    coded = self_delimit(a) + self_delimit(b)
    first = read_self_delimited(coded)
    assert first is not None
    got_a, pos = first
    second = read_self_delimited(coded, pos)
    assert second is not None
    got_b, end = second
    assert (got_a, got_b) == (a, b)
    assert end == len(coded)


def test_read_self_delimited_truncated():
    assert read_self_delimited(BitString("111")) is None
    assert read_self_delimited(BitString("110")) is None


@given(st.integers(min_value=0, max_value=200), bits)
def test_pair_codec(a, xi):
    assert decode_pair(encode_pair(a, xi)) == (a, xi)


def test_all_strings_enumeration():
    level = list(BitString.all_strings(3))
    assert len(level) == 8
    assert level[0] == BitString("000")
    assert level[-1] == BitString("111")
    assert list(BitString.all_strings(0)) == [EMPTY]


def test_indexing_and_slices():
    s = BitString("1010")
    assert s[0] == 1
    assert s[3] == 0
    assert s[1:3] == BitString("01")
    assert s.prefix(2) == BitString("10")
    assert s.prefix(0) == EMPTY and s.prefix(4) == s
    for n in (5, -1, -4):
        with pytest.raises(ValueError, match=f"prefix length {n} outside"):
            s.prefix(n)


def test_append_and_iter():
    s = BitString("01").append(1)
    assert s == BitString("011")
    assert list(s) == [0, 1, 1]


@given(bits, bits, st.integers(0, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-3, 3).filter(bool), st.integers(0, 1))
def test_fast_paths_equal_the_checked_constructor(a, b, n, i, j, step, bit):
    # `prefix`, `append`, slicing and `+` of two strings take their bits
    # unchecked; each result is what the checked constructor makes of them.
    n = min(n, len(a))
    for got, want in ((a.prefix(n), a.bits[:n]), (a.append(bit), a.bits + str(bit)),
                      (a[i:j], a.bits[i:j]), (a[i:j:step], a.bits[i:j:step]),
                      (a + b, a.bits + b.bits), (a + b.bits, a.bits + b.bits),
                      (a + list(b), a.bits + b.bits)):
        checked = BitString(want)
        assert type(got) is BitString and got.bits == want
        assert got == checked and hash(got) == hash(checked) and str(got) == str(checked)


def test_text_from_outside_stays_checked():
    for text in ("012", "0 1", "^0", "01\n"):
        with pytest.raises(ValueError, match="not a bit string"):
            BitString(text)
    with pytest.raises(ValueError, match="not a bit string"):
        BitString("01") + "012"
