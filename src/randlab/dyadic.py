"""Exact dyadic rationals num / 2**exp.

Canonical form keeps the numerator odd (or zero with exponent zero), so
equality is structural.  Measures of clopen sets always land in this class;
a `Dyadic` compares exactly with any rational through its `numerator` and
`denominator` (an `int`, a `fractions.Fraction`), and hashes as Python
hashes the rational it is, without importing `fractions`.
"""

from __future__ import annotations

import sys
from typing import Optional, Union

# Arithmetic takes a Dyadic or an int; comparison any rational.
Rational = Union["Dyadic", int]


class Dyadic:
    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0) -> None:
        # Exactness is the invariant: a float, a bool or a str is refused.
        if type(num) is not int or type(exp) is not int:
            bad = exp if type(num) is int else num
            raise TypeError(f"Dyadic wants int num and exp, got {bad!r}")
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp:
            # Strip the factors of two the denominator can absorb, all at once.
            shift = min((num & -num).bit_length() - 1, exp)
            num >>= shift
            exp -= shift
        self.num = num
        self.exp = exp

    @staticmethod
    def half_pow(k: int) -> "Dyadic":
        """2**-k for k >= 0."""
        if k < 0:
            raise ValueError("half_pow wants a nonnegative power")
        return Dyadic(1, k)

    def _coerce(self, other: Rational) -> "Dyadic":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        raise TypeError(f"cannot coerce {other!r} to Dyadic")

    def __add__(self, other: Rational) -> "Dyadic":
        o = self._coerce(other)
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other: Rational) -> "Dyadic":
        o = self._coerce(other)
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) - (o.num << (e - o.exp)), e)

    def __rsub__(self, other: Rational) -> "Dyadic":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Rational) -> "Dyadic":
        o = self._coerce(other)
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def _cmp_key(self, other) -> Optional[tuple]:
        """Cross-multiplied pair (self_scaled, other_scaled) for exact compare,
        or None when `other` is not a rational this class compares with."""
        if isinstance(other, Dyadic):
            e = max(self.exp, other.exp)
            return (self.num << (e - self.exp), other.num << (e - other.exp))
        try:
            num, den = other.numerator, other.denominator
        except AttributeError:
            return None
        return (self.num * den, num << self.exp)

    def __eq__(self, other: object) -> bool:
        key = self._cmp_key(other)
        return key[0] == key[1] if key else NotImplemented

    def __lt__(self, other: Rational) -> bool:
        key = self._cmp_key(other)
        return key[0] < key[1] if key else NotImplemented

    def __le__(self, other: Rational) -> bool:
        key = self._cmp_key(other)
        return key[0] <= key[1] if key else NotImplemented

    def __gt__(self, other: Rational) -> bool:
        key = self._cmp_key(other)
        return key[0] > key[1] if key else NotImplemented

    def __ge__(self, other: Rational) -> bool:
        key = self._cmp_key(other)
        return key[0] >= key[1] if key else NotImplemented

    def __hash__(self) -> int:
        # Python's hash of the rational num / 2^exp, as `Fraction` computes it.
        h = hash(hash(abs(self.num)) * pow(2, -self.exp, sys.hash_info.modulus))
        h = h if self.num >= 0 else -h
        return -2 if h == -1 else h

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    @staticmethod
    def parse(text: str) -> "Dyadic":
        num_s, _, exp_s = text.partition("/2^")
        if not exp_s:
            raise ValueError(f"not a dyadic literal: {text!r}")
        return Dyadic(int(num_s), int(exp_s))
