"""Finite binary strings, prefix order, and the codecs built on them.

Strings are immutable and ordered length-lexicographically (shorter first,
ties broken left-to-right), which is also the order of the string/integer
bijection `to_nat`.  The empty string renders as "^" so it survives a trip
through whitespace-separated text formats.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Optional, Tuple, Union

BitsLike = Union["BitString", str, Iterable[int]]


@total_ordering
class BitString:
    """An immutable finite sequence of bits."""

    __slots__ = ("_bits",)

    def __init__(self, bits: BitsLike = "") -> None:
        if isinstance(bits, BitString):
            self._bits = bits._bits
        elif isinstance(bits, str):
            if bits == "^":
                self._bits = ""
            elif bits.strip("01"):
                raise ValueError(f"not a bit string: {bits!r}")
            else:
                self._bits = bits
        else:
            self._bits = "".join("1" if int(b) else "0" for b in bits)

    @property
    def bits(self) -> str:
        return self._bits

    def __len__(self) -> int:
        return len(self._bits)

    def __bool__(self) -> bool:
        # Nonempty test; the all-zero string is still truthy.
        return bool(self._bits)

    def __iter__(self) -> Iterator[int]:
        return (1 if c == "1" else 0 for c in self._bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _valid(self._bits[i])
        return 1 if self._bits[i] == "1" else 0

    def __add__(self, other: BitsLike) -> "BitString":
        if isinstance(other, BitString):
            return _valid(self._bits + other._bits)
        return BitString(self._bits + BitString(other)._bits)

    def append(self, bit: int) -> "BitString":
        return _valid(self._bits + ("1" if bit else "0"))

    def prefix(self, n: int) -> "BitString":
        if not 0 <= n <= len(self._bits):
            raise ValueError(f"prefix length {n} outside 0..|{self}|")
        return _valid(self._bits[:n])

    def is_prefix_of(self, other: "BitString") -> bool:
        return other._bits.startswith(self._bits)

    def extends(self, other: "BitString") -> bool:
        return self._bits.startswith(other._bits)

    def comparable(self, other: "BitString") -> bool:
        """True when one string is a prefix of the other."""
        return self.is_prefix_of(other) or other.is_prefix_of(self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitString) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __lt__(self, other: "BitString") -> bool:
        # Length-lexicographic, matching to_nat.
        return (len(self._bits), self._bits) < (len(other._bits), other._bits)

    def __str__(self) -> str:
        return self._bits or "^"

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"

    @staticmethod
    def all_strings(length: int) -> Iterator["BitString"]:
        """All strings of exactly the given length, lexicographically."""
        if length == 0:
            yield EMPTY
            return
        for v in range(1 << length):
            yield BitString(format(v, f"0{length}b"))


def _valid(bits: str) -> BitString:
    """A string of bits known to be 0s and 1s, taken unchecked: the results
    of `prefix`, `append`, slicing and `+` of two strings are."""
    out = object.__new__(BitString)
    out._bits = bits
    return out


EMPTY = BitString("")


def length_lex(s: BitString) -> Tuple[int, str]:
    """Sort key of the length-lexicographic order, compared in C rather
    than through `BitString.__lt__`."""
    return len(s._bits), s._bits


def to_nat(s: BitString) -> int:
    """Length-lex position of a string: ^ -> 0, 0 -> 1, 1 -> 2, 00 -> 3, ..."""
    return int("1" + s.bits, 2) - 1


def from_nat(n: int) -> BitString:
    if n < 0:
        raise ValueError("string index must be nonnegative")
    return BitString(bin(n + 1)[3:])


def self_delimit(s: BitString) -> BitString:
    """Prefix-free wrapper: unary length, a 0 terminator, then the payload."""
    return BitString("1" * len(s) + "0" + s.bits)


def read_self_delimited(bits: BitString, start: int = 0) -> Optional[Tuple[BitString, int]]:
    """Parse one self-delimited block at `start`; None if `bits` is too short.

    Returns the payload and the index just past the block.
    """
    i = start
    n = 0
    while i < len(bits) and bits[i] == 1:
        n += 1
        i += 1
    if i >= len(bits):
        return None
    i += 1  # the 0 terminator
    if i + n > len(bits):
        return None
    return bits[i:i + n], i + n


def encode_pair(a: int, xi: BitString) -> BitString:
    """One-to-one code for (integer, string): delimited index then raw payload.

    The payload is recoverable because the index block is prefix-free; the
    pair is only decodable from the complete code string, which is all the
    outer codecs require.
    """
    return self_delimit(from_nat(a)) + xi


def decode_pair(code: BitString) -> Optional[Tuple[int, BitString]]:
    parsed = read_self_delimited(code)
    if parsed is None:
        return None
    head, pos = parsed
    return to_nat(head), code[pos:]
