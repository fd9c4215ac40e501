"""Half-integers stored as doubled integers.

Every index in the algebra and its modules lives in (1/2)Z.  Storing twice
the value keeps all index arithmetic in plain integers and turns the
pervasive "integer vs half-odd" case splits into a parity test on the
doubled value.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import parse_rational, format_rational


class HalfInt:
    __slots__ = ("doubled",)

    def __init__(self, doubled: int):
        if not isinstance(doubled, int):
            raise TypeError("doubled value must be an int")
        self.doubled = doubled

    @staticmethod
    def of(value) -> "HalfInt":
        """Coerce an int, Fraction, string literal, or HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return HalfInt(2 * value)
        if isinstance(value, str):
            value = parse_rational(value)
        if isinstance(value, Fraction):
            doubled = value * 2
            if doubled.denominator != 1:
                raise ValueError(f"{value} is not a half-integer")
            return HalfInt(int(doubled))
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    @property
    def value(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def is_half_odd(self) -> bool:
        return self.doubled % 2 == 1

    def parity(self) -> int:
        """0 for integers, 1 for half-odd values."""
        return self.doubled % 2

    def __add__(self, other) -> "HalfInt":
        other = HalfInt.of(other)
        return HalfInt(self.doubled + other.doubled)

    def __sub__(self, other) -> "HalfInt":
        other = HalfInt.of(other)
        return HalfInt(self.doubled - other.doubled)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.doubled)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            try:
                other = HalfInt.of(other)
            except ValueError:
                return False
        if not isinstance(other, HalfInt):
            return NotImplemented
        return self.doubled == other.doubled

    def __lt__(self, other) -> bool:
        return self.doubled < HalfInt.of(other).doubled

    def __le__(self, other) -> bool:
        return self.doubled <= HalfInt.of(other).doubled

    def __hash__(self) -> int:
        # the hash of the equal int or Fraction (exact for |doubled| < 2**53)
        return hash(self.doubled / 2)

    def __str__(self) -> str:
        return format_rational(self.value)

    def __repr__(self) -> str:
        return f"HalfInt({self.doubled})"


ZERO_H = HalfInt(0)
