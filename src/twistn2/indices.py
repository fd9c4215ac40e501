"""Indices: half-integers, and linear forms over index symbols.

Every generator mode and basis weight lives in (1/2)Z.  The constraint
derivations also instantiate operator identities at symbolic mode indices
(m, n, k, r, p ...), so basis vectors carry indices like k+m+n+r.  One type
holds both.  A SymIndex is a linear form

    doubled/2 + sum coeff_i * sym_i        (doubled and coeff_i integers)

stored as twice its constant part, so constant arithmetic is int arithmetic
and the "integer vs half-odd" case splits are a parity test.  A concrete
half-integer is the index with no symbols, so sweeps and derivations share
one action engine and one bracket.  Each symbol's parity class
(integer-valued or half-odd-valued) is supplied by the caller as an
environment, which makes the two decisions every module action needs
computable:

  * parity of the index (integer vs half-odd), since each symbol has a
    declared class and coefficients are integers;
  * equality with a distinguished index (deformation points), decided
    structurally -- a free symbolic index is treated as generic, which is
    exactly the reading under which the coefficient derivations are stated.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, format_rational, parse_rational, sym_shift

ParityEnv = dict  # symbol name -> 0 (integer-valued) or 1 (half-odd-valued)


class SymIndex:
    # perfbench/tracer.py counts calls to these methods by name, so each one
    # it lists stays defined here, `is_const`, `__lt__` and `__le__` too
    __slots__ = ("doubled", "lin")

    def __init__(self, doubled: int = 0, lin: tuple = ()):
        if not isinstance(doubled, int):
            raise TypeError(f"doubled constant must be an int, got {doubled!r}")
        self.doubled = doubled
        self.lin = tuple(sorted((nm, c) for nm, c in lin if c)) if lin else ()

    @staticmethod
    def of(value) -> "SymIndex":
        """Coerce a SymIndex, an int, a Fraction or a rational literal such
        as "3/2"; a value off (1/2)Z raises ValueError."""
        if isinstance(value, SymIndex):
            return value
        if isinstance(value, int):
            return SymIndex(2 * value)
        if isinstance(value, str):
            value = parse_rational(value)
        if isinstance(value, Fraction):
            if 2 % value.denominator:
                raise ValueError(f"{value} is not a half-integer")
            return SymIndex(value.numerator * (2 // value.denominator))
        raise TypeError(f"cannot interpret {value!r} as an index")

    @staticmethod
    def var(name: str) -> "SymIndex":
        """The index symbol `name`."""
        return SymIndex(0, ((name, 1),))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "SymIndex":
        other = SymIndex.of(other)
        lin = self.lin
        if other.lin:
            acc = dict(lin)
            for nm, c in other.lin:
                acc[nm] = acc.get(nm, 0) + c
            lin = tuple(acc.items())
        return SymIndex(self.doubled + other.doubled, lin)

    __radd__ = __add__

    def __neg__(self) -> "SymIndex":
        return SymIndex(-self.doubled, tuple((nm, -c) for nm, c in self.lin))

    def __sub__(self, other) -> "SymIndex":
        return self + (-SymIndex.of(other))

    def __rsub__(self, other) -> "SymIndex":
        return (-self) + SymIndex.of(other)

    def scaled(self, factor: int) -> "SymIndex":
        return SymIndex(self.doubled * factor, tuple((nm, c * factor) for nm, c in self.lin))

    # -- structure ----------------------------------------------------------

    @property
    def value(self) -> int | Fraction | Poly:
        """The index as a coefficient: an int when integral, a Fraction when
        half-odd, and its Poly when symbolic."""
        if self.lin:
            return self.as_poly()
        d = self.doubled
        return Fraction(d, 2) if d & 1 else d >> 1

    def is_const(self) -> bool:
        return not self.lin

    def const_value(self) -> "SymIndex":
        """The index itself, which must be a concrete half-integer."""
        if self.lin:
            raise ValueError(f"index {self} is symbolic")
        return self

    def parity(self, env: ParityEnv | None = None) -> int:
        """0 if the index is integer-valued, 1 if half-odd-valued; each free
        symbol needs its class in `env`."""
        doubled = self.doubled
        for nm, c in self.lin:
            if env is None or nm not in env:
                raise KeyError(f"no parity class declared for index symbol {nm!r}")
            doubled += c * env[nm]
        return doubled % 2

    def is_integer(self) -> bool:
        return self.parity() == 0

    def is_half_odd(self) -> bool:
        return self.parity() == 1

    def substitute(self, bindings: dict) -> "SymIndex":
        out = SymIndex(self.doubled)
        for nm, c in self.lin:
            if nm in bindings:
                out = out + SymIndex.of(bindings[nm]).scaled(c)
            else:
                out = out + SymIndex(0, ((nm, c),))
        return out

    def as_poly(self) -> Poly:
        """The linear form as a Poly: over 2 when the constant is half-odd."""
        d = self.doubled
        den = 2 if d & 1 else 1
        num = {1 << sym_shift(nm): den * c for nm, c in self.lin}
        if d:
            num[0] = d * den // 2
        return Poly(num, den)  # canonical: over 2, the constant d is odd

    # -- identity and order -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymIndex):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            try:
                other = SymIndex.of(other)
            except ValueError:
                return False
        return self.doubled == other.doubled and self.lin == other.lin

    def __lt__(self, other) -> bool:
        return self.const_value().doubled < SymIndex.of(other).const_value().doubled

    def __le__(self, other) -> bool:
        return self.const_value().doubled <= SymIndex.of(other).const_value().doubled

    def __hash__(self) -> int:
        if self.lin:
            return hash((self.doubled, self.lin))
        # a constant index hashes as the equal int or Fraction: below 2**53
        # the float doubled / 2 is that value exactly, and hashes alike
        d = self.doubled
        return hash(d / 2) if -2**53 < d < 2**53 else hash(Fraction(d, 2))

    def __str__(self) -> str:
        pieces = []
        for nm, c in self.lin:
            if c == 1:
                pieces.append(("+", nm))
            elif c == -1:
                pieces.append(("-", nm))
            else:
                pieces.append(("+" if c > 0 else "-", f"{abs(c)}{nm}"))
        if self.doubled or not pieces:
            pieces.append(("+" if self.doubled >= 0 else "-",
                           format_rational(Fraction(abs(self.doubled), 2))))
        sign, head = pieces[0]
        text = ("-" if sign == "-" else "") + head
        for sign, body in pieces[1:]:
            text += f"{sign}{body}"
        return text

    __repr__ = __str__


IDX_ZERO = SymIndex()
