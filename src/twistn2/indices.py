"""Linear index expressions for symbolic generator and basis indices.

The constraint derivations instantiate operator identities at symbolic mode
indices (m, n, k, r, p ...), so basis vectors carry indices like k+m+n+r
rather than concrete half-integers.  A SymIndex is a linear form

    const + sum coeff_i * sym_i        (coeff_i integers, const in (1/2)Z)

over index symbols whose parity class (integer-valued or half-odd-valued)
is supplied by the caller as an environment.  That makes the two decisions
every module action needs computable:

  * parity of the index (integer vs half-odd), since each symbol has a
    declared class and coefficients are integers;
  * equality with a distinguished index (deformation points), decided
    structurally -- a free symbolic index is treated as generic, which is
    exactly the reading under which the coefficient derivations are stated.

Concrete half-integers are the constant case, so sweeps and derivations
share one action engine.
"""

from __future__ import annotations

from fractions import Fraction

from .halfint import HalfInt
from .poly import Poly, format_rational

ParityEnv = dict  # symbol name -> 0 (integer-valued) or 1 (half-odd-valued)


class SymIndex:
    __slots__ = ("const", "lin")

    def __init__(self, const: Fraction = Fraction(0), lin: tuple = ()):
        doubled = const * 2
        if doubled.denominator != 1:
            raise ValueError(f"index constant {const} is not a half-integer")
        self.const = const
        self.lin = tuple(sorted((nm, c) for nm, c in lin if c))

    @staticmethod
    def of(value) -> "SymIndex":
        if isinstance(value, SymIndex):
            return value
        if isinstance(value, HalfInt):
            return SymIndex(value.value)
        if isinstance(value, (int, Fraction)):
            return SymIndex(Fraction(value))
        if isinstance(value, str):
            return SymIndex(Fraction(0), ((value, 1),))
        raise TypeError(f"cannot interpret {value!r} as an index")

    var = of

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "SymIndex":
        other = SymIndex.of(other)
        acc = dict(self.lin)
        for nm, c in other.lin:
            acc[nm] = acc.get(nm, 0) + c
        return SymIndex(self.const + other.const, tuple(acc.items()))

    __radd__ = __add__

    def __neg__(self) -> "SymIndex":
        return SymIndex(-self.const, tuple((nm, -c) for nm, c in self.lin))

    def __sub__(self, other) -> "SymIndex":
        return self + (-SymIndex.of(other))

    def __rsub__(self, other) -> "SymIndex":
        return (-self) + SymIndex.of(other)

    def scaled(self, factor: int) -> "SymIndex":
        return SymIndex(self.const * factor, tuple((nm, c * factor) for nm, c in self.lin))

    # -- structure ----------------------------------------------------------

    def is_const(self) -> bool:
        return not self.lin

    def const_value(self) -> HalfInt:
        if self.lin:
            raise ValueError(f"index {self} is symbolic")
        return HalfInt.of(self.const)

    def parity(self, env: ParityEnv) -> int:
        """0 if the index is integer-valued, 1 if half-odd-valued."""
        doubled = int(self.const * 2)
        for nm, c in self.lin:
            if nm not in env:
                raise KeyError(f"no parity class declared for index symbol {nm!r}")
            doubled += c * env[nm]
        return doubled % 2

    def substitute(self, bindings: dict) -> "SymIndex":
        out = SymIndex(self.const)
        for nm, c in self.lin:
            if nm in bindings:
                out = out + SymIndex.of(bindings[nm]).scaled(c)
            else:
                out = out + SymIndex(Fraction(0), ((nm, c),))
        return out

    def as_poly(self) -> Poly:
        out = Poly.const(self.const)
        for nm, c in self.lin:
            out = out + c * Poly.var(nm)
        return out

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            other = SymIndex.of(other)
        except TypeError:
            return NotImplemented
        return self.const == other.const and self.lin == other.lin

    def __hash__(self) -> int:
        # a constant index hashes as the equal Fraction, int or HalfInt
        return hash((self.const, self.lin)) if self.lin else hash(self.const)

    def __str__(self) -> str:
        pieces = []
        for nm, c in self.lin:
            if c == 1:
                pieces.append(("+", nm))
            elif c == -1:
                pieces.append(("-", nm))
            else:
                pieces.append(("+" if c > 0 else "-", f"{abs(c)}{nm}"))
        if self.const or not pieces:
            pieces.append(("+" if self.const >= 0 else "-", format_rational(abs(self.const))))
        sign, head = pieces[0]
        text = ("-" if sign == "-" else "") + head
        for sign, body in pieces[1:]:
            text += f"{sign}{body}"
        return text

    __repr__ = __str__


IDX_ZERO = SymIndex()
