"""Exact sparse multivariate polynomials over the rationals.

Coefficients are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator), so every identity checked downstream is exact: two
polynomials are equal iff their canonical term maps are equal.

A polynomial is a map from exponent tuples to nonzero Fractions.  Exponent
tuples index a process-wide symbol registry and are stored with trailing
zeros trimmed, so polynomials built before and after new symbols are
registered compare equal.  Term order is graded lexicographic with respect
to registry order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union


class NotDivisible(ArithmeticError):
    """Exact division failed: the claimed factor does not divide."""


class WrongDegree(ValueError):
    """A polynomial did not have the degree required by the operation."""


# ---------------------------------------------------------------------------
# symbol registry
# ---------------------------------------------------------------------------

_NAMES: list[str] = []
_SLOT: dict[str, int] = {}

# Parameters and index symbols used throughout; registered eagerly so that
# their slots, and with them the term order of rendered polynomials, do not
# depend on which code runs first.
CORE_SYMBOLS = (
    "a", "b", "bp", "m", "n", "p", "q", "k", "r", "s",
    "alpha", "alphap", "e1", "e2", "gamma", "gammap",
    "alpha1", "alpha2", "alpha3", "alpha4",
    "beta1", "beta2", "beta3", "beta4",
    "mu1", "mu2", "mu3", "mu4",
)


def sym_slot(name: str) -> int:
    """Return the registry slot of `name`, registering it if new."""
    slot = _SLOT.get(name)
    if slot is None:
        slot = len(_NAMES)
        _NAMES.append(name)
        _SLOT[name] = slot
    return slot


def sym_name(slot: int) -> str:
    return _NAMES[slot]


for _s in CORE_SYMBOLS:
    sym_slot(_s)


Scalar = Union[int, Fraction]
Exps = tuple  # exponent tuple, trailing zeros trimmed


def _trim(exps: Iterable[int]) -> Exps:
    out = list(exps)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mul_exps(e1: Exps, e2: Exps) -> Exps:
    if not e1:
        return e2
    if not e2:
        return e1
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    out = list(e1)
    for i, e in enumerate(e2):
        out[i] += e
    return tuple(out)


def _grlex_key(exps: Exps):
    return (sum(exps), exps)


class Poly:
    """Canonical sparse polynomial; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exps, Fraction] | None = None, _canonical: bool = False):
        if terms is None:
            self.terms = {}
        elif _canonical:
            self.terms = dict(terms)
        else:
            clean: dict[Exps, Fraction] = {}
            for exps, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    key = _trim(exps)
                    acc = clean.get(key)
                    new = coeff if acc is None else acc + coeff
                    if new:
                        clean[key] = new
                    elif acc is not None:
                        del clean[key]
            self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: Scalar) -> "Poly":
        value = Fraction(value)
        return Poly({(): value} if value else {}, _canonical=bool(value))

    @staticmethod
    def var(name: str, power: int = 1) -> "Poly":
        slot = sym_slot(name)
        exps = (0,) * slot + (power,)
        return Poly({exps: Fraction(1)}, _canonical=True)

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable-dict backed; not hashable

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            new = coeff if acc is None else acc + coeff
            if new:
                out[exps] = new
            elif acc is not None:
                del out[exps]
        return Poly(out, _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()}, _canonical=True)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return ZERO
            return Poly({e: c * other for e, c in self.terms.items()}, _canonical=True)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return ZERO
        out: dict[Exps, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = _mul_exps(e1, e2)
                acc = out.get(key)
                new = c1 * c2 if acc is None else acc + c1 * c2
                if new:
                    out[key] = new
                elif acc is not None:
                    del out[key]
        return Poly(out, _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if power < 0:
            raise ValueError("negative power")
        out = ONE
        base = self
        while power:
            if power & 1:
                out = out * base
            base = base * base
            power >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def is_const(self) -> bool:
        return not self.terms or self.terms.keys() == {()}

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.terms.keys() != {()}:
            raise WrongDegree(f"not a constant: {self}")
        return self.terms[()]

    def degree_in(self, name: str) -> int:
        slot = sym_slot(name)
        deg = 0
        for exps in self.terms:
            if len(exps) > slot:
                deg = max(deg, exps[slot])
        return deg

    def variables(self) -> tuple[str, ...]:
        seen: set[int] = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    seen.add(i)
        return tuple(sym_name(i) for i in sorted(seen))

    def coeff_in(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, a polynomial in the other symbols."""
        slot = sym_slot(name)
        out: dict[Exps, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[slot] if len(exps) > slot else 0
            if e == power:
                rest = list(exps)
                if len(rest) > slot:
                    rest[slot] = 0
                out[_trim(rest)] = coeff
        return Poly(out, _canonical=True)

    def leading(self) -> tuple[Exps, Fraction]:
        if not self.terms:
            raise WrongDegree("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, Union["Poly", Scalar]]) -> "Poly":
        """Simultaneously replace symbols by values/polynomials (exact)."""
        if not bindings:
            return self
        slots = {sym_slot(name): (val if isinstance(val, Poly) else Poly.const(val))
                 for name, val in bindings.items()}
        out = ZERO
        for exps, coeff in self.terms.items():
            residual = list(exps)
            factor = Poly.const(coeff)
            for slot, val in slots.items():
                e = exps[slot] if len(exps) > slot else 0
                if e:
                    residual[slot] = 0
                    factor = factor * val ** e
            out = out + factor * Poly({_trim(residual): Fraction(1)}, _canonical=True)
        return out

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        return self.substitute(bindings).const_value()

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                sym_name(i) if e == 1 else f"{sym_name(i)}^{e}"
                for i, e in enumerate(exps) if e
            )
            if not mono:
                body = format_rational(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{format_rational(abs(coeff))}*{mono}"
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        head_sign, head = pieces[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__


ZERO = Poly.const(0)
ONE = Poly.const(1)


def normalize(raw_terms: Iterable[tuple[Mapping[str, int] | Exps, Scalar]]) -> Poly:
    """Build a canonical polynomial out of a raw term list.

    Terms may repeat and may carry zero coefficients; the result collects
    like terms and drops zeros.  Monomials are given either as exponent
    tuples (registry order) or as {symbol: exponent} maps.
    """
    acc: dict[Exps, Fraction] = {}
    for mono, coeff in raw_terms:
        if isinstance(mono, Mapping):
            exps = [0] * (max((sym_slot(s) for s in mono), default=-1) + 1)
            for name, e in mono.items():
                exps[sym_slot(name)] = e
            key = _trim(exps)
        else:
            key = _trim(mono)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(coeff)
    return Poly(acc)


def exact_divide(num: Poly, den: Poly) -> Poly:
    """Return q with q*den == num, or raise NotDivisible.

    Standard leading-term division in graded-lex order; because the order is
    multiplicative, an exact quotient (if one exists) is found greedily.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return ZERO
    den_exps, den_coeff = den.leading()
    quot: dict[Exps, Fraction] = {}
    rem = num
    while rem:
        exps, coeff = rem.leading()
        diff = [0] * max(len(exps), len(den_exps))
        for i, e in enumerate(exps):
            diff[i] = e
        for i, e in enumerate(den_exps):
            diff[i] -= e
            if diff[i] < 0:
                raise NotDivisible(f"({num}) is not divisible by ({den})")
        key = _trim(diff)
        c = coeff / den_coeff
        quot[key] = c
        rem = rem - Poly({key: c}, _canonical=True) * den
    return Poly(quot, _canonical=True)


# ---------------------------------------------------------------------------
# quadratic factors kept exactly (coefficients + discriminant, never floats)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadRootData:
    """A quadratic in one symbol, stored as exact coefficient data.

    Roots (-B +- sqrt(disc)) / (2A) are never materialised; membership and
    rationality questions are decided on (A, B, C, disc) directly.
    """

    var: str
    quad_a: Poly
    quad_b: Poly
    quad_c: Poly
    discriminant: Poly

    def __post_init__(self):
        want = self.quad_b * self.quad_b - 4 * self.quad_a * self.quad_c
        if want != self.discriminant:
            raise ValueError("discriminant does not match B^2 - 4AC")

    def rational_roots_at(self, bindings: Mapping[str, Scalar]) -> list[Fraction]:
        """Exact rational roots after substituting values for parameters.

        A root is rational iff the (rational) discriminant is a perfect
        square; irrational roots are reported as the empty list.
        """
        a = self.quad_a.evaluate(bindings)
        bb = self.quad_b.evaluate(bindings)
        cc = self.quad_c.evaluate(bindings)
        if a == 0:
            if bb == 0:
                raise WrongDegree("degenerate quadratic at this point")
            return [-cc / bb]
        disc = bb * bb - 4 * a * cc
        root = rational_sqrt(disc)
        if root is None:
            return []
        return sorted({(-bb + root) / (2 * a), (-bb - root) / (2 * a)})


def quadratic_root_data(poly: Poly, var: str) -> QuadRootData:
    """View `poly` as a quadratic in `var`; degree must be exactly 2."""
    if poly.degree_in(var) != 2:
        raise WrongDegree(f"degree in {var} is {poly.degree_in(var)}, want 2")
    a = poly.coeff_in(var, 2)
    b = poly.coeff_in(var, 1)
    c = poly.coeff_in(var, 0)
    return QuadRootData(var, a, b, c, b * b - 4 * a * c)


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    from math import isqrt

    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


# ---------------------------------------------------------------------------
# rational literals ("-3/2", "5") used by the CLI and JSON reports
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# rational functions (only what the coefficient derivations need)
# ---------------------------------------------------------------------------

class RatFunc:
    """num/den pair of polynomials; no gcd reduction, exactness only.

    Used where coefficient solutions genuinely involve division (by the
    half-odd mode r, or by weight factors like a-k).  Equality and the zero
    test cross-multiply, so no simplification is ever needed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RatFunc):
            if den is not None:
                raise ValueError("cannot re-wrap a RatFunc with a denominator")
            self.num, self.den = num.num, num.den
            return
        self.num = num if isinstance(num, Poly) else Poly.const(num)
        if den is None:
            self.den = ONE
        else:
            self.den = den if isinstance(den, Poly) else Poly.const(den)
        if not self.den:
            raise ZeroDivisionError("zero denominator")
        if not self.num:
            self.den = ONE

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def substitute(self, bindings) -> "RatFunc":
        return RatFunc(self.num.substitute(bindings), self.den.substitute(bindings))

    def as_poly(self) -> Poly:
        """Collapse to a polynomial; den must divide num exactly."""
        if self.den == ONE:
            return self.num
        return exact_divide(self.num, self.den)

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _as_ratfunc(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (Poly, int, Fraction)):
        return RatFunc(value)
    return NotImplemented
