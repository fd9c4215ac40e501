"""Exact sparse multivariate polynomials over the rationals.

Coefficients are exact rationals in one canonical form: a Python `int`
exactly when the coefficient is integral, otherwise a `fractions.Fraction`
with denominator > 1 (reduced, positive denominator).  Products and
substitution run over the integers: each operand is lowered to int
coefficients over one common denominator, the loop does int arithmetic
only, and each result coefficient is divided back once, so they make one
rational per output term and none per term product.  Arithmetic on
integral coefficients, the common case, builds no Fraction at all.  Every
identity checked downstream is exact: two polynomials are equal iff their
canonical term maps are equal (`3 == Fraction(3)`, and the two hash alike).

A polynomial maps monomials to nonzero coefficients.  A monomial is one
int, a packed exponent vector (Monagan and Pearce, CASC 2007): the exponent
of slot i of a process-wide symbol registry sits in bits [8i, 8i+8), so a
term product is one int add.  Exponents stay below 128, so no field
carries, and one that would reach 128 raises OverflowError.  A new symbol
adds a field that is zero in older keys, so polynomials built before and
after it compare equal.  Rendering is graded lex in registry order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm, prod
from operator import or_
from typing import Mapping, Union


class NotDivisible(ArithmeticError):
    """Exact division failed: the claimed factor does not divide.  Raised
    with the two operands, it renders them only when its message is read."""

    def __str__(self) -> str:
        if len(self.args) != 2:
            return super().__str__()
        return "({}) is not divisible by ({})".format(*self.args)


class WrongDegree(ValueError):
    """A polynomial did not have the degree required by the operation."""


# ---------------------------------------------------------------------------
# symbol registry
# ---------------------------------------------------------------------------

_NAMES: list[str] = []
_SLOT: dict[str, int] = {}
_GUARD = 0  # bit 7 of every registered field; a sum of keys sets one on overflow

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
    global _GUARD
    slot = _SLOT.get(name)
    if slot is None:
        slot = len(_NAMES)
        _NAMES.append(name)
        _SLOT[name] = slot
        _GUARD |= 0x80 << 8 * slot
    return slot


def sym_shift(name: str) -> int:
    """Where `name`'s exponent sits in a packed monomial: key >> shift & 255."""
    return 8 * sym_slot(name)


def sym_name(slot: int) -> str:
    return _NAMES[slot]


for _s in CORE_SYMBOLS:
    sym_slot(_s)


Scalar = Union[int, Fraction]
Exps = int  # packed monomial: the exponent of slot i in bits [8i, 8i+8)


def _checked(keys) -> None:
    """Raise unless every exponent of the packed `keys` is below 128."""
    if reduce(or_, keys, 0) & _GUARD:
        raise OverflowError("an exponent reached 128")


def _unpack(key: Exps) -> tuple[int, ...]:
    """The exponent tuple of a packed monomial, trailing zeros trimmed."""
    out = []
    while key:
        out.append(key & 255)
        key >>= 8
    return tuple(out)


def _grlex_key(term):
    return (sum(term[0]), term[0])


def _rat(value) -> Scalar:
    """`value` as a canonical coefficient: an int if integral, else a
    Fraction with denominator > 1."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _lowered(terms: Mapping[Exps, Scalar]) -> tuple[Mapping[Exps, int], int]:
    """(num, d): `terms` as int numerators over their common denominator d.
    An all-int map is returned as it is, with d = 1."""
    d = 1
    for c in terms.values():
        if type(c) is not int:
            d = lcm(d, c.denominator)
    if d == 1:
        return terms, 1
    return {e: c * d if type(c) is int else c.numerator * (d // c.denominator)
            for e, c in terms.items()}, d


def _over(num: dict, d: int) -> dict:
    """The canonical coefficients num/d of an int term map, zeros dropped:
    one int or Fraction per term; `num` itself if d = 1 and none is zero."""
    if d == 1:
        return num if all(num.values()) else {e: c for e, c in num.items() if c}
    return {e: c // d if not c % d else Fraction(c, d) for e, c in num.items() if c}


def _integral(out: dict) -> dict:
    """Canonicalize in place the integral Fractions an arithmetic loop left
    in `out`; int + int and int * int stay int on their own."""
    for key, c in out.items():
        if type(c) is Fraction and c.denominator == 1:
            out[key] = c.numerator
    return out


class Poly:
    """Canonical sparse polynomial; immutable by convention.

    `terms` maps packed monomials to nonzero coefficients, each an int when
    integral and otherwise a Fraction with denominator > 1; `monomials()`
    reads the exponent tuples.  The constructor canonicalizes any rational
    (or float) coefficients it is given; `_canonical=True` trusts the
    caller to pass that form and takes ownership of the dict.  Products
    and `substitute` do their rational arithmetic in ints over one common
    denominator (`_lowered`) and divide each result coefficient once
    (`_over`).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exps, Scalar] | None = None, _canonical: bool = False):
        if terms is None:
            self.terms = {}
        elif _canonical:
            self.terms = terms
        else:
            clean: dict[Exps, Scalar] = {}
            for key, coeff in terms.items():
                coeff = _rat(coeff)
                if coeff:
                    acc = clean.get(key)
                    new = coeff if acc is None else acc + coeff
                    if new:
                        clean[key] = new
                    elif acc is not None:
                        del clean[key]
            self.terms = _integral(clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: Scalar) -> "Poly":
        value = _rat(value)
        return Poly({0: value} if value else {}, _canonical=bool(value))

    @staticmethod
    def var(name: str, power: int = 1) -> "Poly":
        if power >> 7:
            raise OverflowError(f"exponent {power} is not in [0, 128)")
        return Poly({power << sym_shift(name): 1}, _canonical=True)

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
            if acc is None:
                out[exps] = coeff
                continue
            new = acc + coeff
            if not new:
                del out[exps]
            elif type(new) is Fraction and new.denominator == 1:
                out[exps] = new.numerator
            else:
                out[exps] = new
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
            other = _rat(other)
            if not other:
                return ZERO
            num, d = _lowered(self.terms)
            if type(other) is not int:
                d *= other.denominator
                other = other.numerator
            out = {e: c * other for e, c in num.items()}
            # a product of nonzero ints is nonzero: over d = 1 it is canonical
            return Poly(out if d == 1 else _over(out, d), _canonical=True)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return ZERO
        num1, d1 = _lowered(self.terms)
        num2, d2 = _lowered(other.terms)
        out: dict[Exps, int] = {}
        get = out.get
        for e1, c1 in num1.items():
            for e2, c2 in num2.items():
                key = e1 + e2
                out[key] = get(key, 0) + c1 * c2
        _checked(out)
        return Poly(_over(out, d1 * d2), _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if power < 0:
            raise ValueError("negative power")
        out = ONE
        base = self
        while power:
            if power & 1:
                out = out * base
            power >>= 1
            if power:
                base = base * base
        return out

    # -- structure ---------------------------------------------------------

    def is_const(self) -> bool:
        return not self.terms or self.terms.keys() == {0}

    def const_value(self) -> Fraction:
        """The constant's value, as a Fraction even when integral, so a
        caller may divide by it exactly."""
        if not self.terms:
            return Fraction(0)
        if self.terms.keys() != {0}:
            raise WrongDegree(f"not a constant: {self}")
        return Fraction(self.terms[0])

    def monomials(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """(exponent tuple by registry slot, coefficient) per term."""
        return [(_unpack(key), c) for key, c in self.terms.items()]

    def degree_in(self, name: str) -> int:
        """The top degree in `name`; 0, unregistered, for an unseen name."""
        slot = _SLOT.get(name)
        if slot is None:
            return 0
        return max((key >> 8 * slot & 255 for key in self.terms), default=0)

    def variables(self) -> tuple[str, ...]:
        seen = _unpack(reduce(or_, self.terms, 0))
        return tuple(sym_name(i) for i, e in enumerate(seen) if e)

    def coeff_in(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, a polynomial in the other symbols."""
        slot = _SLOT.get(name)
        if slot is None:
            return self if power == 0 else ZERO
        want = power << 8 * slot
        mask = 255 << 8 * slot
        return Poly({key - want: c for key, c in self.terms.items() if key & mask == want},
                    _canonical=True)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, Union["Poly", Scalar]]) -> "Poly":
        """Replace symbols by values or polynomials, exactly.

        Substitution is simultaneous: every value is read against the
        original polynomial, so {"k": k - m} and a swap {"b": bp, "bp": b}
        are correct.  It runs in ints: the coefficients are lowered over
        their common denominator d, and each value to num/den, with num an
        int or an int-coefficient polynomial (a constant polynomial counts
        as a scalar).  A term of degree e in a symbol of top degree D is
        multiplied by num**e * den**(D - e), so every term lands over the
        one denominator d * prod(den**D), and each result coefficient is
        divided by it once.  A term meets a polynomial value only when it
        contains that symbol.
        """
        if not bindings:
            return self
        num, d = _lowered(self.terms)
        bound = []  # (shift, numerator, den, top degree in self)
        for name, val in bindings.items():
            slot = _SLOT.get(name)
            if slot is None:  # a symbol never registered is in no term
                continue
            shift = 8 * slot
            if isinstance(val, Poly) and val.is_const():
                val = val.terms.get(0, 0)
            if isinstance(val, Poly):
                vnum, den = _lowered(val.terms)
                val = Poly(vnum, _canonical=True)
            else:
                if not isinstance(val, (int, Fraction)):
                    val = Fraction(val)
                val, den = val.numerator, val.denominator
            top = 0
            if den != 1:
                top = max((key >> shift & 255 for key in num), default=0)
                d *= den ** top
            bound.append((shift, val, den, top))
        # (shift, e) -> (int scale, int polynomial or None) of a degree-e term
        powers: dict[tuple[int, int], tuple] = {}
        acc: dict[Exps, int] = {}
        get = acc.get
        for key, coeff in num.items():
            factor = None
            for shift, val, den, top in bound:
                e = key >> shift & 255
                if not e and den == 1:
                    continue
                pw = powers.get((shift, e))
                if pw is None:
                    rest = den ** (top - e) if den != 1 else 1
                    pw = powers[shift, e] = ((val ** e * rest, None) if type(val) is int
                                             else (rest, val ** e if e else None))
                coeff *= pw[0]
                if pw[1] is not None:
                    factor = pw[1] if factor is None else factor * pw[1]
                key -= e << shift
            if not coeff:
                continue
            if factor is None:
                acc[key] = get(key, 0) + coeff
            else:
                for fkey, fcoeff in factor.terms.items():
                    term = key + fkey
                    acc[term] = get(term, 0) + coeff * fcoeff
        _checked(acc)
        return Poly(_over(acc, d), _canonical=True)

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """The value at `bindings`, which must bind every symbol; a Fraction."""
        return self.substitute(bindings).const_value()

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in sorted(self.monomials(), key=_grlex_key, reverse=True):
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


def exact_divide(num: Poly, den: Poly) -> Poly:
    """Return q with q*den == num, or raise NotDivisible.

    Leading-term division by the largest packed key: comparing packed
    keys is a monomial order (lex, last slot first), so the unique exact
    quotient is found greedily.  Key k is divisible by key d iff no field
    of k - d is negative: ((k | G) - d) & G == G, G the guard bits.  Each
    quotient term times den is subtracted from one working remainder.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return ZERO
    den_key = max(den.terms)
    den_coeff = den.terms[den_key]
    quot: dict[Exps, Scalar] = {}
    rem = dict(num.terms)
    while rem:
        lead = max(rem)
        if ((lead | _GUARD) - den_key) & _GUARD != _GUARD:
            raise NotDivisible(num, den)
        key = lead - den_key
        c = quot[key] = _rat(Fraction(rem[lead]) / den_coeff)
        _checked(key + dk for dk in den.terms)
        for dk, dc in den.terms.items():
            t = key + dk
            new = rem.get(t, 0) - c * dc
            if new:
                rem[t] = new
            else:
                del rem[t]
    return Poly(quot, _canonical=True)


# ---------------------------------------------------------------------------
# one-symbol polynomials over Q: gcd and rational roots
# ---------------------------------------------------------------------------

def _dense(f: Poly, var: str) -> list[int]:
    """A polynomial in `var` alone as primitive int coefficients, highest
    degree first, with a positive lead: f times a nonzero rational; [] for
    zero."""
    shift = sym_shift(var)
    num, _ = _lowered(f.terms)
    if not num:
        return []
    if any(key & ~(255 << shift) for key in num):
        raise ValueError(f"not a polynomial in {var} alone: {f}")
    top = max(num) >> shift
    out = [0] * (top + 1)
    for key, c in num.items():
        out[top - (key >> shift)] = c
    return _primitive(out)


def _primitive(c: list[int]) -> list[int]:
    """`c` with its leading zeros dropped, divided by its content, lead > 0."""
    while c and not c[0]:
        c = c[1:]
    if not c:
        return c
    g = gcd(*c) if c[0] > 0 else -gcd(*c)
    return [x // g for x in c] if g != 1 else c


def _prem(f: list[int], g: list[int]) -> list[int]:
    """The pseudo-remainder of f by g (dense, highest degree first): f times
    a power of g's lead, reduced below g's degree."""
    r, lead = list(f), g[0]
    while len(r) >= len(g):
        top = r[0]
        r = [x * lead for x in r]
        for i, c in enumerate(g):
            r[i] -= top * c
        r = r[1:]
        while r and not r[0]:
            r = r[1:]
    return r


def univariate_gcd(polys, var: str) -> Poly:
    """The monic gcd over Q[var] of polynomials in `var` alone; ZERO when
    all of them are zero.  A primitive Euclidean remainder sequence over
    the ints (Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
    ch. 7), which stops once the gcd is a constant."""
    acc: list[int] = []
    for f in polys:
        g = _dense(f, var)
        if len(acc) < len(g):
            acc, g = g, acc
        while g:
            acc, g = g, _primitive(_prem(acc, g))
        if len(acc) == 1:
            return ONE
    shift, top = sym_shift(var), len(acc) - 1
    return Poly({(top - i) << shift: Fraction(x, acc[0]) for i, x in enumerate(acc) if x})


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if not n % d]
    return small + [n // d for d in reversed(small) if d * d != n]


def rational_roots(f: Poly, var: str) -> tuple[list[Fraction], Poly]:
    """(roots, cofactor): the rational roots of a nonzero polynomial in
    `var` alone, ascending and each as often as its multiplicity, and the
    cofactor with f = cofactor * prod(var - root), which has no rational
    root.  The candidates p/q are those of the rational-root theorem on f
    over its common denominator: p divides the lowest coefficient that is
    not zero, q the lead."""
    c = _dense(f, var)
    if not c:
        raise ZeroDivisionError("the zero polynomial vanishes everywhere")
    roots = []
    while not c[-1]:
        roots.append(Fraction(0))
        c = c[:-1]
    for q in _divisors(c[0]):
        for d in _divisors(abs(c[-1])):
            for p in ((d, -d) if gcd(d, q) == 1 else ()):
                while len(c) > 1 and not _at(c, p, q):
                    c = _over_linear(c, p, q)
                    roots.append(Fraction(p, q))
    roots.sort()
    x = Poly.var(var)
    return roots, exact_divide(f, prod((x - r for r in roots), start=ONE))


def _at(c: list[int], p: int, q: int) -> int:
    """q^deg times the value of c at p/q."""
    acc, qk = c[0], 1
    for x in c[1:]:
        qk *= q
        acc = acc * p + x * qk
    return acc


def _over_linear(c: list[int], p: int, q: int) -> list[int]:
    """c divided by q var - p, which divides it (Gauss's lemma keeps the
    quotient integral)."""
    out, carry = [], 0
    for x in c[:-1]:
        carry = (x + carry * p) // q
        out.append(carry)
    return out


# ---------------------------------------------------------------------------
# Kronecker substitution: polynomials as integers
# ---------------------------------------------------------------------------

class KroneckerPoint:
    """One integer point at which polynomials within given degrees are
    evaluated, and the products of two of them decoded again.

    Symbol slot i goes to X**offset_i (`value`), the offsets in mixed radix
    2*top_i + 1 by the top degrees `tops`, so every monomial of a product
    of two such polynomials has its own power of X; X is 2**(B + 2) with
    2**B > `bound`.  Evaluation there is a ring homomorphism (Kronecker
    substitution), and on such products with integer coefficients of
    absolute value at most `bound` it is injective: `decode` reads the
    image back as balanced base-X digits.
    """

    __slots__ = ("slots", "sizes", "shift")

    def __init__(self, tops: Mapping[int, int], bound: int):
        self.slots = sorted(tops)
        self.sizes = [2 * tops[slot] + 1 for slot in self.slots]
        self.shift = bound.bit_length() + 2

    def value(self, name: str) -> int:
        """The integer the symbol `name`, one of the point's slots, takes."""
        i = self.slots.index(_SLOT[name])
        return 1 << self.shift * prod(self.sizes[:i])

    def decode(self, value: int, unit: int = 1) -> Poly:
        """The polynomial whose image is `value`, divided by `unit`."""
        mask = (1 << self.shift) - 1
        half = 1 << (self.shift - 1)
        terms: dict[Exps, Scalar] = {}
        pos = 0
        while value:
            digit = value & mask
            if digit >= half:
                digit -= mask + 1
            value = (value - digit) >> self.shift
            if digit:
                key, rest = 0, pos
                for slot, size in zip(self.slots, self.sizes):
                    rest, e = divmod(rest, size)
                    key |= e << 8 * slot
                if rest:
                    raise ValueError("value is not the image of a polynomial in range")
                terms[key] = _rat(Fraction(digit, unit))
            pos += 1
        return Poly(terms, _canonical=True)


# ---------------------------------------------------------------------------
# quadratic factors kept exactly (coefficients + discriminant, never floats)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadRootData:
    """A quadratic A var^2 + B var + C in one symbol, with coefficients
    in the other symbols, and its discriminant, stored exactly; its roots
    are never materialised."""

    var: str
    quad_a: Poly
    quad_b: Poly
    quad_c: Poly
    discriminant: Poly

    def __post_init__(self):
        want = self.quad_b * self.quad_b - 4 * self.quad_a * self.quad_c
        if want != self.discriminant:
            raise ValueError("discriminant does not match B^2 - 4AC")

    def as_poly(self) -> Poly:
        x = Poly.var(self.var)
        return self.quad_a * x * x + self.quad_b * x + self.quad_c


def quadratic_root_data(poly: Poly, var: str) -> QuadRootData:
    """View `poly` as a quadratic in `var`; degree must be exactly 2."""
    if poly.degree_in(var) != 2:
        raise WrongDegree(f"degree in {var} is {poly.degree_in(var)}, want 2")
    a = poly.coeff_in(var, 2)
    b = poly.coeff_in(var, 1)
    c = poly.coeff_in(var, 0)
    return QuadRootData(var, a, b, c, b * b - 4 * a * c)


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
        # a constant denominator is folded into the numerator here only:
        # the stored pair stays unreduced, as every RatFunc is
        if self.den.is_const():
            return str(self.num * (1 / self.den.const_value()))
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _as_ratfunc(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (Poly, int, Fraction)):
        return RatFunc(value)
    return NotImplemented
