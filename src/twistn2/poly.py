"""Exact sparse multivariate polynomials over the rationals.

A polynomial is held as int numerators over one denominator, the form of
FLINT's fmpq_poly (Hart, FLINT: Fast Library for Number Theory): `num` maps
each monomial to a nonzero int and `den` > 0 shares no factor with all of
them, so two polynomials are equal iff their pairs are.  Arithmetic runs in
ints on the pairs, reduces each result by one gcd and builds no Fraction; a
product with a constant only scales the numerators.  `terms` reads the
coefficients num/den, each an int when integral and otherwise a Fraction.
Every identity checked downstream is exact.

A monomial is one int, a packed exponent vector (Monagan and Pearce, CASC
2007): the exponent of slot i of a process-wide symbol registry sits in
bits [8i, 8i+8), so a term product is one int add.  Exponents stay below
128, so no field carries, and one that would reach 128 raises
OverflowError.  A new symbol adds a field that is zero in older keys, so
polynomials built before and after it compare equal.  Rendering is graded
lex in registry order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm, prod
from operator import or_
from types import MappingProxyType
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


def _ratio(value) -> tuple[int, int]:
    """(n, d): `value` = n/d in lowest terms, d > 0, for an int, a Fraction
    or anything else Fraction takes (a float, say)."""
    if type(value) is int:
        return value, 1
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator, value.denominator


def from_pair(num: dict, den: int) -> "Poly":
    """The Poly num/den, for int numerators none of which is zero and an
    int den > 0: the pair is divided by the gcd of den and every
    numerator."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: c // g for key, c in num.items()}
            den //= g
    return Poly(num, den)


def _scaled(p: "Poly", n: int, d: int) -> "Poly":
    """p * n/d for a nonzero p and n/d in lowest terms, n != 0 and d > 0:
    the numerators are scaled and no product loop runs.  n shares no
    factor with p.den after its gcd with p.den is cancelled, so the only
    other common factor is gcd(d, numerators)."""
    if n == 1 and d == 1:
        return p
    num, den = p.num, p.den
    if den != 1 and n != 1:
        g = gcd(n, den)
        n //= g
        den //= g
    g = gcd(d, *num.values()) if d != 1 else 1
    if g != 1 or n != 1:
        num = {key: c // g * n for key, c in num.items()}
    return Poly(num, den * (d // g))


def _sum(p: "Poly", q: "Poly", sign: int) -> "Poly":
    """p + sign * q, over the lcm of the two denominators."""
    n2 = q.num
    if not n2:
        return p
    n1 = p.num
    if not n1:
        return q if sign == 1 else -q
    d1, d2 = p.den, q.den
    if d1 == d2:
        out, s2, den = dict(n1), sign, d1
    else:
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        out, den = {key: c * s1 for key, c in n1.items()}, d1 * s1
    get = out.get
    for key, c in n2.items():
        new = get(key, 0) + c * s2
        if new:
            out[key] = new
        else:
            del out[key]
    return from_pair(out, den)


class Poly:
    """Canonical sparse polynomial; immutable by convention.

    A polynomial is the pair num/den: `num` maps packed monomials to
    nonzero int numerators, and `den` > 0 shares no factor with all of
    them, so two polynomials are equal iff their pairs are.  `terms` is a
    read-only view of the coefficients num/den, built on first read: an
    int when integral, otherwise a Fraction with denominator > 1;
    `monomials()` reads the exponent tuples.  `Poly(terms)` takes a
    coefficient map of ints, Fractions or floats, zeros among them;
    `Poly(num, den)` takes a canonical pair as it is, and `from_pair` one
    that may need reducing.  Arithmetic runs on the pairs in ints, and a product with a constant, a
    scalar among them, only scales the numerators.
    """

    __slots__ = ("num", "den", "_terms")

    def __init__(self, terms: Mapping[Exps, Scalar] | None = None, den: int | None = None):
        if den is None:
            pairs = {key: _ratio(c) for key, c in (terms or {}).items() if c}
            den = lcm(1, *(d for _, d in pairs.values()))
            terms = {key: n * (den // d) for key, (n, d) in pairs.items()}
        self.num = terms
        self.den = den
        self._terms = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: Scalar) -> "Poly":
        n, d = _ratio(value)
        return Poly({0: n}, d) if n else ZERO

    @staticmethod
    def var(name: str, power: int = 1) -> "Poly":
        if power >> 7:
            raise OverflowError(f"exponent {power} is not in [0, 128)")
        return Poly({power << sym_shift(name): 1}, 1)

    @property
    def terms(self) -> Mapping[Exps, Scalar]:
        """The coefficient num/den of each packed monomial, read-only."""
        view = self._terms
        if view is None:
            d = self.den
            view = self._terms = MappingProxyType(self.num if d == 1 else {
                key: Fraction(c, d) if c % d else c // d for key, c in self.num.items()})
        return view

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    __hash__ = None  # mutable-dict backed; not hashable

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return _sum(Poly.const(other), self, -1)
        return NotImplemented

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            n, d = _ratio(other)
            return _scaled(self, n, d) if n and self.num else ZERO
        if not isinstance(other, Poly):
            return NotImplemented
        num1, num2 = self.num, other.num
        if not num1 or not num2:
            return ZERO
        if len(num2) == 1 and 0 in num2:
            return _scaled(self, num2[0], other.den)
        if len(num1) == 1 and 0 in num1:
            return _scaled(other, num1[0], self.den)
        out: dict[Exps, int] = {}
        get = out.get
        for e1, c1 in num1.items():
            for e2, c2 in num2.items():
                key = e1 + e2
                out[key] = get(key, 0) + c1 * c2
        _checked(out)
        if not all(out.values()):
            out = {key: c for key, c in out.items() if c}
        return from_pair(out, self.den * other.den)

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
        num = self.num
        return not num or (len(num) == 1 and 0 in num)

    def const_value(self) -> Fraction:
        """The constant's value, as a Fraction even when integral, so a
        caller may divide by it exactly."""
        if not self.is_const():
            raise WrongDegree(f"not a constant: {self}")
        return Fraction(self.num.get(0, 0), self.den)

    def monomials(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """(exponent tuple by registry slot, coefficient) per term."""
        return [(_unpack(key), c) for key, c in self.terms.items()]

    def degree_in(self, name: str) -> int:
        """The top degree in `name`; 0, unregistered, for an unseen name."""
        slot = _SLOT.get(name)
        if slot is None:
            return 0
        return max((key >> 8 * slot & 255 for key in self.num), default=0)

    def variables(self) -> tuple[str, ...]:
        seen = _unpack(reduce(or_, self.num, 0))
        return tuple(sym_name(i) for i, e in enumerate(seen) if e)

    def coeff_in(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, a polynomial in the other symbols."""
        slot = _SLOT.get(name)
        if slot is None:
            return self if power == 0 else ZERO
        want = power << 8 * slot
        mask = 255 << 8 * slot
        return from_pair({key - want: c for key, c in self.num.items() if key & mask == want},
                         self.den)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, Union["Poly", Scalar]]) -> "Poly":
        """Replace symbols by values or polynomials, exactly.

        Substitution is simultaneous: every value is read against the
        original polynomial, so {"k": k - m} and a swap {"b": bp, "bp": b}
        are correct.  It runs on the pair num/d, with each value as
        vnum/den: vnum an int or, for a polynomial value, its int
        numerators as a polynomial (a constant polynomial counts as a
        scalar).  A term of degree e in a symbol of top degree D is
        multiplied by vnum**e * den**(D - e), so every term lands over the
        one denominator d * prod(den**D), and the result is reduced once.
        A term meets a polynomial value only when it contains that symbol.
        """
        if not bindings:
            return self
        num, d = self.num, self.den
        bound = []  # (shift, numerator, den, top degree in self)
        for name, val in bindings.items():
            slot = _SLOT.get(name)
            if slot is None:  # a symbol never registered is in no term
                continue
            shift = 8 * slot
            if not isinstance(val, Poly):
                val, den = _ratio(val)
            elif val.is_const():
                val, den = val.num.get(0, 0), val.den
            else:
                val, den = Poly(val.num, 1), val.den
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
                for fkey, fcoeff in factor.num.items():
                    term = key + fkey
                    acc[term] = get(term, 0) + coeff * fcoeff
        _checked(acc)
        return from_pair({key: c for key, c in acc.items() if c}, d)

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """The value at `bindings`, which must bind every symbol; a Fraction."""
        return self.substitute(bindings).const_value()

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.num:
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


ZERO = Poly()
ONE = Poly.const(1)


def exact_divide(num: Poly, den: Poly) -> Poly:
    """Return q with q*den == num, or raise NotDivisible.

    Leading-term division by the largest packed key: comparing packed
    keys is a monomial order (lex, last slot first), so the unique exact
    quotient is found greedily.  Key k is divisible by key d iff no field
    of k - d is negative: ((k | G) - d) & G == G, G the guard bits.  It
    runs on the numerators in ints: where den's lead L does not divide the
    remainder's lead, the remainder is first multiplied by |L| over their
    gcd, and that running scale s > 0 is kept, so s * num.num equals the
    quotient's numerators times den.num at every step.  Each quotient term
    times den is subtracted from one working remainder.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return ZERO
    dnum = den.num
    den_key = max(dnum)
    lead = dnum[den_key]
    step = abs(lead)
    quot: dict[Exps, tuple[int, int]] = {}  # key -> (numerator, scale it was found at)
    rem = dict(num.num)
    scale = 1
    while rem:
        top = max(rem)
        if ((top | _GUARD) - den_key) & _GUARD != _GUARD:
            raise NotDivisible(num, den)
        key = top - den_key
        c = rem[top]
        m = step // gcd(c, lead)
        if m != 1:
            scale *= m
            rem = {k: v * m for k, v in rem.items()}
            c *= m
        q = c // lead
        quot[key] = (q, scale)
        _checked(key + dk for dk in dnum)
        for dk, dc in dnum.items():
            t = key + dk
            new = rem.get(t, 0) - q * dc
            if new:
                rem[t] = new
            else:
                del rem[t]
    dd = den.den
    return from_pair({key: q * (scale // s) * dd for key, (q, s) in quot.items()},
                     scale * num.den)


# ---------------------------------------------------------------------------
# one-symbol polynomials over Q: gcd and rational roots
# ---------------------------------------------------------------------------

def _dense(f: Poly, var: str) -> list[int]:
    """A polynomial in `var` alone as primitive int coefficients, highest
    degree first, with a positive lead: f times a nonzero rational; [] for
    zero."""
    shift = sym_shift(var)
    num = f.num
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
    if not acc:
        return ZERO
    shift, top = sym_shift(var), len(acc) - 1
    # a primitive sequence with a positive lead: acc over acc[0] is canonical
    return Poly({(top - i) << shift: x for i, x in enumerate(acc) if x}, acc[0])


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
    evaluated, so that a product of two of them is zero exactly when its
    image is.

    Symbol slot i goes to X**offset_i (`value`), the offsets in mixed radix
    2*top_i + 1 by the top degrees `tops`, so every monomial of a product
    of two such polynomials has its own power of X; X is 2**(B + 2) with
    2**B > `bound`.  Evaluation there is a ring homomorphism (Kronecker
    substitution), and on such products with integer coefficients of
    absolute value at most `bound` it is injective: the image's balanced
    base-X digits are the coefficients, so a nonzero one has a nonzero
    image.
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
