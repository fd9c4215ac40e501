"""The twisted N=2 superconformal algebra as data.

Generators: Virasoro modes L_m (m integer), current modes T_r (r half-odd),
fermionic modes G_p (p any half-integer), and the central element C.  The
super-bracket is total on ordered pairs; Kronecker terms are exact integer
comparisons on doubled indices, so no floating point enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .indices import SymIndex

EVEN, ODD = 0, 1


@dataclass(frozen=True)
class Gen:
    """A basis generator: kind in {L, T, G, C}, index absent for C."""

    kind: str
    idx: SymIndex | None = None

    def __post_init__(self):
        if self.kind == "C":
            if self.idx is not None:
                raise ValueError("central element carries no index")
            return
        if self.kind not in ("L", "T", "G"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        # a symbolic index is rejected: a generator is one concrete mode
        object.__setattr__(self, "idx", SymIndex.of(self.idx).const_value())
        if self.kind == "L" and not self.idx.is_integer():
            raise ValueError(f"L index must be an integer, got {self.idx}")
        if self.kind == "T" and not self.idx.is_half_odd():
            raise ValueError(f"T index must be half-odd, got {self.idx}")

    def __str__(self) -> str:
        return "C" if self.kind == "C" else f"{self.kind}({self.idx})"

    def sort_key(self):
        return (self.kind, self.idx.doubled if self.idx is not None else 0)


def L(i) -> Gen:
    return Gen("L", i)


def T(i) -> Gen:
    return Gen("T", i)


def G(i) -> Gen:
    return Gen("G", i)


C = Gen("C")


def parity(g: Gen) -> int:
    """Z2-grading: G modes are odd, everything else is even."""
    return ODD if g.kind == "G" else EVEN


# A finite bracket value: generator -> exact rational coefficient.
GenSum = dict


def add_term(out: dict, key, coeff) -> None:
    """Add coeff to out[key]: a zero sum is not stored, and a key whose
    terms cancel is deleted.  Shared by every sparse sum in the package."""
    acc = out.get(key)
    new = coeff if acc is None else acc + coeff
    if new:
        out[key] = new
    elif acc is not None:
        del out[key]


def _over(c, d: int) -> int:
    """c * d as an int, for a d that c's denominator divides."""
    return c.numerator * (d // c.denominator)


# kinds in the order the structure constants are written; a pair in the
# other order is flipped by super-antisymmetry
_RANK = {"L": 0, "T": 1, "G": 2}
HALF = Fraction(1, 2)


def bracket_terms(k1: str, i1, k2: str, i2, env: dict | None = None) -> list:
    """The structure constants: [k1_i1, k2_i2] less its central term.

    Returns (kind, index, coefficient) triples over SymIndex indices.  A
    coefficient is a Fraction where the indices are concrete half-integers
    and a Poly where one is symbolic; `env` declares the parity class of
    each free index symbol.  A C term is never returned (C acts as zero on
    every module family).  Mixed orders are defined through
    super-antisymmetry [y, x] = -(-1)^(|x||y|) [x, y]; two generators of
    different kinds are never both odd, so the flip is a plain sign.
    """
    if k1 == "C" or k2 == "C":
        return []
    if _RANK[k1] > _RANK[k2]:
        return [(k, i, -c) for k, i, c in bracket_terms(k2, i2, k1, i1, env)]
    x, y = i1.value, i2.value
    idx = i1 + i2
    if k1 == "L":
        if k2 == "L":
            return [("L", idx, x - y)]
        if k2 == "T":
            return [("T", idx, -y)]
        return [("G", idx, HALF * x - y)]
    if k1 == "T":
        return [] if k2 == "T" else [("G", idx, Fraction(1))]
    odd1, odd2 = i1.parity(env), i2.parity(env)
    sign = -1 if odd1 else 1  # (-1)^(2p)
    if odd1 == odd2:
        return [("L", idx, Fraction(2 * sign))]
    return [("T", idx, -sign * (x - y))]


def _central(kind: str, i: SymIndex) -> Fraction:
    """C coefficient of [X_i, X_-i] for X = L, T, G."""
    v = i.value
    if kind == "L":
        return (v**3 - v) / 12
    if kind == "T":
        return v / 3
    sign = -1 if i.is_half_odd() else 1
    return sign * (v * v - Fraction(1, 4)) / 3


def bracket(g1: Gen, g2: Gen) -> GenSum:
    """Super-bracket of two basis generators, central term included."""
    k1, k2 = g1.kind, g2.kind
    out: GenSum = {}
    if k1 == "C" or k2 == "C":
        return out
    for kind, idx, coeff in bracket_terms(k1, g1.idx, k2, g2.idx):
        add_term(out, Gen(kind, idx), coeff)
    if k1 == k2 and g1.idx.doubled + g2.idx.doubled == 0:
        add_term(out, C, _central(k1, g1.idx))
    return out


def _bracket_gen_sum(g: Gen, summ: GenSum) -> GenSum:
    out: GenSum = {}
    for h, c in summ.items():
        for h2, c2 in bracket(g, h).items():
            add_term(out, h2, c * c2)
    return out


def generators_in_window(window: int) -> list[Gen]:
    """All generators with |doubled index| <= 2*window, plus C."""
    bound = 2 * window
    gens: list[Gen] = [C]
    gens += [L(SymIndex(d)) for d in range(-bound, bound + 1) if d % 2 == 0]
    gens += [T(SymIndex(d)) for d in range(-bound, bound + 1) if d % 2 == 1]
    gens += [G(SymIndex(d)) for d in range(-bound, bound + 1)]
    return gens


@dataclass
class JacobiReport:
    window: int
    triples_checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _key(g: Gen) -> tuple:
    return (g.kind, None if g.idx is None else g.idx.doubled)


def super_jacobi_sweep(window: int) -> JacobiReport:
    """Exhaustively check the graded Jacobi identity on a window.

    For homogeneous x, y, z the identity reads
        [x,[y,z]] = [[x,y],z] + (-1)^(|x||y|) [y,[x,z]].
    Violations are collected (none are expected); nothing is thrown.

    The sweep computes `jacobi_residual`, the readable reference, at every
    triple, summed in the same order.  First it fills one table of bracket
    terms, keyed by (kind, doubled index) pairs: every window pair, and
    (h, z) and (z, h) for each h that one bracket of window generators
    reaches.  Then every scale is lowered to an int over the lcm d of their
    denominators, and the loop runs in int arithmetic: each residual term
    is a product of two scales, so the loop computes each residual times
    d**2.  Scaling by d**2 is injective, so the zero pattern of every
    partial sum, and with it each witness, is the reference's; only a
    nonzero residual is turned back into Fractions.
    """
    gens = generators_in_window(window)
    keyed = [(g, _key(g)) for g in gens]
    named: dict = {}  # key -> Gen, for the witnesses
    table: dict = {}

    def fill(g1: Gen, k1, g2: Gen, k2) -> None:
        if (k1, k2) in table:
            return
        terms = []
        for h, c in bracket(g1, g2).items():
            kh = _key(h)
            named[kh] = h
            terms.append((kh, c))
        table[k1, k2] = terms

    for g1, k1 in keyed:
        for g2, k2 in keyed:
            fill(g1, k1, g2, k2)
    # `named` holds, so far, every generator one window bracket reaches
    for kh, h in list(named.items()):
        for z, kz in keyed:
            fill(h, kh, z, kz)
            fill(z, kz, h, kh)

    d = lcm(*(c.denominator for terms in table.values() for _, c in terms))
    for pair, terms in table.items():
        table[pair] = [(kh, _over(c, d)) for kh, c in terms]
    unit = d * d

    violations = []
    for x, kx in keyed:
        for y, ky in keyed:
            sign = -1 if x.kind == "G" and y.kind == "G" else 1
            xy = table[kx, ky]
            for z, kz in keyed:
                lhs: dict = {}
                for h, c in table[ky, kz]:
                    for h2, c2 in table[kx, h]:
                        add_term(lhs, h2, c * c2)
                rhs1: dict = {}
                for h, c in xy:
                    for h2, c2 in table[h, kz]:
                        add_term(rhs1, h2, c * c2)
                rhs2: dict = {}
                for h, c in table[kx, kz]:
                    for h2, c2 in table[ky, h]:
                        add_term(rhs2, h2, c * c2)
                for h, c in rhs1.items():
                    add_term(lhs, h, -c)
                for h, c in rhs2.items():
                    add_term(lhs, h, -sign * c)
                if lhs:
                    violations.append((x, y, z, {str(named[h]): Fraction(c, unit)
                                                 for h, c in lhs.items()}))
    return JacobiReport(window, len(gens) ** 3, violations)


def jacobi_residual(x: Gen, y: Gen, z: Gen) -> GenSum:
    lhs = _bracket_gen_sum(x, bracket(y, z))
    rhs1: GenSum = {}
    for h, c in bracket(x, y).items():
        for h2, c2 in bracket(h, z).items():
            add_term(rhs1, h2, c * c2)
    sign = Fraction(-1) if parity(x) and parity(y) else Fraction(1)
    rhs2 = _bracket_gen_sum(y, bracket(x, z))
    out = dict(lhs)
    for g, c in rhs1.items():
        add_term(out, g, -c)
    for g, c in rhs2.items():
        add_term(out, g, -sign * c)
    return out
