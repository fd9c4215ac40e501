"""The twisted N=2 superconformal algebra as data.

Generators: Virasoro modes L_m (m integer), current modes T_r (r half-odd),
fermionic modes G_p (p any half-integer), and the central element C.  The
super-bracket is total on ordered pairs; its Kronecker deltas (the central
terms) are exact integer comparisons on doubled indices, so no floating
point enters anywhere.

The graded Jacobi identity says that the adjoint action is a module action,
so it is checked as the module axiom of the adjoint module: one residual
engine (`residual_sweep`) runs both the Jacobi sweep and the module
families' axiom sweeps, and both build a witness only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .indices import SymIndex
from .report import LazyList, Tally

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
    terms cancel is deleted.  Shared by the sparse sums outside the
    residual engine."""
    acc = out.get(key)
    new = coeff if acc is None else acc + coeff
    if new:
        out[key] = new
    elif acc is not None:
        del out[key]


def _times(c, d: int) -> int:
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


def _central(kind: str, i: SymIndex, env: dict | None = None):
    """C coefficient of [X_i, X_-i] for X = L, T, G: a Fraction at a
    concrete index, a Poly at a symbolic one, whose parity class `env`
    declares."""
    v = i.value
    if kind == "L":
        return (v**3 - v) * Fraction(1, 12)
    if kind == "T":
        return v * Fraction(1, 3)
    sign = -1 if i.parity(env) else 1
    return sign * (v * v - Fraction(1, 4)) * Fraction(1, 3)


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


def _key(g: Gen) -> tuple:
    return (g.kind, None if g.idx is None else g.idx.doubled)


def super_jacobi_sweep(window: int) -> Tally:
    """Exhaustively check the graded Jacobi identity on a window.

    Returns a `Tally` of every ordered triple of window generators, whose
    violations are (x, y, z, {generator name: residual coefficient}), in
    the engine's pair-major order.  They are a `report.LazyList` over the
    engine's records: a witness is decoded only when it is read.

    For homogeneous x, y, z the identity reads
        [x,[y,z]] = [[x,y],z] + (-1)^(|x||y|) [y,[x,z]],
    the module axiom of the adjoint module at (x, y) on the vector z, so
    the sweep runs on the axiom sweeps' engine (`residual_sweep`), which
    sums `jacobi_residual`, the readable reference, at every triple.
    Violations are collected (none are expected); nothing is thrown.

    The adjoint rows are one table of bracket terms, keyed by (kind,
    doubled index) pairs: every window pair, and (h, z) and (z, h) for
    each h that one bracket of window generators reaches.
    """
    gens = generators_in_window(window)
    keyed = [(g, _key(g)) for g in gens]
    named: dict = {}  # key -> Gen, for the witnesses
    rows: dict = {}  # key of x -> key of z -> the terms of [x, z]

    def fill(g1: Gen, k1, g2: Gen, k2) -> None:
        row = rows.setdefault(k1, {})
        if k2 in row:
            return
        terms = []
        for h, c in bracket(g1, g2).items():
            kh = _key(h)
            named[kh] = h
            terms.append((kh, c))
        row[k2] = terms

    for g1, k1 in keyed:
        for g2, k2 in keyed:
            fill(g1, k1, g2, k2)
    # `named` holds, so far, every generator one window bracket reaches
    for kh, h in list(named.items()):
        for z, kz in keyed:
            fill(h, kh, z, kz)
            fill(z, kz, h, kh)

    pairs = [((x, y), kx, ky, -1 if x.kind == "G" and y.kind == "G" else 1, rows[kx][ky])
             for x, kx in keyed for y, ky in keyed]
    decode, records = residual_sweep(pairs, rows, [(kz, z) for z, kz in keyed])

    def witness(record) -> tuple:
        (x, y), z, entries = record
        return x, y, z, {str(named[h]): c for h, c in decode(entries).items()}

    return Tally(len(gens) ** 3, LazyList(list(records), witness))


class Row(dict):
    """One operator's action for the residual engine: vector key ->
    ((target key, coeff), ...), each coeff an int numerator over `den`, or
    an object (Fraction, Poly, RatFunc) where den is None, as in a dict."""

    __slots__ = ("den",)

    def __init__(self, entries=(), den: int | None = None):
        super().__init__(entries)
        self.den = den


def _lowering(rows: dict, brackets):
    """How `residual_sweep` takes its coefficients to ints: (d, lower,
    decode), or None when a row holds an object other than a Fraction (a
    Poly or a RatFunc).

    `rows` are `Row`s.  d is the lcm of the bracket scales' denominators
    (`brackets` holds one list of scales per pair) and of the rows': an
    int row's den, whose entries are not read here, and the denominator of
    every Fraction.  `lower(c, d)` is a Fraction c times d as an int, and
    `decode(c, unit)` the residual coefficient that c stands for.  A bare
    int in a row of objects is a numerator that lost its den, and raises.
    """
    dens = []
    for r in rows.values():
        if r.den is not None:
            dens.append(r.den)
            continue
        for terms in r.values():
            for _, c in terms:
                if isinstance(c, Fraction):
                    dens.append(c.denominator)
                elif isinstance(c, int):
                    raise TypeError(f"int coefficient {c} in a row without a den")
                else:
                    return None
    for scales in brackets:
        for c in scales:
            dens.append(c.denominator)
    return lcm(*dens), _times, Fraction


def residual_sweep(pairs, rows: dict, vectors, sign: int = 1, decode=None):
    """The one residual engine: the axiom residual of every pair on every
    vector, in int arithmetic; hands back the nonzero ones, undecoded.

    `rows` maps a row key to that operator's action, a `Row` (or a plain
    dict of objects) from vector key to ((target key, coeff), ...).  Each
    pair is (tag, k1, k2, eps, xy): the row keys of x and y, the sign eps =
    (-1)^(|x||y|), and [x, y] as ((row key, scale), ...).  Each vector is
    (vector key, tag).  At (x, y) on v the residual is
        x(y v) - [x,y] v - eps y(x v),
    summed in that order into one accumulator; `sign` = -1 gives a module
    axiom's residual, the negative.

    A gather pass reads, once, the entries the loop reads: every row on
    the vectors, and the pairs' rows also on every label one of them takes
    a vector to.  A row that misses one raises there; a
    `modules._ActionRow` builds it there.  Each label key then gets an int
    position, and each row becomes a list indexed by position, with None
    where nothing was gathered, so a read past the gather raises too.  Its
    entries are ((target position, coeff), ...), every row coefficient and
    bracket scale an int over their common denominator d (`_lowering`), so
    each residual term, a product of two of them, comes out times d**2.
    An int row is taken as it is, times d / den where its den is not d,
    and a Fraction is lowered.  Rows holding a Poly or a RatFunc keep their
    objects, with the sign alone as their unit; an int row beside them is
    read over its den.

    The gather runs at the call.  Returns (decode, records): `records`
    yields one (pair tag, vector tag, entries) tuple per nonzero residual,
    where entries are the accumulator's nonzero terms as one flat tuple
    (target position, int coeff, target position, int coeff, ...), and
    `decode(entries)`, the sweep's one decoder, reads them back to {target
    key: coeff} at sign * d**2, so the decoding takes the sign too.  A
    sweep that keeps a count and one witness so decodes one residual.  An
    int coefficient c reads back as c / unit, unit = sign * d**2, or as
    `decode(c, unit)` where given (a twin's Kronecker point, `modules._twin`).
    """
    vkeys = [vk for vk, _ in vectors]
    outer = dict.fromkeys(k for _, k1, k2, _, _ in pairs for k in (k1, k2))
    gathered = {k: Row(((vk, r[vk]) for vk in vkeys), getattr(r, "den", None))
                for k, r in rows.items()}
    reached = dict.fromkeys(lk for k in outer for terms in gathered[k].values()
                            for lk, _ in terms)
    for k in outer:
        gathered[k].update((lk, rows[k][lk]) for lk in reached)
    lowering = _lowering(gathered, [[scale for _, scale in xy] for *_, xy in pairs])
    if lowering is None:
        for r in gathered.values():  # an int row is read over its den
            if r.den is not None:
                r.update({vk: tuple((lk, Fraction(c, r.den)) for lk, c in terms)
                          for vk, terms in r.items()})
                r.den = None
        lowering = 1, lambda c, d: c, lambda c, unit: c if unit == 1 else -c
    d, lower, read = lowering
    read = decode or read
    unit = sign * d * d
    keys = list(dict.fromkeys([*vkeys, *(lk for entries in gathered.values()
                                         for terms in entries.values() for lk, _ in terms)]))
    pos = {key: i for i, key in enumerate(keys)}
    lowered = {}
    for k, entries in gathered.items():
        row = lowered[k] = [None] * len(keys)
        f = entries.den and d // entries.den
        for vk, terms in entries.items():
            row[pos[vk]] = (tuple((pos[lk], lower(c, d)) for lk, c in terms) if f is None
                            else tuple((pos[lk], c) for lk, c in terms) if f == 1
                            else tuple((pos[lk], c * f) for lk, c in terms))
    vectors = [(pos[vk], name) for vk, name in vectors]

    def decoder(entries: tuple) -> dict:
        terms = iter(entries)
        return {keys[p]: read(c, unit) for p, c in zip(terms, terms)}

    def records():
        for tag, k1, k2, eps, xy in pairs:
            r1, r2 = lowered[k1], lowered[k2]
            xy_rows = [(lowered[kh], -lower(scale, d)) for kh, scale in xy]
            for vp, name in vectors:
                acc: dict = {}
                get = acc.get
                for lp, c in r2[vp]:
                    for lp2, c2 in r1[lp]:
                        acc[lp2] = get(lp2, 0) + c * c2
                for rh, scale in xy_rows:
                    for lp, c in rh[vp]:
                        acc[lp] = get(lp, 0) + scale * c
                for lp, c in r1[vp]:
                    c = -eps * c
                    for lp2, c2 in r2[lp]:
                        acc[lp2] = get(lp2, 0) + c * c2
                if any(acc.values()):
                    yield tag, name, tuple(x for item in acc.items() if item[1] for x in item)

    return decoder, records()


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
