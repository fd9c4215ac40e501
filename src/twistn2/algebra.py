"""The twisted N=2 superconformal algebra as data.

Generators: Virasoro modes L_m (m integer), current modes T_r (r half-odd),
fermionic modes G_p (p any half-integer), and the central element C.  The
super-bracket is total on ordered pairs; its Kronecker deltas (the central
terms) are exact integer comparisons on doubled indices, so no floating
point enters anywhere.

The graded Jacobi identity says that the adjoint action is a module action,
so it is checked as the module axiom of the adjoint module: one residual
engine (`residual_sweep`) runs both the Jacobi sweep and the module
families' axiom sweeps.  The engine only flags the checks that fail; a
witness is the readable reference's residual (`jacobi_residual` here,
`modules.bracket_action_check` for a module), computed only when a report
reads it.  The engine has one arithmetic: it reads each operator as
position-indexed arrays of target positions and int numerators over one
denominator (`Row`), and sums every residual in ints.  A module entry has
one term, so a module row is one such layer, and a check is at most three
products; the Jacobi sweep's central brackets have two terms, and spread
over a second layer.
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
    coefficient is an int or a Fraction where the indices are concrete
    half-integers and a Poly where one is symbolic; `env` declares the parity class of
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


_C_KEY = _key(C)


def super_jacobi_sweep(window: int) -> Tally:
    """Exhaustively check the graded Jacobi identity on a window.

    Returns a `Tally` of every ordered triple of window generators, whose
    violations are (x, y, z, {generator name: residual coefficient}), in
    the engine's pair-major order.  They are a `report.LazyList` over the
    triples the engine flags: a witness is computed, by `jacobi_residual`,
    only when it is read.

    For homogeneous x, y, z the identity reads
        [x,[y,z]] = [[x,y],z] + (-1)^(|x||y|) [y,[x,z]],
    the module axiom of the adjoint module at (x, y) on the vector z, so
    the sweep runs on the axiom sweeps' engine (`residual_sweep`), whose
    residual at every triple is `jacobi_residual`'s.  Violations are
    collected (none are expected); nothing is thrown.

    The adjoint rows are one table of bracket terms over positions of
    (kind, doubled index) keys: every window pair, and (h, z) and (z, h)
    for each h that one bracket of window generators reaches.  A bracket
    with a central term has two terms, so the rows that hold one spread
    over a second layer (`layered_row`); their coefficients are ints over
    each row's denominator (`_int_row`).
    """
    gens = generators_in_window(window)
    keyed = [(g, _key(g)) for g in gens]
    reached: dict = {}  # key -> Gen, for every generator a bracket reaches
    brackets: dict = {}  # key of x -> key of z -> the terms of [x, z]

    def fill(g1: Gen, k1, g2: Gen, k2) -> None:
        row = brackets.setdefault(k1, {})
        if k2 in row:
            return
        terms = []
        for h, c in bracket(g1, g2).items():
            kh = _key(h)
            reached[kh] = h
            terms.append((kh, c))
        row[k2] = terms

    for g1, k1 in keyed:
        for g2, k2 in keyed:
            fill(g1, k1, g2, k2)
    # `reached` holds, so far, every generator one window bracket reaches
    for kh, h in list(reached.items()):
        for z, kz in keyed:
            fill(h, kh, z, kz)
            fill(z, kz, h, kh)

    keys = [None, *dict.fromkeys([*(k for _, k in keyed), *reached])]
    pos = {key: i for i, key in enumerate(keys)}
    rows = {k: _int_row({pos[kz]: [(pos[kh], c) for kh, c in terms]
                         for kz, terms in row.items()}, len(keys))
            for k, row in brackets.items()}
    # C acts as zero on the adjoint module, so a central term adds nothing
    vectors = [(pos[kz], z) for z, kz in keyed]
    pairs = [((x, y), kx, ky, -1 if x.kind == "G" and y.kind == "G" else 1,
              [(kh, c) for kh, c in brackets[kx][ky] if kh != _C_KEY], vectors)
             for x, kx in keyed for y, ky in keyed]
    flagged = residual_sweep(pairs, rows)

    def witness(triple) -> tuple:
        (x, y), z = triple
        return x, y, z, {str(h): c for h, c in jacobi_residual(x, y, z).items()}

    return Tally(len(gens) ** 3, LazyList(list(flagged), witness))


class Row:
    """One operator's action as the residual engine reads it: position-
    indexed arrays, one (targets, coeffs) pair of lists per layer.

    The entry at position p is the sum, over the layers, of coeffs[p] times
    the vector at position targets[p], each coefficient an int numerator
    over the row's `den`.  Position 0 is the zero vector: every layer holds
    (0, 0) there.  Where an entry has no term in a layer, the layer holds
    coefficient 0, on position 0 or on any filled position (a module row's
    empty entry sits on the line a term would land on).  A position the
    row was not filled at holds None, so a read there raises.  An entry of
    one term fills one layer; an entry of more terms spreads its i-th term
    over the i-th layer, and `spread` holds the positions where it does.
    """

    __slots__ = ("layers", "den", "spread")

    def __init__(self, layers, den: int):
        self.layers, self.den = tuple(layers), den
        self.spread = frozenset(p for _, coeffs in self.layers[1:]
                                for p, c in enumerate(coeffs) if c)


def layered_row(entries: dict, size: int, den: int) -> Row:
    """The `Row` of {position: [(target position, int numerator), ...]}
    over `size` positions and `den`: None wherever no entry is given."""
    width = max([1, *map(len, entries.values())])
    layers = []
    for i in range(width):
        targets, coeffs = [None] * size, [None] * size
        targets[0] = coeffs[0] = 0
        for p, terms in entries.items():
            targets[p], coeffs[p] = terms[i] if i < len(terms) else (0, 0)
        layers.append((targets, coeffs))
    return Row(layers, den)


def _int_row(entries: dict, size: int) -> Row:
    """`layered_row` of rational (int or Fraction) coefficients, as int
    numerators over their common denominator."""
    den = lcm(1, *(c.denominator for terms in entries.values() for _, c in terms))
    return layered_row({p: [(t, _times(c, den)) for t, c in terms]
                        for p, terms in entries.items()}, size, den)


def _summed(vp: int, products) -> bool:
    """Whether a sum of products at vector position vp is nonzero on some
    target.  A product is (outer, inner, m), m times the outer layer
    applied to the inner layer's term, or (layer, m), m times the layer's
    term; a zero product is skipped."""
    acc: dict = {}
    get = acc.get
    for product in products:
        if len(product) == 3:
            (outer_t, outer_c), (inner_t, inner_c), m = product
            c = inner_c[vp]
            if not c and c is not None:  # an unfilled read raises below
                continue
            t = inner_t[vp]
            c2 = outer_c[t]
            if not c2 and c2 is not None:
                continue
            t = outer_t[t]
            acc[t] = get(t, 0) + (c * c2 if m == 1 else c * c2 * m)
        else:
            (targets, coeffs), m = product
            c = coeffs[vp]
            if c or c is None:
                t = targets[vp]
                acc[t] = get(t, 0) + (c if m == 1 else c * m)
    return any(acc.values())


def _products(x: Row, y: Row, singles: list, m, e) -> list:
    """Every product of layers a check of the pair (x, y) sums, in the
    order x(y v), then the bracket's `singles`, then y(x v); m and e are
    the multipliers of the two compositions."""
    return [*((a, b, m) for b in y.layers for a in x.layers), *singles,
            *((b, a, e) for a in x.layers for b in y.layers)]


def residual_sweep(pairs, rows: dict):
    """The one residual engine: yields (pair tag, vector tag) for every
    check of a pair on a vector whose axiom residual is nonzero.

    `rows` maps a row key to that operator's action, a `Row` over one
    layout of positions (position 0 is the zero vector).  Each pair is
    (tag, k1, k2, eps, xy, vectors): the row keys of x and y, the sign
    eps = (-1)^(|x||y|), [x, y] as at most one (row key, scale) term, and
    the vectors the pair is checked on, each (position, tag).  A full
    sweep hands every pair the same vectors; a deformed family's sweep
    hands each pair only those of its checks that read the slot
    (`modules.axiom_sweep`).  At (x, y) on v the residual is
        x(y v) - [x,y] v - eps y(x v).
    The engine reads the rows' arrays as they are: every row at the
    vector positions, and x and y also at every position one of them
    takes a vector to.  It keeps no residual: a caller that reports one
    computes it with its readable reference.

    Each pair reads its checks over the product of its own dens: those
    of x's and y's rows, and of [x, y]'s row and scale where it has a
    bracket term.  It folds them into one int multiplier per part, so
    every residual of the pair is summed, exactly, in ints times that
    product.

    A check is, on the rows' first layers, at most three products, summed
    into one scalar when they land on one target; a small dict sums them
    where they do not (`_summed`).  The dict also sums every product of
    layers where an entry the check reads spreads over more layers
    (`Row.spread`).
    """
    # a pair with no bracket term reads this all-zero layer, which keeps
    # its checks on the scalar path
    size = len(next(iter(rows.values())).layers[0][0])
    zero = ([0] * size,) * 2

    for tag, k1, k2, eps, xy, vectors in pairs:
        r1, r2 = rows[k1], rows[k2]
        (t1, c1), (t2, c2) = r1.layers[0], r2.layers[0]
        sx, sy = r1.spread, r2.spread
        m, singles, (th, ch), mh, sh = 1, [], zero, 0, sx  # sx is tested anyway
        if xy:
            (kh, scale), = xy  # a bracket has at most one term
            h = rows[kh]
            m = h.den * scale.denominator
            mh = -scale.numerator * r1.den * r2.den
            singles = [(layer, mh) for layer in h.layers]
            (th, ch), sh = h.layers[0], h.spread
        e = -eps * m
        spread = sx or sy or sh
        products = None  # built at the first check that needs the dict
        for vp, name in vectors:
            t = t2[vp]
            u = t1[vp]
            target = t1[t]
            if (target == t2[u] and (target == th[vp] or not ch[vp]) and not (
                    spread and (vp in sy or t in sx or vp in sh or vp in sx or u in sy))):
                if c2[vp] * c1[t] * m + ch[vp] * mh + c1[vp] * c2[u] * e:
                    yield tag, name
                continue
            products = products or _products(r1, r2, singles, m, e)
            if _summed(vp, products):
                yield tag, name


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
