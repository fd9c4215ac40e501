"""Module families over the twisted N=2 algebra, and their verifiers.

Two action tables, one per case, serve every family.  The generic candidates
GenericA and GenericB read them with their T and integer-G coefficients as
fresh unknowns, as the solved forms times symbolic normalization constants
(the alpha, beta and mu modes), or at the printed constants.  The printed
families are the same tables at the printed constants (`PRINTED_CONSTANTS`):
A(a,b) is case A's solution with alpha_i = 1 and b' = b, B(a,b) is case B's
with beta = (1, -1, 1, -1) and b' = b - 1/2, and the excluded B(a,0,-3/2)
candidate is case B's mu solution with mu_i = 0.  They keep their printed
closed-form T coefficients, where the generic candidates compose T from
their fermionic action.

The four one-parameter deformed families A1..B2 are a base module (A(0,-1),
A(0,-1/2), B(0,-1/2), B(1/2,-1/2)) plus one slot: the actions out of a
distinguished source (x_0 for A1, y_0 for B1) or into a distinguished sink
(y_0 for A2, y_1/2 for B2).  `BASE_FAMILY` is the one statement of where
each slot sits; the slot rule holds only the slot's values and the injected
faults.

One action engine serves every consumer: indices are SymIndex linear forms,
so the same family tables answer concrete sweeps (constant indices) and the
symbolic constraint derivations (free mode symbols).  Case splits on
distinguished indices (deformation points) are structural-equality tests,
which on symbolic indices is exactly the generic-index reading used when
the coefficient recurrences are solved.  Each spec memoizes its own
action table (`FamilySpec.ctx`); no action state is process-wide.

The central element acts as zero on every family.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Union

from .algebra import Gen, _over, add_term, bracket, bracket_terms, parity
from .indices import IDX_ZERO, SymIndex
from .poly import ONE, KroneckerPoint, Poly, RatFunc, ZERO

Param = Union[Fraction, str, None]  # "sym" selects symbolic mode

FAMILIES = ("Aab", "Bab", "A1", "A2", "B1", "B2", "GenericA", "GenericB")
COEFF_MODES = ("printed", "unknowns", "alpha", "beta", "mu")
# the coefficient modes each family reads: a generic candidate its own
# case's solved branches, any other family its printed coefficients only
FAMILY_MODES = {"GenericA": ("printed", "unknowns", "alpha"),
                "GenericB": ("printed", "unknowns", "beta", "mu")}


@dataclass(frozen=True)
class BasisLabel:
    letter: str  # "x" or "y"
    idx: SymIndex

    def __post_init__(self):
        if self.letter not in ("x", "y"):
            raise ValueError(f"bad basis letter {self.letter!r}")
        # a symbolic index is rejected: a label is one concrete basis vector
        object.__setattr__(self, "idx", SymIndex.of(self.idx).const_value())

    def __str__(self) -> str:
        return f"{self.letter}_{self.idx}"

    def sort_key(self):
        return (self.letter, self.idx.doubled)


# LinComb: BasisLabel -> coefficient: a Fraction for a concrete spec, Poly
# where a parameter is symbolic (RatFunc in the rational coefficient modes)
LinComb = dict


def lincomb_str(lc: LinComb) -> str:
    if not lc:
        return "0"
    parts = []
    for label in sorted(lc, key=BasisLabel.sort_key):
        parts.append(f"({lc[label]})*{label}")
    return " + ".join(parts)


@dataclass(frozen=True)
class FamilySpec:
    """One module family (or generic candidate) with its parameters.

    Parameters are exact rationals or the string "sym" for a fresh
    indeterminate.  `alphap` is the second deformation parameter; the
    printed one-parameter families fix it to 1.
    """

    family: str
    a: Param = None
    b: Param = None
    bprime: Param = None
    alpha: Param = None
    alphap: Param = None
    coeff_mode: str = "printed"
    fault: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.coeff_mode not in COEFF_MODES:
            raise ValueError(f"unknown coefficient mode {self.coeff_mode!r}")
        modes = FAMILY_MODES.get(self.family, ("printed",))
        if self.coeff_mode not in modes:
            raise ValueError(f"{self.family} does not read coefficient mode "
                             f"{self.coeff_mode!r}; it takes {', '.join(modes)}")
        if self.family in ("Aab", "Bab", "GenericA", "GenericB"):
            if self.a is None or self.b is None:
                raise ValueError(f"{self.family} needs parameters a and b")
        if self.family in ("A1", "A2", "B1", "B2"):
            if self.alpha is None:
                raise ValueError(f"{self.family} needs parameter alpha")
            if self.alphap is None:
                object.__setattr__(self, "alphap", Fraction(1))
        if self.family == "Bab":
            self._check_bab()

    def _check_bab(self):
        bp = self.bprime
        if bp is None:
            return
        b = self.b
        if isinstance(b, Fraction) and isinstance(bp, Fraction) and bp == b - Fraction(1, 2):
            return
        if b == Fraction(0) and bp == Fraction(-3, 2):
            # the x<->y-exchanged twin of this candidate is the same module,
            # and for a in (1/2)Z its coefficient forms force the module to
            # collapse, so that range is rejected outright
            if isinstance(self.a, Fraction) and (2 * self.a).denominator == 1:
                raise ValueError(
                    "B(a,0,-3/2) requires a outside half-integers (got a=%s)" % self.a
                )
            return
        raise ValueError(f"unsupported bprime={bp} for Bab (use b-1/2 or the (0,-3/2) candidate)")

    @cached_property
    def ctx(self) -> _Ctx:
        """The parameters as the tables read them, and this spec's action
        memo; built on first use, and outside eq, hash and repr."""
        return _Ctx(self)

    def label(self) -> str:
        bits = [self.family]
        # a generic candidate's solved forms fix bp: show the value checked
        forced = self.ctx.forced if self.family.startswith("Generic") else {}
        for nm in ("a", "b", "bprime", "alpha", "alphap"):
            v = getattr(self, nm)
            if nm in forced:
                v = str(forced[nm]).replace(" ", "")
            # alphap = 1 is the printed normalization of the deformed families
            if v is not None and not (nm == "alphap" and v == 1):
                bits.append(f"{nm}={v}")
        if self.coeff_mode != "printed":
            bits.append(self.coeff_mode)
        if self.fault:
            bits.append(f"fault={self.fault}")
        return " ".join(bits)


def aab(a: Param = "sym", b: Param = "sym", fault: str | None = None) -> FamilySpec:
    return FamilySpec("Aab", a=a, b=b, fault=fault)


def bab(a: Param = "sym", b: Param = "sym", fault: str | None = None) -> FamilySpec:
    return FamilySpec("Bab", a=a, b=b, fault=fault)


def b_zero_candidate(a: Param = "sym") -> FamilySpec:
    """The B(a, 0, -3/2) candidate: case B's mu solution at its printed
    constants mu_i = 0, so T and the integer G modes act as zero."""
    return FamilySpec("Bab", a=a, b=Fraction(0), bprime=Fraction(-3, 2))


def deformed(family: str, alpha: Param, alphap: Param = Fraction(1),
             fault: str | None = None) -> FamilySpec:
    return FamilySpec(family, alpha=alpha, alphap=alphap, fault=fault)


# ---------------------------------------------------------------------------
# action engine
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)

# each deformed family is one two-parameter module deformed at one
# distinguished vector, and this table is the one place that says where:
# family -> (base module, a, b, role, (letter, index)).  The base module's
# proper submodule survives the deformation:
#   A1 at x_0, B1 at y_0: a source.  The deformation changes its outgoing
#     actions and nothing maps onto it; the complement is the submodule.
#   A2 at y_0, B2 at y_1/2: a sink.  The deformation changes the actions into
#     it and it maps to nothing; its span is the submodule.
BASE_FAMILY = {
    "A1": ("Aab", Fraction(0), Fraction(-1), "source", ("x", IDX_ZERO)),
    "A2": ("Aab", Fraction(0), Fraction(-1, 2), "sink", ("y", IDX_ZERO)),
    "B1": ("Bab", Fraction(0), Fraction(-1, 2), "source", ("y", IDX_ZERO)),
    "B2": ("Bab", Fraction(1, 2), Fraction(-1, 2), "sink", ("y", SymIndex(1))),
}


# The printed normalization constants of the three solved branches, in the
# order alpha1..4 (beta1..4, mu1..4): the integer fermionic coefficient on x
# at integer and half-odd weights, then on y.  Case A's alpha forms hold on
# b' = b, case B's beta forms on b' = b - 1/2, and the mu forms of the
# exceptional case-B candidate at (b, b') = (0, -3/2).  A(a,b), B(a,b) and
# B(a,0,-3/2) are the generic tables at these values.
PRINTED_CONSTANTS = {
    "alpha": (1, 1, 1, 1),
    "beta": (1, -1, 1, -1),
    "mu": (0, 0, 0, 0),
}


class _Ctx:
    """One spec's parameters as the tables read them, and its action memo:
    one `_ActionRow` per generator, shared by every reader of the spec.

    It decides once which solved branch the spec reads (`branch`: alpha,
    beta or mu) and whether its normalization constants are symbols or
    their printed values (`consts`).  It reaches its spec through a weak
    proxy, so a spec and its memo form no reference cycle and are freed
    together.  A deformed family's context holds its base module's spec,
    which answers every read off the slot, and the slot's role and vector
    (`BASE_FAMILY`).
    """

    __slots__ = ("spec", "a", "b", "bp", "alpha", "alphap", "fault", "mode", "branch",
                 "consts", "printed_t", "base", "slot", "forced", "rows")

    def __init__(self, spec: FamilySpec):
        self.spec = weakref.proxy(spec)
        self.fault = spec.fault
        self.mode = spec.coeff_mode
        self.a = _param("a", spec.a)
        self.b = _param("b", spec.b)
        self.bp = _param("bp", spec.bprime)
        self.alpha = _param("alpha", spec.alpha)
        self.alphap = _param("alphap", spec.alphap)
        self.branch = self.consts = self.base = self.slot = None
        self.forced = {}
        if spec.family in BASE_FAMILY:
            family, a, b, role, vector = BASE_FAMILY[spec.family]
            self.base = FamilySpec(family, a=a, b=b)
            self.slot = role, vector
        elif spec.family in ("Aab", "GenericA"):
            self.branch = "alpha"
        elif spec.coeff_mode == "mu" or (spec.family == "Bab" and spec.b == 0
                                         and spec.bprime == Fraction(-3, 2)):
            self.branch = "mu"
        else:
            self.branch = "beta"
        if self.branch is not None:
            # symbols are named here and made at their first read
            self.consts = (PRINTED_CONSTANTS[self.branch] if spec.coeff_mode == "printed"
                           else tuple(f"{self.branch}{i}" for i in range(1, 5)))
            # a branch's solved forms fix bp (and, on the mu branch, b);
            # `forced` keeps the values they fix, for a generic candidate's label
            if spec.coeff_mode in ("printed", self.branch):
                if self.branch == "alpha":
                    self.forced["bprime"] = self.b
                elif self.branch == "beta":
                    self.forced["bprime"] = self.b - HALF
                else:
                    self.forced.update(b=Fraction(0), bprime=Fraction(-3, 2))
            self.b = self.forced.get("b", self.b)
            self.bp = self.forced.get("bprime", self.bp)
        # the printed families keep their printed T; the generic candidates
        # compose theirs from the fermionic action
        self.printed_t = spec.family in ("Aab", "Bab")
        self.rows: dict = {}

    def row(self, g: Gen) -> _ActionRow:
        key = (g.kind, None if g.idx is None else g.idx.doubled)
        r = self.rows.get(key)
        if r is None:
            r = self.rows[key] = _ActionRow(self.spec, g)
        return r


def _param(name: str, value: Param) -> Fraction | Poly | None:
    """A parameter as the tables read it: a fresh symbol for "sym", else its
    Fraction, so a concrete spec's coefficients are plain Fractions."""
    if value is None:
        return None
    if value == "sym":
        return Poly.var(name)
    return Fraction(value)


def _sgn2q(gpar: int) -> int:
    """(-1)^(2q) for an index of the given parity class."""
    return -1 if gpar else 1


def act_indexed(spec: FamilySpec, kind: str, g: SymIndex, letter: str, v: SymIndex,
                env: dict | None = None):
    """Action of one generator mode on one basis vector.

    Returns a list of (letter, index, coefficient) triples.  Concrete
    parameters and constant indices are read as Fractions, so a concrete
    spec at constant indices gives Fraction coefficients; a symbolic
    parameter or index gives Poly ones, or RatFunc in the solved generic
    modes.  `env` declares parity classes for any free index symbols.
    """
    if kind == "C":
        return []
    return _TABLES[spec.family](spec.ctx, kind, g, letter, v, env)


# -- the two case tables -----------------------------------------------------

def unknown_name(fam: str, g: SymIndex, v: SymIndex) -> str:
    """Symbol of the unknown coefficient of mode g on vector v (fam f, fp, g, gp)."""
    return f"{fam}[{g};{v}]"


def _unknown(fam: str, g: SymIndex, v: SymIndex) -> Poly:
    return Poly.var(unknown_name(fam, g, v))


def _integer_g_coeff(ctx, letter, g, v, vpar, kP, gP):
    """Integer fermionic coefficient g/g': an unknown symbol, or the solved
    form of the spec's branch times its normalization constant; None where
    that constant is a printed zero (B(a,0,-3/2)), so the mode acts as zero."""
    if ctx.mode == "unknowns":
        return _unknown("g" if letter == "x" else "gp", g, v)
    i = vpar if letter == "x" else 2 + vpar
    const = ctx.consts[i]
    if isinstance(const, str):
        const = Poly.var(const)
    elif not const:
        return None
    a, b = ctx.a, ctx.b
    if ctx.branch == "alpha":
        if letter == "x":
            return ONE * const
        form = a - kP + 2 * b * gP + gP
        if ctx.fault == "aab.gy-coeff":
            form = form - gP
    elif ctx.branch == "beta":
        if i in (1, 2):
            # the x-side half-odd-weight branch carries the bab.gx-sign fault
            return (-ONE if i == 1 and ctx.fault == "bab.gx-sign" else ONE) * const
        form = a - kP + 2 * b * gP if i == 0 else a - kP + 2 * b * gP + gP
    elif i == 0:
        form = (a - kP) * (a - kP - 2 * gP)
    elif i == 1:
        form = RatFunc(ONE, a - kP)
    elif i == 2:
        form = RatFunc(ONE, a - kP - gP)
    else:
        form = (a - kP - gP) * (a - kP + gP)
    return form * const


def _t_coeff(ctx, letter, g, v, env, vpar):
    """T coefficient: an unknown symbol; the printed closed form of A(a,b),
    B(a,b) or B(a,0,-3/2), None where T acts as zero; or, for a generic
    candidate, the composition T_g = [G_g, G_0]/c of its own fermionic
    action (`t_composition`)."""
    if ctx.mode == "unknowns":
        return _unknown("f" if letter == "x" else "fp", g, v)
    if not ctx.printed_t:
        return t_composition(ctx.spec, letter, v, env, g)
    b = ctx.b
    if ctx.branch == "alpha":
        if letter == "y":
            return -(2 * b + 1)
        return 2 * (b + 1) if ctx.fault == "aab.t-sign" else -2 * (b + 1)
    if ctx.branch == "mu":
        return None
    if letter == "x":
        return ONE
    if vpar == 0:
        return None
    co = (2 * b + 1) * g.value
    return -co if ctx.fault == "bab.ty-sign" else co


def _act_case_a(ctx, kind, g, letter, v, env):
    """Case A, on the diagonal b' = b except in the unknowns mode."""
    tgt = v + g
    if kind == "T":
        return [(letter, tgt, _t_coeff(ctx, letter, g, v, env, None))]
    a, b, bp = ctx.a, ctx.b, ctx.bp
    kP = v.value
    gP = g.value
    # off the diagonal, x reads b' and y reads b on half-odd weights
    if bp is not b and v.parity(env):
        b, bp = bp, b
    if kind == "L":
        if letter == "x":
            return [("x", tgt, a - kP + b * gP)]
        return [("y", tgt, a - kP + (bp + HALF) * gP)]
    if g.parity(env) == 1:  # half-odd fermionic modes are part of the ansatz
        if letter == "x":
            return [("y", tgt, ONE)]
        co = a - kP + 2 * gP * (bp + HALF)
        if ctx.fault == "aab.gy-coeff":
            co = co - gP
        return [("x", tgt, -co)]
    co = _integer_g_coeff(ctx, letter, g, v, v.parity(env), kP, gP)
    return [("y" if letter == "x" else "x", tgt, co)]


def _act_case_b(ctx, kind, g, letter, v, env):
    """Case B: b' = b - 1/2 on the beta branch, (b, b') = (0, -3/2) on the
    mu branch, and b' free in the unknowns mode."""
    a, b, bp = ctx.a, ctx.b, ctx.bp
    kP = v.value
    gP = g.value
    vpar = v.parity(env)
    tgt = v + g
    if kind == "L":
        if letter == "x":
            co = a - kP + b * gP if vpar == 0 else a - kP + (bp + HALF) * gP
            return [("x", tgt, co)]
        co = a - kP + bp * gP if vpar == 0 else a - kP + (b + HALF) * gP
        return [("y", tgt, co)]
    if kind == "T":
        co = _t_coeff(ctx, letter, g, v, env, vpar)
        return [] if co is None else [(letter, tgt, co)]
    if g.parity(env) == 1:
        if vpar == 0:
            co = -ONE if letter == "x" and ctx.fault == "bab.gx-sign" else ONE
        else:
            co = -(a - kP + 2 * gP * ((bp if letter == "x" else b) + HALF))
    else:
        co = _integer_g_coeff(ctx, letter, g, v, vpar, kP, gP)
        if co is None:
            return []
    return [("y" if letter == "x" else "x", tgt, co)]


# -- deformed families: the base module plus one slot ------------------------

def _act_deformed(ctx, kind, g, letter, v, env):
    if not _at_slot(ctx, kind, g, letter, v):
        return _TABLES[ctx.base.family](ctx.base.ctx, kind, g, letter, v, env)
    return [(*_landing(letter, v, ((kind, g),)), _slot_coeff(ctx, kind, g, env))]


def _at_slot(ctx, kind, g, letter, v) -> bool:
    """Does this action read the deformation slot?  Every action out of a
    source does, and every action into a sink."""
    role, vector = ctx.slot
    if role == "source":
        return (letter, v) == vector
    return _landing(letter, v, ((kind, g),)) == vector


def slot_vector(family: str, kind: str, q: SymIndex):
    """The basis vector (letter, index) on which mode (kind, q) reads the
    family's slot: the source itself, or the line that (kind, q) takes to
    the sink."""
    *_, role, (letter, idx) = BASE_FAMILY[family]
    if role == "source":
        return letter, idx
    if kind == "G":
        letter = "y" if letter == "x" else "x"
    return letter, idx - q


def _slot_coeff(ctx, kind, g, env):
    """The slot's coefficient for mode (kind, q), with the family's injected
    fault: -+q(a'q + a) for L (- at a source, + at a sink), -+2a'q for T on
    A1/A2 and -+2a' on B1/B2, 2qa' + a for G, times (-1)^(2q+1) on B2."""
    fam = ctx.spec.family
    # a fault names its family; another family's fault changes nothing here
    fault = ctx.fault if (ctx.fault or "").startswith(fam.lower() + ".") else None
    al, alp, q = ctx.alpha, ctx.alphap, g.value
    sign = -1 if ctx.slot[0] == "source" else 1
    if kind == "L":
        co = sign * q * (alp * q + al)
        return -co if fault in ("a2.ldef-sign", "b2.ldef-sign") else co
    if kind == "T":
        # three faults drop the factor q from A's slots or add it to B's
        with_q = (fam[0] == "A") != (fault in ("a1.t0-coeff", "a2.ty-coeff", "b1.t0-coeff"))
        return sign * 2 * alp * (q if with_q else 1)
    if fault == "a1.g0-coeff":
        return 2 * q * alp - al
    if fault == "b1.gy0-coeff":
        return q * alp + al
    co = 2 * q * alp + al
    if fam == "B2":
        co = -_sgn2q(g.parity(env)) * co  # (-1)^(2q+1)
        if fault == "b2.gdef-sign":
            co = -co
    return co


# one table per case; a printed family reads its case's table at the
# printed constants, a deformed family its base module's off the slot
_TABLES = {
    "Aab": _act_case_a,
    "GenericA": _act_case_a,
    "Bab": _act_case_b,
    "GenericB": _act_case_b,
    "A1": _act_deformed,
    "A2": _act_deformed,
    "B1": _act_deformed,
    "B2": _act_deformed,
}


# ---------------------------------------------------------------------------
# operator words and the fermionic composition
# ---------------------------------------------------------------------------

R = SymIndex.var("r")


def _apply_word(spec, ops, letter, vidx, env):
    """Apply ops[0] o ops[1] o ... (rightmost first) to one basis vector."""
    state = {(letter, vidx): ONE}
    for kind, gidx in reversed(ops):
        nxt = {}
        for (lt, ix), coeff in state.items():
            for lt2, ix2, co2 in act_indexed(spec, kind, gidx, lt, ix, env):
                if co2:
                    add_term(nxt, (lt2, ix2), coeff * co2)
        state = nxt
    return state


def _combine(spec, pieces, letter, vidx, env):
    """Scaled sum of operator words applied to (letter, vidx)."""
    out = {}
    for scalar, ops in pieces:
        if isinstance(scalar, (int, Fraction)):
            scalar = Poly.const(scalar)
        for key, coeff in _apply_word(spec, ops, letter, vidx, env).items():
            add_term(out, key, scalar * coeff)
    return out


def _only_coeff(lc, expect_key):
    if not lc:
        return ZERO
    if len(lc) != 1:
        raise AssertionError(f"expected a single basis line, got {len(lc)}")
    (key, coeff), = lc.items()
    if key != expect_key:
        raise AssertionError(f"landed on {key}, expected {expect_key}")
    return coeff


def _landing(letter, vidx, modes):
    """The line a word of these modes takes (letter, vidx) to: the letter
    flips on an odd number of G's, and the indices add up."""
    for kind, idx in modes:
        if kind == "G":
            letter = "y" if letter == "x" else "x"
        vidx = vidx + idx
    return letter, vidx


def _commutator(x, y):
    """Super-commutator of two homogeneous operators, each a (pieces, odd)
    pair whose pieces are (scalar, word) with the word's modes left to
    right: [X, Y] = XY - (-1)^(|X||Y|) YX."""
    (px, odd_x), (py, odd_y) = x, y
    sign = 1 if odd_x and odd_y else -1
    pieces = [(s * t, wx + wy) for s, wx in px for t, wy in py]
    pieces += [(sign * t * s, wy + wx) for t, wy in py for s, wx in px]
    return pieces, odd_x != odd_y


def _mode(g):
    return [(1, [g])], g[0] == "G"


def bracket_residual(spec, g1, g2, letter, vidx, env):
    """[g1, g2] - bracket(g1, g2) applied to one basis vector.

    Modes are (kind, SymIndex) pairs; the structure constants come from
    `bracket_terms`.  Returns the coefficient on the one line the identity
    lands on.
    """
    pieces, _ = _commutator(_mode(g1), _mode(g2))
    pieces += [(-c, [(kind, idx)]) for kind, idx, c in bracket_terms(*g1, *g2, env)]
    lc = _combine(spec, pieces, letter, vidx, env)
    return _only_coeff(lc, _landing(letter, vidx, (g1, g2)))


def t_composition(spec: FamilySpec, letter: str, vidx: SymIndex, env,
                  r: SymIndex = R) -> RatFunc:
    """T_r = [G_r, G_0]/c on one basis vector, with c the structure constant
    of [G_r, G_0] = c T_r; r is the half-odd mode symbol unless given."""
    g_r, g_0 = ("G", r), ("G", IDX_ZERO)
    (_, _, scale), = bracket_terms(*g_r, *g_0, env)
    pieces, _ = _commutator(_mode(g_r), _mode(g_0))
    coeff = _only_coeff(_combine(spec, pieces, letter, vidx, env), (letter, vidx + r))
    coeff = coeff if isinstance(coeff, RatFunc) else RatFunc(coeff)
    return RatFunc(coeff.num, coeff.den * scale)


# ---------------------------------------------------------------------------
# concrete action
# ---------------------------------------------------------------------------

def act(spec: FamilySpec, g: Gen, v: BasisLabel) -> LinComb:
    """Concrete action; returns a label -> coefficient map without zeros.

    A view of the spec's memo row for g (`FamilySpec.ctx`): a row key's
    doubled index d is the label index `SymIndex(d)`.  A concrete spec's
    coefficients are Fractions; a symbolic parameter gives Poly (or
    RatFunc) ones, a constant Poly again lowered to its Fraction.
    """
    if g.kind == "C":
        return {}
    return {BasisLabel(letter, SymIndex(doubled)): c
            for (letter, doubled), c in spec.ctx.row(g)[(v.letter, v.idx.doubled)]}


def _scalar(c):
    """A constant Poly as its Fraction; any other coefficient unchanged."""
    return c.const_value() if isinstance(c, Poly) and c.is_const() else c


def bracket_action_check(spec: FamilySpec, g1: Gen, g2: Gen, v: BasisLabel,
                         drop=None) -> LinComb:
    """Residual of the module axiom at (g1, g2, v); zero certifies it.

    act([g1,g2], v) - (act(g1, act(g2, v)) - (-1)^(|g1||g2|) act(g2, act(g1, v))),
    with every target that `drop` selects left out.  This is the readable
    reference for the residuals `_sweep_kernel` computes.
    """
    if drop is not None and drop(v):
        return {}

    def kept(lc: LinComb):
        return [(label, c) for label, c in lc.items() if drop is None or not drop(label)]

    out: LinComb = {}
    for h, scale in bracket(g1, g2).items():
        for label, coeff in kept(act(spec, h, v)):
            add_term(out, label, coeff * scale)
    sign = -1 if parity(g1) and parity(g2) else 1
    for outer, inner, s in ((g1, g2, -1), (g2, g1, sign)):
        composed: LinComb = {}
        for label, coeff in kept(act(spec, inner, v)):
            for label2, coeff2 in kept(act(spec, outer, label)):
                add_term(composed, label2, coeff * coeff2)
        for label, coeff in composed.items():
            add_term(out, label, s * coeff)
    return out


# ---------------------------------------------------------------------------
# windows and sweeps
# ---------------------------------------------------------------------------

def labels_in_window(window: int) -> list[BasisLabel]:
    bound = 2 * window
    return [BasisLabel(letter, SymIndex(d))
            for letter in ("x", "y") for d in range(-bound, bound + 1)]


@dataclass
class Witness:
    g1: str
    g2: str
    v: str
    residual: str

    def as_dict(self) -> dict:
        return {"g1": self.g1, "g2": self.g2, "v": self.v, "residual": self.residual}


@dataclass
class SweepReport:
    spec: str
    gen_window: int
    basis_window: int
    checks: int
    violations: list[Witness] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        # a sweep that ran no check certifies nothing
        return self.checks > 0 and not self.violations


class _ActionRow(dict):
    """The action of one generator on one spec: label key (letter, doubled
    index) -> ((label key, coeff), ...), each entry built by `act_indexed`
    the first time it is read and kept as long as the spec.  A key's
    doubled index d is the index `SymIndex(d)` the table reads, and a
    target's is the `doubled` of the index the table returns.

    It is the only action memo.  The spec's context owns one row per
    generator (`_Ctx.row`), and `act`, the axiom sweep and the submodule
    and partition checks all read it, so each entry of a spec is built once
    however many of them run.

    Coefficients are Fractions for a concrete spec (a constant Poly is
    lowered too) and Poly where a parameter is symbolic; RatFunc in the
    generic candidates' solved modes.
    """

    __slots__ = ("spec", "kind", "gidx")

    def __init__(self, spec: FamilySpec, g: Gen):
        super().__init__()
        self.spec, self.kind, self.gidx = spec, g.kind, g.idx

    def __missing__(self, key):
        lc: dict = {}
        if self.kind != "C":
            letter, doubled = key
            for letter2, idx, coeff in act_indexed(self.spec, self.kind, self.gidx, letter,
                                                   SymIndex(doubled)):
                if coeff:
                    add_term(lc, (letter2, idx.doubled), coeff)
        terms = tuple((lk, _scalar(c)) for lk, c in lc.items())
        self[key] = terms
        return terms


# A generic candidate in "unknowns" mode has one symbol per mode and vector,
# which would put each image over 3**(symbols) digits; such rows keep their
# objects.  The parameter sweeps' images are a few hundred bits wide.
_MAX_POINT_BITS = 1 << 12


def _lowering(rows: dict, brackets):
    """How `_sweep_kernel` takes its coefficients to ints: (d, lower,
    decode), or None when a row holds a RatFunc.

    d is the lcm of the denominators of every row coefficient and bracket
    scale (`brackets` holds one list of scales per pair), and `lower(c, d)`
    is c * d as an int.  Where a row coefficient is a Poly, c * d is
    evaluated at one `KroneckerPoint`, chosen so that every coefficient
    the loop forms, in units of d**2, can be read back; None again when
    that point's images would be wider than _MAX_POINT_BITS.
    `decode(c, unit)` is the residual coefficient that c stands for.
    """
    dens = []
    polys = []
    for r in rows.values():
        for terms in r.values():
            for _, c in terms:
                if isinstance(c, (int, Fraction)):
                    dens.append(c.denominator)
                elif isinstance(c, Poly):
                    polys.append(c)
                    dens.extend(t.denominator for t in c.terms.values())
                else:
                    return None
    for scales in brackets:
        for c in scales:
            dens.append(c.denominator)
    d = lcm(*dens)
    if not polys:
        return d, _over, Fraction
    # a residual coefficient sums a pair's bracket terms (row times scale)
    # and the two compositions (width products of two rows each)
    norm = max(sum(abs(_over(t, d)) for t in c.terms.values()) if isinstance(c, Poly)
               else abs(_over(c, d))
               for r in rows.values() for terms in r.values() for _, c in terms)
    width = max(len(terms) for r in rows.values() for terms in r.values())
    smax = max(sum(abs(_over(c, d)) for c in scales) for scales in brackets)
    point = KroneckerPoint(polys, smax * width * norm + 2 * width * width * norm * norm)
    if point.bits > _MAX_POINT_BITS:
        return None

    def lower(c, d: int) -> int:
        return point.image(c, d) if isinstance(c, Poly) else _over(c, d)

    return d, lower, point.decode


def _sweep_kernel(spec: FamilySpec, gens, labels, drop):
    """The residual of `bracket_action_check` at every unordered pair and
    label, summed in the same order, over the spec's memo rows
    (`_ActionRow`); the bracket and sign are taken once per pair.

    First the entries the loop reads are copied out of the rows, built
    there if no earlier reader of the spec did, with the targets that
    `drop` selects left out, so a quotient sweep reads the induced action.
    Then every copied coefficient and bracket scale is lowered to an int
    over their common denominator d (`_lowering`), and the loop runs in int
    arithmetic: each residual term is a row coefficient times a scale or a
    product of two row coefficients, so the loop computes every residual
    times unit = d**2.  A Poly coefficient is also evaluated at one
    `KroneckerPoint`.  Scaling by a nonzero constant and that evaluation
    are injective on every sum the loop forms, so the zero pattern of every
    partial sum, and with it each witness, is the object loop's; only a
    nonzero residual is decoded, as it is written.  Rows holding a RatFunc
    (the generic candidates' solved modes) keep their objects and unit 1,
    as do rows in the hundreds of unknowns of a generic candidate.
    """
    ctx = spec.ctx
    memo: dict = {}

    def row(g: Gen):
        key = (g.kind, None if g.idx is None else g.idx.doubled)
        memo[key] = ctx.row(g)
        return key

    pairs = []
    for i, g1 in enumerate(gens):
        for g2 in gens[i:]:
            sign = -1 if parity(g1) and parity(g2) else 1
            # C acts as zero, so its bracket terms add nothing
            lhs = [(row(h), scale) for h, scale in bracket(g1, g2).items() if h.kind != "C"]
            # names are formed once, and shared by every witness that uses them
            pairs.append((str(g1), row(g1), str(g2), row(g2), sign, lhs))
    keyed = [((v.letter, v.idx.doubled), str(v)) for v in labels]

    def kept(terms):
        if drop is None:
            return terms
        return tuple((lk, c) for lk, c in terms
                     if not drop(BasisLabel(lk[0], SymIndex(lk[1]))))

    # plain dicts of exactly the entries the loop reads: every row on the
    # window labels, the generators' rows also on each label that one
    # action takes a window label to.  A read this misses raises.
    rows = {key: {vk: kept(r[vk]) for vk, _ in keyed} for key, r in memo.items()}
    gen_keys = [row(g) for g in gens]
    reached = {lk for key in gen_keys for vk, _ in keyed for lk, _ in rows[key][vk]}
    for key in gen_keys:
        for lk in reached:
            rows[key][lk] = kept(memo[key][lk])

    lowering = _lowering(rows, [[scale for _, scale in lhs] for *_, lhs in pairs])
    unit, decode = 1, None
    if lowering is not None:
        d, lower, decode = lowering
        unit = d * d
        # in place: the copies are lowered without a second set of dicts
        for r in rows.values():
            for vk, terms in r.items():
                r[vk] = tuple((lk, lower(c, d)) for lk, c in terms)
        pairs = [(n1, k1, n2, k2, sign, [(kh, lower(scale, d)) for kh, scale in lhs])
                 for n1, k1, n2, k2, sign, lhs in pairs]

    checks = 0
    violations = []
    for n1, k1, n2, k2, sign, lhs in pairs:
        r1, r2 = rows[k1], rows[k2]
        lhs_rows = [(rows[kh], scale) for kh, scale in lhs]
        checks += len(keyed)
        for vk, name in keyed:
            out: dict = {}
            for rh, scale in lhs_rows:
                for lk, c in rh[vk]:
                    add_term(out, lk, c * scale)
            t1: dict = {}
            for lk, c in r2[vk]:
                for lk2, c2 in r1[lk]:
                    add_term(t1, lk2, c * c2)
            t2: dict = {}
            for lk, c in r1[vk]:
                for lk2, c2 in r2[lk]:
                    add_term(t2, lk2, c * c2)
            for lk, c in t1.items():
                add_term(out, lk, -c)
            for lk, c in t2.items():
                add_term(out, lk, sign * c)
            if out:
                res = {BasisLabel(lk[0], SymIndex(lk[1])): c if decode is None else decode(c, unit)
                       for lk, c in out.items()}
                violations.append(Witness(n1, n2, name, lincomb_str(res)))
    return checks, violations


def axiom_sweep(spec: FamilySpec, gen_window: int = 2, basis_window: int = 4,
                quotient_of=None) -> SweepReport:
    """Check the module axiom on every generator pair and window label.

    Unordered pairs suffice: the reversed-pair residual is the forward one
    up to the super-antisymmetry sign.  With `quotient_of` set to a closed
    candidate, the induced quotient action is checked instead.  The sweep
    reads the spec's action memo, so entries an earlier reader of the same
    spec built (`act`, a first sweep) are not built again,
    and runs in int arithmetic over one common denominator, at symbolic
    parameters too (`_sweep_kernel`); `bracket_action_check` is the
    readable reference for the residual it computes.
    """
    from .algebra import generators_in_window

    gens = sorted(generators_in_window(gen_window), key=Gen.sort_key)
    labels = labels_in_window(basis_window)
    drop = None
    if quotient_of is not None:
        drop = quotient_of.contains
        labels = [v for v in labels if not quotient_of.contains(v)]
    checks, violations = _sweep_kernel(spec, gens, labels, drop)
    violations.sort(key=lambda w: (w.v, w.g1, w.g2))
    return SweepReport(spec.label(), gen_window, basis_window, checks, violations)


# ---------------------------------------------------------------------------
# submodule candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmoduleCandidate:
    """A label-spanned subspace: either a finite span or a finite co-span.

    Weight spaces are one-dimensional within each parity, so every
    submodule of these families is spanned by basis labels; candidates with
    finitely many labels on one side cover everything the analysis needs.
    """

    kind: str  # "span" | "complement"
    labels: frozenset

    def __post_init__(self):
        if self.kind not in ("span", "complement"):
            raise ValueError(f"bad candidate kind {self.kind!r}")

    def contains(self, label: BasisLabel) -> bool:
        inside = label in self.labels
        return inside if self.kind == "span" else not inside

    def describe(self) -> str:
        names = ",".join(str(l) for l in sorted(self.labels, key=BasisLabel.sort_key))
        return f"{self.kind}:{names}"


def span_of(*labels) -> SubmoduleCandidate:
    return SubmoduleCandidate("span", frozenset(_as_label(l) for l in labels))


def complement_of(*labels) -> SubmoduleCandidate:
    return SubmoduleCandidate("complement", frozenset(_as_label(l) for l in labels))


def _as_label(l) -> BasisLabel:
    if isinstance(l, BasisLabel):
        return l
    letter, idx = l[0], l[1:]
    return BasisLabel(letter, idx)


@dataclass
class SubmoduleReport:
    spec: str
    candidate: str
    closed: bool
    escape: dict | None
    checks: int


def submodule_check(spec: FamilySpec, cand: SubmoduleCandidate,
                    gen_window: int = 2, basis_window: int = 4) -> SubmoduleReport:
    """Is the candidate subspace closed under the window action?"""
    from .algebra import generators_in_window

    checks = 0
    for v in labels_in_window(basis_window):
        if not cand.contains(v):
            continue
        for g in generators_in_window(gen_window):
            checks += 1
            for label, coeff in act(spec, g, v).items():
                if coeff and not cand.contains(label):
                    escape = {"g": str(g), "v": str(v), "target": str(label),
                              "coefficient": str(coeff)}
                    return SubmoduleReport(spec.label(), cand.describe(), False, escape, checks)
    # a candidate with no label in the window was never checked, so it is not closed
    return SubmoduleReport(spec.label(), cand.describe(), checks > 0, None, checks)


def reachable_labels(spec: FamilySpec, start: BasisLabel,
                     gen_window: int = 2, basis_window: int = 4) -> set:
    """Labels reachable from `start` by repeated window action.

    Exploration is confined to the basis window, so the result is the
    window shadow of the submodule generated by the start vector.
    """
    from .algebra import generators_in_window

    bound = 2 * basis_window
    gens = generators_in_window(gen_window)
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for g in gens:
            for label, coeff in act(spec, g, v).items():
                if coeff and abs(label.idx.doubled) <= bound and label not in seen:
                    seen.add(label)
                    frontier.append(label)
    return seen


def proper_submodule_scan(spec: FamilySpec, gen_window: int = 2,
                          basis_window: int = 4) -> dict:
    """Window survey of cyclic submodules: labels whose orbit is proper.

    Returns {label: sorted missing labels} for every window label whose
    reachable set does not cover the window.
    """
    core = labels_in_window(basis_window)
    full = set(core)
    gaps = {}
    for v in core:
        reach = reachable_labels(spec, v, gen_window, basis_window)
        missing = full - reach
        if missing:
            gaps[str(v)] = sorted(str(l) for l in missing)
    return gaps


# ---------------------------------------------------------------------------
# the two NS-restriction partitions
# ---------------------------------------------------------------------------

def _partition_side(label: BasisLabel) -> int:
    """0 for the x-integer/y-half-odd block, 1 for its complement."""
    if label.letter == "x":
        return 0 if label.idx.is_integer() else 1
    return 1 if label.idx.is_integer() else 0


@dataclass
class PartitionReport:
    spec: str
    checks: int
    violations: list

    @property
    def ok(self) -> bool:
        # a partition check that ran no check certifies nothing
        return self.checks > 0 and not self.violations


def ns_partition_check(spec: FamilySpec, gen_window: int = 2,
                       basis_window: int = 4) -> PartitionReport:
    """Generators of the Neveu-Schwarz subalgebra (L_n and half-odd G_r)
    must preserve both partition blocks; T_r and integer G_n must swap them.
    """
    from .algebra import generators_in_window

    checks = 0
    violations = []
    for g in generators_in_window(gen_window):
        if g.kind == "C":
            continue
        preserves = g.kind == "L" or (g.kind == "G" and g.idx.is_half_odd())
        for v in labels_in_window(basis_window):
            checks += 1
            want = _partition_side(v) if preserves else 1 - _partition_side(v)
            for label, coeff in act(spec, g, v).items():
                if coeff and _partition_side(label) != want:
                    violations.append({"g": str(g), "v": str(v), "target": str(label)})
    return PartitionReport(spec.label(), checks, violations)


# ---------------------------------------------------------------------------
# fault injection catalog
# ---------------------------------------------------------------------------

FAULT_CATALOG: dict[str, str] = {
    "aab.t-sign": "A(a,b): sign of the T action on x flipped",
    "aab.gy-coeff": "A(a,b): the +q term dropped from the G action on y",
    "bab.ty-sign": "B(a,b): sign of the T action on half-odd y flipped",
    "bab.gx-sign": "B(a,b): sign of the G action on the half-odd x branch flipped",
    "a1.t0-coeff": "A1: T coefficient at the distinguished vector loses its r factor",
    "a1.g0-coeff": "A1: G coefficient at the distinguished vector gets -alpha",
    "a2.ldef-sign": "A2: deformed L coefficient sign flipped",
    "a2.ty-coeff": "A2: deformed T coefficient loses its r factor",
    "b1.t0-coeff": "B1: deformed T coefficient gains a spurious r factor",
    "b1.gy0-coeff": "B1: deformed G coefficient 2q+alpha mangled to q+alpha",
    "b2.ldef-sign": "B2: deformed L coefficient sign flipped",
    "b2.gdef-sign": "B2: deformed G coefficient sign flipped",
}

_FAULT_FAMILY = {
    "aab": ("Aab", dict(a="sym", b="sym")),
    "bab": ("Bab", dict(a="sym", b="sym")),
    "a1": ("A1", dict(alpha=Fraction(2, 7))),
    "a2": ("A2", dict(alpha=Fraction(2, 7))),
    "b1": ("B1", dict(alpha=Fraction(2, 7))),
    "b2": ("B2", dict(alpha=Fraction(2, 7))),
}


def spec_with_fault(fault: str) -> FamilySpec:
    if fault not in FAULT_CATALOG:
        raise ValueError(f"unknown fault {fault!r} (see FAULT_CATALOG)")
    family, kwargs = _FAULT_FAMILY[fault.split(".", 1)[0]]
    return FamilySpec(family, fault=fault, **kwargs)
