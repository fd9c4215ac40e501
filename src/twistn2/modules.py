"""Module families over the twisted N=2 algebra, and their verifiers.

Six concrete families are implemented: the two-parameter indecomposables
A(a,b) and B(a,b) and the four one-parameter deformed families A1..B2, plus
two generic symbolic candidates (GenericA, GenericB) whose T and integer-G
coefficients are either fresh unknowns or the solved coefficient forms.

A deformed family is its base module (BASE_FAMILY: A(0,-1), A(0,-1/2),
B(0,-1/2), B(1/2,-1/2)) plus one slot rule that rewrites the actions out of
or into one distinguished vector (x_0, y_0, y_0, y_1/2); its injected faults
live in that slot rule.

One action engine serves every consumer: indices are SymIndex linear forms,
so the same family tables answer concrete sweeps (constant indices) and the
symbolic constraint derivations (free mode symbols).  Case splits on
distinguished indices (deformation points) are structural-equality tests,
which on symbolic indices is exactly the generic-index reading used when
the coefficient recurrences are solved.

The central element acts as zero on every family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .algebra import Gen, GenSum, bracket, parity
from .halfint import HalfInt
from .indices import IDX_ZERO, SymIndex
from .poly import ONE, Poly, RatFunc, ZERO

Param = Union[Fraction, str, None]  # "sym" selects symbolic mode

FAMILIES = ("Aab", "Bab", "A1", "A2", "B1", "B2", "GenericA", "GenericB")
COEFF_MODES = ("printed", "unknowns", "alpha", "beta", "mu")


@dataclass(frozen=True)
class BasisLabel:
    letter: str  # "x" or "y"
    idx: HalfInt

    def __post_init__(self):
        if self.letter not in ("x", "y"):
            raise ValueError(f"bad basis letter {self.letter!r}")
        if not isinstance(self.idx, HalfInt):
            object.__setattr__(self, "idx", HalfInt.of(self.idx))

    def __str__(self) -> str:
        return f"{self.letter}_{self.idx}"

    def sort_key(self):
        return (self.letter, self.idx.doubled)


# LinComb: BasisLabel -> Poly (or RatFunc in the rational coefficient modes)
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

    def label(self) -> str:
        bits = [self.family]
        for nm in ("a", "b", "bprime", "alpha"):
            v = getattr(self, nm)
            if v is not None:
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
    """The B(a, 0, -3/2) candidate with all solved coefficients zero."""
    return FamilySpec("Bab", a=a, b=Fraction(0), bprime=Fraction(-3, 2))


def deformed(family: str, alpha: Param, alphap: Param = Fraction(1),
             fault: str | None = None) -> FamilySpec:
    return FamilySpec(family, alpha=alpha, alphap=alphap, fault=fault)


# ---------------------------------------------------------------------------
# action engine
# ---------------------------------------------------------------------------

# each deformed family modifies one two-parameter module at one distinguished
# vector, and the base module's proper submodule survives the deformation:
#   A1 at x_0, B1 at y_0: a source.  The deformation changes its outgoing
#     actions and nothing maps onto it; the complement is the submodule.
#   A2 at y_0, B2 at y_1/2: a sink.  The deformation changes the actions into
#     it and it maps to nothing; its span is the submodule.
BASE_FAMILY = {
    "A1": ("Aab", Fraction(0), Fraction(-1)),
    "A2": ("Aab", Fraction(0), Fraction(-1, 2)),
    "B1": ("Bab", Fraction(0), Fraction(-1, 2)),
    "B2": ("Bab", Fraction(1, 2), Fraction(-1, 2)),
}


class _Ctx:
    __slots__ = ("spec", "a", "b", "bp", "alpha", "alphap", "fault", "mode", "base")

    def __init__(self, spec: FamilySpec):
        self.spec = spec
        self.fault = spec.fault
        self.mode = spec.coeff_mode
        self.a = _param_poly("a", spec.a)
        self.b = _param_poly("b", spec.b)
        self.bp = _param_poly("bp", spec.bprime)
        self.alpha = _param_poly("alpha", spec.alpha)
        self.alphap = _param_poly("alphap", spec.alphap)
        if spec.family == "GenericA" and spec.coeff_mode in ("alpha", "printed"):
            # the solved coefficient forms hold on the diagonal bp = b
            self.bp = self.b
        if spec.family == "GenericB" and spec.coeff_mode in ("beta", "printed"):
            self.bp = self.b - Fraction(1, 2)
        if spec.family == "GenericB" and spec.coeff_mode == "mu":
            self.b = ZERO
            self.bp = Poly.const(Fraction(-3, 2))
        self.base = None
        if spec.family in BASE_FAMILY:
            family, a, b = BASE_FAMILY[spec.family]
            self.base = _ctx(FamilySpec(family, a=a, b=b))


def _param_poly(name: str, value: Param) -> Poly | None:
    if value is None:
        return None
    if value == "sym":
        return Poly.var(name)
    return Poly.const(Fraction(value))


_CTX_CACHE: dict[FamilySpec, _Ctx] = {}


def _ctx(spec: FamilySpec) -> _Ctx:
    ctx = _CTX_CACHE.get(spec)
    if ctx is None:
        ctx = _Ctx(spec)
        _CTX_CACHE[spec] = ctx
    return ctx


def _sgn2q(gpar: int) -> int:
    """(-1)^(2q) for an index of the given parity class."""
    return -1 if gpar else 1


HALF = Fraction(1, 2)


def act_indexed(spec: FamilySpec, kind: str, g: SymIndex, letter: str, v: SymIndex,
                env: dict | None = None):
    """Action of one generator mode on one basis vector.

    Returns a list of (letter, index, coefficient) triples; the coefficient
    ring is Poly, or RatFunc in the solved generic modes.  `env` declares
    parity classes for any free index symbols.
    """
    if kind == "C":
        return []
    env = env or {}
    ctx = _ctx(spec)
    return _TABLES[spec.family](ctx, kind, g, letter, v, env)


def _act_aab(ctx, kind, g, letter, v, env):
    a, b = ctx.a, ctx.b
    kP = v.as_poly()
    gP = g.as_poly()
    tgt = v + g
    if kind == "L":
        if letter == "x":
            return [("x", tgt, a - kP + b * gP)]
        return [("y", tgt, a - kP + (b + HALF) * gP)]
    if kind == "T":
        if letter == "x":
            co = -2 * (b + 1)
            if ctx.fault == "aab.t-sign":
                co = 2 * (b + 1)
            return [("x", tgt, co)]
        return [("y", tgt, -(2 * b + 1))]
    # G
    if letter == "x":
        return [("y", tgt, ONE)]
    s = _sgn2q(g.parity(env))
    co = a - kP + 2 * b * gP + gP
    if ctx.fault == "aab.gy-coeff":
        co = a - kP + 2 * b * gP
    return [("x", tgt, s * co)]


def _act_bab(ctx, kind, g, letter, v, env):
    if ctx.spec.bprime == Fraction(-3, 2) and ctx.spec.b == Fraction(0):
        return _act_b_zero(ctx, kind, g, letter, v, env)
    a, b = ctx.a, ctx.b
    kP = v.as_poly()
    gP = g.as_poly()
    vpar = v.parity(env)
    tgt = v + g
    if kind == "L":
        if letter == "x":
            return [("x", tgt, a - kP + b * gP)]
        shift = -HALF if vpar == 0 else HALF
        return [("y", tgt, a - kP + (b + shift) * gP)]
    if kind == "T":
        if letter == "x":
            return [("x", tgt, ONE)]
        if vpar == 0:
            return []
        co = (2 * b + 1) * gP
        if ctx.fault == "bab.ty-sign":
            co = -co
        return [("y", tgt, co)]
    # G
    s = _sgn2q(g.parity(env))
    if letter == "x":
        if (v + g).parity(env) == 0:
            return [("y", tgt, s * (a - kP + 2 * b * gP))]
        co = Poly.const(-s)
        if ctx.fault == "bab.gx-sign":
            co = Poly.const(s)
        return [("y", tgt, co)]
    if vpar == 0:
        return [("x", tgt, ONE)]
    return [("x", tgt, -(a - kP + 2 * b * gP + gP))]


def _act_b_zero(ctx, kind, g, letter, v, env):
    # B(a, 0, -3/2) candidate after its solved coefficients vanish: only the
    # Virasoro part and the half-odd fermionic part act.
    a = ctx.a
    kP = v.as_poly()
    gP = g.as_poly()
    vpar = v.parity(env)
    tgt = v + g
    if kind == "L":
        if letter == "x":
            co = a - kP if vpar == 0 else a - kP - gP
        else:
            co = a - kP - Fraction(3, 2) * gP if vpar == 0 else a - kP + HALF * gP
        return [(letter, tgt, co)]
    if kind == "T":
        return []
    if g.parity(env) == 0:  # integer fermionic modes act as zero
        return []
    if letter == "x":
        co = ONE if vpar == 0 else -(a - kP - 2 * gP)
        return [("y", tgt, co)]
    co = ONE if vpar == 0 else -(a - kP + gP)
    return [("x", tgt, co)]


# -- deformed families: the base module plus one slot ------------------------
# A slot rule returns the deformed terms when the call hits its family's
# distinguished vector, and None otherwise.

def _act_deformed(ctx, kind, g, letter, v, env):
    terms = _SLOT_RULES[ctx.spec.family](ctx, kind, g, letter, v, env)
    if terms is None:
        terms = _TABLES[ctx.base.spec.family](ctx.base, kind, g, letter, v, env)
    return terms


def _slot_a1(ctx, kind, g, letter, v, env):
    # outgoing actions of the source x_0
    if letter != "x" or v != IDX_ZERO:
        return None
    al, alp, gP = ctx.alpha, ctx.alphap, g.as_poly()
    if kind == "L":
        return [("x", v + g, -(gP * (alp * gP + al)))]
    if kind == "T":
        co = -2 * alp if ctx.fault == "a1.t0-coeff" else -2 * alp * gP
        return [("x", v + g, co)]
    co = 2 * gP * alp - al if ctx.fault == "a1.g0-coeff" else 2 * gP * alp + al
    return [("y", v + g, co)]


def _slot_b1(ctx, kind, g, letter, v, env):
    # outgoing actions of the source y_0
    if letter != "y" or v != IDX_ZERO:
        return None
    al, alp, gP = ctx.alpha, ctx.alphap, g.as_poly()
    if kind == "L":
        return [("y", v + g, -(gP * (alp * gP + al)))]
    if kind == "T":
        co = -2 * alp * gP if ctx.fault == "b1.t0-coeff" else -2 * alp
        return [("y", v + g, co)]
    co = gP * alp + al if ctx.fault == "b1.gy0-coeff" else 2 * gP * alp + al
    return [("x", v + g, co)]


_INTO_SINK = (("L", "y"), ("T", "y"), ("G", "x"))


def _slot_a2(ctx, kind, g, letter, v, env):
    # actions into the sink y_0
    if (kind, letter) not in _INTO_SINK or v != -g:
        return None
    al, alp, gP = ctx.alpha, ctx.alphap, g.as_poly()
    if kind == "L":
        co = gP * (alp * gP + al)
        if ctx.fault == "a2.ldef-sign":
            co = -co
    elif kind == "T":
        co = 2 * alp if ctx.fault == "a2.ty-coeff" else 2 * alp * gP
    else:
        co = 2 * gP * alp + al
    return [("y", v + g, co)]


def _slot_b2(ctx, kind, g, letter, v, env):
    # actions into the sink y_1/2
    if (kind, letter) not in _INTO_SINK or v != SymIndex(HALF) - g:
        return None
    al, alp, gP = ctx.alpha, ctx.alphap, g.as_poly()
    if kind == "L":
        co = gP * (alp * gP + al)
        if ctx.fault == "b2.ldef-sign":
            co = -co
    elif kind == "T":
        co = 2 * alp
    else:
        co = -_sgn2q(g.parity(env)) * (2 * gP * alp + al)  # (-1)^(2q+1)
        if ctx.fault == "b2.gdef-sign":
            co = -co
    return [("y", v + g, co)]


_SLOT_RULES = {"A1": _slot_a1, "A2": _slot_a2, "B1": _slot_b1, "B2": _slot_b2}


# -- generic candidates ------------------------------------------------------

def _unknown(fam: str, g: SymIndex, v: SymIndex) -> Poly:
    return Poly.var(f"{fam}[{g};{v}]")


def _generic_g_coeff(ctx, case: str, letter: str, g, v, env):
    """Integer fermionic coefficient g/g' for a generic candidate."""
    a, b = ctx.a, ctx.b
    kP = v.as_poly()
    gP = g.as_poly()
    vpar = v.parity(env)
    mode = ctx.mode
    if mode == "unknowns":
        return _unknown("g" if letter == "x" else "gp", g, v)
    if case == "A":
        if letter == "x":
            name = "alpha1" if vpar == 0 else "alpha2"
            return ONE if mode == "printed" else Poly.var(name)
        scale = ONE if mode == "printed" else Poly.var("alpha3" if vpar == 0 else "alpha4")
        return (a - kP + 2 * b * gP + gP) * scale
    if mode == "mu":
        if letter == "x":
            if vpar == 0:
                return (a - kP) * (a - kP - 2 * gP) * Poly.var("mu1")
            return RatFunc(Poly.var("mu2"), a - kP)
        if vpar == 0:
            return RatFunc(Poly.var("mu3"), a - kP - gP)
        return (a - kP - gP) * (a - kP + gP) * Poly.var("mu4")
    # case B on the diagonal bp = b - 1/2
    if letter == "x":
        if vpar == 0:
            scale = ONE if mode == "printed" else Poly.var("beta1")
            return (a - kP + 2 * b * gP) * scale
        return Poly.const(-1) if mode == "printed" else Poly.var("beta2")
    if vpar == 0:
        return ONE if mode == "printed" else Poly.var("beta3")
    scale = Poly.const(-1) if mode == "printed" else Poly.var("beta4")
    return (a - kP + 2 * b * gP + gP) * scale


def _generic_t_coeff(ctx, case: str, act_fn, letter, g, v, env):
    """T coefficient: unknown symbol, or the (1/r)[G_r, G_0] composition."""
    if ctx.mode == "unknowns":
        return _unknown("f" if letter == "x" else "fp", g, v)
    den = g.as_poly()
    total = None
    for first, second in ((IDX_ZERO, g), (g, IDX_ZERO)):
        # G_second then G_first; both halves of the anticommutator
        for l2, i2, c2 in act_fn(ctx, "G", second, letter, v, env):
            for l3, i3, c3 in act_fn(ctx, "G", first, l2, i2, env):
                if i3 != v + g or l3 != letter:
                    raise AssertionError("fermionic composition left the expected line")
                term = c2 * c3
                total = term if total is None else total + term
    if total is None:
        return ZERO
    total = RatFunc(total) if not isinstance(total, RatFunc) else total
    return RatFunc(total.num, total.den * den)


def _act_generic_a(ctx, kind, g, letter, v, env):
    a, b, bp = ctx.a, ctx.b, ctx.bp
    kP = v.as_poly()
    gP = g.as_poly()
    vpar = v.parity(env)
    tgt = v + g
    if kind == "L":
        if letter == "x":
            co = a - kP + (b if vpar == 0 else bp) * gP
            return [("x", tgt, co)]
        co = a - kP + ((bp if vpar == 0 else b) + HALF) * gP
        return [("y", tgt, co)]
    if kind == "T":
        return [(letter, tgt, _generic_t_coeff(ctx, "A", _act_generic_a, letter, g, v, env))]
    if g.parity(env) == 1:  # half-odd fermionic modes are part of the ansatz
        if letter == "x":
            return [("y", tgt, ONE)]
        co = -(a - kP + 2 * gP * ((bp if vpar == 0 else b) + HALF))
        return [("x", tgt, co)]
    co = _generic_g_coeff(ctx, "A", letter, g, v, env)
    return [("y" if letter == "x" else "x", tgt, co)]


def _act_generic_b(ctx, kind, g, letter, v, env):
    a, b, bp = ctx.a, ctx.b, ctx.bp
    kP = v.as_poly()
    gP = g.as_poly()
    vpar = v.parity(env)
    tgt = v + g
    if kind == "L":
        if letter == "x":
            co = a - kP + b * gP if vpar == 0 else a - kP + (bp + HALF) * gP
            return [("x", tgt, co)]
        co = a - kP + bp * gP if vpar == 0 else a - kP + (b + HALF) * gP
        return [("y", tgt, co)]
    if kind == "T":
        return [(letter, tgt, _generic_t_coeff(ctx, "B", _act_generic_b, letter, g, v, env))]
    if g.parity(env) == 1:
        if letter == "x":
            co = ONE if vpar == 0 else -(a - kP + 2 * gP * (bp + HALF))
            return [("y", tgt, co)]
        co = ONE if vpar == 0 else -(a - kP + 2 * gP * (b + HALF))
        return [("x", tgt, co)]
    co = _generic_g_coeff(ctx, "B", letter, g, v, env)
    return [("y" if letter == "x" else "x", tgt, co)]


_TABLES = {
    "Aab": _act_aab,
    "Bab": _act_bab,
    "A1": _act_deformed,
    "A2": _act_deformed,
    "B1": _act_deformed,
    "B2": _act_deformed,
    "GenericA": _act_generic_a,
    "GenericB": _act_generic_b,
}


# ---------------------------------------------------------------------------
# concrete action wrappers
# ---------------------------------------------------------------------------

_ACT_CACHE: dict = {}


def act(spec: FamilySpec, g: Gen, v: BasisLabel) -> LinComb:
    """Concrete action; returns a label -> coefficient map without zeros.

    Results are cached per (spec, g, v); treat the returned map as frozen.
    """
    if g.kind == "C":
        return {}
    key = (spec, g, v)
    out = _ACT_CACHE.get(key)
    if out is not None:
        return out
    out = {}
    for letter, idx, coeff in act_indexed(spec, g.kind, SymIndex.of(g.idx),
                                          v.letter, SymIndex.of(v.idx)):
        if coeff:
            label = BasisLabel(letter, idx.const_value())
            _lc_add(out, label, coeff)
    _ACT_CACHE[key] = out
    return out


def _lc_add(out: LinComb, label, coeff) -> None:
    acc = out.get(label)
    new = coeff if acc is None else acc + coeff
    if new:
        out[label] = new
    elif acc is not None:
        del out[label]


def lincomb_act(spec: FamilySpec, g: Gen, lc: LinComb, drop=None) -> LinComb:
    out: LinComb = {}
    for label, coeff in lc.items():
        for label2, coeff2 in act(spec, g, label).items():
            if drop is not None and drop(label2):
                continue
            _lc_add(out, label2, coeff * coeff2)
    return out


def gensum_act(spec: FamilySpec, gs: GenSum, v: BasisLabel, drop=None) -> LinComb:
    out: LinComb = {}
    for g, scale in gs.items():
        for label, coeff in act(spec, g, v).items():
            if drop is not None and drop(label):
                continue
            _lc_add(out, label, coeff * scale)
    return out


def bracket_action_check(spec: FamilySpec, g1: Gen, g2: Gen, v: BasisLabel,
                         drop=None) -> LinComb:
    """Residual of the module axiom at (g1, g2, v); zero certifies it.

    act([g1,g2], v) - (act(g1, act(g2, v)) - (-1)^(|g1||g2|) act(g2, act(g1, v)))
    """
    start = {v: ONE}
    if drop is not None and drop(v):
        return {}
    sign = -1 if parity(g1) and parity(g2) else 1
    lhs = gensum_act(spec, bracket(g1, g2), v, drop)
    t1 = lincomb_act(spec, g1, lincomb_act(spec, g2, start, drop), drop)
    t2 = lincomb_act(spec, g2, lincomb_act(spec, g1, start, drop), drop)
    out = dict(lhs)
    for label, coeff in t1.items():
        _lc_add(out, label, -coeff)
    for label, coeff in t2.items():
        _lc_add(out, label, sign * coeff)
    return out


# ---------------------------------------------------------------------------
# windows and sweeps
# ---------------------------------------------------------------------------

def labels_in_window(window: int) -> list[BasisLabel]:
    bound = 2 * window
    return [BasisLabel(letter, HalfInt(d))
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
    """The action of one generator, compiled for one sweep and filled on
    demand: label key (letter, doubled index) -> ((label key, coeff), ...).

    Constant Poly coefficients are lowered to Fractions; symbolic ones stay
    Poly (or RatFunc).  Targets that `drop` removes are left out, so a
    quotient sweep reads the induced action.
    """

    __slots__ = ("spec", "kind", "gidx", "drop")

    def __init__(self, spec: FamilySpec, g: Gen, drop):
        super().__init__()
        self.spec, self.kind, self.drop = spec, g.kind, drop
        self.gidx = None if g.idx is None else SymIndex.of(g.idx)

    def __missing__(self, key):
        lc: dict = {}
        if self.kind != "C":
            letter, doubled = key
            for letter2, idx, coeff in act_indexed(self.spec, self.kind, self.gidx, letter,
                                                   SymIndex(Fraction(doubled, 2))):
                if coeff:
                    _lc_add(lc, (letter2, idx.const_value().doubled), coeff)
        terms = tuple(
            (lk, c.const_value() if isinstance(c, Poly) and c.is_const() else c)
            for lk, c in lc.items()
            if self.drop is None or not self.drop(BasisLabel(lk[0], HalfInt(lk[1]))))
        self[key] = terms
        return terms


def _sweep_kernel(spec: FamilySpec, gens, labels, drop):
    """The residual of `bracket_action_check` at every unordered pair and
    label, with the same operations in the same order, over action rows
    compiled for this sweep; the bracket and sign are taken once per pair."""
    rows: dict = {}

    def row(g: Gen) -> _ActionRow:
        key = (g.kind, None if g.idx is None else g.idx.doubled)
        r = rows.get(key)
        if r is None:
            r = rows[key] = _ActionRow(spec, g, drop)
        return r

    keyed = [((v.letter, v.idx.doubled), v) for v in labels]
    checks = 0
    violations = []
    for i, g1 in enumerate(gens):
        r1 = row(g1)
        for g2 in gens[i:]:
            r2 = row(g2)
            sign = -1 if parity(g1) and parity(g2) else 1
            lhs_rows = [(row(h), scale) for h, scale in bracket(g1, g2).items()]
            checks += len(keyed)
            for vk, v in keyed:
                out: dict = {}
                for rh, scale in lhs_rows:
                    for lk, c in rh[vk]:
                        _lc_add(out, lk, c * scale)
                t1: dict = {}
                for lk, c in r2[vk]:
                    for lk2, c2 in r1[lk]:
                        _lc_add(t1, lk2, c * c2)
                t2: dict = {}
                for lk, c in r1[vk]:
                    for lk2, c2 in r2[lk]:
                        _lc_add(t2, lk2, c * c2)
                for lk, c in t1.items():
                    _lc_add(out, lk, -c)
                for lk, c in t2.items():
                    _lc_add(out, lk, sign * c)
                if out:
                    res = {BasisLabel(lk[0], HalfInt(lk[1])): c for lk, c in out.items()}
                    violations.append(Witness(str(g1), str(g2), str(v), lincomb_str(res)))
    return checks, violations


def axiom_sweep(spec: FamilySpec, gen_window: int = 2, basis_window: int = 4,
                quotient_of=None) -> SweepReport:
    """Check the module axiom on every generator pair and window label.

    Unordered pairs suffice: the reversed-pair residual is the forward one
    up to the super-antisymmetry sign.  With `quotient_of` set to a closed
    candidate, the induced quotient action is checked instead.  The sweep
    compiles its own action table, scoped to this call; `bracket_action_check`
    is the readable reference for the residual it computes.
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
    return BasisLabel(letter, HalfInt.of(idx))


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
    return SubmoduleReport(spec.label(), cand.describe(), True, None, checks)


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
        return not self.violations


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
