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
action table (`FamilySpec.ctx`); the one process-wide action state is the
deformed families' base modules, one spec per base module (`_base_spec`),
whose strata and filled rows every alpha shares.

Each weight space is one-dimensional, so on each parity class of mode m
and vector index k an action lands on index k+m with a coefficient
polynomial in (m, k) and the parameters, and every entry has at most one
term.  At concrete parameters the memo reads the table once per such
stratum, at symbolic m and k, and evaluates that read in ints: entry by
entry for `act`, and in bulk, over a whole window of labels, for the axiom
sweep's position arrays, the residual engine's one input.  A deformed
family's slot, the one index-equality decision, is read the same way, once
per kind and parity class of the mode, at symbolic q on the slot's vector.
The memo reads the table entry by entry at symbolic parameters, where a
stratum is not such a polynomial.  The window checks sweep a symbolic
family as its concrete twin at one Kronecker point (`_twin`), so every
sweep the CLI runs is a sweep of int rows, and share one table of
generator pairs and one layout of label positions per window
(`_pair_table`, `_frame`).  A deformed family is its base module off the
slot: its rows copy the base module's (`_ActionRow._fill_slot`), and its
sweep runs the engine only on the checks that read a slot position
(`_slot_checks`) and takes the others' flags from its base module's
sweep, run once per base module and pair of windows.  The residual
engine only flags the failing checks; a printed witness is the residual
of the spec asked for, by the readable reference `bracket_action_check`.
The window checks that need only an action's targets read the memo rows
by label key (`_window_rows`).

The central element acts as zero on every family.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import gcd, lcm
from operator import itemgetter
from typing import Union

from .algebra import (Gen, Row, add_term, bracket, bracket_terms, generators_in_window,
                      parity, residual_sweep)
from .indices import IDX_ZERO, SymIndex
from .poly import (ONE, KroneckerPoint, NotDivisible, Poly, RatFunc, ZERO, from_pair,
                   sym_shift, sym_slot)
from .report import LazyList, Tally

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
        """(letter, doubled index): the labels' order, and the label key
        under which the action memo holds entries (`_ActionRow`)."""
        return (self.letter, self.idx.doubled)


def _key_label(key) -> BasisLabel:
    """The label of a label key (`BasisLabel.sort_key`)."""
    letter, doubled = key
    return BasisLabel(letter, SymIndex(doubled))


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
        if self.family == "Aab" and self.bprime is not None and not (
                self.b != "sym" and self.bprime == self.b):
            # the alpha forms hold on b' = b, so another b' would go unchecked
            raise ValueError(f"unsupported bprime={self.bprime} for Aab (use b)")
        if self.family == "Bab":
            self._check_bab()
        # a fault names its family: another family's would inject nothing
        if self.fault is not None and (self.fault not in FAULT_CATALOG or
                                       not self.fault.startswith(self.family.lower() + ".")):
            raise ValueError(f"fault {self.fault!r} is not a catalogued fault of {self.family}")

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
            # collapse, so that range is rejected outright.  The Kronecker
            # twin of the candidate at symbolic a (`_make_twin`) takes an
            # integer a all the same: it evaluates the tables, and is no module
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


# each parameter field of a spec, and the `_Ctx` slot that holds it as the
# tables read it: the symbol of that name where the field is "sym"
_SYMBOLS = {"a": "a", "b": "b", "bprime": "bp", "alpha": "alpha", "alphap": "alphap"}


class _Ctx:
    """One spec's parameters as the tables read them, and its action memo:
    one `_ActionRow` per generator, shared by every reader of the spec, and
    the strata the rows evaluate (`stratum`).

    It decides once which solved branch the spec reads (`branch`: alpha,
    beta or mu) and whether its normalization constants are symbols or
    their printed values (`consts`).  It reaches its spec through a weak
    proxy, so a spec and its memo form no reference cycle and are freed
    together.  A deformed family's context holds its base module's spec
    (`_base_spec`), which answers every read off the slot and whose rows its
    rows copy, the slot's role (`BASE_FAMILY`; `slot_vector` says where the
    slot is read, `slot_keys` its label key at each kind's mode 0), and
    the slot's strata (`slot_stratum`).  A base module's context keeps the flagged checks of its sweeps (`flags`), which its
    deformed families read off the slot (`_flagged`).
    """

    __slots__ = ("spec", "a", "b", "bp", "alpha", "alphap", "fault", "mode", "branch",
                 "consts", "printed_t", "base", "slot", "forced", "rows", "strata", "slots",
                 "slot_keys", "symbolic", "twins", "flags")

    def __init__(self, spec: FamilySpec):
        self.spec = weakref.proxy(spec)
        self.fault = spec.fault
        self.mode = spec.coeff_mode
        for field, name in _SYMBOLS.items():
            setattr(self, name, _param(name, getattr(spec, field)))
        self.branch = self.consts = self.base = self.slot = self.slot_keys = None
        self.forced = {}
        if spec.family in BASE_FAMILY:
            family, a, b, self.slot, _ = BASE_FAMILY[spec.family]
            self.base = _base_spec(family, a, b)
            # kind -> the label key of the slot of that kind's mode 0; a
            # sink's slot moves down by the mode (`slot_vector`)
            self.slot_keys = {}
            for kind in "LTG":
                letter, idx = slot_vector(spec.family, kind, IDX_ZERO)
                self.slot_keys[kind] = letter, idx.doubled
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
        self.strata: dict = {}
        self.slots: dict = {}  # (kind, parity of q) -> `slot_stratum`
        # a symbolic parameter leaves every row to direct reads
        self.symbolic = any(isinstance(getattr(self, name), Poly) for name in _SYMBOLS.values())
        self.twins: dict = {}  # (gen_window, basis_window) -> `_twin`'s pair, or None
        # (gen_window, basis_window) -> the flagged checks of a base module's
        # sweep, which every deformed family over it reuses (`_flagged`)
        self.flags: dict = {}

    def row(self, g: Gen) -> _ActionRow:
        key = (g.kind, None if g.idx is None else g.idx.doubled)
        r = self.rows.get(key)
        if r is None:
            slot = None
            if self.slot is not None and g.kind != "C":
                letter, d = self.slot_keys[g.kind]
                slot = letter, (d - key[1] if self.slot == "sink" else d)
            r = self.rows[key] = _ActionRow(self.spec, g, slot)
        return r

    def stratum(self, kind: str, qpar: int, letter: str, kpar: int):
        """The action of mode m on the vector `letter`_k, for m and k of the
        given parity classes, read once from the table at symbolic m and k
        and lowered to ints (`_int_stratum`); None where a row must read
        each entry directly (a RatFunc that is no polynomial, a symbol
        other than m and k).
        The unknowns mode is never read here, as its symbols are named by
        concrete index.  A deformed family reads its base module's: every
        stratum lies off the slot, where the family is its base module for
        every alpha."""
        if self.base is not None:
            return self.base.ctx.stratum(kind, qpar, letter, kpar)
        key = (kind, qpar, letter, kpar)
        if key not in self.strata:
            self.strata[key] = None if self.mode == "unknowns" else _int_stratum(
                act_indexed(self.spec, kind, _M, letter, _K, {"m": qpar, "k": kpar}))
        return self.strata[key]

    def slot_stratum(self, kind: str, qpar: int):
        """(read, ints): the slot of a deformed family for the modes of
        this kind and parity class, read once from the table at symbolic q
        on `slot_vector(family, kind, q)`, and that read lowered to ints in
        q as a stratum (`_int_stratum`), None where a coefficient holds a
        parameter symbol.  The slot audit and the twin point read the one,
        and the rows' slot entries evaluate the other at their mode."""
        key = (kind, qpar)
        if key not in self.slots:
            letter, v = slot_vector(self.spec.family, kind, _Q)
            read = act_indexed(self.spec, kind, _Q, letter, v, {"q": qpar})
            self.slots[key] = read, _int_stratum(read, v + _Q, _Q_SHIFT)
        return self.slots[key]


@lru_cache(maxsize=4)
def _base_spec(family: str, a: Fraction, b: Fraction) -> FamilySpec:
    """The base module of a deformed family (`BASE_FAMILY`), one spec per
    base module: its table answers the family's reads off the slot, its
    strata are the family's for every alpha (`_Ctx.stratum`), its filled
    rows are the family's arrays but for the slot's one position
    (`_ActionRow._fill`), and the flagged checks of its sweep at a pair of
    windows (`_Ctx.flags`) are the family's flags on every check that
    reads no slot (`_flagged`).  Its context holds both, so clearing this
    cache drops both."""
    return FamilySpec(family, a=a, b=b)


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


# each kind of mode with the parity class of its index: L integer, T
# half-odd, G either
MODE_CLASSES = (("L", 0), ("T", 1), ("G", 0), ("G", 1))
# the (kind, parity of the mode, letter, parity of k) of every stratum
_STRATA = tuple((kind, qpar, letter, kpar) for kind, qpar in MODE_CLASSES
                for letter in "xy" for kpar in (0, 1))


def act_indexed(spec: FamilySpec, kind: str, g: SymIndex, letter: str, v: SymIndex,
                env: dict | None = None):
    """Action of one generator mode on one basis vector.

    Returns a list of (letter, index, coefficient) triples.  Concrete
    parameters are read as Fractions and constant indices as ints or
    Fractions (`SymIndex.value`), so a concrete spec at constant indices
    gives Fraction coefficients; a symbolic parameter or index gives Poly
    ones, or RatFunc in the solved generic modes.  `env` declares parity
    classes for any free index symbols.
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
    source does, and every action into a sink: those act on `slot_vector`."""
    return (letter, v) == slot_vector(ctx.spec.family, kind, g)


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
    fam, fault = ctx.spec.family, ctx.fault
    al, alp, q = ctx.alpha, ctx.alphap, g.value
    sign = -1 if ctx.slot == "source" else 1
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

    A view of the spec's memo row for g (`FamilySpec.ctx`), its label keys
    read as labels (`_key_label`).  A concrete spec gives Fraction
    coefficients; a symbolic parameter gives Poly (or RatFunc) ones, a
    constant Poly again lowered to its Fraction.
    """
    if g.kind == "C":
        return {}
    return {_key_label(key): c for key, c in spec.ctx.row(g)[v.sort_key()]}


def _scalar(c):
    """A coefficient in its plainest type: a RatFunc whose denominator
    divides its numerator as that Poly (a generic candidate's T
    composition [G_r, G_0]/c), and a constant Poly as its Fraction; any
    other coefficient unchanged."""
    if isinstance(c, RatFunc):
        try:
            c = c.as_poly()
        except NotDivisible:
            return c
    return c.const_value() if isinstance(c, Poly) and c.is_const() else c


def bracket_action_check(spec: FamilySpec, g1: Gen, g2: Gen, v: BasisLabel) -> LinComb:
    """Residual of the module axiom at (g1, g2, v); zero certifies it.

    act([g1,g2], v) - (act(g1, act(g2, v)) - (-1)^(|g1||g2|) act(g2, act(g1, v))).
    This is the readable reference for the residuals of the residual
    engine, `algebra.residual_sweep`.
    """
    out: LinComb = {}
    for h, scale in bracket(g1, g2).items():
        for label, coeff in act(spec, h, v).items():
            add_term(out, label, coeff * scale)
    sign = -1 if parity(g1) and parity(g2) else 1
    for outer, inner, s in ((g1, g2, -1), (g2, g1, sign)):
        composed: LinComb = {}
        for label, coeff in act(spec, inner, v).items():
            for label2, coeff2 in act(spec, outer, label).items():
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


_M, _K, _Q = SymIndex.var("m"), SymIndex.var("k"), SymIndex.var("q")
_M_SHIFT, _K_SHIFT, _Q_SHIFT = sym_shift("m"), sym_shift("k"), sym_shift("q")


def _int_parts(den: int, parts):
    """(common, ((n, i, j), ...)): the terms (c/den) m**i k**j of `parts`,
    given as (c, i, j), as terms n (2m)**i (2k)**j, with int numerators n
    over their least common denominator."""
    parts = [(c, den << i + j, i, j) for c, i, j in parts]
    common = lcm(1, *(d // gcd(c, d) for c, d, _, _ in parts))
    return common, tuple((c * common // d, i, j) for c, d, i, j in parts)


def _int_stratum(terms, origin: SymIndex = _M + _K, mode: int = _M_SHIFT):
    """A stratum read (`_Ctx.stratum`) in ints: one (letter, offset, den,
    nums) per term, in the table's order, for the target
    letter_(origin+offset/2), whose coefficient is the sum
    n (2m)**i (2k)**j / den over nums = ((n, i, j), ...), so a row
    evaluates it at doubled indices.  The mode symbol m sits at the shift
    `mode` of a packed key: a slot read (`_Ctx.slot_stratum`) is lowered
    in q, with its vector plus q as the origin.  None unless every target
    is the origin plus a constant and every coefficient a scalar or a Poly
    in m and k alone, a polynomial RatFunc read as its Poly (`_scalar`);
    another symbol or a RatFunc that is no polynomial leaves the whole
    stratum to direct reads."""
    mask = 255 << mode | 255 << _K_SHIFT
    out = []
    for letter, idx, coeff in terms:
        offset = idx - origin
        if offset.lin:
            return None
        coeff = _scalar(coeff)
        if isinstance(coeff, (int, Fraction)):
            coeff = Poly.const(coeff)
        elif not isinstance(coeff, Poly):
            return None
        if any(key & ~mask for key in coeff.num):
            return None
        out.append((letter, offset.doubled, *_int_parts(coeff.den, (
            (c, key >> mode & 255, key >> _K_SHIFT & 255) for key, c in coeff.num.items()))))
    return tuple(out)


def _falling(nums, gd: int) -> list:
    """The int coefficients, by falling power of the key's doubled index,
    of sum n gd**i (2k)**j over nums = ((n, i, j), ...)."""
    powers = [0] * (1 + max((j for _, _, j in nums), default=0))
    for n, i, j in nums:
        powers[j] += n * gd ** i
    return powers[::-1]


def _values(powers: list, ds: range) -> list:
    """The polynomial of falling-power coefficients `powers` at every d of
    `ds`, by Horner's rule run over the whole range at once."""
    if len(powers) == 1:
        return [powers[0]] * len(ds)
    a, b, *rest = powers
    out = [a * d + b for d in ds]
    for c in rest:
        out = [v * d + c for v, d in zip(out, ds)]
    return out


def _position(bound: int, letter: str, doubled: int) -> int:
    """The engine position of label letter_(doubled/2) among the labels
    with |doubled index| <= bound: x's, then y's, after the zero vector
    at position 0."""
    if not -bound <= doubled <= bound:
        raise ValueError(f"label {letter}_{doubled}/2 lies beyond the bound {bound}")
    return 1 + bound + doubled + (0 if letter == "x" else 2 * bound + 1)


class _ActionRow(dict):
    """The action of one generator on one spec, in two forms.

    As a dict, label key (letter, doubled index) -> ((label key, coeff),
    ...), each entry built the first time it is read and kept as long as
    the spec; `act` and the window checks (`_window_rows`) read it.  A
    key's doubled index d is the index `SymIndex(d)` the table reads, and
    a target's is the `doubled` of the index the table returns.  An entry
    is the spec's stratum for the key's parity class (`_Ctx.stratum`, read
    through `_form`) evaluated at the row's mode and the key's index, as
    Fractions.  On the one key of a deformed family's row that reads the
    slot (`slot_vector`, where `_at_slot` holds), the tables' only
    decision on index equality, the stratum is the slot's
    (`_Ctx.slot_stratum`).  An entry is read from the table directly, by
    `act_indexed`, where its stratum is None (a symbolic parameter, a
    RatFunc that is no polynomial, the unknowns mode) and in the C row.

    As the residual engine reads it (`engine_row`), an `algebra.Row`:
    position-indexed arrays of target positions and int numerators over
    one den, the lcm of the denominators of the four strata of the row's
    mode class.  Each (letter, parity of k) stratum fills its positions in
    bulk: its targets are one arithmetic progression, and its numerators
    one Horner pass over the doubled indices (`_values`).  A deformed
    family's arrays are its base module's row with the slot written over
    (`_fill_slot`); the dict's slot entry, which `act` reads, is the same
    stratum as a Fraction.  A row whose strata are not all ints (a symbolic parameter, the unknowns mode, symbolic
    normalization constants, the mu branch's 1/(a - k) forms) has no
    arrays: `engine_row` raises `ValueError`, naming the spec.

    It is the only action memo.  The spec's context owns one row per
    generator (`_Ctx.row`), so a row's strata, entries and arrays are
    built once however many readers of the spec run.  A row reads only
    the strata of the entries it builds, and its arrays read the four of
    its mode class, or a deformed family's its base row and slot entry.
    """

    __slots__ = ("spec", "gen", "kind", "gidx", "slot", "forms", "filled")

    def __init__(self, spec: FamilySpec, g: Gen, slot=None):
        super().__init__()
        self.spec, self.gen, self.kind, self.gidx, self.slot = spec, g, g.kind, g.idx, slot
        self.forms: dict = {}  # (letter, parity of k) -> the stratum at this mode
        self.filled: dict = {}  # (bound, radius) -> `engine_row`

    def _form(self, letter: str, kpar: int):
        """The stratum at this row's mode, or None where entries are read
        directly (`_at_mode`)."""
        if (letter, kpar) not in self.forms:
            ctx, stratum = self.spec.ctx, None
            if self.kind != "C" and not ctx.symbolic:
                stratum = ctx.stratum(self.kind, self.gidx.doubled & 1, letter, kpar)
            self.forms[letter, kpar] = self._at_mode(stratum)
        return self.forms[letter, kpar]

    def _at_mode(self, stratum):
        """A stratum at this row's mode, None for None: (den, parts), with
        per term the target letter, the target's offset from the key, and
        the numerator's int coefficients by falling power of the key's
        doubled index (`_falling`), over den, the lcm of the stratum's
        denominators."""
        if stratum is None:
            return None
        gd = self.gidx.doubled
        den = lcm(1, *(d for _, _, d, _ in stratum))
        return den, [(letter2, off + gd, [c * (den // d) for c in _falling(nums, gd)])
                     for letter2, off, d, nums in stratum]

    def __missing__(self, key):
        letter, doubled = key
        if key == self.slot:
            form = self._at_mode(self.spec.ctx.slot_stratum(self.kind, self.gidx.doubled & 1)[1])
        else:
            form = self._form(letter, doubled & 1)
        if form is None:
            terms = self._read(letter, doubled)
        else:
            den, parts = form
            terms = []
            for letter2, shift, powers in parts:
                num = 0
                for c in powers:
                    num = num * doubled + c
                if num:
                    terms.append(((letter2, doubled + shift), Fraction(num, den)))
            terms = tuple(terms)
        self[key] = terms
        return terms

    def _read(self, letter: str, doubled: int) -> tuple:
        """The entry read from the table directly, as objects."""
        lc: dict = {}
        for letter2, idx, coeff in act_indexed(self.spec, self.kind, self.gidx, letter,
                                               SymIndex(doubled)):
            if coeff:
                add_term(lc, (letter2, idx.doubled), coeff)
        return tuple((lk, _scalar(c)) for lk, c in lc.items())

    def engine_row(self, bound: int, radius: int) -> Row:
        """This row as the residual engine reads it, over the positions of
        the labels with |doubled index| <= bound (`_position`), filled at
        the labels with |doubled index| <= radius; kept per (bound,
        radius)."""
        if (bound, radius) not in self.filled:
            self.filled[bound, radius] = self._fill(bound, radius)
        return self.filled[bound, radius]

    def _fill(self, bound: int, radius: int) -> Row:
        size = _position(bound, "y", bound) + 1
        if self.kind == "C":
            return Row([([0] * size, [0] * size)], 1)
        ctx, gd = self.spec.ctx, self.gidx.doubled
        if ctx.base is not None and not ctx.symbolic:
            return self._fill_slot(bound, radius)
        forms = {(letter, kpar): self._form(letter, kpar) for letter in "xy" for kpar in (0, 1)}
        if ctx.symbolic or None in forms.values():
            raise ValueError(f"{self.spec.label()}: the {self.kind} action has no stratum of "
                             "ints, so the residual engine cannot read it")
        # an empty entry is coefficient 0 on the line a graded entry would
        # land on, so the engine sums it with the other parts of a check
        landing = {"x": "y", "y": "x"} if self.kind == "G" else {"x": "x", "y": "y"}
        forms = {(letter, kpar): (den, parts or [(landing[letter], gd, [0])])
                 for (letter, kpar), (den, parts) in forms.items()}
        den = lcm(*(den for den, _ in forms.values()))
        layers = [([None] * size, [None] * size)
                  for _ in range(max(len(parts) for _, parts in forms.values()))]
        for targets, coeffs in layers:
            targets[0] = coeffs[0] = 0
        for (letter, kpar), (form_den, parts) in forms.items():
            ds = range(-radius + ((radius + kpar) & 1), radius + 1, 2)
            if not ds:
                continue
            start = _position(bound, letter, ds[0])
            cells = slice(start, start + 2 * len(ds), 2)
            for i, (targets, coeffs) in enumerate(layers):
                if i < len(parts):
                    letter2, shift, powers = parts[i]
                    first = _position(bound, letter2, ds[0] + shift)
                    _position(bound, letter2, ds[-1] + shift)  # the last target is in bounds too
                    targets[cells] = range(first, first + 2 * len(ds), 2)
                    scale = den // form_den
                    if scale > 1:
                        powers = [c * scale for c in powers]
                    coeffs[cells] = _values(powers, ds)
                else:
                    targets[cells] = coeffs[cells] = [0] * len(ds)
        return Row(layers, den)

    def _fill_slot(self, bound: int, radius: int) -> Row:
        """A deformed family's arrays: off the slot the family is its base
        module, so they are the base row's, copied by slicing, with the
        slot's one position written over.  The slot entry is its stratum's
        ints at this mode (`_Ctx.slot_stratum`), over the least den, with
        no Fraction built; where that den does not divide the base row's,
        the copy is rescaled to their lcm at the filled positions alone."""
        ctx, gd = self.spec.ctx, self.gidx.doubled
        base = ctx.base.ctx.row(self.gen).engine_row(bound, radius)
        (letter2, shift, den, nums), = ctx.slot_stratum(self.kind, gd & 1)[1]
        letter, d = self.slot
        num = sum(n * gd ** i * d ** j for n, i, j in nums)
        common = gcd(num, den)
        num, den = num // common, den // common
        scale = den // gcd(den, base.den)
        layers = [(targets[:], coeffs[:]) for targets, coeffs in base.layers]
        if scale > 1:
            # each letter's filled labels, |doubled index| <= radius, are
            # one run of positions
            for start in (_position(bound, "x", -radius), _position(bound, "y", -radius)):
                cells = slice(start, start + 2 * radius + 1)
                for _, coeffs in layers:
                    coeffs[cells] = [c * scale for c in coeffs[cells]]
        if abs(d) <= radius:
            p = _position(bound, letter, d)
            (targets, coeffs), *rest = layers
            targets[p] = _position(bound, letter2, d + gd + shift)
            coeffs[p] = num * (base.den * scale // den)
            for targets, coeffs in rest:
                targets[p] = coeffs[p] = 0
        return Row(layers, base.den * scale)


def _sweep_witness(spec: FamilySpec, record) -> dict:
    """The {"g1", "g2", "v", "residual"} witness of one violation record,
    (v name, g1 name, g2 name, v, g1, g2): the spec's residual there, by
    the readable reference."""
    name, n1, n2, v, g1, g2 = record
    return {"g1": n1, "g2": n2, "v": name,
            "residual": lincomb_str(bracket_action_check(spec, g1, g2, v))}


@lru_cache(maxsize=4)
def _pair_table(gen_window: int) -> tuple:
    """An axiom sweep's pairs at this generator window, as `residual_sweep`
    takes them, and (row key, generator) for each row they read: constants
    shared by every spec's sweep, with each generator named once.  A
    pair's tag is (g1 name, g2 name, g1, g2)."""
    gens = sorted(generators_in_window(gen_window), key=Gen.sort_key)
    names = {g: str(g) for g in gens}
    rows: dict = {}

    def row(g: Gen):
        key = (g.kind, None if g.idx is None else g.idx.doubled)
        rows.setdefault(key, g)
        return key

    pairs = []
    for i, g1 in enumerate(gens):
        for g2 in gens[i:]:
            sign = -1 if parity(g1) and parity(g2) else 1
            # C acts as zero, so its bracket terms add nothing
            lhs = tuple((row(h), scale) for h, scale in bracket(g1, g2).items() if h.kind != "C")
            pairs.append(((names[g1], names[g2], g1, g2), row(g1), row(g2), sign, lhs))
    return tuple(pairs), tuple(rows.items())


@lru_cache(maxsize=4)
def _frame(gen_window: int, basis_window: int) -> tuple:
    """(bound, pairs, radii): where an axiom sweep at these windows puts
    its labels, and the pairs it hands `residual_sweep`, constants shared
    by every spec's sweep.

    A pair's rows are read at the window labels and at every label one of
    them takes a window label to, so they are filled out to `radius` =
    2 * basis_window + the widest doubled mode among them; a row read
    only for a bracket term is read at the window labels alone.  `bound`
    is the widest label any filled entry lands on.  Each pair is one of
    `_pair_table` with the window labels as its vectors, each
    (position (`_position`), (name, label)): the full sweep."""
    pairs, rows = _pair_table(gen_window)
    outer = {k for _, k1, k2, _, _ in pairs for k in (k1, k2)}
    window = 2 * basis_window
    reach = window + max(abs(doubled or 0) for _, doubled in outer)
    radii = {key: reach if key in outer else window for key, _ in rows}
    bound = max(radius + abs(key[1] or 0) for key, radius in radii.items())
    vectors = tuple((_position(bound, v.letter, v.idx.doubled), (str(v), v))
                    for v in labels_in_window(basis_window))
    return bound, tuple((*pair, vectors) for pair in pairs), radii


def _source(key, label):
    """The label key that the row of this key takes to `label`: the row's
    doubled mode less, and the other letter for G; None for C, which acts
    as zero, and for no label."""
    kind, gd = key
    if kind == "C" or label is None:
        return None
    letter, d = label
    return ("y" if letter == "x" else "x") if kind == "G" else letter, d - gd


@lru_cache(maxsize=8)
def _slot_checks(gen_window: int, basis_window: int, slots: tuple) -> tuple:
    """The checks of an axiom sweep at these windows that read a slot
    position, as `_frame`'s pairs, each with only those of its vectors,
    in their order; a pair with none is left out.  `slots` is ((row key,
    slot label key or None), ...), the one position each row of a
    deformed family writes over (`slot_vector`).

    A check at (x, y) on v reads five entries: y at v, x at y v, x at v,
    y at x v, and [x, y] at v; it reads the slot if one of them is a slot
    position.  So it is on one of at most five vectors of the pair: the
    slots of y, x and [x, y], and the labels that y and x take to the
    slots of x and y.  The table depends on the slots and the windows
    alone, not on alpha, alpha' or the fault."""
    full = _frame(gen_window, basis_window)[1]
    vectors = full[0][-1]  # every pair's, in a full sweep
    where = {(v.letter, v.idx.doubled): i for i, (_, (_, v)) in enumerate(vectors)}
    slot = dict(slots)
    at = {key: where.get(s) for key, s in slots}
    get = where.get
    pairs = []
    for tag, k1, k2, eps, xy, _ in full:
        hits = {at[k1], at[k2], get(_source(k2, slot[k1])), get(_source(k1, slot[k2])),
                at[xy[0][0]] if xy else None}
        hits.discard(None)
        if hits:
            pairs.append((tag, k1, k2, eps, xy, tuple([vectors[i] for i in sorted(hits)])))
    return tuple(pairs)


def _flagged(ctx: _Ctx, gen_window: int, basis_window: int):
    """The (pair tag, vector tag) of every failing check of an axiom sweep
    of ctx's spec, a spec with int rows, at these windows: the engine's
    generator, or a deformed family's list.

    Off the slot a deformed family is its base module, and its rows are
    the base module's with the slot written over (`_ActionRow._fill_slot`):
    each check that reads no slot (`_slot_checks`) has the base module's
    residual.  So a deformed family's flags are the base module's, kept
    on the base module's context (`_Ctx.flags`) for every alpha, less the
    slot-touching checks, plus those of the slot-touching checks that the
    engine flags on the family's own rows.  Every check is still decided
    exactly."""
    _, gens = _pair_table(gen_window)
    bound, pairs, radii = _frame(gen_window, basis_window)
    rows = {key: ctx.row(g).engine_row(bound, radii[key]) for key, g in gens}
    if ctx.base is None:
        return residual_sweep(pairs, rows)
    base, windows = ctx.base.ctx, (gen_window, basis_window)
    if windows not in base.flags:
        base.flags[windows] = list(_flagged(base, gen_window, basis_window))
    pairs = _slot_checks(gen_window, basis_window,
                         tuple((key, ctx.rows[key].slot) for key, _ in gens))
    flagged = list(residual_sweep(pairs, rows))
    if base.flags[windows]:  # none where the base module is a module
        read = {(tag, name) for tag, *_, vectors in pairs for _, name in vectors}
        flagged += (check for check in base.flags[windows] if check not in read)
    return flagged


def _twin_point(spec: FamilySpec, gen_window: int, basis_window: int):
    """(point, D, norm, {field: symbol}) for `_twin`, or None."""
    params = {field: name for field, name in _SYMBOLS.items() if getattr(spec, field) == "sym"}
    if not spec.ctx.symbolic or spec.coeff_mode == "unknowns":  # its symbols name concrete indices
        return None
    reads = [act_indexed(spec, kind, _M, letter, _K, {"m": qpar, "k": kpar})
             for kind, qpar, letter, kpar in _STRATA]
    if spec.family in BASE_FAMILY:
        reads += [spec.ctx.slot_stratum(kind, qpar)[0] for kind, qpar in MODE_CLASSES]
    pairs, rows = _pair_table(gen_window)
    modes = max(abs(doubled) for (_, doubled), _ in rows if doubled is not None)
    bounds = dict(m=modes, k=modes + 2 * basis_window, q=modes, **dict.fromkeys(params.values(), 1))
    halved = []  # each read coefficient in 2m, 2k and 2q
    for coeff in (_scalar(coeff) for read in reads for _, _, coeff in read):
        if not isinstance(coeff, (int, Fraction, Poly)):
            return None
        halved.append((ONE * coeff).substitute({i: HALF * Poly.var(i) for i in "mkq"}))
        if not bounds.keys() >= set(halved[-1].variables()):
            return None
    scales = [[scale for _, scale in lhs] for *_, lhs in pairs]
    den = lcm(*(p.den for p in halved), *(c.denominator for row in scales for c in row))
    norm = int(den * max(from_pair({key: abs(c) for key, c in p.num.items()}, p.den)
                         .evaluate(bounds) for p in halved))
    smax = int(den * max(sum(map(abs, row)) for row in scales))
    width = max(map(len, reads))
    tops = {sym_slot(name): max(p.degree_in(name) for p in halved) for name in params.values()}
    point = KroneckerPoint(tops, smax * width * norm + 2 * width * width * norm * norm)
    return point, den, norm, params


def _twin(spec: FamilySpec, gen_window: int, basis_window: int):
    """The concrete spec a window check of this symbolic one runs on; the
    spec itself where it is concrete or has no twin.

    The twin sets each symbolic parameter to its value at one
    `KroneckerPoint`, a ring homomorphism, so its tables hold the images
    of the spec's coefficients, in int rows.  The point is wide enough:
    - Reads: the 16 strata at symbolic m and k and, on A1..B2, the 4 slot
      reads at a symbolic mode q (`MODE_CLASSES`), the spec's
      `_Ctx.slot_stratum`, which the slot audit reads too; each entry a
      window check reads is one of them at concrete indices.  Each
      coefficient is a Poly in m, k, q and the spec's parameters, or there
      is no twin (a RatFunc that is no polynomial, an unknown, a
      normalization symbol alpha1..).
    - Tops: each parameter's top degree over the reads.
    - Index bounds, doubled: |2m| and |2q| are at most the largest |2i| of
      a row of `_pair_table`, whose bracket targets reach 2 * gen_window,
      and |2k| at most that plus 2 * basis_window.
    - Norm: a term c m^i k^j q^l is (c / 2^(i+j+l)) (2m)^i (2k)^j (2q)^l.
      D, the lcm of those denominators and the bracket scales', clears
      every entry and scale, so the twin engine's d divides D; `norm`, D
      times the largest L1 norm of a read at the index bounds, bounds the
      L1 norm of D times an entry.
    - Bound, why the twin's zero test is exact: a residual times D^2, a
      polynomial in the parameters within twice the tops, sums bracket
      terms (at most smax * width * norm, smax D times the largest sum of
      |scale|, width the most terms in one read) and two compositions
      (width^2 norm^2 each), so its coefficients are ints within the
      point's bound.  The twin's engine sums (d/D)^2 times its image, and
      the point is injective on such polynomials, so that sum is zero
      exactly where the spec's residual is.
    The twin is kept in the spec's memo, one per pair of windows, so the
    window checks of one spec share one twin and its filled rows.
    """
    twins, key = spec.ctx.twins, (gen_window, basis_window)
    if key not in twins:
        twins[key] = _make_twin(spec, gen_window, basis_window)
    return twins[key] or spec


def _make_twin(spec: FamilySpec, gen_window: int, basis_window: int):
    """`_twin`'s twin, or None where the spec is its own twin; the memo
    keeps no reference to the spec itself, which would make a cycle.

    The twin is the validated spec's fields with the point's ints for the
    symbolic ones, built without `FamilySpec`'s checks: it is a device for
    evaluating the spec's tables, not a module, so B(a,0,-3/2) at symbolic
    a gets a twin at an integer a, which the candidate refuses."""
    found = _twin_point(spec, gen_window, basis_window)
    if found is None:
        return None
    point, _, _, params = found
    values = {field.name: getattr(spec, field.name) for field in fields(spec)}
    values.update((field, Fraction(point.value(name))) for field, name in params.items())
    twin = object.__new__(FamilySpec)
    twin.__dict__.update(values)
    return twin


def axiom_sweep(spec: FamilySpec, gen_window: int = 2, basis_window: int = 4) -> Tally:
    """Check the module axiom on every generator pair and window label.

    Returns a `Tally` of the (pair, label) checks, whose violations are
    {"g1", "g2", "v", "residual"} dicts of names, sorted by label, then
    pair.  Unordered pairs suffice: the reversed-pair residual is the
    forward one up to the super-antisymmetry sign; the pairs are the
    window's `_pair_table`.  The sweep reads the spec's action memo
    (`_ActionRow`), so strata and arrays an earlier reader of the same spec
    built (`act`, a first sweep) are not built again.  A symbolic spec is
    swept as its concrete twin (`_twin`), whose rows are int rows and whose
    residuals vanish exactly where the spec's do.  The sweep hands the
    residual engine (`algebra.residual_sweep`) each row's position arrays
    (`_ActionRow.engine_row`), int numerators over a den filled in bulk
    from the strata over the window's label positions (`_frame`), and the
    engine reads them as they are and flags the failing checks.  Every
    module entry has one term, so every row has one layer, and a check is
    at most three int products.  A deformed family (and its twin) hands
    the engine only its checks that read the slot, and takes the other
    checks' flags from its base module's sweep at the same windows, run
    once per base module (`_flagged`).  A spec with no stratum of ints and
    no twin (the unknowns mode, symbolic normalization constants, the mu
    branch's 1/(a - k) forms; the CLI builds none) raises `ValueError`;
    `act` and `bracket_action_check` still read it.

    A violation is kept as its names, label and generators, sorted by the
    names, and the violations are a `report.LazyList`: a witness is the
    residual of the spec itself, not its twin, by the readable reference
    `bracket_action_check`, computed and formatted (`lincomb_str`) only
    when it is read.
    """
    pairs = _frame(gen_window, basis_window)[1]
    ctx = _twin(spec, gen_window, basis_window).ctx
    found = sorted(((name, n1, n2, v, g1, g2) for (n1, n2, g1, g2), (name, v)
                    in _flagged(ctx, gen_window, basis_window)), key=itemgetter(0, 1, 2))
    return Tally(len(pairs) * len(pairs[0][-1]), LazyList(found, partial(_sweep_witness, spec)))


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


def _window_rows(spec: FamilySpec, gen_window: int) -> list:
    """(generator, its memo row, None for C, which acts as zero) for each
    generator of the window: the window checks read the rows by label key,
    and build a label only for a witness."""
    ctx = spec.ctx
    return [(g, None if g.kind == "C" else ctx.row(g)) for g in generators_in_window(gen_window)]


def submodule_check(spec: FamilySpec, cand: SubmoduleCandidate,
                    gen_window: int = 2, basis_window: int = 4) -> Tally:
    """Is the candidate subspace closed under the window action?

    Returns a `Tally` of the (generator, label) actions checked: `ok` says
    the candidate is closed, and an escape stops the check with one
    {"g", "v", "target", "coefficient"} witness.
    """
    checks = 0
    rows = _window_rows(spec, gen_window)
    named = set(map(BasisLabel.sort_key, cand.labels))
    span = cand.kind == "span"
    for v in labels_in_window(basis_window):
        if not cand.contains(v):
            continue
        key = v.sort_key()
        for g, row in rows:
            checks += 1
            for target, coeff in () if row is None else row[key]:
                # a span holds the named labels, a complement the others
                if coeff and (target in named) != span:
                    escape = {"g": str(g), "v": str(v), "target": str(_key_label(target)),
                              "coefficient": str(coeff)}
                    return Tally(checks, [escape])
    return Tally(checks)


def reachable_labels(spec: FamilySpec, start: BasisLabel,
                     gen_window: int = 2, basis_window: int = 4) -> set:
    """Labels reachable from `start` by repeated window action.

    Exploration is confined to the basis window, so the result is the
    window shadow of the submodule generated by the start vector.
    """
    bound = 2 * basis_window
    rows = [row for _, row in _window_rows(spec, gen_window) if row is not None]
    seen = {start.sort_key()}
    frontier = list(seen)
    while frontier:
        key = frontier.pop()
        for row in rows:
            for target, coeff in row[key]:
                if coeff and abs(target[1]) <= bound and target not in seen:
                    seen.add(target)
                    frontier.append(target)
    return set(map(_key_label, seen))


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

def _partition_side(key) -> int:
    """0 for the x-integer/y-half-odd block, 1 for its complement, of a
    label key."""
    letter, doubled = key
    return (doubled & 1) ^ (letter == "y")


def ns_partition_check(spec: FamilySpec, gen_window: int = 2,
                       basis_window: int = 4) -> Tally:
    """Generators of the Neveu-Schwarz subalgebra (L_n and half-odd G_r)
    must preserve both partition blocks; T_r and integer G_n must swap them.

    Returns a `Tally` of the (generator, label) actions checked, with one
    {"g", "v", "target"} violation per target in the wrong block.  A
    symbolic spec is checked on its twin (`_twin`), so after an axiom sweep
    at the same windows it reads the rows, and the strata, that sweep
    built.
    """
    spec = _twin(spec, gen_window, basis_window)
    checks = 0
    violations = []
    labels = [(v, v.sort_key()) for v in labels_in_window(basis_window)]
    for g, row in _window_rows(spec, gen_window):
        if row is None:
            continue
        preserves = g.kind == "L" or (g.kind == "G" and g.idx.is_half_odd())
        for v, key in labels:
            checks += 1
            want = _partition_side(key) if preserves else 1 - _partition_side(key)
            for target, coeff in row[key]:
                if coeff and _partition_side(target) != want:
                    violations.append({"g": str(g), "v": str(v),
                                       "target": str(_key_label(target))})
    return Tally(checks, violations)


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
