"""Deformation machinery for the four one-parameter families.

Each reducible two-parameter module admits deformations concentrated at one
distinguished basis vector.  The Virasoro coefficients e_n at that vector
obey the recurrence (n+1)(e_n - e_1) = (n-1)e_{n+1} with the boundary
relation e_{-1} = e_2 - 3 e_1, giving the closed form e_n = -+ n(a'n + a)
(sign by case).  The fermionic coefficients solve
(p + n/2) g_p - n(a'n + a) = (p - n/2) g_{n+p}, giving g_q = 2q a' + a, and
the current coefficients follow from T_r = (1/r)[G_r, G_0].

The derivations keep both parameters (a, a'); the published one-parameter
families are the a' = 1 normalization, obtained by rescaling the
distinguished vector.

The instantiation audit compares each family's table in `modules` (base
module plus slot rule) with `derived_action`: the base module off the slots,
and on them `_deformed_slot`, the closed forms above written out for concrete
indices independently of the slot rules, so a slip in either one shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Gen, generators_in_window
from .halfint import HalfInt
from .indices import SymIndex
from .modules import (BASE_FAMILY, BasisLabel, FamilySpec, LinComb, act,
                      labels_in_window, lincomb_str, t_composition)
from .poly import Poly, RatFunc, ZERO
from .report import CheckList

HALF = Fraction(1, 2)

Pn = Poly.var("n")
Pal = Poly.var("alpha")
Palp = Poly.var("alphap")


@dataclass(frozen=True)
class DeformCase:
    """One deformation family and the sign of its closed form."""

    name: str    # "A1" | "A2" | "B1" | "B2"
    sign: int    # e_n = sign * n(a'n + a)

    def e_closed_form(self, alpha=Pal, alphap=Palp):
        """e_n as a polynomial in n (symbolic parameters by default)."""
        return self.sign * Pn * (alphap * Pn + alpha)


CASES = {
    "A1": DeformCase("A1", -1),
    "A2": DeformCase("A2", +1),
    "B1": DeformCase("B1", -1),
    "B2": DeformCase("B2", +1),
}


def base_spec(case: DeformCase) -> FamilySpec:
    family, a, b = BASE_FAMILY[case.name]
    return FamilySpec(family, a=a, b=b)


def fit_alpha_from_e(e1, e2, case: DeformCase):
    """Recover (a, a') from the first two deformation coefficients.

    Case sign -1: a = e2/2 - 2 e1 and a' = e1 - e2/2; the mirrored case
    flips both.  Accepts exact rationals or polynomials.
    """
    half_e2 = Fraction(1, 2) * e2 if isinstance(e2, Fraction) else HALF * e2
    if case.sign < 0:
        alpha = half_e2 - 2 * e1
        alphap = e1 - half_e2
    else:
        alpha = 2 * e1 - half_e2
        alphap = half_e2 - e1
    return alpha, alphap


def e_closed_form_check(case: DeformCase, n_window: int = 10) -> CheckList:
    """The closed form satisfies its recurrence and boundary relations."""
    report = CheckList(case.name)
    e = case.e_closed_form()

    def e_at(value) -> Poly:
        return e.substitute({"n": value})

    # polynomial identity in n itself
    sym = ((Pn + 1) * (e - e_at(1)) - (Pn - 1) * e.substitute({"n": Pn + 1}))
    report.add("recurrence holds identically in the mode index", not sym, sym)
    for nv in range(-n_window, n_window + 1):
        res = (nv + 1) * (e_at(nv) - e_at(1)) - (nv - 1) * e_at(nv + 1)
        report.add(f"recurrence instance at n={nv}", not res, res)
    report.add("the zero mode is forced to vanish", not e_at(0), e_at(0))
    boundary = e_at(-1) - (e_at(2) - 3 * e_at(1))
    report.add("boundary relation e(-1) = e(2) - 3 e(1)", not boundary, boundary)
    # round trip through the parameter fit
    al, alp = fit_alpha_from_e(e_at(1), e_at(2), case)
    rebuilt = case.sign * Pn * (alp * Pn + al)
    report.add("parameters recovered from e(1), e(2) rebuild the closed form",
               rebuilt == e, rebuilt)
    return report


def g_solution_check(case: DeformCase) -> CheckList:
    """g_q = 2q a' + a solves the fermionic deformation recurrence."""
    report = CheckList(case.name)
    n, p, al, alp = Pn, Poly.var("p"), Pal, Palp
    g = lambda idx: 2 * idx * alp + al
    inhom = n * (alp * n + al)
    main = (p + HALF * n) * g(p) - inhom - (p - HALF * n) * g(n + p)
    report.add("recurrence residual vanishes identically in n and p", not main, main)
    # setting n = 2p isolates g_p: the unknown side drops out
    gamma = Poly.var("gamma")
    pinned = ((p + HALF * n) * gamma - inhom).substitute({"n": 2 * Poly.var("p")})
    solved = pinned - 2 * p * (gamma - g(p))
    report.add("the n = 2p instance pins g_p to the closed form", not solved, solved)
    # integer branch: same recurrence, and the zero mode gives the parameter
    m = Poly.var("m")
    h = lambda idx: 2 * idx * alp + al
    main_int = (m + HALF * n) * h(m) - inhom - (m - HALF * n) * h(n + m)
    report.add("integer-mode branch satisfies the same recurrence", not main_int, main_int)
    at0 = (HALF * n) * h(ZERO) - inhom + (HALF * n) * h(n)
    report.add("zero-mode instance forces h_0 = alpha", not at0, at0)
    report.add("a' = 0 collapses the solution to the constant alpha",
               g(p).substitute({"alphap": 0}) == al, "")
    return report


def f_derivation(case: DeformCase) -> CheckList:
    """Derive the deformed T coefficient from the fermionic composition."""
    report = CheckList(case.name)
    spec = FamilySpec(case.name, alpha="sym", alphap="sym")
    r, alp = Poly.var("r"), Palp
    start, kpar, printed = {
        "A1": (SymIndex(), 0, -2 * r * alp),
        "A2": (-SymIndex.var("r"), 1, 2 * r * alp),
        "B1": (SymIndex(), 0, -2 * alp),
        "B2": (SymIndex(HALF) - SymIndex.var("r"), 0, 2 * alp),
    }[case.name]
    letter = "x" if case.name == "A1" else "y"
    derived = t_composition(spec, letter, start, {"k": kpar, "r": 1})
    report.add("composition-derived T coefficient matches the closed form",
               derived == RatFunc(printed), derived)
    report.add("the coefficient vanishes when a' = 0",
               not derived.num.substitute({"alphap": 0}), "")
    return report


# ---------------------------------------------------------------------------
# instantiation with a transcription audit
# ---------------------------------------------------------------------------

@dataclass
class Discrepancy:
    g: str
    v: str
    family_value: str
    derived_value: str

    def as_dict(self):
        return {"g": self.g, "v": self.v, "family": self.family_value,
                "derived": self.derived_value}


def _deformed_slot(case: DeformCase, spec: FamilySpec, g: Gen, v: BasisLabel):
    """Expected action at a deformation slot, None if the slot is ordinary."""
    al = Poly.var("alpha") if spec.alpha == "sym" else Poly.const(spec.alpha)
    alp = Poly.var("alphap") if spec.alphap == "sym" else Poly.const(spec.alphap)
    if g.kind == "C":
        return None
    gv = g.idx.value
    name = case.name
    if name == "A1" and v == BasisLabel("x", HalfInt(0)):
        if g.kind == "L":
            return {BasisLabel("x", g.idx): -gv * (alp * gv + al)}
        if g.kind == "T":
            return {BasisLabel("x", g.idx): -2 * alp * gv}
        return {BasisLabel("y", g.idx): 2 * gv * alp + al}
    if name == "A2" and v.idx == -g.idx:
        if g.kind == "L" and v.letter == "y":
            return {BasisLabel("y", HalfInt(0)): gv * (alp * gv + al)}
        if g.kind == "T" and v.letter == "y":
            return {BasisLabel("y", HalfInt(0)): 2 * alp * gv}
        if g.kind == "G" and v.letter == "x":
            return {BasisLabel("y", HalfInt(0)): 2 * gv * alp + al}
        return None
    if name == "B1" and v == BasisLabel("y", HalfInt(0)):
        if g.kind == "L":
            return {BasisLabel("y", g.idx): -gv * (alp * gv + al)}
        if g.kind == "T":
            return {BasisLabel("y", g.idx): -2 * alp}
        return {BasisLabel("x", g.idx): 2 * gv * alp + al}
    if name == "B2" and v.idx == HalfInt(1) - g.idx:
        if g.kind == "L" and v.letter == "y":
            return {BasisLabel("y", HalfInt(1)): gv * (alp * gv + al)}
        if g.kind == "T" and v.letter == "y":
            return {BasisLabel("y", HalfInt(1)): 2 * alp}
        if g.kind == "G" and v.letter == "x":
            sgn = 1 if g.idx.is_half_odd() else -1  # (-1)^(2q+1)
            return {BasisLabel("y", HalfInt(1)): sgn * (2 * gv * alp + al)}
        return None
    return None


def derived_action(case: DeformCase, spec: FamilySpec, g: Gen, v: BasisLabel) -> LinComb:
    """Reference action: the base module away from the deformation slots,
    the recurrence-derived values on them."""
    slot = _deformed_slot(case, spec, g, v)
    if slot is not None:
        return {lbl: co for lbl, co in slot.items() if co}
    return act(spec.ctx.base, g, v)


def deformation_discrepancies(spec: FamilySpec, gen_window: int = 2,
                              basis_window: int = 4) -> list[Discrepancy]:
    """Audit a deformed family's action table against the derived one."""
    case = CASES[spec.family]
    out = []
    for g in generators_in_window(gen_window):
        for v in labels_in_window(basis_window):
            got = act(spec, g, v)
            want = derived_action(case, spec, g, v)
            if got != want:
                out.append(Discrepancy(str(g), str(v), lincomb_str(got),
                                       lincomb_str(want)))
    out.sort(key=lambda d: (d.v, d.g))
    return out


def instantiate_deformation(case: DeformCase | str, alpha,
                            alphap=Fraction(1)) -> tuple[FamilySpec, list]:
    """Build a deformed family and audit it against the derived table.

    Returns the audited spec and the (normally empty) discrepancy list;
    when the audit flags a slot, the derived value recorded alongside it is
    the one to trust.
    """
    if isinstance(case, str):
        case = CASES[case]
    spec = FamilySpec(case.name, alpha=alpha, alphap=alphap)
    return spec, deformation_discrepancies(spec)
