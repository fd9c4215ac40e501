"""Deformation machinery for the four one-parameter families.

Each reducible two-parameter module admits deformations concentrated at one
distinguished basis vector, a source or a sink (`modules.BASE_FAMILY` says
which).  The Virasoro coefficients e_n at that vector obey the recurrence
(n+1)(e_n - e_1) = (n-1)e_{n+1} with the boundary relation
e_{-1} = e_2 - 3 e_1, giving the closed form e_n = -+ n(a'n + a) (sign by
case).  The fermionic coefficients solve
(p + n/2) g_p - s n(a'n + a) = (p - n/2) g_{n+p}, giving g_q = s(2q a' + a)
with s = (-1)^(2q+1) on B2 and s = 1 elsewhere, and the current
coefficients follow from T_r = (1/r)[G_r, G_0].  Each closed form is stated
once, on `DeformCase`, and every check reads it there.

The derivations keep both parameters (a, a'); the published one-parameter
families are the a' = 1 normalization, obtained by rescaling the
distinguished vector.

The instantiation audit reads each family's slot rule in `modules` once
per kind of mode -- L, T, integer G and half-odd G -- at a symbolic mode
index q, and compares the reads with the closed forms, so a clean audit
holds at every mode index.  Off the slot a family's table is its base
module by construction; where the slot sits is checked by the axiom sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .indices import SymIndex
# `act` is not called here: perfbench/selftest.py checks that the tracer
# rebinds this import of it, a binding outside its home module
from .modules import (R, FamilySpec, _landing, act, act_indexed,  # noqa: F401
                      slot_vector, t_composition)
from .poly import Poly, RatFunc, ZERO
from .report import CheckList

HALF = Fraction(1, 2)

Pn = Poly.var("n")
Pq = Poly.var("q")
Pr = Poly.var("r")
Pal = Poly.var("alpha")
Palp = Poly.var("alphap")


@dataclass(frozen=True)
class DeformCase:
    """One deformation family and its closed forms."""

    name: str    # "A1" | "A2" | "B1" | "B2"
    sign: int    # e_n = sign * n(a'n + a)

    def e_closed_form(self, alpha=Pal, alphap=Palp, n=Pn):
        """e_n, a polynomial in n (symbolic parameters by default)."""
        return self.sign * n * (alphap * n + alpha)

    def g_sign(self, parity: int) -> int:
        """B2's (-1)^(2q+1) at an index q of the given parity class; 1 elsewhere."""
        return -1 if self.name == "B2" and parity == 0 else 1

    def g_closed_form(self, q=Pq, parity: int = 1, alpha=Pal, alphap=Palp):
        """g_q = 2q a' + a, times `g_sign`, at an index q of the given parity."""
        return self.g_sign(parity) * (2 * q * alphap + alpha)

    def f_closed_form(self, r=Pr, alphap=Palp):
        """f_r = [G_r, G_0]/r at the slot: sign * 2a'r on A1 and A2, sign * 2a'
        on B1 and B2."""
        return self.sign * 2 * alphap * (r if self.name[0] == "A" else 1)


CASES = {
    "A1": DeformCase("A1", -1),
    "A2": DeformCase("A2", +1),
    "B1": DeformCase("B1", -1),
    "B2": DeformCase("B2", +1),
}


def fit_alpha_from_e(e1, e2, case: DeformCase):
    """Recover (a, a') from the first two deformation coefficients.

    Case sign -1: a = e2/2 - 2 e1 and a' = e1 - e2/2; the mirrored case
    flips both.  Accepts exact rationals or polynomials.
    """
    half_e2 = HALF * e2
    if case.sign < 0:
        alpha = half_e2 - 2 * e1
        alphap = e1 - half_e2
    else:
        alpha = 2 * e1 - half_e2
        alphap = half_e2 - e1
    return alpha, alphap


def e_closed_form_check(case: DeformCase) -> CheckList:
    """The closed form satisfies its recurrence, identically in the mode
    index, and its boundary relations."""
    report = CheckList(case.name)
    e = case.e_closed_form()

    def e_at(value) -> Poly:
        return e.substitute({"n": value})

    # polynomial identity in n itself
    sym = ((Pn + 1) * (e - e_at(1)) - (Pn - 1) * e.substitute({"n": Pn + 1}))
    report.add("recurrence holds identically in the mode index", not sym, sym)
    report.add("the zero mode is forced to vanish", not e_at(0), e_at(0))
    boundary = e_at(-1) - (e_at(2) - 3 * e_at(1))
    report.add("boundary relation e(-1) = e(2) - 3 e(1)", not boundary, boundary)
    # round trip through the parameter fit
    al, alp = fit_alpha_from_e(e_at(1), e_at(2), case)
    rebuilt = case.e_closed_form(al, alp)
    report.add("parameters recovered from e(1), e(2) rebuild the closed form",
               rebuilt == e, rebuilt)
    return report


def g_solution_check(case: DeformCase) -> CheckList:
    """g_q solves the fermionic deformation recurrence
    (q + n/2) g_q - s n(a'n + a) = (q - n/2) g_{n+q}, s = `g_sign`."""
    report = CheckList(case.name)
    n, p, al, alp = Pn, Poly.var("p"), Pal, Palp
    inhom = n * (alp * n + al)
    g = lambda idx: case.g_closed_form(idx, 1)
    main = (p + HALF * n) * g(p) - inhom - (p - HALF * n) * g(n + p)
    report.add("recurrence residual vanishes identically in n and p", not main, main)
    # setting n = 2p isolates g_p: the unknown side drops out
    gamma = Poly.var("gamma")
    pinned = ((p + HALF * n) * gamma - inhom).substitute({"n": 2 * Poly.var("p")})
    solved = pinned - 2 * p * (gamma - g(p))
    report.add("the n = 2p instance pins g_p to the closed form", not solved, solved)
    # integer branch: same recurrence, and the zero mode gives the parameter
    m = Poly.var("m")
    h = lambda idx: case.g_closed_form(idx, 0)
    inhom_int = case.g_sign(0) * inhom
    main_int = (m + HALF * n) * h(m) - inhom_int - (m - HALF * n) * h(n + m)
    report.add("integer-mode branch satisfies the same recurrence", not main_int, main_int)
    at0 = (HALF * n) * h(ZERO) - inhom_int + (HALF * n) * h(n)
    report.add(f"zero-mode instance forces h_0 = {h(ZERO)}", not at0, at0)
    report.add("a' = 0 collapses the solution to the constant alpha",
               g(p).substitute({"alphap": 0}) == al, "")
    return report


def f_derivation(case: DeformCase) -> CheckList:
    """Derive the deformed T coefficient from the fermionic composition, on
    the vector where T_r reads the family's slot."""
    report = CheckList(case.name)
    spec = FamilySpec(case.name, alpha="sym", alphap="sym")
    letter, start = slot_vector(case.name, "T", R)
    derived = t_composition(spec, letter, start, {"r": 1})
    report.add("composition-derived T coefficient matches the closed form",
               derived == RatFunc(case.f_closed_form()), derived)
    report.add("the coefficient vanishes when a' = 0",
               not derived.num.substitute({"alphap": 0}), "")
    return report


# ---------------------------------------------------------------------------
# instantiation with a slot audit
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


Q = SymIndex.var("q")

# the reads that cover a slot: each kind of mode, with the parity class of q
_SLOT_READS = (("L", 0), ("T", 1), ("G", 0), ("G", 1))


def _terms_str(terms) -> str:
    return " + ".join(f"({c})*{letter}_{idx}" for letter, idx, c in terms) or "0"


def deformation_discrepancies(spec: FamilySpec) -> list[Discrepancy]:
    """Audit a deformed family's slot against the closed forms of its case.

    One `act_indexed` read per entry of `_SLOT_READS`, at the symbolic mode
    index q on the vector where that mode reads the slot (`slot_vector`),
    so the audit covers every mode index.
    """
    case = CASES[spec.family]
    al, alp = spec.ctx.alpha, spec.ctx.alphap
    out = []
    for kind, parity in _SLOT_READS:
        letter, v = slot_vector(spec.family, kind, Q)
        if kind == "L":
            value = case.e_closed_form(al, alp, Pq)
        elif kind == "T":
            value = case.f_closed_form(Pq, alp)
        else:
            value = case.g_closed_form(Pq, parity, al, alp)
        want = [(*_landing(letter, v, ((kind, Q),)), value)] if value else []
        got = [t for t in act_indexed(spec, kind, Q, letter, v, {"q": parity}) if t[2]]
        if got != want:
            q_class = "half-odd" if parity else "integer"
            out.append(Discrepancy(f"{kind}(q), q {q_class}", f"{letter}_{v}",
                                   _terms_str(got), _terms_str(want)))
    return out


def instantiate_deformation(case: DeformCase | str, alpha,
                            alphap=Fraction(1)) -> tuple[FamilySpec, list]:
    """Build a deformed family and audit its slot against the closed forms.

    Returns the audited spec and the (normally empty) discrepancy list;
    when the audit flags a read, the closed-form value recorded alongside
    it is the one to trust.
    """
    if isinstance(case, str):
        case = CASES[case]
    spec = FamilySpec(case.name, alpha=alpha, alphap=alphap)
    return spec, deformation_discrepancies(spec)
