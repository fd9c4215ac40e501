"""Constraint laboratory for the classification of the generic candidates.

Everything here is re-derived mechanically from the algebra and the generic
candidate actions, then compared against the published closed forms.  Every
operator identity is generated from the structure constants in
`algebra.bracket_terms` by one of two functions, and nothing here restates
a bracket coefficient:

  * `bracket_residual`: [g1, g2] - bracket(g1, g2) on one basis vector
    (the L-G recurrence, the T-T, T-G and G-G relations, G_n^2 = L_2n);
  * `nested_residual`: [g1, [g2, g3]] against [g1 at i1+i2, g3], scaled by
    the bracket's own constants (the LLT and LLG systems).

Both land on the one basis line their modes lead to.  The solved coefficient
forms (the alpha, beta and mu modes) are read from the generic candidate's
own action table through `act_indexed`, never written out a second time;
the coefficient lemmas read the weights of their eliminations there too.
The checks:

  * operator identities instantiated on a generic candidate yield 3x3
    linear systems in the unknown coefficient functions; their parametric
    determinants factor into the published products (delta1, delta2) or
    expose the published root sets;
  * the third determinant family (from the mixed Virasoro/fermionic
    identity) is divided exactly by its published linear factors and the
    quotient is tested on the published sporadic parameter pairs;
  * case A's root sets of the two weight classes are intersected, with
    both mixed-identity determinants, for every (b, bp): along finitely
    many lines of the plane, by one gcd over Q[t] each and its rational
    roots (`intersection_scan`), so no b is sampled;
  * the solved coefficient families are substituted back into every
    recurrence they must satisfy, with exact vanishing required;
  * the current-mode composition T_r = [G_r, G_0]/r regenerates every
    printed T coefficient;
  * normalization constants (alpha/beta/mu) are checked against the full
    stack of generated consistency equations, including designated
    violations that must break at least one equation;
  * the b'=-3/2 candidate is shown to be contradictory.

Each check is stated once, by the routine that makes it: every check
routine here returns a `report.Report` whose checks carry their final name,
ref, status and witness, so the CLI only chooses routines and merges them.
Where the publication and the derivation disagree, the derivation is
authoritative and the disagreement is a note of the returned report;
nothing is patched silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .algebra import bracket_terms
from .deformation import CASES
from .indices import SymIndex
from .modules import (BASE_FAMILY, PRINTED_CONSTANTS, R, FamilySpec, _combine, _commutator,
                      _landing, _mode, _only_coeff, aab, act_indexed, b_zero_candidate,
                      bracket_residual, slot_vector, t_composition, unknown_name)
from .poly import (NotDivisible, ONE, Poly, RatFunc, ZERO, _SLOT, exact_divide, from_pair,
                   quadratic_root_data, QuadRootData, rational_roots, sym_shift,
                   univariate_gcd)
from .report import Report

HALF = Fraction(1, 2)

# frequently used index symbols
M = SymIndex.var("m")
N = SymIndex.var("n")
K = SymIndex.var("k")
S = SymIndex.var("s")
P = SymIndex.var("p")

Pa = Poly.var("a")
Pb = Poly.var("b")
Pbp = Poly.var("bp")
Pm = Poly.var("m")
Pk = Poly.var("k")
Pp = Poly.var("p")


def generic_candidate(case: str, mode: str = "unknowns") -> FamilySpec:
    family = "GenericA" if case == "A" else "GenericB"
    return FamilySpec(family, a="sym", b="sym", bprime="sym", coeff_mode=mode)


# ---------------------------------------------------------------------------
# nested identity residuals (the word engine and `bracket_residual` live in
# `modules`, beside the tables they read)
# ---------------------------------------------------------------------------

def _as_poly(c):
    return c if isinstance(c, Poly) else Poly.const(c)


def nested_residual(spec, g1, g2, g3, letter, vidx, env):
    """[g1, [g2, g3]] against [g1 at index i1+i2, g3] on one basis vector.

    Both sides are one mode times a scale read off the structure constants,
    c_nested and c_flat.  The residual is [g1,[g2,g3]] - (c_nested/c_flat)
    [g1', g3] when the division is exact, and c_flat [g1,[g2,g3]] -
    c_nested [g1', g3] otherwise.
    """
    (k1, i1), (k2, i2), (k3, i3) = g1, g2, g3
    (kind, idx, c23), = bracket_terms(k2, i2, k3, i3, env)
    (_, _, c1), = bracket_terms(k1, i1, kind, idx, env)
    (_, _, c_flat), = bracket_terms(k1, i1 + i2, k3, i3, env)
    c_nested, c_flat = _as_poly(c23 * c1), _as_poly(c_flat)
    try:
        outer, inner = ONE, exact_divide(c_nested, c_flat)
    except NotDivisible:
        outer, inner = c_flat, c_nested
    nested, _ = _commutator(_mode(g1), _commutator(_mode(g2), _mode(g3)))
    flat, _ = _commutator(_mode((k1, i1 + i2)), _mode(g3))
    pieces = [(outer * s, w) for s, w in nested] + [(-inner * s, w) for s, w in flat]
    lc = _combine(spec, pieces, letter, vidx, env)
    return _only_coeff(lc, _landing(letter, vidx, (g1, g2, g3)))


# ---------------------------------------------------------------------------
# 3x3 systems and determinants
# ---------------------------------------------------------------------------

@dataclass
class System3:
    """Rows of one identity family under the three (m, n, k) substitutions."""

    kind: str          # "LLT" | "LLG"
    case: str          # "A" | "B"
    fam: str           # "f" | "fp" | "g" | "gp"
    kclass: str        # "int" | "half"
    columns: list      # (mode index, vector index) of each unknown, column order
    matrix: list       # 3 rows x 3 columns of Poly

    @property
    def kpar(self) -> int:
        """The parity of the weight index k."""
        return 0 if self.kclass == "int" else 1

    @property
    def unknowns(self) -> list:
        """The unknown coefficient symbols, column order."""
        return [unknown_name(self.fam, g, v) for g, v in self.columns]

    def substituted(self, bindings) -> "System3":
        rows = [[entry.substitute(bindings) for entry in row] for row in self.matrix]
        return System3(self.kind, self.case, self.fam, self.kclass, list(self.columns), rows)


def determinant3(matrix) -> Poly:
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = matrix
    return (a1 * (b2 * c3 - b3 * c2)
            - a2 * (b1 * c3 - b3 * c1)
            + a3 * (b1 * c2 - b2 * c1))


# the three index substitutions used for every system
_PATTERNS = ((M, M, K - M), (-M, -M, K + M), (M, -M, K))

_FAM_LETTER = {"f": "x", "fp": "y", "g": "x", "gp": "y"}

# the weight classes by the parity of k, as check names state them
_WEIGHTS = ("integer", "half-odd")


class MalformedInstance(ValueError):
    pass


def linear_decompose(poly: Poly, names: list) -> dict:
    """Split a polynomial that is linear-homogeneous in `names`.  A name
    with no registry slot is in no term: it gets ZERO and stays unregistered."""
    shifts = {8 * _SLOT[nm]: nm for nm in names if nm in _SLOT}
    parts: dict = {nm: {} for nm in names}
    for key, coeff in poly.num.items():
        hit = None
        for shift, nm in shifts.items():
            e = key >> shift & 255
            if e == 1 and hit is None:
                hit = (shift, nm)
            elif e:
                raise MalformedInstance("row is not linear in the unknowns")
        if hit is None:
            raise MalformedInstance("row has a term free of the unknowns")
        shift, nm = hit
        parts[nm][key - (1 << shift)] = coeff
    return {nm: from_pair(num, poly.den) for nm, num in parts.items()}


def build_identity_system(kind: str, case: str, fam: str, kclass: str) -> System3:
    """Instantiate one operator identity on a generic candidate.

    The identity [L_m, [L_n, X]] against [L_{m+n}, X], X = T_r (LLT) or
    G_p (LLG), is applied at the three (m, n, k) substitution patterns;
    each application must land on a single basis line whose coefficient is
    linear in exactly three unknown coefficient symbols.
    """
    if fam not in _FAM_LETTER:
        raise MalformedInstance(f"unknown coefficient family {fam!r}")
    if kind not in ("LLT", "LLG"):
        raise MalformedInstance(f"unknown identity kind {kind!r}")
    if (kind == "LLT") != (fam in ("f", "fp")):
        raise MalformedInstance(f"identity {kind} does not constrain family {fam}")
    spec = generic_candidate(case)
    letter = _FAM_LETTER[fam]
    mode = ("T", R) if kind == "LLT" else ("G", P)
    sys3 = System3(kind, case, fam, kclass, [(mode[1], K + M), (mode[1], K), (mode[1], K - M)], [])
    env = {"m": 0, "n": 0, "k": sys3.kpar, "r": 1, "p": 0}
    names = sys3.unknowns
    for mE, nE, kE in _PATTERNS:
        res = nested_residual(spec, ("L", mE), ("L", nE), mode, letter, kE, env)
        parts = linear_decompose(res, names)
        sys3.matrix.append([parts[nm] for nm in names])
    return sys3


# memos of the at most 16 identity systems and their determinants
_SYSTEMS: dict[tuple, System3] = {}
_DET_CACHE: dict[tuple, Poly] = {}


def identity_system(kind: str, case: str, fam: str, kclass: str) -> System3:
    """`build_identity_system`, built once per process; read-only."""
    key = (kind, case, fam, kclass)
    sys3 = _SYSTEMS.get(key)
    if sys3 is None:
        sys3 = _SYSTEMS[key] = build_identity_system(*key)
    return sys3


def system_determinant(kind: str, case: str, fam: str, kclass: str) -> Poly:
    key = (kind, case, fam, kclass)
    det = _DET_CACHE.get(key)
    if det is None:
        det = _DET_CACHE[key] = determinant3(identity_system(*key).matrix)
    return det


# ---------------------------------------------------------------------------
# printed closed forms
# ---------------------------------------------------------------------------

def delta1_printed() -> Poly:
    b, bp, m = Pb, Pbp, Pm
    return ((b - bp - 2) * (b - bp - 1) * (b - bp) * (b + bp + 1)
            * (b * b + b + 2 * b * bp + 3 * bp + bp * bp) * m**6)


def delta2_printed() -> Poly:
    b, bp, m = Pb, Pbp, Pm
    return -((b - bp) * (b - bp + 1) * (b - bp + 2) * (b + bp + 2)
             * (b * b + 2 * b * bp + 5 * b + 3 * bp + bp * bp + 3) * m**6)


def nabla1_printed() -> Poly:
    x, y = Pb, Pbp
    return ((2 * x + 2 * y + 3)
            * (4 + 3 * x - 3 * x**2 - 2 * x**3 + 12 * y + 4 * x * y
               - 2 * x**2 * y + 9 * y**2 + 2 * x * y**2 + 2 * y**3))


def nabla2_printed() -> Poly:
    x, y = Pb, Pbp
    return 18 * (x + y + 1) * (x + y + 2) * (Pa - Pk)


def nabla3_printed() -> Poly:
    # transcribed verbatim, including the stray mixed term and the trailing
    # duplicate quadratic term; known not to vanish on all sporadic pairs
    x, y = Pb, Pbp
    return 4 * (-12 - 23 * x - 12 * x**2 + x**4 - 32 * y - 33 * x * y
                - 5 * x**2 * y + 2 * x**3 * y - 27 * y**2 - 14 * x * y**2
                - 9 * y**3 - 2 * x * y**3 - y**2)


OMEGA_PAIRS = (
    (Fraction(-3, 2), Fraction(-1, 2)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(-2)),
    (Fraction(1, 2), Fraction(-3, 2)),
)

OMEGA_PRIME_PAIRS = (
    (Fraction(-1, 2), Fraction(-3, 2)),
    (Fraction(0), Fraction(-1)),
    (Fraction(-2), Fraction(0)),
    (Fraction(-3, 2), Fraction(1, 2)),
)

# sporadic pair sets from the B-candidate mixed-identity analysis: printed
# data, which no check reads yet
LAMBDA_PAIRS = (
    (Fraction(-3, 2), Fraction(0)),
    (Fraction(-1), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(-1)),
    (Fraction(0), Fraction(-3, 2)),
)

LAMBDA_PRIME_PAIRS = (
    (Fraction(-2), Fraction(-1, 2)),
    (Fraction(-3, 2), Fraction(0)),
    (Fraction(-1, 2), Fraction(-2)),
    (Fraction(0), Fraction(-3, 2)),
)


def compare_delta_closed_form(which: str) -> Report:
    """Compare a derived determinant with its published closed form.

    which: "1" (x-side T system, integer weights), "2" (y-side T system,
    half-odd weights), "3" (x-side mixed system) or "3p" (y-side mixed
    system, the g' analogue).
    """
    if which in ("3", "3p"):
        return _delta3_report(which)
    if which not in ("1", "2"):
        raise ValueError(f"unknown determinant selector {which!r}")
    fam, printed = ("f", delta1_printed()) if which == "1" else ("fp", delta2_printed())
    rep = Report(f"delta{which}")
    rep.add(f"determinant {which} equals its printed factorization",
            f"delta{which}-factorization",
            system_determinant("LLT", "A", fam, "int") == printed)
    return rep


# the two weight classes whose mixed-identity determinants carry the
# published conclusions: x side on integer weights, y side on half-odd
_DELTA3_SYSTEM = {"3": ("g", "int"), "3p": ("gp", "half")}


def _delta3_quotient(which: str) -> Poly:
    """Quotient of the mixed-identity determinant by its linear factors."""
    b, bp = Pb, Pbp
    fam, kclass = _DELTA3_SYSTEM[which]
    derived = system_determinant("LLG", "A", fam, kclass)
    lin = (b - bp - 1) * (b - bp) if which == "3" else (b - bp + 1) * (b - bp)
    q = exact_divide(derived, Pm**6)
    q = exact_divide(q, Pp)
    return exact_divide(q, lin)


def sporadic_values(which: str, quotient: Poly | None = None) -> dict:
    """The mixed-identity quotient at each pair of its sporadic set, keyed
    "(b,bp)"; empty when the stated factors do not divide the determinant.
    `quotient`, when given, is `_delta3_quotient(which)`."""
    if quotient is None:
        try:
            quotient = _delta3_quotient(which)
        except NotDivisible:
            return {}
    pairs = OMEGA_PAIRS if which == "3" else OMEGA_PRIME_PAIRS
    return {f"({bv},{bpv})": str(quotient.substitute({"b": bv, "bp": bpv}))
            for bv, bpv in pairs}


def _sporadic_check(rep: Report, values: dict, name: str, ref: str) -> None:
    """The quotient vanishes at every sporadic pair; a check that evaluated
    no pair fails."""
    rep.add(name, ref, bool(values) and all(v == "0" for v in values.values()),
            values or "no pair evaluated: the stated factors do not divide")


def _delta3_report(which: str) -> Report:
    tag = "mixed-identity determinant" + ("" if which == "3" else " (second family)")
    rep = Report(f"delta{which}")
    try:
        quotient = _delta3_quotient(which)
    except NotDivisible:
        quotient = None
    rep.add(f"{tag}: exact divisibility by the stated factors", f"delta{which}-divisibility",
            quotient is not None and quotient.degree_in("p") == 2)
    pairs = "sporadic pairs" if which == "3" else "mirrored sporadic pairs"
    _sporadic_check(rep, sporadic_values(which, quotient),
                    f"{tag}: quotient vanishes at all {pairs}", f"delta{which}-sporadic-pairs")
    if which == "3" and quotient is not None:
        # printed reference pieces: the quotient is -(nabla1 m^2 + nabla2 p + nabla3 p^2)/4
        d3 = -4 * quotient
        for name, got, want in (("nabla1", exact_divide(d3.coeff_in("p", 0), Pm**2),
                                 nabla1_printed()),
                                ("nabla2", d3.coeff_in("p", 1), nabla2_printed()),
                                ("nabla3", d3.coeff_in("p", 2), nabla3_printed())):
            if name == "nabla3" and got != want:
                # the printed nabla3 is a known misprint (`nabla3_printed`)
                rep.notes.append(f"{name}: printed form differs; derived {got}")
            else:
                rep.add(f"{tag}: {name} quotient piece matches the printed form",
                        f"delta{which}-{name}", got == want, None if got == want else str(got))
    return rep


def delta3_vanishes_at(which: str, b: Fraction, bp: Fraction) -> bool:
    """Does the mixed-identity determinant vanish identically in its other
    symbols (a, m, p, k) at (b, bp)?"""
    fam, kclass = _DELTA3_SYSTEM[which]
    return not system_determinant("LLG", "A", fam, kclass).substitute({"b": b, "bp": bp})


# ---------------------------------------------------------------------------
# root sets
# ---------------------------------------------------------------------------

@dataclass
class RootSetEntry:
    name: str
    system: tuple           # (case, fam, kclass)
    linear_roots: list      # printed roots, Poly in b
    quad: QuadRootData | None  # derived quadratic factor (monic in bp); None if not one
    printed_disc: Poly
    checks: list            # report.Check

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def components(self) -> list:
        """The factors of a verified root set's determinant, up to a
        constant: bp - root for each printed root, and the quadratic."""
        return [Pbp - root for root in self.linear_roots] + [self.quad.as_poly()]


def _roots_spec():
    b = Pb
    return {
        "f-int": (("A", "f", "int"),
                  [-b - 1, b - 2, b - 1, b], 8 * b + 9),
        "fp-int": (("A", "fp", "int"),
                   [-b - 2, b, b + 1, b + 2], -8 * b - 3),
        "f-half": (("A", "f", "half"),
                   [-b - 1, b, b + 1, b + 2], 1 - 8 * b),
        "fp-half": (("A", "fp", "half"),
                    [-b - 2, b - 1, b - 2, b], 13 + 8 * b),
        "lambda1": (("B", "f", "int"),
                    [b - Fraction(3, 2), -b - Fraction(3, 2), b - Fraction(5, 2), b - HALF],
                    8 * b + 9),
        "lambda2": (("B", "fp", "int"),
                    [b + Fraction(3, 2), -b - Fraction(3, 2), b + Fraction(5, 2), b + HALF],
                    -8 * b - 3),
        "lambda3": (("B", "f", "half"),
                    [b + Fraction(3, 2), -b - Fraction(3, 2), b + HALF, b - HALF],
                    1 - 8 * b),
        "lambda4": (("B", "fp", "half"),
                    [b - Fraction(3, 2), -b - Fraction(3, 2), b + HALF, b - HALF],
                    13 + 8 * b),
    }


ROOT_SET_NAMES = tuple(_roots_spec().keys())

_ROOT_CACHE: dict[str, RootSetEntry] = {}


def root_set(name: str) -> RootSetEntry:
    """Derive one root set and verify it against the printed data.

    Each printed linear root must annihilate the derived determinant, the
    roots before it divided out, or its check fails with it as witness.  The
    cofactor left must be a quadratic in bp with a constant lead whose
    discriminant matches the printed one literally, or `quad` is None.
    """
    if name in _ROOT_CACHE:
        return _ROOT_CACHE[name]
    table = _roots_spec()
    if name not in table:
        raise KeyError(f"unknown root set {name!r} (choose from {ROOT_SET_NAMES})")
    (case, fam, kclass), linear, disc_printed = table[name]
    rest = exact_divide(system_determinant("LLT", case, fam, kclass), Pm**6)
    rep, ref = Report(name), f"root-set/{name}"
    for root in linear:
        ann = not rest.substitute({"bp": root})
        rep.add(f"{name}: linear root bp={root} annihilates the determinant", ref, ann,
                None if ann else str(root))
        if ann:
            rest = exact_divide(rest, Pbp - root)
    deg = rest.degree_in("bp")
    lead = rest.coeff_in("bp", deg)
    quad = None
    if deg == 2 and lead.is_const():
        quad = quadratic_root_data(rest * (1 / lead.const_value()), "bp")
    rep.add(f"{name}: cofactor is quadratic in bp", ref, quad is not None,
            None if quad else f"degree {deg} in bp, lead {lead}")
    rep.add(f"{name}: discriminant equals {disc_printed}", ref,
            quad is not None and quad.discriminant == disc_printed)
    entry = RootSetEntry(name, (case, fam, kclass), linear, quad, disc_printed, rep.checks)
    _ROOT_CACHE[name] = entry
    return entry


# the sporadic pair sets: the mixed-identity determinant whose quotient
# each must annihilate, and the check's wording
OMEGA_SETS = {
    "omega": ("3", "sporadic pair set annihilates the mixed-identity quotient"),
    "omega-prime": ("3p", "mirrored sporadic pair set annihilates its quotient"),
}


def root_set_check(name: str) -> Report:
    """The checks of one root set (`root_set`) or of one sporadic pair set."""
    rep = Report(name)
    if name in OMEGA_SETS:
        which, desc = OMEGA_SETS[name]
        _sporadic_check(rep, sporadic_values(which), desc, f"root-set/{name}")
    else:
        rep.checks.extend(root_set(name).checks)
    return rep


def swap_symmetry_checks() -> Report:
    """The two k-classes of each T-system determinant are b <-> bp mirrors."""
    rep = Report("mirror-symmetry")
    swap = {"b": Pbp, "bp": Pb}
    for side, fam in (("x", "f"), ("y", "fp")):
        d_int = system_determinant("LLT", "A", fam, "int")
        d_half = system_determinant("LLT", "A", fam, "half")
        rep.add(f"{side}-side half-odd determinant is the b<->bp mirror",
                "root-set/mirror-symmetry", d_half == d_int.substitute(swap))
    return rep


# ---------------------------------------------------------------------------
# coefficient lemmas: solved families into their recurrences
# ---------------------------------------------------------------------------

def _lemma(rep: Report, desc: str, ok, witness=None) -> None:
    """One check of a coefficient lemma, named and referenced by the lemma
    (`rep.command`)."""
    rep.add(f"{rep.command}: {desc}", f"lemma/{rep.command}", ok, witness)


def _shift_factor_check(rep, sys3, label, weights, printed=None, misprint=False):
    """Eliminate the k-m unknown from the first two rows.

    The remaining combination must be factor * (lhs * u_{k+m} - rhs * u_k)
    with a nonzero factor, where `weights` = (lhs, rhs) are R(k) and R(k+m)
    of a solved form R, cleared of denominators.  That proves
    u_{k+m}/u_k = R(k+m)/R(k) at every k, so u is a constant times R.  The
    factor is compared with the printed polynomial when given: a mismatch
    is a note on a known `misprint`, and a failing check, whose witness is
    the derived factor, on any other.
    """
    (a1, b1, c1), (a2, b2, c2), _ = sys3.matrix  # columns u_{k+m}, u_k, u_{k-m}
    comb_kp = a1 * c2 - a2 * c1
    comb_k = b1 * c2 - b2 * c1
    lhs, rhs = weights
    name = f"{label}: elimination yields factor * proportionality relation"
    try:
        factor = exact_divide(comb_kp, lhs)
    except NotDivisible:
        _lemma(rep, name, False, "leading combination not divisible by the stated form")
        return
    # a zero factor relates nothing: the first two rows are proportional
    _lemma(rep, name, bool(factor) and comb_k == -factor * rhs, None if factor else "zero factor")
    if printed is not None:
        try:
            cof = exact_divide(factor, printed)
        except NotDivisible:
            cof = None
        if cof is not None and len(cof.num) == 1:
            _lemma(rep, f"{label}: printed factor reproduced", True,
                   f"up to the monomial cofactor {cof}")
        elif misprint:
            # printed display cannot be reproduced from the canonical
            # elimination; the derived factor is authoritative
            rep.notes.append(
                f"{label}: printed factor differs from the derived elimination "
                f"(derived {factor}); the relation itself is verified above")
        else:
            _lemma(rep, f"{label}: printed factor reproduced", False, str(factor))


def _mode_coeff(spec, g, letter, v, env):
    """The candidate's own coefficient of the fermionic mode g on (letter, v)."""
    (_, _, coeff), = act_indexed(spec, "G", g, letter, v, env)
    return coeff


def _solved_weights(sys3, spec):
    """R(k) and R(k+m) for the solved form R that `spec` reads on the
    system's unknowns, its normalization constants set to 1, cleared of
    denominators: (num(k) den(k+m), num(k+m) den(k))."""
    ones = dict.fromkeys(spec.ctx.consts, 1)
    env = {"p": 0, "m": 0, "k": sys3.kpar}
    at_k, at_km = (RatFunc(_mode_coeff(spec, P, _FAM_LETTER[sys3.fam], v, env)).substitute(ones)
                   for v in (K, K + M))
    return at_k.num * at_km.den, at_km.num * at_k.den


def _solution_into_system(rep, sys3, label, spec):
    """Substitute a solved coefficient family into all three rows, read
    column by column from the family's own action."""
    env, letter = {"p": 0, "m": 0, "k": sys3.kpar}, _FAM_LETTER[sys3.fam]
    values = [_mode_coeff(spec, g, letter, v, env) for g, v in sys3.columns]
    for i, row in enumerate(sys3.matrix):
        solved = sum((val * entry for val, entry in zip(values, row)), ZERO)
        _lemma(rep, f"{label}: row {i + 1} vanishes on the solved family", not solved)


# the four LLG systems of a case, x side first
_LLG_SYSTEMS = (("g", "int"), ("g", "half"), ("gp", "int"), ("gp", "half"))

# each case's solved branches, with the (b, b') their forms hold on and the
# prefix of their check names
_LLG_BRANCHES = {
    "A": (("alpha", {"bp": Pb}, ""),),
    "B": (("beta", {"bp": Pb - HALF}, ""),
          ("mu", {"b": ZERO, "bp": Poly.const(Fraction(-3, 2))}, "exceptional-case ")),
}


# known misprints among the printed LLG factors (case A's d1, case B's d2),
# which `_shift_factor_check` notes instead of failing
_LLG_MISPRINTS = (("alpha", "g", "int"), ("beta", "gp", "int"))


def _printed_llg_factors() -> dict:
    """The elimination factors the publication prints, keyed by (branch,
    family, weight class): d1 and d2, and the x- and y-side cubics in p."""
    a, b, k, p, m = Pa, Pb, Pk, Pp, Pm
    d1b = -(3 + 13 * b + 18 * b**2 + 8 * b**3)
    d1kp = ((3 + 4 * b) * (a - k) ** 2 + (2 * b**2 + 7 * b + 6) * (a - k) * p
            + 2 * (6 + 19 * b + 23 * b**2 + 10 * b**3) * p**2)
    d1kp2 = 2 * p * (3 * (a - k) ** 3 - 2 * p * (b + 3) * (a - k) ** 2
                     - 2 * b * (5 + 4 * b) * (a - k) * p**2 + 4 * b * (b + 1) * p**3)
    d2b = -(b + 6 * b**2 + 8 * b**3)
    d2kp = ((1 + 4 * b) * (a - k) ** 2 + (2 * b**2 + 5 * b + 3) * (k - a) * p
            + (2 + 7 * b + 16 * b**2 + 20 * b**3) * p**2)
    d2kp2 = 2 * p * (3 * (a - k) ** 3 - p * (5 + 2 * b) * (a - k) ** 2
                     + (1 - 2 * b) * (3 + 4 * b) * (a - k) * p**2
                     + 2 * b * (2 * b - 1) * p**3)
    x_cubic = (4 * (1 + b) * p**3 + 8 * (k - a) * (1 + b) * p**2
               + (1 + b) * (6 * b - 1) * p * m**2 + 6 * (a - k) ** 2 * p
               + (k - a) * (1 + 4 * b) * m**2)
    y_cubic = (2 * (3 + 2 * b) * p**3 + 4 * (k - a) * (3 + 2 * b) * p**2
               + (3 + 2 * b) * (1 + 3 * b) * p * m**2 + 6 * (a - k) ** 2 * p
               + (k - a) * (3 + 4 * b) * m**2)
    return {
        ("alpha", "g", "int"): d1b * m**4 + d1kp * m**2 + d1kp2,
        ("alpha", "gp", "int"): y_cubic,
        ("alpha", "gp", "half"): y_cubic,
        ("beta", "g", "int"): x_cubic,
        ("beta", "gp", "int"): d2b * m**4 + d2kp * m**2 + d2kp2,
        ("beta", "gp", "half"): y_cubic,
    }


def _shift_lemma(rep: Report, case: str) -> None:
    """Each LLG system of a case, on each solved branch of the case: the
    elimination pins the unknowns to the branch's own table form up to a
    constant (`_shift_factor_check`), and that form solves all three rows.
    Each system is built once (`identity_system`) and substituted per
    branch."""
    printed = _printed_llg_factors()
    systems = [identity_system("LLG", case, fam, kclass) for fam, kclass in _LLG_SYSTEMS]
    for branch, bindings, prefix in _LLG_BRANCHES[case]:
        spec = generic_candidate(case, branch)
        for sys3 in systems:
            sys3 = sys3.substituted(bindings)
            label = f"{prefix}{_FAM_LETTER[sys3.fam]} side ({_WEIGHTS[sys3.kpar]} weights)"
            key = (branch, sys3.fam, sys3.kclass)
            _shift_factor_check(rep, sys3, label, _solved_weights(sys3, spec),
                                printed.get(key), key in _LLG_MISPRINTS)
            _solution_into_system(rep, sys3, label, spec)


_SIDES = (("x", "int"), ("x", "half"), ("y", "int"), ("y", "half"))


def _recurrence_checks(rep, spec, prefix, what):
    """The L-G recurrence on the solved coefficients of `spec`, per side."""
    for letter, kclass in _SIDES:
        env = {"m": 0, "n": 0, "k": 0 if kclass == "int" else 1}
        res = bracket_residual(spec, ("L", M), ("G", N), letter, K, env)
        _lemma(rep, f"{prefix}{letter} side ({kclass} weights): {what}", not res)


LEMMA_CHECKS = (
    "g-shift-invariance",
    "g-constant-forms",
    "t-from-g-composition",
    "b-shift-relations",
    "b-coefficient-forms",
    "b-t-composition",
)


def coeff_solution_check(which: str) -> Report:
    """Verify one solved-coefficient lemma mechanically."""
    if which not in LEMMA_CHECKS:
        raise KeyError(f"unknown lemma check {which!r} (choose from {LEMMA_CHECKS})")
    rep = Report(which)
    if which == "g-shift-invariance":
        _shift_lemma(rep, "A")
    elif which == "g-constant-forms":
        _recurrence_checks(rep, generic_candidate("A", "alpha"), "",
                           "recurrence residual vanishes")
    elif which == "t-from-g-composition":
        _check_t_composition_generic(rep, "A")
    elif which == "b-shift-relations":
        _shift_lemma(rep, "B")
    elif which == "b-coefficient-forms":
        _recurrence_checks(rep, generic_candidate("B", "beta"), "",
                           "recurrence residual vanishes")
        # exceptional case: the same recurrences at (b, bp) = (0, -3/2)
        _recurrence_checks(rep, generic_candidate("B", "mu"), "exceptional-case ",
                           "residual vanishes")
    else:
        _check_t_composition_generic(rep, "B")
    return rep


# ---------------------------------------------------------------------------
# T from the fermionic composition
# ---------------------------------------------------------------------------

def derive_T_composition(spec: FamilySpec) -> Report:
    """Re-derive every T coefficient of a family from its fermionic action."""
    rep = Report(spec.label())
    for desc, letter, vidx, kpar, printed in _t_reference(spec):
        derived = t_composition(spec, letter, vidx, {"k": kpar, "r": 1})
        printed_r = printed if isinstance(printed, RatFunc) else RatFunc(printed)
        match = derived == printed_r
        rep.add(f"{spec.family}: {desc}: derived equals printed",
                f"t-composition/{spec.family}", match,
                None if match else {"derived": str(derived), "printed": str(printed_r)})
    return rep


def _t_reference(spec: FamilySpec):
    """(description, letter, start index, k parity, printed coefficient).

    The four generic rows read the family's own table, which states the
    printed closed forms; off its slot, a deformed family's table is its
    base module's.  A deformed family adds the row on its slot, which reads
    the deformation's closed form (`BASE_FAMILY` gives the slot's role)."""
    fam = spec.family
    if fam not in ("Aab", "Bab") and fam not in CASES:
        raise ValueError(f"no printed T table for {fam}")
    rows = []
    for letter in ("x", "y"):
        for kpar in (0, 1):
            terms = act_indexed(spec, "T", R, letter, K, {"k": kpar, "r": 1})
            rows.append((f"{letter}, {_WEIGHTS[kpar]} weights", letter, K, kpar,
                         terms[0][2] if terms else ZERO))
    if fam in CASES:
        letter, start = slot_vector(fam, "T", R)
        where = "at" if BASE_FAMILY[fam][3] == "source" else "mapping onto"
        rows.append((f"{letter} {where} the distinguished vector", letter, start,
                     start.parity({"r": 1}), CASES[fam].f_closed_form(alphap=spec.ctx.alphap)))
    return rows


def _check_t_composition_generic(rep: Report, case: str) -> None:
    """Generic-mode compositions versus the printed solved T coefficients."""
    a, b, k, r = Pa, Pb, Pk, Poly.var("r")
    if case == "A":
        spec = generic_candidate("A", "alpha")
        a1, a2, a3, a4 = (Poly.var(f"alpha{i}") for i in range(1, 5))
        printed = {
            ("x", 0): RatFunc((a - k - r) * a4 - (a - k + 2 * b * r + r) * a1, r),
            ("x", 1): RatFunc((a - k - r) * a3 - (a - k + 2 * b * r + r) * a2, r),
            ("y", 0): RatFunc((a - k) * a3 - (a - k + 2 * b * r + r) * a2, r),
            ("y", 1): RatFunc((a - k) * a4 - (a - k + 2 * b * r + r) * a1, r),
        }
    else:
        spec = generic_candidate("B", "beta")
        b1, b2, b3, b4 = (Poly.var(f"beta{i}") for i in range(1, 5))
        printed = {
            ("x", 0): RatFunc((a - k) * b1 + (a - k - r) * b4, r),
            ("x", 1): RatFunc(-((a - k + 2 * b * r + r) * b2 + (a - k + 2 * b * r) * b3), r),
            ("y", 0): RatFunc(b2 + b3, r),
            ("y", 1): RatFunc(-((a - k) * (a - k + 2 * b * r) * b4
                                + (a - k - r) * (a - k + 2 * b * r + r) * b1), r),
        }
    for (letter, kpar), want in printed.items():
        got = t_composition(spec, letter, K, {"k": kpar, "r": 1})
        _lemma(rep, f"{letter} side, {_WEIGHTS[kpar]} weights: "
               "composition matches the printed solved form", got == want)
    if case == "A":
        return
    # exceptional (0,-3/2) candidate: printed forms carry transcription slips,
    # so the derived compositions are recorded and compared term by term
    mspec = generic_candidate("B", "mu")
    mu1, mu2, mu3, mu4 = (Poly.var(f"mu{i}") for i in range(1, 5))
    printed_mu = {
        ("x", 0): RatFunc((a - k) ** 2 * (mu1 + mu4), r),
        ("x", 1): RatFunc(-((a - k - 2 * r) * mu3 + (a - k + r) * mu2), r * (a - k)),
        ("y", 0): RatFunc(mu2 + mu3, r * (a - k)),
        ("y", 1): RatFunc(-((a - k + r) * (a - k - r) ** 2 * mu1
                            + (a - k) ** 2 * (a - k - 2 * r) * mu4), r),
    }
    zero_mu = {f"mu{i}": ZERO for i in range(1, 5)}
    for (letter, kpar), want in printed_mu.items():
        got = t_composition(mspec, letter, K, {"k": kpar, "r": 1})
        side = f"exceptional-case {letter} side, {_WEIGHTS[kpar]} weights"
        if got == want:
            _lemma(rep, f"{side}: composition matches the printed form", True)
        else:
            rep.notes.append(
                f"{side}: printed form differs from the derived composition "
                f"(derived {got}); the derivation is authoritative")
        wiped = RatFunc(got.num.substitute(zero_mu), got.den.substitute(zero_mu))
        _lemma(rep, f"{side}: composition vanishes once the solved family is zero",
               not wiped)


# ---------------------------------------------------------------------------
# normalization constants and designated violations
# ---------------------------------------------------------------------------

@dataclass
class EquationRecord:
    name: str
    residual: object  # Poly | RatFunc

    def residual_at(self, values: dict):
        res = self.residual
        if isinstance(res, RatFunc):
            return res.num.substitute(values)
        return res.substitute(values)


def _equation_stack(spec: FamilySpec, include_tg_int=True, include_gg_int=True):
    eqs = []
    for letter in ("x", "y"):
        for kpar in (0, 1):
            kname = _WEIGHTS[kpar]
            env = {"k": kpar, "r": 1, "s": 1, "p": 1, "n": 0, "m": 0}

            def residual(g1, g2, env=env):
                return bracket_residual(spec, g1, g2, letter, K, env)

            eqs.append(EquationRecord(
                f"current modes commute on {letter} ({kname} weights)",
                residual(("T", R), ("T", S))))
            eqs.append(EquationRecord(
                f"current-fermionic relation, half-odd mode, on {letter} ({kname})",
                residual(("T", R), ("G", P))))
            if include_tg_int:
                eqs.append(EquationRecord(
                    f"current-fermionic relation, integer mode, on {letter} ({kname})",
                    residual(("T", R), ("G", P), dict(env, p=0))))
            eqs.append(EquationRecord(
                f"mixed fermionic pair gives a current mode on {letter} ({kname})",
                residual(("G", P), ("G", N))))
            if include_gg_int:
                eqs.append(EquationRecord(
                    f"integer fermionic square gives a Virasoro mode on {letter} ({kname})",
                    residual(("G", N), ("G", M))))
            eqs.append(EquationRecord(
                f"half-odd fermionic square gives a Virasoro mode on {letter} ({kname})",
                residual(("G", R), ("G", S))))
    return eqs


def alpha_beta_solve(case: str) -> Report:
    """Check the printed normalization constants against all generated
    consistency equations, and check that designated mutations break one."""
    branch = {"A": "alpha", "B": "beta", "B0": "mu"}.get(case)
    if branch is None:
        raise ValueError(f"unknown normalization case {case!r}")
    spec = generic_candidate(case[0], branch)
    names = [f"{branch}{i}" for i in range(1, 5)]
    printed = dict(zip(names, PRINTED_CONSTANTS[branch]))
    flipped = {nm: -c for nm, c in printed.items()}
    if case == "A":
        solutions = [("all constants 1", printed), ("all constants -1", flipped)]
        mutations = [("first constant mutated to 2", dict(printed, alpha1=2))]
        eqs = _equation_stack(spec)
    elif case == "B":
        solutions = [("alternating signs (1,-1,1,-1)", printed),
                     ("alternating signs flipped (-1,1,-1,1)", flipped)]
        mutations = [("first constant mutated to 2", dict(printed, beta1=2))]
        eqs = _equation_stack(spec)
    else:
        solutions = [("all constants 0", printed)]
        mutations = [("second constant mutated to 1", dict(printed, mu2=1))]
        eqs = _equation_stack(spec, include_tg_int=False, include_gg_int=False)

    rep, ref = Report(f"normalization {case}"), f"normalization/{case}"
    for label, values in solutions:
        failures = [eq.name for eq in eqs if eq.residual_at(values)]
        rep.add(f"normalization {case}: solution {label} satisfies every equation", ref,
                not failures, failures)
    for label, values in mutations:
        rep.add(f"normalization {case}: mutation {label} violates at least one equation",
                ref, any(eq.residual_at(values) for eq in eqs))
    if case == "B0":
        # the identities excluded above are exactly the contradictory ones
        for letter in ("x", "y"):
            env = {"k": 0, "r": 1, "p": 0, "n": 0, "m": 0}
            res = bracket_residual(spec, ("G", N), ("G", M), letter, K, env)
            res = (res.num if isinstance(res, RatFunc) else res).substitute(printed)
            rep.notes.append(f"normalization {case}: integer fermionic square on {letter} "
                             f"is violated at the zero solution: residual {res}")
    return rep


# ---------------------------------------------------------------------------
# nonexistence of the exceptional B candidate
# ---------------------------------------------------------------------------

def gsquared_residual(spec: FamilySpec) -> Poly:
    """[G_n, G_n] - 2 L_{2n} as acting on x_k, symbolically in n and k."""
    return bracket_residual(spec, ("G", N), ("G", N), "x", K, {"n": 0, "k": 0})


def b0_nonexistence_check() -> Report:
    """The exceptional candidate cannot exist: its solved coefficients are
    all zero, yet the square of an integer fermionic mode must act as a
    nonzero Virasoro mode."""
    rep, ref = Report("nonexist-b0"), "nonexistence-witness"
    spec = b_zero_candidate(a="sym")
    res = gsquared_residual(spec)
    want = -2 * (Pa - Pk)
    rep.add("symbolic residual equals -2(a-k)", ref, res == want, str(res))
    rep.add("residual is nonzero as a polynomial", ref, bool(res), str(res))
    sample = res.substitute({"a": Fraction(1, 3), "k": 0, "n": 1})
    rep.add("numeric witness at n=1, k=0, a=1/3 equals -2/3", ref,
            sample == Poly.const(Fraction(-2, 3)), str(sample))
    control = gsquared_residual(aab())
    rep.add("control family satisfies the same identity", ref, not control, str(control))
    rep.notes.append(str({
        "identity": "square of an integer fermionic mode must equal twice a Virasoro mode",
        "composition": "0 (all solved coefficients vanish)",
        "bracket_side": "2(a-k) on the integer-weight line",
        "residual": str(res),
    }))
    return rep


# ---------------------------------------------------------------------------
# propagation of the basic fermionic recurrence
# ---------------------------------------------------------------------------

def recurrence_propagation_check() -> Report:
    """If one integer fermionic row of coefficients vanishes, the basic
    recurrence (the L-G identity on x at integer weights) forces every row
    to vanish, at every mode and weight index.

    The recurrence is linear and homogeneous in g(n, k), g(n, m+k) and
    g(m+n, k), so a zero row n forces a zero row m+n wherever the leading
    coefficient -(m/2 - n) is nonzero.  From row 1 that reaches every row
    but 3, since at n = 1 the coefficient vanishes only at m = 2; row 3
    follows from row -1 = 1 + (-2) with (m, n) = (4, -1).
    """
    rep = Report("propagation")

    def add(desc, ok, witness=None):
        rep.add(f"recurrence propagation: {desc}", "lemma/propagation", ok, witness)

    spec = generic_candidate("A")
    res = bracket_residual(spec, ("L", M), ("G", N), "x", K, {"m": 0, "n": 0, "k": 0})
    names = [nm for nm in res.variables() if "[" in nm]
    coeffs = linear_decompose(res, names)
    target = unknown_name("g", M + N, K)
    add("recurrence involves the shifted mode coefficient", target in coeffs)
    lead = coeffs.get(target, ZERO)
    shape = lead == -(HALF * Pm - Poly.var("n"))
    add("shifted-mode coefficient is -(m/2 - n)", shape, str(lead))
    at_1 = lead.substitute({"n": 1})
    stalls = (at_1.variables() == ("m",) and at_1.degree_in("m") == 1
              and not at_1.substitute({"m": 2}))
    add("with n=1 the propagation only stalls at m=2", stalls, str(at_1))
    stuck = lead.substitute({"m": 4, "n": -1})
    add("the (m,n)=(4,-1) instance reaches the stalled mode", stuck == Poly.const(-3),
        str(stuck))
    rows = {target, unknown_name("g", N, K), unknown_name("g", N, K + M)}
    add("zero propagation from row 1 covers every mode and weight index",
        set(coeffs) == rows and shape and stalls and bool(stuck))
    return rep


# ---------------------------------------------------------------------------
# intersection of the root-set constraints
# ---------------------------------------------------------------------------

# Parameter pairs at which the determinant constraints alone admit one
# off-diagonal survivor in the A analysis: a sporadic vanishing pair of one
# mixed-identity determinant coincides with a linear factor of the other.
# The published argument closes them only at the coefficient-solving stage.
SPORADIC_SURVIVORS_A = (
    (Fraction(-3, 2), Fraction(-1, 2)),
    (Fraction(-1), Fraction(0)),
    (Fraction(-1, 2), Fraction(-3, 2)),
    (Fraction(0), Fraction(-1)),
)


def _line(form: Poly) -> tuple:
    """The line form = 0 in the (b, bp) plane, form of degree 1, as
    (label, t, bindings): bp = l(b) read along t = b, or, when form has no
    bp, b = c read along t = bp.  Equal lines get equal labels."""
    lead = form.coeff_in("bp", 1)
    if lead:
        rhs = Pbp - form * (1 / lead.const_value())
        return f"bp = {rhs}", "b", {"bp": rhs}
    c = -form.coeff_in("b", 0).const_value() / form.coeff_in("b", 1).const_value()
    return f"b = {c}", "bp", {"b": c}


def _parts(poly: Poly, t: str) -> list:
    """The coefficients over Q[t] of `poly`, one per monomial in its other
    symbols."""
    mask = 255 << sym_shift(t)
    groups: dict[int, dict] = {}
    for key, c in poly.num.items():
        groups.setdefault(key & ~mask, {})[key & mask] = c
    return [from_pair(num, poly.den) for num in groups.values()]


def _common_zeros(polys, t: str, bindings: dict):
    """Where every polynomial of `polys` vanishes identically in its other
    symbols on the line `bindings` read along t (`_line`): None on the
    whole line, else (points, cofactor), the points (b, bp) at the rational
    roots of their gcd over Q[t] and the cofactor of the gcd that has no
    rational root."""
    g = univariate_gcd((part for f in polys for part in _parts(f.substitute(bindings), t)), t)
    if not g:
        return None
    roots, cofactor = rational_roots(g, t)
    if t == "b":
        points = {(r, bindings["bp"].evaluate({"b": r})) for r in roots}
    else:
        points = {(bindings["b"], r) for r in roots}
    return points, cofactor


def _case_a_lines(sets1: list, sets2: list) -> tuple[dict, list]:
    """Lines that hold every point common to the two weight classes' root
    sets, keyed by label, and the quadratic pairs that give no line.

    A point on a component of each class lies on one of them that is a
    line, or on two quadratics; their leading forms are both (b + bp)^2,
    so it lies on the line Q1 - Q2 = 0.  A difference that is zero or of
    degree above 1 voids that argument; a nonzero constant one means that
    the two quadratics do not meet."""
    lines, unlined = {}, []
    for rs in sets1 + sets2:
        for root in rs.linear_roots:
            label, *line = _line(Pbp - root)
            lines.setdefault(label, line)
    for rs1 in sets1:
        for rs2 in sets2:
            diff = rs1.quad.as_poly() - rs2.quad.as_poly()
            degree = max((sum(exps) for exps, _ in diff.monomials()), default=-1)
            if degree == 1:
                label, *line = _line(diff)
                lines.setdefault(label, line)
            elif degree != 0:
                unlined.append(f"the quadratics of {rs1.name} and {rs2.name} differ by {diff}")
    return lines, unlined


def intersection_scan(case: str) -> Report:
    """Reproduce the allowed-bp conclusion, for every b.

    Case A: a pair (b, bp) survives when it lies on a root set of each
    weight class and both mixed-identity determinants vanish there,
    identically in a, m, p and k.  Every common point of the two classes
    lies on one of finitely many lines (`_case_a_lines`).  On each line the
    scan takes the gcd over Q[t] of the two classes' component products
    and of the determinants' coefficients, restricted to the line
    (`_common_zeros`): a zero gcd means the whole line survives, and
    otherwise its roots are the survivors on the line.  So the scan decides
    every b, complex b included.  It passes when the diagonal bp = b is
    the one whole surviving line, every gcd splits over Q, the survivors
    off the diagonal are the four documented sporadic coincidences, and
    each of them zeroes both determinants (`delta3_vanishes_at`).  A root
    set that fails its checks fails the scan, whose witness then names it.

    Case B holds for every b: in each weight class, bp = b - 1/2 and
    bp = b + 1/2 must each annihilate one of that class's T-system
    determinants identically in b.
    """
    if case == "B":
        rep = Report("intersection (B)")
        missing = [f"bp = {bp} on {kclass} weights"
                   for kclass in ("int", "half") for bp in (Pb - HALF, Pb + HALF)
                   if all(system_determinant("LLT", "B", fam, kclass).substitute({"bp": bp})
                          for fam in ("f", "fp"))]
        rep.add("intersection (B): in each weight class, bp = b-1/2 and bp = b+1/2 each "
                "annihilate a T-system determinant for every b", "intersection/B",
                not missing, missing)
        return rep
    if case != "A":
        raise ValueError(f"unknown intersection case {case!r}")
    rep = Report("intersection (A)")
    name = "intersection (A): survivors match the classification for every b"
    sets1 = [root_set("f-int"), root_set("fp-int")]
    sets2 = [root_set("f-half"), root_set("fp-half")]
    failed = [rs.name for rs in sets1 + sets2 if not rs.ok]  # their components are not read
    if failed:
        rep.add(name, "intersection/A", False, failed)
        return rep
    lines, problems = _case_a_lines(sets1, sets2)
    polys = [prod((c for rs in sets for c in rs.components), start=ONE) for sets in (sets1, sets2)]
    polys += [system_determinant("LLG", "A", *_DELTA3_SYSTEM[w]) for w in ("3", "3p")]
    whole, survivors = [], set()
    for label, line in lines.items():
        found = _common_zeros(polys, *line)
        if found is None:
            whole.append(label)
            continue
        points, cofactor = found
        if not cofactor.is_const():
            problems.append(f"on {label}, the cofactor {cofactor} has no rational root")
        survivors |= {(bv, bpv) for bv, bpv in points if bv != bpv}
    if whole != ["bp = b"]:
        problems.append(f"whole surviving lines {whole}, not the diagonal alone")
    documented = set(SPORADIC_SURVIVORS_A)
    for what, pairs in (("undocumented", survivors - documented),
                        ("documented but not derived", documented - survivors)):
        if pairs:
            problems.append(f"{what} survivors {[f'({bv}, {bpv})' for bv, bpv in sorted(pairs)]}")
    problems += [f"a determinant does not vanish at ({bv}, {bpv})" for bv, bpv in sorted(survivors)
                 if not (delta3_vanishes_at("3", bv, bpv) and delta3_vanishes_at("3p", bv, bpv))]
    for bv in sorted({bv for bv, _ in survivors & documented}):
        rep.notes.append(f"intersection (A): documented sporadic survivor at b={bv}: "
                         f"{[str(bpv) for b0, bpv in sorted(survivors & documented) if b0 == bv]}")
    rep.add(name, "intersection/A", not problems, problems)
    return rep
