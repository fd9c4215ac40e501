"""Differential oracle: Poly arithmetic, substitution, exact_divide and the
T-system determinants against sympy.

Skipped when sympy is not installed; the lab itself never imports it.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistn2.constraints import (SPORADIC_SURVIVORS_A, build_identity_system, delta1_printed,
                                 delta2_printed, root_set, system_determinant)
from twistn2 import constraints, poly
from twistn2.indices import SymIndex
from twistn2.modules import unknown_name
from twistn2.poly import (NotDivisible, ONE, Poly, exact_divide, rational_roots, sym_name,
                          univariate_gcd)

from test_poly import assert_canonical

sympy = pytest.importorskip("sympy")

NAMES = ("a", "b", "m")
SYMS = sympy.symbols(NAMES)
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
scalars = st.one_of(st.integers(-6, 6), fractions)


nonintegral = fractions.filter(lambda f: f.denominator > 1)


@st.composite
def polys(draw, max_terms=4, coeffs=scalars):
    p = Poly.const(0)
    for _ in range(draw(st.integers(0, max_terms))):
        term = Poly.const(draw(coeffs))
        for name in NAMES:
            term = term * Poly.var(name) ** draw(st.integers(0, 2))
        p = p + term
    return p


def to_sympy(p) -> "sympy.Expr":
    if isinstance(p, (int, Fraction)):
        return sympy.Rational(p.numerator, p.denominator)
    out = sympy.Integer(0)
    for exps, coeff in p.monomials():
        mono = sympy.Rational(coeff.numerator, coeff.denominator)
        for slot, e in enumerate(exps):
            mono *= sympy.Symbol(sym_name(slot)) ** e
        out += mono
    return out


def same(ours, theirs) -> bool:
    return sympy.expand(to_sympy(ours) - theirs) == 0


@given(polys(), polys(), scalars)
@settings(max_examples=80, deadline=None)
def test_ring_operations_agree_with_sympy(p, q, s):
    sp, sq, ss = to_sympy(p), to_sympy(q), to_sympy(s)
    assert same(p + q, sp + sq)
    assert same(p - q, sp - sq)
    assert same(p * q, sp * sq)
    assert same(-p, -sp)
    assert same(p ** 3, sp ** 3)
    # scalar operands on either side
    assert same(p + s, sp + ss) and same(s + p, ss + sp)
    assert same(p - s, sp - ss) and same(s - p, ss - sp)
    assert same(p * s, sp * ss) and same(s * p, ss * sp)
    assert (p == q) == (sympy.expand(sp - sq) == 0)


@given(polys(), polys(max_terms=3), st.booleans(), polys(max_terms=2))
@settings(max_examples=80, deadline=None)
def test_exact_divide_agrees_with_sympy_div(den, quot, perturb, extra):
    assume(den)
    num = den * quot + (extra if perturb else Poly.const(0))
    quotient, remainder = sympy.div(to_sympy(num), to_sympy(den), *SYMS, domain="QQ")
    try:
        ours = exact_divide(num, den)
    except NotDivisible:
        assert remainder != 0
    else:
        assert remainder == 0
        assert same(ours, quotient)


# an unknown coefficient's symbol, at a mode no report reads: a registry
# slot after every core symbol, whose field sits past bit 224
LATE = unknown_name("g", SymIndex(99), SymIndex(-77))


@st.composite
def late_polys(draw, max_terms=3):
    p = Poly.const(0)
    for _ in range(draw(st.integers(0, max_terms))):
        term = Poly.const(draw(scalars))
        for name in ("a", LATE):
            term = term * Poly.var(name) ** draw(st.integers(0, 3))
        p = p + term
    return p


@given(late_polys(), late_polys(), st.booleans(), late_polys(max_terms=2))
@settings(max_examples=80, deadline=None)
def test_products_and_division_in_a_late_slot_agree_with_sympy(den, quot, perturb, extra):
    assume(den)
    assert poly._SLOT[LATE] >= len(poly.CORE_SYMBOLS)
    sden, squot = to_sympy(den), to_sympy(quot)
    assert same(den * quot, sden * squot)
    assert same(den ** 2 * quot, sden ** 2 * squot)
    num = den * quot + (extra if perturb else Poly.const(0))
    quotient, remainder = sympy.div(to_sympy(num), sden, sympy.Symbol("a"),
                                    sympy.Symbol(LATE), domain="QQ")
    try:
        ours = exact_divide(num, den)
    except NotDivisible:
        assert remainder != 0
    else:
        assert remainder == 0
        assert same(ours, quotient)


binding_values = st.one_of(scalars, fractions.map(Poly.const), polys(max_terms=2))


@given(polys(), st.dictionaries(st.sampled_from(NAMES), binding_values, max_size=3))
@settings(max_examples=80, deadline=None)
def test_substitute_agrees_with_simultaneous_subs(p, bindings):
    theirs = to_sympy(p).subs({sympy.Symbol(name): to_sympy(val)
                               for name, val in bindings.items()}, simultaneous=True)
    assert same(p.substitute(bindings), theirs)


# products and substitution run in ints over one common denominator; these
# draw non-integral coefficients and values so that path does the work
@given(polys(coeffs=nonintegral), polys(coeffs=nonintegral), nonintegral)
@settings(max_examples=80, deadline=None)
def test_products_with_fractional_coefficients_agree_with_sympy(p, q, s):
    sp, sq, ss = to_sympy(p), to_sympy(q), to_sympy(s)
    for ours, theirs in ((p * q, sp * sq), (p * s, sp * ss), (s * p, ss * sp),
                         (p * p * q, sp * sp * sq)):
        assert same(ours, theirs)
        assert_canonical(ours)


@st.composite
def fractional_bindings(draw, kind):
    """{name: value} with scalar, Poly-valued or mixed values."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    scalar = st.one_of(nonintegral, fractions)
    poly = polys(max_terms=2, coeffs=nonintegral)
    value = {"scalar": scalar, "poly": poly, "mixed": st.one_of(scalar, poly)}[kind]
    return {name: draw(value) for name in names}


@pytest.mark.parametrize("kind", ["scalar", "poly", "mixed"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_substitute_with_fractional_bindings_agrees_with_sympy(kind, data):
    p = data.draw(polys(coeffs=st.one_of(nonintegral, scalars)))
    bindings = data.draw(fractional_bindings(kind))
    theirs = to_sympy(p).subs({sympy.Symbol(name): to_sympy(val)
                               for name, val in bindings.items()}, simultaneous=True)
    ours = p.substitute(bindings)
    assert same(ours, theirs)
    assert_canonical(ours)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=60)


@given(polys(coeffs=st.one_of(nonintegral, scalars)), rationals, rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_evaluate_at_rationals_agrees_with_sympy(p, x, y, z):
    point = dict(zip(NAMES, (x, y, z)))
    ours = p.evaluate(point)
    theirs = to_sympy(p).subs({sympy.Symbol(name): to_sympy(v) for name, v in point.items()})
    assert type(ours) is Fraction
    assert sympy.Rational(ours.numerator, ours.denominator) == theirs
    assert_canonical(p.substitute(point))


def factors(expr) -> tuple:
    """sympy's factorization as (content, {irreducible factor: multiplicity})."""
    content, parts = sympy.factor_list(expr)
    return content, dict(parts)


@pytest.mark.parametrize("fam, printed", [("f", delta1_printed), ("fp", delta2_printed)])
def test_t_system_determinant_and_factors_agree_with_sympy(fam, printed):
    system = build_identity_system("LLT", "A", fam, "int")
    matrix = sympy.Matrix([[to_sympy(entry) for entry in row] for row in system.matrix])
    det = to_sympy(system_determinant("LLT", "A", fam, "int"))
    assert sympy.expand(matrix.det(method="berkowitz") - det) == 0
    assert factors(det) == factors(to_sympy(printed()))



# one-symbol polynomials in b: a nonzero scale times rational linear
# factors and at most one irreducible quadratic, b^2 + d with d > 0 or
# b^2 - d with d a prime
B = sympy.Symbol("b")
irreducible = st.one_of(st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7),
                        st.sampled_from((-2, -3, -5, -7)))
univariates = st.tuples(fractions.filter(bool), st.lists(fractions, max_size=4),
                        st.one_of(st.none(), irreducible))


def univariate(scale, roots, quad_d) -> Poly:
    x = Poly.var("b")
    f = Poly.const(scale) * (ONE if quad_d is None else x * x + quad_d)
    for root in roots:
        f = f * (x - root)
    return f


def monic(expr) -> "sympy.Poly":
    p = sympy.Poly(expr, B, domain="QQ")
    return p if p.is_zero else p.monic()


@given(st.lists(univariates, max_size=4), st.lists(fractions, max_size=2))
@settings(max_examples=80, deadline=None)
def test_univariate_gcd_agrees_with_sympy(drawn, shared):
    # the shared roots make a common factor more likely than chance would
    fs = [univariate(scale, roots + shared, d) for scale, roots, d in drawn]
    theirs = sympy.Integer(0)
    for f in fs:
        theirs = sympy.gcd(theirs, to_sympy(f))
    assert monic(to_sympy(univariate_gcd(fs, "b"))) == monic(theirs)


@given(univariates)
@settings(max_examples=80, deadline=None)
def test_rational_roots_agree_with_sympy(drawn):
    f = univariate(*drawn)
    roots, cofactor = rational_roots(f, "b")
    theirs = sympy.roots(sympy.Poly(to_sympy(f), B, domain="QQ"), filter="Q")
    assert roots == sorted(Fraction(int(r.p), int(r.q))
                           for r, mult in theirs.items() for _ in range(mult))
    assert same(f, sympy.expand(to_sympy(cofactor) * sympy.prod([B - to_sympy(r) for r in roots])))
    assert not sympy.roots(sympy.Poly(to_sympy(cofactor), B, domain="QQ"), filter="Q")


def test_case_a_common_zeros_agree_with_sympy():
    # on each line of the exact case-A scan: sympy's gcd of the restricted
    # class products and determinant coefficients, and its rational roots
    sets1 = [root_set("f-int"), root_set("fp-int")]
    sets2 = [root_set("f-half"), root_set("fp-half")]
    lines, unlined = constraints._case_a_lines(sets1, sets2)
    assert not unlined and len(lines) == 8
    polys = [sympy.prod([to_sympy(c) for rs in sets for c in rs.components])
             for sets in (sets1, sets2)]
    polys += [to_sympy(system_determinant("LLG", "A", fam, kclass))
              for fam, kclass in (("g", "int"), ("gp", "half"))]
    ours = [prod((c for rs in sets for c in rs.components), start=ONE)
            for sets in (sets1, sets2)]
    ours += [system_determinant("LLG", "A", fam, kclass)
             for fam, kclass in (("g", "int"), ("gp", "half"))]
    others = sympy.symbols("a m p k")
    off_diagonal = set()
    for label, (t, bindings) in lines.items():
        subs = {sympy.Symbol(name): to_sympy(v) for name, v in bindings.items()}
        g = sympy.Integer(0)
        for expr in polys:
            restricted = sympy.expand(expr.subs(subs, simultaneous=True))
            for coeff in sympy.Poly(restricted, *others).coeffs():
                g = sympy.gcd(g, coeff)
        found = constraints._common_zeros(ours, t, bindings)
        if g == 0:
            assert found is None, label
            continue
        points, cofactor = found
        tx = sympy.Symbol(t)
        rational = sympy.roots(sympy.Poly(g, tx, domain="QQ"), filter="Q")
        at = {Fraction(int(r.p), int(r.q)) for r in rational}
        assert {(bv if t == "b" else bpv) for bv, bpv in points} == at, label
        assert cofactor.is_const() == (sum(rational.values()) == sympy.degree(g, tx)), label
        off_diagonal |= {(bv, bpv) for bv, bpv in points if bv != bpv}
    assert off_diagonal == set(SPORADIC_SURVIVORS_A)
