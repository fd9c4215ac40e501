"""Differential oracle: Poly arithmetic, substitution, exact_divide and the
T-system determinants against sympy.

Skipped when sympy is not installed; the lab itself never imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistn2.constraints import (build_identity_system, delta1_printed, delta2_printed,
                                 system_determinant)
from twistn2.poly import NotDivisible, Poly, exact_divide, sym_name

sympy = pytest.importorskip("sympy")

NAMES = ("a", "b", "m")
SYMS = sympy.symbols(NAMES)
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
scalars = st.one_of(st.integers(-6, 6), fractions)


@st.composite
def polys(draw, max_terms=4):
    p = Poly.const(0)
    for _ in range(draw(st.integers(0, max_terms))):
        term = Poly.const(draw(scalars))
        for name in NAMES:
            term = term * Poly.var(name) ** draw(st.integers(0, 2))
        p = p + term
    return p


def to_sympy(p) -> "sympy.Expr":
    if isinstance(p, (int, Fraction)):
        return sympy.Rational(p.numerator, p.denominator)
    out = sympy.Integer(0)
    for exps, coeff in p.terms.items():
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


binding_values = st.one_of(scalars, fractions.map(Poly.const), polys(max_terms=2))


@given(polys(), st.dictionaries(st.sampled_from(NAMES), binding_values, max_size=3))
@settings(max_examples=80, deadline=None)
def test_substitute_agrees_with_simultaneous_subs(p, bindings):
    theirs = to_sympy(p).subs({sympy.Symbol(name): to_sympy(val)
                               for name, val in bindings.items()}, simultaneous=True)
    assert same(p.substitute(bindings), theirs)


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
