"""Differential oracle: Poly arithmetic and exact_divide against sympy.

Skipped when sympy is not installed; the lab itself never imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
        term = Poly.const(draw(fractions))
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
