"""Bracket table, grading, and the graded Jacobi identity."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistn2 import algebra
from twistn2.algebra import (C, G, Gen, L, T, bracket, bracket_terms,
                             generators_in_window, jacobi_residual, parity,
                             super_jacobi_sweep)
from twistn2.indices import SymIndex
from twistn2.poly import Poly, format_rational

H = Fraction(1, 2)


def test_parity():
    assert parity(L(3)) == 0
    assert parity(G(H)) == 1
    assert parity(T(Fraction(3, 2))) == 0
    assert parity(C) == 0


def test_halfint_hash_agrees_with_equality():
    assert SymIndex(2) == 1 and 1 in {SymIndex(2)}
    assert SymIndex(1) == H and Fraction(1, 2) in {SymIndex(1)}
    assert SymIndex(-3) in {Fraction(-3, 2)}


@st.composite
def index_values(draw):
    """One index value as a SymIndex, an int or a Fraction: constant or
    (for a SymIndex) with a symbolic part, and for a Fraction possibly off
    the half-integers."""
    doubled = draw(st.integers(-40, 40))
    kind = draw(st.sampled_from(("const", "sym-var", "int", "fraction", "third")))
    if kind == "const":
        return SymIndex(doubled)
    if kind == "sym-var":
        return SymIndex(doubled, (("k", draw(st.integers(-2, 2))),))
    if kind == "int":
        return doubled // 2
    if kind == "third":
        return Fraction(doubled, 3)
    return Fraction(doubled, 2)


@given(index_values(), index_values())
@example(SymIndex(2), Fraction(1, 3))
@settings(max_examples=300, deadline=None)
def test_equal_indices_hash_equal(x, y):
    if x == y:
        assert hash(x) == hash(y)
        assert x in {y} and y in {x}


def test_index_off_the_half_integers_is_unequal():
    assert (SymIndex(2) == Fraction(1, 3)) is False
    assert (Fraction(1, 3) == SymIndex(2)) is False
    assert SymIndex(2) != Fraction(1, 3)
    assert (SymIndex.var("m") == Fraction(1, 3)) is False


@given(st.integers(-60, 60), st.integers(-60, 60))
@settings(max_examples=200, deadline=None)
def test_constant_indices_agree_with_fractions(d1, d2):
    i1, i2 = SymIndex(d1), SymIndex(d2)
    f1, f2 = Fraction(d1, 2), Fraction(d2, 2)
    assert i1 + i2 == f1 + f2 and (i1 + i2).value == f1 + f2
    assert i1 - i2 == f1 - f2 and (i1 - i2).value == f1 - f2
    assert -i1 == -f1 and (-i1).value == -f1
    assert (i1 == i2) == (f1 == f2)
    assert i1 == f1 and hash(i1) == hash(f1)
    assert i1.parity() == d1 % 2 == (0 if f1.denominator == 1 else 1)
    assert i1.is_integer() == (f1.denominator == 1) != i1.is_half_odd()
    assert str(i1) == format_rational(f1)
    assert i1.const_value() is i1 and type(i1.value) is Fraction


def test_index_constructors():
    assert SymIndex.of("3/2") == SymIndex(3) == Fraction(3, 2)
    assert SymIndex.of("-2") == SymIndex(-4)
    assert SymIndex.of(Fraction(-1, 2)) == SymIndex(-1)
    m = SymIndex.var("m")
    assert m.lin == (("m", 1),) and m.doubled == 0 and SymIndex.of(m) is m
    assert str(m + SymIndex.of("1/2")) == "m+1/2"
    for bad in ("m", "1/3", Fraction(1, 3)):
        with pytest.raises(ValueError):
            SymIndex.of(bad)
    with pytest.raises(TypeError):
        SymIndex(Fraction(1, 2))
    with pytest.raises(ValueError):
        m.const_value()
    with pytest.raises(KeyError):
        m.parity()
    assert (m + 1).parity({"m": 1}) == 1


def test_label_validation():
    with pytest.raises(ValueError):
        L(H)
    with pytest.raises(ValueError):
        T(1)
    with pytest.raises(ValueError):
        Gen("C", SymIndex(2))
    with pytest.raises(ValueError):
        Gen("X", SymIndex(0))
    with pytest.raises(ValueError):
        Gen("L", SymIndex.var("m"))


def test_virasoro_bracket_with_central_term():
    assert bracket(L(2), L(-2)) == {L(0): Fraction(4), C: Fraction(1, 2)}


def test_current_modes_pair_to_the_center():
    assert bracket(T(H), T(-H)) == {C: Fraction(1, 6)}
    assert bracket(T(H), T(Fraction(3, 2))) == {}


def test_virasoro_on_fermions_can_vanish():
    assert bracket(L(1), G(H)) == {}
    assert bracket(L(2), G(H)) == {G(Fraction(5, 2)): H}


def test_fermion_pair_integer_total():
    assert bracket(G(H), G(Fraction(3, 2))) == {L(2): Fraction(-2)}
    assert bracket(G(0), G(0)) == {L(0): Fraction(2), C: Fraction(-1, 12)}


def test_fermion_pair_half_odd_total():
    assert bracket(G(H), G(1)) == {T(Fraction(3, 2)): Fraction(-1, 2)}


def test_central_element_is_central():
    for g in generators_in_window(2):
        assert bracket(C, g) == {}
        assert bracket(g, C) == {}


WINDOW_GENS = generators_in_window(2)
gen_strategy = st.sampled_from(WINDOW_GENS)


@given(gen_strategy, gen_strategy)
@settings(max_examples=150, deadline=None)
def test_super_antisymmetry(g1, g2):
    sign = -1 if parity(g1) and parity(g2) else 1
    fwd = bracket(g1, g2)
    rev = bracket(g2, g1)
    assert rev == {g: -sign * c for g, c in fwd.items()}


@given(gen_strategy, gen_strategy)
@settings(max_examples=150, deadline=None)
def test_index_and_parity_additivity(g1, g2):
    want_parity = (parity(g1) + parity(g2)) % 2
    idx1 = g1.idx.doubled if g1.idx is not None else 0
    idx2 = g2.idx.doubled if g2.idx is not None else 0
    for g in bracket(g1, g2):
        got = g.idx.doubled if g.idx is not None else 0
        assert got == idx1 + idx2
        assert parity(g) == want_parity


@given(gen_strategy.filter(lambda g: g.kind != "C"),
       gen_strategy.filter(lambda g: g.kind != "C"),
       st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_symbolic_bracket_at_concrete_indices(g1, g2, off1, off2):
    # index i = symbol + offset, the symbol's parity class read off the value
    values = {"p": (g1.idx - SymIndex(off1)).value, "q": (g2.idx - SymIndex(off2)).value}
    env = {nm: SymIndex.of(v).parity() for nm, v in values.items()}
    i1 = SymIndex.var("p") + SymIndex(off1)
    i2 = SymIndex.var("q") + SymIndex(off2)
    got = {}
    for kind, idx, coeff in bracket_terms(g1.kind, i1, g2.kind, i2, env):
        value = coeff.substitute(values) if isinstance(coeff, Poly) else Poly.const(coeff)
        if value:
            got[Gen(kind, idx.substitute(values).const_value())] = value.const_value()
    assert got == {g: c for g, c in bracket(g1, g2).items() if g.kind != "C"}


def test_bracket_terms_at_concrete_indices_ignore_env():
    # one path: concrete indices give Fraction coefficients, env or not
    gens = [g for g in WINDOW_GENS if g.kind != "C"]
    for g1, g2 in product(gens, gens):
        plain = bracket_terms(g1.kind, g1.idx, g2.kind, g2.idx)
        with_env = bracket_terms(g1.kind, g1.idx, g2.kind, g2.idx, {"m": 0})
        assert plain == with_env
        assert all(type(c) is Fraction for *_, c in plain)
        got = {}
        for kind, idx, c in plain:
            algebra.add_term(got, Gen(kind, idx), c)
        assert got == {g: c for g, c in bracket(g1, g2).items() if g.kind != "C"}


def test_jacobi_for_pure_virasoro_triple():
    assert jacobi_residual(L(1), L(2), L(3)) == {}


def test_jacobi_mixed_triple_expands_to_equal_sides():
    x, y, z = L(1), G(H), G(0)
    # left side and the two right-side terms, expanded independently
    lhs = {}
    for g, c in bracket(y, z).items():
        for g2, c2 in bracket(x, g).items():
            lhs[g2] = lhs.get(g2, Fraction(0)) + c * c2
    rhs = {}
    for g, c in bracket(x, y).items():
        for g2, c2 in bracket(g, z).items():
            rhs[g2] = rhs.get(g2, Fraction(0)) + c * c2
    for g, c in bracket(x, z).items():
        for g2, c2 in bracket(y, g).items():
            rhs[g2] = rhs.get(g2, Fraction(0)) + c * c2
    assert {g: c for g, c in lhs.items() if c} == {g: c for g, c in rhs.items() if c}
    assert jacobi_residual(x, y, z) == {}


def test_jacobi_sweep_small_window():
    report = super_jacobi_sweep(1)
    assert report.ok
    assert report.triples_checked == len(generators_in_window(1)) ** 3


def test_jacobi_sweep_window_three():
    report = super_jacobi_sweep(3)
    assert report.triples_checked == 27 ** 3 == 19683
    assert report.ok


def reference_sweep(window):
    """(triples_checked, violations) from `jacobi_residual`, one triple at a
    time, as the sweep reports them."""
    gens = generators_in_window(window)
    violations = []
    for x, y, z in product(gens, repeat=3):
        res = jacobi_residual(x, y, z)
        if res:
            violations.append((x, y, z, {str(g): c for g, c in res.items()}))
    return len(gens) ** 3, violations


def _double_l_central(orig):
    return lambda kind, i: 2 * orig(kind, i) if kind == "L" else orig(kind, i)


def _flip_g_central(orig):
    return lambda kind, i: -orig(kind, i) if kind == "G" else orig(kind, i)


def _double_tg(orig):
    # [G, T] is defined through [T, G], which reads the patched global
    def terms(k1, i1, k2, i2, env=None):
        out = orig(k1, i1, k2, i2, env)
        if (k1, k2) == ("T", "G"):
            out = [(k, i, 2 * c) for k, i, c in out]
        return out
    return terms


@pytest.mark.parametrize("target, mutate", [
    (None, None),
    ("_central", _double_l_central),
    ("_central", _flip_g_central),
    ("bracket_terms", _double_tg),
], ids=["clean", "L-central-doubled", "G-central-sign", "TG-doubled"])
@pytest.mark.parametrize("window", [1, 2])
def test_jacobi_sweep_equals_reference(monkeypatch, window, target, mutate):
    if target is not None:
        monkeypatch.setattr(algebra, target, mutate(getattr(algebra, target)))
    report = super_jacobi_sweep(window)
    want = reference_sweep(window)
    assert (report.triples_checked, report.violations) == want
    assert repr(report.violations) == repr(want[1])
    if window == 2:
        # at window 1 the L central term vanishes on every pair it reads
        assert report.ok == (target is None)
