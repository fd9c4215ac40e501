"""Exact polynomial kernel: canonical forms, division, substitution."""

from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistn2 import poly
from twistn2.poly import (KroneckerPoint, NotDivisible, ONE, Poly, QuadRootData, RatFunc,
                          WrongDegree, ZERO, exact_divide, format_rational,
                          parse_rational, quadratic_root_data, rational_roots,
                          sym_name, univariate_gcd)

b = Poly.var("b")
bp = Poly.var("bp")
m = Poly.var("m")
r = Poly.var("r")
k = Poly.var("k")


def test_structural_equality_is_order_independent():
    assert b * m == m * b
    assert (b + m) * (b - m) == b * b - m * m


def test_constants_and_scalars():
    assert Poly.const(0) == ZERO
    assert 2 * ONE + 1 == Poly.const(3)
    assert (b - b) == ZERO
    assert Poly.const(Fraction(1, 2)) * 2 == ONE


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# ints and Fractions, integral ones among them, as coefficients are given
small_scalars = st.one_of(st.integers(-4, 4), small_fractions)


@st.composite
def polys(draw, vars=("b", "m", "k"), max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    p = ZERO
    for _ in range(n_terms):
        coeff = draw(small_scalars)
        term = Poly.const(coeff)
        for v in vars:
            term = term * Poly.var(v) ** draw(st.integers(0, 2))
        p = p + term
    return p


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, s):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + s == p + (q + s)
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_exact_divide_inverts_multiplication(p, q):
    if not q:
        return
    assert exact_divide(p * q, q) == p


def substitute_by_ring_ops(p, bindings):
    """Reference substitution: rebuild p term by term with ring operations,
    every symbol read against p itself."""
    out = ZERO
    for exps, coeff in p.monomials():
        term = Poly.const(coeff)
        for slot, e in enumerate(exps):
            val = bindings.get(sym_name(slot), Poly.var(sym_name(slot)))
            term = term * (val if isinstance(val, Poly) else Poly.const(val)) ** e
        out = out + term
    return out


# int, Fraction, constant-Poly and polynomial values; the polynomial ones
# may contain the bound symbols themselves, so order of binding matters
binding_values = st.one_of(st.integers(-3, 3), small_fractions,
                           small_fractions.map(Poly.const), polys(max_terms=2))
bindings_of = st.dictionaries(st.sampled_from(("b", "m", "k")), binding_values, max_size=3)


@given(polys(), polys(), bindings_of, small_fractions)
@settings(max_examples=60, deadline=None)
def test_substitute_is_a_ring_homomorphism(p, q, bindings, v):
    sub_p, sub_q = p.substitute(bindings), q.substitute(bindings)
    assert sub_p == substitute_by_ring_ops(p, bindings)
    assert (p + q).substitute(bindings) == sub_p + sub_q
    assert (p * q).substitute(bindings) == sub_p * sub_q
    assert p.substitute({"b": Poly.const(v)}) == p.substitute({"b": v})


def is_canonical(c) -> bool:
    """An int exactly when integral, else a Fraction with denominator > 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_pair(p: Poly) -> None:
    """The stored pair num/den is canonical: den > 0, no numerator zero,
    and no factor common to den and every numerator."""
    assert type(p.den) is int and p.den > 0, p.den
    assert all(type(c) is int and c for c in p.num.values()), p.num
    assert gcd(p.den, *p.num.values()) == 1, (p.num, p.den)


def assert_canonical(p: Poly) -> None:
    assert_pair(p)
    assert all(is_canonical(c) for c in p.terms.values()), p.terms


@given(polys(), polys(), small_scalars, bindings_of, st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_every_coefficient_is_canonical(p, q, s, bindings, power):
    assert_canonical(p)
    for out in (p + q, p - q, p + s, s + p, p - s, s - p, -p, p * q, p * s, s * p,
                p ** power, p.substitute(bindings), p.coeff_in("b", 1),
                p.coeff_in("m", 0)):
        assert_canonical(out)
    if q:
        assert_canonical(exact_divide(p * q, q))
        assert_canonical(exact_divide(q * (p + s), q))
    # a value read as a scalar stays a Fraction, so a caller may divide by it
    value = p.evaluate({"b": s, "m": 2, "k": Fraction(1, 3)})
    assert type(value) is Fraction
    assert type(Poly.const(s).const_value()) is Fraction
    assert type(ZERO.const_value()) is Fraction


def canonical_map(acc: dict) -> dict:
    """A map of rationals in the canonical coefficient form: zeros dropped,
    an int where integral, else a Fraction."""
    return {key: c.numerator if c.denominator == 1 else c
            for key, c in ((key, Fraction(c)) for key, c in acc.items()) if c}


def typed(terms) -> dict:
    return {key: (type(c), c) for key, c in terms.items()}


def sum_map(t1, t2, sign: int = 1) -> dict:
    acc = dict(t1)
    for key, c in t2.items():
        acc[key] = acc.get(key, 0) + sign * c
    return canonical_map(acc)


def product_map(t1, t2) -> dict:
    acc: dict = {}
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            acc[k1 + k2] = acc.get(k1 + k2, 0) + Fraction(c1) * c2
    return canonical_map(acc)


def with_negative_lead(q: Poly) -> Poly:
    """q or -q, whichever has a negative coefficient at the largest key."""
    return q if q.num[max(q.num)] < 0 else -q


# term maps as a caller may pass them: zeros, integral Fractions and floats
loose_maps = st.dictionaries(st.sampled_from((0, 1, 1 << 8, 2 << 8, 1 << 16 | 1, 3)),
                             st.one_of(small_scalars, st.sampled_from((0, 0.5, -2.0))),
                             max_size=5)


@given(polys(), polys(), small_scalars, bindings_of, st.integers(0, 3), loose_maps)
@settings(max_examples=80, deadline=None)
def test_every_operation_leaves_a_canonical_pair_with_the_old_terms(p, q, s, bindings,
                                                                    power, loose):
    sp = Poly.const(s)
    results = [
        (p + q, sum_map(p.terms, q.terms)),
        (p - q, sum_map(p.terms, q.terms, -1)),
        (p + s, sum_map(p.terms, sp.terms)),
        (s - p, sum_map(sp.terms, p.terms, -1)),
        (-p, sum_map({}, p.terms, -1)),
        (p * q, product_map(p.terms, q.terms)),
        (p * s, product_map(p.terms, sp.terms)),
        (sp * p, product_map(sp.terms, p.terms)),
        (p ** power, None),
        (p.substitute(bindings), substitute_by_ring_ops(p, bindings).terms),
        (p.coeff_in("b", 1), None),
        (Poly(loose), canonical_map(loose)),
        (Poly(canonical_map(loose)), canonical_map(loose)),
    ]
    if q:
        results.append((exact_divide(p * q, q), p.terms))
    for out, want in results:
        assert_canonical(out)
        if want is not None:
            assert typed(out.terms) == typed(want)
    shift = poly.sym_shift("b")
    assert typed(p.coeff_in("b", 1).terms) == typed(canonical_map(
        {key - (1 << shift): c for key, c in p.terms.items() if key >> shift & 255 == 1}))


@given(polys(), polys(max_terms=3), st.integers(-7, 7).filter(bool))
@settings(max_examples=80, deadline=None)
def test_exact_divide_by_a_negative_lead_keeps_the_denominator_positive(p, q, scale):
    # a lead that does not divide the remainder's makes the division scale
    # it; a negative lead must not carry its sign into the denominator
    if not q:
        return
    q = with_negative_lead(q * scale)
    quotient = exact_divide(p * q, q)
    assert_canonical(quotient)
    assert quotient == p
    assert exact_divide(q, q) == ONE and exact_divide(-q, q) == -ONE


def by_exponents(p: Poly) -> dict:
    return dict(p.monomials())


def test_canonical_coefficient_examples():
    # the packed key 0 is the constant monomial
    assert Poly({0: Fraction(4, 2)}) == Poly.const(2)
    assert type(by_exponents(Poly({0: Fraction(4, 2)}))[()]) is int
    assert type(by_exponents(Poly.const(True))[()]) is int
    assert type(by_exponents(Poly.const(0.5))[()]) is Fraction
    assert by_exponents(Poly.var("b")) == {(0, 1): 1}
    half = Poly.const(Fraction(1, 2)) * b
    assert type(by_exponents(half * 2)[(0, 1)]) is int
    assert type(by_exponents(half + half)[(0, 1)]) is int
    assert type(by_exponents(exact_divide(b * 3, b * 6))[()]) is Fraction
    assert type(by_exponents(exact_divide(b * 6, b * 3))[()]) is int


def test_an_exponent_of_128_raises():
    assert Poly.var("b", 127).degree_in("b") == 127
    assert ((b + m) ** 127).degree_in("m") == 127
    assert (b ** 100 * m).substitute({"m": b ** 27}) == b ** 127
    for make in (lambda: Poly.var("b", 128),
                 lambda: Poly.var("m", 64) * (b + Poly.var("m", 64)),
                 lambda: (b * m + 1) ** 128,
                 lambda: (b ** 100 * m).substitute({"m": b ** 28 + 1})):
        with pytest.raises(OverflowError):
            make()


def test_a_poly_built_before_a_new_symbol_equals_one_built_after():
    before = (b + 2 * m) ** 2 - k * bp
    name = "registered_after_the_first_build"
    assert name not in poly._SLOT
    late = Poly.var(name)
    after = (Poly.var("b") + 2 * Poly.var("m")) ** 2 - Poly.var("k") * Poly.var("bp")
    assert before == after and str(before) == str(after)
    assert exact_divide(before * late, late) == before
    assert (before * late).coeff_in(name, 1) == before


def test_reading_an_unseen_symbol_registers_nothing():
    p = b * m - 3
    names = list(poly._NAMES)
    assert p.degree_in("unseen_zz") == 0
    assert p.coeff_in("unseen_yy", 0) == p and p.coeff_in("unseen_yy", 1) == ZERO
    assert p.substitute({"unseen_xx": 1}) == p
    assert p.substitute({"unseen_xx": b, "m": 2}) == 2 * b - 3
    assert poly._NAMES == names


def l1(p: Poly) -> Fraction:
    return sum((abs(c) for c in p.terms.values()), Fraction(0))


def kronecker_point(polys, bound: int) -> KroneckerPoint:
    """The point for these polynomials: each symbol's slot at its top degree."""
    names = {name for p in polys for name in p.variables()}
    return KroneckerPoint({poly._SLOT[name]: max(p.degree_in(name) for p in polys)
                           for name in names}, bound)


def image(point: KroneckerPoint, p: Poly) -> int:
    """p evaluated at the point, `Poly.substitute` at its values."""
    value = p.substitute({name: point.value(name) for name in p.variables()})
    value = value.const_value()
    assert value.denominator == 1
    return value.numerator


@st.composite
def integer_polys(draw, vars=("b", "m", "k"), max_terms=5):
    # coefficients up to a random size, so the radix varies from a few bits
    # to well past a machine word
    size = draw(st.sampled_from((1, 7, 10**6, 2**80)))
    p = ZERO
    for _ in range(draw(st.integers(0, max_terms))):
        term = Poly.const(draw(st.integers(-size, size)))
        for v in vars:
            term = term * Poly.var(v) ** draw(st.integers(0, 3))
        p = p + term
    return p


@given(st.lists(integer_polys(), min_size=4, max_size=4),
       st.sampled_from((("b",), ("b", "m"), ("b", "m", "k"))),
       st.lists(st.integers(0, 3), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_kronecker_point_separates_polynomials_and_their_products(drawn, names, picks):
    # keep only the chosen symbols: up to three, in any registry slots; p,
    # q, r and s are picked from the same four, so equal polynomials and
    # equal products come up as well as distinct ones
    pool = [x.substitute({v: 1 for v in ("b", "m", "k") if v not in names}) for x in drawn]
    p, q, r, s = (pool[i] for i in picks)
    point = kronecker_point(pool, int(max(l1(x) * l1(y) for x in pool for y in pool)))
    ip, iq, ir, is_ = (image(point, x) for x in (p, q, r, s))
    assert (ip == iq) == (p == q)
    assert (ip * iq == ir * is_) == (p * q == r * s)
    assert (ip * iq == 0) == (not p * q)


@pytest.mark.parametrize("tops, bound", [({"b": 1, "m": 1}, 1), ({"b": 2}, 3), ({"b": 1}, 4)],
                         ids=["b,m-1", "b2-3", "b1-4"])
def test_kronecker_point_is_injective_on_every_product_in_range(tops, bound):
    # every polynomial of degree at most 2 * top in each symbol, with
    # coefficients in [-bound, bound], which is all a product of two
    # polynomials within the point's tops and bound can be: no two share an
    # image.  Slots spaced by top + 1, or a radix of 2**B, would collide
    point = KroneckerPoint({poly._SLOT[name]: top for name, top in tops.items()}, bound)
    powers = [prod(point.value(name) ** e for name, e in zip(tops, exps))
              for exps in product(*(range(2 * top + 1) for top in tops.values()))]
    images = {sum(c * x for c, x in zip(coeffs, powers))
              for coeffs in product(range(-bound, bound + 1), repeat=len(powers))}
    assert len(images) == (2 * bound + 1) ** len(powers)


def test_exact_divide_examples():
    assert exact_divide((b - bp) * m**6, m**6) == b - bp
    assert exact_divide(r * (-2 * b - 2), r) == -2 * b - 2
    with pytest.raises(NotDivisible) as failed:
        exact_divide(m * m + 1, m)
    # the operands are kept, and rendered only when the message is read
    assert failed.value.args == (m * m + 1, m)
    assert str(failed.value) == "(m^2 + 1) is not divisible by (m)"
    # a leading key larger than the divisor's, with one field too small
    with pytest.raises(NotDivisible):
        exact_divide(b * k ** 2, m * k)


def test_substitute_examples():
    p = m * m * b - m * bp
    assert p.evaluate({"m": 2, "b": Fraction(1, 3), "bp": 0}) == Fraction(4, 3)
    assert (b - bp) * m**6 == ((b - bp) * m**6).substitute({})
    assert not ((b - bp) * m**6).substitute({"bp": b})
    assert Poly.var("k").substitute({"k": k - m}) == k - m
    assert (k * k + m).substitute({"k": k - m}) == (k - m) ** 2 + m
    # simultaneous: a swap is not two substitutions in a row
    assert (b * b * bp - bp).substitute({"b": bp, "bp": b}) == bp * bp * b - b


def test_quadratic_root_data_from_first_determinant_factor():
    quad = bp * bp + (2 * b + 3) * bp + (b * b + b)
    data = quadratic_root_data(quad, "bp")
    assert data.discriminant == 8 * b + 9


def test_quadratic_root_data_from_second_determinant_factor():
    quad = b * b + 2 * b * bp + 5 * b + 3 * bp + bp * bp + 3
    data = quadratic_root_data(quad, "bp")
    assert data.discriminant == -8 * b - 3


def test_quadratic_root_data_constant_case():
    data = quadratic_root_data(bp * bp + 1, "bp")
    assert data.discriminant == Poly.const(-4)
    with pytest.raises(WrongDegree):
        quadratic_root_data(bp + 1, "bp")


def test_quad_root_data_invariant_is_enforced():
    with pytest.raises(ValueError):
        QuadRootData("bp", ONE, ZERO, ZERO, ONE)


def test_quad_root_data_rebuilds_its_quadratic():
    quad = bp * bp + (2 * b + 3) * bp + (b * b + b)
    assert quadratic_root_data(quad, "bp").as_poly() == quad


def test_univariate_gcd_is_monic_and_stops_at_a_constant():
    f = 2 * (b - Fraction(1, 2)) ** 2 * (b * b - 2)
    g = Fraction(3, 5) * (b - Fraction(1, 2)) * (b * b - 2) * (b + 7)
    assert univariate_gcd([f, g], "b") == (b - Fraction(1, 2)) * (b * b - 2)
    assert univariate_gcd([ZERO, f, ZERO], "b") == f * Fraction(1, 2)
    assert univariate_gcd([ZERO, ZERO], "b") == ZERO == univariate_gcd([], "b")
    # a constant gcd ends the scan: what follows is not read
    assert univariate_gcd(iter([f, b + 1, b * m]), "b") == ONE
    with pytest.raises(ValueError):
        univariate_gcd([f, b * m], "b")


def test_rational_roots_split_off_every_rational_root_with_multiplicity():
    f = Fraction(2, 3) * b ** 2 * (b - Fraction(9, 8)) ** 2 * (8 * b + 3) * (b * b + b + 1)
    roots, cofactor = rational_roots(f, "b")
    assert roots == [Fraction(-3, 8), 0, 0, Fraction(9, 8), Fraction(9, 8)]
    assert cofactor == Fraction(16, 3) * (b * b + b + 1)
    assert rational_roots(Poly.const(5), "bp") == ([], Poly.const(5))
    assert rational_roots(b * b - 2, "b") == ([], b * b - 2)
    with pytest.raises(ZeroDivisionError):
        rational_roots(ZERO, "b")


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)),
    ("-3", Fraction(-3)),
    ("1/2", Fraction(1, 2)),
    ("-3/2", Fraction(-3, 2)),
    ("+4/6", Fraction(2, 3)),
])
def test_rational_literals(text, value):
    assert parse_rational(text) == value
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("text", ["", "x", "1/0", "1.5"])
def test_bad_rational_literals(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_rendering_is_sorted_and_stable():
    p = b * m + m * b + 1 - 1 + 2 * b
    assert str(p) == "2*b*m + 2*b"
    assert str(p) == str(2 * Poly.var("b") * Poly.var("m") + 2 * Poly.var("b"))
    assert str(ZERO) == "0"


def test_ratfunc_equality_and_arithmetic():
    f = RatFunc(b + 1, r)
    g = RatFunc((b + 1) * m, r * m)
    assert f == g
    assert f - g == RatFunc(ZERO)
    assert not (f - g)
    assert f * r == RatFunc((b + 1) * r, r)
    assert (f + 1) == RatFunc(b + 1 + r, r)
    assert f.substitute({"b": 1}).num == 2 * ONE


def test_ratfunc_as_poly():
    assert RatFunc(r * (b + 1), r).as_poly() == b + 1
    with pytest.raises(NotDivisible):
        RatFunc(b + 1, r).as_poly()


def test_ratfunc_prints_a_constant_denominator_folded():
    a = Poly.var("a")
    f = RatFunc(a, Poly.const(Fraction(3, 4)))
    assert str(f) == "4/3*a"
    assert str(RatFunc(1 - a, Poly.const(Fraction(-3, 2)))) == "2/3*a - 2/3"
    assert str(RatFunc(a)) == "a" and str(RatFunc(a, b)) == "(a)/(b)"
    # the fold is the rendering's alone: the pair is stored as given
    assert f.num == a and f.den == Poly.const(Fraction(3, 4))
    assert (f + f).den == Poly.const(Fraction(3, 4))
