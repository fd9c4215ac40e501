"""Module family actions, axiom sweeps, partitions, submodules."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistn2.algebra import G, Gen, L, T, bracket, generators_in_window, parity
from twistn2.halfint import HalfInt
from twistn2.modules import (BasisLabel, FamilySpec, aab, act, axiom_sweep,
                             b_zero_candidate, bab, bracket_action_check,
                             complement_of, deformed, gensum_act,
                             labels_in_window, lincomb_act, ns_partition_check,
                             lincomb_str, proper_submodule_scan, span_of,
                             spec_with_fault, submodule_check)
from twistn2.poly import ONE, Poly

H = Fraction(1, 2)
a, b = Poly.var("a"), Poly.var("b")


def lbl(letter, idx):
    return BasisLabel(letter, HalfInt.of(idx))


class TestPrintedActions:
    def test_aab_virasoro_on_x(self):
        assert act(aab(), L(1), lbl("x", 0)) == {lbl("x", 1): a + b}

    def test_aab_fermion_on_y(self):
        got = act(aab(), G(H), lbl("y", H))
        assert got == {lbl("x", 1): -(a + b)}

    def test_aab_current_vanishes_at_special_parameter(self):
        spec = aab(b=Fraction(-1, 2))
        assert act(spec, T(H), lbl("y", 0)) == {}

    def test_bab_current_on_x(self):
        assert act(bab(), T(H), lbl("x", 0)) == {lbl("x", H): ONE}

    def test_a1_deformed_virasoro(self):
        spec = deformed("A1", Fraction(2, 7))
        assert act(spec, L(2), lbl("x", 0)) == {lbl("x", 2): Poly.const(Fraction(-32, 7))}

    def test_a2_deformed_virasoro(self):
        spec = deformed("A2", Fraction(2, 7))
        assert act(spec, L(1), lbl("y", -1)) == {lbl("y", 0): Poly.const(Fraction(9, 7))}

    def test_central_element_acts_as_zero(self):
        from twistn2.algebra import C
        assert act(aab(), C, lbl("x", 0)) == {}


class TestBracketActionChecks:
    def test_aab_fermion_pair_on_x0(self):
        spec = aab()
        assert bracket_action_check(spec, G(H), G(0), lbl("x", 0)) == {}
        # both sides equal -(b+1) x_{1/2}, computed independently
        lhs = gensum_act(spec, bracket(G(H), G(0)), lbl("x", 0))
        start = {lbl("x", 0): ONE}
        rhs = lincomb_act(spec, G(H), lincomb_act(spec, G(0), start))
        for label2, coeff in lincomb_act(spec, G(0), lincomb_act(spec, G(H), start)).items():
            rhs[label2] = rhs.get(label2, 0) + coeff
        assert lhs == {lbl("x", H): -(b + 1)} == rhs

    def test_central_term_contributes_nothing(self):
        assert bracket_action_check(aab(), L(2), L(-2), lbl("x", 0)) == {}

    def test_deformed_family_mixed_pair(self):
        spec = deformed("A1", Fraction(2, 7))
        assert bracket_action_check(spec, L(1), G(-H), lbl("x", 0)) == {}
        both = lincomb_act(spec, G(H), {lbl("x", 0): ONE})
        assert both == {lbl("y", H): Poly.const(2 * H + Fraction(2, 7))}


class TestAxiomSweeps:
    def test_symbolic_two_parameter_families(self):
        for spec in (aab(), bab()):
            report = axiom_sweep(spec)
            assert report.ok, report.violations[:1]

    def test_deformed_family_at_one_parameter(self):
        report = axiom_sweep(deformed("B2", Fraction(-5, 3)))
        assert report.ok, report.violations[:1]

    def test_fault_injection_is_detected_with_witness(self):
        report = axiom_sweep(spec_with_fault("aab.t-sign"))
        assert report.violations
        w = report.violations[0]
        kinds = {w.g1[0], w.g2[0]}
        assert "T" in kinds or "G" in kinds

    def test_sweep_counts_unordered_pairs(self):
        gens = len(generators_in_window(2))
        labels = len(labels_in_window(4))
        report = axiom_sweep(aab())
        assert report.checks == labels * gens * (gens + 1) // 2

    def test_sweep_with_zero_checks_is_not_ok(self):
        # the complement of nothing contains every label, so no check is left
        report = axiom_sweep(aab(), quotient_of=complement_of())
        assert report.checks == 0 and not report.violations
        assert not report.ok


def reference_sweep(spec, quotient_of=None):
    """axiom_sweep's result computed from bracket_action_check, check by check."""
    gens = sorted(generators_in_window(2), key=Gen.sort_key)
    labels = labels_in_window(4)
    drop = None if quotient_of is None else quotient_of.contains
    if drop is not None:
        labels = [v for v in labels if not drop(v)]
    checks, violations = 0, []
    for v in labels:
        for i, g1 in enumerate(gens):
            for g2 in gens[i:]:
                checks += 1
                res = bracket_action_check(spec, g1, g2, v, drop)
                if res:
                    violations.append({"g1": str(g1), "g2": str(g2), "v": str(v),
                                       "residual": lincomb_str(res)})
    violations.sort(key=lambda w: (w["v"], w["g1"], w["g2"]))
    return checks, violations


@pytest.mark.parametrize("spec, quotient_of", [
    (deformed("A1", Fraction(2, 7)), None),
    (aab(), None),
    (spec_with_fault("a1.g0-coeff"), None),
    (spec_with_fault("aab.gy-coeff"), None),  # 2 584 witnesses
    # span(x0) is not closed, so the quotient residuals depend on which
    # targets are dropped: 264 witnesses
    (aab(Fraction(0), Fraction(-1, 2)), span_of("x0")),
], ids=["A1", "Aab", "a1.g0-coeff", "aab.gy-coeff", "quotient"])
def test_sweep_kernel_matches_the_reference(spec, quotient_of):
    report = axiom_sweep(spec, quotient_of=quotient_of)
    got = (report.checks, [w.as_dict() for w in report.violations])
    assert got == reference_sweep(spec, quotient_of)


nonzero_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@st.composite
def small_polys(draw):
    p = Poly.const(draw(st.fractions(min_value=-4, max_value=4, max_denominator=6)))
    for _ in range(draw(st.integers(0, 3))):
        coeff = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
        p = p + coeff * a ** draw(st.integers(0, 2)) * b ** draw(st.integers(0, 2))
    return p


@given(nonzero_fractions, small_polys())
@settings(max_examples=150, deadline=None)
def test_mixed_fraction_and_poly_arithmetic(f, p):
    # the sweep kernel mixes plain Fraction coefficients with Poly ones
    fp = Poly.const(f)
    assert f + p == fp + p and p + f == p + fp
    assert f - p == fp - p and p - f == p - fp
    assert f * p == fp * p and p * f == p * fp
    assert all(isinstance(x, Poly) for x in (f + p, p + f, f - p, f * p, p * f))
    assert Poly.const(-1 * f) == -1 * fp
    assert str(f) == str(fp) and str(-1 * f) == str(-1 * fp)


@given(st.sampled_from(generators_in_window(2)),
       st.sampled_from(labels_in_window(3)))
@settings(max_examples=120, deadline=None)
def test_weight_additivity(g, v):
    spec = aab()
    gidx = g.idx.doubled if g.idx is not None else 0
    for label in act(spec, g, v):
        assert label.idx.doubled == v.idx.doubled + gidx


@given(st.sampled_from(generators_in_window(2)),
       st.sampled_from(labels_in_window(3)))
@settings(max_examples=120, deadline=None)
def test_parity_exchange_matches_grading(g, v):
    # odd generators always move between the two basis letters
    spec = bab()
    for label in act(spec, g, v):
        if parity(g):
            assert label.letter != v.letter
        else:
            assert label.letter == v.letter


class TestPartitions:
    def test_half_odd_fermion_stays_in_first_block(self):
        got = act(aab(), G(H), lbl("x", 0))
        assert got == {lbl("y", H): ONE}  # x integer and y half-odd share a block

    def test_current_mode_swaps_blocks(self):
        got = act(aab(), T(H), lbl("x", 0))
        assert got == {lbl("x", H): -2 * (b + 1)}  # half-odd x is the other block

    def test_full_partition_sweep(self):
        for spec in (aab(), bab()):
            report = ns_partition_check(spec)
            assert report.ok, report.violations[:1]


class TestSubmodules:
    def test_distinguished_vector_complement_is_closed(self):
        spec = aab(Fraction(0), Fraction(-1))
        assert submodule_check(spec, complement_of("x0")).closed

    def test_one_dimensional_submodule(self):
        spec = aab(Fraction(0), Fraction(-1, 2))
        assert submodule_check(spec, span_of("y0")).closed

    def test_generic_single_vector_escapes(self):
        spec = aab(Fraction(1, 3), Fraction(2, 5))
        report = submodule_check(spec, span_of("x0"))
        assert not report.closed
        assert report.escape["g"] == "L(-2)" or report.escape["g"].startswith(("L", "T", "G"))

    def test_generic_parameters_admit_no_single_vector_submodule(self):
        for av, bv in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(-2, 7), Fraction(3, 4))):
            spec = aab(av, bv)
            for v in labels_in_window(4):
                assert not submodule_check(spec, span_of(v)).closed

    def test_quotient_actions_still_satisfy_the_axioms(self):
        spec = aab(Fraction(0), Fraction(-1))
        report = axiom_sweep(spec, quotient_of=complement_of("x0"))
        assert report.ok
        spec2 = aab(Fraction(0), Fraction(-1, 2))
        report2 = axiom_sweep(spec2, quotient_of=span_of("y0"))
        assert report2.ok

    def test_cyclic_scan_finds_the_unique_proper_submodule(self):
        gaps = proper_submodule_scan(aab(Fraction(0), Fraction(-1)))
        assert set(map(tuple, gaps.values())) == {("x_0",)}
        assert "x_0" not in gaps  # the distinguished vector generates everything

    def test_cyclic_scan_on_generic_parameters_is_empty(self):
        assert proper_submodule_scan(aab(Fraction(1, 3), Fraction(2, 5))) == {}


class TestSpecValidation:
    def test_exceptional_candidate_rejects_half_integer_weights(self):
        with pytest.raises(ValueError):
            FamilySpec("Bab", a=Fraction(1, 2), b=Fraction(0), bprime=Fraction(-3, 2))
        with pytest.raises(ValueError):
            FamilySpec("Bab", a=Fraction(3), b=Fraction(0), bprime=Fraction(-3, 2))
        b_zero_candidate(a=Fraction(1, 3))  # allowed

    def test_unsupported_bprime_is_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("Bab", a="sym", b=Fraction(0), bprime=Fraction(7))

    def test_deformed_families_need_alpha(self):
        with pytest.raises(ValueError):
            FamilySpec("A1")

    def test_exceptional_candidate_kills_currents_and_integer_fermions(self):
        spec = b_zero_candidate(a=Fraction(1, 3))
        assert act(spec, T(H), lbl("x", 0)) == {}
        assert act(spec, G(1), lbl("x", 0)) == {}
        assert act(spec, G(H), lbl("x", 0)) == {lbl("y", H): ONE}
