"""Module family actions, axiom sweeps, partitions, submodules."""

import gc
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistn2 import deformation, modules
from twistn2.algebra import G, Gen, L, T, bracket, generators_in_window, parity
from twistn2.cli import main
from twistn2.deformation import instantiate_deformation
from twistn2.indices import SymIndex
from twistn2.modules import (FAULT_CATALOG, BasisLabel, FamilySpec, aab, act,
                             act_indexed, axiom_sweep, b_zero_candidate, bab,
                             bracket_action_check, complement_of, deformed,
                             labels_in_window, ns_partition_check, lincomb_str,
                             proper_submodule_scan, span_of, spec_with_fault,
                             submodule_check)
from twistn2.poly import ONE, Poly, RatFunc

H = Fraction(1, 2)
a, b = Poly.var("a"), Poly.var("b")


def lbl(letter, idx):
    return BasisLabel(letter, SymIndex.of(idx))


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


# The printed actions of A(a,b), B(a,b) and B(a,0,-3/2) on the basis vector
# of index k, by mode q: (kind, parity of q, letter, parity of k) ->
# (target letter, coefficient), or None where the mode acts as zero; the
# target index is always k + q.  L modes are integer and T modes half-odd.
Pk, Pq = Poly.var("k"), Poly.var("q")
STRATA = [(kind, qpar, letter, kpar)
          for kind, qpars in (("L", (0,)), ("T", (1,)), ("G", (0, 1)))
          for qpar in qpars for letter in ("x", "y") for kpar in (0, 1)]


def _printed_a(kind, qpar, letter, kpar):
    if kind == "L":
        return letter, a - Pk + (b if letter == "x" else b + H) * Pq
    if kind == "T":
        return letter, -2 * (b + 1) if letter == "x" else -(2 * b + 1)
    if letter == "x":
        return "y", ONE
    return "x", (-1 if qpar else 1) * (a - Pk + (2 * b + 1) * Pq)  # (-1)^(2q)


def _printed_b(kind, qpar, letter, kpar):
    s = -1 if qpar else 1  # (-1)^(2q)
    if kind == "L":
        if letter == "x":
            return "x", a - Pk + b * Pq
        return "y", a - Pk + (b + H if kpar else b - H) * Pq
    if kind == "T":
        if letter == "x":
            return "x", ONE
        return ("y", (2 * b + 1) * Pq) if kpar else None
    if letter == "x":
        if (kpar + qpar) % 2 == 0:
            return "y", s * (a - Pk + 2 * b * Pq)
        return "y", Poly.const(-s)
    return "x", -(a - Pk + (2 * b + 1) * Pq) if kpar else ONE


def _printed_b_zero(kind, qpar, letter, kpar):
    if kind == "L":
        if letter == "x":
            return "x", a - Pk - Pq if kpar else a - Pk
        return "y", a - Pk + H * Pq if kpar else a - Pk - 3 * H * Pq
    if kind == "T" or qpar == 0:  # T and the integer G modes act as zero
        return None
    if letter == "x":
        return "y", -(a - Pk - 2 * Pq) if kpar else ONE
    return "x", -(a - Pk + Pq) if kpar else ONE


PRINTED_TABLES = [(aab(), _printed_a), (bab(), _printed_b),
                  (b_zero_candidate(), _printed_b_zero)]


@pytest.mark.parametrize("spec, printed", PRINTED_TABLES, ids=["Aab", "Bab", "B(a,0,-3/2)"])
@pytest.mark.parametrize("stratum", STRATA, ids=[f"{k}{q}{l}{p}" for k, q, l, p in STRATA])
def test_printed_action_at_symbolic_indices(spec, printed, stratum):
    kind, qpar, letter, kpar = stratum
    k, q = SymIndex.var("k"), SymIndex.var("q")
    got = act_indexed(spec, kind, q, letter, k, {"k": kpar, "q": qpar})
    want = printed(*stratum)
    assert [(l, i) for l, i, _ in got] == ([] if want is None else [(want[0], k + q)])
    if want is not None:
        assert got[0][2] == want[1]


def acting(spec, g, lc):
    """g applied to a linear combination of basis vectors, through `act`."""
    out = {}
    for label, coeff in lc.items():
        for label2, coeff2 in act(spec, g, label).items():
            out[label2] = out.get(label2, 0) + coeff * coeff2
    return {label: coeff for label, coeff in out.items() if coeff}


class TestBracketActionChecks:
    def test_aab_fermion_pair_on_x0(self):
        spec = aab()
        assert bracket_action_check(spec, G(H), G(0), lbl("x", 0)) == {}
        # both sides equal -(b+1) x_{1/2}, computed independently
        start = {lbl("x", 0): ONE}
        lhs = {}
        for h, scale in bracket(G(H), G(0)).items():
            for label, coeff in acting(spec, h, start).items():
                lhs[label] = lhs.get(label, 0) + scale * coeff
        rhs = acting(spec, G(H), acting(spec, G(0), start))
        for label2, coeff in acting(spec, G(0), acting(spec, G(H), start)).items():
            rhs[label2] = rhs.get(label2, 0) + coeff
        assert lhs == {lbl("x", H): -(b + 1)} == rhs

    def test_central_term_contributes_nothing(self):
        assert bracket_action_check(aab(), L(2), L(-2), lbl("x", 0)) == {}

    def test_deformed_family_mixed_pair(self):
        spec = deformed("A1", Fraction(2, 7))
        assert bracket_action_check(spec, L(1), G(-H), lbl("x", 0)) == {}
        both = acting(spec, G(H), {lbl("x", 0): ONE})
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


@pytest.mark.parametrize("spec, quotient_of, fractional", [
    (deformed("A1", Fraction(2, 7)), None, False),
    (aab(), None, False),
    (spec_with_fault("a1.g0-coeff"), None, False),
    (spec_with_fault("aab.gy-coeff"), None, False),  # 2 584 witnesses
    # span(x0) is not closed, so the quotient residuals depend on which
    # targets are dropped: 264 witnesses
    (aab(Fraction(0), Fraction(-1, 2)), span_of("x0"), False),
    # concrete sweeps run in ints over a common denominator; witnesses with
    # fractional residuals show a wrong unit
    (deformed("B2", Fraction(-20, 7), fault="b2.gdef-sign"), None, True),
    (deformed("A1", Fraction(12, 5), fault="a1.g0-coeff"), None, True),
    (aab(Fraction(1, 3), Fraction(-5, 7)), span_of("x0"), True),
    # symbolic sweeps run in ints at one Kronecker point; witnesses whose
    # residuals are polynomials in the parameters show a wrong decoding
    (bab(fault="bab.gx-sign"), None, "symbolic"),
    (deformed("B2", "sym", "sym", fault="b2.gdef-sign"), None, "symbolic"),
    (aab(), span_of("x0"), "symbolic"),
    # rows the loop keeps as objects: RatFunc solved forms, and one unknown
    # per mode and vector (3 842 witnesses)
    (FamilySpec("GenericB", a=Fraction(1, 3), b=Fraction(-5, 7), bprime="sym"), None, False),
    (FamilySpec("GenericA", a="sym", b="sym", bprime="sym", coeff_mode="unknowns"),
     None, False),
], ids=["A1", "Aab", "a1.g0-coeff", "aab.gy-coeff", "quotient",
        "b2.gdef-sign@-20/7", "a1.g0-coeff@12/5", "quotient@1/3,-5/7",
        "bab.gx-sign@sym", "b2.gdef-sign@sym", "quotient@sym",
        "GenericB@1/3,-5/7", "GenericA-unknowns"])
def test_sweep_kernel_matches_the_reference(spec, quotient_of, fractional):
    report = axiom_sweep(spec, quotient_of=quotient_of)
    got = (report.checks, [w.as_dict() for w in report.violations])
    assert got == reference_sweep(spec, quotient_of)
    if fractional == "symbolic":
        assert report.violations
        assert all(re.search(r"\b(a|b|alpha|alphap)\b", w.residual)
                   for w in report.violations)
    elif fractional:
        assert any("/" in w.residual for w in report.violations)


def _substituted(coeff, bindings):
    if isinstance(coeff, (Poly, RatFunc)):
        return coeff.substitute(bindings)
    return coeff


def _faults(family):
    prefix = family.lower() + "."
    return [None] + [f for f in FAULT_CATALOG if f.startswith(prefix)]


# (concrete spec, the same spec with symbolic parameters, their values)
TABLE_CASES = [
    (deformed(fam, alpha, fault=fault), deformed(fam, "sym", "sym", fault=fault),
     {"alpha": alpha, "alphap": 1})
    for fam in ("A1", "A2", "B1", "B2") for fault in _faults(fam)
    for alpha in (Fraction(2, 7), Fraction(-20, 7), Fraction(12, 5))
] + [
    (FamilySpec(fam, a=av, b=bv, fault=fault), FamilySpec(fam, a="sym", b="sym", fault=fault),
     {"a": av, "b": bv})
    for fam in ("Aab", "Bab") for fault in _faults(fam)
    for av, bv in ((Fraction(1, 3), Fraction(-5, 7)), (Fraction(12, 5), Fraction(2)))
] + [
    (b_zero_candidate(Fraction(1, 3)), b_zero_candidate("sym"), {"a": Fraction(1, 3)}),
] + [
    (FamilySpec(fam, a=Fraction(1, 3), b=Fraction(-5, 7), bprime="sym"),
     FamilySpec(fam, a="sym", b="sym", bprime="sym"),
     {"a": Fraction(1, 3), "b": Fraction(-5, 7)})
    for fam in ("GenericA", "GenericB")
]


@pytest.mark.parametrize("concrete, symbolic, values", TABLE_CASES,
                         ids=[c.label() for c, _, _ in TABLE_CASES])
def test_fraction_table_is_the_symbolic_table_evaluated(concrete, symbolic, values):
    # concrete parameters are read as Fractions, symbolic ones as Poly
    # symbols; both tables must agree entry by entry on the whole window
    for g in generators_in_window(2):
        if g.kind == "C":
            continue
        for v in labels_in_window(4):
            args = (g.kind, SymIndex.of(g.idx), v.letter, SymIndex.of(v.idx))
            got = act_indexed(concrete, *args)
            want = act_indexed(symbolic, *args)
            assert [(l, i) for l, i, _ in got] == [(l, i) for l, i, _ in want]
            for (_, _, c), (_, _, w) in zip(got, want):
                if concrete.family.startswith("Generic") and g.kind == "T":
                    assert isinstance(c, RatFunc)  # the composition T_r = [G_r, G_0]/r
                else:
                    assert isinstance(c, Fraction) or c.is_const(), (g, v, c)
                assert c == _substituted(w, values), (g, v)


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

    def test_partition_check_with_zero_checks_is_not_ok(self):
        # a basis window below 0 holds no label, so nothing is checked
        report = ns_partition_check(aab(), 2, -1)
        assert report.checks == 0 and not report.violations
        assert not report.ok


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

    def test_candidate_with_no_window_label_is_not_closed(self):
        for cand in (span_of(), span_of("x99")):
            report = submodule_check(aab(), cand)
            assert report.checks == 0 and report.escape is None
            assert not report.closed

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


@pytest.fixture
def counted_act_indexed(monkeypatch):
    """Counts the action entries built from the tables, through the
    bindings in `modules` and in `deformation`."""
    calls = [0]
    original = modules.act_indexed

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(modules, "act_indexed", counting)
    monkeypatch.setattr(deformation, "act_indexed", counting)
    return calls


class TestActionMemo:
    def test_second_sweep_of_one_spec_builds_no_entry(self, counted_act_indexed):
        spec = deformed("A1", Fraction(2, 7))
        first = axiom_sweep(spec)
        assert counted_act_indexed[0] > 0
        counted_act_indexed[0] = 0
        second = axiom_sweep(spec)
        assert counted_act_indexed[0] == 0
        assert second == first

    def test_audit_reads_the_slot_only(self, counted_act_indexed):
        # one read per kind of mode at a symbolic index, and no memo entry
        # of the spec or of its base module
        for family in ("A1", "A2", "B1", "B2"):
            counted_act_indexed[0] = 0
            spec, found = instantiate_deformation(family, Fraction(2, 7))
            assert not found
            assert 0 < counted_act_indexed[0] <= 4
            assert spec.ctx.rows == {}
            assert spec.ctx.base.ctx.rows == {}

    def test_spec_and_its_memo_form_no_reference_cycle(self):
        # with the cyclic collector off, a spec goes as soon as its last
        # reference does, memo and all
        specs = [deformed("A1", Fraction(2, 7)), bab(),
                 FamilySpec("GenericB", a=Fraction(1, 3), b=Fraction(-5, 7), bprime="sym")]
        enabled = gc.isenabled()
        gc.disable()
        try:
            for spec in specs:
                axiom_sweep(spec, 1, 2)
                ns_partition_check(spec, 1, 2)
            refs = [weakref.ref(spec) for spec in specs]
            refs.append(weakref.ref(specs[0].ctx.base))
            del spec, specs
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()

    def test_all_leaves_no_module_state_behind(self, capsys):
        def sizes():
            return {name: len(value) for name, value in vars(modules).items()
                    if isinstance(value, (dict, list, set, tuple))}

        before = sizes()
        assert main(["all", "--format", "json"]) == 0
        capsys.readouterr()
        assert sizes() == before


class TestSpecValidation:
    def test_exceptional_candidate_rejects_half_integer_weights(self):
        with pytest.raises(ValueError):
            FamilySpec("Bab", a=Fraction(1, 2), b=Fraction(0), bprime=Fraction(-3, 2))
        with pytest.raises(ValueError):
            FamilySpec("Bab", a=Fraction(3), b=Fraction(0), bprime=Fraction(-3, 2))
        b_zero_candidate(a=Fraction(1, 3))  # allowed

    @pytest.mark.parametrize("family", ["Aab", "Bab", "A1"])
    @pytest.mark.parametrize("mode", ["unknowns", "alpha", "beta", "mu"])
    def test_printed_family_takes_no_coefficient_mode(self, family, mode):
        # only the generic candidates read unknowns or symbolic constants
        params = dict(alpha="sym") if family == "A1" else dict(a="sym", b="sym")
        with pytest.raises(ValueError, match="coefficient mode"):
            FamilySpec(family, coeff_mode=mode, **params)

    @pytest.mark.parametrize("family, mode", [("GenericA", "beta"), ("GenericA", "mu"),
                                              ("GenericB", "alpha")])
    def test_generic_candidate_takes_only_its_own_case_modes(self, family, mode):
        # each table reads only its own case's constants; another case's mode
        # would be shown in the label and never read
        with pytest.raises(ValueError, match="coefficient mode"):
            FamilySpec(family, a="sym", b="sym", bprime="sym", coeff_mode=mode)

    def test_unsupported_bprime_is_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("Bab", a="sym", b=Fraction(0), bprime=Fraction(7))

    def test_label_shows_alphap_off_its_printed_value(self):
        assert FamilySpec("A1", alpha=Fraction(2, 7)).label() == "A1 alpha=2/7"
        assert deformed("B2", "sym", "sym").label() == "B2 alpha=sym alphap=sym"
        assert deformed("A2", Fraction(1), Fraction(3)).label() == "A2 alpha=1 alphap=3"

    def test_deformed_families_need_alpha(self):
        with pytest.raises(ValueError):
            FamilySpec("A1")

    def test_basis_label_is_concrete(self):
        assert BasisLabel("x", "1/2") == lbl("x", H) and BasisLabel("y", 2).idx == SymIndex(4)
        with pytest.raises(ValueError):
            BasisLabel("x", SymIndex.var("k"))
        with pytest.raises(ValueError):
            BasisLabel("x", Fraction(1, 3))

    def test_exceptional_candidate_kills_currents_and_integer_fermions(self):
        spec = b_zero_candidate(a=Fraction(1, 3))
        assert act(spec, T(H), lbl("x", 0)) == {}
        assert act(spec, G(1), lbl("x", 0)) == {}
        assert act(spec, G(H), lbl("x", 0)) == {lbl("y", H): ONE}
