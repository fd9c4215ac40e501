"""Deformation recurrences, closed forms, and instantiation audits."""

from fractions import Fraction

import pytest

from twistn2 import modules
from twistn2.deformation import (CASES, DeformCase, deformation_discrepancies,
                                 e_closed_form_check, f_derivation,
                                 fit_alpha_from_e, g_solution_check,
                                 instantiate_deformation)
from twistn2.algebra import G, L, T
from twistn2.indices import SymIndex
from twistn2.modules import (FAULT_CATALOG, BasisLabel, FamilySpec, act,
                             axiom_sweep, complement_of, proper_submodule_scan,
                             span_of, spec_with_fault, submodule_check)
from twistn2.poly import Poly

H = Fraction(1, 2)


def lbl(letter, idx):
    return BasisLabel(letter, SymIndex.of(idx))


class TestParameterFit:
    def test_concrete_fit(self):
        al, alp = fit_alpha_from_e(Fraction(-3), Fraction(-8), CASES["A1"])
        assert (al, alp) == (Fraction(2), Fraction(1))
        # the boundary value e(-1) = alpha - alphap must match e2 - 3 e1
        e = CASES["A1"].e_closed_form(Poly.const(al), Poly.const(alp))
        assert e.evaluate({"n": -1}) == Fraction(-8) - 3 * Fraction(-3)

    def test_trivial_fit(self):
        assert fit_alpha_from_e(Fraction(0), Fraction(0), CASES["A1"]) == (0, 0)

    def test_symbolic_fit(self):
        e1, e2 = Poly.var("e1"), Poly.var("e2")
        al, alp = fit_alpha_from_e(e1, e2, CASES["A1"])
        assert al + alp == -e1

    def test_mirrored_case_fit(self):
        al, alp = fit_alpha_from_e(Fraction(3), Fraction(8), CASES["A2"])
        assert (al, alp) == (Fraction(2), Fraction(1))


@pytest.mark.parametrize("name", sorted(CASES))
def test_e_closed_form(name):
    report = e_closed_form_check(CASES[name])
    assert report.ok, [c for c in report.checks if not c.passed]


@pytest.mark.parametrize("name", sorted(CASES))
def test_g_solution(name):
    report = g_solution_check(CASES[name])
    assert report.ok, [c for c in report.checks if not c.passed]


@pytest.mark.parametrize("name", sorted(CASES))
def test_f_derivation(name):
    report = f_derivation(CASES[name])
    assert report.ok, [c for c in report.checks if not c.passed]


class TestInstantiation:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_audit_is_clean(self, name):
        spec, discrepancies = instantiate_deformation(name, Fraction(2, 7))
        assert not discrepancies
        assert axiom_sweep(spec, 1, 2).ok

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_audit_and_axioms_at_symbolic_parameters(self, name):
        # with alpha and alphap free, a clean audit and a clean sweep hold
        # for every (alpha, alphap), not only at sampled values
        spec = FamilySpec(name, alpha="sym", alphap="sym")
        assert not deformation_discrepancies(spec)
        sweep = axiom_sweep(spec, 2, 4)
        assert sweep.checks == 6460
        assert sweep.ok, sweep.violations[:1]

    @pytest.mark.parametrize("fault", sorted(f for f in FAULT_CATALOG
                                             if not f.startswith(("aab.", "bab."))))
    def test_audit_catches_a_mutated_table(self, fault):
        family = spec_with_fault(fault).family
        for alpha in (Fraction(2, 7), "sym"):
            bad = FamilySpec(family, alpha=alpha, fault=fault)
            found = deformation_discrepancies(bad)
            assert found, alpha
            # every flagged read carries the closed-form value to use instead
            entry = found[0]
            assert entry["derived"] != entry["family"]
            fixed = FamilySpec(family, alpha=alpha)
            assert not deformation_discrepancies(fixed)
            assert axiom_sweep(fixed, 1, 2).ok

    def test_audit_catches_a_mutated_closed_form(self, monkeypatch):
        # the audit compares the slot rule with the closed forms: drop the
        # +alpha from g and every family's fermionic reads disagree
        def g_without_alpha(self, q, parity=1, alpha=None, alphap=None):
            return self.g_sign(parity) * (2 * q * alphap)

        monkeypatch.setattr(DeformCase, "g_closed_form", g_without_alpha)
        for name in sorted(CASES):
            for alpha in (Fraction(2, 7), "sym"):
                found = deformation_discrepancies(FamilySpec(name, alpha=alpha))
                assert {d["g"] for d in found} == {"G(q), q integer", "G(q), q half-odd"}

    def test_deformed_coefficient_differs_from_the_base_module(self):
        spec, _ = instantiate_deformation("A1", Fraction(2, 7))
        base = spec.ctx.base
        assert act(spec, L(2), lbl("x", 0)) != act(base, L(2), lbl("x", 0))
        # away from the distinguished vector the actions agree
        assert act(spec, L(2), lbl("x", 1)) == act(base, L(2), lbl("x", 1))


def _moved(entry, how):
    """A BASE_FAMILY entry with its distinguished vector moved."""
    family, a, b, role, (letter, idx) = entry
    if how == "index":
        idx = idx + 1
    elif how == "letter":
        letter = "y" if letter == "x" else "x"
    else:
        role = "sink" if role == "source" else "source"
    return family, a, b, role, (letter, idx)


class TestSlotPlacement:
    # the audit reads each slot where BASE_FAMILY puts it, so the axiom sweep
    # is what checks that the slot sits in the right place
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("how", ("index", "letter", "role"))
    def test_a_moved_slot_fails_the_sweep(self, monkeypatch, name, how):
        monkeypatch.setitem(modules.BASE_FAMILY, name,
                            _moved(modules.BASE_FAMILY[name], how))
        for alpha in (Fraction(2, 7), "sym"):
            spec = FamilySpec(name, alpha=alpha)
            sweep = axiom_sweep(spec, 1, 2)
            assert sweep.checks and sweep.violations, alpha


class TestSubmoduleStructure:
    def test_base_submodules_persist_under_deformation(self):
        # A1 and B1 are deformed at a source (x0, y0): the deformation changes
        # only its outgoing actions and nothing maps onto it, so the
        # complement is the proper submodule.  A2 and B2 are deformed at a
        # sink (y0, y1/2): the deformation changes only the actions into it
        # and it maps to nothing, so its span is the proper submodule.  The
        # symbolic-alpha run makes the closure hold at every parameter; the
        # opposite candidate must escape, pinning the orientation.
        cases = [
            ("A1", complement_of("x0"), span_of("x0")),
            ("A2", span_of("y0"), complement_of("y0")),
            ("B1", complement_of("y0"), span_of("y0")),
            ("B2", span_of("y1/2"), complement_of("y1/2")),
        ]
        for name, closed, escaping in cases:
            specs = [instantiate_deformation(name, alpha)[0]
                     for alpha in (Fraction(2, 7), "sym")]
            specs.append(specs[0].ctx.base)
            for spec in specs:
                rep = submodule_check(spec, closed)
                assert rep.ok, (name, spec.label(), closed.describe(), rep.witness)
                rep = submodule_check(spec, escaping)
                assert not rep.ok, (name, spec.label(), escaping.describe(), rep.witness)

    def test_cyclic_scan_is_unchanged_by_the_deformation(self):
        spec, _ = instantiate_deformation("A1", Fraction(2, 7))
        assert (set(map(tuple, proper_submodule_scan(spec).values()))
                == set(map(tuple, proper_submodule_scan(spec.ctx.base).values()))
                == {("x_0",)})

    def test_annihilated_vector_spans_the_one_dimensional_submodule(self):
        spec, _ = instantiate_deformation("B2", Fraction(2, 7))
        y_half = lbl("y", H)
        for g in (L(1), L(-2), T(H), T(-H), G(0), G(H), G(-1)):
            assert act(spec, g, y_half) == {}
