"""Acceptance suite: one test per criterion, exact tolerances, time budgets.

Every check is exact rational/polynomial identity; "tolerance" is literal
equality throughout.  Each test prints its own pass line so the suite reads
as a checklist under pytest -s / -v.
"""

import time
from fractions import Fraction

import pytest

from twistn2 import constraints as clab
from twistn2 import deformation as dlab
from twistn2.algebra import super_jacobi_sweep
from twistn2.cli import main as cli_main
from twistn2.modules import (FAULT_CATALOG, FamilySpec, aab, axiom_sweep, bab,
                             complement_of, labels_in_window, span_of,
                             spec_with_fault, submodule_check)
from twistn2.poly import Poly

ALPHAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 7), Fraction(-5, 3))


def report(number, description, elapsed=None, budget=None):
    tick = f" [{elapsed:.1f}s < {budget}s]" if budget is not None else ""
    print(f"PASS criterion {number}: {description}{tick}")


def test_criterion_01_first_determinant_identity():
    start = time.time()
    rep = clab.compare_delta_closed_form("1")
    assert rep.ok
    elapsed = time.time() - start
    assert elapsed < 5
    report(1, "x-side T-system determinant equals its printed factorization",
           elapsed, 5)


def test_criterion_02_second_determinant_identity():
    start = time.time()
    rep = clab.compare_delta_closed_form("2")
    assert rep.ok
    elapsed = time.time() - start
    assert elapsed < 5
    report(2, "y-side T-system determinant equals its printed factorization",
           elapsed, 5)


def test_criterion_03_mixed_determinant_structure():
    start = time.time()
    for which in ("3", "3p"):
        rep = clab.compare_delta_closed_form(which)
        assert rep.ok, rep.checks
        assert clab._delta3_quotient(which).degree_in("p") == 2
        assert set(clab.sporadic_values(which).values()) == {"0"}
    elapsed = time.time() - start
    assert elapsed < 15
    report(3, "mixed-identity determinants divide exactly and their quotients "
              "vanish on all sporadic pairs", elapsed, 15)


def test_criterion_04_root_sets():
    b = Poly.var("b")
    discs = {
        "f-int": 8 * b + 9, "fp-int": -8 * b - 3,
        "f-half": 1 - 8 * b, "fp-half": 13 + 8 * b,
        "lambda1": 8 * b + 9, "lambda2": -8 * b - 3,
        "lambda3": 1 - 8 * b, "lambda4": 13 + 8 * b,
    }
    for name in clab.ROOT_SET_NAMES:
        entry = clab.root_set(name)
        assert entry.ok, entry.checks
        assert entry.quad.discriminant == discs[name]
    report(4, "all eight root sets reproduced: linear roots by exact division, "
              "quadratic discriminants matched literally")


def test_criterion_05_axiom_sweeps():
    start = time.time()
    for spec in (aab(), bab()):
        sweep = axiom_sweep(spec, 2, 4)
        assert sweep.ok, sweep.violations[:1]
    for family in ("A1", "A2", "B1", "B2"):
        for alpha in ALPHAS:
            spec, discrepancies = dlab.instantiate_deformation(family, alpha)
            assert not discrepancies
            sweep = axiom_sweep(spec, 2, 4)
            assert sweep.ok, sweep.violations[:1]
    elapsed = time.time() - start
    assert elapsed < 60
    report(5, "symbolic two-parameter families and all twenty deformed-family "
              "instances pass the axiom sweep", elapsed, 60)


def test_criterion_06_t_compositions():
    for spec in (aab(), bab(), FamilySpec("A1", alpha="sym"),
                 FamilySpec("A2", alpha="sym"), FamilySpec("B1", alpha="sym"),
                 FamilySpec("B2", alpha="sym")):
        rep = clab.derive_T_composition(spec)
        assert rep.ok, [c for c in rep.checks if not c.passed]
    report(6, "every printed T coefficient of all six families re-derived "
              "from the fermionic composition, exact equality")


def test_criterion_07_coefficient_lemmas():
    for which in clab.LEMMA_CHECKS:
        group = clab.coeff_solution_check(which)
        assert group.ok, [c for c in group.checks if not c.passed]
    for case in ("A", "B", "B0"):
        rep = clab.alpha_beta_solve(case)
        assert rep.ok, rep.checks
    mutated = [c.passed for c in clab.alpha_beta_solve("A").checks
               if "mutated to 2" in c.name]
    assert mutated == [True]
    report(7, "solved coefficient families leave zero residuals everywhere; "
              "printed normalizations satisfy all generated equations and the "
              "designated mutation breaks one")


def test_criterion_08_deformation_recurrences():
    for name, case in dlab.CASES.items():
        e_rep = dlab.e_closed_form_check(case)
        assert e_rep.ok, [c for c in e_rep.checks if not c.passed]
        g_rep = dlab.g_solution_check(case)
        assert g_rep.ok, [c for c in g_rep.checks if not c.passed]
        f_rep = dlab.f_derivation(case)
        assert f_rep.ok, [c for c in f_rep.checks if not c.passed]
    report(8, "deformation closed forms satisfy their recurrences and boundary "
              "relation symbolically; fermionic and current coefficients verified")


def test_criterion_09_submodule_facts():
    assert submodule_check(aab(Fraction(0), Fraction(-1)), complement_of("x0")).ok
    assert submodule_check(aab(Fraction(0), Fraction(-1, 2)), span_of("y0")).ok
    for av, bv in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(-2, 7), Fraction(3, 4))):
        spec = aab(av, bv)
        for label in labels_in_window(4):
            assert not submodule_check(spec, span_of(label)).ok
    report(9, "distinguished submodules closed under the window action; generic "
              "parameters admit no single-vector submodule")


def test_criterion_10_nonexistence():
    rep = clab.b0_nonexistence_check()
    assert rep.ok, rep.checks
    assert rep.checks[0].witness == "-2*a + 2*k"
    report(10, "exceptional candidate contradiction witness produced: zero "
               "composition against the nonzero 2(a-k) bracket coefficient")


def test_criterion_11_fault_injection():
    assert len(FAULT_CATALOG) == 12
    for fault in FAULT_CATALOG:
        sweep = axiom_sweep(spec_with_fault(fault), 2, 4)
        assert sweep.violations, f"fault {fault} was not detected"
    # and through the command line: exit code 1 with a witness
    code = cli_main(["verify-axioms", "--family", "Aab",
                     "--inject-fault", "aab.t-sign", "--format", "json",
                     "--out", "/dev/null"])
    assert code == 1
    report(11, "all twelve predefined mutations across the six families are "
               "detected by the axiom sweep, exit code 1 with witness")


def test_criterion_12_super_jacobi():
    start = time.time()
    rep = super_jacobi_sweep(2)
    assert rep.ok
    assert rep.checks == 19 ** 3
    elapsed = time.time() - start
    assert elapsed < 10
    report(12, "graded Jacobi identity holds for all generator triples in the "
               "window, central terms included", elapsed, 10)
