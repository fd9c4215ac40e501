"""Constraint determinants, root sets, coefficient lemmas, normalizations."""

from fractions import Fraction

import pytest

from twistn2.constraints import (K, M, N, LAMBDA_PAIRS, LAMBDA_PRIME_PAIRS, LEMMA_CHECKS,
                                 RootSetEntry,
                                 MalformedInstance, OMEGA_PAIRS,
                                 OMEGA_PRIME_PAIRS, ROOT_SET_NAMES,
                                 SPORADIC_SURVIVORS_A, alpha_beta_solve,
                                 b0_nonexistence_check, build_identity_system,
                                 coeff_solution_check, compare_delta_closed_form,
                                 delta1_printed, delta2_printed, determinant3,
                                 delta3_at, delta3_vanishes_at,
                                 derive_T_composition,
                                 generic_candidate, intersection_scan,
                                 recurrence_propagation_check, root_set,
                                 sample_parameters, swap_symmetry_checks,
                                 system_determinant, t_composition)
from twistn2 import constraints, modules
from twistn2.algebra import bracket_terms
from twistn2.indices import SymIndex
from twistn2.modules import FamilySpec, aab, bab, unknown_name
from twistn2.poly import ONE, Poly, RatFunc, ZERO

a, b, bp, m, k, r, p = (Poly.var(s) for s in ("a", "b", "bp", "m", "k", "r", "p"))
H = Fraction(1, 2)


def numeric_det3(matrix, bindings):
    """Independent oracle: substitute first, then expand numerically."""
    rows = [[entry.evaluate(bindings) for entry in row] for row in matrix]
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
    return (a1 * b2 * c3 + a2 * b3 * c1 + a3 * b1 * c2
            - a3 * b2 * c1 - a2 * b1 * c3 - a1 * b3 * c2)


class TestIdentitySystems:
    def test_leading_row_coefficient(self):
        sys3 = build_identity_system("LLT", "A", "f", "int")
        want = (a - k + b * m) * (a - k + b * m + m) - (m + r) * (a - k + 2 * b * m + m)
        assert sys3.matrix[0][0] == want
        assert sys3.unknowns == ["f[r;k+m]", "f[r;k]", "f[r;k-m]"]

    def test_second_row_leading_coefficient(self):
        sys3 = build_identity_system("LLT", "A", "f", "int")
        want = ((r - m) * (a - k - m - r - 2 * bp * m)
                + (a - k - r - bp * m) * (a - k - r - bp * m - m))
        assert sys3.matrix[1][0] == want

    def test_malformed_instances_are_rejected(self):
        with pytest.raises(MalformedInstance):
            build_identity_system("LLT", "A", "g", "int")
        with pytest.raises(MalformedInstance):
            build_identity_system("LLG", "A", "f", "int")

    def test_determinant3_basics(self):
        eye = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
        assert determinant3(eye) == ONE
        dup = [[b, bp, m], [b, bp, m], [ONE, ZERO, ONE]]
        assert determinant3(dup) == ZERO

    def test_diagonal_substitution_kills_the_determinant(self):
        sys3 = build_identity_system("LLT", "A", "f", "int").substituted({"bp": b})
        assert determinant3(sys3.matrix) == ZERO


    @pytest.mark.parametrize("kind, fam, pair", [("LLT", "f", ("L", "T")),
                                                 ("LLG", "g", ("L", "G"))])
    def test_mutated_structure_constant_changes_the_system(self, monkeypatch,
                                                           kind, fam, pair):
        # the rows come from the algebra's structure constants, nowhere else
        before = build_identity_system(kind, "A", fam, "int").matrix

        def mutated(k1, i1, k2, i2, env=None):
            terms = bracket_terms(k1, i1, k2, i2, env)
            if (k1, k2) == pair:
                return [(kd, ix, c + 1) for kd, ix, c in terms]
            return terms

        monkeypatch.setattr(constraints, "bracket_terms", mutated)
        assert build_identity_system(kind, "A", fam, "int").matrix != before


class TestDeltaIdentities:
    def test_first_determinant_matches_printed_factorization(self):
        report = compare_delta_closed_form("1")
        assert report.equal
        assert report.derived.degree_in("m") == 6
        assert report.derived.variables() == ("b", "bp", "m")

    def test_second_determinant_matches_printed_factorization(self):
        report = compare_delta_closed_form("2")
        assert report.equal

    def test_numeric_oracle_point(self):
        # substitute-then-expand versus expand-then-substitute versus printed
        sys3 = build_identity_system("LLT", "A", "f", "int")
        point = {"a": Fraction(5, 7), "k": 3, "r": Fraction(1, 2),
                 "b": 0, "bp": 1, "m": 1}
        assert numeric_det3(sys3.matrix, point) == Fraction(-48)
        assert system_determinant("LLT", "A", "f", "int").evaluate(point) == -48
        assert delta1_printed().evaluate(point) == -48

    def test_mirror_symmetry_between_weight_classes(self):
        for desc, ok in swap_symmetry_checks():
            assert ok, desc

    def test_mixed_identity_structure(self):
        report = compare_delta_closed_form("3")
        assert "divisible by m^6 * p * linear-factor pair" in report.notes
        assert report.quotient.degree_in("p") == 2
        assert all(v == "0" for _, v in report.omega_checks)
        nabla = dict(report.nabla_checks)
        assert nabla["nabla1"] == "matches printed form"
        assert nabla["nabla2"] == "matches printed form"
        assert "differs" in nabla["nabla3"]  # documented misprint

    def test_mixed_identity_second_family(self):
        report = compare_delta_closed_form("3p")
        assert "divisible by m^6 * p * linear-factor pair" in report.notes
        assert all(v == "0" for _, v in report.omega_checks)

    def test_sporadic_pair_membership_examples(self):
        assert delta3_vanishes_at("3", Fraction(-1), Fraction(0))
        assert delta3_vanishes_at("3p", Fraction(0), Fraction(-1))
        assert not delta3_vanishes_at("3", Fraction(1, 3), Fraction(7))

    @pytest.mark.parametrize("which", ["3", "3p"])
    def test_determinant_at_b_is_the_determinant_substituted(self, which):
        # the scan substitutes b once, then each candidate bp
        det = system_determinant("LLG", "A", *constraints._DELTA3_SYSTEM[which])
        for bv in (Fraction(-1), Fraction(1, 3)):
            at_b = delta3_at(which, bv)
            assert at_b.degree_in("b") == 0
            for bpv in (Fraction(0), Fraction(-3, 2), Fraction(7)):
                want = det.substitute({"b": bv, "bp": bpv})
                assert at_b.substitute({"bp": bpv}) == want
                assert delta3_vanishes_at(which, bv, bpv, at_b) == (not want)


class TestRootSets:
    @pytest.mark.parametrize("name", ROOT_SET_NAMES)
    def test_all_root_sets_verify(self, name):
        entry = root_set(name)
        assert entry.ok, entry.checks

    def test_discriminants_match_literally(self):
        want = {
            "f-int": 8 * b + 9, "fp-int": -8 * b - 3,
            "f-half": 1 - 8 * b, "fp-half": 13 + 8 * b,
            "lambda1": 8 * b + 9, "lambda2": -8 * b - 3,
            "lambda3": 1 - 8 * b, "lambda4": 13 + 8 * b,
        }
        for name, disc in want.items():
            assert root_set(name).quad.discriminant == disc, name

    def test_rational_specialization(self):
        entry = root_set("f-int")
        got = entry.rationals_at(Fraction(0))
        assert got == {Fraction(-1), Fraction(-2), Fraction(0), Fraction(-3)}

    def test_root_mismatch_is_detected(self):
        with pytest.raises(KeyError):
            root_set("no-such-set")


class TestCoefficientLemmas:
    @pytest.mark.parametrize("which", LEMMA_CHECKS)
    def test_lemma_groups_pass(self, which):
        group = coeff_solution_check(which)
        assert group.ok, [c for c in group.checks if not c[1]]

    def test_mutated_alpha_form_fails_the_recurrence(self, monkeypatch):
        # the lemma reads the candidate's own alpha-mode table, so a slip in
        # that table must show; here the +q term of the y-side form is dropped
        original = modules._integer_g_coeff

        def mutated(ctx, letter, g, v, vpar, kP, gP):
            co = original(ctx, letter, g, v, vpar, kP, gP)
            if ctx.mode == "alpha" and letter == "y":
                co = co - g.as_poly() * Poly.var("alpha3" if vpar == 0 else "alpha4")
            return co

        monkeypatch.setattr(modules, "_integer_g_coeff", mutated)
        group = coeff_solution_check("g-constant-forms")
        failed = [desc for desc, ok, _ in group.checks if not ok]
        assert failed == ["y side (int weights): recurrence residual vanishes",
                          "y side (half weights): recurrence residual vanishes"]

    def test_shift_invariance_has_solution_rows(self):
        group = coeff_solution_check("g-shift-invariance")
        solution_rows = [c for c in group.checks if "vanishes on the solved family" in c[0]]
        assert len(solution_rows) == 12 and all(ok for _, ok, _ in solution_rows)

    def test_exceptional_composition_discrepancies_are_recorded(self):
        group = coeff_solution_check("b-t-composition")
        assert sum("printed form differs" in n for n in group.notes) == 3

    def test_generic_composition_reproduces_solved_forms(self):
        spec = generic_candidate("A", "alpha")
        got = t_composition(spec, "x", SymIndex.var("k"), {"k": 0, "r": 1})
        a1, a4 = Poly.var("alpha1"), Poly.var("alpha4")
        want = RatFunc((a - k - r) * a4 - (a - k + 2 * b * r + r) * a1, r)
        assert got == want


class TestTCompositions:
    @pytest.mark.parametrize("spec", [
        aab(), bab(),
        FamilySpec("A1", alpha="sym"), FamilySpec("A2", alpha="sym"),
        FamilySpec("B1", alpha="sym"), FamilySpec("B2", alpha="sym"),
    ], ids=lambda s: s.family)
    def test_every_family_t_coefficient_is_rederived(self, spec):
        report = derive_T_composition(spec)
        assert report.ok, [e for e in report.entries if not e.match]

    def test_numeric_deformed_family(self):
        report = derive_T_composition(FamilySpec("A1", alpha=Fraction(2, 7)))
        assert report.ok

    @pytest.mark.parametrize("family", ["GenericA", "GenericB"])
    def test_generic_family_has_no_printed_table(self, family):
        spec = FamilySpec(family, a="sym", b="sym", bprime="sym")
        with pytest.raises(ValueError, match=f"^no printed T table for {family}$"):
            derive_T_composition(spec)


class TestNormalizations:
    def test_case_a_solutions_and_mutation(self):
        report = alpha_beta_solve("A")
        assert report.ok
        assert len(report.equations) == 24
        labels = [lab for lab, _, _ in report.solution_checks]
        assert any("mutated to 2" in lab for lab in labels)

    def test_case_b_alternating_signs(self):
        report = alpha_beta_solve("B")
        assert report.ok

    def test_exceptional_case_zero_solution_and_contradiction(self):
        report = alpha_beta_solve("B0")
        assert report.ok
        assert len(report.contradiction) == 2
        for _, res in report.contradiction:
            assert res != "0"

    def test_unknown_case_is_rejected(self):
        with pytest.raises(ValueError):
            alpha_beta_solve("C")


class TestNonexistence:
    def test_contradiction_witness(self):
        report = b0_nonexistence_check()
        assert report.ok
        assert report.witness["residual"] == "-2*a + 2*k"


class TestPropagation:
    def test_window_propagation(self):
        report = recurrence_propagation_check()
        assert report.ok, report.checks

    def test_mutated_leading_coefficient_fails(self, monkeypatch):
        # doubled, the coefficient still stalls only at m = 2 at n = 1 and is
        # nonzero at (4, -1), but it is not -(m/2 - n): the induction fails
        original = constraints.linear_decompose
        target = unknown_name("g", M + N, K)

        def mutated(poly, names):
            coeffs = original(poly, names)
            if target in coeffs:
                coeffs[target] = 2 * coeffs[target]
            return coeffs

        monkeypatch.setattr(constraints, "linear_decompose", mutated)
        failed = [desc for desc, ok, _ in recurrence_propagation_check().checks if not ok]
        assert failed == ["shifted-mode coefficient is -(m/2 - n)",
                          "the (m,n)=(4,-1) instance reaches the stalled mode",
                          "zero propagation from row 1 covers every mode and weight index"]


class TestIntersections:
    def test_sample_grid(self):
        params = sample_parameters()
        assert len(params) == 141
        assert Fraction(-9, 8) not in params
        assert Fraction(-20) in params and Fraction(19, 5) in params

    def test_case_a_scan_matches_with_documented_sporadics(self):
        report = intersection_scan("A")
        assert report.ok, report.unexplained
        got = {(bv, extras[0]) for bv, extras in report.exceptions}
        assert got == set(SPORADIC_SURVIVORS_A)

    def test_case_b_scan_is_clean(self):
        report = intersection_scan("B")
        assert report.ok and not report.exceptions

    def test_case_b_scan_fails_when_a_root_set_loses_b_plus_half(self, monkeypatch):
        # the scan requires b - 1/2 and b + 1/2 in both weight classes' root sets
        rationals_at = RootSetEntry.rationals_at

        def losing(entry, bv):
            vals = rationals_at(entry, bv)
            if entry.name in ("lambda3", "lambda4"):
                vals.discard(bv + Fraction(1, 2))
            return vals

        monkeypatch.setattr(RootSetEntry, "rationals_at", losing)
        params = [Fraction(-1), Fraction(0), Fraction(2, 3)]
        report = intersection_scan("B", params)
        assert not report.ok
        assert [(bv, exp) for bv, _, exp in report.unexplained] == [
            (bv, [bv - Fraction(1, 2), bv + Fraction(1, 2)]) for bv in params]
        assert all(bv + Fraction(1, 2) not in got for bv, got, _ in report.unexplained)

    def test_pair_tables(self):
        assert len(OMEGA_PAIRS) == len(OMEGA_PRIME_PAIRS) == 4
        assert set(OMEGA_PRIME_PAIRS) == {(y, x) for x, y in OMEGA_PAIRS}
        assert set(LAMBDA_PAIRS) & set(LAMBDA_PRIME_PAIRS) == {
            (Fraction(-3, 2), Fraction(0)), (Fraction(0), Fraction(-3, 2))}
