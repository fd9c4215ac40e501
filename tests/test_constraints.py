"""Constraint determinants, root sets, coefficient lemmas, normalizations."""

from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest

from twistn2.constraints import (K, M, N, LAMBDA_PAIRS, LAMBDA_PRIME_PAIRS, LEMMA_CHECKS,
                                 MalformedInstance, OMEGA_PAIRS,
                                 OMEGA_PRIME_PAIRS, ROOT_SET_NAMES,
                                 SPORADIC_SURVIVORS_A, alpha_beta_solve,
                                 b0_nonexistence_check, build_identity_system,
                                 coeff_solution_check, compare_delta_closed_form,
                                 delta1_printed, delta2_printed, determinant3,
                                 delta3_vanishes_at, derive_T_composition,
                                 generic_candidate, identity_system, intersection_scan,
                                 recurrence_propagation_check, root_set,
                                 sporadic_values,
                                 swap_symmetry_checks, system_determinant,
                                 t_composition)
from twistn2 import constraints, modules, poly
from twistn2.algebra import bracket_terms
from twistn2.cli import main
from twistn2.indices import SymIndex
from twistn2.modules import FamilySpec, aab, bab, unknown_name
from twistn2.poly import ONE, Poly, RatFunc, ZERO
from twistn2.report import Report

a, b, bp, m, k, r, p = (Poly.var(s) for s in ("a", "b", "bp", "m", "k", "r", "p"))
H = Fraction(1, 2)


def delta3_at(which: str, b: Fraction) -> Poly:
    """Reference: the mixed-identity determinant at one b, a polynomial in
    bp, a, m, p and k."""
    return system_determinant("LLG", "A", *constraints._DELTA3_SYSTEM[which]).substitute({"b": b})


def numeric_det3(matrix, bindings):
    """Independent oracle: substitute first, then expand numerically."""
    rows = [[entry.evaluate(bindings) for entry in row] for row in matrix]
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
    return (a1 * b2 * c3 + a2 * b3 * c1 + a3 * b1 * c2
            - a3 * b2 * c1 - a2 * b1 * c3 - a1 * b3 * c2)


def test_reading_an_unseen_symbol_registers_nothing():
    # linear_decompose reads each name's terms; an unseen name has none, and
    # registering it would shift the first-use order rendering rests on
    row = 3 * b * Poly.var("alpha1") - Poly.var("alpha2") + a * Poly.var("alpha1")
    names = list(poly._NAMES)
    parts = constraints.linear_decompose(row, ["alpha1", "alpha2", "unseen_ww"])
    assert parts == {"alpha1": 3 * b + a, "alpha2": -ONE, "unseen_ww": ZERO}
    assert poly._NAMES == names
    with pytest.raises(MalformedInstance):
        constraints.linear_decompose(row + 1, ["alpha1", "alpha2"])


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
        assert compare_delta_closed_form("1").ok
        derived = system_determinant("LLT", "A", "f", "int")
        assert derived.degree_in("m") == 6
        assert derived.variables() == ("b", "bp", "m")

    def test_second_determinant_matches_printed_factorization(self):
        assert compare_delta_closed_form("2").ok

    def test_numeric_oracle_point(self):
        # substitute-then-expand versus expand-then-substitute versus printed
        sys3 = build_identity_system("LLT", "A", "f", "int")
        point = {"a": Fraction(5, 7), "k": 3, "r": Fraction(1, 2),
                 "b": 0, "bp": 1, "m": 1}
        assert numeric_det3(sys3.matrix, point) == Fraction(-48)
        assert system_determinant("LLT", "A", "f", "int").evaluate(point) == -48
        assert delta1_printed().evaluate(point) == -48

    def test_mirror_symmetry_between_weight_classes(self):
        report = swap_symmetry_checks()
        assert len(report.checks) == 2 and report.ok, report.checks

    def test_mixed_identity_structure(self):
        report = compare_delta_closed_form("3")
        assert report.ok
        assert constraints._delta3_quotient("3").degree_in("p") == 2
        assert set(sporadic_values("3").values()) == {"0"}
        assert [c.ref for c in report.checks] == ["delta3-divisibility",
                                                  "delta3-sporadic-pairs",
                                                  "delta3-nabla1", "delta3-nabla2"]
        assert [n.split(":")[0] for n in report.notes] == ["nabla3"]  # documented misprint

    @pytest.mark.parametrize("piece", ["nabla1_printed", "nabla2_printed"])
    def test_a_wrong_printed_nabla_piece_fails_delta(self, monkeypatch, capsys, piece):
        # only the known nabla3 misprint is a note; a wrong nabla1 or nabla2
        # fails its check, with the derived piece as witness
        orig = getattr(constraints, piece)
        monkeypatch.setattr(constraints, piece, lambda: orig() + b)
        assert main(["delta", "--which", "3", "--format", "json"]) == 1
        report = compare_delta_closed_form("3")
        name = piece.split("_")[0]
        failed, = [c for c in report.checks if not c.passed]
        assert failed.ref == f"delta3-{name}" and failed.witness == str(orig())
        assert [n.split(":")[0] for n in report.notes] == ["nabla3"]

    def test_mixed_identity_second_family(self):
        assert compare_delta_closed_form("3p").ok
        assert constraints._delta3_quotient("3p").degree_in("p") == 2
        assert set(sporadic_values("3p").values()) == {"0"}

    def test_sporadic_pair_membership_examples(self):
        assert delta3_vanishes_at("3", Fraction(-1), Fraction(0))
        assert delta3_vanishes_at("3p", Fraction(0), Fraction(-1))
        assert not delta3_vanishes_at("3", Fraction(1, 3), Fraction(7))

    @pytest.mark.parametrize("which", ["3", "3p"])
    def test_determinant_at_b_is_the_determinant_substituted(self, which):
        det = system_determinant("LLG", "A", *constraints._DELTA3_SYSTEM[which])
        for bv in (Fraction(-1), Fraction(1, 3)):
            at_b = delta3_at(which, bv)
            assert at_b.degree_in("b") == 0
            for bpv in (Fraction(0), Fraction(-3, 2), Fraction(7)):
                want = det.substitute({"b": bv, "bp": bpv})
                assert at_b.substitute({"bp": bpv}) == want
                assert delta3_vanishes_at(which, bv, bpv) == (not want)

    def test_zero_test_agrees_with_substitution_over_the_scan(self, monkeypatch):
        # the case-A scan re-verifies each survivor it derives off the
        # diagonal, with both determinants
        visited = []
        orig = constraints.delta3_vanishes_at

        def record(which, bv, cand):
            visited.append((which, bv, cand))
            return orig(which, bv, cand)

        monkeypatch.setattr(constraints, "delta3_vanishes_at", record)
        assert intersection_scan("A").ok
        assert sorted(visited) == sorted((which, bv, bpv) for which in ("3", "3p")
                                         for bv, bpv in SPORADIC_SURVIVORS_A)
        for which, bv, cand in visited:
            assert orig(which, bv, cand) and not delta3_at(which, bv).substitute({"bp": cand})
        # and off the survivors, where the test stops at a nonzero coefficient
        for which, bv, cand in [(w, bv, bpv + 1) for w, bv, bpv in visited]:
            assert orig(which, bv, cand) == (not delta3_at(which, bv).substitute({"bp": cand}))


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

    def test_root_mismatch_is_detected(self):
        with pytest.raises(KeyError):
            root_set("no-such-set")

    @staticmethod
    def _patch_f_int(monkeypatch, edit):
        orig = constraints._roots_spec

        def patched():
            spec = orig()
            system, linear, disc = spec["f-int"]
            spec["f-int"] = (system, edit(list(linear)), disc)
            return spec

        monkeypatch.setattr(constraints, "_roots_spec", patched)
        monkeypatch.setattr(constraints, "_ROOT_CACHE", {})

    def test_a_moved_printed_root_fails_its_check(self, monkeypatch, capsys):
        # f-int's root -b-1 moved to -b: that root fails with itself as
        # witness, the cofactor stays cubic, and the scan that reads f-int fails
        self._patch_f_int(monkeypatch, lambda linear: [-b] + linear[1:])
        assert main(["roots", "--which", "f-int", "--format", "json"]) == 1
        root, cofactor, disc = [c for c in root_set("f-int").checks if not c.passed]
        assert root.name == "f-int: linear root bp=-b annihilates the determinant"
        assert root.witness == str(-b) and cofactor.witness.startswith("degree 3 in bp")
        assert main(["solve-coeffs", "--which", "intersections", "--format", "json"]) == 1
        scan, = intersection_scan("A").checks
        assert not scan.passed and scan.witness == ["f-int"]
        assert intersection_scan("B").ok

    def test_a_dropped_printed_root_fails_the_cofactor(self, monkeypatch, capsys):
        # f-int's last root, b, dropped: every printed root annihilates, but
        # the cofactor is cubic in bp
        self._patch_f_int(monkeypatch, lambda linear: linear[:-1])
        assert main(["roots", "--which", "f-int", "--format", "json"]) == 1
        entry = root_set("f-int")
        assert entry.quad is None
        assert [c.name.split(": ")[1] for c in entry.checks if not c.passed] == [
            "cofactor is quadratic in bp", "discriminant equals 8*b + 9"]


class TestCoefficientLemmas:
    @pytest.mark.parametrize("which", LEMMA_CHECKS)
    def test_lemma_groups_pass(self, which):
        group = coeff_solution_check(which)
        assert group.ok, [c for c in group.checks if not c.passed]

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
        failed = [c.name for c in group.checks if not c.passed]
        assert failed == ["g-constant-forms: y side (int weights): recurrence residual vanishes",
                          "g-constant-forms: y side (half weights): recurrence residual vanishes"]

    def test_shift_invariance_has_solution_rows(self):
        group = coeff_solution_check("g-shift-invariance")
        solution_rows = [c for c in group.checks if "vanishes on the solved family" in c.name]
        assert len(solution_rows) == 12 and all(c.passed for c in solution_rows)

    @pytest.mark.parametrize("matrix", [
        [[ZERO] * 3] * 3,
        [[p, k, m], [2 * p, 2 * k, 2 * m], [ONE, ONE, ONE]],
    ], ids=["zero-matrix", "proportional-rows"])
    def test_zero_elimination_relates_nothing(self, matrix):
        # both eliminated combinations vanish, so the shape holds with a zero
        # factor; that pins no unknown, and the check must fail
        sys3 = constraints.System3("LLG", "A", "g", "int",
                                   [(SymIndex.var("p"), K + M), (SymIndex.var("p"), K),
                                    (SymIndex.var("p"), K - M)], matrix)
        rep = Report("g-shift-invariance")
        constraints._shift_factor_check(rep, sys3, "x side (integer weights)",
                                        weights=(ONE, ONE))
        [check] = rep.checks
        assert check.name.endswith("elimination yields factor * proportionality relation")
        assert not check.passed

    def test_mutated_alpha_form_fails_the_elimination(self, monkeypatch):
        # the weights of the elimination are read from the table, so the
        # y-side form with its +q term dropped no longer fits the system
        original = modules._integer_g_coeff

        def mutated(ctx, letter, g, v, vpar, kP, gP):
            co = original(ctx, letter, g, v, vpar, kP, gP)
            if ctx.mode == "alpha" and letter == "y":
                co = co - g.as_poly() * Poly.var("alpha3" if vpar == 0 else "alpha4")
            return co

        monkeypatch.setattr(modules, "_integer_g_coeff", mutated)
        group = coeff_solution_check("g-shift-invariance")
        failed = {c.name for c in group.checks if not c.passed}
        assert ("g-shift-invariance: y side (integer weights): elimination yields factor * "
                "proportionality relation") in failed

    def test_mutated_mu_form_fails_its_elimination(self, monkeypatch):
        # 1/(a-k) on the half-odd x side, mutated to 1/(a-k+1)
        original = modules._integer_g_coeff

        def mutated(ctx, letter, g, v, vpar, kP, gP):
            co = original(ctx, letter, g, v, vpar, kP, gP)
            if ctx.branch == "mu" and letter == "x" and vpar == 1:
                co = RatFunc(Poly.var("mu2"), a - kP + 1)
            return co

        monkeypatch.setattr(modules, "_integer_g_coeff", mutated)
        group = coeff_solution_check("b-shift-relations")
        failed = {c.name for c in group.checks if not c.passed}
        assert ("b-shift-relations: exceptional-case x side (half-odd weights): elimination "
                "yields factor * proportionality relation") in failed

    def test_the_shift_lemmas_build_eight_systems(self, monkeypatch):
        # case B's four systems serve both its beta and its mu branch, and
        # a second run builds none (`identity_system`)
        built = []
        original = constraints.build_identity_system

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(constraints, "build_identity_system", counting)
        monkeypatch.setattr(constraints, "_SYSTEMS", {})
        for which in ("g-shift-invariance", "b-shift-relations") * 2:
            assert coeff_solution_check(which).ok
        assert len(built) == 8 and len(set(built)) == 8

    def test_the_case_a_shift_lemma_reuses_the_mixed_identity_systems(self, monkeypatch):
        # the two LLG systems of case A that delta 3 and 3' built are read
        # again, not rebuilt; the memo holds the system its determinant expands
        built = []
        original = constraints.build_identity_system

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(constraints, "build_identity_system", counting)
        monkeypatch.setattr(constraints, "_SYSTEMS", {})
        monkeypatch.setattr(constraints, "_DET_CACHE", {})
        assert compare_delta_closed_form("3").ok and compare_delta_closed_form("3p").ok
        assert built == [("LLG", "A", "g", "int"), ("LLG", "A", "gp", "half")]
        assert coeff_solution_check("g-shift-invariance").ok
        assert built[2:] == [("LLG", "A", "g", "half"), ("LLG", "A", "gp", "int")]
        sys3 = identity_system("LLG", "A", "g", "int")
        assert determinant3(sys3.matrix) == system_determinant("LLG", "A", "g", "int")
        assert identity_system("LLG", "A", "g", "int") is sys3 and len(built) == 4

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
        assert report.ok, [c for c in report.checks if not c.passed]

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
        assert len(constraints._equation_stack(generic_candidate("A", "alpha"))) == 24
        assert any("mutated to 2" in c.name for c in report.checks)

    def test_case_b_alternating_signs(self):
        report = alpha_beta_solve("B")
        assert report.ok

    def test_exceptional_case_zero_solution_and_contradiction(self):
        report = alpha_beta_solve("B0")
        assert report.ok
        assert len(report.notes) == 2
        for note in report.notes:
            assert not note.endswith("residual 0")

    def test_unknown_case_is_rejected(self):
        with pytest.raises(ValueError):
            alpha_beta_solve("C")


class TestNonexistence:
    def test_contradiction_witness(self):
        report = b0_nonexistence_check()
        assert report.ok
        assert report.checks[0].witness == "-2*a + 2*k"


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
        failed = [c.name for c in recurrence_propagation_check().checks if not c.passed]
        assert failed == [f"recurrence propagation: {desc}" for desc in (
            "shifted-mode coefficient is -(m/2 - n)",
            "the (m,n)=(4,-1) instance reaches the stalled mode",
            "zero propagation from row 1 covers every mode and weight index")]


class TestIntersections:
    CLASSES = (("f-int", "fp-int"), ("f-half", "fp-half"))
    NAME = "intersection (A): survivors match the classification for every b"

    @classmethod
    def class_products(cls):
        return [prod((c for name in names for c in root_set(name).components), start=ONE)
                for names in cls.CLASSES]

    @staticmethod
    def patch_deltas(monkeypatch, edit):
        # both mixed-identity determinants edited, for the scan and the zero test
        original = constraints.system_determinant

        def patched(kind, case, fam, kclass):
            det = original(kind, case, fam, kclass)
            return edit(det) if (kind, case) == ("LLG", "A") else det

        monkeypatch.setattr(constraints, "system_determinant", patched)

    def scan_witness(self):
        report = intersection_scan("A")
        scan, = report.checks
        assert scan.name == self.NAME and not scan.passed
        return scan.witness

    def test_the_scan_passes_at_the_case_a_discriminant_zeros(self):
        # at its discriminant zero a quadratic component has a double root
        # in bp; the exact scan's survivors there are those of a pointwise
        # decision: the common bp roots of both classes, with multiplicity,
        # kept where both determinants vanish -- the diagonal alone
        zeros = {}
        for name, ((case, *_), _, disc) in constraints._roots_spec().items():
            if case == "A":
                zeros[name] = -disc.coeff_in("b", 0).const_value() / disc.coeff_in("b", 1).const_value()
                at_zero = root_set(name).quad.as_poly().substitute({"b": zeros[name]})
                roots, cofactor = poly.rational_roots(at_zero, "bp")
                assert len(roots) == 2 and roots[0] == roots[1] and cofactor == ONE
        assert set(zeros.values()) == {Fraction(n, 8) for n in (-9, -3, 1, -13)}
        report = intersection_scan("A")
        assert report.ok, report.checks
        assert [c.name for c in report.checks] == [self.NAME]
        m1, m2 = self.class_products()
        for bv in zeros.values():
            first, second = (set(poly.rational_roots(mc.substitute({"b": bv}), "bp")[0])
                             for mc in (m1, m2))
            survivors = {bpv for bpv in first & second
                         if delta3_vanishes_at("3", bv, bpv) and delta3_vanishes_at("3p", bv, bpv)}
            assert survivors == {bv}
            assert not any(b0 == bv for b0, _ in SPORADIC_SURVIVORS_A)

    def test_an_off_grid_meeting_point_is_examined_and_rejected(self):
        # (-9/8, -3/8), with denominator 8, is where f-int's and fp-half's
        # quadratics meet, on their line bp = -b - 3/2; the class products
        # alone keep it and its mirror, and the determinants reject both
        lines, unlined = constraints._case_a_lines(
            *[[root_set(name) for name in names] for names in self.CLASSES])
        assert not unlined and "bp = -b - 3/2" in lines
        line = lines["bp = -b - 3/2"]
        products = self.class_products()
        spurious = {(Fraction(-9, 8), Fraction(-3, 8)), (Fraction(-3, 8), Fraction(-9, 8))}
        points, _ = constraints._common_zeros(products, *line)
        assert spurious <= points
        deltas = [system_determinant("LLG", "A", *constraints._DELTA3_SYSTEM[w]) for w in ("3", "3p")]
        points, _ = constraints._common_zeros(products + deltas, *line)
        assert not spurious & points
        assert not delta3_vanishes_at("3", Fraction(-9, 8), Fraction(-3, 8))

    def test_a_line_without_bp_is_read_along_bp(self):
        # no case-A line is vertical, but a quadratic pair whose bp terms
        # cancel would give one: b = c, read along t = bp
        label, t, bindings = constraints._line(2 * b + 3)
        assert (label, t, bindings) == ("b = -3/2", "bp", {"b": Fraction(-3, 2)})
        assert constraints._line(2 * bp - 4 * b + 2) == ("bp = 2*b - 1", "b", {"bp": 2 * b - 1})
        polys = [(bp - 1) * (bp - H) * m + (bp - 1) * (b + H) * k, (b + bp) * (2 * bp - 2)]
        points, cofactor = constraints._common_zeros(polys, t, bindings)
        assert points == {(Fraction(-3, 2), Fraction(1))} and cofactor == ONE
        assert constraints._common_zeros([(2 * b + 3) * k], t, bindings) is None

    def test_an_irrational_survivor_fails_with_its_cofactor(self, monkeypatch):
        # b^2 - 2 in both determinants: on each line where both classes
        # vanish, the gcd keeps it, and it does not split over Q
        self.patch_deltas(monkeypatch, lambda det: det * (b * b - 2))
        witness = self.scan_witness()
        unsplit = [w for w in witness if "has no rational root" in w]
        assert len(unsplit) == 6  # the shared lines off the diagonal
        assert all("the cofactor b^2 - 2 " in w for w in unsplit)
        assert unsplit[0] == "on bp = -b - 1, the cofactor b^2 - 2 has no rational root"

    def test_a_second_whole_surviving_line_fails(self, monkeypatch):
        # both determinants vanish on bp = -b - 1, a component of both classes
        self.patch_deltas(monkeypatch, lambda det: det * (b + bp + 1))
        witness = self.scan_witness()
        assert "whole surviving lines ['bp = -b - 1', 'bp = b'], not the diagonal alone" in witness

    def test_a_survivor_the_zero_test_does_not_confirm_fails(self, monkeypatch):
        # the re-verification is a second, independent decision of each survivor
        monkeypatch.setattr(constraints, "delta3_vanishes_at", lambda which, bv, bpv: bv != 0)
        assert self.scan_witness() == ["a determinant does not vanish at (0, -1)"]

    def test_quadratics_with_different_leading_forms_fail(self, monkeypatch):
        # f-int's quadratic with leading form (b + bp)^2 + b bp: its
        # difference from each half-odd quadratic is not a line
        entry = root_set("f-int")
        skewed = poly.quadratic_root_data(entry.quad.as_poly() + b * bp, "bp")
        monkeypatch.setitem(constraints._ROOT_CACHE, "f-int", replace(entry, quad=skewed))
        witness = self.scan_witness()
        assert witness[:2] == [f"the quadratics of f-int and {name} differ by "
                               f"{skewed.as_poly() - root_set(name).quad.as_poly()}"
                               for name in ("f-half", "fp-half")]

    def test_case_a_scan_matches_with_documented_sporadics(self):
        report = intersection_scan("A")
        assert report.ok, report.checks
        assert report.notes == [f"intersection (A): documented sporadic survivor at b={bv}: "
                                f"['{bpv}']" for bv, bpv in SPORADIC_SURVIVORS_A]

    def test_case_b_scan_is_clean(self):
        report = intersection_scan("B")
        assert report.ok and not report.notes

    def test_case_b_fails_when_a_half_class_determinant_loses_b_plus_half(self, monkeypatch):
        # a term that vanishes at bp = b - 1/2 but not at b + 1/2: neither
        # half-odd determinant is annihilated by b + 1/2 any more
        original = constraints.system_determinant

        def mutated(kind, case, fam, kclass):
            det = original(kind, case, fam, kclass)
            if (kind, case, kclass) == ("LLT", "B", "half"):
                det = det + (bp - b + H) * m**6
            return det

        monkeypatch.setattr(constraints, "system_determinant", mutated)
        report = intersection_scan("B")
        assert not report.ok
        assert report.checks[0].witness == ["bp = b + 1/2 on half weights"]

    def test_pair_tables(self):
        assert len(OMEGA_PAIRS) == len(OMEGA_PRIME_PAIRS) == 4
        assert set(OMEGA_PRIME_PAIRS) == {(y, x) for x, y in OMEGA_PAIRS}
        assert set(LAMBDA_PAIRS) & set(LAMBDA_PRIME_PAIRS) == {
            (Fraction(-3, 2), Fraction(0)), (Fraction(0), Fraction(-3, 2))}
