"""Command-line interface: parsing, exit codes, report determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction

from twistn2 import algebra, cli, constraints, deformation, modules
from twistn2.cli import main, parse_candidate, UsageError
from twistn2.indices import SymIndex
from twistn2.poly import NotDivisible
from twistn2.report import Tally


# a child interpreter that imports the package from this checkout
SRC = str(Path(cli.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _a1_slot_at_x1(mp):
    mp.setitem(modules.BASE_FAMILY, "A1", (*modules.BASE_FAMILY["A1"][:4], ("x", SymIndex(2))))


def _t_central_doubled(mp):
    orig = algebra._central
    mp.setattr(algebra, "_central",
               lambda kind, i, env=None: (2 if kind == "T" else 1) * orig(kind, i, env))


def _llg_factor_doubled_plus_b(mp):
    # a printed factor no known misprint covers
    orig = constraints._printed_llg_factors

    def wrong():
        factors = orig()
        key = ("alpha", "gp", "half")
        factors[key] = 2 * factors[key] + constraints.Pb
        return factors

    mp.setattr(constraints, "_printed_llg_factors", wrong)


def _printed_alpha(mp):
    mp.setitem(modules.PRINTED_CONSTANTS, "alpha", (2, 1, 1, 1))


class TestPrintedDataMutations:
    """A wrong printed datum makes the verb that reads it exit 1."""

    @pytest.mark.parametrize("patch, argv", [
        (lambda mp: mp.setattr(constraints, "SPORADIC_SURVIVORS_A",
                               constraints.SPORADIC_SURVIVORS_A[:-1]),
         ("solve-coeffs", "--which", "intersections")),
        (lambda mp: mp.setitem(modules.PRINTED_CONSTANTS, "beta", (1, 1, 1, -1)),
         ("verify-axioms", "--family", "Bab", "--a", "1/3", "--b", "2/5")),
        (_a1_slot_at_x1, ("verify-axioms", "--family", "A1", "--alpha", "2/7")),
        (_printed_alpha, ("solve-coeffs", "--which", "normalization-a")),
        (lambda mp: mp.setitem(modules.PRINTED_CONSTANTS, "mu", (0, 1, 0, 0)),
         ("solve-coeffs", "--which", "normalization-b0")),
        (lambda mp: mp.setitem(deformation.CASES, "A1", deformation.DeformCase("A1", +1)),
         ("deform", "--case", "A1")),
        (_t_central_doubled, ("jacobi",)),
        (lambda mp: mp.setattr(constraints, "OMEGA_PAIRS", constraints.OMEGA_PAIRS[:-1] + (
            (Fraction(1, 2), Fraction(-1, 2)),)),
         ("roots", "--which", "omega")),
        (_llg_factor_doubled_plus_b, ("solve-coeffs", "--which", "g-shift-invariance")),
        # a survivor off any sampled grid of denominators up to 5: the
        # meeting point of two quadratic components that the determinants reject
        (lambda mp: mp.setattr(constraints, "SPORADIC_SURVIVORS_A",
                               constraints.SPORADIC_SURVIVORS_A + (
                                   (Fraction(-9, 8), Fraction(-3, 8)),)),
         ("solve-coeffs", "--which", "intersections")),
    ], ids=["sporadic-survivors-a", "printed-beta", "a1-slot-at-x1", "printed-alpha",
            "printed-mu", "a1-case-sign", "t-central-doubled", "omega-last-pair",
            "llg-factor", "spurious-survivor-a"])
    def test_mutated_datum_fails_its_verb(self, capsys, monkeypatch, patch, argv):
        assert run(capsys, *argv)[0] == 0
        patch(monkeypatch)
        assert run(capsys, *argv)[0] == 1

    # sweeps of symbolic families, which run on their twins
    @pytest.mark.parametrize("patch, family, count", [
        (_a1_slot_at_x1, ("--family", "A1", "--alpha", "sym"), 350),
        (_printed_alpha, ("--family", "Aab"), 1094),
    ], ids=["a1-slot-at-x1-sym", "printed-alpha-aab-sym"])
    def test_mutated_datum_in_a_twinned_sweep_reports_every_violation(
            self, capsys, monkeypatch, patch, family, count):
        patch(monkeypatch)
        code, out = run(capsys, "verify-axioms", *family, "--format", "json")
        assert code == 1 and json.loads(out)["notes"] == [f"{count} violations in total"]

    def test_a1_slot_at_x1_reports_every_violation(self, capsys, monkeypatch):
        _a1_slot_at_x1(monkeypatch)
        code, out = run(capsys, "verify-axioms", "--family", "A1", "--alpha", "2/7",
                        "--format", "json")
        assert code == 1 and json.loads(out)["notes"] == ["350 violations in total"]

    def test_a_wrong_llg_factor_fails_its_check(self, capsys, monkeypatch):
        # off the known misprints a mismatch is a failing check, not a note,
        # so the check count stays 18
        _llg_factor_doubled_plus_b(monkeypatch)
        code, out = run(capsys, "solve-coeffs", "--which", "g-shift-invariance",
                        "--format", "json")
        report = json.loads(out)
        assert code == 1 and report["summary"] == {"passed": 17, "failed": 1}
        failed, = [c for c in report["checks"] if c["status"] == "fail"]
        assert failed["name"].endswith("y side (half-odd weights): printed factor reproduced")
        assert failed["witness"] and not any("half-odd" in n for n in report["notes"])


class TestParsing:
    def test_unknown_verb_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_option(self, capsys):
        code, _ = run(capsys, "verify-axioms")
        assert code == 2

    def test_bad_rational_literal(self, capsys):
        code, _ = run(capsys, "verify-axioms", "--family", "Aab", "--a", "nope")
        assert code == 2

    def test_excluded_exceptional_parameters_exit_2(self, capsys):
        code, _ = run(capsys, "verify-axioms", "--family", "Bab",
                      "--a", "1/2", "--b", "0", "--bprime", "-3/2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("verify-axioms", "--family", "A1", "--alpha", "2/7", "--gen-window=-1"),
        ("submodule", "--family", "Aab", "--candidate", "span:x0", "--basis-window", "0"),
        ("jacobi", "--window", "0"),
    ])
    def test_window_below_1_exits_2(self, capsys, argv):
        assert main(list(argv)) == 2
        assert "window must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["GenericA", "GenericB"])
    def test_generic_family_rejects_bprime(self, capsys, family):
        # the printed coefficient forms fix bprime, so a given one is never checked
        assert main(["verify-axioms", "--family", family, "--a", "1/3", "--b", "2",
                     "--bprime", "5"]) == 2
        assert "drop --bprime" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("verify-axioms", "--family", "A1", "--alpha", "2/7", "--inject-fault", "aab.t-sign"),
        ("verify-axioms", "--family", "GenericA", "--inject-fault", "aab.gy-coeff"),
    ], ids=["other-family", "generic"])
    def test_fault_of_another_family_exits_2(self, capsys, argv):
        # the fault would inject nothing, so a pass under its label would lie
        assert main(list(argv)) == 2
        assert "is not a catalogued fault of" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["GenericA", "GenericB"])
    def test_compose_t_on_generic_family_exits_2(self, capsys, family):
        # the generic candidates have no printed T table to compare with
        assert main(["compose-t", "--family", family]) == 2
        assert f"no printed T table for {family}" in capsys.readouterr().err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("root set differs")

        monkeypatch.setitem(cli.VERBS, "delta", crash)
        assert main(["delta"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "internal error: RuntimeError: root set differs" in err

    @pytest.mark.parametrize("argv, flag", [
        (("verify-axioms", "--family", "Aab", "--a", "1/3", "--b", "0", "--bprime", "-3/2"),
         "bprime=-3/2"),
        (("verify-axioms", "--family", "A1", "--alpha", "2/7", "--a", "1"), "--a"),
        (("verify-axioms", "--family", "B2", "--alpha", "2/7", "--b", "0", "--bprime", "0"),
         "--b, --bprime"),
        (("submodule", "--family", "Aab", "--alpha", "1", "--candidate", "span:x0"),
         "--alpha"),
        (("verify-axioms", "--family", "Bab", "--alpha", "1"), "--alpha"),
        (("compose-t", "--family", "GenericA", "--alpha", "1"), "--alpha"),
    ], ids=["aab-bprime", "a1-a", "b2-b-bprime", "aab-alpha", "bab-alpha", "generic-alpha"])
    def test_option_the_family_does_not_read_exits_2(self, capsys, argv, flag):
        # an option the family ignores would be reported but never checked
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    def test_aab_bprime_equal_to_b_is_accepted(self, capsys):
        code, out = run(capsys, "verify-axioms", "--family", "Aab", "--a", "1/3", "--b", "0",
                        "--bprime", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["params"]["family"] == "Aab a=1/3 b=0 bprime=0"

    def test_candidate_grammar(self):
        cand = parse_candidate("span:x0,y1/2")
        assert cand.kind == "span" and len(cand.labels) == 2
        cand = parse_candidate("complement:x-3/2")
        assert cand.kind == "complement"
        with pytest.raises(UsageError):
            parse_candidate("everything")

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_a_parser_of_one_verb_prints_what_the_full_parser_prints(
            self, capsys, monkeypatch, verb):
        # `main` builds only the subparser of the verb it is given: its
        # help, and the usage of the parser around it, must not change
        monkeypatch.setenv("COLUMNS", "80")
        printed = []
        for parser in (cli.make_parser(verb), cli.make_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args([verb, "--help"])
            printed.append((capsys.readouterr(), parser.format_usage()))
        assert printed[0] == printed[1] and f"twistn2 {verb}" in printed[0][0].out

    A_SWEEP = ["verify-axioms", "--family", "A1", "--alpha", "-2/7", "--gen-window", "1",
               "--basis-window", "1", "--format", "json"]

    @pytest.mark.parametrize("calls", [
        *([(80, argv)] for argv in (
            ["--help"], [], ["bogus"], ["verify-axioms", "--bogus"],
            ["verify-axioms", "--family", "Z"], ["jacobi", "--window", "0"], A_SWEEP)),
        # one process, the help width changed between calls
        [(80, A_SWEEP), (60, ["verify-axioms", "--bogus"]), (120, ["verify-axioms", "--help"]),
         (45, ["verify-axioms", "--family", "Z"]),
         (200, ["verify-axioms", "--family", "A1", "--alpha", "1", "--gen-window", "0"]),
         (70, A_SWEEP)],
    ], ids=["help", "no-verb", "unknown-verb", "unknown-option", "bad-choice",
            "bad-window", "a-sweep", "a-sequence"])
    def test_main_answers_as_with_the_full_parser(self, capsys, monkeypatch, calls):
        # `main` reuses one parser per verb and help width, holding that
        # verb's subparser alone: each call answers as a full parser built
        # afresh for it does, whatever the calls before it parsed
        def fresh(only=None):
            return cli._parser.__wrapped__(None, shutil.get_terminal_size().columns - 2)

        answers = {}
        for make in (cli.make_parser, fresh):
            monkeypatch.setattr(cli, "make_parser", make)
            for columns, argv in calls:
                monkeypatch.setenv("COLUMNS", str(columns))
                code = main(list(argv))
                answers.setdefault(make, []).append((code, *capsys.readouterr()))
        memo, built = answers.values()
        assert memo == built
        # and the widths the calls ran at shape what they print
        helps = set()
        for columns in (45, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            helps.add(cli.make_parser("verify-axioms").format_help())
        assert len(helps) == 2


class TestReports:
    def test_delta_json_schema_and_exit_code(self, capsys):
        code, out = run(capsys, "delta", "--which", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "delta"
        assert payload["summary"] == {"passed": 1, "failed": 0}
        check = payload["checks"][0]
        assert set(check) >= {"name", "ref", "status"}
        assert check["status"] == "pass"

    def test_reports_are_byte_stable(self, capsys):
        _, first = run(capsys, "roots", "--which", "f-int", "--format", "json")
        _, second = run(capsys, "roots", "--which", "f-int", "--format", "json")
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run(capsys, "jacobi", "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["summary"]["failed"] == 0

    def test_unwritable_out_file_exits_2(self, tmp_path):
        target = tmp_path / "no-such-dir" / "x.json"
        proc = subprocess.run([sys.executable, "-m", "twistn2.cli", "nonexist-b0",
                               "--out", str(target)],
                              env=CHILD_ENV, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_closed_stdout_exits_3_without_traceback(self):
        # as in `twistn2 roots | head -1`, but with the reader gone before
        # the first write, so the outcome does not depend on timing
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "twistn2.cli", "roots"],
                                  env=CHILD_ENV, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr

    def test_fault_injection_exits_1_with_witness(self, capsys):
        code, out = run(capsys, "verify-axioms", "--family", "Aab",
                        "--inject-fault", "aab.t-sign", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        failing = [c for c in payload["checks"] if c["status"] == "fail"]
        assert failing and "witness" in failing[0]

    @pytest.mark.parametrize("family, b, label", [
        ("GenericA", "2", "GenericA a=1/3 b=2 bprime=2"),
        ("GenericB", "2", "GenericB a=1/3 b=2 bprime=3/2"),
        ("GenericA", None, "GenericA a=1/3 b=sym bprime=b"),
        ("GenericB", None, "GenericB a=1/3 b=sym bprime=b-1/2"),
    ])
    def test_generic_label_shows_the_bprime_checked(self, capsys, family, b, label):
        # the printed coefficient forms run the sweep at bp = b (GenericA) or
        # b - 1/2 (GenericB), and the report says so
        argv = ["verify-axioms", "--family", family, "--a", "1/3", "--format", "json",
                "--gen-window", "1", "--basis-window", "1"]
        code, out = run(capsys, *(argv + (["--b", b] if b else [])))
        assert code == 0
        assert json.loads(out)["params"]["family"] == label

    def test_symbolic_sweep_exits_0(self, capsys):
        code, out = run(capsys, "verify-axioms", "--family", "Aab", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0


class TestVerbs:
    def test_roots_all(self, capsys):
        code, out = run(capsys, "roots", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0
        refs = {c["ref"] for c in payload["checks"]}
        assert "root-set/omega" in refs and "root-set/lambda4" in refs

    def test_compose_t_single_family(self, capsys):
        code, out = run(capsys, "compose-t", "--family", "Bab", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["checks"]) == 4

    def test_solve_coeffs_single_lemma(self, capsys):
        code, out = run(capsys, "solve-coeffs", "--which", "g-constant-forms",
                        "--format", "json")
        assert code == 0

    def test_solve_coeffs_normalization(self, capsys):
        code, out = run(capsys, "solve-coeffs", "--which", "normalization-b0",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["notes"]  # the contradiction residuals are recorded

    def test_deform_single_case(self, capsys):
        code, out = run(capsys, "deform", "--case", "A2", "--alpha", "-5/3",
                        "--format", "json")
        assert code == 0

    def test_submodule_check(self, capsys):
        code, out = run(capsys, "submodule", "--family", "Aab", "--a", "0", "--b", "-1",
                        "--candidate", "complement:x0", "--format", "json")
        assert code == 0

    def test_submodule_escape_exits_1(self, capsys):
        code, out = run(capsys, "submodule", "--family", "Aab", "--a", "1/3",
                        "--b", "2/5", "--candidate", "span:x0", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["checks"][0]["witness"]["target"]

    @pytest.mark.parametrize("candidate", [
        "span:", "span:x99", "span:y5",
        "complement:" + ",".join(f"{l}{d}/2" for l in "xy" for d in range(-4, 5)),
    ], ids=["span:", "span:x99", "span:y5", "complement-of-window"])
    def test_candidate_without_window_labels_exits_2(self, capsys, candidate):
        # a candidate with no window label would be checked against nothing
        assert main(["submodule", "--family", "Aab", "--a", "0", "--b", "-1",
                     "--basis-window", "2", "--candidate", candidate]) == 2
        assert "holds no label of the basis window" in capsys.readouterr().err

    def test_submodule_scan(self, capsys):
        code, out = run(capsys, "submodule", "--family", "Aab", "--a", "0", "--b", "-1",
                        "--scan", "--format", "json")
        assert code == 0

    def test_submodule_scan_with_a_candidate_exits_2(self, capsys):
        # the scan never reads the candidate, so it would go unchecked
        assert main(["submodule", "--family", "Aab", "--a", "0", "--b", "-1", "--scan",
                     "--candidate", "span:x0"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_not_closed_fact_fails_without_work(self, capsys, monkeypatch):
        # a closure check that ran nothing found no escape, so "not closed"
        # is as unproven as "closed"
        monkeypatch.setattr(cli, "submodule_check", lambda spec, cand: Tally(0))
        code, out = run(capsys, "all", "--format", "json")
        assert code == 1
        facts = {c["name"]: c["status"] for c in json.loads(out)["checks"]
                 if c["name"].startswith("submodule fact")}
        assert len(facts) == 3 and set(facts.values()) == {"fail"}
        assert any(name.endswith(" not closed") for name in facts)

    def test_all_witnesses_an_audit_discrepancy_and_a_partition_violation(
            self, capsys, monkeypatch):
        # a failed check of `all` carries the record that failed it
        disc = {"g": "T(q), q integer", "v": "x_0", "family": "0", "derived": "1"}
        original = deformation.instantiate_deformation
        monkeypatch.setattr(deformation, "instantiate_deformation",
                            lambda *args: (original(*args)[0], [disc]))
        part = {"g": "T_1/2", "v": "x_0", "target": "x_1/2"}
        monkeypatch.setattr(cli, "ns_partition_check", lambda spec: Tally(1, [part]))
        code, out = run(capsys, "all", "--format", "json")
        assert code == 1
        checks = json.loads(out)["checks"]
        sweeps = [c for c in checks if c["name"].startswith("axiom sweep:")
                  and "alpha=sym" in c["name"]]
        assert len(sweeps) == 4
        assert all(c["status"] == "fail" and c["witness"] == disc for c in sweeps)
        parts = [c for c in checks if c["ref"] == "ns-partition"]
        assert len(parts) == 2
        assert all(c["status"] == "fail" and c["witness"] == part for c in parts)

    def test_nonexist_b0(self, capsys):
        code, out = run(capsys, "nonexist-b0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "-2*a + 2*k" in payload["notes"][0]

    @pytest.mark.parametrize("argv, ref", [(("delta", "--which", "3"), "delta3-sporadic-pairs"),
                                           (("roots", "--which", "omega"), "root-set/omega")],
                             ids=["delta-3", "roots-omega"])
    def test_sporadic_pair_check_without_a_quotient_fails(self, capsys, monkeypatch,
                                                          argv, ref):
        # no quotient, so no pair is evaluated: the check must not pass
        def not_divisible(which):
            raise NotDivisible("the stated factors do not divide")

        monkeypatch.setattr(constraints, "_delta3_quotient", not_divisible)
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 1
        [check] = [c for c in json.loads(out)["checks"] if c["ref"] == ref]
        assert check["status"] == "fail" and check["witness"]

    def test_jacobi_text(self, capsys):
        code, out = run(capsys, "jacobi")
        assert code == 0
        assert "PASS" in out and "summary: 1 passed, 0 failed" in out
