"""Command-line interface: parsing, exit codes, report determinism."""

import json

import pytest

from twistn2 import cli
from twistn2.cli import main, parse_candidate, UsageError
from twistn2.constraints import RootMismatch


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def crash(args):
            raise RootMismatch("root set differs")

        monkeypatch.setitem(cli.VERBS, "delta", crash)
        assert main(["delta"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "internal error: RootMismatch: root set differs" in err

    def test_candidate_grammar(self):
        cand = parse_candidate("span:x0,y1/2")
        assert cand.kind == "span" and len(cand.labels) == 2
        cand = parse_candidate("complement:x-3/2")
        assert cand.kind == "complement"
        with pytest.raises(UsageError):
            parse_candidate("everything")


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

    def test_fault_injection_exits_1_with_witness(self, capsys):
        code, out = run(capsys, "verify-axioms", "--family", "Aab",
                        "--inject-fault", "aab.t-sign", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        failing = [c for c in payload["checks"] if c["status"] == "fail"]
        assert failing and "witness" in failing[0]

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

    def test_nonexist_b0(self, capsys):
        code, out = run(capsys, "nonexist-b0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "-2*a + 2*k" in payload["notes"][0]

    def test_jacobi_text(self, capsys):
        code, out = run(capsys, "jacobi")
        assert code == 0
        assert "PASS" in out and "summary: 1 passed, 0 failed" in out
