"""Golden reports: verbs' JSON output, byte for byte.

Each file under `tests/data/` is the `--format json` report of one verb as
printed by `twistn2 <verb> ... --format json`.  A refactor of the algebra,
the action tables, the sweep kernel or the constraint lab must leave every
byte of them alone; a deliberate change to a report regenerates its file
and says why.
"""

from pathlib import Path

import pytest

from twistn2.cli import main

DATA = Path(__file__).parent / "data"

VERBS = ("jacobi", "delta", "roots", "compose-t", "solve-coeffs", "nonexist-b0")


@pytest.mark.parametrize("verb", VERBS)
def test_json_report_is_byte_identical(capsys, verb):
    assert main([verb, "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / f"{verb}.json").read_text()


# concrete sweeps: a fault whose witnesses have fractional residuals (exit 1),
# and the deformation verb's four sweeps at an alpha with denominator 5
CONCRETE = [
    ("verify-axioms-b2-gdef-sign", ["verify-axioms", "--family", "B2", "--alpha", "-20/7",
                                    "--inject-fault", "b2.gdef-sign"], 1),
    ("deform-alpha-13-5", ["deform", "--alpha", "13/5"], 0),
    # a symbolic sweep's witnesses, decoded from its int loop (exit 1)
    ("verify-axioms-aab-gy-coeff", ["verify-axioms", "--family", "Aab",
                                    "--inject-fault", "aab.gy-coeff"], 1),
]


@pytest.mark.parametrize("name, argv, code", CONCRETE, ids=[c[0] for c in CONCRETE])
def test_concrete_json_report_is_byte_identical(capsys, name, argv, code):
    assert main(argv + ["--format", "json"]) == code
    assert capsys.readouterr().out == (DATA / f"{name}.json").read_text()
