"""Golden reports: verbs' JSON output, byte for byte.

Each file under `tests/data/` is the `--format json` report of one verb as
printed by `twistn2 <verb> ... --format json`.  A refactor of the algebra,
the action tables, the sweep kernel or the constraint lab must leave every
byte of them alone; a deliberate change to a report regenerates its file
and says why.
"""

import os
import subprocess
import sys
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
    # the same verb with alpha free: audits and sweeps at every alpha
    ("deform-alpha-sym", ["deform", "--alpha", "sym"], 0),
    # a symbolic sweep's witnesses, decoded from its int loop (exit 1)
    ("verify-axioms-aab-gy-coeff", ["verify-axioms", "--family", "Aab",
                                    "--inject-fault", "aab.gy-coeff"], 1),
    # the action table read through `act`: a window survey of cyclic
    # submodules, and an escape whose witness prints an action coefficient
    ("submodule-aab-0--1-scan", ["submodule", "--family", "Aab", "--a", "0", "--b", "-1",
                                 "--scan"], 0),
    ("submodule-aab-1-3-2-5-span-x0", ["submodule", "--family", "Aab", "--a", "1/3",
                                       "--b", "2/5", "--candidate", "span:x0"], 1),
    # a symbolic sweep and the NS partition check of one spec
    ("verify-axioms-bab", ["verify-axioms", "--family", "Bab"], 0),
]


@pytest.mark.parametrize("name, argv, code", CONCRETE, ids=[c[0] for c in CONCRETE])
def test_concrete_json_report_is_byte_identical(capsys, name, argv, code):
    assert main(argv + ["--format", "json"]) == code
    assert capsys.readouterr().out == (DATA / f"{name}.json").read_text()


def test_all_json_report_is_byte_identical():
    # a fresh interpreter: the symbol registry's order, and with it the term
    # order of printed polynomials, depends on what ran first in a process
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-m", "twistn2.cli", "all", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (DATA / "all.json").read_text()
