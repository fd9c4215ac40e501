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

from twistn2 import algebra
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
    # a symbolic sweep: its twin's int rows flag the failing checks, and
    # the witness is the symbolic spec's own residual (exit 1)
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
    # a deformed family's fault at symbolic alpha, swept as its concrete
    # twin (exit 1), and B(a,0,-3/2) at symbolic a, whose twin sits at an
    # integer a that the candidate itself refuses (exit 1)
    ("verify-axioms-a2-sym-ty-coeff", ["verify-axioms", "--family", "A2", "--alpha", "sym",
                                       "--inject-fault", "a2.ty-coeff"], 1),
    ("verify-axioms-b0-sym", ["verify-axioms", "--family", "Bab", "--b", "0",
                              "--bprime", "-3/2"], 1),
    # the symbolic verbs' selectors: one determinant, one sporadic pair set,
    # one normalization case and one family's T table at a concrete alpha
    ("delta-3p", ["delta", "--which", "3p"], 0),
    ("roots-omega-prime", ["roots", "--which", "omega-prime"], 0),
    ("solve-coeffs-normalization-b0", ["solve-coeffs", "--which", "normalization-b0"], 0),
    ("compose-t-b2-alpha-2-7", ["compose-t", "--family", "B2", "--alpha", "2/7"], 0),
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


def test_failing_jacobi_report_is_byte_identical(capsys, monkeypatch):
    # a Jacobi witness read off the sweep: the L central term doubled breaks
    # the identity on 30 triples at window 2, each with a C residual
    orig = algebra._central

    def doubled(kind, i, env=None):
        return 2 * orig(kind, i, env) if kind == "L" else orig(kind, i, env)

    monkeypatch.setattr(algebra, "_central", doubled)
    assert len(algebra.super_jacobi_sweep(2).violations) == 30
    assert main(["jacobi", "--format", "json"]) == 1
    assert capsys.readouterr().out == (DATA / "jacobi-l-central-doubled.json").read_text()


def test_a_failing_jacobi_report_computes_only_the_witness_it_prints(capsys, monkeypatch):
    # the report prints the count and the first witness, so the sweep
    # computes at most one of its 30 residuals by `jacobi_residual`
    orig, residual = algebra._central, algebra.jacobi_residual
    computed = []

    def doubled(kind, i, env=None):
        return 2 * orig(kind, i, env) if kind == "L" else orig(kind, i, env)

    def counting(x, y, z):
        computed.append((x, y, z))
        return residual(x, y, z)

    monkeypatch.setattr(algebra, "_central", doubled)
    monkeypatch.setattr(algebra, "jacobi_residual", counting)
    assert main(["jacobi", "--format", "json"]) == 1
    assert len(computed) <= 1
    assert capsys.readouterr().out == (DATA / "jacobi-l-central-doubled.json").read_text()
    assert len(algebra.super_jacobi_sweep(2).violations) == 30
