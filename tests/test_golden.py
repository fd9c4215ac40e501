"""Golden reports: the symbolic-lab verbs' JSON output, byte for byte.

Each file under `tests/data/` is the `--format json` report of one verb as
printed by `twistn2 <verb> --format json`.  A refactor of the algebra, the
action tables or the constraint lab must leave every byte of them alone;
a deliberate change to a report regenerates its file and says why.
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
