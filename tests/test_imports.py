"""The package's own imports: the standard library and itself only, so
sympy and Hypothesis are for the tests only and `dependencies = []` holds."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twistn2"
TEST_ONLY = ("sympy", "hypothesis")


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_no_test_only_package(path):
    assert not _imported_roots(path) & set(TEST_ONLY)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_the_standard_library(path):
    # a package installed on this host (numpy, say) would import here too
    assert _imported_roots(path) - {"twistn2"} <= set(sys.stdlib_module_names)


def test_the_scan_sees_an_import():
    # a scan that reads no import would pass on any file
    assert {"fractions", "dataclasses"} <= _imported_roots(SRC / "algebra.py")
