"""Smoke tests for the narrative scripts in demos/.

Demos 02-05 run in-process.  Demo 01 takes about 12 s, so only the names it
imports from heattrace are checked.
"""

import ast
import runpy
from pathlib import Path

import pytest

import heattrace

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def heattrace_imports(path):
    """Every name a script imports with `from heattrace import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "heattrace"
        for alias in node.names
    ]


@pytest.mark.parametrize("stem", ["02_trace_coefficient_fits", "03_sector_kernels_and_greens",
                                  "04_halfplane_robin_kernel", "05_corners_are_audible"])
def test_demo_runs(stem, capsys):
    runpy.run_path(str(DEMOS / f"{stem}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_demo_01_imports_exist():
    names = heattrace_imports(DEMOS / "01_corner_coefficients.py")
    assert names
    assert [n for n in names if not hasattr(heattrace, n)] == []
