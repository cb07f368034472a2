"""Smoke tests for the narrative scripts in demos/: each runs in-process and
prints something."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("stem", ["01_corner_coefficients", "02_trace_coefficient_fits",
                                  "03_sector_kernels_and_greens", "04_halfplane_robin_kernel",
                                  "05_corners_are_audible"])
def test_demo_runs(stem, capsys):
    runpy.run_path(str(DEMOS / f"{stem}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
