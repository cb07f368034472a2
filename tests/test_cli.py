import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from heattrace import cli

PI = math.pi


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def square_payload(bc="D"):
    return {
        "area": 1.0,
        "gauss_curvature_integral": 0.0,
        "loops": [
            {
                "edges": [{"length": 1.0, "bc": bc} for _ in range(4)],
                "angles": [PI / 2.0] * 4,
            }
        ],
    }


def disk_payload(bc="N"):
    return {
        "area": PI,
        "gauss_curvature_integral": 0.0,
        "loops": [
            {
                "edges": [{"length": 2.0 * PI, "bc": bc, "kg_integral": 2.0 * PI}],
                "angles": [],
            }
        ],
    }


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_state(self, capsys):
        # the cached parser hands each call its own defaults, whatever ran before
        greens = ["greens", "--model", "halfplane", "--bc0", "N"]
        code, first, _ = run(greens, capsys)
        assert code == 0
        code, _, _ = run(["corner", "--pair", "DN", "--angle", "2.0", "--numeric", "--tol",
                          "0.01", "--table"], capsys)
        assert code == 0
        code, _, err = run(["trace-fit", "--domain", "rectangle", "--a", "-1", "--samples",
                            "5", "--window", "0.01,0.02"], capsys)
        assert code == 2 and "validation error" in err
        with pytest.raises(SystemExit):
            cli.main(["trace-fit", "--domain", "disk", "--samples", "many"])
        capsys.readouterr()
        args = cli.build_parser().parse_args(greens)
        assert vars(args) == vars(cli.build_parser.__wrapped__().parse_args(greens))
        assert (args.tol, args.gamma, args.json) == (1e-5, PI, True)
        code, again, _ = run(greens, capsys)
        assert code == 0 and again == first


class TestCoeffs:
    def test_square(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "square.json", square_payload())
        code, out, _ = run(["coeffs", "--spec", spec], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["a_0"] == pytest.approx(0.25)
        assert report["a_minus_half"] == pytest.approx(-1.0 / (2.0 * math.sqrt(PI)))

    def test_disk_neumann(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "disk.json", disk_payload())
        code, out, _ = run(["coeffs", "--spec", spec], capsys)
        assert code == 0
        assert json.loads(out)["a_0"] == pytest.approx(1.0 / 6.0)

    def test_bad_angle_names_field(self, tmp_path, capsys):
        payload = square_payload()
        payload["loops"][0]["angles"][2] = 0.0
        spec = write_spec(tmp_path / "bad.json", payload)
        code, _, err = run(["coeffs", "--spec", spec], capsys)
        assert code == 2
        assert "angles[2]" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        payload = square_payload()
        payload["extra"] = 1
        spec = write_spec(tmp_path / "bad.json", payload)
        code, _, err = run(["coeffs", "--spec", spec], capsys)
        assert code == 2
        assert "extra" in err

    def test_overflowing_coefficients_are_a_numerical_failure(self, tmp_path, capsys):
        # every number is finite, but kappa * length and a_{-1/2} overflow:
        # no report holding -Infinity, which is not JSON
        payload = square_payload()
        payload["loops"][0]["edges"][1] = {"length": 1e200, "bc": {"R": 1e200}}
        spec = write_spec(tmp_path / "huge.json", payload)
        code, out, err = run(["coeffs", "--spec", spec], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure: ")

    def test_overflowing_length_sum_is_a_numerical_failure(self, tmp_path, capsys):
        # each length is finite, but their sum in a_{-1/2} overflows inside
        # fsum: the error names the sum instead of a traceback escaping
        payload = square_payload()
        for j in (0, 2):
            payload["loops"][0]["edges"][j] = {"length": 1e308, "bc": "N"}
        spec = write_spec(tmp_path / "huge.json", payload)
        code, out, err = run(["coeffs", "--spec", spec], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure: the non-Dirichlet length sum overflows")

    def test_robin_integral_form(self, tmp_path, capsys):
        payload = square_payload()
        payload["loops"][0]["edges"][0]["bc"] = {"R": {"integral": 0.6}}
        spec = write_spec(tmp_path / "robin.json", payload)
        code, out, _ = run(["coeffs", "--spec", spec], capsys)
        assert code == 0
        assert json.loads(out)["breakdown"]["robin"] == pytest.approx(-0.6 / (2.0 * PI))

    def test_gb_route_matches(self, tmp_path, capsys):
        payload = square_payload()
        del payload["gauss_curvature_integral"]
        payload["euler_characteristic"] = 1
        spec = write_spec(tmp_path / "gb.json", payload)
        code, out, _ = run(["coeffs", "--spec", spec, "--gb"], capsys)
        assert code == 0
        assert json.loads(out)["a_0"] == pytest.approx(0.25)

    def test_report_reparses_and_is_deterministic(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "square.json", square_payload())
        _, out1, _ = run(["coeffs", "--spec", spec], capsys)
        _, out2, _ = run(["coeffs", "--spec", spec], capsys)
        assert out1 == out2
        json.loads(out1)


class TestCorner:
    def test_closed_form_values(self, capsys):
        code, out, _ = run(["corner", "--pair", "DD", "--angle", str(PI / 2.0)], capsys)
        assert code == 0
        assert json.loads(out)["closed_form"] == pytest.approx(0.0625)
        code, out, _ = run(["corner", "--pair", "DN", "--angle", str(PI)], capsys)
        assert json.loads(out)["closed_form"] == pytest.approx(-0.0625)
        code, out, _ = run(["corner", "--pair", "DD", "--angle", str(PI)], capsys)
        assert json.loads(out)["closed_form"] == 0.0

    def test_numeric_route(self, capsys):
        code, out, _ = run(
            ["corner", "--pair", "DD", "--angle", str(PI / 2.0), "--numeric"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["difference"]) <= 1e-4
        assert report["fit_condition_number"] >= 1.0

    def test_numeric_nd(self, capsys):
        # ND has a mode ladder, so the numeric route takes it like DN
        code, out, _ = run(
            ["corner", "--pair", "ND", "--angle", str(PI / 2.0), "--numeric"], capsys
        )
        assert code == 0
        assert abs(json.loads(out)["difference"]) <= 1e-4

    def test_numeric_rejects_robin(self, capsys):
        code, _, err = run(
            ["corner", "--pair", "RR", "--angle", "1.0", "--numeric"], capsys
        )
        assert code == 2
        assert "Robin" in err


class TestKernel:
    def test_sector_grid_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "kernel.csv"
        code, _, _ = run(
            [
                "kernel",
                "--model",
                "sector",
                "--gamma",
                str(PI / 2.0),
                "--grid",
                "t=0.1;r=0.5:1.5:3;theta=0.4;r0=1.0;theta0=0.9",
                "--out",
                str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "t,r,theta,r0,theta0,H"
        assert len(lines) == 4
        from heattrace import sector_models as sm

        spec = sm.SectorSpec(PI / 2.0)
        row = [float(v) for v in lines[1].split(",")]
        expect = sm.sector_heat_kernel(spec, *row[:5])
        assert row[5] == pytest.approx(expect, rel=1e-12)

    def test_halfplane_grid(self, tmp_path, capsys):
        out_csv = tmp_path / "hp.csv"
        code, _, _ = run(
            [
                "kernel",
                "--model",
                "halfplane",
                "--bc0",
                "R:1.0",
                "--grid",
                "t=0.2;x=0.0;y=0.1:1.0:4;x0=0.3;y0=0.8",
                "--out",
                str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "t,x,y,x0,y0,H"
        assert len(lines) == 5

    def test_missing_axis(self, tmp_path, capsys):
        code, _, err = run(
            ["kernel", "--model", "sector", "--grid", "t=0.1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2


class TestGreens:
    def test_halfplane_neumann(self, capsys):
        code, out, _ = run(
            [
                "greens",
                "--check-laplace",
                "--model",
                "halfplane",
                "--bc0",
                "N",
                "--r",
                "1.0",
                "--phi",
                str(PI / 2.0),
                "--r0",
                "2.0",
                "--phi0",
                str(PI / 2.0),
                "--s",
                "1,4",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-5


class TestTraceFit:
    def test_sector_closed_form_comparison(self, capsys):
        code, out, _ = run(
            [
                "trace-fit",
                "--domain",
                "sector",
                "--gamma",
                str(PI / 2.0),
                "--pair",
                "DD",
                "--arc",
                "D",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        # quarter disk: 3/16 from the three corners + (pi/2)/(12 pi) from the arc
        assert report["closed_form"]["a_0"] == pytest.approx(3.0 / 16.0 + 1.0 / 24.0)
        assert abs(report["difference"]["a_0"]) <= 2e-3

    def test_square_dirichlet(self, capsys, tmp_path):
        csv_path = tmp_path / "samples.csv"
        code, out, _ = run(
            [
                "trace-fit",
                "--domain",
                "rectangle",
                "--bc",
                "D,D,D,D",
                "--csv",
                str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["fitted"]["a_0"] == pytest.approx(0.25, abs=1e-3)
        assert abs(report["difference"]["a_0"]) <= 1e-3
        header = csv_path.read_text().split("\n")[0]
        assert header == "t,partial_trace,tail_bound"


class TestDistinguish:
    def test_square_vs_disk(self, tmp_path, capsys):
        s1 = write_spec(tmp_path / "a.json", square_payload())
        s2 = write_spec(tmp_path / "b.json", disk_payload("D"))
        code, out, _ = run(["distinguish", "--spec1", s1, "--spec2", s2], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "not_isospectral"
        assert report["witness"] == "a_minus1"

    def test_self(self, tmp_path, capsys):
        s1 = write_spec(tmp_path / "a.json", square_payload())
        code, out, _ = run(["distinguish", "--spec1", s1, "--spec2", s1], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "inconclusive"


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv, field",
        [
            pytest.param(["kernel", "--model", "halfplane", "--bc0", "R:abc"], "--bc0",
                         id="kernel-R:abc"),
            pytest.param(["kernel", "--model", "halfplane", "--bc0", "R:-1"], "--bc0",
                         id="kernel-R:-1"),
            pytest.param(["greens", "--model", "halfplane", "--bc0", "R:0"], "--bc0",
                         id="greens-R:0"),
            pytest.param(["greens", "--model", "halfplane", "--bc0", "N", "--s", "1,x"], "--s",
                         id="greens-s"),
            pytest.param(["trace-fit", "--domain", "rectangle", "--bc", "D,D,D,R:abc"], "--bc",
                         id="trace-fit-R:abc"),
            pytest.param(["trace-fit", "--domain", "rectangle", "--bc", "D,D,D,X"], "--bc",
                         id="trace-fit-X"),
            pytest.param(["trace-fit", "--domain", "rectangle", "--window", "a,b"], "--window",
                         id="trace-fit-window"),
            pytest.param(["kernel", "--model", "sector", "--bc0", "R:1"], "--bc0",
                         id="kernel-sector-R:1"),
            pytest.param(["greens", "--model", "sector", "--bc0", "R:1"], "--bc0",
                         id="greens-sector-R:1"),
            pytest.param(["greens", "--model", "sector", "--bc1", "R:1"], "--bc1",
                         id="greens-sector-bc1-R:1"),
            pytest.param(["kernel", "--model", "sector", "--gamma", "7"], "--gamma",
                         id="kernel-sector-gamma"),
            pytest.param(["greens", "--model", "sector", "--gamma", "0"], "--gamma",
                         id="greens-sector-gamma"),
            pytest.param(["trace-fit", "--domain", "rectangle", "--samples", "3"], "--samples",
                         id="trace-fit-samples"),
            pytest.param(["trace-fit", "--domain", "rectangle", "--window", "0.05,0.002"],
                         "--window", id="trace-fit-window-order"),
            pytest.param(["trace-fit", "--domain", "sector", "--gamma", "7"], "--gamma",
                         id="trace-fit-sector-gamma"),
            pytest.param(["corner", "--pair", "DD", "--angle", "7"], "--angle",
                         id="corner-angle"),
            pytest.param(["trace-fit", "--domain", "disk", "--radius", "-1"], "--radius",
                         id="trace-fit-disk-radius"),
            pytest.param(["trace-fit", "--domain", "sector", "--radius", "0"], "--radius",
                         id="trace-fit-sector-radius"),
            pytest.param(["trace-fit", "--domain", "rectangle", "--a", "0"], "--a",
                         id="trace-fit-rectangle-a"),
            pytest.param(["trace-fit", "--domain", "rectangle", "--b", "-2"], "--b",
                         id="trace-fit-rectangle-b"),
            # an infinite size made the counting constants infinite, so the
            # spectrum's cutoff search never ended
            pytest.param(["trace-fit", "--domain", "rectangle", "--a", "inf"], "--a",
                         id="trace-fit-rectangle-a-inf"),
            pytest.param(["trace-fit", "--domain", "rectangle", "--b", "inf"], "--b",
                         id="trace-fit-rectangle-b-inf"),
            pytest.param(["trace-fit", "--domain", "disk", "--radius", "inf"], "--radius",
                         id="trace-fit-disk-radius-inf"),
            pytest.param(["trace-fit", "--domain", "sector", "--radius", "inf"], "--radius",
                         id="trace-fit-sector-radius-inf"),
            pytest.param(["kernel", "--model", "sector", "--gamma", "1",
                          "--grid", "t=0.1;r=1;theta=0:2:3;r0=1;theta0=0.5"], "--grid",
                         id="kernel-sector-theta"),
            pytest.param(["kernel", "--model", "sector",
                          "--grid", "t=0:0.5:3;r=1;theta=0.3;r0=1;theta0=0.5"], "--grid",
                         id="kernel-sector-t"),
            pytest.param(["kernel", "--model", "sector",
                          "--grid", "t=0.1;r=1;theta=0.3;r0=-1;theta0=0.5"], "--grid",
                         id="kernel-sector-r0"),
            pytest.param(["kernel", "--model", "halfplane",
                          "--grid", "t=0.1;x=0;y=-1:1:3;x0=0;y0=0.5"], "--grid",
                         id="kernel-halfplane-y"),
            pytest.param(["greens", "--model", "sector", "--gamma", "1", "--phi", "2"], "--phi",
                         id="greens-sector-phi"),
            pytest.param(["greens", "--model", "sector", "--phi0", "-0.1"], "--phi0",
                         id="greens-sector-phi0"),
            pytest.param(["greens", "--model", "sector", "--r", "0"], "--r",
                         id="greens-sector-r"),
            pytest.param(["greens", "--model", "halfplane", "--r0", "-1"], "--r0",
                         id="greens-halfplane-r0"),
            pytest.param(["greens", "--model", "halfplane", "--phi", "4"], "--phi",
                         id="greens-halfplane-phi"),
            pytest.param(["greens", "--model", "halfplane", "--bc0", "D", "--s", "0"], "--s",
                         id="greens-halfplane-s0"),
            pytest.param(["greens", "--model", "sector", "--s", "1,-4"], "--s",
                         id="greens-sector-s"),
            # a tol <= 0 or NaN is an input error, not a "math domain error"
            # traceback or a numerical failure
            *(pytest.param(["greens", "--model", "halfplane", "--tol", tol], "--tol",
                           id=f"greens-halfplane-tol-{tol}")
              for tol in ("0", "-1", "nan", "inf")),
            pytest.param(["greens", "--model", "sector", "--tol", "0"], "--tol",
                         id="greens-sector-tol"),
            # --tol passes, but the tenth of it the check runs at is 0
            pytest.param(["greens", "--model", "halfplane", "--tol", "5e-324"], "--tol",
                         id="greens-tol-underflow"),
            *(pytest.param(["corner", "--pair", "DD", "--angle", "1.5", "--numeric",
                            "--tol", tol], "--tol", id=f"corner-numeric-tol-{tol}")
              for tol in ("0", "-1", "nan")),
        ],
    )
    def test_exit_2_names_the_field(self, argv, field, tmp_path, capsys):
        if argv[0] == "kernel":
            if "--grid" not in argv:
                argv = argv + ["--grid", "t=0.2;x=0.0;y=0.5;x0=0.3;y0=0.8"]
            argv = argv + ["--out", str(tmp_path / "k.csv")]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert f"validation error: {field}: " in err


def mixed_payload():
    """A valid spec with every numeric field of the schema."""
    payload = square_payload()
    edges = payload["loops"][0]["edges"]
    edges[0]["kg_integral"] = 0.0
    edges[1]["bc"] = {"R": 2.0}
    edges[2]["bc"] = {"R": {"integral": 0.7}}
    payload["cone_points"] = [1.0]
    return payload


# JSON path -> where it sits in mixed_payload()
SPEC_FIELDS = {
    "area": ("area",),
    "gauss_curvature_integral": ("gauss_curvature_integral",),
    "loops[0].edges[3].length": ("loops", 0, "edges", 3, "length"),
    "loops[0].edges[0].kg_integral": ("loops", 0, "edges", 0, "kg_integral"),
    "loops[0].edges[1].bc.R": ("loops", 0, "edges", 1, "bc", "R"),
    "loops[0].edges[2].bc.R.integral": ("loops", 0, "edges", 2, "bc", "R", "integral"),
    "loops[0].angles[2]": ("loops", 0, "angles", 2),
    "cone_points[0]": ("cone_points", 0),
}


class TestBadSpecFiles:
    """Every number of a spec file must be a finite JSON number.  json.load
    reads the NaN and Infinity tokens, so those are written raw here."""

    def test_valid_payload_passes(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "ok.json", mixed_payload())
        assert run(["coeffs", "--spec", spec], capsys)[0] == 0

    @pytest.mark.parametrize("bad", ['"1.5"', "true", "NaN", "Infinity"])
    @pytest.mark.parametrize("path", sorted(SPEC_FIELDS))
    def test_exit_2_names_the_json_path(self, path, bad, tmp_path, capsys):
        payload = mixed_payload()
        *parents, last = SPEC_FIELDS[path]
        node = payload
        for key in parents:
            node = node[key]
        node[last] = "@BAD@"
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(payload).replace('"@BAD@"', bad), encoding="utf-8")
        code, out, err = run(["coeffs", "--spec", str(spec)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"validation error: {path}: ")

    def test_boolean_euler_characteristic(self, tmp_path, capsys):
        payload = square_payload()
        del payload["gauss_curvature_integral"]
        payload["euler_characteristic"] = True
        spec = write_spec(tmp_path / "bad.json", payload)
        code, _, err = run(["coeffs", "--spec", spec], capsys)
        assert code == 2
        assert err.startswith("validation error: euler_characteristic: ")

    def test_distinguish_names_the_file(self, tmp_path, capsys):
        good = write_spec(tmp_path / "good.json", square_payload())
        payload = square_payload()
        payload["area"] = -1.0
        bad = write_spec(tmp_path / "bad.json", payload)
        code, _, err = run(["distinguish", "--spec1", good, "--spec2", bad], capsys)
        assert code == 2
        assert err.startswith("validation error: area: ")
        assert "bad.json" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines_parse():
    """Every `heattrace ...` line of the README's Command line block is a
    valid command line of cli.build_parser()."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "heattrace"]
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_mpmath_and_scipy_stay_test_only():
    """The package evaluates every special function itself: importing it and
    its CLI loads neither mpmath (the tests' oracle) nor scipy."""
    code = ("import sys, heattrace, heattrace.cli; "
            "print(sorted(m for m in ('mpmath', 'scipy') if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"
