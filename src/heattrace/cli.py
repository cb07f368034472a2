"""Command-line front end.

Subcommands: coeffs, corner, kernel, greens, trace-fit, distinguish.
Exit codes: 0 success, 1 numerical failure (a tolerance was not met),
2 input validation error.  JSON is used for specs and reports, CSV (comma
separated, header row, newline endings) for grids and trace samples.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import corner_lab, exact_spectra, sector_models, trace_coeffs
from .errors import DomainError, HeatTraceError, UnsupportedBCError, ValidationError
from .sector_models import BoundaryCondition, SectorSpec

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_VALIDATION = 2


# ---------------------------------------------------------------------------
# domain spec files: this reader checks JSON shapes, keys and number types;
# every range rule is the spec constructors' own

def _fail(path, detail):
    raise ValidationError(f"{path}: {detail}", field=path)


def _join(path, key):
    return f"{path}.{key}" if path else key


def _object(raw, path, keys):
    """raw, after checking that it is a JSON object with no key outside `keys`."""
    if not isinstance(raw, dict):
        _fail(path or "(top level)", "must be an object")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        _fail(_join(path, unknown[0]), f"unknown key(s) {unknown}")
    return raw


def _items(raw, key, path, read):
    """read(item, its JSON path) of each item of the list raw[key] (default [])."""
    items, where = raw.get(key, []), _join(path, key)
    if not isinstance(items, list):
        _fail(where, "must be a list")
    return tuple(read(item, f"{where}[{i}]") for i, item in enumerate(items))


def _number(raw, path):
    """raw, after checking that it is a finite JSON number.  json.load reads
    the NaN and Infinity tokens, and integers beyond the float range."""
    if type(raw) not in (int, float) or not abs(raw) <= sys.float_info.max:  # bool fails too
        _fail(path, f"must be a finite number, got {raw!r}")
    return raw


def _build(path, keys, cls, *args):
    """cls(*args), with an error it raises reported as a validation error of
    the JSON path of its field: `path` joined with keys.get(field, field),
    or `path` itself when that is None."""
    try:
        return cls(*args)
    except DomainError as exc:
        key = keys.get(exc.field, exc.field)
        where = path if key is None else _join(path, key)
        raise ValidationError(f"{where}: {exc}", field=where) from None


def _bc(raw, path):
    """(condition, Robin integral or None) of a JSON bc.  The integral form
    gives the condition "R", whose kappa EdgeSpec takes from the integral."""
    if raw in ("D", "N"):
        return BoundaryCondition(raw), None
    if not isinstance(raw, dict):
        _fail(path, f'expected "D", "N", {{"R": kappa}} or {{"R": {{"integral": value}}}}, '
                    f"got {raw!r}")
    body = _object(raw, path, ("R",)).get("R")
    if isinstance(body, dict):
        integral = _object(body, f"{path}.R", ("integral",)).get("integral")
        return "R", _number(integral, f"{path}.R.integral")
    kappa = _number(body, f"{path}.R")
    return _build(f"{path}.R", {"robin_kappa": None}, BoundaryCondition.robin, kappa), None


def _edge(raw, path):
    bc, integral = _bc(_object(raw, path, ("length", "bc", "kg_integral")).get("bc"),
                       f"{path}.bc")
    return _build(path, {"geodesic_curvature_integral": "kg_integral",
                         "robin_integral": "bc.R.integral"}, trace_coeffs.EdgeSpec,
                  _number(raw.get("length"), f"{path}.length"), bc,
                  _number(raw.get("kg_integral", 0.0), f"{path}.kg_integral"), integral)


def _loop(raw, path):
    _object(raw, path, ("edges", "angles"))
    return _build(path, {}, trace_coeffs.BoundaryLoop,
                  _items(raw, "edges", path, _edge), _items(raw, "angles", path, _number))


def load_polygon_spec(path):
    """Parse a DomainSpecFile (JSON) into a PolygonSpec; strict keys."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})", field=path) from exc
    return polygon_spec_from_dict(raw, where=path)


def polygon_spec_from_dict(raw, where="spec"):
    """The PolygonSpec of a parsed spec file.  A ValidationError names the
    JSON path of the bad field, as in loops[0].angles[2], and `where`."""
    try:
        _object(raw, "", ("area", "gauss_curvature_integral", "euler_characteristic",
                          "loops", "cone_points"))
        gauss = raw.get("gauss_curvature_integral")
        chi = raw.get("euler_characteristic")
        return _build(
            "", {}, trace_coeffs.PolygonSpec,
            _number(raw.get("area"), "area"),
            _items(raw, "loops", "", _loop),
            None if gauss is None else _number(gauss, "gauss_curvature_integral"),
            None if chi is None else _number(chi, "euler_characteristic"),
            _items(raw, "cone_points", "", _number),
        )
    except ValidationError as exc:
        raise ValidationError(f"{exc} (in {where})", field=exc.field) from None


def _coeff_report(coeffs):
    return {
        "a_minus1": coeffs.a_minus1,
        "a_minus_half": coeffs.a_minus_half,
        "a_0": coeffs.a_0,
        "breakdown": dict(sorted(coeffs.breakdown.items())),
        "remainder_order": coeffs.remainder_order,
    }


def _emit(report, as_json, out=None):
    out = out if out is not None else sys.stdout
    if as_json:
        out.write(json.dumps(report, indent=2, sort_keys=True))
        out.write("\n")
    else:
        for key, value in report.items():
            if isinstance(value, dict):
                out.write(f"{key}:\n")
                for k2, v2 in value.items():
                    out.write(f"  {k2} = {v2!r}\n")
            else:
                out.write(f"{key} = {value!r}\n")


# ---------------------------------------------------------------------------
# subcommands

def _arg(flags, build, *args):
    """build(*args), with a DomainError or UnsupportedBCError it raises
    reported as a validation error of the flag `flags`, or of the flag that
    the dict `flags` maps the error's field to.  An error of any other field,
    such as one raised deep in a computation, stays a numerical failure."""
    try:
        return build(*args)
    except (DomainError, UnsupportedBCError) as exc:
        flag = flags if isinstance(flags, str) else flags.get(exc.field)
        if flag is None:
            raise
        raise ValidationError(f"{flag}: {exc}", field=flag) from None


def _sector_arg(args):
    """The SectorSpec of --gamma, --bc0 and --bc1."""
    bc0 = _arg("--bc0", BoundaryCondition.parse, args.bc0)
    bc1 = _arg("--bc1", BoundaryCondition.parse, args.bc1)
    return _arg({"gamma": "--gamma", "bc_at_0": "--bc0", "bc_at_gamma": "--bc1"},
                SectorSpec, args.gamma, bc0, bc1)


def _check_tol(args):
    """Reject a --tol that is not a finite number > 0."""
    _arg("--tol", sector_models.check_coordinate, "tol", args.tol, math.inf, False)


def _floats_arg(raw, field):
    """A comma-separated list of numbers."""
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError:
        raise ValidationError(
            f"{field}: expected comma-separated numbers, got {raw!r}", field=field
        ) from None


def cmd_coeffs(args):
    spec = load_polygon_spec(args.spec)
    coeffs = (
        trace_coeffs.coefficients_gb(spec) if args.gb else trace_coeffs.coefficients(spec)
    )
    _emit(_coeff_report(coeffs), args.json)
    return EXIT_OK


def cmd_corner(args):
    kind = _arg("--angle", corner_lab.CornerKind, args.pair, args.angle)
    report = {
        "pair": args.pair,
        "angle": args.angle,
        "closed_form": corner_lab.corner_coeff(kind),
    }
    if args.numeric:
        _check_tol(args)
        # the numeric route sums sector modes: the pair needs a mode ladder
        _arg("--pair", sector_models.mode_order, args.pair, args.angle, 0)
        result = corner_lab.corner_finite_part(args.pair, args.angle)
        report["finite_part"] = result.finite_part
        report["difference"] = result.finite_part - report["closed_form"]
        report["fit_condition_number"] = result.condition_number
        if abs(report["difference"]) > args.tol:
            _emit(report, args.json)
            sys.stderr.write(
                f"numerical corner coefficient misses the closed form by "
                f"{report['difference']:.3e} (> {args.tol:.1e})\n"
            )
            return EXIT_NUMERICAL
    _emit(report, args.json)
    return EXIT_OK


def _parse_grid(raw, where="--grid"):
    """'name=a:b:n' (axis) or 'name=v' (fixed), semicolon separated."""
    axes = {}
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValidationError(f"{where}: bad entry {chunk!r}", field=where)
        name, body = chunk.split("=", 1)
        parts = body.split(":")
        try:
            if len(parts) == 1:
                axes[name.strip()] = [float(parts[0])]
            elif len(parts) == 3:
                lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
                if n < 1:
                    raise ValueError
                axes[name.strip()] = [
                    lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)
                ]
            else:
                raise ValueError
        except ValueError:
            raise ValidationError(
                f"{where}: entry {chunk!r} is not name=value or name=lo:hi:count",
                field=where,
            ) from None
    return axes


def cmd_kernel(args):
    """Every point of the grid in one kernel call, one CSV row each."""
    axes = _parse_grid(args.grid)
    if args.model == "sector":
        names = ("t", "r", "theta", "r0", "theta0")
        spec = _sector_arg(args)
        kernel = lambda *cols: sector_models.sector_heat_kernel(spec, *cols)
    else:
        names = ("t", "x", "y", "x0", "y0")
        bc = _arg("--bc0", BoundaryCondition.parse, args.bc0)
        kernel = lambda *cols: sector_models.half_plane_kernel(bc, *cols)
    missing = [n for n in names if n not in axes]
    if missing:
        raise ValidationError(f"--grid is missing {missing}", field="--grid")
    # the first axis varies slowest
    cols = [c.ravel() for c in np.meshgrid(*(axes[n] for n in names), indexing="ij")]
    # the kernel range-checks each coordinate, and the error names it
    values = _arg(dict.fromkeys(names, "--grid"), kernel, *cols)
    fmt = ",".join(["%.17e"] * (len(names) + 1)) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + ",H\n")
        fh.writelines(fmt % row for row in zip(*(c.tolist() for c in cols), values.tolist()))
    sys.stdout.write(f"wrote {values.size} rows to {args.out}\n")
    return EXIT_OK


def cmd_greens(args):
    _check_tol(args)
    s_values = _floats_arg(args.s, "--s")
    if args.model == "halfplane":
        model = _arg("--bc0", BoundaryCondition.parse, args.bc0)
    else:
        model = _sector_arg(args)
    points = [((args.r, args.phi), (args.r0, args.phi0))]
    # the Green's functions range-check s, the points and tol, naming the field
    flags = {name: f"--{name}" for name in ("s", "r", "phi", "r0", "phi0", "tol")}
    report = {"model": args.model, "residuals": {}}
    worst = 0.0
    for s in s_values:
        res = _arg(flags, sector_models.laplace_consistency, model, s, points, args.tol * 1e-1)
        report["residuals"][f"s={s!r}"] = res
        worst = max(worst, res)
    report["max_residual"] = worst
    report["tolerance"] = args.tol
    _emit(report, args.json)
    return EXIT_OK if worst <= args.tol else EXIT_NUMERICAL


def _trace_fit_domain(args):
    """(spectrum, polygon spec) of the domain a trace-fit samples."""
    if args.domain == "rectangle":
        bcs = args.bc.split(",")
        if len(bcs) != 4:
            raise ValidationError(
                "--bc needs four entries (left,right,bottom,top)", field="--bc"
            )
        left, right, bottom, top = (_arg("--bc", BoundaryCondition.parse, s.strip()) for s in bcs)
        # --a is the length of the bottom and top edges, --b of the sides
        return (
            _arg({"a": "--a", "b": "--b"}, exact_spectra.rectangle_spectrum,
                 args.a, args.b, (left, right), (bottom, top)),
            trace_coeffs.rectangle_spec(args.a, args.b, (bottom, right, top, left)),
        )
    arc = _arg("--arc", BoundaryCondition.parse, args.arc)
    gamma = None if args.domain == "disk" else args.gamma
    spectrum = _arg({"radius": "--radius", "gamma": "--gamma"},
                    exact_spectra.sector_disk_spectrum, gamma, args.radius, args.pair, arc)
    if args.domain == "disk":
        return spectrum, trace_coeffs.disk_spec(args.radius, arc)
    bc0, bc1 = map(BoundaryCondition.parse, args.pair)  # --pair has fixed choices
    return spectrum, trace_coeffs.sector_spec(args.gamma, args.radius, bc0, bc1, arc)


_COEFF_NAMES = ("a_minus1", "a_minus_half", "a_0")  # the order of as_tuple()


def cmd_trace_fit(args):
    window = tuple(_floats_arg(args.window, "--window"))
    if len(window) != 2:
        raise ValidationError("--window must be tmin,tmax", field="--window")
    _arg({"window": "--window", "n": "--samples"}, exact_spectra.sample_times,
         window, args.samples)
    spectrum, spec = _trace_fit_domain(args)
    samples = exact_spectra.trace_samples(spectrum, window, args.samples)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            exact_spectra.write_trace_samples(fh, samples)
    report_fit = exact_spectra.fit_asymptotics(samples)
    fitted = report_fit.as_tuple()
    closed = trace_coeffs.coefficients(spec).as_tuple()
    report = {
        "domain": args.domain,
        "window": list(report_fit.window),
        "fitted": dict(zip(_COEFF_NAMES, fitted)),
        "nuisance": report_fit.nuisance,
        "residual_norm": report_fit.residual_norm,
        "condition_number": report_fit.condition_number,
        "closed_form": dict(zip(_COEFF_NAMES, closed)),
        "difference": {k: f - c for k, f, c in zip(_COEFF_NAMES, fitted, closed)},
    }
    _emit(report, args.json)
    return EXIT_OK


def cmd_distinguish(args):
    spec1 = load_polygon_spec(args.spec1)
    spec2 = load_polygon_spec(args.spec2)
    verdict = trace_coeffs.distinguish(spec1, spec2)
    report = {
        "verdict": "inconclusive" if verdict.isospectral_possible else "not_isospectral",
    }
    if verdict.witness is not None:
        report["witness"] = verdict.witness
        report["values"] = list(verdict.values)
    _emit(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache  # built once; parse_args keeps no state between calls
def build_parser():
    parser = argparse.ArgumentParser(
        prog="heattrace",
        description="Heat-trace coefficients, sector kernels and spectral checks "
        "for curvilinear polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the report format of every subcommand that prints one; JSON by default
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", default=True)
    report.add_argument("--table", dest="json", action="store_false")

    p = sub.add_parser("coeffs", parents=[report],
                       help="trace coefficients of a polygon spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--gb", action="store_true", help="use the Gauss-Bonnet form of a_0")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("corner", parents=[report],
                       help="corner coefficient (closed form / numeric)")
    p.add_argument("--pair", required=True,
                   choices=sorted(corner_lab._SAME_TYPE_PAIRS | corner_lab._MIXED_PAIRS))
    p.add_argument("--angle", required=True, type=float)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_corner)

    p = sub.add_parser("kernel", help="evaluate a model heat kernel on a grid (CSV)")
    p.add_argument("--model", required=True, choices=("sector", "halfplane"))
    p.add_argument("--gamma", type=float, default=math.pi / 2.0)
    p.add_argument("--bc0", default="D")
    p.add_argument("--bc1", default="D")
    p.add_argument("--grid", required=True,
                   help="semicolon list of name=value or name=lo:hi:count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("greens", parents=[report],
                       help="Laplace-transform consistency residuals")
    p.add_argument("--check-laplace", action="store_true",
                   help="accepted for compatibility; the check always runs")
    p.add_argument("--model", required=True, choices=("sector", "halfplane"))
    p.add_argument("--gamma", type=float, default=math.pi)
    p.add_argument("--bc0", default="D")
    p.add_argument("--bc1", default="D")
    p.add_argument("--r", type=float, default=0.9)
    p.add_argument("--phi", type=float, default=1.1)
    p.add_argument("--r0", type=float, default=1.4)
    p.add_argument("--phi0", type=float, default=2.0)
    p.add_argument("--s", default="1,4", help="comma list of spectral parameters")
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_greens)

    p = sub.add_parser("trace-fit", parents=[report],
                       help="fit trace coefficients from an exact spectrum")
    p.add_argument("--domain", required=True, choices=("rectangle", "sector", "disk"))
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--bc", default="D,D,D,D",
                   help="rectangle sides left,right,bottom,top (D, N or R:kappa)")
    p.add_argument("--gamma", type=float, default=math.pi / 2.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--pair", default="DD", choices=("DD", "NN", "DN", "ND"))
    p.add_argument("--arc", default="D", choices=("D", "N"))
    p.add_argument("--window", default="0.002,0.05")
    p.add_argument("--samples", type=int, default=12)
    p.add_argument("--csv", help="also write the trace samples to this CSV file")
    p.set_defaults(func=cmd_trace_fit)

    p = sub.add_parser("distinguish", parents=[report],
                       help="compare the trace invariants of two specs")
    p.add_argument("--spec1", required=True)
    p.add_argument("--spec2", required=True)
    p.set_defaults(func=cmd_distinguish)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except HeatTraceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
