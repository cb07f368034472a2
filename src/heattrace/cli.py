"""Command-line front end.

Subcommands: coeffs, corner, kernel, greens, trace-fit, distinguish.
Exit codes: 0 success, 1 numerical failure (a tolerance was not met),
2 input validation error.  JSON is used for specs and reports, CSV (comma
separated, header row, newline endings) for grids and trace samples.
"""

import argparse
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
# domain spec files

def _reject_unknown(obj, allowed, where):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(
            f"{where}: unknown key(s) {sorted(unknown)}", field=where
        )


def _parse_bc(raw, where):
    """(condition, None), or (None, v) for {"R": {"integral": v}}."""
    bc = raw if raw in ("D", "N") else None
    if isinstance(raw, dict) and set(raw) == {"R"}:
        body = raw["R"]
        if isinstance(body, dict) and set(body) == {"integral"}:
            integral = body["integral"]
            if not isinstance(integral, (int, float)) or integral <= 0:
                raise ValidationError(
                    f"{where}.bc.R.integral: must be a number > 0", field=where
                )
            return None, float(integral)  # kappa fixed later from the length
        if isinstance(body, (int, float)):
            bc = ("R", body)
    try:
        return BoundaryCondition.parse(bc), None
    except DomainError:
        raise ValidationError(
            f'{where}.bc: expected "D", "N", {{"R": kappa > 0}} or '
            f'{{"R": {{"integral": value}}}}, got {raw!r}',
            field=where,
        ) from None


def _parse_edge(raw, where):
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: edge must be an object", field=where)
    _reject_unknown(raw, ("length", "bc", "kg_integral"), where)
    for key in ("length", "bc"):
        if key not in raw:
            raise ValidationError(f"{where}.{key}: missing", field=f"{where}.{key}")
    length = raw["length"]
    if not isinstance(length, (int, float)) or not length > 0:
        raise ValidationError(
            f"{where}.length: must be a number > 0, got {length!r}",
            field=f"{where}.length",
        )
    kg = raw.get("kg_integral", 0.0)
    if not isinstance(kg, (int, float)):
        raise ValidationError(
            f"{where}.kg_integral: must be a number, got {kg!r}",
            field=f"{where}.kg_integral",
        )
    bc, robin_integral = _parse_bc(raw["bc"], where)
    if bc is None:
        bc = BoundaryCondition.robin(robin_integral / float(length))
    return trace_coeffs.EdgeSpec(
        length=float(length),
        bc=bc,
        geodesic_curvature_integral=float(kg),
        robin_integral=robin_integral,
    )


def _parse_loop(raw, where):
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: loop must be an object", field=where)
    _reject_unknown(raw, ("edges", "angles"), where)
    edges_raw = raw.get("edges")
    if not isinstance(edges_raw, list) or not edges_raw:
        raise ValidationError(f"{where}.edges: need a nonempty list", field=where)
    edges = tuple(
        _parse_edge(e, f"{where}.edges[{i}]") for i, e in enumerate(edges_raw)
    )
    angles_raw = raw.get("angles", [])
    if not isinstance(angles_raw, list):
        raise ValidationError(f"{where}.angles: must be a list", field=where)
    for i, a in enumerate(angles_raw):
        if not isinstance(a, (int, float)) or not 0.0 < a < 2.0 * math.pi:
            raise ValidationError(
                f"{where}.angles[{i}]: angle must lie in (0, 2*pi), got {a!r}",
                field=f"{where}.angles[{i}]",
            )
    try:
        return trace_coeffs.BoundaryLoop(edges=edges, angles=tuple(float(a) for a in angles_raw))
    except HeatTraceError as exc:
        raise ValidationError(f"{where}: {exc}", field=where) from exc


def load_polygon_spec(path):
    """Parse a DomainSpecFile (JSON) into a PolygonSpec; strict keys."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return polygon_spec_from_dict(raw, where=path)


def polygon_spec_from_dict(raw, where="spec"):
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: top level must be an object", field=where)
    allowed = (
        "area",
        "gauss_curvature_integral",
        "euler_characteristic",
        "loops",
        "cone_points",
    )
    _reject_unknown(raw, allowed, where)
    if "area" not in raw or not isinstance(raw["area"], (int, float)) or raw["area"] <= 0:
        raise ValidationError(f"{where}.area: must be a number > 0", field="area")
    has_k = "gauss_curvature_integral" in raw
    has_chi = "euler_characteristic" in raw
    if not has_k and not has_chi:
        raise ValidationError(
            f"{where}: provide gauss_curvature_integral or euler_characteristic",
            field="gauss_curvature_integral",
        )
    if has_chi and not isinstance(raw["euler_characteristic"], int):
        raise ValidationError(
            f"{where}.euler_characteristic: must be an integer",
            field="euler_characteristic",
        )
    loops_raw = raw.get("loops")
    if not isinstance(loops_raw, list) or not loops_raw:
        raise ValidationError(f"{where}.loops: need a nonempty list", field="loops")
    loops = tuple(
        _parse_loop(lp, f"{where}.loops[{i}]") for i, lp in enumerate(loops_raw)
    )
    cones = raw.get("cone_points", [])
    if not isinstance(cones, list):
        raise ValidationError(f"{where}.cone_points: must be a list", field="cone_points")
    for i, c in enumerate(cones):
        if not isinstance(c, (int, float)) or c <= 0:
            raise ValidationError(
                f"{where}.cone_points[{i}]: opening must be > 0, got {c!r}",
                field=f"cone_points[{i}]",
            )
    try:
        return trace_coeffs.PolygonSpec(
            area=float(raw["area"]),
            loops=loops,
            gauss_curvature_integral=(
                float(raw["gauss_curvature_integral"]) if has_k else None
            ),
            euler_characteristic=raw.get("euler_characteristic"),
            cone_points=tuple(float(c) for c in cones),
        )
    except HeatTraceError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


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

def _arg(field, build, *args):
    """build(*args), the object an argument describes, with the DomainError
    or UnsupportedBCError it raises reported as a validation error of that
    argument.  Only construction is wrapped: a DomainError raised later, deep
    in a computation, stays a numerical failure."""
    try:
        return build(*args)
    except (DomainError, UnsupportedBCError) as exc:
        raise ValidationError(f"{field}: {exc}", field=field) from None


def _sector_arg(args):
    """The SectorSpec of --gamma, --bc0 and --bc1.  Each SectorSpec call adds
    one argument to those already checked, so an error names its cause."""
    bc0 = _arg("--bc0", BoundaryCondition.parse, args.bc0)
    bc1 = _arg("--bc1", BoundaryCondition.parse, args.bc1)
    _arg("--gamma", SectorSpec, args.gamma)
    _arg("--bc0", SectorSpec, args.gamma, bc0)
    return _arg("--bc1", SectorSpec, args.gamma, bc0, bc1)


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
    # name -> (upper end, whether 0 is allowed) of each checked axis
    if args.model == "sector":
        names = ("t", "r", "theta", "r0", "theta0")
        spec = _sector_arg(args)
        ranges = {"t": (math.inf, False), "r": (math.inf, True), "r0": (math.inf, True),
                  "theta": (spec.gamma, True), "theta0": (spec.gamma, True)}
        kernel = lambda *cols: sector_models.sector_heat_kernel(spec, *cols)
    else:
        names = ("t", "x", "y", "x0", "y0")
        bc = _arg("--bc0", BoundaryCondition.parse, args.bc0)
        ranges = {"t": (math.inf, False), "y": (math.inf, True), "y0": (math.inf, True)}
        kernel = lambda *cols: sector_models.half_plane_kernel(bc, *cols)
    missing = [n for n in names if n not in axes]
    if missing:
        raise ValidationError(f"--grid is missing {missing}", field="--grid")
    for name, (hi, zero_ok) in ranges.items():
        _arg("--grid", sector_models.check_coordinate, name, axes[name], hi, zero_ok)
    # the first axis varies slowest
    cols = [c.ravel() for c in np.meshgrid(*(axes[n] for n in names), indexing="ij")]
    values = kernel(*cols)
    fmt = ",".join(["%.17e"] * (len(names) + 1)) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + ",H\n")
        fh.writelines(fmt % row for row in zip(*(c.tolist() for c in cols), values.tolist()))
    sys.stdout.write(f"wrote {values.size} rows to {args.out}\n")
    return EXIT_OK


def cmd_greens(args):
    s_values = _floats_arg(args.s, "--s")
    _arg("--s", sector_models.check_coordinate, "s", s_values, math.inf, False)
    if args.model == "halfplane":
        model = _arg("--bc0", BoundaryCondition.parse, args.bc0)
        gamma, zero_ok = math.pi, True
    else:
        model = _sector_arg(args)
        gamma, zero_ok = model.gamma, False  # the KL integral needs r, r0 > 0
    for name in ("r", "r0"):
        _arg(f"--{name}", sector_models.check_coordinate, name, getattr(args, name),
             math.inf, zero_ok)
    for name in ("phi", "phi0"):
        _arg(f"--{name}", sector_models.check_coordinate, name, getattr(args, name), gamma, True)
    points = [((args.r, args.phi), (args.r0, args.phi0))]
    report = {"model": args.model, "residuals": {}}
    worst = 0.0
    for s in s_values:
        res = sector_models.laplace_consistency(model, s, points, tol=args.tol * 1e-1)
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
        _arg("--a", trace_coeffs.EdgeSpec, args.a, bottom)
        _arg("--b", trace_coeffs.EdgeSpec, args.b, left)
        return (
            exact_spectra.rectangle_spectrum(args.a, args.b, (left, right), (bottom, top)),
            trace_coeffs.rectangle_spec(args.a, args.b, (bottom, right, top, left)),
        )
    arc = _arg("--arc", BoundaryCondition.parse, args.arc)
    spectrum = _arg("--radius", exact_spectra.sector_disk_spectrum, None, args.radius, None, arc)
    if args.domain == "disk":
        return spectrum, trace_coeffs.disk_spec(args.radius, arc)
    # with the radius checked, the sector spectrum can only reject --gamma
    bc0, bc1 = (_arg("--pair", BoundaryCondition.parse, c) for c in args.pair)
    spectrum = _arg(
        "--gamma", exact_spectra.sector_disk_spectrum, args.gamma, args.radius, args.pair, arc
    )
    return spectrum, trace_coeffs.sector_spec(args.gamma, args.radius, bc0, bc1, arc)


_COEFF_NAMES = ("a_minus1", "a_minus_half", "a_0")  # the order of as_tuple()


def cmd_trace_fit(args):
    window = tuple(_floats_arg(args.window, "--window"))
    if len(window) != 2:
        raise ValidationError("--window must be tmin,tmax", field="--window")
    _arg("--window", exact_spectra.sample_times, window)
    _arg("--samples", exact_spectra.sample_times, window, args.samples)
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
    p.add_argument("--check-laplace", action="store_true", dest="check")
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
