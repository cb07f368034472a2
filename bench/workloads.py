"""The benchmark's workloads: job lists drawn from a seed.

A job is one oracle check.  `call` is the timed part: an in-process
`heattrace.cli.main(argv)` call where a subcommand exists, otherwise a call
to a public library function.  `check` runs untimed and compares what the
call produced with a closed form from `reference`.  The seed draws angles,
windows, point pairs and grids inside fixed narrow bands and sets the job
order, so the cost of a pass stays nearly the same from seed to seed.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from heattrace import cli, corner_lab, exact_spectra, quad_fp

import reference as ref

COEFF_KEYS = ("a_minus1", "a_minus_half", "a_0")


@dataclass
class Outcome:
    output: str  # what the job produced; every pass must reproduce it exactly
    error: float  # against the reference: relative, or absolute where it is zero
    ok: bool  # within the job's stated tolerance


@dataclass
class Job:
    name: str
    call: object  # () -> result, timed
    check: object  # result -> Outcome, untimed


class JobFailed(Exception):
    """A job's call returned a nonzero exit code."""


def run_cli(argv):
    """heattrace.cli.main(argv) with its output captured; the attribute is
    looked up at call time so that a traced pass sees its wrapper."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    if code != 0:
        raise JobFailed(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def _band(rng, center, width):
    """center * (1 + u * width) with u uniform in [-1, 1]."""
    return center * (1.0 + width * (2.0 * rng.random() - 1.0))


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(b))


def build(workload, seed, workdir, smoke=False):
    """The job list of one pass of `workload`; inputs that are files are
    written into `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corner":
        return _corner_jobs(rng, smoke)
    if workload == "spectra":
        return _spectra_jobs(rng, smoke)
    if workload == "kernels":
        return _kernels_jobs(rng, Path(workdir), smoke)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# corner: finite parts of the renormalized corner integral, term contributions

def _corner_numeric(pair, alpha, tol=1e-4):
    argv = ["corner", "--pair", pair, "--angle", repr(alpha), "--numeric",
            "--tol", repr(tol), "--json"]

    def check(out):
        report = json.loads(out)
        expect = ref.corner_pair(pair, alpha)
        ok = _close(report["closed_form"], expect) and abs(report["finite_part"] - expect) <= tol
        return Outcome(out, ref.rel_error(report["finite_part"], expect), ok)

    return Job(f"corner --numeric {pair} {alpha:.5f}", lambda: run_cli(argv), check)


def _corner_numeric_short(pair, alpha, tol=1e-3):
    """Smoke variant: the library finite part on a shorter cutoff ladder."""
    eps = quad_fp.default_eps_schedule(eps_max=0.25, ratio=0.8, count=9)

    def call():
        return corner_lab.corner_finite_part(pair, alpha, eps_schedule=eps).finite_part

    def check(value):
        err = abs(value - ref.corner_pair(pair, alpha))
        return Outcome(repr(value), err, err <= tol)

    return Job(f"corner_finite_part {pair} {alpha:.5f}", call, check)


def _term_job(name, gamma, tol=1e-8):
    def check(value):
        err = ref.rel_error(value, ref.term(name, gamma))
        return Outcome(repr(value), err, err <= tol)

    return Job(f"term_contributions {name} {gamma:.5f}",
               lambda: corner_lab.term_contributions(name, gamma), check)


def _i0_job(eps_max, tol=1e-6):
    def check(result):
        err = abs(result.finite_part)  # the reference is exactly zero
        return Outcome(repr(result.finite_part), err, err <= tol)

    return Job(f"i0_radial_finite_part {eps_max:.5f}",
               lambda: corner_lab.i0_radial_finite_part(eps_max=eps_max), check)


def _corner_jobs(rng, smoke):
    # one pairing per angle class; DD at the reflex angle has the fewest
    # digits, so digits_min reads the same job on every seed
    acute = _band(rng, 1.05, 0.01)
    right = _band(rng, 1.6, 0.01)
    reflex = _band(rng, 1.5 * math.pi, 0.01)
    # fixed angles for the term contributions: the size of their mu grid,
    # and so their cost, changes in steps with the angle
    terms = (1.6, 1.5, 1.4)
    if smoke:
        jobs = [_corner_numeric_short("DN", right), _term_job("C", reflex),
                _i0_job(_band(rng, 0.15, 0.01))]
    else:
        jobs = [
            _corner_numeric("NN", acute),
            _corner_numeric("DD", reflex),
            _corner_numeric("DN", right),
            # three C and three E jobs at nearby angles: the median job of a
            # pass then falls inside the E jobs, not across a gap in cost
            *(_term_job(term, gamma) for term in "CE" for gamma in terms),
            _i0_job(_band(rng, 0.15, 0.01)),
        ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# spectra: cold trace fits through the CLI, then a warm window sweep

def _fit_error(fitted, expect, keys=COEFF_KEYS):
    return max(ref.rel_error(fitted[k], e) for k, e in zip(COEFF_KEYS, expect) if k in keys)


def _trace_fit(label, args, expect, tol, keys=COEFF_KEYS):
    """`keys` names the fitted coefficients the window resolves."""
    argv = ["trace-fit", *args, "--json"]

    def check(out):
        report = json.loads(out)
        closed = report["closed_form"]
        agree = all(_close(closed[k], e) for k, e in zip(COEFF_KEYS, expect))
        err = _fit_error(report["fitted"], expect, keys)
        return Outcome(out, err, agree and err <= tol)

    return Job(f"trace-fit {label}", lambda: run_cli(argv), check)


def _rect_bc(bc):
    return bc if isinstance(bc, str) else f"R:{bc[1]!r}"


def _rectangle_fit(a, b, sides, window, tol):
    """sides = (left, right, bottom, top), each "D", "N" or ("R", kappa)."""
    args = ["--domain", "rectangle", "--a", repr(a), "--b", repr(b),
            "--bc", ",".join(_rect_bc(s) for s in sides), "--window", window]
    label = f"rectangle {a:.4f}x{b:.4f} {'/'.join(_rect_bc(s) for s in sides)}"
    return _trace_fit(label, args, ref.rectangle(a, b, *sides), tol)


def _warm_sweep(rng, gamma, radius, count, tol):
    """One job: a Spectrum built and fitted once (the prime), then refitted
    on `count` other windows.  Every window starts at >= 1.5x the prime's,
    so its cutoff is no larger than the prime's and every zero lookup of a
    refit hits the BesselZeroCache the prime filled.  The windows scale
    with radius^2, so sweeps at different radii cost the same.  The error
    is the worst of the fits."""
    expect = ref.sector(gamma, radius, "DD", "D")
    scale = radius * radius / 2.56
    prime = (0.025 * scale, 0.06 * scale)
    windows = [(prime[0] * _band(rng, 1.625, 0.04), 1.5 * prime[1] * _band(rng, 1.0, 0.05))
               for _ in range(count)]

    def call():
        spectrum = exact_spectra.sector_disk_spectrum(gamma, radius, "DD", "D")
        return [exact_spectra.fit_spectrum(spectrum, window=w) for w in [prime] + windows]

    def check(fits):
        err = max(_fit_error(dict(zip(COEFF_KEYS, f.as_tuple())), expect) for f in fits)
        text = repr([(f.as_tuple(), f.residual_norm, f.condition_number) for f in fits])
        return Outcome(text, err, err <= tol)

    return Job(f"warm sweep sector {gamma:.5f} radius {radius}, {count} refits", call, check)


def _spectra_jobs(rng, smoke):
    quarter = math.pi / 4.0
    if smoke:
        cold = [
            _rectangle_fit(1.0, 1.5, ("D",) * 4, "0.002,0.05", 1e-5),
            _rectangle_fit(1.0, 1.5, (("R", 1.0), "D", "N", "N"), "0.001,0.02", 2e-2),
        ]
        return cold + [_warm_sweep(rng, quarter, 1.6, 3, 5e-2)]

    def window(t_min, t_max):
        return f"{_band(rng, t_min, 0.01)!r},{t_max!r}"

    wide = _band(rng, 0.75 * math.pi, 0.005)
    narrow_r = _band(rng, 1.6, 0.01)
    # fixed sides: the error of a Dirichlet rectangle's fit (~1e-7) swings by
    # a digit as the sides move by a few percent
    a, b = 1.0, 1.5
    kappa = (_band(rng, 1.0, 0.02), _band(rng, 2.0, 0.02))
    cold = [
        _trace_fit("disk D", ["--domain", "disk", "--arc", "D", "--window", window(0.02, 0.15)],
                   ref.disk(1.0, "D"), 5e-2),
        _trace_fit("disk N", ["--domain", "disk", "--arc", "N", "--window", window(0.03, 0.15)],
                   ref.disk(1.0, "N"), 0.3),
        _trace_fit(f"narrow sector DD radius {narrow_r:.4f}",
                   ["--domain", "sector", "--gamma", repr(quarter), "--pair", "DD", "--arc", "D",
                    "--radius", repr(narrow_r), "--window", window(0.012, 0.1)],
                   ref.sector(quarter, narrow_r, "DD", "D"), 5e-2),
        # a_0 of this sector is ~0.004 and not resolved at an affordable
        # window; the area and perimeter terms are
        _trace_fit(f"wide sector DN arc N {wide:.5f}",
                   ["--domain", "sector", "--gamma", repr(wide), "--pair", "DN", "--arc", "N",
                    "--window", window(0.016, 0.12)],
                   ref.sector(wide, 1.0, "DN", "N"), 0.1, keys=COEFF_KEYS[:2]),
        # Robin terms of higher order grow with kappa^2 t: a shorter window
        _rectangle_fit(a, b, ("D",) * 4, "0.002,0.05", 1e-5),
        _rectangle_fit(a, b, ("D", "N", "D", "D"), "0.002,0.05", 1e-5),
        _rectangle_fit(a, b, (("R", kappa[0]), "D", "N", "N"), "0.001,0.02", 2e-2),
        _rectangle_fit(a, b, (("R", kappa[0]), ("R", kappa[1]), "D", "D"), "0.001,0.02", 2e-2),
    ]
    # three sweeps of equal cost: the median job of the pass is the middle one
    sweeps = [_warm_sweep(rng, quarter, radius, 8, 5e-2) for radius in (1.6, 1.5, 1.4)]
    rng.shuffle(cold)
    return cold + sweeps


# ---------------------------------------------------------------------------
# kernels: Laplace consistency, kernel grids against image forms, coefficients

def _greens(model, gamma, pair, tol=1e-5):
    # fixed points: the adaptive quadrature's cost jumps by up to 2x as a
    # point crosses a refinement threshold, so drawn points would make the
    # cost of a pass depend on the seed
    r, r0, phi, phi0 = 0.9, 1.4, 0.4 * gamma, 0.7 * gamma
    argv = ["greens", "--check-laplace", "--model", model, "--bc0", pair[0],
            "--r", repr(r), "--phi", repr(phi), "--r0", repr(r0), "--phi0", repr(phi0),
            "--s", "1,4", "--tol", repr(tol), "--json"]
    if model == "sector":
        argv += ["--gamma", repr(gamma), "--bc1", pair[1]]

    def check(out):
        residual = json.loads(out)["max_residual"]  # absolute, as the CLI reports it
        return Outcome(out, residual, residual <= tol)

    return Job(f"greens {model} {pair} {gamma:.5f}", lambda: run_cli(argv), check)


def _read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines, [[float(v) for v in line.split(",")] for line in lines[1:]]


def _kernel_grid(label, argv, out_path, reference, tol):
    argv = ["kernel", *argv, "--out", str(out_path)]

    def check(stdout):
        lines, rows = _read_csv(out_path)
        err = max(ref.rel_error(row[-1], reference(*row[:-1])) for row in rows)
        return Outcome(stdout + "\n".join(lines), err, err <= tol)

    return Job(f"kernel {label}", lambda: run_cli(argv), check)


def _sector_grid(rng, workdir, n, pair, shape):
    gamma = math.pi / n
    nt, nr, nth = shape
    t_lo, r_lo = _band(rng, 0.08, 0.05), _band(rng, 0.5, 0.05)
    r0, th0 = _band(rng, 1.0, 0.05), gamma * _band(rng, 0.5, 0.1)
    grid = (f"t={t_lo!r}:0.5:{nt};r={r_lo!r}:1.5:{nr};"
            f"theta={0.15 * gamma!r}:{0.85 * gamma!r}:{nth};r0={r0!r};theta0={th0!r}")
    argv = ["--model", "sector", "--gamma", repr(gamma), "--bc0", pair[0],
            "--bc1", pair[1], "--grid", grid]
    return _kernel_grid(
        f"sector {pair} pi/{n}", argv, workdir / f"sector_{pair}_{n}.csv",
        lambda t, r, th, r0_, th0_: ref.sector_images(n, pair, t, r, th, r0_, th0_), 1e-8,
    )


def _robin_grid(rng, workdir, shape):
    kappa = _band(rng, 1.5, 0.1)
    nt, nx, ny = shape
    grid = (f"t={_band(rng, 0.05, 0.05)!r}:0.5:{nt};x=-1.0:1.0:{nx};y=0.0:1.5:{ny};"
            f"x0={_band(rng, 0.2, 0.1)!r};y0={_band(rng, 0.5, 0.1)!r}")
    argv = ["--model", "halfplane", "--bc0", f"R:{kappa!r}", "--grid", grid]
    return _kernel_grid(
        f"halfplane R:{kappa:.4f}", argv, workdir / "halfplane_robin.csv",
        lambda t, x, y, x0, y0: ref.half_plane_robin(kappa, t, x, y, x0, y0), 1e-10,
    )


def _random_polygon(rng, n_edges):
    """A spec-file payload for a one-loop curvilinear polygon with Euler
    characteristic 1 and every kind of boundary condition the schema has."""
    edges = []
    for _ in range(n_edges):
        kind = rng.choice(("D", "N", "R", "Rint"))
        if kind == "R":
            bc = {"R": rng.uniform(0.2, 2.0)}
        elif kind == "Rint":
            bc = {"R": {"integral": rng.uniform(0.2, 2.0)}}
        else:
            bc = kind
        edges.append({"length": rng.uniform(0.5, 2.0), "bc": bc,
                      "kg_integral": rng.uniform(-0.5, 0.5)})
    return {
        "area": rng.uniform(1.0, 3.0),
        "euler_characteristic": 1,
        "loops": [{"edges": edges, "angles": [rng.uniform(0.4, 2.6) for _ in edges]}],
    }


def _polygon_reference(payload):
    """reference.polygon for a payload from _random_polygon; the Gauss
    curvature integral follows from Gauss-Bonnet."""
    loop = payload["loops"][0]
    edges = []
    for e in loop["edges"]:
        bc = e["bc"]
        if isinstance(bc, dict):
            body = bc["R"]
            robin = body["integral"] if isinstance(body, dict) else body * e["length"]
            edges.append((e["length"], "R", e["kg_integral"], robin))
        else:
            edges.append((e["length"], bc, e["kg_integral"], 0.0))
    angles = loop["angles"]
    gauss = (2.0 * math.pi * payload["euler_characteristic"]
             - math.fsum(e[2] for e in edges) - math.fsum(math.pi - a for a in angles))
    return ref.polygon(payload["area"], edges, angles, gauss)


def _coeffs_job(path, expect, gb):
    argv = ["coeffs", "--spec", str(path), "--json"] + (["--gb"] if gb else [])

    def check(out):
        report = json.loads(out)
        err = max(ref.rel_error(report[k], e) for k, e in zip(COEFF_KEYS, expect))
        return Outcome(out, err, err <= 1e-12)

    return Job(f"coeffs {Path(path).name}{' --gb' if gb else ''}", lambda: run_cli(argv), check)


def _distinguish_job(spec1, spec2):
    (path1, expect1), (path2, expect2) = spec1, spec2
    argv = ["distinguish", "--spec1", str(path1), "--spec2", str(path2), "--json"]
    witness = next(
        (k for k, v1, v2 in zip(COEFF_KEYS, expect1, expect2) if abs(v1 - v2) > 1e-12), None
    )

    def check(out):
        report = json.loads(out)
        if witness is None:
            return Outcome(out, 0.0, report == {"verdict": "inconclusive"})
        i = COEFF_KEYS.index(witness)
        values = report.get("values", [math.nan, math.nan])
        err = max(ref.rel_error(values[0], expect1[i]), ref.rel_error(values[1], expect2[i]))
        ok = report.get("verdict") == "not_isospectral" and report.get("witness") == witness
        return Outcome(out, err, ok and err <= 1e-12)

    name = f"distinguish {Path(path1).name} {Path(path2).name}"
    return Job(name, lambda: run_cli(argv), check)


def _kernels_jobs(rng, workdir, smoke):
    payloads = [_random_polygon(rng, 4), _random_polygon(rng, 5)]
    # same lengths and boundary conditions, one angle moved: only a_0 differs
    moved = json.loads(json.dumps(payloads[0]))
    moved["loops"][0]["angles"][0] *= 1.1
    payloads.append(moved)
    specs = []
    for i, payload in enumerate(payloads):
        path = workdir / f"polygon_{i}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        specs.append((path, _polygon_reference(payload)))

    jobs = []
    if smoke:
        jobs += [
            _greens("halfplane", math.pi, "D"),
            _greens("sector", math.pi / 2.0, "DD"),
            _sector_grid(rng, workdir, 2, "DN", (2, 3, 3)),
            _robin_grid(rng, workdir, (2, 3, 3)),
            _coeffs_job(*specs[0], gb=True),
            _distinguish_job(specs[0], specs[2]),
        ]
    else:
        for gamma in (math.pi / 3.0, math.pi / 2.0, math.pi):
            for pair in ("DD", "NN", "DN"):
                jobs.append(_greens("sector", gamma, pair))
        jobs += [_greens("halfplane", math.pi, "D"), _greens("halfplane", math.pi, "N")]
        for n, pair in ((2, "DD"), (3, "DD"), (2, "NN"), (4, "NN"), (2, "DN"), (4, "DN")):
            jobs.append(_sector_grid(rng, workdir, n, pair, (8, 10, 10)))
        jobs.append(_robin_grid(rng, workdir, (20, 20, 20)))
        for spec in specs[:2]:
            jobs += [_coeffs_job(*spec, gb=False), _coeffs_job(*spec, gb=True)]
        # 26 jobs in all: the median job then falls inside the pi/2 grids
        jobs.append(_coeffs_job(*specs[2], gb=False))
        jobs += [_distinguish_job(specs[0], specs[1]), _distinguish_job(specs[0], specs[2]),
                 _distinguish_job(specs[1], specs[1])]
    rng.shuffle(jobs)
    return jobs

