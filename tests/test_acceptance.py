"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math

import numpy as np
import pytest

from heattrace import (
    corner_lab,
    exact_spectra,
    quad_fp,
    sector_models,
    special_fns,
    trace_coeffs,
)
from heattrace.sector_models import DIRICHLET, NEUMANN, BoundaryCondition, SectorSpec

PI = math.pi
ANGLES = (PI / 3.0, PI / 2.0, 2.0 * PI / 3.0, PI, 1.5 * PI)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    return ok


def closed_same(alpha):
    return (PI**2 - alpha**2) / (24.0 * PI * alpha)


def closed_mixed(alpha):
    return -(PI**2 + 2.0 * alpha**2) / (48.0 * PI * alpha)


def test_criterion_1_corner_coefficient_reproduction():
    worst = 0.0
    for alpha in ANGLES:
        for pair in ("DD", "NN"):
            err = abs(corner_lab.corner_coeff_numeric(pair, alpha) - closed_same(alpha))
            worst = max(worst, err)
        err = abs(corner_lab.corner_coeff_numeric("DN", alpha) - closed_mixed(alpha))
        worst = max(worst, err)
    ok = worst <= 1e-4
    assert _report(1, "corner coefficient reproduction", ok, f"max |err| = {worst:.2e}")


def test_criterion_2_zero_finite_part():
    result = corner_lab.i0_radial_finite_part()
    ok = abs(result.finite_part) <= 1e-6
    assert _report(2, "zero finite part of the I0 radial integral", ok,
                   f"|f.p.| = {abs(result.finite_part):.2e}")


def test_criterion_3_dn_splitting_identity():
    worst = 0.0
    for alpha in (PI / 3.0, PI / 2.0):
        dn = corner_lab.corner_coeff_numeric("DN", alpha)
        dd2 = corner_lab.corner_coeff_numeric("DD", 2.0 * alpha)
        dd1 = corner_lab.corner_coeff_numeric("DD", alpha)
        worst = max(worst, abs(dn - dd2 + dd1))
    ok = worst <= 1e-5
    assert _report(3, "D-N splitting identity", ok, f"max residual = {worst:.2e}")


def test_criterion_4_square_dirichlet_trace_fit():
    spectrum = exact_spectra.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("D", "D"))
    rep = exact_spectra.fit_spectrum(spectrum)
    err_a0 = abs(rep.a_0 - 0.25)
    rel_a1 = abs(rep.a_minus1 - 1.0 / (4.0 * PI)) / (1.0 / (4.0 * PI))
    target_half = -1.0 / (2.0 * math.sqrt(PI))
    rel_half = abs(rep.a_minus_half - target_half) / abs(target_half)
    ok = err_a0 <= 1e-3 and rel_a1 <= 1e-5 and rel_half <= 1e-4
    assert _report(4, "square Dirichlet trace fit", ok,
                   f"|a0 err| = {err_a0:.2e}, rel a-1 = {rel_a1:.2e}, rel a-1/2 = {rel_half:.2e}")


def test_criterion_5_mixed_rectangle_trace_fit():
    spectrum = exact_spectra.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("N", "N"))
    rep = exact_spectra.fit_spectrum(spectrum)
    ok = abs(rep.a_minus_half) <= 1e-5 and abs(rep.a_0 + 0.25) <= 1e-3
    assert _report(5, "mixed rectangle trace fit", ok,
                   f"|a-1/2| = {abs(rep.a_minus_half):.2e}, |a0 + 1/4| = {abs(rep.a_0 + 0.25):.2e}")


def test_criterion_6_robin_edge_term():
    """The fitted a0 difference between the one-Robin-side unit square and
    the all-Neumann unit square must equal -kappa*l/(2 pi).

    The Robin condition is du/dnu = kappa u with nu the inward normal (see
    sector_models.BoundaryCondition).  Its quadratic form is
    Q(u) = int |grad u|^2 + int_R kappa u^2, so kappa > 0 pushes every
    eigenvalue above its Neumann value, the trace drops, and a0 falls by
    kappa*l/(2 pi).  This is the Branson-Gilkey boundary term
    +(1/2 pi) int S for du/dnu + S u = 0 (nu inward) with S = -kappa.
    The "+kappa*l/(2 pi)" once stated here is the sign for the opposite
    convention, du/dnu + kappa u = 0.  The comparison is signed, so a
    flipped sign in the oracle spectrum fails it.
    """
    kappa = 1.0
    robin = exact_spectra.fit_spectrum(
        exact_spectra.rectangle_spectrum(1.0, 1.0, ("N", "N"), ("N", ("R", kappa)))
    )
    neumann = exact_spectra.fit_spectrum(
        exact_spectra.rectangle_spectrum(1.0, 1.0, ("N", "N"), ("N", "N"))
    )
    shift = robin.a_0 - neumann.a_0
    target = -kappa * 1.0 / (2.0 * PI)
    ok = abs(shift - target) <= 2e-3
    _report(6, "Robin edge term", ok,
            f"fitted shift = {shift:+.6f}, target = {target:+.6f}")
    assert ok, (
        f"fitted a0 shift {shift:+.6f} differs from -kappa*l/(2 pi) = {target:+.6f} "
        f"by {shift - target:+.2e}; with du/dnu = kappa u (nu inward) the Robin "
        f"quadratic form adds int kappa u^2, so a0 must fall (Branson-Gilkey "
        f"+int S/(2 pi) with S = -kappa)"
    )


def test_criterion_7_greens_function_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        r, r0 = rng.uniform(0.5, 2.0, 2)
        phi = rng.uniform(0.35, 1.30)
        phi0 = phi + rng.uniform(0.35, 1.40)
        s = rng.uniform(0.5, 3.0)
        for bc in (DIRICHLET, NEUMANN):
            spec = SectorSpec(PI, bc, bc)
            kl = sector_models.greens_kl(spec, s, r, phi, r0, phi0, tol=1e-10)
            images = sector_models.greens_half_plane_images(bc, s, r, phi, r0, phi0)
            worst = max(worst, abs(kl - images))
    ok = worst <= 1e-8
    assert _report(7, "Green's function image oracle at gamma = pi", ok,
                   f"max |KL - images| = {worst:.2e}")


def test_criterion_8_laplace_consistency():
    worst = 0.0
    for s in (1.0, 4.0):
        res = sector_models.laplace_consistency(
            NEUMANN, s, [((1.0, PI / 2.0), (2.0, PI / 2.0))], tol=1e-7
        )
        worst = max(worst, res)
        spec = SectorSpec(PI)
        res = sector_models.laplace_consistency(
            spec, s, [((0.9, 1.1), (1.4, 2.0))], tol=1e-7
        )
        worst = max(worst, res)
    ok = worst <= 1e-5
    assert _report(8, "Laplace transform consistency", ok, f"max residual = {worst:.2e}")


def test_criterion_9_reflection_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in (2, 3):
        gamma = PI / n
        spec = SectorSpec(gamma)
        for _ in range(20):
            t = rng.uniform(0.05, 0.4)
            r, r0 = rng.uniform(0.2, 1.5, 2)
            th, th0 = rng.uniform(0.0, gamma, 2)
            mine = sector_models.sector_heat_kernel(spec, t, r, th, r0, th0, tol=1e-14)
            ref = 0.0
            for k in range(n):
                for sign, ang in ((1.0, th0 + 2.0 * k * gamma), (-1.0, -th0 + 2.0 * k * gamma)):
                    d2 = r * r + r0 * r0 - 2.0 * r * r0 * math.cos(th - ang)
                    ref += sign * math.exp(-d2 / (4.0 * t)) / (4.0 * PI * t)
            worst = max(worst, abs(mine - ref))
    ok = worst <= 1e-10
    assert _report(9, "reflection oracle for the sector series kernel", ok,
                   f"max |series - images| = {worst:.2e}")


def test_criterion_10_model_problem_residuals():
    big_x = np.linspace(-3.0, 3.0, 14)
    xi = np.linspace(0.2, 3.0, 10)
    residuals = {
        "td": sector_models.model_residual("td", (big_x, big_x)),
        "sf_N": sector_models.model_residual("sf_N", (big_x, xi, xi)),
        "sf_D": sector_models.model_residual("sf_D", (big_x, xi, xi)),
        "sf_R": sector_models.model_residual("sf_R", (big_x, xi, xi), kappa=1.0),
    }
    worst = max(residuals.values())
    ok = worst <= 1e-5
    assert _report(10, "model problem residuals", ok,
                   ", ".join(f"{k} = {v:.1e}" for k, v in residuals.items()))


class TestCriterion11PropertySuites:
    """Grouped property checks; the full versions live in the per-module
    test files and run as part of the same suite."""

    def test_symmetry_and_boundary_conditions(self):
        spec = SectorSpec(2.0, NEUMANN, DIRICHLET)
        a = sector_models.sector_heat_kernel(spec, 0.15, 0.6, 0.3, 1.4, 1.9, tol=1e-13)
        b = sector_models.sector_heat_kernel(spec, 0.15, 1.4, 1.9, 0.6, 0.3, tol=1e-13)
        ok = abs(a - b) <= 1e-12 * abs(a)
        assert sector_models.half_plane_kernel(DIRICHLET, 0.3, 0.0, 0.0, 0.4, 1.0) == 0.0
        h = 1e-4
        bc = BoundaryCondition.robin(1.0)
        u0 = sector_models.half_plane_kernel(bc, 0.2, 0.0, 0.0, 0.3, 1.0)
        d = (
            -3.0 * u0
            + 4.0 * sector_models.half_plane_kernel(bc, 0.2, 0.0, h, 0.3, 1.0)
            - sector_models.half_plane_kernel(bc, 0.2, 0.0, 2.0 * h, 0.3, 1.0)
        ) / (2.0 * h)
        ok = ok and abs(d - u0) <= 1e-6
        assert _report(11, "property suite: symmetry + boundary conditions", ok)

    def test_semigroup(self):
        gx, gw = np.polynomial.legendre.leggauss(70)
        t, s = 0.08, 0.12
        direct = sector_models.half_plane_kernel(NEUMANN, t + s, 0.2, 0.6, -0.3, 0.9)
        width = 7.0
        xs = -0.05 + width * gx
        wx = width * gw
        ys = 0.5 * width * (gx + 1.0)
        wy = 0.5 * width * gw
        total = 0.0
        for xv, wxv in zip(xs, wx):
            vals = [
                sector_models.half_plane_kernel(NEUMANN, t, 0.2, 0.6, xv, yv)
                * sector_models.half_plane_kernel(NEUMANN, s, xv, yv, -0.3, 0.9)
                for yv in ys
            ]
            total += wxv * float(np.dot(wy, vals))
        ok = abs(total - direct) <= 1e-6
        assert _report(11, "property suite: semigroup", ok, f"residual = {abs(total - direct):.1e}")

    def test_recurrence_and_primitive(self):
        ok = True
        for nu in (1.0, 4.5, 9.0):
            for x in (0.3, 5.0, 40.0):
                lhs = special_fns.bessel_i_scaled(nu - 1.0, x) - special_fns.bessel_i_scaled(nu + 1.0, x)
                rhs = 2.0 * nu / x * special_fns.bessel_i_scaled(nu, x)
                ok = ok and abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1e-30)
        g = lambda u: u * (special_fns.bessel_i_scaled(0.0, u) + special_fns.bessel_i_scaled(1.0, u))
        h = 1e-5
        for u in (0.1, 3.0, 30.0):
            d = (g(u + h) - g(u - h)) / (2.0 * h)
            ok = ok and abs(d - special_fns.bessel_i_scaled(0.0, u)) <= 1e-6
        assert _report(11, "property suite: recurrence + primitive derivative", ok)

    def test_fit_self_consistency(self):
        spectrum = exact_spectra.rectangle_spectrum(1.0, 1.0, ("N", "N"), ("N", ("R", 1.0)))
        rep = exact_spectra.fit_spectrum(spectrum)
        polygon = trace_coeffs.rectangle_spec(
            1.0, 1.0, (NEUMANN, NEUMANN, BoundaryCondition.robin(1.0), NEUMANN)
        )
        coeffs = trace_coeffs.coefficients(polygon)
        ok = (
            abs(rep.a_minus1 - coeffs.a_minus1) <= 1e-3
            and abs(rep.a_minus_half - coeffs.a_minus_half) <= 1e-3
            and abs(rep.a_0 - coeffs.a_0) <= 2e-3
        )
        assert _report(11, "property suite: fit self-consistency (Robin rectangle)", ok,
                       f"a0 fit = {rep.a_0:+.5f}, formula = {coeffs.a_0:+.5f}")

    def test_coefficients_vs_gb_and_strict_inequality(self):
        rng = np.random.default_rng(123)
        ok = True
        for _ in range(20):
            n = int(rng.integers(1, 6))
            bc = [DIRICHLET, NEUMANN, BoundaryCondition.robin(float(rng.uniform(0.2, 2.0)))][
                int(rng.integers(0, 3))
            ]
            edges = tuple(
                trace_coeffs.EdgeSpec(float(rng.uniform(0.3, 2.0)), bc) for _ in range(n)
            )
            angles = rng.uniform(0.3, 2.0 * PI - 0.3, n)
            angles[0] = min(max(angles[0], 0.3), PI - 0.3)  # force one angle != pi
            loop = trace_coeffs.BoundaryLoop(edges=edges, angles=tuple(float(a) for a in angles))
            spec = trace_coeffs.PolygonSpec(area=1.0, loops=(loop,), euler_characteristic=1)
            direct = trace_coeffs.coefficients(spec)
            gb = trace_coeffs.coefficients_gb(spec)
            ok = ok and abs(direct.a_0 - gb.a_0) <= 1e-12 * max(1.0, abs(direct.a_0))
            ok = ok and direct.a_0 > 1.0 / 6.0 + direct.breakdown["robin"]
        assert _report(11, "property suite: coefficients vs GB + strict inequality", ok)

    def test_finite_part_recovery_and_quadrature(self):
        eps = quad_fp.default_eps_schedule()
        r = quad_fp.finite_part(eps, [-1.5 / e**2 + 0.25 + 3.0 * e for e in eps])
        ok = abs(r.finite_part - 0.25) <= 1e-10
        q = quad_fp.integrate(lambda x: np.exp(-x), 0.0, math.inf, tol=1e-12, envelope=(1.0, 1.0))
        ok = ok and abs(q.value - 1.0) <= 1e-11
        assert _report(11, "property suite: finite part + quadrature", ok)
