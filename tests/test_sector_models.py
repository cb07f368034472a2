import math

import numpy as np
import pytest

from heattrace import sector_models as sm
from heattrace.errors import (
    DiagonalPointError,
    DomainError,
    UnsupportedBCError,
    WeakEnvelopeError,
)

PI = math.pi


def image_kernel_dd(n, t, r, th, r0, th0):
    """Method-of-images oracle for the D-D sector of angle pi/n: alternating
    free Gaussians over the dihedral group of order 2n."""
    g = PI / n
    total = 0.0
    for k in range(n):
        for sign, ang in ((1.0, th0 + 2.0 * k * g), (-1.0, -th0 + 2.0 * k * g)):
            d2 = r * r + r0 * r0 - 2.0 * r * r0 * math.cos(th - ang)
            total += sign * math.exp(-d2 / (4.0 * t)) / (4.0 * PI * t)
    return total


class TestBoundaryConditionParse:
    def test_instance_passes_through(self):
        bc = sm.BoundaryCondition.robin(2.0)
        assert sm.BoundaryCondition.parse(bc) is bc

    def test_forms_agree(self):
        parse = sm.BoundaryCondition.parse
        assert parse("R:1.5") == parse(("R", 1.5)) == sm.BoundaryCondition.robin(1.5)
        assert parse("D") == sm.DIRICHLET
        assert parse("N") == sm.NEUMANN

    @pytest.mark.parametrize("raw", ["X", "R:abc", ("R", None), "R:0", "R:nan"])
    def test_rejects(self, raw):
        with pytest.raises(DomainError):
            sm.BoundaryCondition.parse(raw)


class TestAngularModes:
    def test_dd_first_mode(self):
        spec = sm.SectorSpec(PI)
        mode = sm.angular_modes(spec, 1)
        assert mode.order == pytest.approx(1.0)
        assert mode.eigenfn(0.7) == pytest.approx(math.sqrt(2.0 / PI) * math.sin(0.7))

    def test_nn_constant_mode(self):
        spec = sm.SectorSpec(1.3, sm.NEUMANN, sm.NEUMANN)
        mode = sm.angular_modes(spec, 1)
        assert mode.order == 0.0
        assert mode.eigenfn(0.0) == pytest.approx(math.sqrt(1.0 / 1.3))
        assert mode.eigenfn(1.0) == mode.eigenfn(0.2)

    def test_dn_first_order(self):
        spec = sm.SectorSpec(PI / 2.0, sm.DIRICHLET, sm.NEUMANN)
        assert sm.angular_modes(spec, 1).order == pytest.approx(1.0)

    def test_unit_norm_and_increasing_orders(self):
        gx, gw = np.polynomial.legendre.leggauss(60)
        for pair in ("DD", "NN", "DN", "ND"):
            bc0 = sm.DIRICHLET if pair[0] == "D" else sm.NEUMANN
            bc1 = sm.DIRICHLET if pair[1] == "D" else sm.NEUMANN
            spec = sm.SectorSpec(2.1, bc0, bc1)
            prev = -1.0
            for j in (1, 2, 3, 5):
                mode = sm.angular_modes(spec, j)
                assert mode.order > prev
                prev = mode.order
                theta = 1.05 + 1.05 * gx
                norm = float(np.dot(gw * 1.05, np.array([mode.eigenfn(v) for v in theta]) ** 2))
                assert norm == pytest.approx(1.0, abs=1e-12)

    def test_robin_rejected(self):
        with pytest.raises(UnsupportedBCError):
            sm.SectorSpec(1.0, sm.BoundaryCondition.robin(1.0), sm.DIRICHLET)


class TestSectorHeatKernel:
    def test_gamma_pi_matches_half_plane_images(self):
        spec = sm.SectorSpec(PI)
        for t, r, th, r0, th0 in [(0.2, 0.8, 0.9, 1.2, 1.7), (0.05, 1.0, 0.4, 1.1, 2.3)]:
            mine = sm.sector_heat_kernel(spec, t, r, th, r0, th0, tol=1e-13)
            ref = image_kernel_dd(1, t, r, th, r0, th0)
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_swap_symmetry(self):
        spec = sm.SectorSpec(2.0, sm.NEUMANN, sm.DIRICHLET)
        a = sm.sector_heat_kernel(spec, 0.15, 0.6, 0.3, 1.4, 1.9, tol=1e-13)
        b = sm.sector_heat_kernel(spec, 0.15, 1.4, 1.9, 0.6, 0.3, tol=1e-13)
        assert a == pytest.approx(b, rel=1e-12)

    def test_dirichlet_edge_vanishes(self):
        spec = sm.SectorSpec(1.7)
        assert sm.sector_heat_kernel(spec, 0.1, 0.9, 0.0, 1.0, 1.0) == 0.0

    def test_dn_quarter_plane_images(self):
        spec = sm.SectorSpec(PI / 2.0, sm.DIRICHLET, sm.NEUMANN)
        for t, r, th, r0, th0 in [(0.12, 0.8, 0.3, 1.3, 1.1), (0.3, 1.0, 0.5, 1.0, 1.3)]:
            mine = sm.sector_heat_kernel(spec, t, r, th, r0, th0, tol=1e-14)
            ref = 0.0
            for sign, ang in ((+1.0, th0), (-1.0, -th0), (+1.0, PI - th0), (-1.0, PI + th0)):
                d2 = r * r + r0 * r0 - 2.0 * r * r0 * math.cos(th - ang)
                ref += sign * math.exp(-d2 / (4.0 * t)) / (4.0 * PI * t)
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_reflection_oracle(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            spec = sm.SectorSpec(PI / n)
            for _ in range(6):
                t = rng.uniform(0.05, 0.4)
                r, r0 = rng.uniform(0.2, 1.5, 2)
                th, th0 = rng.uniform(0.0, PI / n, 2)
                mine = sm.sector_heat_kernel(spec, t, r, th, r0, th0, tol=1e-14)
                ref = image_kernel_dd(n, t, r, th, r0, th0)
                assert mine == pytest.approx(ref, abs=1e-10)

    def test_validation(self):
        spec = sm.SectorSpec(1.0)
        with pytest.raises(DomainError):
            sm.sector_heat_kernel(spec, -0.1, 1.0, 0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            sm.sector_heat_kernel(spec, 0.1, 1.0, 1.5, 1.0, 0.5)


class TestGreensKL:
    def test_gamma_pi_dirichlet_images(self):
        spec = sm.SectorSpec(PI)
        rng = np.random.default_rng(11)
        for _ in range(6):
            r, r0 = rng.uniform(0.5, 2.0, 2)
            phi = rng.uniform(0.4, 1.4)
            phi0 = phi + rng.uniform(0.35, 1.2)
            s = rng.uniform(0.5, 4.0)
            kl = sm.greens_kl(spec, s, r, phi, r0, phi0, tol=1e-11)
            images = sm.greens_half_plane_images(sm.DIRICHLET, s, r, phi, r0, phi0)
            assert kl == pytest.approx(images, abs=1e-9)

    def test_gamma_pi_neumann_images(self):
        spec = sm.SectorSpec(PI, sm.NEUMANN, sm.NEUMANN)
        kl = sm.greens_kl(spec, 2.0, 1.0, 1.0, 1.3, 2.0, tol=1e-11)
        images = sm.greens_half_plane_images(sm.NEUMANN, 2.0, 1.0, 1.0, 1.3, 2.0)
        assert kl == pytest.approx(images, abs=1e-10)

    def test_symmetry(self):
        for pair in ("DD", "NN"):
            bc = sm.DIRICHLET if pair == "DD" else sm.NEUMANN
            spec = sm.SectorSpec(2.2, bc, bc)
            a = sm.greens_kl(spec, 1.5, 0.8, 0.5, 1.5, 1.8, tol=1e-11)
            b = sm.greens_kl(spec, 1.5, 1.5, 1.8, 0.8, 0.5, tol=1e-11)
            assert a == pytest.approx(b, rel=1e-9)

    @staticmethod
    def _dn_quarter_images(s, r, phi, r0, phi0):
        # D at phi=0, N at phi=pi/2: four signed images on the full plane
        from heattrace.special_fns import bessel_k_imag

        rs = math.sqrt(s)
        total = 0.0
        for sign, ang in ((+1.0, phi0), (-1.0, -phi0), (+1.0, PI - phi0), (-1.0, PI + phi0)):
            d = math.sqrt(r * r + r0 * r0 - 2.0 * r * r0 * math.cos(phi - ang))
            total += sign * bessel_k_imag(0.0, rs * d)
        return total / (2.0 * PI)

    def test_dn_quarter_plane_images(self):
        spec = sm.SectorSpec(PI / 2.0, sm.DIRICHLET, sm.NEUMANN)
        for r, phi, r0, phi0 in [(0.8, 0.3, 1.3, 1.1), (1.5, 0.9, 0.6, 0.25)]:
            kl = sm.greens_kl(spec, 2.0, r, phi, r0, phi0, tol=1e-11)
            images = self._dn_quarter_images(2.0, r, phi, r0, phi0)
            assert kl == pytest.approx(images, abs=1e-10)

    def test_nd_is_reflected_dn(self):
        spec_dn = sm.SectorSpec(PI / 2.0, sm.DIRICHLET, sm.NEUMANN)
        spec_nd = sm.SectorSpec(PI / 2.0, sm.NEUMANN, sm.DIRICHLET)
        a = sm.greens_kl(spec_nd, 2.0, 0.8, 0.3, 1.3, 1.1, tol=1e-11)
        b = sm.greens_kl(spec_dn, 2.0, 0.8, PI / 2.0 - 0.3, 1.3, PI / 2.0 - 1.1, tol=1e-11)
        assert a == b

    def test_diagonal_rejected(self):
        spec = sm.SectorSpec(2.0)
        with pytest.raises(DiagonalPointError):
            sm.greens_kl(spec, 1.0, 1.0, 0.7, 1.0, 0.7)

    def test_weak_envelope_rejected(self):
        spec = sm.SectorSpec(2.0)
        with pytest.raises(WeakEnvelopeError):
            sm.greens_kl(spec, 1.0, 1.0, 0.7, 1.5, 0.7 + 1e-5)


class TestLaplaceConsistency:
    def test_half_plane_neumann(self):
        res = sm.laplace_consistency(
            sm.NEUMANN, 1.0, [((1.0, PI / 2.0), (2.0, PI / 2.0))], tol=1e-7
        )
        assert res <= 1e-6

    def test_sector_dd(self):
        spec = sm.SectorSpec(PI)
        res = sm.laplace_consistency(spec, 2.0, [((0.9, 1.1), (1.4, 2.0))], tol=1e-7)
        assert res <= 1e-5

    def test_large_s_residual_shrinks(self):
        res = sm.laplace_consistency(
            sm.NEUMANN, 40.0, [((1.0, PI / 2.0), (2.0, PI / 2.0))], tol=1e-8
        )
        assert res <= 1e-7

    def test_mixed_sector(self):
        spec = sm.SectorSpec(PI / 2.0, sm.DIRICHLET, sm.NEUMANN)
        res = sm.laplace_consistency(spec, 2.0, [((0.8, 0.3), (1.3, 1.1))], tol=1e-7)
        assert res <= 1e-5

    def test_series_integral_agreement(self):
        # equality of the series heat kernel and the KL Green's function,
        # checked through the Laplace transform at off-diagonal points
        rng = np.random.default_rng(5)
        for gamma in (PI / 3.0, PI / 2.0, 2.0 * PI / 3.0):
            for bc in (sm.DIRICHLET, sm.NEUMANN):
                spec = sm.SectorSpec(gamma, bc, bc)
                for _ in range(2):
                    r = rng.uniform(0.6, 1.2)
                    r0 = rng.uniform(1.3, 1.9)
                    phi = rng.uniform(0.15 * gamma, 0.45 * gamma)
                    phi0 = rng.uniform(0.55 * gamma, 0.85 * gamma)
                    res = sm.laplace_consistency(
                        spec, 1.5, [((r, phi), (r0, phi0))], tol=1e-7
                    )
                    assert res <= 1e-5


class TestHalfPlaneKernel:
    def test_dirichlet_boundary_trace(self):
        h = sm.half_plane_kernel(sm.DIRICHLET, 0.3, 0.0, 0.0, 0.4, 1.0)
        assert h == 0.0

    def test_neumann_conservation(self):
        # integral over the half-plane equals 1 (heat conservation)
        gx, gw = np.polynomial.legendre.leggauss(80)
        for t, x, y in [(0.1, 0.0, 0.5), (0.4, 1.0, 0.1)]:
            width = 6.0 * math.sqrt(4.0 * t)
            xs = x + width * gx
            wx = width * gw
            ys = 0.5 * (y + width) + 0.5 * (y + width) * gx
            wy = 0.5 * (y + width) * gw
            total = 0.0
            for xv, wxv in zip(xs, wx):
                vals = [sm.half_plane_kernel(sm.NEUMANN, t, x, y, xv, yv) for yv in ys]
                total += wxv * float(np.dot(wy, vals))
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_robin_kappa_to_zero_is_neumann(self):
        args = (0.2, 0.0, 0.5, 0.3, 1.0)
        hn = sm.half_plane_kernel(sm.NEUMANN, *args)
        hr = sm.half_plane_kernel(sm.BoundaryCondition.robin(1e-12), *args)
        assert hr == pytest.approx(hn, rel=1e-10)

    def test_neumann_normal_derivative(self):
        h = 1e-4
        for t, x, x0, y0 in [(0.2, 0.1, 0.4, 0.8), (0.05, 0.0, 0.3, 0.2)]:
            d = (
                -3.0 * sm.half_plane_kernel(sm.NEUMANN, t, x, 0.0, x0, y0)
                + 4.0 * sm.half_plane_kernel(sm.NEUMANN, t, x, h, x0, y0)
                - sm.half_plane_kernel(sm.NEUMANN, t, x, 2.0 * h, x0, y0)
            ) / (2.0 * h)
            assert abs(d) <= 1e-6

    def test_robin_boundary_condition(self):
        # inward normal derivative equals kappa * u at y = 0
        h = 1e-4
        for kappa in (0.5, 1.0, 2.0):
            bc = sm.BoundaryCondition.robin(kappa)
            for t, x, x0, y0 in [(0.2, 0.0, 0.3, 1.0), (0.07, 0.2, 0.0, 0.5)]:
                u0 = sm.half_plane_kernel(bc, t, x, 0.0, x0, y0)
                d = (
                    -3.0 * u0
                    + 4.0 * sm.half_plane_kernel(bc, t, x, h, x0, y0)
                    - sm.half_plane_kernel(bc, t, x, 2.0 * h, x0, y0)
                ) / (2.0 * h)
                assert abs(d - kappa * u0) <= 1e-6

    def test_positivity_interior(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            t = rng.uniform(0.01, 1.0)
            x, x0 = rng.uniform(-2.0, 2.0, 2)
            y, y0 = rng.uniform(0.01, 2.0, 2)
            assert sm.half_plane_kernel(sm.DIRICHLET, t, x, y, x0, y0) >= 0.0
            assert sm.half_plane_kernel(sm.NEUMANN, t, x, y, x0, y0) >= 0.0

    def test_semigroup(self):
        # H(t+s, z, z'') = int H(t, z, z') H(s, z', z'') dz'
        gx, gw = np.polynomial.legendre.leggauss(70)
        t, s = 0.08, 0.12
        z = (0.2, 0.6)
        z2 = (-0.3, 0.9)
        for bc in (sm.DIRICHLET, sm.NEUMANN, sm.BoundaryCondition.robin(1.0)):
            direct = sm.half_plane_kernel(bc, t + s, z[0], z[1], z2[0], z2[1])
            width = 7.0
            xs = 0.5 * (z[0] + z2[0]) + width * gx
            wx = width * gw
            ys = 0.5 * width * (gx + 1.0)
            wy = 0.5 * width * gw
            total = 0.0
            for xv, wxv in zip(xs, wx):
                vals = [
                    sm.half_plane_kernel(bc, t, z[0], z[1], xv, yv)
                    * sm.half_plane_kernel(bc, s, xv, yv, z2[0], z2[1])
                    for yv in ys
                ]
                total += wxv * float(np.dot(wy, vals))
            assert total == pytest.approx(direct, abs=1e-6)


class TestModelResiduals:
    def test_td_model(self):
        grid = (np.linspace(-3.0, 3.0, 20), np.linspace(-3.0, 3.0, 20))
        assert sm.model_residual("td", grid) <= 1e-5

    def test_sf_models(self):
        big_x = np.linspace(-3.0, 3.0, 12)
        xi = np.linspace(0.2, 3.0, 10)
        assert sm.model_residual("sf_N", (big_x, xi, xi)) <= 1e-5
        assert sm.model_residual("sf_D", (big_x, xi, xi)) <= 1e-5

    def test_robin_model_half_identity(self):
        big_x = np.linspace(-3.0, 3.0, 12)
        xi = np.linspace(0.2, 3.0, 10)
        assert sm.model_residual("sf_R", (big_x, xi, xi), kappa=1.0) <= 1e-5

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            sm.model_residual("ff", (np.array([1.0]),))
