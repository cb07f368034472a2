import itertools
import math

import numpy as np
import pytest

from heattrace import cli
from heattrace import corner_lab as cl
from heattrace import exact_spectra as es
from heattrace import sector_models as sm
from heattrace import special_fns as sf
from heattrace.special_fns import bessel_i_scaled
from heattrace.errors import (
    DiagonalPointError,
    DomainError,
    ToleranceError,
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


    def test_infinite_kappa_rejected(self):
        with pytest.raises(DomainError) as info:
            sm.BoundaryCondition.robin(math.inf)
        assert info.value.field == "robin_kappa"


@pytest.mark.parametrize(
    "args, field",
    [
        ((math.nan,), "gamma"),
        ((7.0,), "gamma"),
        ((1.0, sm.BoundaryCondition.robin(1.0)), "bc_at_0"),
        ((1.0, sm.DIRICHLET, sm.BoundaryCondition.robin(1.0)), "bc_at_gamma"),
    ],
)
def test_sector_spec_errors_name_the_field(args, field):
    with pytest.raises((DomainError, UnsupportedBCError)) as info:
        sm.SectorSpec(*args)
    assert info.value.field == field


LADDER_ANGLES = (PI / 3.0, 1.05, 1.6, 2.3, 1.5 * PI)


class TestModeOrder:
    @pytest.mark.parametrize("pair", ["DD", "NN", "DN", "ND"])
    @pytest.mark.parametrize("gamma", LADDER_ANGLES)
    def test_one_ladder_for_kernel_corner_and_spectrum(self, pair, gamma, monkeypatch):
        """The corner mode sum and the sector spectrum's Bessel families read
        the same order floats as mode_order, bit for bit."""
        ladder = [sm.mode_order(pair, gamma, j) for j in range(40)]
        corner = list(cl._corner_orders(pair, gamma, 50.0))
        assert len(corner) > 10
        assert corner == [sm.mode_order(pair, gamma, j) for j in range(len(corner))]

        families = []
        zeros_below = es.bessel_j_zeros_below

        def recorded(orders, *args):
            families.extend(orders.tolist())
            return zeros_below(orders, *args)

        monkeypatch.setattr(es, "bessel_j_zeros_below", recorded)
        assert len(es.sector_disk_spectrum(gamma, 1.0, pair, "D").up_to(3000.0 / gamma)) >= 60
        assert len(families) >= 4
        assert families == ladder[:len(families)]

    def test_offsets(self):
        assert sm.mode_order("DD", 2.0, 0) == PI / 2.0
        assert sm.mode_order("NN", 2.0, 0) == 0.0
        assert sm.mode_order("DN", 2.0, 1) == sm.mode_order("ND", 2.0, 1) == 1.5 * PI / 2.0

    @pytest.mark.parametrize("pair", ["RR", "DR", "NR", "XX"])
    def test_no_ladder_for_robin_pairs(self, pair):
        with pytest.raises(UnsupportedBCError):
            sm.mode_order(pair, 1.0, 0)
        with pytest.raises(UnsupportedBCError):
            cl._corner_orders(pair, 1.0, 50.0)

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

    @pytest.mark.parametrize("gamma", [0.7, 1.3, 1.5 * PI])
    def test_nd_is_reflected_dn(self, gamma):
        """H_ND(theta, theta0) = H_DN(gamma - theta, gamma - theta0): the
        cosine modes of a Neumann edge at 0 are the reflected sine modes of
        a Dirichlet edge at 0, normalisation included."""
        rng = np.random.default_rng(11)
        t = np.geomspace(1e-3, 4.0, 9)[:, None]
        r, r0 = rng.uniform(0.2, 1.5, (2, 12))
        th, th0 = rng.uniform(0.0, gamma, (2, 12))
        nd = sm.sector_heat_kernel(sm.SectorSpec(gamma, sm.NEUMANN, sm.DIRICHLET),
                                   t, r, th, r0, th0)
        dn = sm.sector_heat_kernel(sm.SectorSpec(gamma, sm.DIRICHLET, sm.NEUMANN),
                                   t, r, gamma - th, r0, gamma - th0)
        assert np.all(np.abs(nd - dn) <= 1e-14 / (4.0 * PI * t))

    def test_validation(self):
        spec = sm.SectorSpec(1.0)
        with pytest.raises(DomainError):
            sm.sector_heat_kernel(spec, -0.1, 1.0, 0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            sm.sector_heat_kernel(spec, 0.1, 1.0, 1.5, 1.0, 0.5)
        with pytest.raises(DomainError, match="r0 must be >= 0"):
            sm.sector_heat_kernel(spec, 0.1, 1.0, 0.5, np.array([1.0, -2.0]), 0.5)


def reference_kernel(spec, t, r, theta, r0, theta0, tol=1e-12):
    """One point of the sector kernel, mode by mode with scalar Bessel
    calls, stopped by the kernel's term bound at half its tolerance share."""
    log_pref = -((r - r0) ** 2) / (4.0 * t)
    if log_pref <= -745.0:
        return 0.0
    pref = math.exp(log_pref) / (2.0 * t)
    z = r * r0 / (2.0 * t)
    g = spec.gamma
    trig = math.sin if spec.bc_at_0.kind == "D" else math.cos
    acc = 0.0
    for j in range(1, 20001):
        nu = sm.mode_order(spec.pair, g, j - 1)
        norm = 1.0 / g if nu == 0.0 else 2.0 / g
        acc += bessel_i_scaled(nu, z) * norm * trig(nu * theta) * trig(nu * theta0)
        nxt = sm.mode_order(spec.pair, g, j)
        if z == 0.0:
            break
        log_bound = nxt * math.log(0.5 * z) - math.lgamma(nxt + 1.0)
        if j >= 5 and log_bound < math.log(tol / (8.0 * (2.0 / g) * pref)) - math.log(2.0):
            break
    return pref * acc


BC = {"D": sm.DIRICHLET, "N": sm.NEUMANN}


class TestArrayKernel:
    def test_array_equals_one_point_calls(self):
        spec = sm.SectorSpec(1.3, sm.NEUMANN, sm.DIRICHLET)
        t = np.array([[0.02], [0.3], [1.5]])
        r = np.array([0.0, 0.4, 1.1, 2.0])
        grid = sm.sector_heat_kernel(spec, t, r, 0.7, 1.2, 0.2)
        assert grid.shape == (3, 4)
        for i, j in np.ndindex(grid.shape):
            one = sm.sector_heat_kernel(spec, float(t[i, 0]), float(r[j]), 0.7, 1.2, 0.2)
            assert type(one) is float
            assert grid[i, j] == one
        # more points than one I-block holds, in no particular order
        rng = np.random.default_rng(4)
        n = 3 * sm._KERNEL_ROWS + 5
        pts = (10.0 ** rng.uniform(-2.5, 0.5, n), rng.uniform(0.0, 2.0, n),
               rng.uniform(0.0, 1.3, n), rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 1.3, n))
        many = sm.sector_heat_kernel(spec, *pts)
        assert np.array_equal(many, [sm.sector_heat_kernel(spec, *p) for p in zip(*pts)])

    @pytest.mark.parametrize("pair", ["DD", "NN", "DN", "ND"])
    @pytest.mark.parametrize("gamma", [0.7, PI / 2.0, 1.5 * PI])
    def test_agrees_with_per_point_reference(self, pair, gamma):
        spec = sm.SectorSpec(gamma, BC[pair[0]], BC[pair[1]])
        t = np.array([1e-3, 0.01, 0.1, 0.7, 4.0])
        cases = [
            (t, 0.9, 0.3 * gamma, 1.1, 0.8 * gamma),
            (t, 0.0, 0.5 * gamma, 1.4, 0.1 * gamma),  # r = 0: one mode
            (t, 1.7, gamma, 0.6, 0.0),  # both points on an edge
            (1e-3, 0.1, 0.2 * gamma, 3.0, 0.6 * gamma),  # the Gaussian underflows
        ]
        for args in cases:
            mine = sm.sector_heat_kernel(spec, *args)
            for point, value in zip(np.broadcast(*args), np.atleast_1d(mine)):
                scale = 1.0 / (4.0 * PI * point[0])
                assert abs(value - reference_kernel(spec, *point)) <= 1e-12 * scale
        assert sm.sector_heat_kernel(spec, *cases[3]) == 0.0

    def test_t_array_straddling_the_block_cap(self, monkeypatch):
        # z = r r0 / 2t = 1/2t runs from 833 down to 625, on both sides of
        # x ~ 709, where a scaled series' first term e^{-x} (x/2)^nu /
        # Gamma(nu+1) stops being representable: every I value still comes
        # from one entrywise call for the block, one entry per kept mode
        spec = sm.SectorSpec(PI / 2.0, sm.DIRICHLET, sm.NEUMANN)
        t = np.linspace(0.6e-3, 0.8e-3, 7)
        plain = sm.sector_heat_kernel(spec, t, 1.0, 0.4, 1.0, 1.1)
        counts, sizes = [], []
        real_counts, real_entries = sm._mode_counts, sm._ive_entries
        monkeypatch.setattr(sm, "_mode_counts", lambda *a: counts.append(real_counts(*a))
                            or counts[-1])
        # doubled I values double the kernel exactly, so every one comes from here
        monkeypatch.setattr(sm, "_ive_entries", lambda orders, which, x: sizes.append(x.size)
                            or 2.0 * real_entries(orders, which, x))
        mine = sm.sector_heat_kernel(spec, t, 1.0, 0.4, 1.0, 1.1)
        assert len(counts) == 1 and counts[0].size == t.size
        assert sizes == [int(counts[0].sum())]
        assert np.array_equal(mine, 2.0 * plain)
        for tv, value in zip(t, plain):
            ref = reference_kernel(spec, tv, 1.0, 0.4, 1.0, 1.1)
            assert abs(value - ref) <= 1e-12 / (4.0 * PI * tv)

    def test_overflowing_z_is_refused(self, monkeypatch):
        # z = r r0 / 2t is inf where the Gaussian factor is not negligible:
        # no I value is taken there.  At r = r0 the factor is 1/2t for any t
        monkeypatch.setattr(sm, "_ive_entries", lambda *a: pytest.fail("I evaluated"))
        spec = sm.SectorSpec(PI / 2.0)
        for t, r in [(1e-200, 1e200), (1e-300, 1e5)]:
            with pytest.raises(DomainError, match="overflows"):
                sm.sector_heat_kernel(spec, t, r, 0.4, r, 1.1)
            with pytest.raises(DomainError, match="overflows"):
                sm.sector_heat_kernel(spec, np.array([0.1, t]), np.array([1.0, r]), 0.4,
                                      np.array([1.2, r]), 1.1)
        # where the factor underflows the kernel is 0, however large z is,
        # also where (r - r0)^2 / 4t overflows
        assert sm.sector_heat_kernel(spec, 1e-300, 1e5, 0.4, 1e5 + 1.0, 1.1) == 0.0
        assert sm.sector_heat_kernel(spec, 1e-300, 1e5, 0.4, 2e5, 1.1) == 0.0
        # 1/2t overflows below t ~ 2.8e-309, for D-D and N-N alike
        nn = sm.SectorSpec(PI / 2.0, sm.NEUMANN, sm.NEUMANN)
        for sector in (spec, nn):
            with pytest.raises(DomainError, match="overflows") as info:
                sm.sector_heat_kernel(sector, 1e-310, 0.0, 0.4, 0.0, 1.1)
            assert info.value.field == "t"
        # at t = 3e-309 only the value can: the N-N constant mode weighs 1/gamma
        monkeypatch.undo()
        assert sm.sector_heat_kernel(nn, 3e-309, 0.0, 0.4, 0.0, 1.1) == pytest.approx(
            1.0 / (3e-309 * PI), rel=1e-15)
        with pytest.raises(DomainError, match="overflows") as info:
            sm.sector_heat_kernel(sm.SectorSpec(0.1, sm.NEUMANN, sm.NEUMANN), 3e-309,
                                  0.0, 0.04, 0.0, 0.05)
        assert info.value.field == "t"

    def test_overflowing_half_plane_kernel_is_refused(self):
        # a Gaussian factor that underflows gives 0, even where its exponent
        # overflows; where the value overflows, t is refused
        for bc in (sm.DIRICHLET, sm.NEUMANN, sm.BoundaryCondition.robin(1.5)):
            assert sm.half_plane_kernel(bc, 1e-300, 0.0, 1e5, 0.0, 2e5) == 0.0
            grid = sm.half_plane_kernel(bc, np.array([1e-300, 0.2]), 0.0, 1e5, 0.0, 2e5)
            assert grid[0] == 0.0 and grid[1] == sm.half_plane_kernel(bc, 0.2, 0.0, 1e5, 0.0, 2e5)
            with pytest.raises(DomainError, match="overflows") as info:
                sm.half_plane_kernel(bc, 1e-310, 0.0, 1.0, 0.0, 1.0)
            assert info.value.field == "t"

    def test_series_cutoff_still_raises(self):
        # z = 1e6 needs orders near z/2, far beyond _MAX_TERMS modes
        with pytest.raises(ToleranceError):
            sm.sector_heat_kernel(sm.SectorSpec(PI), 5e-7, 1.0, 1.0, 1.0, 2.0)

    def test_laplace_check_makes_no_scalar_bessel_call(self, monkeypatch):
        # at tol = 1e-7 the smallest time node puts z near 180, below the cap;
        # the kernel's I values are the kept entries of its blocks, no more
        kept, sizes = [], []
        real_counts, real_entries = sm._mode_counts, sm._ive_entries
        monkeypatch.setattr(sm, "_mode_counts", lambda *a: kept.append(real_counts(*a))
                            or kept[-1])
        monkeypatch.setattr(sm, "_ive_entries", lambda orders, which, x: sizes.append(x.size)
                            or real_entries(orders, which, x))
        kernel_calls = []
        real = sm.sector_heat_kernel
        monkeypatch.setattr(sm, "sector_heat_kernel",
                            lambda *a, **k: kernel_calls.append(a[1]) or real(*a, **k))
        spec = sm.SectorSpec(PI / 2.0, sm.DIRICHLET, sm.NEUMANN)
        res = sm.laplace_consistency(spec, 2.0, [((0.8, 0.3), (1.3, 1.1))], tol=1e-7)
        assert res <= 1e-5
        assert sum(sizes) == sum(int(n.sum()) for n in kept) > 0
        # one call per quadrature step: the 8 seed panels (248 nodes) or the
        # two halves of a bisected panel (62 nodes); one for the envelope
        assert all(np.ndim(t) == 0 or np.size(t) in (248, 62) for t in kernel_calls)
        assert sum(np.ndim(t) == 0 for t in kernel_calls) == 1
        assert sum(np.size(t) == 248 for t in kernel_calls) == 2  # body and tail

    @pytest.mark.parametrize("model", ["sector", "halfplane"])
    def test_kernel_grid_is_one_call(self, model, monkeypatch, tmp_path, capsys):
        name = "sector_heat_kernel" if model == "sector" else "half_plane_kernel"
        calls = []
        real = getattr(sm, name)
        monkeypatch.setattr(sm, name, lambda *a: calls.append(a) or real(*a))
        grid = ("t=0.05:0.5:4;r=0.2:1.5:5;theta=0.3:1.2:3;r0=1.0;theta0=0.7" if model == "sector"
                else "t=0.05:0.5:4;x=-1:1:5;y=0:1.5:3;x0=0.2;y0=0.5")
        out = tmp_path / "k.csv"
        assert cli.main(["kernel", "--model", model, "--grid", grid, "--out", str(out)]) == 0
        assert len(calls) == 1
        header, *lines = out.read_text().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines]
        # the rows of a nested loop over the axes, the first axis slowest
        axes = cli._parse_grid(grid)
        points = list(itertools.product(*(axes[n] for n in header.split(",")[:5])))
        assert len(points) == 60
        assert [tuple(row[:5]) for row in rows] == points
        assert rows[7][5] == real(calls[0][0], *points[7])

    def test_half_plane_arrays(self):
        t = np.array([0.05, 0.2, 1.0])
        y = np.array([[0.0], [0.3], [1.2]])
        for bc in (sm.DIRICHLET, sm.NEUMANN, sm.BoundaryCondition.robin(1.5)):
            grid = sm.half_plane_kernel(bc, t, 0.1, y, -0.2, 0.7)
            assert grid.shape == (3, 3)
            for i, j in np.ndindex(grid.shape):
                one = sm.half_plane_kernel(bc, float(t[j]), 0.1, float(y[i, 0]), -0.2, 0.7)
                assert type(one) is float
                assert grid[i, j] == one
        with pytest.raises(DomainError, match="y must be >= 0"):
            sm.half_plane_kernel(sm.NEUMANN, t, 0.0, np.array([0.1, -0.1, 0.2]), 0.0, 0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="x0 must be finite") as info:
                sm.half_plane_kernel(sm.DIRICHLET, t, 0.0, 0.3, np.array([0.1, bad]), 0.5)
            assert info.value.field == "x0"


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

    def test_batched_k_table_matches_the_scalar_route(self, monkeypatch):
        # the nine sector greens jobs of the benchmark's kernels workload
        # (greens --check-laplace --tol 1e-5 calls greens_kl at tol 1e-8),
        # against K_{i mu} taken node by node from one-entry tables (the
        # scalar route)
        def scalar_table(mus, xs):
            pairs = np.array([[sf._k_imag_scaled_impl(float(m), x) for x in xs] for m in mus])
            return pairs[..., 0], pairs[..., 1]

        cases = [(sm.SectorSpec(gamma, BC[pair[0]], BC[pair[1]]), s, gamma)
                 for gamma in (PI / 3.0, PI / 2.0, PI) for pair in ("DD", "NN", "DN")
                 for s in (1.0, 4.0)]
        greens = lambda spec, s, gamma: sm.greens_kl(
            spec, s, 0.9, 0.4 * gamma, 1.4, 0.7 * gamma, tol=1e-8)
        batched = [greens(*case) for case in cases]
        # far from the vertex (r sqrt s = 80, 81) every K factor takes the
        # saddle-point contour, through the turning point mu = x
        far = (sm.SectorSpec(PI / 2.0), 4.0, 40.0, 0.7, 40.5, 0.75)
        far_batched = sm.greens_kl(*far, tol=1e-8)
        monkeypatch.setattr(sm, "_k_imag_scaled_table", scalar_table)
        for case, value in zip(cases, batched):
            assert value == pytest.approx(greens(*case), rel=1e-13, abs=0.0)
        assert far_batched == pytest.approx(sm.greens_kl(*far, tol=1e-8), rel=1e-9, abs=0.0)

    def test_k_table_errors_reach_the_tolerance(self, monkeypatch):
        # the K factors' reported errors, integrated over mu, must stay below
        # tol/2; they never move the value
        spec = sm.SectorSpec(PI / 2.0, sm.DIRICHLET, sm.NEUMANN)
        args = (spec, 2.0, 0.8, 0.3, 1.3, 1.1)
        value = sm.greens_kl(*args, tol=1e-8)
        real = sm._k_imag_scaled_table

        def inflated(rel):
            def table(mus, xs):
                k, e = real(mus, xs)
                return k, e + rel * np.abs(k)
            return table

        monkeypatch.setattr(sm, "_k_imag_scaled_table", inflated(1e-11))
        assert sm.greens_kl(*args, tol=1e-8) == value
        monkeypatch.setattr(sm, "_k_imag_scaled_table", inflated(1e-6))
        with pytest.raises(ToleranceError) as info:
            sm.greens_kl(*args, tol=1e-8)
        assert 5e-9 < info.value.achieved < math.inf

    def test_far_from_the_vertex_matches_the_free_space_kernel(self):
        # at r sqrt s >= 80 the images in the quarter-plane walls are below
        # e^{-80}: G is K_0(sqrt s |z - z0|) / (2 pi) to the quadrature tol
        from heattrace.special_fns import bessel_k_imag

        spec = sm.SectorSpec(PI / 2.0)
        for s, r, phi, r0, phi0 in [(4.0, 40.0, 0.7, 40.5, 0.75), (1.0, 85.0, 0.6, 85.5, 0.62)]:
            d = math.sqrt(r * r + r0 * r0 - 2.0 * r * r0 * math.cos(phi - phi0))
            free = bessel_k_imag(0.0, math.sqrt(s) * d) / (2.0 * PI)
            assert sm.greens_kl(spec, s, r, phi, r0, phi0, tol=1e-8) == pytest.approx(
                free, abs=1e-8)

    def test_diagonal_rejected(self):
        spec = sm.SectorSpec(2.0)
        with pytest.raises(DiagonalPointError):
            sm.greens_kl(spec, 1.0, 1.0, 0.7, 1.0, 0.7)

    def test_weak_envelope_rejected(self):
        spec = sm.SectorSpec(2.0)
        with pytest.raises(WeakEnvelopeError):
            sm.greens_kl(spec, 1.0, 1.0, 0.7, 1.5, 0.7 + 1e-5)

    def test_half_plane_images_check_their_points(self):
        # phi = 4 > pi lies outside the half-plane
        with pytest.raises(DomainError) as info:
            sm.greens_half_plane_images(sm.DIRICHLET, 1.0, 1.0, 4.0, 1.0, 2.0)
        assert info.value.field == "phi"
        for args, field in [((0.0, 1.0, 1.0, 1.0, 2.0), "s"), ((1.0, -1.0, 1.0, 1.0, 2.0), "r"),
                            ((1.0, 1.0, 1.0, math.inf, 2.0), "r0"),
                            ((1.0, 1.0, 1.0, 1.0, -0.1), "phi0")]:
            with pytest.raises(DomainError) as info:
                sm.greens_half_plane_images(sm.NEUMANN, *args)
            assert info.value.field == field
        # a point on the wall at the origin is inside; the diagonal is not
        assert sm.greens_half_plane_images(sm.DIRICHLET, 1.0, 0.0, 0.0, 1.0, 2.0) == 0.0
        with pytest.raises(DiagonalPointError):
            sm.greens_half_plane_images(sm.NEUMANN, 1.0, 1.0, 0.0, 1.0, 0.0)


BRACKET_POINTS = [(0.5, 0.1, 0.4), (1.3, 0.2, 0.9), (1.3, 0.0, 0.0), (2.7, 2.0, 0.3),
                  (4.0, 1.0, 3.5), (5.9, 0.5, 5.0)]


class TestBracketTerms:
    @pytest.mark.parametrize("pair", ["DD", "NN", "DN", "ND"])
    @pytest.mark.parametrize("g, phi, phi0", BRACKET_POINTS)
    def test_value_at_zero_is_the_limit(self, pair, g, phi, phi0):
        """Each factor W(mu) e^{pi mu} is even in mu, so W(0) = e^{pi mu}
        W(mu) + O(mu^2).  The check runs at mu = 1e-6.  A C factor that
        returns half its limit at mu = 0 fails."""
        terms = sm._bracket_terms(pair, g, phi, phi0)
        assert list(terms) == (["A", "B", "C"] if pair in ("DD", "NN") else ["A", "F", "E"])
        mu = 1e-6
        for name, (factor, _) in terms.items():
            at_zero, near = factor(np.array([0.0, mu])) * np.array([1.0, math.exp(PI * mu)])
            # F vanishes at 0 like mu^2
            assert at_zero == pytest.approx(near, rel=1e-9, abs=1e-10), name

    @pytest.mark.parametrize("mu", [1e-12, 1e-10])
    @pytest.mark.parametrize("g, phi, phi0", BRACKET_POINTS)
    def test_c_keeps_its_limit_at_tiny_mu(self, g, phi, phi0, mu):
        """sinh((pi - g) mu) must go through expm1: as a difference of four
        exponentials C's numerator cancels to 1e-16/mu relative, 2e-5 at
        mu = 1e-12."""
        c_factor = sm._bracket_terms("DD", g, phi, phi0)["C"][0]
        assert c_factor(np.array([mu]))[0] == pytest.approx((PI - g) / g, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.4, 1.0, PI / 2.0, 2.5, 3.0])
    def test_e_is_twice_c_at_the_doubled_angle_less_c(self, gamma):
        """The diagonal identity -cosh((pi - g) mu)/cosh(g mu) =
        2 sinh((pi - 2g) mu)/sinh(2g mu) - sinh((pi - g) mu)/sinh(g mu)
        between the DN bracket's E and the DD bracket's C, mu = 0 included;
        term_contributions("E") integrates the left side alone."""
        mu = np.concatenate([[0.0], np.linspace(0.05, 20.0, 80)])
        e_factor = sm._bracket_terms("DN", gamma, 0.0, 0.0)["E"][0]
        c_double = sm._bracket_terms("DD", 2.0 * gamma, 0.0, 0.0)["C"][0]
        c_single = sm._bracket_terms("DD", gamma, 0.0, 0.0)["C"][0]
        np.testing.assert_allclose(2.0 * c_double(mu) - c_single(mu), e_factor(mu),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("pair, name", [("DD", "C"), ("NN", "C"), ("DN", "E"), ("ND", "E")])
    @pytest.mark.parametrize("g, phi, phi0", [(4.7, 0.3, 4.0), (4.7, 2.0, 2.5),
                                              (5.9, 0.5, 5.0), (5.9, 3.0, 3.0)])
    def test_reflex_gap_label_bounds_the_factor(self, pair, name, g, phi, phi0):
        """For g > pi the C and E factors decay like e^{-(2 pi - theta) mu},
        not e^{-(2 g - theta) mu}: the label is 2 min(g, pi) - theta, and
        |factor| e^{gap mu} stays below 2 out to mu = 40 (E's four
        exponentials over 1 + e^{-2 g mu} make 2 its limit at theta = 0)."""
        factor, gap = sm._bracket_terms(pair, g, phi, phi0)[name]
        theta = abs(phi - phi0)
        assert gap == 2.0 * PI - theta
        mu = np.linspace(0.0, 40.0, 401)
        assert np.all(np.abs(factor(mu)) * np.exp(gap * mu) <= 2.0)

    @pytest.mark.parametrize("g", [PI / 3.0, PI / 2.0, PI])
    def test_gap_label_up_to_pi_is_two_g_less_theta(self, g):
        # the labels greens_kl truncates by at the kernels' sector angles
        phi, phi0 = 0.2 * g, 0.7 * g
        theta = abs(phi - phi0)
        assert sm._bracket_terms("DD", g, phi, phi0)["C"][1] == 2.0 * g - theta
        assert sm._bracket_terms("DN", g, phi, phi0)["E"][1] == 2.0 * g - theta


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("call", [
    lambda tol: sm.sector_heat_kernel(sm.SectorSpec(1.0), 0.1, 1.0, 0.5, 1.2, 0.3, tol=tol),
    lambda tol: sm.greens_kl(sm.SectorSpec(1.0), 1.0, 1.0, 0.5, 1.2, 0.3, tol=tol),
    lambda tol: sm.laplace_consistency(sm.NEUMANN, 1.0, [((1.0, 1.0), (2.0, 1.5))], tol=tol),
], ids=["sector_heat_kernel", "greens_kl", "laplace_consistency"])
def test_bad_tol_names_the_field(call, tol):
    with pytest.raises(DomainError) as info:
        call(tol)
    assert info.value.field == "tol"


@pytest.mark.parametrize("build, field", [
    (lambda: sm.laplace_consistency(sm.NEUMANN, 1.0, []), "points"),
    (lambda: sm.model_residual("xx", ([0.5], [0.5])), "model"),
    (lambda: sm.model_residual("td", ([0.5],)), "grid"),
])
def test_errors_name_the_field(build, field):
    with pytest.raises(DomainError) as info:
        build()
    assert info.value.field == field


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
