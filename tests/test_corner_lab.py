import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heattrace import corner_lab as cl
from heattrace import exact_spectra as es
from heattrace import quad_fp
from heattrace import special_fns as sf
from heattrace import trace_coeffs as tc
from heattrace.errors import DomainError, UnsupportedBCError
from heattrace.sector_models import DIRICHLET, SectorSpec, mode_order

PI = math.pi


def closed_same(alpha):
    return (PI**2 - alpha**2) / (24.0 * PI * alpha)


def closed_mixed(alpha):
    return -(PI**2 + 2.0 * alpha**2) / (48.0 * PI * alpha)


class TestClosedForms:
    def test_phantom_vertex(self):
        assert cl.corner_coeff(cl.CornerKind("DD", PI)) == 0.0

    def test_mixed_at_pi(self):
        # the boundary-condition jump on a smooth boundary: -1/16 per jump
        assert cl.corner_coeff(cl.CornerKind("DN", PI)) == pytest.approx(-1.0 / 16.0)

    def test_right_angle(self):
        assert cl.corner_coeff(cl.CornerKind("DD", PI / 2.0)) == pytest.approx(1.0 / 16.0)

    def test_robin_pairs_use_neumann_class(self):
        for pair in ("RR", "NR", "RN"):
            assert cl.corner_coeff(cl.CornerKind(pair, 0.8)) == pytest.approx(closed_same(0.8))
        for pair in ("DR", "RD", "ND", "DN"):
            assert cl.corner_coeff(cl.CornerKind(pair, 0.8)) == pytest.approx(closed_mixed(0.8))

    def test_sign_pattern(self):
        for alpha in np.linspace(0.2, 2.0 * PI - 0.2, 23):
            same = cl.corner_coeff(cl.CornerKind("NN", alpha))
            mixed = cl.corner_coeff(cl.CornerKind("DN", alpha))
            if alpha < PI:
                assert same > 0.0
            elif alpha > PI:
                assert same < 0.0
            assert mixed < 0.0
        assert cl.corner_coeff(cl.CornerKind("NN", PI)) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            cl.CornerKind("DD", 0.0)
        with pytest.raises(DomainError):
            cl.CornerKind("DD", 2.0 * PI)
        with pytest.raises(DomainError):
            cl.CornerKind("XX", 1.0)


@pytest.mark.parametrize("build, field", [
    (lambda: cl.CornerKind("XX", 1.0), "pair"),
    (lambda: cl.CornerKind("DD", 0.0), "alpha"),
    (lambda: cl.CornerKind("DN", 2.0 * PI), "alpha"),
    (lambda: cl.corner_finite_part("DD", math.nan), "alpha"),
    (lambda: cl.term_contributions("Z", 1.0), "term"),
    (lambda: cl.term_contributions("C", 7.0), "gamma"),
    (lambda: cl.cone_point_coeff(0.0), "opening"),
    (lambda: cl.cone_point_coeff(math.inf), "opening"),
    *(pytest.param(build, field, id=f"{name}-{a:.4f}") for a in (math.nan, 2.0 * PI)
      for name, build, field in [
          ("SectorSpec", lambda a=a: SectorSpec(a), "gamma"),
          ("sector_disk_spectrum", lambda a=a: es.sector_disk_spectrum(a, 1.0, "DD"), "gamma"),
          ("BoundaryLoop", lambda a=a: tc.BoundaryLoop(
              edges=(tc.EdgeSpec(1.0, DIRICHLET),) * 2, angles=(1.0, a)), "angles[1]"),
      ]),
])
def test_angle_errors_name_the_field(build, field):
    with pytest.raises(DomainError) as info:
        build()
    assert info.value.field == field


def test_untruncated_mode_ladder_names_the_angle():
    # at z = 1e7 the first 100,001 half-integer orders all stay above the mode tolerance
    with pytest.raises(DomainError) as info:
        cl._corner_orders("DD", 2.0 * PI, 1e7)
    assert info.value.field == "alpha"


class TestConePoints:
    def test_smooth_opening(self):
        assert cl.cone_point_coeff(2.0 * PI) == 0.0

    def test_half_opening(self):
        assert cl.cone_point_coeff(PI) == pytest.approx(1.0 / 8.0)

    def test_formula(self):
        opening = PI / 2.0
        alpha = opening / 2.0
        assert cl.cone_point_coeff(opening) == pytest.approx(
            (PI**2 - alpha**2) / (12.0 * PI * alpha)
        )
        with pytest.raises(DomainError):
            cl.cone_point_coeff(0.0)


class TestFinitePartRoute:
    def test_dd_right_angle(self):
        fp = cl.corner_coeff_numeric("DD", PI / 2.0)
        assert fp == pytest.approx(1.0 / 16.0, abs=1e-4)

    def test_nn_equals_dd(self):
        # the zero-mode difference integrates to zero finite part
        for alpha in (PI / 3.0, 2.2):
            dd = cl.corner_coeff_numeric("DD", alpha)
            nn = cl.corner_coeff_numeric("NN", alpha)
            assert abs(nn - dd) <= 1e-5

    def test_dn_split_identity(self):
        for alpha in (PI / 3.0, PI / 2.0):
            dn = cl.corner_coeff_numeric("DN", alpha)
            dd_double = cl.corner_coeff_numeric("DD", 2.0 * alpha)
            dd_single = cl.corner_coeff_numeric("DD", alpha)
            assert abs(dn - dd_double + dd_single) <= 1e-5

    def test_numeric_coefficient_is_the_finite_part(self):
        # one truncation of the mode ladder for both numerical routes
        assert cl.corner_coeff_numeric("DD", PI / 2.0) == cl.corner_finite_part(
            "DD", PI / 2.0
        ).finite_part

    def test_i0_finite_part_vanishes(self):
        result = cl.i0_radial_finite_part()
        assert abs(result.finite_part) <= 1e-6
        assert result.condition_number >= 1.0

    def test_i0_cutoff_integral_is_half_the_primitive(self):
        # the identity the I_0 route and term B rest on: with u = R^2/2,
        # int_0^L (1/2) R e^{-R^2/2} I_0(R^2/2) dR = g(L^2/2)/2, against
        # adaptive quadrature segment by segment up to I_0's argument 1,528
        i0 = np.vectorize(lambda z: sf.bessel_i_scaled(0.0, z), otypes=[float])
        eps = quad_fp.default_eps_schedule(eps_max=0.15, ratio=0.85, count=14)
        total = prev = 0.0
        for lam in 1.0 / np.asarray(eps):
            total += quad_fp.integrate(
                lambda r: 0.5 * r * i0(0.5 * r * r), prev, lam, tol=1e-12
            ).value
            prev = lam
            assert 0.5 * cl._primitive_g(0.5 * lam * lam) == pytest.approx(total, rel=1e-14)

    def test_i0_route_is_two_bessel_values_per_cutoff(self, monkeypatch):
        # one I block of orders 0 and 1 at the 14 cutoffs, and no quadrature
        calls = []
        block = cl.bessel_i_scaled_many
        monkeypatch.setattr(cl, "bessel_i_scaled_many",
                            lambda nus, x: calls.append((list(nus), np.shape(x))) or block(nus, x))
        monkeypatch.setattr(quad_fp, "integrate", None)
        cl.i0_radial_finite_part()
        assert calls == [([0.0, 1.0], (14,))]

    def test_robin_pairs_rejected(self):
        with pytest.raises(UnsupportedBCError):
            cl.corner_finite_part("RR", 1.0)

    def test_full_result_structure(self):
        result = cl.corner_finite_part("DD", PI)
        assert result.finite_part == pytest.approx(0.0, abs=1e-4)
        assert -2 in result.divergent_coeffs
        assert len(result.epsilons_used) == 14

    @staticmethod
    def _count_i_calls(monkeypatch):
        calls = []
        many = cl.bessel_i_scaled_many

        def counted(*args, **kwargs):
            calls.append((args[0], args[1]))  # (orders, arguments)
            return many(*args, **kwargs)

        monkeypatch.setattr(cl, "bessel_i_scaled_many", counted)
        return calls

    def test_one_i_block_per_cutoff_segment(self, monkeypatch):
        # one (nodes x orders) block per segment of the cutoff ladder, not
        # one call per Gauss node (510 calls for the default schedule)
        calls = self._count_i_calls(monkeypatch)
        eps = quad_fp.default_eps_schedule(eps_max=0.25, ratio=0.8, count=9)
        result = cl.corner_finite_part("DN", PI / 2.0, eps_schedule=eps)
        assert 0 < len(calls) <= len(eps)
        assert result.finite_part == pytest.approx(closed_mixed(PI / 2.0), abs=1e-3)

    def test_each_segment_sums_only_the_orders_it_needs(self, monkeypatch):
        # the whole 461-order ladder in each of the 14 segments would be
        # 235,110 block entries over the 510 rows; the trimmed segments
        # need 84,300
        calls = self._count_i_calls(monkeypatch)
        cl.corner_finite_part("DD", 1.5 * PI)
        assert len(calls) == 14
        assert sum(z.size for _, z in calls) <= 600
        assert sum(orders.size * z.size for orders, z in calls) <= 100_000

    @pytest.mark.parametrize("pair, alpha", [("NN", 1.05), ("DN", 1.6), ("DD", 1.5 * PI)])
    def test_first_order_left_out_is_below_the_tolerance(self, pair, alpha, monkeypatch):
        calls = self._count_i_calls(monkeypatch)
        cl.corner_finite_part(pair, alpha)
        assert len(calls) == 14
        for orders, z in calls:
            nu = mode_order(pair, alpha, orders.size)
            assert max(sf.bessel_i_scaled(nu, float(x)) for x in z) <= 1e-16

    @pytest.mark.parametrize("pair, alpha", [("NN", 1.05), ("DN", 1.6), ("DD", 1.5 * PI)])
    def test_each_segment_keeps_what_the_full_scan_keeps(self, pair, alpha, monkeypatch):
        """The segment's prefix, found from its largest node for orders >= 1
        and from every node below 1, is the prefix that checking every node
        against every order of the ladder gives."""
        calls = self._count_i_calls(monkeypatch)
        cl.corner_finite_part(pair, alpha)
        ladder = cl._corner_orders(pair, alpha, 0.5 / min(cl.CORNER_EPS_SCHEDULE) ** 2)
        assert len(calls) == 14
        for orders, z in calls:
            scan = cl._log_mode_bound(ladder, z[:, None]) >= math.log(cl._MODE_TOL)
            needed = np.flatnonzero(scan.any(axis=0))
            assert orders.size == (int(needed[-1]) + 1 if needed.size else 1)
            assert np.array_equal(orders, ladder[:orders.size])

    @pytest.mark.parametrize("nu0", [0.25, 0.5, 2.0 / 3.0, 0.98])
    def test_radial_quadrature_meets_the_recurrence(self, nu0):
        """DLMF 10.29.1, I_{nu-1} + I_{nu+1} = 2 I'_nu, integrates to an exact
        identity for G_nu(X) = int_0^X e^{-u} I_nu(u) du = 2 F(L), X = L^2/2:

            G_{nu0}(X) + G_{nu0+2}(X) - 2 G_{nu0+1}(X) = 2 e^{-X} I_{nu0+1}(X).

        Orders below 1 vanish like R^{2 nu + 1} at the vertex; panels of
        uniform length missed it by up to 1.4e-9 at nu0 = 1/4."""
        cutoffs = 1.0 / np.asarray(cl.CORNER_EPS_SCHEDULE)
        g = [2.0 * cl._cumulative_mode_integral(np.array([nu0 + k]), cutoffs) for k in range(3)]
        exact = [2.0 * sf.bessel_i_scaled(nu0 + 1.0, 0.5 * lam * lam) for lam in cutoffs]
        assert np.abs(g[0] + g[2] - 2.0 * g[1] - exact).max() <= 2e-13

    @pytest.mark.parametrize("cutoffs", [
        pytest.param(1.0 / np.asarray(cl.CORNER_EPS_SCHEDULE), id="default"),
        pytest.param(np.array([0.3, 0.7, 0.95, 1.4, 2.5, 6.0, 20.0]), id="first-below-1"),
    ])
    def test_order_zero_matches_the_primitive(self, cutoffs):
        # with a first cutoff below 1 the graded vertex panels stop at it
        values = cl._cumulative_mode_integral(np.array([0.0]), cutoffs)
        exact = [0.5 * cl._primitive_g(0.5 * lam * lam) for lam in cutoffs]
        assert values == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_narrow_corner_below_the_old_i_cap_reaches_its_closed_form(self):
        # at alpha = 0.3 the default schedule is off by 0.066: the image term
        # e^{-2 z sin^2 alpha} needs z >~ 23 / (2 sin^2 alpha) = 132.  14
        # geometric eps from 0.0615 down to 0.0117 put I_nu at up to
        # z = 3,652, and reach 1e-10
        ratio = (0.0117 / 0.0615) ** (1.0 / 13.0)
        eps = quad_fp.default_eps_schedule(eps_max=0.0615, ratio=ratio, count=14)
        assert 0.5 / eps[-1] ** 2 > 3600.0
        for pair in ("DD", "DN", "NN"):
            result = cl.corner_finite_part(pair, 0.3, eps_schedule=eps)
            assert abs(result.finite_part - cl.corner_coeff(cl.CornerKind(pair, 0.3))) <= 1e-9

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_bad_schedule_fails_before_the_integral(self, bad, monkeypatch):
        monkeypatch.setattr(cl, "_cumulative_mode_integral",
                            lambda *a: pytest.fail("the mode-sum integral ran"))
        eps = list(cl.CORNER_EPS_SCHEDULE)
        eps[0 if bad == math.inf else -1] = bad
        with pytest.raises(DomainError, match="strictly decreasing") as info:
            cl.corner_finite_part("DD", 1.6, eps_schedule=eps)
        assert info.value.field == "eps_schedule"
        with pytest.raises(DomainError, match="cutoffs") as info:
            cl.corner_finite_part("DD", 1.6, eps_schedule=cl.CORNER_EPS_SCHEDULE[:3])
        assert info.value.field == "eps_schedule"

    def test_eps_just_above_the_i_argument_limit_is_accepted(self):
        ratio = (0.0268 / 0.25) ** (1.0 / 13.0)
        eps = quad_fp.default_eps_schedule(eps_max=0.25, ratio=ratio, count=14)
        assert 1.0 / math.sqrt(1400.0) < eps[-1] < 0.02681
        result = cl.corner_finite_part("NN", 1.05, eps_schedule=eps)
        assert result.finite_part == pytest.approx(closed_same(1.05), abs=1e-4)


class TestModeBound:
    @given(nu=st.floats(min_value=0.0, max_value=1200.0),
           z=st.floats(min_value=1e-6, max_value=700.0))
    @settings(max_examples=60, deadline=None)
    def test_bound_dominates_extended_precision(self, nu, z):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = mp.besseli(nu, z) * mp.exp(-z)
            if ref < 1e-300:
                # there the bound is tight, and the rounding of its
                # logarithm's large terms exceeds the slack
                return
            log_ref = float(mp.log(ref))
        # 1e-12 relative slack
        assert float(cl._log_mode_bound(nu, z)) >= log_ref - 1e-12

    def test_bound_decreases_along_the_ladder(self):
        nu = np.linspace(0.0, 3000.0, 6001)
        z = np.geomspace(1e-8, 700.0, 80)[:, None]
        assert (np.diff(cl._log_mode_bound(nu, z), axis=1) < 0.0).all()

    @pytest.mark.parametrize("pair, alpha", [("NN", 1.05), ("DN", 1.6), ("DD", 1.5 * PI),
                                             ("DN", 1.9 * PI), ("NN", 0.3)])
    def test_ladder_matches_the_order_by_order_scan(self, pair, alpha):
        z_max = 0.5 / min(cl.CORNER_EPS_SCHEDULE) ** 2
        scan = []
        nu = mode_order(pair, alpha, 0)
        while cl._log_mode_bound(nu, z_max) >= math.log(cl._MODE_TOL):
            scan.append(nu)
            nu = mode_order(pair, alpha, len(scan))
        assert np.array_equal(cl._corner_orders(pair, alpha, z_max), scan)

    def test_ladder_that_does_not_truncate_fails(self):
        # an opening far beyond 2 pi puts the first 100,001 orders below 0.04,
        # and every one of them reaches the tolerance
        with pytest.raises(DomainError, match="did not truncate"):
            cl._corner_orders("NN", 1e7, 700.0)

    def test_global_ladder_ends_at_the_first_order_below_the_tolerance(self):
        z_max = 0.5 / min(cl.CORNER_EPS_SCHEDULE) ** 2
        orders = cl._corner_orders("DD", 1.5 * PI, z_max)
        log_tol = math.log(cl._MODE_TOL)
        assert cl._log_mode_bound(orders[-1], z_max) >= log_tol
        assert cl._log_mode_bound(mode_order("DD", 1.5 * PI, orders.size), z_max) < log_tol


def term_tol(closed):
    # the bound on C and E: 1e-14 relative, absolute 1e-16 near gamma = pi
    return 1e-14 * max(abs(closed), 0.01)


def assert_c_and_e_closed(gamma):
    for term, closed in (("C", closed_same(gamma)), ("E", closed_mixed(gamma))):
        assert abs(cl.term_contributions(term, gamma) - closed) <= term_tol(closed), (term, gamma)


class TestTermContributions:
    def test_c_term(self):
        val = cl.term_contributions("C", PI / 2.0)
        assert val == pytest.approx(1.0 / 16.0, abs=1e-3)

    def test_e_term(self):
        val = cl.term_contributions("E", PI / 2.0)
        assert val == pytest.approx(-1.0 / 16.0, abs=1e-3)

    @pytest.mark.parametrize("gamma", [1.05, PI / 2.0, 2.5, 3.5])
    def test_c_and_e_reach_their_closed_forms(self, gamma):
        assert_c_and_e_closed(gamma)

    @pytest.mark.parametrize("gamma", [4.7, 5.9])
    def test_reflex_c_and_e_reach_their_closed_forms(self, gamma):
        # with 8 mu panels once the gap is 2 pi, E was off by 4.2e-9 at 4.7
        # and 3.7e-8 at 5.9; panels sized by e^{-2 gamma mu} fixed that
        assert_c_and_e_closed(gamma)

    def test_c_and_e_over_a_sweep_of_angles(self):
        for gamma in np.linspace(0.15, 2.0 * PI - 0.01, 400):
            assert_c_and_e_closed(gamma)

    @given(gamma=st.floats(min_value=0.15, max_value=2.0 * PI, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_c_and_e_at_any_angle(self, gamma):
        assert_c_and_e_closed(gamma)

    def test_c_vanishes_at_the_straight_angle(self):
        assert abs(cl.term_contributions("C", PI)) <= 1e-15

    @pytest.mark.parametrize("term", ["C", "E"])
    @pytest.mark.parametrize("gamma, panels", [(1.4, 14), (1.5, 13), (1.6, 12), (4.7, 15),
                                               (5.9, 18)])
    def test_mu_panels(self, term, gamma, panels, monkeypatch):
        """The K-table route integrated over `panels` ten-node mu panels,
        max(8, ceil(mu_0), ceil(gamma mu_0 / 2)) on [0, mu_0],
        mu_0 = (log 1e12 + 10) / gap.  The closed-form route runs the tail 10
        e-folds further, to mu_max = (log 1e12 + 20) / gap, on
        2 max(8, ceil(mu_max), ceil(gamma mu_max / 2)) panels: two per unit
        of mu up to gamma = 1.88, two per 4 e-folds of e^{-2 gamma mu} beyond,
        and at least twice as many as before."""
        grids = []
        nodes = quad_fp.panel_nodes
        monkeypatch.setattr(quad_fp, "panel_nodes",
                            lambda a, b, n: grids.append((a, b, n)) or nodes(a, b, n))
        cl.term_contributions(term, gamma)
        mu_max = (math.log(1e12) + 20.0) / (2.0 * min(gamma, PI))
        count = {1.4: 36, 1.5: 32, 1.6: 30, 4.7: 36, 5.9: 46}[gamma]
        assert grids == [(0.0, pytest.approx(mu_max, rel=1e-15), count)]
        assert count >= 2 * panels

    def test_e_is_one_dn_bracket(self, monkeypatch):
        # one mu integral of the DN bracket, not 2 C(2 gamma) - C(gamma)
        calls = []
        brackets = cl._bracket_terms
        monkeypatch.setattr(cl, "_bracket_terms",
                            lambda pair, *args: calls.append(pair) or brackets(pair, *args))
        cl.term_contributions("E", 1.5)
        assert calls == ["DN"]

    def test_f_term_no_contribution(self):
        for gamma in (PI / 2.0, 1.1):
            assert abs(cl.term_contributions("F", gamma)) <= 1e-3

    def test_a_and_b_terms_no_t0_part(self):
        assert abs(cl.term_contributions("A", PI / 2.0)) <= 1e-6
        assert abs(cl.term_contributions("B", PI / 2.0)) <= 1e-3

    def test_c_term_other_angles(self):
        for gamma in (PI / 3.0, 2.0 * PI / 3.0):
            val = cl.term_contributions("C", gamma)
            assert val == pytest.approx(closed_same(gamma), abs=1e-3)

    def test_c_term_narrow_angle(self):
        # a long mu tail: gap 1, mu_max = 47.6 on 96 panels
        c = closed_same(0.5)
        assert abs(cl.term_contributions("C", 0.5) - c) <= term_tol(c)

    def test_validation(self):
        with pytest.raises(DomainError):
            cl.term_contributions("Z", 1.0)
        with pytest.raises(DomainError):
            cl.term_contributions("C", 7.0)


def scaled_radial_integral(mu):
    """e^{pi mu} int_0^inf u K_{i mu}(u)^2 du in closed form."""
    return PI * mu / -math.expm1(-2.0 * PI * mu)


def mp_scaled_radial_integral(mp, mu, cuts):
    """e^{pi mu} int u K_{i mu}(u)^2 du over the panels between `cuts` by
    mpmath's adaptive quadrature, at a working precision that covers the
    e^{-pi mu/2} cancellation in its K_{i mu}."""
    with mp.workdps(20 + int(1.4 * mu)):
        m = mp.mpf(mu)
        cuts = [mp.mpf(c) for c in cuts]
        return float(mp.quad(lambda u: u * mp.besselk(1j * m, u).real ** 2, cuts)
                     * mp.exp(mp.pi * m))


def k_table_grid(gamma):
    """The mu x u grid (mus, us, u weights) on which the C term's K-table
    route tabulated e^{pi mu/2} K_{i mu}(u): ten-node mu panels,
    max(8, ceil(mu_max), ceil(gamma mu_max / 2)) of them on [0, mu_max],
    mu_max = (log 1e12 + 10) / gap, and ten-node panels in v = log u from
    log 1e-6 through the seven log tau, tau = 8 / sqrt(t) for t geometric on
    [0.01/3, 0.03], max(4, 3 mu_max) / pi of them per unit of v (at least 2
    per segment)."""
    gap = 2.0 * min(gamma, PI)
    mu_max = (math.log(1e12) + 10.0) / gap
    n_pan = max(8, math.ceil(mu_max), math.ceil(0.5 * gamma * mu_max))
    mus, _ = quad_fp.panel_nodes(0.0, mu_max, n_pan)
    ts = np.exp(np.linspace(math.log(0.01 / 3.0), math.log(0.03), 7))
    edges = [math.log(1e-6)] + [math.log(tau) for tau in np.sort(8.0 / np.sqrt(ts))]
    per_unit = max(4.0, 3.0 * mus.max()) / PI
    vs, ws = zip(*(quad_fp.panel_nodes(a, b, max(2, math.ceil((b - a) * per_unit)))
                   for a, b in zip(edges[:-1], edges[1:])))
    us = np.exp(np.concatenate(vs))
    return mus, us, np.concatenate(ws) * us


class TestRadialIdentity:
    @pytest.mark.parametrize("mu", [0.01, 0.5, 3.0, 11.7])
    def test_closed_form_against_extended_precision(self, mu):
        """int_0^inf u K_{i mu}(u)^2 du = pi mu / (2 sinh(pi mu))
        (Gradshteyn-Ryzhik 6.576.4), which term_contributions uses for C and
        E, against adaptive quadrature of mpmath's K_{i mu}."""
        mp = pytest.importorskip("mpmath")
        cuts = [0, mu / 4, mu, mu + 10, math.inf] if mu > 1.0 else [0, 1, 10, math.inf]
        ref = mp_scaled_radial_integral(mp, mu, cuts)
        assert scaled_radial_integral(mu) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("mu", [0.01, 0.5, 3.0, 11.7])
    def test_closed_form_against_the_k_table(self, mu):
        """The K table integrated on the C term's old log-u grid for
        gamma = 1.5, plus the piece below its first edge u = 1e-6 (mpmath),
        reaches the closed form within the table's propagated error estimate
        sum w u 2 |K| err.  Past tau >= 138 the tail is below 1e-100.

        The series cells' estimate covers the rounding of their phase
        mu log(u/2) - arg Gamma(1 + i mu), which turns the whole sum: at
        mu = 0.5 and 11.7 the table is off by 1.4e-14 and 5.7e-13, against
        bars of 5.0e-13 and 1.0e-11 (the terms' rounding alone gave 8.4e-15
        and 1.6e-13); the grid with exact K values is within 2e-15."""
        mp = pytest.importorskip("mpmath")
        _, us, wts = k_table_grid(1.5)
        value, err = sf._k_imag_scaled_table([mu], us)
        grid = float(np.sum(value[0] ** 2 * us * wts))
        bar = float(np.sum(2.0 * np.abs(value[0]) * err[0] * us * wts))
        head = mp_scaled_radial_integral(mp, mu, [0, 1e-6])
        assert abs(grid + head - scaled_radial_integral(mu)) <= bar


class TestKTable:
    @pytest.mark.parametrize("gamma, size", [(1.5, (130, 2300)), (0.5, (380, 6760))])
    def test_grid_is_the_term_route_grid(self, gamma, size):
        # the K-table checks run on the grids term_contributions("C", gamma)
        # tabulated before C and E took the closed radial integral: the same
        # sizes, node sums and ends
        mus, us, wts = k_table_grid(gamma)
        assert (mus.size, us.size) == size
        expect = {1.5: (815.3387908451186, 20685.18947563508, 12.531084936381847),
                  0.5: (7149.894012026424, 51908.768618668866, 37.618101063608044)}[gamma]
        assert (mus.sum(), us.sum(), mus.max()) == pytest.approx(expect, rel=1e-14)
        assert 1e-6 < us[0] and us[-1] < 8.0 / math.sqrt(0.01 / 3.0)  # (1e-6, tau_max)
        assert np.all(np.diff(us) > 0.0) and np.all(wts > 0.0)

    @pytest.mark.parametrize("gamma, row_step, col_step", [(1.5, 2, 7), (0.5, 6, 41)])
    def test_matches_scalar_route(self, gamma, row_step, col_step):
        """The batched table against one-entry tables (_k_imag_scaled_impl,
        the scalar route) on a subsample of the grid the C term's K-table
        route tabulated at gamma: to 1e-9 relative where the one-entry
        estimate is below 1e-12 relative, elsewhere within twice that
        estimate.  Every entry is computed from its own (mu, u), so the
        table is built on the subsample's rows and columns: the full
        gamma = 0.5 grid holds 1.6 million contour entries."""
        mus, us, _ = k_table_grid(gamma)
        mus, us = mus[::row_step], us[::col_step]
        out = sf._k_imag_scaled_table(mus, us)[0]
        tight = 0
        for i in range(mus.size):
            for j in range(us.size):
                value, err = sf._k_imag_scaled_impl(float(mus[i]), float(us[j]))
                if err < 1e-12 * abs(value):
                    tight += 1
                    assert out[i, j] == pytest.approx(value, rel=1e-9), (mus[i], us[j])
                else:
                    assert abs(out[i, j] - value) <= 2.0 * err + 1e-9 * abs(value), (mus[i], us[j])
        assert tight > 5000

    def test_one_cell_per_column_block_against_extended_precision(self):
        """In each block of 256 columns of the gamma = 1.5 C grid, the
        contour cell at the largest mu and, in its row, the smallest u of
        the block is within twice the table's error estimate of mpmath, plus
        2e-15 of the value.  The series serves mu >= 0.5 at u <= 4, so the
        first seven blocks' cells have mu = 0.41 and the last two 12.5."""
        mp = pytest.importorskip("mpmath")
        mus, us, _ = k_table_grid(1.5)
        assert us.size == 2300
        contour = ~((mus[:, None] >= 0.5) & (us[None, :] <= 4.0))
        with mp.workdps(30):
            for start in range(0, us.size, 256):
                block = contour[:, start:start + 256]
                i = int(np.flatnonzero(block.any(axis=1))[-1])
                j = start + int(np.argmax(block[i]))
                value, err = sf._k_imag_scaled_impl(float(mus[i]), float(us[j]))
                ref = float((mp.besselk(1j * mp.mpf(mus[i]), mp.mpf(us[j]))
                             * mp.exp(mp.pi * mus[i] / 2)).real)
                assert abs(value - ref) <= 2.0 * err + 2e-15 * abs(ref), (mus[i], us[j])

    @pytest.mark.parametrize("u", [2.6e-6, 7.1e-5])
    def test_integral_error_bar_covers_the_sum_rounding(self, u):
        """At mu = 0.0126 and small u the value, about -log(u/2), is a long
        sum of terms of size one, whose rounding an error estimate must
        cover (a cosine-integral route once left it out and was 4x and 3.7x
        too small at these cells of the gamma = 1.5 C grid).  The contour's
        estimate covers it and still says something (below 1e3 times the
        error)."""
        mp = pytest.importorskip("mpmath")
        mus, us, _ = k_table_grid(1.5)
        j = int(np.argmin(np.abs(np.log(us / u))))
        assert mus[0] == pytest.approx(0.0126, abs=1e-4)
        value, err = sf._k_imag_scaled_impl(float(mus[0]), float(us[j]))
        with mp.workdps(30):
            # the error against the extended-precision value itself: at
            # u = 7.1e-5 the contour returns that value correctly rounded
            off = float(abs(mp.mpf(value) - (mp.besselk(1j * mp.mpf(mus[0]), mp.mpf(us[j]))
                                              * mp.exp(mp.pi * mus[0] / 2)).real))
        assert off <= err <= 1e3 * off
