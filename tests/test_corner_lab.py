import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heattrace import corner_lab as cl
from heattrace import quad_fp
from heattrace import special_fns as sf
from heattrace.errors import DomainError, UnsupportedBCError
from heattrace.sector_models import mode_order

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
        # one call per Gauss node (1,848 calls for the default schedule)
        calls = self._count_i_calls(monkeypatch)
        eps = quad_fp.default_eps_schedule(eps_max=0.25, ratio=0.8, count=9)
        result = cl.corner_finite_part("DN", PI / 2.0, eps_schedule=eps)
        assert 0 < len(calls) <= len(eps)
        assert result.finite_part == pytest.approx(closed_mixed(PI / 2.0), abs=1e-3)

    def test_each_segment_sums_only_the_orders_it_needs(self, monkeypatch):
        # the whole 1,163-order ladder in each of the 14 segments would be
        # 2,149,224 block entries over the 1,848 rows; the trimmed segments
        # need 383,607
        calls = self._count_i_calls(monkeypatch)
        cl.corner_finite_part("DD", 1.5 * PI)
        assert len(calls) == 14
        assert sum(orders.size * z.size for orders, z in calls) <= 540_000

    @pytest.mark.parametrize("pair, alpha", [("NN", 1.05), ("DN", 1.6), ("DD", 1.5 * PI)])
    def test_first_order_left_out_is_below_the_tolerance(self, pair, alpha, monkeypatch):
        calls = self._count_i_calls(monkeypatch)
        cl.corner_finite_part(pair, alpha)
        assert len(calls) == 14
        for orders, z in calls:
            nu = mode_order(pair, alpha, orders.size)
            assert max(sf.bessel_i_scaled(nu, float(x)) for x in z) <= 1e-16

    def test_eps_below_the_i_argument_limit_fails_up_front(self, monkeypatch):
        # the last cutoff 1/eps puts I_nu at 1/(2 eps^2) = 1048 > 700
        calls = self._count_i_calls(monkeypatch)
        eps = quad_fp.default_eps_schedule(eps_max=0.25, ratio=0.85, count=16)
        with pytest.raises(DomainError, match=r"eps_schedule.*1/sqrt\(1400\)"):
            cl.corner_finite_part("NN", 1.05, eps_schedule=eps)
        assert calls == []

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

    def test_global_ladder_ends_at_the_first_order_below_the_tolerance(self):
        z_max = 0.5 / min(cl.CORNER_EPS_SCHEDULE) ** 2
        orders = cl._corner_orders("DD", 1.5 * PI, z_max)
        log_tol = math.log(cl._MODE_TOL)
        assert cl._log_mode_bound(orders[-1], z_max) >= log_tol
        assert cl._log_mode_bound(mode_order("DD", 1.5 * PI, orders.size), z_max) < log_tol


class TestTermContributions:
    def test_c_term(self):
        val = cl.term_contributions("C", PI / 2.0)
        assert val == pytest.approx(1.0 / 16.0, abs=1e-3)

    def test_e_term(self):
        val = cl.term_contributions("E", PI / 2.0)
        assert val == pytest.approx(-1.0 / 16.0, abs=1e-3)

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
        # large mu rows: where the series cancels but the integral's rounding
        # floor is higher still, the K table keeps the series
        val = cl.term_contributions("C", 0.5)
        assert val == pytest.approx(closed_same(0.5), rel=1e-8)

    def test_validation(self):
        with pytest.raises(DomainError):
            cl.term_contributions("Z", 1.0)
        with pytest.raises(DomainError):
            cl.term_contributions("C", 7.0)


class TestKTable:
    @pytest.mark.parametrize("gamma, row_step, col_step", [(1.5, 2, 7), (0.5, 6, 41)])
    def test_matches_scalar_route(self, gamma, row_step, col_step, monkeypatch):
        """The batched table against _k_imag_scaled_impl on a subsample of the
        grid term_contributions("C", gamma) tabulates: to 1e-9 relative where
        the scalar estimate is below 1e-12 relative, elsewhere within twice
        that estimate.  On the gamma = 1.5 grid a table that trusts the
        series up to u = pi mu/2 + 16 is 1-3 % low at mu ~ 11, u ~ 29."""
        grids = []
        table = cl._k_imag_scaled_table

        def capture(mus, us):
            out = table(mus, us)
            grids.append((mus, us, out))
            return out

        monkeypatch.setattr(cl, "_k_imag_scaled_table", capture)
        cl.term_contributions("C", gamma)
        mus, us, out = grids[0]
        assert np.all(np.diff(us) > 0.0)
        tight = 0
        for i in range(0, mus.size, row_step):
            for j in range(0, us.size, col_step):
                value, err = sf._k_imag_scaled_impl(float(mus[i]), float(us[j]))
                if err < 1e-12 * abs(value):
                    tight += 1
                    assert out[i, j] == pytest.approx(value, rel=1e-9), (mus[i], us[j])
                else:
                    assert abs(out[i, j] - value) <= 2.0 * err + 1e-9 * abs(value), (mus[i], us[j])
        assert tight > 5000
