import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heattrace import special_fns as sf
from heattrace.errors import ConvergenceError, DomainError, OverflowRangeError

# values frozen from extended-precision evaluation (mpmath, 30 digits)
IVE_3_2 = 0.028791222639470898
K0_1 = 0.42102443824070833
K_I1_2 = 0.092385459890391182
J_ZERO_0_1 = 2.4048255576957728
J_ZERO_2_1 = 5.1356223018406826
ERFC_1 = 0.15729920705028513


class TestBesselI:
    def test_at_zero(self):
        assert sf.bessel_i(0.0, 0.0) == 1.0
        assert sf.bessel_i(1.0, 0.0) == 0.0
        assert sf.bessel_i_scaled(0.0, 0.0) == 1.0

    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
        expect = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert sf.bessel_i(0.5, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_scaled_large_argument_two_term_asymptotics(self):
        x = 100.0
        two_term = (1.0 + 1.0 / (8.0 * x)) / math.sqrt(2.0 * math.pi * x)
        assert sf.bessel_i_scaled(0.0, x) == pytest.approx(two_term, abs=1e-5)

    def test_scaled_extended_precision_value(self):
        assert sf.bessel_i_scaled(3.0, 2.0) == pytest.approx(IVE_3_2, rel=1e-12)

    def test_overflow_signaled(self):
        with pytest.raises(OverflowRangeError):
            sf.bessel_i(0.0, 800.0)
        # while the scaled variant stays finite far beyond
        assert 0.0 < sf.bessel_i_scaled(0.0, 1e6) < 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sf.bessel_i(-1.0, 1.0)
        with pytest.raises(DomainError):
            sf.bessel_i(0.0, -1.0)

    def test_recurrence_grid(self):
        # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x), scaled form
        for nu in np.linspace(0.5, 10.0, 8):
            for x in np.geomspace(0.1, 50.0, 8):
                lhs = sf.bessel_i_scaled(nu - 0.5, x) - sf.bessel_i_scaled(nu + 1.5, x)
                rhs = (2.0 * (nu + 0.5) / x) * sf.bessel_i_scaled(nu + 0.5, x)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)

    def test_vectorized_matches_scalar(self):
        nus = np.array([0.0, 0.7, 3.0, 11.5, 40.0])
        for x in (0.0, 0.3, 10.0, 300.0, 648.0):
            many = sf.bessel_i_scaled_many(nus, x)
            for nu, v in zip(nus, many):
                assert v == pytest.approx(sf.bessel_i_scaled(float(nu), x), rel=1e-11, abs=1e-280)

    def test_block_rows_equal_scalar_calls(self):
        # entries stop at different steps (x = 0 at once) and in both
        # branches, on both sides of the branch edge x = 25, with more
        # points near x = 20, nu = 1 and 5 and x = 10 nu^2; the series runs
        # over more than 512 entries, as kernel blocks do.  Each entry is the
        # one-entry call's float, bit for bit
        nus = np.array([0.0, 0.25, 0.999, 1.0, 1.001, 1.5, 4.9, 4.999, 5.0, 5.001, 12.5, 60.0,
                        150.25, 449.5])
        xs = np.concatenate([[0.3, 0.0, 700.0, 12.5, 1e-8, 399.0, 0.0, 85.0, 699.9, 19.999, 20.0,
                              20.001, 22.4, 22.6, 240.0, 240.2, 1e4, 24.999, 25.0, 25.001],
                             np.linspace(0.5, 25.0, 40)])
        block = sf.bessel_i_scaled_many(nus, xs)
        assert block.shape == (xs.size, nus.size)
        for x, row in zip(xs, block):
            assert np.array_equal(row, sf.bessel_i_scaled_many(nus, float(x)))
            assert np.array_equal(row, [sf.bessel_i_scaled(float(nu), float(x)) for nu in nus])
        assert block[1, 0] == 1.0 and not block[1, 1:].any()

    def test_scalar_argument_keeps_1d_result(self):
        nus = np.array([0.0, 1.5, 4.0])
        assert sf.bessel_i_scaled_many(nus, 2.0).shape == (3,)
        assert sf.bessel_i_scaled_many(nus, np.float64(0.0)).shape == (3,)
        assert sf.bessel_i_scaled_many(nus, np.array([2.0])).shape == (1, 3)

    @pytest.mark.parametrize("x", [5.0, 50.0])
    def test_order_beyond_the_cap_is_refused(self, x):
        # past nu ~ 2.5e305 log Gamma(nu + 1) overflows (a bare OverflowError
        # from the series) and nu asinh(nu/x) overflows in the uniform
        # expansion (a RuntimeWarning, an error under this suite)
        with pytest.raises(DomainError, match="1e[+]306"):
            sf.bessel_i_scaled(1e306, x)
        with pytest.raises(DomainError, match="order"):
            sf.bessel_i_scaled_many([1.0, 1e306], np.array([x]))

    @pytest.mark.parametrize("x", [0.0, 5e-324, 5.0, 20.0, 20.000001, 25.0, 25.000001, 50.0,
                                   1e300])
    def test_largest_order_stays_finite(self, x):
        # every branch keeps its exponent finite up to the cap, at any x
        assert sf.bessel_i_scaled(sf._MAX_I_ORDER, x) == 0.0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_block_argument_domain(self, bad):
        with pytest.raises(DomainError, match="argument"):
            sf.bessel_i_scaled_many([0.0, 1.0], np.array([0.5, bad, 3.0]))

    def test_block_argument_beyond_700(self):
        # past x ~ 709 the scaled series' first term e^{-x} (x/2)^nu /
        # Gamma(nu+1) is no longer representable; the block has no such cap
        mp = pytest.importorskip("mpmath")
        nus = [0.0, 1.0, 4.9, 5.0, 37.5]
        block = sf.bessel_i_scaled_many(nus, np.array([0.5, 700.5, 3.0, 1.7976931348623157e308]))
        with mp.workdps(30):
            for nu, v in zip(nus, block[1]):
                assert v == pytest.approx(float(mp.besseli(nu, 700.5) * mp.exp(-700.5)), rel=1e-12)
        # at the largest double e^{-x} I_nu(x) is 1 / sqrt(2 pi x) to double precision
        expect = 1.0 / (math.sqrt(2.0 * math.pi) * math.sqrt(1.7976931348623157e308))
        assert block[3] == pytest.approx(expect, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("nu, x", [
        *((nu, x) for nu in (0.0, 0.5, 3.0, 5.0, 30.0) for x in (19.999, 20.0, 20.001)),
        *((nu, x) for nu in (0.0, 0.5, 3.0, 5.0, 30.0) for x in (24.999, 25.0, 25.001)),
        *((nu, x) for nu in (0.999, 1.0, 1.001) for x in (21.0, 100.0)),
        *((nu, x) for nu in (4.999, 5.0, 5.001) for x in (21.0, 100.0, 300.0, 1e4)),
        (1.5, 22.49), (1.5, 22.5), (1.5, 22.51),
        (4.9, 240.09), (4.9, 240.1), (4.9, 240.11),
    ])
    def test_branch_edges_against_extended_precision(self, nu, x):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = float(mp.besseli(nu, x) * mp.exp(-x))
        assert sf.bessel_i_scaled(nu, x) == pytest.approx(ref, rel=1e-12)

    def test_uniform_expansion_serves_no_small_argument(self):
        # at nu = 5, x = 3 the uniform expansion alone is off by 2e-8, so the
        # series serves every x <= 25
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = float(mp.besseli(5, 3) * mp.exp(-3))
        uniform = sf._ive_uniform(np.array([5.0]), np.array([3.0]))[0]
        assert abs(uniform / ref - 1.0) > 1e-9
        assert sf.bessel_i_scaled(5.0, 3.0) == pytest.approx(ref, rel=1e-12)

    @given(
        nus=st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=6),
        xs=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_against_scalar_property(self, nus, xs):
        block = sf.bessel_i_scaled_many(nus, np.array(xs))
        for x, row in zip(xs, block):
            for nu, v in zip(nus, row):
                assert v == sf.bessel_i_scaled(nu, x)

    @given(
        nus=st.lists(st.floats(min_value=0.0, max_value=300.0), min_size=1, max_size=4),
        x=st.floats(min_value=0.0, max_value=1e4),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_against_extended_precision_property(self, nus, x):
        # the block serves the corner mode sums and the sector kernels; values
        # below the normal range (1e-300) are compared absolutely
        mp = pytest.importorskip("mpmath")
        row = sf.bessel_i_scaled_many(nus, np.array([x]))[0]
        with mp.workdps(30):
            for nu, v in zip(nus, row):
                ref = float(mp.besseli(nu, x) * mp.exp(-x))
                assert v == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @given(
        nu=st.one_of(st.just(0.0), st.just(5e-324), st.floats(min_value=0.0, max_value=5.0)),
        x=st.floats(min_value=25.0, max_value=1e4, exclude_min=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_low_orders_above_the_series_against_extended_precision(self, nu, x):
        # the uniform expansion at low orders, nu = 0 and a subnormal nu
        # included, where it stands in for the large-argument series
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = float(mp.besseli(nu, x) * mp.exp(-x))
        assert sf.bessel_i_scaled(nu, x) == pytest.approx(ref, rel=1e-12)

    @given(
        nu=st.floats(min_value=0.0, max_value=50.0),
        x=st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaled_bounds_property(self, nu, x):
        v = sf.bessel_i_scaled(nu, x)
        assert 0.0 <= v <= 1.0 + 1e-12
        # scaled I decreases in the order at fixed argument
        assert v >= sf.bessel_i_scaled(nu + 1.0, x) - 1e-15

    def test_primitive_derivative(self):
        # d/du [e^{-u} u (I0 + I1)] = e^{-u} I0(u)
        h = 1e-5
        g = lambda u: u * (sf.bessel_i_scaled(0.0, u) + sf.bessel_i_scaled(1.0, u))
        for u in np.linspace(0.1, 30.0, 25):
            deriv = (g(u + h) - g(u - h)) / (2.0 * h)
            assert deriv == pytest.approx(sf.bessel_i_scaled(0.0, u), abs=1e-6)


def _ive_regions(rng, n):
    """n random (nu, x) entries in each branch's region of _ive_entries,
    low orders (nu < 5) apart in each."""
    above = np.nextafter(25.0, math.inf)
    return {
        "_ive_series": [(rng.uniform(0.0, 60.0, n), rng.uniform(0.0, 25.0, n)),
                        (rng.uniform(0.0, 5.0, n), rng.uniform(20.0, 25.0, n))],
        "_ive_uniform": [(rng.uniform(0.0, 300.0, n), rng.uniform(above, 1e4, n)),
                         (rng.uniform(0.0, 5.0, n), rng.uniform(above, 300.0, n))],
    }


def _edge_entries():
    """Every pair of orders and arguments at the branch edge x = 25 and its
    neighbours, with orders from 0 and a subnormal up to 449.5."""
    below, above = (lambda v: np.nextafter(v, 0.0)), (lambda v: np.nextafter(v, math.inf))
    nus = [0.0, 5e-324, 0.5, 1.0, 1.5, 3.3, 4.9, 5.0, 7.5, 60.0, 449.5]
    xs = [0.0, 1.0, 20.0, below(25.0), 25.0, above(25.0), 400.0]
    return tuple(np.array(a) for a in zip(*itertools.product(nus, xs)))


class TestIveEntries:
    """_ive_entries is the one I algorithm: the block is its call on every
    (x, nu) pair, and any other set of entries gets the block's bits."""

    @staticmethod
    def _assert_block_bits(nus, xs):
        orders, which = np.unique(nus, return_inverse=True)
        got = sf._ive_entries(orders, which, xs)
        block = sf.bessel_i_scaled_many(orders, xs)
        assert np.array_equal(got, block[np.arange(xs.size), which])

    @pytest.mark.parametrize("branch", ["_ive_series", "_ive_uniform"])
    def test_random_entries_in_each_branch(self, branch, monkeypatch):
        rng = np.random.default_rng(24)
        for nus, xs in _ive_regions(rng, 200)[branch]:
            self._assert_block_bits(nus, xs)
            # and the entries take that branch only
            served = []
            for name in ("_ive_series", "_ive_uniform"):
                real = getattr(sf, name)
                monkeypatch.setattr(sf, name, lambda *a, f=real, n=name: served.append(n) or f(*a))
            orders, which = np.unique(nus, return_inverse=True)
            sf._ive_entries(orders, which, xs)
            monkeypatch.undo()
            assert served == [branch]

    def test_branch_edges_and_mixed_entries(self):
        nus, xs = _edge_entries()
        self._assert_block_bits(nus, xs)
        # all branches in one call, in random order
        rng = np.random.default_rng(5)
        parts = [pair for pairs in _ive_regions(rng, 50).values() for pair in pairs]
        nus, xs = (np.concatenate([nus] + [p[i] for p in parts]) for i in (0, 1))
        order = rng.permutation(xs.size)
        self._assert_block_bits(nus[order], xs[order])


class TestBesselKImag:
    def test_k0_against_quadrature_value(self):
        assert sf.bessel_k_imag(0.0, 1.0) == pytest.approx(K0_1, rel=1e-12)

    def test_order_one_extended_precision(self):
        assert sf.bessel_k_imag(1.0, 2.0) == pytest.approx(K_I1_2, rel=1e-11)

    def test_series_and_contour_routes_agree(self):
        # pairs of points on either side of the series' corner mu >= 0.5,
        # x <= 4: the series serves the first of each pair, the contour the
        # second, and both must meet the extended-precision value
        mp = pytest.importorskip("mpmath")
        pairs = [((0.5, 3.0), (0.49, 3.0)),
                 ((0.5, 0.01), (0.4999, 0.01)),
                 ((2.0, 4.0), (2.0, 4.001)),
                 ((0.5, 4.0), (0.49, 4.0)),
                 ((6.0, 4.0), (6.0, 4.0001))]
        with mp.workdps(30):
            for series, contour in pairs:
                assert _k_route(*series) == "series" and _k_route(*contour) == "contour"
                for mu, x in (series, contour):
                    assert sf.bessel_k_imag_scaled(mu, x) == pytest.approx(
                        _k_oracle(mp, mu, x), rel=1e-11)

    def test_against_extended_precision_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for mu in (0.0, 0.25, 1.0, 3.0, 7.5, 20.0, 45.0):
            for x in (0.01, 0.4, 2.0, 9.0, 30.0):
                ref = float(mp.exp(mp.pi * mu / 2) * mp.besselk(1j * mu, mp.mpf(x)).real)
                if abs(ref) * math.exp(-math.pi * mu / 2.0) < 1e-12:
                    continue
                mine = sf.bessel_k_imag_scaled(mu, x)
                assert mine == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("mu, x", [(60.0, 70.0), (88.0, 80.0), (88.0, 100.0), (150.0, 120.0)])
    def test_turning_point_region_against_extended_precision(self, mu, x):
        # near x ~ mu a power series or a cosine integral cancels (to 5e-10
        # and 1e-7 at (60, 70) and (88, 100)); the contour does not, and the
        # scalar API serves these cells
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            assert abs(sf.bessel_k_imag_scaled(mu, x) - _k_oracle(mp, mu, x)) <= 5e-14

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sf.bessel_k_imag(1.0, 0.0)
        with pytest.raises(DomainError):
            sf.bessel_k_imag(-1.0, 1.0)

    def test_argument_below_the_contour_is_refused(self):
        # the contour's real-axis leg ends where x cosh t reaches 37 + pi mu/2
        # (at mu = 0.3, 37.5), which overflows for x below about 2.1e-307:
        # the table names u instead of building an infinite leg, and serves
        # u = 2.8e-307 itself
        with pytest.raises(DomainError) as err:
            sf.bessel_k_imag_scaled(0.3, 1e-308)
        assert err.value.field == "u"
        assert math.isfinite(sf.bessel_k_imag_scaled(0.3, 2.8e-307))


def _one(mu, x):
    """A point as the one-entry arrays the K table takes."""
    return np.array([float(mu)]), np.array([float(x)])


def _k_route(mu, x):
    """The route _k_imag_scaled_table takes at (mu, x): "series" where
    mu >= 0.5 and x <= 4, "contour" elsewhere."""
    return "series" if mu >= 0.5 and x <= 4.0 else "contour"


def _k_bound(err, ref):
    """How far an e^{pi mu/2} K_{i mu}(x) value may be from ref: twice the
    one-entry table's error estimate err, which covers the series' phase
    rounding, and 1e-12 of ref."""
    return 2.0 * err + 1e-12 * abs(ref)


def _k_oracle(mp, mu, x):
    return float((mp.besselk(1j * mp.mpf(mu), mp.mpf(x)) * mp.exp(mp.pi * mu / 2)).real)


def _saddle_size(mu, x):
    """e^{Re g(t*)}, g(t) = -x cosh t + i mu t + pi mu/2 at its saddle t*:
    e^{mu acos(mu/x) - sqrt(x^2 - mu^2)} for mu <= x, else 1."""
    if mu > x:
        return 1.0
    rho = math.sqrt((x - mu) * (x + mu))
    return math.exp(mu * math.atan2(rho, mu) - rho)


class TestKImagTable:
    # anchors: (10, 2) and (88, 2) take the series, every other anchor the
    # contour, (88, 80) and (88, 100) near the turning point
    @given(
        mus=st.lists(st.floats(min_value=0.0, max_value=150.0), min_size=1, max_size=3),
        xs=st.lists(st.floats(min_value=1e-3, max_value=120.0), min_size=1, max_size=3),
    )
    @settings(max_examples=12, deadline=None)
    def test_against_extended_precision_and_scalar_route(self, mus, xs):
        # the scalar route is the one-entry table; a whole table must agree
        # with the tables of one entry, and both with mpmath
        mp = pytest.importorskip("mpmath")
        mus = np.array(mus + [0.25, 10.0, 88.0])
        xs = np.array(sorted(set(xs) | {2.0, 24.0, 45.0, 80.0, 100.0}))
        table, table_err = sf._k_imag_scaled_table(mus, xs)
        routes = set()
        with mp.workdps(20):
            for (i, mu), (j, x) in itertools.product(enumerate(mus), enumerate(xs)):
                route = _k_route(mu, x)
                routes.add(route)
                oracle = _k_oracle(mp, mu, x)
                value, err = sf._k_imag_scaled_impl(float(mu), float(x))
                assert abs(table[i, j] - oracle) <= _k_bound(err, oracle), (mu, x, route)
                assert abs(table[i, j] - value) <= _k_bound(err, value), (mu, x, route)
                assert (table[i, j], table_err[i, j]) == (value, err), (mu, x, route)
        assert routes == {"series", "contour"}

    @pytest.mark.parametrize("mu, x", [(10.0, 2.0), (10.0, 24.0), (10.0, 45.0), (0.0, 1.0),
                                       (0.25, 80.0), (88.0, 80.0), (88.0, 100.0)])
    def test_scalar_call_is_the_one_entry_table(self, mu, x):
        value, err = sf._k_imag_scaled_table([mu], [x])
        assert sf._k_imag_scaled_impl(mu, x) == (value[0, 0], err[0, 0])

    def test_one_table_shared_by_corner_and_sector_code(self):
        from heattrace import corner_lab, sector_models

        assert corner_lab._k_imag_scaled_table is sf._k_imag_scaled_table
        assert sector_models._k_imag_scaled_table is sf._k_imag_scaled_table

    def test_contour_entries_equal_one_entry_calls(self):
        # about 1,470 contour entries with 2 to 8 panels each, taken in
        # chunks of 1,024: each entry sums its own panels, so a table's
        # values and error estimates are the one-entry calls' bit for bit
        rng = np.random.default_rng(3)
        mus = np.concatenate([[0.0, 0.3, 0.99, 1.0, 60.0, 150.0], rng.uniform(0.0, 150.0, 24)])
        us = np.concatenate([[1e-3, 4.5, 60.0, 150.0, 700.0], np.geomspace(4.01, 600.0, 45)])
        value, err = sf._k_imag_scaled_table(mus, us)
        assert (~((mus[:, None] >= 0.5) & (us[None, :] <= 4.0))).sum() > 1024
        for i, j in zip(rng.integers(0, mus.size, 60), rng.integers(0, us.size, 60)):
            one = sf._k_imag_scaled_impl(mus[i], us[j])
            assert one == (value[i, j], err[i, j]), (mus[i], us[j])


def _turning_points(mu):
    """x = mu {0.9, 0.97, 1, 1.03, 1.1}, those in the sample's [1e-3, 700]."""
    return [mu * f for f in (0.9, 0.97, 1.0, 1.03, 1.1) if 1e-3 <= mu * f <= 700.0]


class TestKContour:
    @given(mu=st.floats(min_value=0.0, max_value=150.0),
           x=st.floats(min_value=1e-3, max_value=700.0))
    @settings(max_examples=25, deadline=None)
    def test_error_bar_against_extended_precision(self, mu, x):
        """The contour at (mu, x) and at x = mu {0.9, 0.97, 1, 1.03, 1.1},
        against mpmath: within 5e-14 of the saddle's size e^{Re g(t*)}, and
        within its error bar, the gap to the 23-node rule plus the rounding
        5e-16 (1 + x + 2 mu (+ mu acosh(mu/x) when x < mu < 1)) sum |w e^{g} dt|.

        The gap must say something: it stays below 1e3 times the error plus
        1e-15 of the saddle's size.  The rounding part is above that floor
        wherever x + 2 mu is large: the saddle's phase mu acosh(mu/x) -
        sqrt(mu^2 - x^2) and its exponent round to some 1e-15 there, and an
        entry whose value falls within 1e-3 of that by chance would fail the
        same test (50 of 1,200 random entries did); its spread is checked
        in test_error_bars_are_informative."""
        mp = pytest.importorskip("mpmath")
        xs = np.array([x] + _turning_points(mu))
        value, gap, rounding = sf._k_contour(np.full(xs.size, mu), xs)
        with mp.workdps(40):
            for k, xk in enumerate(xs):
                truth = mp.besselk(1j * mp.mpf(mu), mp.mpf(xk)).real * mp.exp(mp.pi * mu / 2)
                err = float(abs(mp.mpf(value[k]) - truth))
                size = _saddle_size(mu, xk)
                assert err <= 5e-14 * size, (mu, xk, err / size)
                assert err <= gap[k] + rounding[k], (mu, xk)
                assert gap[k] <= 1e3 * err + 1e-15 * size, (mu, xk)

    def test_error_bars_are_informative(self):
        # the bar, gap plus rounding, is within a median 100x of the error
        # (33x on 1,200 random entries)
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        mus = rng.uniform(0.0, 150.0, 40)
        xs = np.exp(rng.uniform(math.log(1e-3), math.log(700.0), 40))
        value, gap, rounding = sf._k_contour(mus, xs)
        ratios = []
        with mp.workdps(40):
            for mu, x, v, bar in zip(mus, xs, value, gap + rounding):
                truth = mp.besselk(1j * mp.mpf(mu), mp.mpf(x)).real * mp.exp(mp.pi * mu / 2)
                ratios.append(bar / max(float(abs(mp.mpf(v) - truth)), 1e-300))
        assert np.median(ratios) <= 100.0


class TestPowerSeries:
    def test_k_series_entries_equal_one_entry_calls(self):
        # each entry stops on its own test, so the series' entries are the
        # one-entry calls' bit for bit, value and error estimates alike
        rng = np.random.default_rng(0)
        for size in (60, 600):  # cumulative runs, then one product per step
            mus, us = rng.uniform(0.5, 40.0, size), rng.uniform(1e-3, 4.0, size)
            block = sf._k_series(mus, us)
            for k in range(0, size, 7):
                one = sf._k_series(*_one(mus[k], us[k]))
                assert [a[k] for a in block] == [a[0] for a in one], (mus[k], us[k])

    @pytest.mark.parametrize("size", [7, 600])  # cumulative runs, then one product per step
    def test_imaginary_order_block_equals_one_entry_calls(self, size):
        rng = np.random.default_rng(size)
        mu, x = rng.uniform(0.5, 40.0, size), rng.uniform(1e-3, 30.0, size)
        t0 = np.exp(1j * mu * np.log(0.5 * x) - sf._clgamma(1.0 + 1j * mu) - 0.5 * math.pi * mu)
        q = 0.25 * x * x
        sums, largest = sf._power_series(t0, q, 1j * mu)
        for k in range(size):
            one = sf._power_series(t0[k:k + 1], q[k:k + 1], 1j * mu[k:k + 1])
            assert (sums[k], largest[k]) == (one[0][0], one[1][0])

    def test_run_past_the_term_cap_raises(self, monkeypatch):
        # at x = 200 the terms peak near k = 100 and fall below 1e-18 of the
        # sum near k = 300: a cap of 128 stops the second run of 64 steps
        monkeypatch.setattr(sf, "_MAX_TERMS", 128)
        with pytest.raises(ConvergenceError):
            sf._power_series(np.array([1.0 + 0.0j]), np.array([1e4]), np.array([1.0j]))


class TestClgamma:
    def test_against_extended_precision(self):
        """log Gamma(1 + i mu) for mu in [0, 200], both parts within
        1e-14 + 4.5e-16 mu (1e-13 at mu = 200), the bound the K series' error
        estimate uses; the imaginary part reaches 860 there, where 1e-13 is
        under one ulp."""
        mp = pytest.importorskip("mpmath")
        mus = np.concatenate([np.linspace(0.0, 200.0, 801), [1e-8, 0.5, 199.99]])
        got = sf._clgamma(1.0 + 1j * mus)
        with mp.workdps(30):
            for mu, value in zip(mus, got):
                ref = mp.loggamma(mp.mpc(1.0, mu))
                bound = 1e-14 + 4.5e-16 * mu
                assert abs(mp.mpf(value.real) - ref.real) <= bound, mu
                assert abs(mp.mpf(value.imag) - ref.imag) <= bound, mu

    def test_left_half_of_the_domain(self):
        # Re z >= 0.5: the shift by 8 keeps Stirling's series at |w| >= 8.5
        mp = pytest.importorskip("mpmath")
        zs = np.array([0.5, 0.5 + 3.0j, 0.7 - 20.0j, 2.5 + 0.1j])
        for z, value in zip(zs, sf._clgamma(zs)):
            assert abs(complex(mp.loggamma(complex(z))) - value) <= 1e-14, z


class TestBesselJHugeOrder:
    @pytest.mark.parametrize("nu", [1e5, 1e6])
    def test_underflowing_bound_returns_zero(self, nu):
        # (x/2)^nu / Gamma(nu + 1) is far below the smallest double: the pair
        # is 0 without the downward recurrence from order ~nu
        assert sf.bessel_j(nu, 5.0) == 0.0
        assert sf.bessel_j_prime(nu, 5.0) == 0.0
        assert sf.bessel_j(nu, 60.0) == 0.0

    @pytest.mark.parametrize("nu, x, j, jp", [
        (0.3, 50.0, 0.005310039107848066, 0.11266160619091346),
        (7.5, 30.0, 0.13142029812318967, 0.06363832821871257),
        (100.0, 80.0, 4.606553064823477e-06, 3.5036060582489175e-06),
        (212.6, 5.0, 3.291e-320, 1.398937e-318),  # bound e^{-732}
        (344.2, 30.0, 1.49e-321, 1.7055e-320),  # bound e^{-736}
    ])
    def test_bits_unchanged_where_the_bound_does_not_underflow(self, nu, x, j, jp):
        # values of the recurrence before the bound was checked
        assert (sf.bessel_j(nu, x), sf.bessel_j_prime(nu, x)) == (j, jp)


class TestBesselJ:
    def test_at_zero(self):
        assert sf.bessel_j(0.0, 0.0) == 1.0
        assert sf.bessel_j(2.0, 0.0) == 0.0

    def test_first_zeros(self):
        assert sf.bessel_j_zero(0.0, 1) == pytest.approx(J_ZERO_0_1, rel=1e-12)
        assert sf.bessel_j_zero(2.0, 1) == pytest.approx(J_ZERO_2_1, rel=1e-12)

    def test_zero_is_root(self):
        for nu in (0.0, 1.5, 7.0, 33.3):
            for k in (1, 2, 7):
                z = sf.bessel_j_zero(nu, k)
                assert abs(sf.bessel_j(nu, z)) < 1e-11

    def test_zeros_interlace(self):
        for nu in (0.0, 0.5, 2.0, 9.5):
            for k in (1, 2, 5):
                a = sf.bessel_j_zero(nu, k)
                b = sf.bessel_j_zero(nu + 1.0, k)
                c = sf.bessel_j_zero(nu, k + 1)
                assert a < b < c

    def test_zeros_increasing_in_k(self):
        zs = [sf.bessel_j_zero(3.2, k) for k in range(1, 8)]
        assert all(x < y for x, y in zip(zs, zs[1:]))

    def test_against_extended_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for nu in (0.0, 0.5, 4.0, 17.3, 60.0):
            for x in (0.2, 6.0, 11.9, 13.0, 26.0, 80.0):
                ref = float(mp.besselj(nu, x))
                if abs(ref) < 1e-13:
                    continue
                assert sf.bessel_j(nu, x) == pytest.approx(ref, rel=2e-9, abs=1e-13)

    def test_prime_zeros(self):
        # j'_{1,1} = 1.8411837813406593, and J0' zeros are J1 zeros
        assert sf.bessel_j_prime_zero(1.0, 1) == pytest.approx(1.8411837813406593, rel=1e-10)
        assert sf.bessel_j_prime_zero(0.0, 1) == pytest.approx(
            sf.bessel_j_zero(1.0, 1), rel=1e-14
        )
        z = sf.bessel_j_prime_zero(3.0, 2)
        assert abs(sf.bessel_j_prime(3.0, z)) < 1e-11

    def test_zero_cache(self):
        cache = sf.BesselZeroCache()
        a = sf.bessel_j_zero(1.0, 3, cache=cache)
        b = sf.bessel_j_zero(1.0, 3, cache=cache)
        assert a == b
        assert cache.get(("j", 1.0, 3)) == a

    def test_bad_index(self):
        with pytest.raises(DomainError):
            sf.bessel_j_zero(1.0, 0)

    def test_prime_domain_errors(self):
        for nu, x in ((-1.0, 2.0), (math.nan, 2.0), (1.0, -1.0), (1.0, math.inf), (-0.5, 0.0)):
            with pytest.raises(DomainError):
                sf.bessel_j_prime(nu, x)

    @pytest.mark.parametrize("nu, value", [(0.5, math.inf), (1.0, 0.5), (0.0, 0.0), (2.0, 0.0)])
    def test_prime_at_zero(self, nu, value):
        # J'_nu(x) ~ (nu/2)(x/2)^{nu-1}/Gamma(nu+1) as x -> 0
        assert sf.bessel_j_prime(nu, 0.0) == value

    @pytest.mark.parametrize("nu, x", [(7.5, 30.0), (3.0, 18.0), (40.2, 40.7), (0.3, 50.0),
                                       (0.3, 1.5), (4.0, 7.0)])
    def test_prime_is_one_pair_evaluation(self, monkeypatch, nu, x):
        # J_nu and J'_nu come from one two-entry power series (x <= 2) or
        # one normalized recurrence (x > 2)
        calls = []
        pair = sf._bessel_j_pair
        monkeypatch.setattr(sf, "_bessel_j_pair", lambda n, v: calls.append(n) or pair(n, v))
        sf.bessel_j_prime(nu, x)
        assert calls == [nu]

    def test_handoff_band_against_extended_precision(self):
        # 12 < x <= 25, through the recurrence for orders below and above 1.
        # The worst error seen here is 1.4e-14 relative, 2.7e-16 absolute
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for nu in (0.0, 0.25, 0.5, 0.9, 1.3, 7.0):
            for x in (12.01, 13.5, 15.0, 18.0, 21.0, 24.0, 24.99, 25.0):
                ref = float(mp.besselj(nu, x))
                assert sf.bessel_j(nu, x) == pytest.approx(ref, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("xs", [np.linspace(12.01, 24.99, 12), np.linspace(25.0, 200.0, 12)],
                             ids=["x-below-25", "x-from-25"])
    def test_base_orders_against_extended_precision(self, xs):
        # the orders 0 <= nu < 2 through the recurrence; errors relative to
        # the amplitude sqrt(2/(pi x)), worst seen 1.5e-15 below x = 25 and
        # 8.8e-15 from it
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for nu in (0.0, 0.3, 0.9, 1.0, 1.25, 1.5, 1.99):
            for x in xs.tolist():
                amp = math.sqrt(2.0 / (math.pi * x))
                assert abs(sf.bessel_j(nu, x) - float(mp.besselj(nu, x))) <= 5e-14 * amp

    def test_low_orders_below_the_hankel_band_against_extended_precision(self):
        # J_nu for 1 <= nu < 2 at 12 < x < 25; worst seen 1.8e-15 of the
        # amplitude
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for nu in (1.0, 1.1, 1.5, 1.77, 1.99):
            for x in np.linspace(12.01, 24.99, 12).tolist():
                amp = math.sqrt(2.0 / (math.pi * x))
                assert abs(sf.bessel_j(nu, x) - float(mp.besselj(nu, x))) <= 2e-13 * amp

    @pytest.mark.parametrize("x", [126.4, 200.0, 230.0, 262.0, 300.0])
    def test_pair_at_large_arguments_against_extended_precision(self, x):
        # Neumann's sum needs the Miller start 15 + 8 x^{1/3} orders above
        # the turning point; 15 + 2 x^{1/3} loses up to 8e-9 of the
        # amplitude here.  Worst seen 1.5e-14
        mp = pytest.importorskip("mpmath")
        amp = math.sqrt(2.0 / (math.pi * x))
        with mp.workdps(25):
            for nu in (1.0, 7.5, 30.0, 61.7):
                j_nu, j_prime = sf._bessel_j_pair(nu, x)
                assert abs(j_nu - float(mp.besselj(nu, x))) <= 5e-13 * amp, nu
                assert abs(j_prime - float(mp.besselj(nu, x, derivative=1))) <= 5e-13 * amp, nu
                assert sf.bessel_j(nu, x) == j_nu
                assert sf.bessel_j_prime(nu, x) == j_prime

    def test_small_arguments_against_extended_precision(self):
        # x <= 2 through the power series, 2 < x <= 12 through the
        # recurrence; errors relative to the amplitude min(1, sqrt(2/(pi x))),
        # worst seen 7.9e-16 (J) and 3.7e-16 of max(1, |J'|) (J')
        mp = pytest.importorskip("mpmath")
        xs = np.concatenate([np.linspace(0.05, 12.0, 24), [1e-3, 1.999, 2.0, 2.001]]).tolist()
        with mp.workdps(30):
            for nu in (0.0, 0.25, 0.5, 0.9, 1.0, 4.0 / 3.0, 2.5, 7.5, 13.3, 30.0, 60.0):
                for x in xs:
                    amp = min(1.0, math.sqrt(2.0 / (math.pi * x)))
                    assert abs(sf.bessel_j(nu, x) - float(mp.besselj(nu, x))) <= 5e-15 * amp
                    ref = float(mp.besselj(nu, x, derivative=1))
                    assert abs(sf.bessel_j_prime(nu, x) - ref) <= 5e-15 * max(1.0, abs(ref))

    def test_zeros_below_12_against_extended_precision(self):
        # worst seen 2.7e-15 (j) and 1.1e-14 (j')
        mp = pytest.importorskip("mpmath")
        for nu in (0.0, 0.25, 0.5, 1.0, 4.0 / 3.0, 2.5, 3.5, 5.5, 7.5):
            cache = sf.BesselZeroCache()
            for zero, derivative in ((sf.bessel_j_zero, 0), (sf.bessel_j_prime_zero, 1)):
                k = 1
                while (z := zero(nu, k, cache=cache)) < 12.0:
                    # mpmath counts x = 0 as the first zero of J0'
                    m = k + 1 if nu == 0.0 and derivative else k
                    with mp.workdps(30):
                        ref = float(mp.besseljzero(nu, m, derivative=derivative))
                    assert abs(z - ref) <= 3e-14, (nu, k, derivative)
                    k += 1

    def test_tiny_arguments_against_extended_precision(self):
        # the power series serves these: a recurrence step 2(b + k)/x would
        # outgrow its 1e-100 rescale
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for nu, x in ((0.0, 1e-300), (0.5, 1e-310), (1.0, 1e-160), (0.0, 5e-324),
                          (60.0, 1e-3)):
                assert sf.bessel_j(nu, x) == pytest.approx(float(mp.besselj(nu, x)), rel=1e-13)

    def test_rescaled_recurrence(self):
        # from order 184 down to 0 the values at x = 13 grow by ~1e188, so
        # the sum and the values are rescaled on the way; J_400(12.5) ~
        # 1e-549 underflows to 0
        mp = pytest.importorskip("mpmath")
        with mp.workdps(25):
            ref = float(mp.besselj(150, 13))
        assert sf.bessel_j(150.0, 13.0) == pytest.approx(ref, rel=1e-12)
        assert sf.bessel_j(400.0, 12.5) == 0.0

    def test_no_gauss_grid_in_j(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a J evaluation built a Gauss grid")

        monkeypatch.setattr(sf, "gauss_rule", refuse)  # the Gauss rules of the K contour
        cache = sf.BesselZeroCache()
        for nu in (0.0, 0.5, 1.0, 1.5, 7.0):
            for x in (1.5, 7.0, 12.5, 18.0, 24.5):
                sf.bessel_j(nu, x)
                sf.bessel_j_prime(nu, x)
            zeros = [sf.bessel_j_zero(nu, k, cache=cache) for k in range(1, 9)]
            primes = [sf.bessel_j_prime_zero(nu, k, cache=cache) for k in range(1, 9)]
            assert max(zeros + primes) > 24.0


@st.composite
def _j_points(draw):
    """(nu, x) with 0 < x <= 120: anywhere, in the band nu < x < nu + 1
    where the recurrence starts at J_{nu+1}'s turning point rather than
    J_nu's, or in 0 < x <= 12, across the x = 2 edge between the power
    series and the recurrence."""
    band = draw(st.sampled_from(["any", "turning", "small"]))
    if band == "turning":
        nu = draw(st.floats(min_value=12.0, max_value=60.0))
        return nu, nu + draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                       exclude_max=True))
    nu = draw(st.floats(min_value=0.0, max_value=60.0))
    top = 12.0 if band == "small" else 120.0
    return nu, draw(st.floats(min_value=0.0, max_value=top, exclude_min=True))


class TestBesselJProperties:
    @given(point=_j_points())
    @settings(max_examples=60, deadline=None)
    def test_pair_against_extended_precision(self, point):
        mp = pytest.importorskip("mpmath")
        nu, x = point
        with mp.workdps(25):
            ref = float(mp.besselj(nu, x))
            # mpmath's derivative takes J_{nu-1}, whose order rounds to -1 at tiny nu
            ref_prime = float(nu / mp.mpf(x) * mp.besselj(nu, x) - mp.besselj(nu + 1.0, x))
        assert sf.bessel_j(nu, x) == pytest.approx(ref, rel=2e-9, abs=1e-13)
        # |J'_nu| <= 1 except at small x for nu < 1, where J'_nu ~ x^{nu-1}
        # may pass the double range
        prime = sf.bessel_j_prime(nu, x)
        assert prime == ref_prime or abs(prime - ref_prime) <= 1e-11 * max(1.0, abs(ref_prime))

    @given(nu=st.floats(min_value=0.0, max_value=40.0), k=st.integers(min_value=1, max_value=15))
    @settings(max_examples=6, deadline=None)
    def test_resumed_march_against_extended_precision(self, nu, k):
        # zeros 1..k in turn through a cache: zero k comes from a march
        # resumed where the march for zero k - 1 stopped
        mp = pytest.importorskip("mpmath")
        cache = sf.BesselZeroCache()
        zeros = [sf.bessel_j_zero(nu, i, cache=cache) for i in range(1, k + 1)]
        primes = [sf.bessel_j_prime_zero(nu, i, cache=cache) for i in range(1, k + 1)]
        with mp.workdps(25):
            ref = float(mp.besseljzero(nu, k))
            # mpmath counts x = 0 as the first zero of J0'
            ref_prime = float(mp.besseljzero(nu, k + 1 if nu == 0.0 else k, derivative=1))
        assert zeros[-1] == pytest.approx(ref, rel=0.0, abs=1e-11)
        assert primes[-1] == pytest.approx(ref_prime, rel=0.0, abs=1e-11)


# orders of disks, of quarter/half-integer sectors, and of sectors with
# opening 0.7 (orders (j + 1/2) pi / 0.7), up to the largest the spectra reach
MARCH_ORDERS = (0.0, 0.25, 0.5, 1.0, 4.0 / 3.0, 2.0, 7.5, 13.3, 30.0, 61.7, 100.0,
                0.5 * math.pi / 0.7, 3.5 * math.pi / 0.7)


class TestZeroMarch:
    @pytest.mark.parametrize("zero", [sf.bessel_j_zero, sf.bessel_j_prime_zero])
    def test_warm_cache_equals_cold_march(self, zero):
        for nu in MARCH_ORDERS:
            cache = sf.BesselZeroCache()
            warm = [zero(nu, k, cache=cache) for k in range(1, 41)]
            cold = [zero(nu, k) for k in range(1, 41)]
            assert warm == cold, nu
            assert all(a < b for a, b in zip(warm, warm[1:])), nu

    def test_zeros_near_260_against_extended_precision(self):
        # the zeros of J_1 and J'_{7.5} up to x ~ 252, each march resumed
        # through one shared cache; J's error near x ~ 250 moves them, by up
        # to 5.4e-9 with a Miller start 15 + 2 x^{1/3} orders above the
        # turning point
        mp = pytest.importorskip("mpmath")
        cache = sf.BesselZeroCache()
        zeros = [sf.bessel_j_zero(1.0, k, cache=cache) for k in range(1, 81)]
        primes = [sf.bessel_j_prime_zero(7.5, k, cache=cache) for k in range(1, 78)]
        with mp.workdps(25):
            for k, z in enumerate(zeros, start=1):
                assert z == pytest.approx(float(mp.besseljzero(1, k)), rel=0.0, abs=1e-11), k
            for k, z in enumerate(primes, start=1):
                ref = float(mp.besseljzero(7.5, k, derivative=1))
                assert z == pytest.approx(ref, rel=0.0, abs=1e-11), k

    def test_against_extended_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for nu in (0.0, 0.25, 4.0 / 3.0, 7.5, 13.3, 30.0):
            cache = sf.BesselZeroCache()
            jp_cache = sf.BesselZeroCache()
            for k in range(1, 8):
                z = sf.bessel_j_zero(nu, k, cache=cache)
                zp = sf.bessel_j_prime_zero(nu, k, cache=jp_cache)
                if k not in (1, 2, 7):
                    continue
                assert z == pytest.approx(float(mp.besseljzero(nu, k)), abs=1e-11)
                # mpmath counts x = 0 as the first zero of J0'
                ref_p = mp.besseljzero(nu, k + 1 if nu == 0.0 else k, derivative=1)
                assert zp == pytest.approx(float(ref_p), abs=1e-11)

    def test_first_prime_zero_of_a_small_order(self):
        # j'_{nu,1} ~ sqrt(2 nu) tends to 0 with nu: for nu < 1.25e-3 it lies
        # below 0.05, where the march starts for larger small orders
        mp = pytest.importorskip("mpmath")
        with mp.workdps(25):
            for nu in (1e-12, 1e-6, 1e-3):
                ref = float(mp.besseljzero(nu, 1, derivative=1))
                assert sf.bessel_j_prime_zero(nu, 1) == pytest.approx(ref, rel=0.0, abs=1e-11)

    def test_resume_after_exact_grid_zero(self):
        # zeros at 1.0 and 3.0 fall on the grid 0, 0.25, 0.5, ...; 2.1 does not
        f = lambda x: (x - 1.0) * (x - 2.1) * (x - 3.0)
        step = 0.25
        expect = [(1.0, 1.0), (2.0, 2.25), (3.0, 3.0)]
        state = (0.0, f(0.0))
        for k, (a, b) in enumerate(expect, start=1):
            bracket, state = sf._march_for_zero(f, *state, step, 1)
            assert bracket[:2] == (a, b)
            cold_bracket, cold_state = sf._march_for_zero(f, 0.0, f(0.0), step, k)
            assert (cold_bracket, cold_state) == (bracket, state)
        assert state[0] == 3.25


class TestErfc:
    def test_definition_values(self):
        assert sf.erfc(0.0) == 1.0
        assert sf.erfc(1.0) == pytest.approx(ERFC_1, rel=1e-14)

    def test_odd_symmetry(self):
        for x in (0.1, 0.9, 2.5, 7.0):
            assert sf.erfc(x) + sf.erfc(-x) == pytest.approx(2.0, abs=1e-15)

    def test_erfc_against_quadrature(self):
        # (2/sqrt(pi)) int_1^inf e^{-s^2} ds by direct Gauss panels
        gx, gw = np.polynomial.legendre.leggauss(60)
        integral = 0.0
        for a, b in zip(np.linspace(1.0, 9.0, 9)[:-1], np.linspace(1.0, 9.0, 9)[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            integral += half * float(np.dot(gw, np.exp(-((mid + half * gx) ** 2))))
        assert sf.erfc(1.0) == pytest.approx(2.0 / math.sqrt(math.pi) * integral, abs=1e-12)

    def test_erfcx_consistency(self):
        for x in (0.0, 0.5, 1.99, 2.0, 3.7, 12.0, 200.0):
            expect = math.exp(min(x * x, 700.0)) * math.erfc(x) if x < 26.0 else None
            if expect is not None:
                assert sf.erfcx(x) == pytest.approx(expect, rel=1e-13)
        # far tail: asymptotic 1/(x sqrt(pi))
        assert sf.erfcx(1e5) == pytest.approx(1.0 / (1e5 * math.sqrt(math.pi)), rel=1e-9)

    def test_erfcx_array_equals_scalars(self):
        xs = np.concatenate([
            np.linspace(0.0, 2.0, 41), [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)],
            np.linspace(2.0, 40.0, 77), np.geomspace(40.0, 1e5, 30),
        ])
        values = sf.erfcx(xs)
        assert values.tobytes() == np.array([sf.erfcx(float(x)) for x in xs]).tobytes()
        assert type(sf.erfcx(3.0)) is float

    def test_erfcx_keeps_the_shape(self):
        xs = np.array([[0.5, 2.5, 7.0], [1e5, 0.0, 3.0]])
        assert sf.erfcx(xs).shape == (2, 3)
        assert type(sf.erfcx(np.array(3.0))) is float
        assert sf.erfcx(np.array([])).shape == (0,)

    def test_erfc_array_equals_math_erfc(self):
        xs = np.concatenate([np.linspace(-6.0, 6.0, 49), [-0.0, 30.0, -30.0, 1e300]])
        values = sf.erfc(xs)
        assert values.tobytes() == np.array([math.erfc(x) for x in xs]).tobytes()
        assert type(sf.erfc(0.5)) is float

    def test_erfc_keeps_the_shape(self):
        xs = np.array([[0.5, -2.5, 7.0], [1e5, 0.0, 3.0]])
        assert sf.erfc(xs).shape == (2, 3)
        assert type(sf.erfc(np.array(3.0))) is float
        assert sf.erfc(np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_erfc_rejects_a_bad_entry(self, bad):
        with pytest.raises(DomainError, match="argument"):
            sf.erfc(np.array([0.5, -3.0, bad]))

    @pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
    def test_erfcx_rejects_a_bad_entry(self, bad):
        with pytest.raises(DomainError, match="argument"):
            sf.erfcx(np.array([0.5, 3.0, bad]))


@pytest.mark.parametrize("name, args, field", [
    ("bessel_i_scaled_many", ([-1.0], 1.0), "nus"),
    ("bessel_i_scaled_many", ([1e306], 1.0), "nus"),
    ("bessel_i_scaled_many", ([1.0], np.array([1.0, -1.0])), "x"),
    ("bessel_i_scaled_many", ([1.0], np.ones((2, 2))), "x"),
    ("bessel_i_scaled", (-1.0, 1.0), "nu"),
    ("bessel_i_scaled", (1e306, 1.0), "nu"),
    ("bessel_i_scaled", (1.0, math.nan), "x"),
    ("bessel_i", (math.inf, 1.0), "nu"),
    ("bessel_j", (-1.0, 1.0), "nu"),
    ("bessel_j", (1.0, -1.0), "x"),
    ("bessel_j_prime", (math.nan, 1.0), "nu"),
    ("bessel_j_prime", (1.0, math.inf), "x"),
    ("bessel_j_zero", (1.0, 0), "k"),
    ("bessel_j_zero", (-1.0, 1), "nu"),
    ("bessel_j_prime_zero", (1.0, 1.5), "k"),
    ("bessel_j_zero", (1.0, math.nan), "k"),
    ("bessel_j_prime_zero", (1.0, math.inf), "k"),
    ("bessel_j_prime_zero", (math.inf, 1), "nu"),
    ("bessel_k_imag_scaled", (-1.0, 1.0), "mu"),
    ("bessel_k_imag_scaled", (1.0, 0.0), "x"),
    ("bessel_k_imag", (1.0, math.nan), "x"),
    ("erfc", (np.array([0.5, math.inf]),), "x"),
    ("erfcx", (-1.0,), "x"),
])
def test_argument_errors_name_the_field(name, args, field):
    with pytest.raises(DomainError) as info:
        getattr(sf, name)(*args)
    assert info.value.field == field
