import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heattrace import special_fns as sf
from heattrace.errors import AccuracyLossError, DomainError, OverflowRangeError

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
        # rows stop at different steps (x = 0 at once, x = 700 last) and in
        # any order; each row is the scalar call's float, bit for bit
        nus = np.arange(0.0, 150.0) * 3.0 + 0.25
        nus[0] = 0.0
        xs = np.array([0.3, 0.0, 700.0, 12.5, 1e-8, 399.0, 0.0, 85.0, 699.9])
        block = sf.bessel_i_scaled_many(nus, xs)
        assert block.shape == (xs.size, nus.size)
        for x, row in zip(xs, block):
            assert np.array_equal(row, sf.bessel_i_scaled_many(nus, float(x)))
        assert block[1, 0] == 1.0 and not block[1, 1:].any()

    def test_scalar_argument_keeps_1d_result(self):
        nus = np.array([0.0, 1.5, 4.0])
        assert sf.bessel_i_scaled_many(nus, 2.0).shape == (3,)
        assert sf.bessel_i_scaled_many(nus, np.float64(0.0)).shape == (3,)
        assert sf.bessel_i_scaled_many(nus, np.array([2.0])).shape == (1, 3)

    @pytest.mark.parametrize("bad", [700.5, -1.0, float("nan")])
    def test_block_argument_domain(self, bad):
        with pytest.raises(DomainError, match="argument"):
            sf.bessel_i_scaled_many([0.0, 1.0], np.array([0.5, bad, 3.0]))

    @given(
        nus=st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=6),
        xs=st.lists(st.floats(min_value=0.0, max_value=700.0), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_against_scalar_property(self, nus, xs):
        block = sf.bessel_i_scaled_many(nus, np.array(xs))
        for x, row in zip(xs, block):
            for nu, v in zip(nus, row):
                assert v == pytest.approx(sf.bessel_i_scaled(nu, x), rel=1e-11, abs=1e-280)

    @given(
        nus=st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=4),
        x=st.floats(min_value=0.0, max_value=700.0),
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


class TestBesselKImag:
    def test_k0_against_quadrature_value(self):
        assert sf.bessel_k_imag(0.0, 1.0) == pytest.approx(K0_1, rel=1e-12)

    def test_order_one_extended_precision(self):
        assert sf.bessel_k_imag(1.0, 2.0) == pytest.approx(K_I1_2, rel=1e-11)

    def test_series_and_integral_routes_agree(self):
        # both internal branches cover (mu=2, x=3); they must coincide
        v_series, _ = sf._k_imag_series(2.0, 3.0)
        v_integral, _ = sf._k_imag_integral(2.0, 3.0)
        assert v_series == pytest.approx(v_integral, rel=1e-11)

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

    def test_accuracy_loss_reported(self):
        # large order at comparable argument: both routes cancel; the error
        # channel must fire rather than return garbage
        with pytest.raises(AccuracyLossError) as err:
            sf.bessel_k_imag(60.0, 70.0)
        assert err.value.achieved_tol > 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sf.bessel_k_imag(1.0, 0.0)
        with pytest.raises(DomainError):
            sf.bessel_k_imag(-1.0, 1.0)


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

    def test_handoff_band_against_extended_precision(self):
        # 12 < x < 25 runs Bessel's integral on fixed panels with no error
        # estimate; x = 25 is the first Hankel point.  The worst error seen
        # here is 1.3e-13 relative, 1.4e-14 absolute
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for nu in (0.0, 0.25, 0.5, 0.9, 1.3, 7.0):
            for x in (12.01, 13.5, 15.0, 18.0, 21.0, 24.0, 24.99, 25.0):
                ref = float(mp.besselj(nu, x))
                assert sf.bessel_j(nu, x) == pytest.approx(ref, rel=1e-12, abs=1e-15)


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

    @pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
    def test_erfcx_rejects_a_bad_entry(self, bad):
        with pytest.raises(DomainError, match="argument"):
            sf.erfcx(np.array([0.5, 3.0, bad]))
