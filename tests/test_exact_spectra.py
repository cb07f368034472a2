import io
import math

import numpy as np
import pytest

from heattrace import exact_spectra as es
from heattrace import special_fns as sf
from heattrace import trace_coeffs as tc
from heattrace.errors import DomainError, TailBoundError
from heattrace.sector_models import DIRICHLET, NEUMANN, BoundaryCondition

PI = math.pi

# frozen from extended-precision root finding / Bessel zeros
ROBIN_RR_K1_LAMBDA1 = 1.7070529755509225  # kappa = 1 both ends, L = 1
QUARTER_DISK_LAMBDA1 = 26.374616427163391  # j_{2,1}^2
DISK_LAMBDA1 = 5.7831859629467845  # j_{0,1}^2


def theta_sum_dirichlet(t, length=1.0):
    """sum_{m>=1} e^{-m^2 pi^2 t / L^2}, summed to machine accuracy."""
    total = 0.0
    m = 1
    while True:
        term = math.exp(-(m * PI / length) ** 2 * t)
        total += term
        if term < 1e-300 or term < 1e-18 * total:
            return total
        m += 1


class TestInterval1D:
    def test_dirichlet(self):
        lam = es.interval_eigenvalues(1.0, "D", "D", 4)
        assert lam == pytest.approx([PI**2, 4 * PI**2, 9 * PI**2, 16 * PI**2])

    def test_mixed_half_integer(self):
        lam = es.interval_eigenvalues(1.0, "D", "N", 2)
        assert lam[0] == pytest.approx(PI**2 / 4.0)
        assert lam[1] == pytest.approx(9.0 * PI**2 / 4.0)

    def test_neumann_zero_mode(self):
        lam = es.interval_eigenvalues(2.0, "N", "N", 3)
        assert lam[0] == 0.0
        assert lam[1] == pytest.approx((PI / 2.0) ** 2)

    def test_robin_robin_first_root(self):
        lam = es.interval_eigenvalues(1.0, ("R", 1.0), ("R", 1.0), 1)
        assert lam[0] == pytest.approx(ROBIN_RR_K1_LAMBDA1, rel=1e-12)

    def test_robin_roots_satisfy_equation(self):
        for bc0, bc1, resid in [
            (("R", 0.7), ("R", 2.0), lambda k: (k * k - 1.4) * math.sin(k) - 2.7 * k * math.cos(k)),
            ("N", ("R", 1.5), lambda k: k * math.sin(k) - 1.5 * math.cos(k)),
            ("D", ("R", 0.9), lambda k: k * math.cos(k) + 0.9 * math.sin(k)),
        ]:
            for lam in es.interval_eigenvalues(1.0, bc0, bc1, 5):
                assert abs(resid(math.sqrt(lam))) < 1e-9 * max(1.0, lam)

    def test_robin_monotone_in_kappa(self):
        prev = es.interval_eigenvalues(1.0, "N", ("R", 0.5), 6)
        for kappa in (1.0, 2.0):
            cur = es.interval_eigenvalues(1.0, "N", ("R", kappa), 6)
            assert np.all(cur > prev)
            prev = cur

    def test_robin_between_neumann_and_dirichlet(self):
        nn = es.interval_eigenvalues(1.0, "N", "N", 6)
        dd = es.interval_eigenvalues(1.0, "D", "D", 6)
        rr = es.interval_eigenvalues(1.0, ("R", 3.0), ("R", 3.0), 6)
        assert np.all(rr > nn)
        assert np.all(rr < dd)


class TestRectangleSpectrum:
    def test_stream_sorted_and_correct(self):
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("D", "D"))
        first = spec.first(6)
        expect = sorted(
            (m * m + n * n) * PI**2 for m in range(1, 5) for n in range(1, 5)
        )[:6]
        assert first == pytest.approx(expect)

    def test_neumann_zero_mode(self):
        spec = es.rectangle_spectrum(1.0, 2.0, ("N", "N"), ("N", "N"))
        assert spec.first(1)[0] == 0.0

    def test_weyl_counting(self):
        # the D/N mixed square cancels the boundary term, leaving the Weyl
        # slope visible at lambda = 1e4 (pure D or N deviate by ~4% there)
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("N", "N"))
        lam_max = 1e4
        count = sum(1 for _ in spec.up_to(lam_max))
        assert count / lam_max == pytest.approx(1.0 / (4.0 * PI), rel=0.02)

    def test_counting_bound_is_a_bound(self):
        spec = es.rectangle_spectrum(1.3, 0.9, ("D", "N"), (("R", 1.0), "N"))
        for lam in (10.0, 100.0, 2000.0):
            count = sum(1 for _ in spec.up_to(lam))
            assert count <= spec.counting_bound(lam)

    def test_factorization_of_partial_trace(self):
        t = 0.01
        cutoff = 5000.0
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("N", "N"))
        value, _ = es.partial_trace(spec, t, cutoff)
        lx = es.interval_eigenvalues(1.0, "D", "D", 200)
        ly = es.interval_eigenvalues(1.0, "N", "N", 200)
        direct = math.fsum(
            math.exp(-(a + b) * t) for a in lx for b in ly if a + b <= cutoff
        )
        assert value == pytest.approx(direct, abs=1e-12)


class TestSectorDiskSpectrum:
    def test_quarter_disk_dirichlet(self):
        spec = es.sector_disk_spectrum(PI / 2.0, 1.0, "DD", "D")
        assert spec.first(1)[0] == pytest.approx(QUARTER_DISK_LAMBDA1, rel=1e-10)

    def test_full_disk_dirichlet(self):
        spec = es.sector_disk_spectrum(None, 1.0, None, "D")
        first = spec.first(3)
        assert first[0] == pytest.approx(DISK_LAMBDA1, rel=1e-10)
        assert first[1] == pytest.approx(first[2])  # m = 1 doublet

    def test_neumann_disk_zero_mode(self):
        spec = es.sector_disk_spectrum(None, 1.0, None, "N")
        assert spec.first(1)[0] == 0.0

    def test_radius_scaling(self):
        a = es.sector_disk_spectrum(PI / 2.0, 1.0, "DD", "D").first(4)
        b = es.sector_disk_spectrum(PI / 2.0, 2.0, "DD", "D").first(4)
        assert b == pytest.approx(a / 4.0)

    def test_stream_sorted(self):
        spec = es.sector_disk_spectrum(2.0, 1.0, "DN", "N")
        first = spec.first(25)
        assert np.all(np.diff(first) >= -1e-12)

    @pytest.mark.parametrize(
        "gamma, pair, arc", [(None, None, "D"), (None, None, "N"), (PI / 4.0, "DD", "D")]
    )
    def test_counting_bound_is_a_bound(self, gamma, pair, arc):
        # the n-th eigenvalue (with multiplicity) has N(lambda_n) >= n, so
        # checking every one checks N at each of its jumps
        spec = es.sector_disk_spectrum(gamma, 1.0, pair, arc)
        count = 0
        for count, lam in enumerate(spec.up_to(20000.0), start=1):
            assert count <= spec.counting_bound(lam)
        assert count > 20000.0 * spec.weyl_area / (4.0 * PI) * 0.9

    @pytest.mark.parametrize("arc, per_zero", [("D", 16), ("N", 32)])
    def test_zero_march_work_is_linear(self, monkeypatch, arc, per_zero):
        # a march resumed from the previous zero costs O(1) J evaluations per
        # zero; a march restarted at x0 for every k costs O(k) (45 and 86 here)
        j_calls = 0
        bessel_j = sf.bessel_j

        def counted_j(*args, **kwargs):
            nonlocal j_calls
            j_calls += 1
            return bessel_j(*args, **kwargs)

        class CountingCache(sf.BesselZeroCache):
            puts = 0

            def put(self, key, value):
                self.puts += 1
                super().put(key, value)

        cache = CountingCache()
        computed = 0

        def counting(lookup):
            def wrapper(*args, **kwargs):
                nonlocal computed
                before = cache.puts
                value = lookup(*args, **kwargs)
                computed += cache.puts > before
                return value
            return wrapper

        monkeypatch.setattr(sf, "bessel_j", counted_j)
        monkeypatch.setattr(es, "bessel_j_zero", counting(es.bessel_j_zero))
        monkeypatch.setattr(es, "bessel_j_prime_zero", counting(es.bessel_j_prime_zero))
        spec = es.sector_disk_spectrum(None, 1.0, None, arc, cache=cache)
        assert sum(1 for _ in spec.up_to(6000.0)) > 1400
        assert computed > 800
        assert j_calls <= per_zero * computed


class TestPartialTrace:
    def test_rectangle_theta_identity(self):
        # D on the x-pair, N on the y-pair: trace = S(t) (S(t) + 1) with the
        # Jacobi theta sum S; equals 1/(4 pi t) - 1/4 + (exp. small)
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("N", "N"))
        for t in (0.01, 0.03):
            value, tail = es.partial_trace(spec, t, 40.0 / t)
            assert tail <= 1e-13
            s = theta_sum_dirichlet(t)
            assert value == pytest.approx(s * (s + 1.0), abs=1e-12)
            assert value == pytest.approx(1.0 / (4.0 * PI * t) - 0.25, abs=1e-6)

    def test_long_time_limits(self):
        d_spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("D", "D"))
        n_spec = es.rectangle_spectrum(1.0, 1.0, ("N", "N"), ("N", "N"))
        vd, _ = es.partial_trace(d_spec, 50.0, 1e4)
        vn, _ = es.partial_trace(n_spec, 50.0, 1e4)
        assert vd == pytest.approx(0.0, abs=1e-100)
        assert vn == pytest.approx(1.0, abs=1e-100)

    def test_tail_bound_is_rigorous(self):
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("D", "D"))
        t = 0.02
        lam_cut = 800.0
        _, tail = es.partial_trace(spec, t, lam_cut)
        actual_tail = math.fsum(
            math.exp(-lam * t) for lam in spec.up_to(20.0 * lam_cut)
        ) - math.fsum(math.exp(-lam * t) for lam in spec.up_to(lam_cut))
        assert 0.0 < actual_tail <= tail

    def test_tail_error_prompts_larger_cutoff(self):
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("D", "D"))
        with pytest.raises(TailBoundError) as err:
            es.partial_trace(spec, 0.01, 100.0, tol=1e-12)
        assert err.value.suggested_cutoff > 100.0


class TestFit:
    def test_recovers_its_own_model(self):
        ts = np.exp(np.linspace(math.log(0.002), math.log(0.05), 10))
        samples = [(float(t), 2.0 / t + 3.0 / math.sqrt(t) + 5.0 + 0.1 * math.sqrt(t), 1e-14) for t in ts]
        rep = es.fit_asymptotics(samples)
        assert rep.a_minus1 == pytest.approx(2.0, abs=1e-10)
        assert rep.a_minus_half == pytest.approx(3.0, abs=1e-9)
        assert rep.a_0 == pytest.approx(5.0, abs=1e-9)
        assert rep.nuisance["t^1/2"] == pytest.approx(0.1, abs=1e-7)

    def test_square_dirichlet(self):
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("D", "D"))
        rep = es.fit_spectrum(spec)
        assert rep.a_0 == pytest.approx(0.25, abs=1e-3)
        assert rep.a_minus1 == pytest.approx(1.0 / (4.0 * PI), rel=1e-5)

    def test_mixed_rectangle(self):
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("N", "N"))
        rep = es.fit_spectrum(spec)
        assert rep.a_minus_half == pytest.approx(0.0, abs=1e-5)
        assert rep.a_0 == pytest.approx(-0.25, abs=1e-3)

    def test_window_validation(self):
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("D", "D"))
        with pytest.raises(DomainError):
            es.trace_samples(spec, window=(0.01, 0.5))
        with pytest.raises(DomainError):
            es.trace_samples(spec, n=5)
        with pytest.raises(DomainError):
            es.fit_asymptotics([(0.01, 1.0, 0.0)] * 5)


def _fit_matches_closed_form(spectrum, polygon, a0_tol=2e-3):
    rep = es.fit_spectrum(spectrum)
    coeffs = tc.coefficients(polygon)
    assert rep.a_minus1 == pytest.approx(coeffs.a_minus1, abs=1e-3)
    assert rep.a_minus_half == pytest.approx(coeffs.a_minus_half, abs=1e-3)
    assert rep.a_0 == pytest.approx(coeffs.a_0, abs=a0_tol)


class TestFitConsistencyWithClosedForms:
    def test_rectangles(self):
        cases = [
            (("D", "D"), ("D", "D")),
            (("N", "N"), ("N", "N")),
            (("D", "N"), ("N", "N")),
            (("D", "D"), ("N", "N")),
        ]
        for bc_x, bc_y in cases:
            spectrum = es.rectangle_spectrum(1.0, 1.5, bc_x, bc_y)
            conv = {"D": DIRICHLET, "N": NEUMANN}
            left, right = (conv[s] for s in bc_x)
            bottom, top = (conv[s] for s in bc_y)
            polygon = tc.rectangle_spec(1.0, 1.5, (bottom, right, top, left))
            _fit_matches_closed_form(spectrum, polygon)

    def test_robin_rectangle(self):
        spectrum = es.rectangle_spectrum(1.0, 1.0, ("N", "N"), ("N", ("R", 1.0)))
        polygon = tc.rectangle_spec(
            1.0, 1.0, (NEUMANN, NEUMANN, BoundaryCondition.robin(1.0), NEUMANN)
        )
        _fit_matches_closed_form(spectrum, polygon)

    def test_quarter_disk(self):
        spectrum = es.sector_disk_spectrum(PI / 2.0, 1.0, "DD", "D")
        quarter = PI / 2.0
        edges = (
            tc.EdgeSpec(1.0, DIRICHLET),
            tc.EdgeSpec(quarter, DIRICHLET, geodesic_curvature_integral=quarter),
            tc.EdgeSpec(1.0, DIRICHLET),
        )
        loop = tc.BoundaryLoop(edges=edges, angles=(PI / 2.0,) * 3)
        polygon = tc.PolygonSpec(
            area=PI / 4.0, loops=(loop,), gauss_curvature_integral=0.0
        )
        _fit_matches_closed_form(spectrum, polygon)

    def test_full_disk_both_conditions(self):
        for arc in ("D", "N"):
            spectrum = es.sector_disk_spectrum(None, 1.0, None, arc)
            polygon = tc.disk_spec(1.0, DIRICHLET if arc == "D" else NEUMANN)
            _fit_matches_closed_form(spectrum, polygon)


class TestCSV:
    def test_emission_format(self):
        spec = es.rectangle_spectrum(1.0, 1.0, ("D", "D"), ("D", "D"))
        samples = es.trace_samples(spec, (0.01, 0.05), 8)
        buf = io.StringIO()
        es.write_trace_samples(buf, samples)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "t,partial_trace,tail_bound"
        assert len(lines) == 10  # header + 8 rows + trailing newline
        row = lines[1].split(",")
        assert len(row) == 3
        assert float(row[0]) == pytest.approx(samples[0][0])
        assert float(row[1]) == pytest.approx(samples[0][1], rel=1e-16)
