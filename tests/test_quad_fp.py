import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heattrace import quad_fp
from heattrace.errors import (
    BudgetExceededError,
    ConvergenceError,
    DomainError,
    EnvelopeViolationWarning,
    IllConditionedFitError,
    ResidualError,
)
from heattrace.special_fns import bessel_k_imag

K0_1 = 0.42102443824070833


class TestIntegrate:
    def test_exponential(self):
        r = quad_fp.integrate(lambda x: np.exp(-x), 0.0, math.inf, tol=1e-12, envelope=(1.0, 1.0))
        assert r.value == pytest.approx(1.0, abs=2e-12)
        assert r.abs_err_estimate >= 0.0

    def test_polynomial(self):
        r = quad_fp.integrate(lambda x: x * x, 0.0, 1.0, tol=1e-13)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_cosh_kernel_matches_bessel(self):
        r = quad_fp.integrate(
            lambda u: np.exp(-np.cosh(u)), 0.0, math.inf, tol=1e-13, envelope=(1.0, 1.0)
        )
        assert r.value == pytest.approx(K0_1, abs=1e-12)
        assert r.value == pytest.approx(bessel_k_imag(0.0, 1.0), abs=1e-11)

    def test_linearity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a_coef, b_coef = rng.uniform(-3.0, 3.0, 2)
            f = lambda x: np.exp(-x) * np.sin(x)
            g = lambda x: np.exp(-2.0 * x) * (1.0 + x)
            combo = lambda x: a_coef * f(x) + b_coef * g(x)
            rf = quad_fp.integrate(f, 0.0, 30.0, tol=1e-12)
            rg = quad_fp.integrate(g, 0.0, 30.0, tol=1e-12)
            rc = quad_fp.integrate(combo, 0.0, 30.0, tol=1e-12)
            budget = rf.abs_err_estimate * abs(a_coef) + rg.abs_err_estimate * abs(b_coef) + rc.abs_err_estimate
            assert abs(rc.value - (a_coef * rf.value + b_coef * rg.value)) <= budget + 1e-13

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("b, envelope", [(1.0, None), (math.inf, (1.0, 1.0))])
    def test_bad_tol_is_refused_up_front(self, tol, b, envelope):
        # refused before any node: a tol <= 0 would spend the whole node
        # budget on [0, 1], or fail in the truncation point's logarithm on
        # [0, inf)
        calls = []
        f = lambda x: calls.append(x) or np.exp(-x)
        with pytest.raises(DomainError) as info:
            quad_fp.integrate(f, 0.0, b, tol=tol, envelope=envelope)
        assert info.value.field == "tol"
        assert calls == []

    def test_budget_error_carries_estimate(self):
        with pytest.raises(BudgetExceededError) as err:
            quad_fp.integrate(
                lambda x: np.abs(x - 1.0 / 3.0) ** 0.1, 0.0, 1.0, tol=1e-15, max_nodes=400
            )
        assert isinstance(err.value.result, quad_fp.QuadResult)
        assert err.value.result.value == pytest.approx(0.87, abs=0.05)

    def test_envelope_required_and_checked(self):
        with pytest.raises(DomainError):
            quad_fp.integrate(lambda x: np.exp(-x), 0.0, math.inf)
        with pytest.warns(EnvelopeViolationWarning):
            quad_fp.integrate(
                lambda x: 10.0 * np.exp(-x), 0.0, math.inf, tol=1e-10, envelope=(1.0, 1.0)
            )

    @pytest.mark.parametrize("f", [
        lambda x: 1.0,
        lambda x: np.ones(7),
        lambda x: np.ones((x.size, 1)),
    ], ids=["scalar", "wrong_length", "extra_axis"])
    def test_integrand_must_keep_the_node_shape(self, f):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return f(x)

        with pytest.raises(DomainError, match=r"shape .* for nodes of shape \(248,\)"):
            quad_fp.integrate(counted, 0.0, 1.0)
        assert calls == [(248,)]

    def test_deterministic(self):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        r1 = quad_fp.integrate(f, 0.0, 20.0, tol=1e-12)
        r2 = quad_fp.integrate(f, 0.0, 20.0, tol=1e-12)
        assert r1.value == r2.value


def integrate_one_panel_at_a_time(f, a, b, tol, envelope=None):
    """The adaptive integrator with f called on each panel's 10 nodes and
    then on its 21 nodes, one panel at a time: the reference for the
    batched calls.  Returns (value, abs_err_estimate, nodes_used)."""
    tail = 0.0
    if math.isinf(b):
        c_env, delta = envelope
        b = a + max(1.0, (math.log(2.0 * c_env / (delta * tol))) / delta)
        tail = 0.5 * tol

    def push(heap, lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coarse, fine = (
            half * float(np.dot(gw, f(mid + half * gx)))
            for gx, gw in (quad_fp.gauss_rule(10), quad_fp.gauss_rule(21))
        )
        heapq.heappush(heap, (-abs(fine - coarse), lo, hi, fine))

    heap = []
    edges = np.linspace(a, b, 9)
    for lo, hi in zip(edges[:-1], edges[1:]):
        push(heap, lo, hi)
    nodes = 8 * 31
    while (err := sum(-item[0] for item in heap) + tail) > tol:
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        push(heap, lo, mid)
        push(heap, mid, hi)
        nodes += 2 * 31
    value = math.fsum(item[3] for item in sorted(heap, key=lambda it: it[1]))
    return value, err, nodes


BATCH_CASES = {
    "smooth": (lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 20.0, None),
    "peaked": (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0, None),
    "semi_infinite": (lambda x: np.exp(-x) * (1.0 + np.sin(x)), 0.0, math.inf, (2.0, 1.0)),
}


class TestBatchedPanels:
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_bit_identical_to_one_panel_at_a_time(self, case, tol):
        f, a, b, envelope = BATCH_CASES[case]
        r = quad_fp.integrate(f, a, b, tol=tol, envelope=envelope)
        assert (r.value, r.abs_err_estimate, r.nodes_used) == integrate_one_panel_at_a_time(
            f, a, b, tol, envelope)

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_one_call_per_refinement_step(self, case):
        f, a, b, envelope = BATCH_CASES[case]
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return f(x)

        r = quad_fp.integrate(counted, a, b, tol=1e-12, envelope=envelope)
        bisections = (r.nodes_used - 8 * 31) // (2 * 31)
        assert sizes == [248] + [62] * bisections
        if case == "peaked":
            assert bisections > 0

    def test_non_finite_integrand_fails_at_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.where(x > 0.5, np.nan, x)

        with pytest.raises(ConvergenceError) as err:
            quad_fp.integrate(f, 0.0, 1.0)
        assert len(calls) == 1
        node = err.value.diagnostics["node"]
        assert node > 0.5 and node in calls[0]
        assert math.isnan(err.value.diagnostics["value"])


class TestGaussRule:
    def test_built_once_and_read_only(self):
        nodes, weights = quad_fp.gauss_rule(10)
        assert quad_fp.gauss_rule(10)[0] is nodes
        ref_x, ref_w = np.polynomial.legendre.leggauss(10)
        assert np.array_equal(nodes, ref_x) and np.array_equal(weights, ref_w)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_panel_nodes_integrate_polynomials(self):
        x, w = quad_fp.panel_nodes(0.5, 2.0, 3, rule=21)
        assert x.shape == w.shape == (63,)
        assert np.all(np.diff(x) > 0.0)
        assert float(np.dot(w, x**41)) == pytest.approx((2.0**42 - 0.5**42) / 42.0, rel=1e-13)


EPS = quad_fp.default_eps_schedule()


def samples(f, eps=EPS):
    """f(1/eps_i) at each eps_i: the values finite_part fits."""
    return [f(1.0 / e) for e in eps]


class TestFinitePart:
    def test_pure_divergence(self):
        r = quad_fp.finite_part(EPS, samples(lambda lam: lam))
        assert abs(r.finite_part) < 1e-12

    def test_synthetic_constant(self):
        r = quad_fp.finite_part(EPS, samples(lambda lam: 3.0 * lam**2 + 7.0 + 2.0 / lam))
        assert r.finite_part == pytest.approx(7.0, abs=1e-9)
        assert r.divergent_coeffs[-2] == pytest.approx(3.0, rel=1e-9)
        assert r.divergent_coeffs[1] == pytest.approx(2.0, rel=1e-6)

    @given(
        c2=st.floats(-5.0, 5.0),
        c1=st.floats(-5.0, 5.0),
        c0=st.floats(-5.0, 5.0),
        cm1=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_basis_recovery(self, c2, c1, c0, cm1):
        f = lambda lam: c2 * lam**2 + c1 * lam + c0 + cm1 / lam
        r = quad_fp.finite_part(EPS, samples(f))
        scale = max(1.0, abs(c2), abs(c1), abs(c0), abs(cm1))
        assert abs(r.finite_part - c0) <= 1e-10 * scale

    def test_condition_number_reported(self):
        r = quad_fp.finite_part(EPS, samples(lambda lam: lam + 1.0))
        assert r.condition_number >= 1.0
        assert r.epsilons_used == EPS

    def test_ill_conditioned_raises(self):
        with pytest.raises(IllConditionedFitError):
            quad_fp.finite_part(
                EPS, samples(lambda lam: lam + 1.0), basis=(-1, -1.0000001, 0, 1)
            )

    def test_residual_error_when_basis_incomplete(self):
        with pytest.raises(ResidualError):
            quad_fp.finite_part(
                EPS,
                samples(lambda lam: lam**3),  # not representable in the default basis
                value_errs=[1e-14] * len(EPS),
            )

    @pytest.mark.parametrize("args, field", [
        ((0.5, 0.8, 2), "count"), ((0.5, 0.8, 3.5), "count"), ((0.5, 0.8, 12.0), "count"),
        ((0.5, 0.8, math.nan), "count"), ((0.5, 1.0, 12), "ratio"), ((0.5, math.nan, 12), "ratio"),
        ((0.0, 0.8, 12), "eps_max"), ((math.nan, 0.8, 12), "eps_max"),
    ])
    def test_default_schedule_errors_name_the_field(self, args, field):
        # range() would refuse a count that is not an integer with a bare TypeError
        with pytest.raises(DomainError, match=field) as info:
            quad_fp.default_eps_schedule(*args)
        assert info.value.field == field
        assert len(quad_fp.default_eps_schedule(0.5, 0.8, np.int64(3))) == 3

    def test_schedule_validation(self):
        values = [1.0] * 5
        with pytest.raises(DomainError):
            quad_fp.finite_part((0.1, 0.2, 0.3, 0.4, 0.5), values)
        with pytest.raises(DomainError):
            quad_fp.finite_part((0.5, 0.4, 0.3), values[:3])
        with pytest.raises(DomainError):
            quad_fp.finite_part(EPS, samples(lambda lam: lam), basis=(-2, -1, 1))  # no eps^0
        with pytest.raises(DomainError, match="one value and one error per cutoff"):
            quad_fp.finite_part(EPS, samples(lambda lam: lam)[:-1])
        with pytest.raises(DomainError, match="one value and one error per cutoff"):
            quad_fp.finite_part(EPS, samples(lambda lam: lam), value_errs=[0.0])

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -0.1])
    def test_schedule_entries_must_be_finite_and_positive(self, bad):
        # one bad entry fails at the check, before the fit
        eps = list(EPS)
        eps[0 if bad == math.inf else -1] = bad
        with pytest.raises(DomainError, match="finite, positive and strictly decreasing") as info:
            quad_fp.finite_part(eps, samples(lambda lam: lam))
        assert info.value.field == "eps"

    def test_accepts_quadresults(self):
        # integrate's values and error estimates feed values and value_errs
        results = [quad_fp.integrate(lambda x: np.ones_like(x), 0.0, 1.0 / e, tol=1e-12)
                   for e in EPS]
        r = quad_fp.finite_part(EPS, [q.value for q in results],
                                value_errs=[q.abs_err_estimate for q in results])
        assert abs(r.finite_part) < 1e-9  # integral = lam: pure divergence

    def test_rescaled_cutoff_invariance_for_odd_expansions(self):
        # the radial corner integrand has only odd powers of eps in its
        # cutoff expansion, so replacing the cutoff 1/eps by c/eps must not
        # move the finite part
        from heattrace.special_fns import bessel_i_scaled

        def f_true(lam):
            u = 0.5 * lam * lam
            return 0.5 * u * (bessel_i_scaled(0.0, u) + bessel_i_scaled(1.0, u))

        eps = quad_fp.default_eps_schedule(eps_max=0.08, ratio=0.85, count=14)
        basis = (-2, -1, 0, 1, 3, 5)
        fps = {}
        for c in (0.5, 1.0, 2.0):
            values = samples(lambda lam, c=c: f_true(c * lam), eps)
            fps[c] = quad_fp.finite_part(eps, values, basis=basis).finite_part
        assert abs(fps[0.5] - fps[1.0]) <= 1e-5
        assert abs(fps[2.0] - fps[1.0]) <= 1e-5


class TestWeightedLstsq:
    def test_recovers_exact_weighted_fit(self):
        x = np.linspace(0.1, 1.0, 9)
        design = np.stack([np.ones_like(x), x, x**2], axis=1)
        values = 2.0 - 3.0 * x + 0.5 * x**2
        coef, cond, rms = quad_fp.weighted_lstsq(design, values, 1.0 / x)
        np.testing.assert_allclose(coef, [2.0, -3.0, 0.5], rtol=1e-12)
        assert rms <= 1e-14
        assert cond >= 1.0

    def test_unit_weights_match_plain_column_scaled_solve(self):
        # the corner-term fit passes unit weights and must keep its bits
        taus = np.linspace(0.5, 2.0, 7)
        design = np.stack([taus**2, taus, np.ones_like(taus), 1.0 / taus], axis=1)
        values = np.cos(3.0 * taus)  # outside the span: nonzero residual
        scale = np.abs(design).max(axis=0)
        plain, *_ = np.linalg.lstsq(design / scale, values, rcond=None)
        coef, _, rms = quad_fp.weighted_lstsq(design, values, np.ones_like(taus))
        assert coef.tolist() == (plain / scale).tolist()
        assert rms > 0.0


@pytest.mark.parametrize("build, field", [
    (lambda: quad_fp.integrate(np.exp, 1.0, 1.0, tol=1e-10), "b"),
    (lambda: quad_fp.integrate(np.exp, 0.0, math.inf, tol=1e-10), "envelope"),
    (lambda: quad_fp.integrate(np.exp, 0.0, math.inf, tol=1e-10, envelope=(1.0, 0.0)),
     "envelope"),
    (lambda: quad_fp.integrate(lambda x: 1.0, 0.0, 1.0, tol=1e-10), "f"),
    (lambda: quad_fp.finite_part(EPS, samples(lambda lam: lam), basis=(-1, 1)), "basis"),
    (lambda: quad_fp.finite_part(EPS, samples(lambda lam: lam), basis=(-1, 0, 0)), "basis"),
    (lambda: quad_fp.finite_part(EPS, samples(lambda lam: lam)[1:]), "values"),
    (lambda: quad_fp.finite_part(EPS, samples(lambda lam: lam), value_errs=[0.0]), "value_errs"),
    (lambda: quad_fp.QuadResult(1.0, -1.0, 10), "abs_err_estimate"),
    (lambda: quad_fp.FinitePartResult(1.0, {}, 1.0, (0.1, 0.2)), "epsilons_used"),
    (lambda: quad_fp.FinitePartResult(1.0, {}, 0.5, (0.2, 0.1)), "condition_number"),
])
def test_errors_name_the_field(build, field):
    with pytest.raises(DomainError) as info:
        build()
    assert info.value.field == field
