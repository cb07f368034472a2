import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heattrace import trace_coeffs as tc
from heattrace.errors import DomainError, InconsistentSpecError
from heattrace.sector_models import DIRICHLET, NEUMANN, BoundaryCondition

PI = math.pi
SQRT_PI = math.sqrt(PI)


def smooth_loop_spec(area, length, bc, chi=1, kg=2.0 * PI):
    edge = tc.EdgeSpec(length, bc, geodesic_curvature_integral=kg)
    loop = tc.BoundaryLoop(edges=(edge,), angles=())
    return tc.PolygonSpec(area=area, loops=(loop,), euler_characteristic=chi)


class TestCoefficients:
    def test_unit_square_dirichlet(self):
        spec = tc.rectangle_spec(1.0, 1.0, (DIRICHLET,) * 4)
        c = tc.coefficients(spec)
        assert c.a_minus1 == pytest.approx(1.0 / (4.0 * PI), rel=1e-14)
        assert c.a_minus_half == pytest.approx(-1.0 / (2.0 * SQRT_PI), rel=1e-14)
        assert c.a_0 == pytest.approx(0.25, abs=1e-14)

    def test_mixed_rectangle(self):
        spec = tc.rectangle_spec(1.0, 1.0, (DIRICHLET, NEUMANN, DIRICHLET, NEUMANN))
        c = tc.coefficients(spec)
        assert c.a_minus_half == pytest.approx(0.0, abs=1e-16)
        assert c.a_0 == pytest.approx(-0.25, abs=1e-14)

    def test_neumann_disk(self):
        c = tc.coefficients(tc.disk_spec(1.0, NEUMANN))
        assert c.a_0 == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert c.a_minus_half == pytest.approx(2.0 * PI / (8.0 * SQRT_PI), rel=1e-14)

    def test_breakdown_sums_to_a0(self):
        spec = tc.rectangle_spec(2.0, 1.0, (DIRICHLET, BoundaryCondition.robin(0.7), NEUMANN, DIRICHLET))
        c = tc.coefficients(spec)
        assert c.a_0 == pytest.approx(math.fsum(c.breakdown.values()), abs=1e-15)
        assert c.breakdown["robin"] == pytest.approx(-0.7 * 1.0 / (2.0 * PI))

    def test_cone_points(self):
        edge = tc.EdgeSpec(1.0, DIRICHLET)
        loop = tc.BoundaryLoop(edges=(edge,), angles=())
        spec = tc.PolygonSpec(
            area=1.0, loops=(loop,), gauss_curvature_integral=0.0, cone_points=(PI,)
        )
        c = tc.coefficients(spec)
        assert c.breakdown["cone_0"] == pytest.approx(1.0 / 8.0)

    def test_remainder_metadata(self):
        spec = tc.rectangle_spec(1.0, 1.0, (DIRICHLET,) * 4)
        assert "log t" in tc.coefficients(spec).remainder_order


class TestGaussBonnetForm:
    def test_smooth_domain(self):
        c = tc.coefficients_gb(smooth_loop_spec(1.0, 4.0, NEUMANN))
        assert c.a_0 == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_square_arithmetic(self):
        # 1/6 - 4 (pi/2)/(12 pi) + 4/16 = 1/6 - 1/6 + 1/4
        loop = tc.rectangle_spec(1.0, 1.0, (DIRICHLET,) * 4).loops[0]
        spec = tc.PolygonSpec(area=1.0, loops=(loop,), euler_characteristic=1)
        c = tc.coefficients_gb(spec)
        assert c.a_0 == pytest.approx(0.25, abs=1e-14)
        assert c.breakdown["euler"] == pytest.approx(1.0 / 6.0)
        assert c.breakdown["angle_defect"] == pytest.approx(-1.0 / 6.0)

    def test_boundary_condition_jumps(self):
        # smooth boundary with n D/N jumps: a_0 = chi/6 - n/16
        for n_jumps in (2, 4):
            edges = tuple(
                tc.EdgeSpec(1.0, DIRICHLET if i % 2 == 0 else NEUMANN)
                for i in range(n_jumps)
            )
            loop = tc.BoundaryLoop(edges=edges, angles=(PI,) * n_jumps)
            spec = tc.PolygonSpec(area=1.0, loops=(loop,), euler_characteristic=1)
            c = tc.coefficients_gb(spec)
            assert c.a_0 == pytest.approx(1.0 / 6.0 - n_jumps / 16.0, abs=1e-14)

    def test_agreement_with_direct_form(self):
        loop = tc.rectangle_spec(1.5, 0.7, (DIRICHLET, NEUMANN, NEUMANN, DIRICHLET)).loops[0]
        spec = tc.PolygonSpec(area=1.05, loops=(loop,), euler_characteristic=1)
        a = tc.coefficients(spec)
        b = tc.coefficients_gb(spec)
        assert a.a_0 == pytest.approx(b.a_0, abs=1e-12)
        assert a.a_minus_half == b.a_minus_half

    @given(
        n_edges=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_agreement_randomized(self, n_edges, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        kinds = rng.choice(["D", "N", "R"], size=n_edges)
        edges = []
        for k in kinds:
            bc = {"D": DIRICHLET, "N": NEUMANN}.get(k) or BoundaryCondition.robin(
                float(rng.uniform(0.1, 3.0))
            )
            edges.append(
                tc.EdgeSpec(
                    float(rng.uniform(0.2, 3.0)),
                    bc,
                    geodesic_curvature_integral=float(rng.uniform(-1.0, 1.0)),
                )
            )
        angles = tuple(float(a) for a in rng.uniform(0.2, 2.0 * PI - 0.2, n_edges))
        loop = tc.BoundaryLoop(edges=tuple(edges), angles=angles)
        spec = tc.PolygonSpec(
            area=float(rng.uniform(0.5, 5.0)), loops=(loop,), euler_characteristic=1
        )
        a = tc.coefficients(spec)
        b = tc.coefficients_gb(spec)
        assert abs(a.a_0 - b.a_0) <= 1e-12 * max(1.0, abs(a.a_0))
        assert a.a_minus1 == b.a_minus1
        assert a.a_minus_half == b.a_minus_half

    def test_6_2_strict_inequality_randomized(self):
        # all-same-BC polygon with an angle != pi has a_0 > chi/6 + Robin term
        import numpy as np

        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            kind = rng.choice(["D", "N", "R"])
            kappa = float(rng.uniform(0.1, 2.0))
            bc = {"D": DIRICHLET, "N": NEUMANN}.get(kind) or BoundaryCondition.robin(kappa)
            edges = tuple(
                tc.EdgeSpec(float(rng.uniform(0.2, 2.0)), bc) for _ in range(n)
            )
            angles = rng.uniform(0.2, 2.0 * PI - 0.2, n)
            if np.all(np.abs(angles - PI) < 0.1):
                angles[0] = 0.5
            loop = tc.BoundaryLoop(edges=edges, angles=tuple(float(a) for a in angles))
            spec = tc.PolygonSpec(area=1.0, loops=(loop,), euler_characteristic=1)
            c = tc.coefficients_gb(spec)
            robin_term = c.breakdown["robin"]
            assert c.a_0 > 1.0 / 6.0 + robin_term


def corner_term(bc_a, bc_b, alpha):
    """Closed-form corner coefficient: mixed when exactly one edge is D."""
    if (bc_a == "D") != (bc_b == "D"):
        return -(PI**2 + 2.0 * alpha**2) / (48.0 * PI * alpha)
    return (PI**2 - alpha**2) / (24.0 * PI * alpha)


class TestSectorSpec:
    @pytest.mark.parametrize("gamma", [PI / 3.0, PI / 2.0, 1.5 * PI])
    @pytest.mark.parametrize("arc", ["D", "N"])
    @pytest.mark.parametrize("pair", ["DD", "NN", "DN"])
    def test_coefficients(self, pair, arc, gamma):
        radius = 1.3
        bc = {"D": DIRICHLET, "N": NEUMANN}
        spec = tc.sector_spec(gamma, radius, bc[pair[0]], bc[pair[1]], bc[arc])
        c = tc.coefficients(spec)
        expect_a0 = (
            corner_term(pair[0], pair[1], gamma)
            + corner_term(pair[0], arc, PI / 2.0)
            + corner_term(arc, pair[1], PI / 2.0)
            + gamma / (12.0 * PI)
        )
        edges = ((radius, pair[0]), (gamma * radius, arc), (radius, pair[1]))
        signed = sum(-ell if kind == "D" else ell for ell, kind in edges)
        assert c.a_0 == pytest.approx(expect_a0, abs=1e-14)
        assert c.a_minus_half == pytest.approx(signed / (8.0 * SQRT_PI), rel=1e-14)
        assert c.a_minus1 == pytest.approx(gamma * radius**2 / (8.0 * PI), rel=1e-14)


class TestInvariances:
    def test_phantom_vertex_additivity(self):
        base = tc.rectangle_spec(1.0, 1.0, (DIRICHLET,) * 4)
        # split the bottom edge in two with a phantom angle-pi vertex
        e = base.loops[0].edges
        split = (
            tc.EdgeSpec(0.4, DIRICHLET),
            tc.EdgeSpec(0.6, DIRICHLET),
            e[1],
            e[2],
            e[3],
        )
        loop = tc.BoundaryLoop(edges=split, angles=(PI, PI / 2, PI / 2, PI / 2, PI / 2))
        spec = tc.PolygonSpec(area=1.0, loops=(loop,), gauss_curvature_integral=0.0)
        a = tc.coefficients(base)
        b = tc.coefficients(spec)
        assert a.a_minus1 == b.a_minus1
        assert a.a_minus_half == pytest.approx(b.a_minus_half, abs=1e-15)
        assert a.a_0 == pytest.approx(b.a_0, abs=1e-14)

    def test_robin_linearity(self):
        def spec_with(scale):
            return tc.rectangle_spec(
                1.0,
                1.0,
                (
                    BoundaryCondition.robin(1.3 * scale),
                    NEUMANN,
                    BoundaryCondition.robin(0.4 * scale),
                    NEUMANN,
                ),
            )

        c1 = tc.coefficients(spec_with(1.0))
        c2 = tc.coefficients(spec_with(2.0))
        shift = (1.3 + 0.4) / (2.0 * PI)
        assert c1.a_0 - c2.a_0 == pytest.approx(shift, rel=1e-12)
        assert abs(c2.breakdown["robin"] - 2.0 * c1.breakdown["robin"]) < 1e-15

    def test_multiple_loops_independent(self):
        outer = tc.rectangle_spec(1.0, 1.0, (DIRICHLET,) * 4).loops[0]
        inner = tc.BoundaryLoop(
            edges=(tc.EdgeSpec(1.0, NEUMANN, geodesic_curvature_integral=-2.0 * PI),),
            angles=(),
        )
        spec = tc.PolygonSpec(
            area=0.9, loops=(outer, inner), gauss_curvature_integral=0.0
        )
        c = tc.coefficients(spec)
        # four right-angle Dirichlet corners plus the hole's curvature
        assert c.a_0 == pytest.approx(0.25 - 1.0 / 6.0, abs=1e-14)


class TestDistinguish:
    def test_square_vs_matched_smooth_domain(self):
        square = tc.rectangle_spec(1.0, 1.0, (DIRICHLET,) * 4)
        # same area and Dirichlet perimeter, smooth boundary, chi = 1:
        # the first two invariants agree and a_0 = 1/4 vs 1/6 separates them
        smooth = smooth_loop_spec(1.0, 4.0, DIRICHLET)
        verdict = tc.distinguish(square, smooth)
        assert verdict.not_isospectral
        assert verdict.witness == "a_0"
        assert verdict.values == pytest.approx((0.25, 1.0 / 6.0))

    def test_self_is_inconclusive(self):
        spec = tc.rectangle_spec(1.0, 2.0, (NEUMANN,) * 4)
        verdict = tc.distinguish(spec, spec)
        assert verdict.isospectral_possible
        assert verdict.witness is None

    def test_jump_circle_vs_all_neumann(self):
        # one Dirichlet arc + one Neumann arc (two jumps) against an
        # all-Neumann smooth domain tuned to match area and a_{-1/2}
        p_d, p_n = 2.0, 5.0
        loop = tc.BoundaryLoop(
            edges=(
                tc.EdgeSpec(p_d, DIRICHLET, geodesic_curvature_integral=PI),
                tc.EdgeSpec(p_n, NEUMANN, geodesic_curvature_integral=PI),
            ),
            angles=(PI, PI),
        )
        jumps = tc.PolygonSpec(area=1.0, loops=(loop,), euler_characteristic=1)
        matched = smooth_loop_spec(1.0, p_n - p_d, NEUMANN)
        verdict = tc.distinguish(jumps, matched)
        assert verdict.not_isospectral
        assert verdict.witness == "a_0"
        assert verdict.values == pytest.approx((1.0 / 6.0 - 2.0 / 16.0, 1.0 / 6.0))


class TestValidation:
    def test_degenerate_angles_rejected(self):
        with pytest.raises(DomainError):
            tc.BoundaryLoop(edges=(tc.EdgeSpec(1.0, DIRICHLET),) * 2, angles=(0.0, PI))
        with pytest.raises(DomainError):
            tc.BoundaryLoop(
                edges=(tc.EdgeSpec(1.0, DIRICHLET),) * 2, angles=(2.0 * PI, PI)
            )

    def test_gauss_bonnet_mismatch(self):
        loop = tc.rectangle_spec(1.0, 1.0, (DIRICHLET,) * 4).loops[0]
        spec = tc.PolygonSpec(
            area=1.0,
            loops=(loop,),
            gauss_curvature_integral=0.5,  # inconsistent with chi = 1
            euler_characteristic=1,
        )
        with pytest.raises(InconsistentSpecError):
            tc.coefficients(spec)

    def test_consistent_redundant_data_ok(self):
        loop = tc.rectangle_spec(1.0, 1.0, (DIRICHLET,) * 4).loops[0]
        spec = tc.PolygonSpec(
            area=1.0,
            loops=(loop,),
            gauss_curvature_integral=0.0,
            euler_characteristic=1,
        )
        assert tc.coefficients(spec).a_0 == pytest.approx(0.25)

    def test_robin_needs_positive_kappa(self):
        with pytest.raises(DomainError):
            BoundaryCondition.robin(0.0)
        with pytest.raises(DomainError):
            BoundaryCondition.robin(-1.0)


def _loop():
    return tc.BoundaryLoop(edges=(tc.EdgeSpec(1.0, DIRICHLET),), angles=())


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: tc.EdgeSpec(0.0, DIRICHLET), "length"),
        (lambda: tc.EdgeSpec(math.inf, DIRICHLET), "length"),
        (lambda: tc.EdgeSpec(1.0, DIRICHLET, geodesic_curvature_integral=math.nan),
         "geodesic_curvature_integral"),
        (lambda: tc.EdgeSpec(1.0, "R", robin_integral=-0.5), "robin_integral"),
        (lambda: tc.EdgeSpec(1.0, "R", robin_integral=math.inf), "robin_integral"),
        (lambda: tc.EdgeSpec(1.0, "R"), "robin_integral"),
        (lambda: tc.EdgeSpec(1.0, NEUMANN, robin_integral=0.5), "robin_integral"),
        (lambda: tc.BoundaryLoop(edges=(), angles=()), "edges"),
        (lambda: tc.BoundaryLoop(edges=(tc.EdgeSpec(1.0, DIRICHLET),) * 2, angles=(PI,)),
         "angles"),
        (lambda: tc.BoundaryLoop(edges=(tc.EdgeSpec(1.0, DIRICHLET),) * 3,
                                 angles=(PI, PI, math.nan)), "angles[2]"),
        (lambda: tc.PolygonSpec(area=math.inf, loops=(_loop(),), euler_characteristic=1),
         "area"),
        (lambda: tc.PolygonSpec(area=1.0, loops=(_loop(),)), "gauss_curvature_integral"),
        (lambda: tc.PolygonSpec(area=1.0, loops=(_loop(),), gauss_curvature_integral=-math.inf),
         "gauss_curvature_integral"),
        (lambda: tc.PolygonSpec(area=1.0, loops=(_loop(),), euler_characteristic=1.5),
         "euler_characteristic"),
        (lambda: tc.PolygonSpec(area=1.0, loops=(), euler_characteristic=1), "loops"),
        (lambda: tc.PolygonSpec(area=1.0, loops=(_loop(),), gauss_curvature_integral=0.0,
                                cone_points=(1.0, math.inf)), "cone_points[1]"),
        (lambda: tc.PolygonSpec(area=1.0, loops=(_loop(),), euler_characteristic=1,
                                cone_points=(1.0,)), "cone_points"),
    ],
)
def test_constructor_errors_name_the_field(build, field):
    with pytest.raises(DomainError) as info:
        build()
    assert info.value.field == field


@pytest.mark.parametrize("build, field", [
    (lambda: tc.coefficients_gb(tc.PolygonSpec(area=1.0, loops=(_loop(),),
                                               gauss_curvature_integral=0.0)),
     "euler_characteristic"),
    (lambda: tc.TraceCoefficients(0.0, 0.0, 0.0), "a_minus1"),
    (lambda: tc.TraceCoefficients(1.0, 0.0, 0.5, {"corners": 0.25}), "a_0"),
])
def test_errors_name_the_field(build, field):
    with pytest.raises(DomainError) as info:
        build()
    assert info.value.field == field


def test_robin_edge_from_its_integral():
    edge = tc.EdgeSpec(2.0, "R", robin_integral=0.7)
    assert edge.bc == BoundaryCondition.robin(0.35)
    assert edge.robin_integral == 0.7
