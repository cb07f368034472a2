"""Heat-trace coefficients (a_{-1}, a_{-1/2}, a_0) for curvilinear polygons.

Implements the short-time trace expansion

    Tr H(t) = a_{-1} t^{-1} + a_{-1/2} t^{-1/2} + a_0 + O(t^{1/2} log t)

for mixed Dirichlet/Neumann/Robin edges, with per-vertex corner terms that
depend only on whether the vertex touches exactly one Dirichlet edge, the
Gauss-Bonnet alternate form of a_0, and the induced non-isospectrality test.
"""

import math
import numbers
from dataclasses import dataclass, field

from .corner_lab import CornerKind, cone_point_coeff, corner_coeff
from .errors import DomainError, InconsistentSpecError, OverflowRangeError
from .sector_models import BoundaryCondition, check_angle, check_coordinate

_TWO_PI = 2.0 * math.pi

REMAINDER_ORDER = "O(t^(1/2) log t)"


@dataclass(frozen=True)
class EdgeSpec:
    """One smooth boundary edge: its length, boundary condition, geodesic
    curvature integral, and (for Robin edges) the integral of kappa.  With
    bc="R", kappa is the mean robin_integral / length.  Errors name the field."""

    length: float
    bc: BoundaryCondition
    geodesic_curvature_integral: float = 0.0
    robin_integral: float | None = None

    def __post_init__(self):
        check_coordinate("length", self.length, math.inf, False)
        if not math.isfinite(self.geodesic_curvature_integral):
            raise DomainError("geodesic_curvature_integral must be finite",
                              field="geodesic_curvature_integral")
        integral = self.robin_integral
        if integral is not None:
            check_coordinate("robin_integral", integral, math.inf, False)
        if self.bc == "R":
            if integral is None:
                raise DomainError('bc "R" needs robin_integral', field="robin_integral")
            object.__setattr__(self, "bc", BoundaryCondition.robin(integral / self.length))
        if self.bc.kind == "R":
            if integral is None:
                object.__setattr__(self, "robin_integral", self.bc.robin_kappa * self.length)
        elif integral is not None:
            raise DomainError("robin_integral is only meaningful on Robin edges",
                              field="robin_integral")

    @property
    def is_dirichlet(self):
        return self.bc.kind == "D"


@dataclass(frozen=True)
class BoundaryLoop:
    """A closed chain of edges; angles[j] is the interior angle of the vertex
    joining edge j and edge j+1 (mod n).  A single edge with no angles is a
    smooth loop, equivalent to one with a single phantom vertex of angle pi."""

    edges: tuple
    angles: tuple

    def __post_init__(self):
        if len(self.edges) == 0:
            raise DomainError("a boundary loop needs at least one edge", field="edges")
        if len(self.angles) == 0 and len(self.edges) != 1:
            raise DomainError("only single-edge loops may omit angles", field="angles")
        if self.angles and len(self.angles) != len(self.edges):
            raise DomainError(
                f"loop has {len(self.edges)} edges but {len(self.angles)} angles",
                field="angles",
            )
        for j, a in enumerate(self.angles):
            check_angle(f"angles[{j}]", a)

    def vertices(self):
        """(angle, edge_before, edge_after) triples; angles[j] joins edge j
        and edge j+1 mod n."""
        n = len(self.edges)
        out = []
        for j, angle in enumerate(self.angles):
            out.append((angle, self.edges[j], self.edges[(j + 1) % n]))
        return out


@dataclass(frozen=True)
class PolygonSpec:
    """A curvilinear polygon: area, Gauss-curvature data (either the integral
    of K or the Euler characteristic), boundary loops, and cone points given
    by their opening angles.  Errors name the bad field."""

    area: float
    loops: tuple
    gauss_curvature_integral: float | None = None
    euler_characteristic: int | None = None
    cone_points: tuple = ()

    def __post_init__(self):
        check_coordinate("area", self.area, math.inf, False)
        gauss, chi = self.gauss_curvature_integral, self.euler_characteristic
        if gauss is None and chi is None:
            raise DomainError("provide gauss_curvature_integral or euler_characteristic",
                              field="gauss_curvature_integral")
        if gauss is not None and not math.isfinite(gauss):
            raise DomainError("gauss_curvature_integral must be finite",
                              field="gauss_curvature_integral")
        if chi is not None and not isinstance(chi, numbers.Integral):
            raise DomainError(f"euler_characteristic must be an integer, got {chi!r}",
                              field="euler_characteristic")
        if not self.loops:
            raise DomainError("at least one boundary loop is required", field="loops")
        for i, opening in enumerate(self.cone_points):
            check_coordinate(f"cone_points[{i}]", opening, math.inf, False)
        if chi is not None and self.cone_points:
            raise DomainError(
                "Euler-characteristic input is not supported together with cone "
                "points; supply gauss_curvature_integral instead",
                field="cone_points",
            )

    def all_edges(self):
        return [e for loop in self.loops for e in loop.edges]

    def all_vertices(self):
        return [v for loop in self.loops for v in loop.vertices()]

    def curvature_defect_sum(self):
        """sum over vertices of (pi - alpha_j)."""
        return math.fsum(math.pi - a for a, _, _ in self.all_vertices())

    def gauss_integral(self, check_tol=1e-9):
        """int_Omega K dz, from the given integral or via Gauss-Bonnet
        2 pi chi = int K + int k_g + sum (pi - alpha_j); raises when both
        are given and disagree."""
        if self.euler_characteristic is None:
            return self.gauss_curvature_integral
        kg_sum = _fsum("k_g", (e.geodesic_curvature_integral for e in self.all_edges()))
        implied = _TWO_PI * self.euler_characteristic - kg_sum - self.curvature_defect_sum()
        if self.gauss_curvature_integral is not None:
            if abs(self.gauss_curvature_integral - implied) > check_tol:
                raise InconsistentSpecError(
                    "gauss_curvature_integral and euler_characteristic violate "
                    f"Gauss-Bonnet by {abs(self.gauss_curvature_integral - implied):.3e}",
                    field="euler_characteristic",
                )
            return self.gauss_curvature_integral
        return implied


@dataclass(frozen=True)
class TraceCoefficients:
    a_minus1: float
    a_minus_half: float
    a_0: float
    breakdown: dict = field(default_factory=dict)
    remainder_order: str = REMAINDER_ORDER

    def __post_init__(self):
        if not all(math.isfinite(a) for a in self.as_tuple()):
            raise OverflowRangeError(
                f"trace coefficients {self.as_tuple()} are not all finite numbers"
            )
        if not self.a_minus1 > 0.0:
            raise DomainError("a_minus1 must be positive (it is area / 4 pi)", field="a_minus1")
        if abs(self.a_0 - math.fsum(self.breakdown.values())) > 1e-14 * max(
            1.0, abs(self.a_0)
        ):
            raise DomainError("a_0 must equal the sum of its breakdown entries", field="a_0")

    def as_tuple(self):
        return (self.a_minus1, self.a_minus_half, self.a_0)


def _vertex_kind(angle, edge_before, edge_after):
    """Corner class from the two adjacent edges: exactly one Dirichlet edge
    makes a mixed vertex; zero or two make a same-type vertex.  Robin edges
    count as non-Dirichlet."""
    n_dirichlet = int(edge_before.is_dirichlet) + int(edge_after.is_dirichlet)
    pair = "DN" if n_dirichlet == 1 else ("DD" if n_dirichlet == 2 else "NN")
    return CornerKind(pair, angle)


def _fsum(name, values):
    """math.fsum of finite values; an overflow raises OverflowRangeError naming the sum."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise OverflowRangeError(f"the {name} sum overflows double precision") from None


def _assemble(spec, **form_terms):
    """TraceCoefficients from the a_0 entries specific to one form of the
    curvature term plus everything both forms share: a_{-1}, a_{-1/2}, and
    the Robin, vertex and cone entries of a_0."""
    edges = spec.all_edges()
    a_minus1 = spec.area / (4.0 * math.pi)
    non_d = _fsum("non-Dirichlet length", (e.length for e in edges if not e.is_dirichlet))
    dir_len = _fsum("Dirichlet length", (e.length for e in edges if e.is_dirichlet))
    a_minus_half = (non_d - dir_len) / (8.0 * math.sqrt(math.pi))
    breakdown = dict(form_terms)
    robin = _fsum("Robin integral", (e.robin_integral for e in edges if e.bc.kind == "R"))
    breakdown["robin"] = -robin / (2.0 * math.pi)
    for i, (angle, before, after) in enumerate(spec.all_vertices()):
        breakdown[f"vertex_{i}"] = corner_coeff(_vertex_kind(angle, before, after))
    for i, opening in enumerate(spec.cone_points):
        breakdown[f"cone_{i}"] = cone_point_coeff(opening)
    # fsum rounds correctly, so a_0 does not depend on the entry order
    a_0 = _fsum("a_0", breakdown.values())
    return TraceCoefficients(a_minus1, a_minus_half, a_0, breakdown)


def coefficients(spec):
    """Heat-trace coefficients of the polygon:

        a_{-1}  = A / 4 pi
        a_{-1/2} = (sum_{j not in D} l_j - sum_{j in D} l_j) / (8 sqrt pi)
        a_0     = (int K)/12 pi + (int k_g)/12 pi - (sum int kappa)/2 pi
                  + corner terms + cone terms.

    The Robin edge term enters with a minus sign: positive kappa (inward
    normal convention) raises every eigenvalue above its Neumann value, so
    the trace and its t^0 coefficient must decrease; the exactly solvable
    rectangle oracles confirm the magnitude kappa l/(2 pi) and the sign.
    """
    kg = _fsum("k_g", (e.geodesic_curvature_integral for e in spec.all_edges()))
    return _assemble(
        spec,
        gauss_curvature=spec.gauss_integral() / (12.0 * math.pi),
        geodesic_curvature=kg / (12.0 * math.pi),
    )


def coefficients_gb(spec):
    """a_0 through the Gauss-Bonnet alternate form

        a_0 = chi/6 - sum (pi - alpha_j)/12 pi + Robin + corner sums,

    with the same (negative) Robin edge term as coefficients(); identical to
    it whenever the curvature data is Gauss-Bonnet consistent.  A spec with
    an Euler characteristic has no cone points.
    """
    if spec.euler_characteristic is None:
        raise DomainError("coefficients_gb needs euler_characteristic",
                          field="euler_characteristic")
    spec.gauss_integral()  # raises on inconsistent redundant data
    return _assemble(
        spec,
        euler=spec.euler_characteristic / 6.0,
        angle_defect=-spec.curvature_defect_sum() / (12.0 * math.pi),
    )


@dataclass(frozen=True)
class DistinguishVerdict:
    isospectral_possible: bool
    witness: str | None = None
    values: tuple | None = None

    @property
    def not_isospectral(self):
        return not self.isospectral_possible


def distinguish(spec1, spec2, tol=1e-12):
    """Compare the three trace invariants of two polygon specs.

    Returns a verdict naming the first coefficient that differs (the domains
    then cannot be isospectral); when all three agree to tol the invariants
    computed here cannot separate the domains and the verdict is inconclusive.
    """
    c1 = coefficients(spec1)
    c2 = coefficients(spec2)
    for name, v1, v2 in (
        ("a_minus1", c1.a_minus1, c2.a_minus1),
        ("a_minus_half", c1.a_minus_half, c2.a_minus_half),
        ("a_0", c1.a_0, c2.a_0),
    ):
        if abs(v1 - v2) > tol:
            return DistinguishVerdict(False, witness=name, values=(v1, v2))
    return DistinguishVerdict(True)


# ---------------------------------------------------------------------------
# convenience constructors for the standard test domains

def rectangle_spec(a, b, bcs):
    """Rectangle [0,a] x [0,b]; bcs gives the conditions on the sides
    (bottom, right, top, left) as BoundaryCondition objects."""
    bottom, right, top, left = bcs
    edges = (
        EdgeSpec(a, bottom),
        EdgeSpec(b, right),
        EdgeSpec(a, top),
        EdgeSpec(b, left),
    )
    loop = BoundaryLoop(edges=edges, angles=(math.pi / 2.0,) * 4)
    return PolygonSpec(area=a * b, loops=(loop,), gauss_curvature_integral=0.0)


def disk_spec(radius, bc):
    """Flat disk of the given radius with one smooth boundary loop."""
    edge = EdgeSpec(
        _TWO_PI * radius, bc, geodesic_curvature_integral=_TWO_PI
    )
    loop = BoundaryLoop(edges=(edge,), angles=())
    return PolygonSpec(
        area=math.pi * radius * radius,
        loops=(loop,),
        gauss_curvature_integral=0.0,
    )


def sector_spec(gamma, radius, bc0, bc1, arc):
    """Circular sector of opening gamma truncated at the given radius: two
    straight edges with conditions bc0 and bc1, joined at the tip by the
    corner gamma, and an arc with condition arc that meets each straight
    edge at a right angle.  The conditions are BoundaryCondition objects."""
    edges = (
        EdgeSpec(radius, bc0),
        EdgeSpec(gamma * radius, arc, geodesic_curvature_integral=gamma),
        EdgeSpec(radius, bc1),
    )
    loop = BoundaryLoop(edges=edges, angles=(math.pi / 2.0, math.pi / 2.0, gamma))
    return PolygonSpec(
        area=0.5 * gamma * radius * radius,
        loops=(loop,),
        gauss_curvature_integral=0.0,
    )
