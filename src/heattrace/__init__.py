"""heattrace: a numerical laboratory for heat-trace asymptotics on
curvilinear polygons.

Sector heat kernels and Kontorovich-Lebedev Green's functions, half-plane
Dirichlet/Neumann/Robin kernels, renormalized corner integrals, the
heat-trace coefficient calculator for polygons with mixed boundary
conditions, and exactly solvable spectra that validate all of it at desk
scale.
"""

from .corner_lab import (
    CornerKind,
    cone_point_coeff,
    corner_coeff,
    corner_coeff_numeric,
    corner_finite_part,
    i0_radial_finite_part,
    term_contributions,
)
from .errors import HeatTraceError
from .exact_spectra import (
    FitReport,
    Spectrum,
    fit_asymptotics,
    fit_spectrum,
    interval_eigenvalues,
    partial_trace,
    rectangle_spectrum,
    sector_disk_spectrum,
    trace_samples,
    write_trace_samples,
)
from .quad_fp import FinitePartResult, QuadResult, finite_part, integrate
from .sector_models import (
    DIRICHLET,
    NEUMANN,
    BoundaryCondition,
    SectorSpec,
    greens_half_plane_images,
    greens_kl,
    half_plane_kernel,
    laplace_consistency,
    mode_order,
    model_residual,
    sector_heat_kernel,
)
from .special_fns import (
    BesselZeroCache,
    bessel_i,
    bessel_i_scaled,
    bessel_i_scaled_many,
    bessel_j,
    bessel_j_prime,
    bessel_j_prime_zero,
    bessel_j_zero,
    bessel_k_imag,
    bessel_k_imag_scaled,
    erfc,
    erfcx,
)
from .trace_coeffs import (
    BoundaryLoop,
    EdgeSpec,
    PolygonSpec,
    TraceCoefficients,
    coefficients,
    coefficients_gb,
    disk_spec,
    distinguish,
    rectangle_spec,
    sector_spec,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
