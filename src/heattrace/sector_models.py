"""Closed-form model kernels on infinite sectors and half-planes.

Contains the separated-variables sector heat kernel, the Kontorovich-Lebedev
integral representation of the sector Green's functions, half-plane heat
kernels for Dirichlet/Neumann/Robin conditions, the Laplace-transform
consistency check between the two, and the rescaled-coordinate model kernels
with their finite-difference residual checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quad_fp
from .errors import (
    DiagonalPointError,
    DomainError,
    StepSizeError,
    ToleranceError,
    UnsupportedBCError,
    WeakEnvelopeError,
)
from .special_fns import (
    DEFAULT_CONFIG,
    _k_imag_scaled_impl,
    bessel_i_scaled,
    erfcx,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BoundaryCondition:
    """One of Dirichlet ("D"), Neumann ("N"), or Robin ("R", kappa > 0).

    A Robin condition means du/dn = kappa u with the inward normal.
    """

    kind: str
    robin_kappa: float | None = None

    def __post_init__(self):
        if self.kind not in ("D", "N", "R"):
            raise DomainError(f"boundary condition kind must be D, N or R, got {self.kind!r}")
        if self.kind == "R":
            if self.robin_kappa is None or not self.robin_kappa > 0.0:
                raise DomainError("Robin conditions need robin_kappa > 0")
        elif self.robin_kappa is not None:
            raise DomainError(f"{self.kind} conditions take no robin_kappa")

    @classmethod
    def dirichlet(cls):
        return cls("D")

    @classmethod
    def neumann(cls):
        return cls("N")

    @classmethod
    def robin(cls, kappa):
        return cls("R", float(kappa))

    @classmethod
    def parse(cls, raw):
        """The one reader of boundary-condition input: a BoundaryCondition
        (returned as is), "D", "N", "R:kappa" or ("R", kappa).

        Raises DomainError on any other value, and on a Robin kappa that is
        not a number > 0.
        """
        if isinstance(raw, cls):
            return raw
        if raw in ("D", "N"):
            return cls(raw)
        kappa = raw[2:] if isinstance(raw, str) and raw.startswith("R:") else None
        if isinstance(raw, tuple) and len(raw) == 2 and raw[0] == "R":
            kappa = raw[1]
        try:
            return cls.robin(kappa)
        except (TypeError, ValueError):
            raise DomainError(
                'boundary condition must be "D", "N", "R:kappa" or ("R", kappa) '
                f"with kappa > 0, got {raw!r}"
            ) from None


DIRICHLET = BoundaryCondition.dirichlet()
NEUMANN = BoundaryCondition.neumann()


@dataclass(frozen=True)
class SectorSpec:
    """Infinite circular sector of opening angle gamma with a boundary
    condition on each straight edge (theta = 0 and theta = gamma)."""

    gamma: float
    bc_at_0: BoundaryCondition = DIRICHLET
    bc_at_gamma: BoundaryCondition = DIRICHLET

    def __post_init__(self):
        if not 0.0 < self.gamma < _TWO_PI:
            raise DomainError(f"opening angle must lie in (0, 2*pi), got {self.gamma}")
        if self.bc_at_0.kind == "R" or self.bc_at_gamma.kind == "R":
            raise UnsupportedBCError("no sector series model exists for Robin edges")

    @property
    def pair(self):
        return self.bc_at_0.kind + self.bc_at_gamma.kind


@dataclass(frozen=True)
class AngularMode:
    """Cross-sectional eigenfunction phi_j on [0, gamma] and its Bessel order."""

    index: int
    order: float
    eigenfn: object  # theta -> phi_j(theta)


def angular_modes(spec, j):
    """j-th (1-based) angular mode of the sector cross section.

    Orders: j pi/gamma (D-D), (j-1) pi/gamma (N-N, constant first mode),
    (j-1/2) pi/gamma (mixed).  All eigenfunctions have unit L^2 norm on
    [0, gamma]; the N-N constant mode therefore carries sqrt(1/gamma).
    """
    if j < 1 or j != int(j):
        raise DomainError(f"mode index must be a positive integer, got {j}")
    g = spec.gamma
    pair = spec.pair
    if pair == "DD":
        order = j * math.pi / g
        amp = math.sqrt(2.0 / g)
        fn = lambda theta, k=order: amp * math.sin(k * theta)
    elif pair == "NN":
        order = (j - 1) * math.pi / g
        if j == 1:
            amp = math.sqrt(1.0 / g)
            fn = lambda theta, a=amp: a if np.isscalar(theta) else np.full_like(np.asarray(theta, float), a)
        else:
            amp = math.sqrt(2.0 / g)
            fn = lambda theta, k=order: amp * math.cos(k * theta)
    elif pair == "DN":
        order = (j - 0.5) * math.pi / g
        amp = math.sqrt(2.0 / g)
        fn = lambda theta, k=order: amp * math.sin(k * theta)
    elif pair == "ND":
        order = (j - 0.5) * math.pi / g
        amp = math.sqrt(2.0 / g)
        fn = lambda theta, k=order: amp * math.cos(k * theta)
    else:  # pragma: no cover - SectorSpec already rejects Robin
        raise UnsupportedBCError(f"no angular modes for pair {pair}")
    return AngularMode(index=int(j), order=order, eigenfn=fn)


def _mode_amplitudes(spec, theta, theta0, j):
    mode = angular_modes(spec, j)
    return mode.order, mode.eigenfn(theta) * mode.eigenfn(theta0)


def sector_heat_kernel(spec, t, r, theta, r0, theta0, tol=1e-12, config=DEFAULT_CONFIG):
    """Separated-variables sector heat kernel

        H(t, r, th, r0, th0) = (1/2t) e^{-(r^2+r0^2)/4t}
                               sum_j I_{mu_j}(r r0 / 2t) phi_j(th) phi_j(th0),

    evaluated with the Gaussian prefactor folded into the scaled Bessel
    function so that nothing overflows.  Truncation error is kept below tol.
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got {t}")
    if r < 0.0 or r0 < 0.0:
        raise DomainError("radii must be >= 0")
    for ang in (theta, theta0):
        if not 0.0 <= ang <= spec.gamma:
            raise DomainError(f"angle {ang} outside [0, {spec.gamma}]")
    z = r * r0 / (2.0 * t)
    log_pref = -((r - r0) ** 2) / (4.0 * t)
    pref = math.exp(log_pref) / (2.0 * t) if log_pref > -745.0 else 0.0
    if pref == 0.0:
        return 0.0
    amp2 = 2.0 / spec.gamma
    acc = 0.0
    log_half_z = math.log(0.5 * z) if z > 0.0 else -math.inf
    for j in range(1, config.max_terms + 1):
        order, phi2 = _mode_amplitudes(spec, theta, theta0, j)
        acc += bessel_i_scaled(order, z, config) * phi2
        # rigorous term bound: e^{-z} I_nu(z) <= (z/2)^nu / Gamma(nu+1)
        if z == 0.0:
            next_order = angular_modes(spec, j + 1).order
            if next_order > 0.0:
                break
            continue
        next_order = angular_modes(spec, j + 1).order
        log_bound = next_order * log_half_z - math.lgamma(next_order + 1.0)
        if j >= 5 and log_bound < math.log(tol / (4.0 * amp2 * max(pref, 1e-300))) - math.log(2.0):
            break
    else:
        raise ToleranceError(
            "sector heat kernel series did not reach the requested tolerance",
            math.exp(log_bound) * amp2 * pref,
        )
    return pref * acc


# ---------------------------------------------------------------------------
# Kontorovich-Lebedev Green's functions

def _bracket_terms(spec, phi, phi0):
    """Stable angular factors W(mu) = [bracket term] * e^{-pi mu} for the
    sector Green's function, as (callable, decay gap) pairs.

    Every factor is assembled from decaying exponentials over
    (1 -+ e^{-2 gamma mu}), so that multiplying the two K_{i mu} factors in
    e^{pi mu/2}-scaled form never produces a large intermediate.
    """
    g = spec.gamma
    pair = spec.pair
    if pair == "ND":
        # reflect theta -> gamma - theta to reuse the D-at-0 bracket
        phi, phi0 = g - phi, g - phi0
    theta = abs(phi - phi0)
    v = phi + phi0

    def a_term(mu):
        # cosh((pi - theta) mu) e^{-pi mu}
        return 0.5 * (np.exp(-theta * mu) + np.exp(-(_TWO_PI - theta) * mu))

    terms = [(a_term, theta)]

    if pair in ("DD", "NN"):
        sign = -1.0 if pair == "DD" else 1.0

        def b_term(mu, s=sign):
            # +- sinh(pi mu)/sinh(g mu) cosh((v - g) mu) e^{-pi mu}
            num = -np.expm1(-2.0 * math.pi * mu)
            den = -np.expm1(-2.0 * g * mu)
            ratio = np.where(mu > 0.0, num / np.where(den > 0.0, den, 1.0), math.pi / g)
            return s * ratio * 0.5 * (np.exp(-(2.0 * g - v) * mu) + np.exp(-v * mu))

        def c_term(mu):
            # sinh((pi - g) mu)/sinh(g mu) cosh(theta mu) e^{-pi mu},
            # which decays like e^{-(2g - theta) mu}
            num = np.exp(-(2.0 * g - theta) * mu) + np.exp(-(2.0 * g + theta) * mu) \
                - np.exp(-(_TWO_PI - theta) * mu) - np.exp(-(_TWO_PI + theta) * mu)
            den = -np.expm1(-2.0 * g * mu)
            return 0.5 * np.where(mu > 0.0, num / np.where(den > 0.0, den, 1.0), (math.pi - g) / g)

        terms.append((b_term, min(2.0 * g - v, v)))
        terms.append((c_term, 2.0 * g - theta))
    else:  # DN (possibly after the ND reflection above)

        def f_term(mu):
            # sinh(pi mu)/cosh(g mu) sinh((v - g) mu) e^{-pi mu}
            num = -np.expm1(-2.0 * math.pi * mu)
            den = 1.0 + np.exp(-2.0 * g * mu)
            return (num / den) * 0.5 * (np.exp(-(2.0 * g - v) * mu) - np.exp(-v * mu))

        def e_term(mu):
            # -cosh((pi - g) mu)/cosh(g mu) cosh(theta mu) e^{-pi mu}
            num = np.exp(-(2.0 * g - theta) * mu) + np.exp(-(2.0 * g + theta) * mu) \
                + np.exp(-(_TWO_PI - theta) * mu) + np.exp(-(_TWO_PI + theta) * mu)
            den = 1.0 + np.exp(-2.0 * g * mu)
            return -0.5 * num / den

        terms.append((f_term, min(2.0 * g - v, v)))
        terms.append((e_term, 2.0 * g - theta))
    return terms


def greens_kl(spec, s, r, phi, r0, phi0, tol=1e-10, config=DEFAULT_CONFIG):
    """Sector Green's function of s + Laplacian via the Kontorovich-Lebedev
    integral

        G = (1/pi^2) int_0^inf K_{i mu}(r sqrt s) K_{i mu}(r0 sqrt s) W(mu) dmu,

    where W collects the cosh/sinh bracket of the boundary-condition pair.
    The integrand is assembled from exponentially scaled pieces and truncated
    using the per-term angular decay gaps.
    """
    if s <= 0.0:
        raise DomainError(f"spectral parameter must be positive, got {s}")
    if r <= 0.0 or r0 <= 0.0:
        raise DomainError("radii must be positive for the KL integral")
    for ang in (phi, phi0):
        if not 0.0 <= ang <= spec.gamma:
            raise DomainError(f"angle {ang} outside [0, {spec.gamma}]")
    if r == r0 and phi == phi0:
        raise DiagonalPointError("on-diagonal Green's evaluation is rejected")
    terms = _bracket_terms(spec, phi, phi0)
    delta = min(gap for _, gap in terms)
    if delta < 1e-3:
        raise WeakEnvelopeError(
            f"angular decay gap {delta:.2e} < 1e-3: KL integral truncation unreliable"
        )
    mu_max = (-math.log(tol) + 10.0) / delta
    a = r * math.sqrt(s)
    b = r0 * math.sqrt(s)

    k_cache = {}

    def k_scaled(mu_arr, x):
        out = np.empty_like(mu_arr)
        for i, m in enumerate(mu_arr):
            key = (m, x)
            hit = k_cache.get(key)
            if hit is None:
                hit = _k_imag_scaled_impl(float(m), x, config)[0]
                k_cache[key] = hit
            out[i] = hit
        return out

    def integrand(mu):
        mu = np.asarray(mu, dtype=float)
        w = sum(term(mu) for term, _ in terms)
        return k_scaled(mu, a) * k_scaled(mu, b) * w / math.pi**2

    result = quad_fp.integrate(integrand, 0.0, mu_max, tol=tol / 2.0)
    return result.value


def _distance(r, phi, r0, phi0):
    return math.sqrt(max(r * r + r0 * r0 - 2.0 * r * r0 * math.cos(phi - phi0), 0.0))


def greens_half_plane_images(bc, s, r, phi, r0, phi0, config=DEFAULT_CONFIG):
    """gamma = pi closed form: (1/2 pi)[K_0(sqrt s d) -+ K_0(sqrt s d*)] with
    d, d* the direct and reflected distances (method of images)."""
    if bc.kind not in ("D", "N"):
        raise UnsupportedBCError("half-plane image Green's function needs D or N")
    d_direct = _distance(r, phi, r0, phi0)
    d_reflect = math.sqrt(
        max(r * r + r0 * r0 - 2.0 * r * r0 * math.cos(phi + phi0), 0.0)
    )
    sign = -1.0 if bc.kind == "D" else 1.0
    rs = math.sqrt(s)
    k0d = _k_imag_scaled_impl(0.0, rs * d_direct, config)[0]
    k0r = _k_imag_scaled_impl(0.0, rs * d_reflect, config)[0]
    return (k0d + sign * k0r) / _TWO_PI


# ---------------------------------------------------------------------------
# half-plane heat kernels

def half_plane_kernel(bc, t, x, y, x0, y0):
    """Half-plane heat kernel H(t, (x,y), (x0,y0)) on y >= 0.

    Dirichlet/Neumann by the method of images; Robin adds the correction

        -(kappa/sqrt(4 pi t)) e^{-(x-x0)^2/4t} e^{-(y+y0)^2/4t}
            erfcx((y+y0)/sqrt(4t) + kappa sqrt t),

    which equals the textbook erfc form but never over- or underflows.
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got {t}")
    if y < 0.0 or y0 < 0.0:
        raise DomainError("points must lie in the closed half-plane y >= 0")
    four_t = 4.0 * t
    gx = math.exp(-((x - x0) ** 2) / four_t)
    direct = gx * math.exp(-((y - y0) ** 2) / four_t) / (math.pi * four_t)
    image = gx * math.exp(-((y + y0) ** 2) / four_t) / (math.pi * four_t)
    if bc.kind == "D":
        return direct - image
    if bc.kind == "N":
        return direct + image
    kappa = bc.robin_kappa
    arg = (y + y0) / math.sqrt(four_t) + kappa * math.sqrt(t)
    corr = (
        -kappa
        / math.sqrt(math.pi * four_t)
        * gx
        * math.exp(-((y + y0) ** 2) / four_t)
        * erfcx(arg)
    )
    value = direct + image + corr
    if not math.isfinite(value):
        raise ToleranceError("half-plane kernel evaluation is not finite", math.inf)
    return value


def laplace_consistency(model, s, points, tol=1e-7, config=DEFAULT_CONFIG):
    """Max residual |int_0^inf e^{-s t} H(t, z, z') dt - G(s, z, z')| over
    the given off-diagonal point pairs.

    `model` is a SectorSpec (series kernel vs KL Green's function) or a
    D/N BoundaryCondition (half-plane kernel vs image Green's function).
    Points are pairs ((r, phi), (r0, phi0)) in polar coordinates; for the
    half-plane they are interpreted as such with the wall at phi in {0, pi}.
    """
    if s <= 0.0:
        raise DomainError(f"spectral parameter must be positive, got {s}")
    pairs = list(points)
    if not pairs:
        raise DomainError("need at least one point pair")
    worst = 0.0
    for (r, phi), (r0, phi0) in pairs:
        if isinstance(model, SectorSpec):
            h = lambda t: sector_heat_kernel(model, t, r, phi, r0, phi0, tol=tol * 1e-3, config=config)
            g_val = greens_kl(model, s, r, phi, r0, phi0, tol=tol * 1e-2, config=config)
        else:
            def h(t, bc=model):
                x, y = r * math.cos(phi), r * math.sin(phi)
                x1, y1 = r0 * math.cos(phi0), r0 * math.sin(phi0)
                return half_plane_kernel(bc, t, x, y, x1, y1)

            g_val = greens_half_plane_images(model, s, r, phi, r0, phi0, config)
        d = _distance(r, phi, r0, phi0)
        if d == 0.0:
            raise DiagonalPointError("Laplace consistency needs off-diagonal points")
        # integrand vanishes like e^{-d^2/4t} near 0 and like e^{-s t} at infinity
        t_lo = d * d / (4.0 * (abs(math.log(tol)) + 60.0))
        body = quad_fp.integrate(
            lambda t: np.array([math.exp(-s * tv) * h(tv) for tv in np.atleast_1d(t)]),
            t_lo,
            1.0,
            tol=tol * 1e-2,
        )
        tail = quad_fp.integrate(
            lambda t: np.array([math.exp(-s * tv) * h(tv) for tv in np.atleast_1d(t)]),
            1.0,
            math.inf,
            tol=tol * 1e-2,
            envelope=(max(h(1.0), 1e-300) * math.exp(s), s),
        )
        worst = max(worst, abs(body.value + tail.value - g_val))
    return worst


# ---------------------------------------------------------------------------
# rescaled model kernels and their model problems

def model_td(big_x, big_y):
    """Interior diagonal model (1/4 pi) e^{-X^2/4} e^{-Y^2/4}."""
    return np.exp(-0.25 * big_x**2) * np.exp(-0.25 * big_y**2) / (4.0 * math.pi)


def model_sf(big_x, xi, xi0, sign):
    """Side-face model: direct Gaussian +- image Gaussian in (xi, xi')."""
    return (
        np.exp(-0.25 * big_x**2)
        * (np.exp(-0.25 * (xi - xi0) ** 2) + sign * np.exp(-0.25 * (xi + xi0) ** 2))
        / (4.0 * math.pi)
    )


_ERFC_VEC = np.vectorize(math.erfc)


def model_sf_robin(big_x, xi, xi0, kappa):
    """Robin side-face correction model -(kappa/2 sqrt pi) e^{-X^2/4} erfc((xi+xi')/2)."""
    return -(kappa / (2.0 * math.sqrt(math.pi))) * np.exp(-0.25 * big_x**2) * _ERFC_VEC(
        0.5 * (xi + xi0)
    )


# second_deriv marks the axes carrying -d^2/dv^2; every axis carries the
# drift -(v/2) d/dv.  In side-face coordinates (X, xi, xi') the operator has
# no xi'-second derivative (it acts from the left, i.e. in the unprimed slot).
_MODELS = {
    "td": {"dims": 2, "factor": 1.0, "second_deriv": (True, True)},
    "sf_N": {"dims": 3, "factor": 1.0, "second_deriv": (True, True, False)},
    "sf_D": {"dims": 3, "factor": 1.0, "second_deriv": (True, True, False)},
    "sf_R": {"dims": 3, "factor": 0.5, "second_deriv": (True, True, False)},
}


def model_residual(model, grid, h=1e-3, kappa=1.0, check_step=True):
    """Max |(t L - c Id) model| over the grid, by central differences.

    The lifted operator in side-face coordinates is
        t L = (1/2) sqrt{t} d_{sqrt t} - d_XX - X/2 d_X - d_{xi xi}
              - xi/2 d_xi - xi'/2 d_{xi'},
    and the sqrt{t}-derivative acting on T^{-p} (model) contributes the
    multiple -p/2 of the identity; for the order -2 models this leaves
    (t L - Id) and for the order -1 Robin correction (t L - Id/2), both of
    which must annihilate the model.  In diagonal coordinates (X, Y) the
    xi-derivatives are replaced by Y-derivatives.
    """
    if model not in _MODELS:
        raise DomainError(f"unknown model {model!r}; choose from {sorted(_MODELS)}")
    spec = _MODELS[model]

    if model == "td":
        fn = lambda X, Y: model_td(X, Y)
    elif model == "sf_N":
        fn = lambda X, xi, xi0: model_sf(X, xi, xi0, +1.0)
    elif model == "sf_D":
        fn = lambda X, xi, xi0: model_sf(X, xi, xi0, -1.0)
    else:
        fn = lambda X, xi, xi0: model_sf_robin(X, xi, xi0, kappa)

    pts = [np.asarray(g, dtype=float) for g in grid]
    if len(pts) != spec["dims"]:
        raise DomainError(f"model {model} expects a {spec['dims']}-coordinate grid")

    def residual_at(step):
        mesh = np.meshgrid(*pts, indexing="ij")
        f0 = fn(*mesh)
        spatial = np.zeros_like(f0)
        for axis in range(len(mesh)):
            shift_p = [m.copy() for m in mesh]
            shift_m = [m.copy() for m in mesh]
            shift_p[axis] = mesh[axis] + step
            shift_m[axis] = mesh[axis] - step
            fp = fn(*shift_p)
            fm = fn(*shift_m)
            if spec["second_deriv"][axis]:
                spatial += -(fp - 2.0 * f0 + fm) / (step * step)
            spatial += -0.5 * mesh[axis] * (fp - fm) / (2.0 * step)
        return float(np.max(np.abs(spatial - spec["factor"] * f0)))

    res = residual_at(h)
    if check_step:
        res_half = residual_at(0.5 * h)
        if res > 1e-5 and res_half < res / 3.0:
            raise StepSizeError(
                f"residual {res:.3e} is discretization dominated; retry with h <= {h/2}"
            )
        res = min(res, res_half)
    return res
