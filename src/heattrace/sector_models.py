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
    _LOG_HUGE,
    _MAX_TERMS,
    _ive_entries,
    _k_imag_scaled_impl,
    _k_imag_scaled_table,
    bessel_i_scaled,  # unused here; the benchmark tracer patches it (ROADMAP item 1)
    erfc,
    erfcx,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BoundaryCondition:
    """One of Dirichlet ("D"), Neumann ("N"), or Robin ("R", finite kappa > 0).

    A Robin condition means du/dn = kappa u with the inward normal.
    """

    kind: str
    robin_kappa: float | None = None

    def __post_init__(self):
        if self.kind not in ("D", "N", "R"):
            raise DomainError(f"boundary condition kind must be D, N or R, got {self.kind!r}",
                              field="kind")
        if self.kind == "R":
            if self.robin_kappa is None or not 0.0 < self.robin_kappa < math.inf:
                raise DomainError("Robin conditions need a finite robin_kappa > 0",
                                  field="robin_kappa")
        elif self.robin_kappa is not None:
            raise DomainError(f"{self.kind} conditions take no robin_kappa", field="robin_kappa")

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
        not a finite number > 0.
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
                f"with finite kappa > 0, got {raw!r}"
            ) from None


DIRICHLET = BoundaryCondition.dirichlet()
NEUMANN = BoundaryCondition.neumann()


@dataclass(frozen=True)
class SectorSpec:
    """Infinite circular sector of opening angle gamma with a boundary
    condition on each straight edge (theta = 0 and theta = gamma).  An error
    names the first bad field, checked in that order."""

    gamma: float
    bc_at_0: BoundaryCondition = DIRICHLET
    bc_at_gamma: BoundaryCondition = DIRICHLET

    def __post_init__(self):
        check_angle("gamma", self.gamma)
        for name in ("bc_at_0", "bc_at_gamma"):
            if getattr(self, name).kind == "R":
                raise UnsupportedBCError("no sector series model exists for Robin edges",
                                         field=name)

    @property
    def pair(self):
        return self.bc_at_0.kind + self.bc_at_gamma.kind


# c of the order ladder (j + c) pi/gamma for each straight-edge pair
_LADDER_OFFSET = {"DD": 1.0, "NN": 0.0, "DN": 0.5, "ND": 0.5}


def mode_order(pair, gamma, j):
    """Bessel order of the j-th (0-based) angular mode of a sector of opening
    gamma whose straight edges carry the pair DD, NN, DN or ND:

        (j + c) pi/gamma,  c = 1 (DD), 0 (NN), 1/2 (DN, ND).

    This is the one place the ladder is written; the sector kernel, the
    corner mode sum and the sector spectra all read their orders here.
    Raises UnsupportedBCError for a pair that has no ladder (Robin edges).
    """
    try:
        c = _LADDER_OFFSET[pair]
    except KeyError:
        raise UnsupportedBCError(
            f"no sector mode ladder for pair {pair!r} (Robin edges have none); "
            "the pair must be DD, NN, DN or ND"
        ) from None
    return (j + c) * (math.pi / gamma)


def check_coordinate(name, values, hi, zero_ok):
    """`values` (a number or an array) as a float array, after checking that
    each is a finite number in [0, hi], or in (0, hi] when not zero_ok.

    The one range check of point coordinates and of sizes: the kernels, the
    Green's functions, the spectra, the polygon specs and the CLI's arguments
    all call it.  Raises DomainError with field `name`, naming the value and
    its first entry out of range.
    """
    v = np.asarray(values, dtype=float)
    ok = np.isfinite(v) & ((v >= 0.0) if zero_ok else (v > 0.0)) & (v <= hi)
    if not ok.all():
        want = (">= 0" if zero_ok else "> 0") if hi == math.inf else f"in [0, {hi!r}]"
        raise DomainError(f"{name} must be {want}, got {float(v[~ok].flat[0])!r}", field=name)
    return v


def check_angle(name, value):
    """The one check of a corner or opening angle: raises DomainError with
    field `name` unless `value` is a number in (0, 2*pi)."""
    if not 0.0 < value < _TWO_PI:
        raise DomainError(f"{name} must lie in (0, 2*pi), got {value!r}", field=name)


_KERNEL_ROWS = 128  # points per I-block of sector_heat_kernel; bounds its memory


def sector_heat_kernel(spec, t, r, theta, r0, theta0, tol=1e-12):
    """Separated-variables sector heat kernel

        H(t, r, th, r0, th0) = (1/2t) e^{-(r^2+r0^2)/4t}
                               sum_j I_{mu_j}(r r0 / 2t) phi_j(th) phi_j(th0),

    evaluated with the Gaussian prefactor folded into the scaled Bessel
    function so that nothing overflows.  Truncation error is kept below tol.

    The five coordinates are numbers or arrays that broadcast together; the
    result has their broadcast shape, and is a float when all five are
    numbers.  Each point keeps its own cutoff (see _mode_counts), and only
    the e^{-z} I_nu(z) of the modes it keeps are evaluated: one
    special_fns._ive_entries call per block of at most _KERNEL_ROWS points,
    at any z (its docstring states the branches).  Raises DomainError
    (field t) where z = r r0 / 2t, the prefactor e^{-(r - r0)^2/4t} / 2t or
    the value overflows and the Gaussian factor does not underflow; where
    it does, the kernel is 0.
    """
    check_coordinate("tol", tol, math.inf, False)
    t = check_coordinate("t", t, math.inf, False)
    r = check_coordinate("r", r, math.inf, True)
    r0 = check_coordinate("r0", r0, math.inf, True)
    theta = check_coordinate("theta", theta, spec.gamma, True)
    theta0 = check_coordinate("theta0", theta0, spec.gamma, True)
    points = np.broadcast_arrays(t, r, theta, r0, theta0)
    shape = points[0].shape
    t, r, theta, r0, theta0 = (a.ravel() for a in points)
    with np.errstate(over="ignore"):  # what overflows is refused below where it matters
        z = r * r0 / (2.0 * t)
        log_pref = -((r - r0) ** 2) / (4.0 * t)
        pref = np.where(log_pref > -745.0, np.exp(log_pref) / (2.0 * t), 0.0)
    out = np.zeros(z.size)
    live = np.flatnonzero(pref > 0.0)
    if np.isinf(z[live]).any() or np.isinf(pref[live]).any():
        raise DomainError("r r0 / 2t or 1/2t overflows where the Gaussian factor does not "
                          "underflow", field="t")
    # by increasing z, so that a block's rows need similar mode counts and
    # leave its series in turn
    live = live[np.argsort(z[live], kind="stable")]
    counts = _mode_counts(spec, z[live], pref[live], tol)
    for start in range(0, live.size, _KERNEL_ROWS):
        rows = live[start:start + _KERNEL_ROWS]
        n = counts[start:start + _KERNEL_ROWS]
        with np.errstate(over="ignore"):
            out[rows] = pref[rows] * _mode_sums(spec, n, z[rows], theta[rows], theta0[rows])
    if np.isinf(out).any():
        raise DomainError("the sector heat kernel overflows", field="t")
    return out.reshape(shape) if shape else float(out[0])


def _mode_counts(spec, z, pref, tol):
    """How many modes each point keeps.

    A point at z = 0 keeps the first mode only.  Any other keeps the first
    j >= 5 modes after which the rigorous bound e^{-z} I_nu(z) <=
    (z/2)^nu / Gamma(nu+1) of the next order nu is below its share of tol.
    Raises ToleranceError when a point would need more than _MAX_TERMS.
    """
    # corner_lab._log_mode_bound is sharper, but here it measured no faster and moved the
    # benchmark's `kernels` digits_mean 12.976 -> 12.762: the grids' digits measure this cutoff.
    counts = np.ones(z.size, dtype=int)
    pos = np.flatnonzero(z > 0.0)
    log_half_z = np.log(z[pos]) + math.log(0.5)
    amp2 = 2.0 / spec.gamma  # bounds every |phi_j(theta) phi_j(theta0)|
    log_share = np.log(tol / (8.0 * amp2 * np.maximum(pref[pos], 1e-300)))
    open_rows = np.arange(pos.size)  # indices into pos still without a cutoff
    j = 5
    while open_rows.size:
        if j > _MAX_TERMS:
            log_err = log_bound[0, -1] + math.log(amp2 * pref[pos[open_rows[0]]])
            raise ToleranceError(
                "sector heat kernel series did not reach the requested tolerance",
                math.exp(log_err) if log_err < _LOG_HUGE else math.inf,
            )
        js = np.arange(j, min(2 * j, _MAX_TERMS + 1))
        nxt = mode_order(spec.pair, spec.gamma, js)
        lg = np.array([math.lgamma(v + 1.0) for v in nxt])
        log_bound = nxt * log_half_z[open_rows, None] - lg
        below = log_bound < log_share[open_rows, None]
        found = below.any(axis=1)
        counts[pos[open_rows[found]]] = js[below[found].argmax(axis=1)]
        open_rows = open_rows[~found]
        log_bound = log_bound[~found]
        j = int(js[-1]) + 1
    return counts


def _mode_sums(spec, counts, z, theta, theta0):
    """sum_{j < counts} e^{-z} I_{mu_j}(z) phi_j(theta) phi_j(theta0) per
    point, added mode by mode; the I values and weights are evaluated at the
    kept (point, mode) entries only."""
    m = int(counts.max())
    orders = mode_order(spec.pair, spec.gamma, np.arange(m))
    rows, cols = np.nonzero(np.arange(m) < counts[:, None])
    mu = orders[cols]
    # unit-norm eigenfunctions: sines from a Dirichlet edge at theta = 0,
    # cosines from a Neumann one; the N-N constant mode has norm 1/gamma
    trig = np.sin if spec.bc_at_0.kind == "D" else np.cos
    weights = (np.where(orders == 0.0, 1.0, 2.0) / spec.gamma)[cols] \
        * trig(theta[rows] * mu) * trig(theta0[rows] * mu)
    terms = np.zeros((counts.size, m))
    terms[rows, cols] = _ive_entries(orders, cols, z[rows]) * weights
    # cumsum adds left to right, so the zeros past a row's count leave its sum unchanged
    return np.cumsum(terms, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# Kontorovich-Lebedev Green's functions

def _bracket_terms(pair, g, phi, phi0):
    """Stable angular factors W(mu) = [bracket term] * e^{-pi mu} of the
    Green's function of the sector (pair, opening g), as (callable, decay
    gap) pairs keyed by term name: A, B, C for DD and NN, A, F, E for DN and
    ND.  greens_kl sums them; corner_lab.term_contributions reads C and E.

    Every factor is assembled from decaying exponentials over
    (1 -+ e^{-2 g mu}), so that multiplying the two K_{i mu} factors in
    e^{pi mu/2}-scaled form never produces a large intermediate.
    """
    if pair == "ND":
        # reflect theta -> g - theta to reuse the D-at-0 bracket
        phi, phi0 = g - phi, g - phi0
    theta = abs(phi - phi0)
    v = phi + phi0

    def a_term(mu):
        # cosh((pi - theta) mu) e^{-pi mu}
        return 0.5 * (np.exp(-theta * mu) + np.exp(-(_TWO_PI - theta) * mu))

    terms = {"A": (a_term, theta)}

    if pair in ("DD", "NN"):
        sign = -1.0 if pair == "DD" else 1.0

        def b_term(mu, s=sign):
            # +- sinh(pi mu)/sinh(g mu) cosh((v - g) mu) e^{-pi mu}
            num = -np.expm1(-2.0 * math.pi * mu)
            den = -np.expm1(-2.0 * g * mu)
            ratio = np.where(mu > 0.0, num / np.where(den > 0.0, den, 1.0), math.pi / g)
            return s * ratio * 0.5 * (np.exp(-(2.0 * g - v) * mu) + np.exp(-v * mu))

        def c_term(mu):
            # sinh((pi - g) mu)/sinh(g mu) cosh(theta mu) e^{-pi mu}, which
            # decays like e^{-(2h - theta) mu}, h = min(g, pi); (pi - g)/g at
            # mu = 0.  sinh((pi - g) mu) goes through expm1, so nothing
            # cancels as mu -> 0, and no exponential grows
            h = min(g, math.pi)
            num = math.copysign(1.0, math.pi - g) * -np.expm1(-2.0 * abs(math.pi - g) * mu) \
                * (np.exp(-(2.0 * h - theta) * mu) + np.exp(-(2.0 * h + theta) * mu))
            den = -np.expm1(-2.0 * g * mu)
            return np.where(mu > 0.0, 0.5 * num / np.where(den > 0.0, den, 1.0), (math.pi - g) / g)

        terms["B"] = (b_term, min(2.0 * g - v, v))
        terms["C"] = (c_term, 2.0 * min(g, math.pi) - theta)
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

        terms["F"] = (f_term, min(2.0 * g - v, v))
        terms["E"] = (e_term, 2.0 * min(g, math.pi) - theta)
    return terms


def greens_kl(spec, s, r, phi, r0, phi0, tol=1e-10):
    """Sector Green's function of s + Laplacian via the Kontorovich-Lebedev
    integral

        G = (1/pi^2) int_0^inf K_{i mu}(r sqrt s) K_{i mu}(r0 sqrt s) W(mu) dmu,

    where W collects the cosh/sinh bracket of the boundary-condition pair.
    The integrand is assembled from exponentially scaled pieces and truncated
    using the per-term angular decay gaps.  Each quadrature step takes both
    K factors at all its mu nodes from one call of the batched table
    special_fns._k_imag_scaled_table.  Raises ToleranceError when the
    error the K factors carry into the integrand, (e_a |K_b| + e_b |K_a| +
    e_a e_b) |W| / pi^2 with e the table's abs_err, integrated over
    [0, mu_max] on the quadrature's nodes, exceeds tol/2.
    """
    check_coordinate("tol", tol, math.inf, False)
    check_coordinate("s", s, math.inf, False)
    check_coordinate("r", r, math.inf, False)  # K_{i mu} has no value at 0
    check_coordinate("r0", r0, math.inf, False)
    check_coordinate("phi", phi, spec.gamma, True)
    check_coordinate("phi0", phi0, spec.gamma, True)
    if r == r0 and phi == phi0:
        raise DiagonalPointError("on-diagonal Green's evaluation is rejected")
    terms = _bracket_terms(spec.pair, spec.gamma, phi, phi0).values()
    delta = min(gap for _, gap in terms)
    if delta < 1e-3:
        raise WeakEnvelopeError(
            f"angular decay gap {delta:.2e} < 1e-3: KL integral truncation unreliable"
        )
    mu_max = (-math.log(tol) + 10.0) / delta
    a = r * math.sqrt(s)
    b = r0 * math.sqrt(s)

    # one K table per integrand call, one column when the radii coincide
    xs = [a] if a == b else [a, b]
    seen = []  # (nodes, the error the K factors carry into the integrand there)

    def integrand(mu):
        w = sum(term(mu) for term, _ in terms)
        k, e = _k_imag_scaled_table(mu, xs)
        spread = e[:, 0] * np.abs(k[:, -1]) + e[:, -1] * np.abs(k[:, 0]) + e[:, 0] * e[:, -1]
        seen.append((mu, spread * np.abs(w) / math.pi**2))
        return k[:, 0] * k[:, -1] * w / math.pi**2

    result = quad_fp.integrate(integrand, 0.0, mu_max, tol=tol / 2.0)
    mus, spread = (np.concatenate(part) for part in zip(*seen))
    order = np.argsort(mus)
    mus, spread = mus[order], spread[order]
    # each node stands for the mu up to halfway to its neighbours
    cuts = np.concatenate([[0.0], 0.5 * (mus[1:] + mus[:-1]), [mu_max]])
    k_err = float(np.dot(spread, np.diff(cuts)))
    if k_err > tol / 2.0:
        raise ToleranceError("the K_{i mu} factors' error exceeds the Green's function tol",
                             k_err)
    return result.value


def _distance(r, phi, r0, phi0):
    return math.sqrt(max(r * r + r0 * r0 - 2.0 * r * r0 * math.cos(phi - phi0), 0.0))


def greens_half_plane_images(bc, s, r, phi, r0, phi0):
    """gamma = pi closed form: (1/2 pi)[K_0(sqrt s d) -+ K_0(sqrt s d*)] with
    d, d* the direct and reflected distances (method of images).  The points
    are polar, with the wall at phi in {0, pi}; each coordinate is
    range-checked as in greens_kl, except that r and r0 may be 0."""
    if bc.kind not in ("D", "N"):
        raise UnsupportedBCError("half-plane image Green's function needs D or N")
    check_coordinate("s", s, math.inf, False)
    for name, v, hi in (("r", r, math.inf), ("phi", phi, math.pi),
                        ("r0", r0, math.inf), ("phi0", phi0, math.pi)):
        check_coordinate(name, v, hi, True)
    d_direct = _distance(r, phi, r0, phi0)
    if d_direct == 0.0:
        raise DiagonalPointError("on-diagonal Green's evaluation is rejected")
    d_reflect = _distance(r, phi, r0, -phi0)
    sign = -1.0 if bc.kind == "D" else 1.0
    rs = math.sqrt(s)
    k0d = _k_imag_scaled_impl(0.0, rs * d_direct)[0]
    k0r = _k_imag_scaled_impl(0.0, rs * d_reflect)[0]
    return (k0d + sign * k0r) / _TWO_PI


# ---------------------------------------------------------------------------
# half-plane heat kernels

def half_plane_kernel(bc, t, x, y, x0, y0):
    """Half-plane heat kernel H(t, (x,y), (x0,y0)) on y >= 0.

    Dirichlet/Neumann by the method of images; Robin adds the correction

        -(kappa/sqrt(4 pi t)) e^{-(x-x0)^2/4t} e^{-(y+y0)^2/4t}
            erfcx((y+y0)/sqrt(4t) + kappa sqrt t),

    which equals the textbook erfc form but never over- or underflows.  The
    coordinates are numbers or arrays that broadcast together; the result
    has their broadcast shape, and is a float when all five are numbers.
    A Gaussian factor that underflows gives 0; raises DomainError (field t)
    where the value overflows, which takes t below ~1e-309.
    """
    t = check_coordinate("t", t, math.inf, False)
    y = check_coordinate("y", y, math.inf, True)
    y0 = check_coordinate("y0", y0, math.inf, True)
    for name, v in (("x", x), ("x0", x0)):
        if not np.isfinite(v).all():
            raise DomainError(f"{name} must be finite", field=name)
    four_t = 4.0 * t
    with np.errstate(over="ignore", invalid="ignore"):  # refused below where it matters
        gx = np.exp(-np.subtract(x, x0) ** 2 / four_t)
        direct = gx * np.exp(-((y - y0) ** 2) / four_t) / (math.pi * four_t)
        image = gx * np.exp(-((y + y0) ** 2) / four_t) / (math.pi * four_t)
        if bc.kind == "D":
            value = direct - image
        elif bc.kind == "N":
            value = direct + image
        else:
            kappa = bc.robin_kappa
            arg = (y + y0) / np.sqrt(four_t) + kappa * np.sqrt(t)
            corr = (
                -kappa
                / np.sqrt(math.pi * four_t)
                * gx
                * np.exp(-((y + y0) ** 2) / four_t)
                * erfcx(arg)
            )
            value = direct + image + corr
    if not np.isfinite(value).all():
        raise DomainError("the half-plane heat kernel overflows", field="t")
    return value if np.ndim(value) else float(value)


def laplace_consistency(model, s, points, tol=1e-7):
    """Max residual |int_0^inf e^{-s t} H(t, z, z') dt - G(s, z, z')| over
    the given off-diagonal point pairs.

    `model` is a SectorSpec (series kernel vs KL Green's function) or a
    D/N BoundaryCondition (half-plane kernel vs image Green's function).
    Points are pairs ((r, phi), (r0, phi0)) in polar coordinates; for the
    half-plane they are interpreted as such with the wall at phi in {0, pi}.
    Each quadrature step hands the nodes of all its new panels to the
    kernel in one call (see quad_fp.integrate).
    """
    check_coordinate("tol", tol, math.inf, False)
    check_coordinate("s", s, math.inf, False)
    pairs = list(points)
    if not pairs:
        raise DomainError("need at least one point pair", field="points")
    worst = 0.0
    for (r, phi), (r0, phi0) in pairs:
        if isinstance(model, SectorSpec):
            h = lambda t: sector_heat_kernel(model, t, r, phi, r0, phi0, tol=tol * 1e-3)
            g_val = greens_kl(model, s, r, phi, r0, phi0, tol=tol * 1e-2)
        else:
            x, y = r * math.cos(phi), r * math.sin(phi)
            x0, y0 = r0 * math.cos(phi0), r0 * math.sin(phi0)
            h = lambda t: half_plane_kernel(model, t, x, y, x0, y0)
            g_val = greens_half_plane_images(model, s, r, phi, r0, phi0)
        d = _distance(r, phi, r0, phi0)
        if d == 0.0:
            raise DiagonalPointError("Laplace consistency needs off-diagonal points")
        integrand = lambda t: np.exp(-s * t) * h(t)
        # integrand vanishes like e^{-d^2/4t} near 0 and like e^{-s t} at infinity
        t_lo = d * d / (4.0 * (abs(math.log(tol)) + 60.0))
        body = quad_fp.integrate(integrand, t_lo, 1.0, tol=tol * 1e-2)
        tail = quad_fp.integrate(
            integrand,
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


def model_sf_robin(big_x, xi, xi0, kappa):
    """Robin side-face correction model -(kappa/2 sqrt pi) e^{-X^2/4} erfc((xi+xi')/2)."""
    return -(kappa / (2.0 * math.sqrt(math.pi))) * np.exp(-0.25 * big_x**2) * erfc(
        0.5 * (xi + xi0)
    )


# name -> (model(*coords, kappa), factor c, second_deriv).  second_deriv
# marks the axes carrying -d^2/dv^2, one per coordinate; every axis carries
# the drift -(v/2) d/dv.  In side-face coordinates (X, xi, xi') the operator
# has no xi'-second derivative (it acts from the left, i.e. in the unprimed
# slot).
_MODELS = {
    "td": (lambda X, Y, kappa: model_td(X, Y), 1.0, (True, True)),
    "sf_N": (lambda X, xi, xi0, kappa: model_sf(X, xi, xi0, +1.0), 1.0, (True, True, False)),
    "sf_D": (lambda X, xi, xi0, kappa: model_sf(X, xi, xi0, -1.0), 1.0, (True, True, False)),
    "sf_R": (model_sf_robin, 0.5, (True, True, False)),
}

_FD_STEP = 1e-3  # central-difference step of model_residual


def model_residual(model, grid, kappa=1.0):
    """Max |(t L - c Id) model| over the grid, by central differences with
    step 1e-3, checked against the half step.

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
        raise DomainError(f"unknown model {model!r}; choose from {sorted(_MODELS)}", field="model")
    model_fn, factor, second_deriv = _MODELS[model]
    fn = lambda *coords: model_fn(*coords, kappa)

    pts = [np.asarray(g, dtype=float) for g in grid]
    if len(pts) != len(second_deriv):
        raise DomainError(f"model {model} expects a {len(second_deriv)}-coordinate grid",
                          field="grid")

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
            if second_deriv[axis]:
                spatial += -(fp - 2.0 * f0 + fm) / (step * step)
            spatial += -0.5 * mesh[axis] * (fp - fm) / (2.0 * step)
        return float(np.max(np.abs(spatial - factor * f0)))

    res = residual_at(_FD_STEP)
    res_half = residual_at(0.5 * _FD_STEP)
    if res > 1e-5 and res_half < res / 3.0:
        raise StepSizeError(
            f"residual {res:.3e} is discretization dominated at step {_FD_STEP:g}"
        )
    return min(res, res_half)
