"""Corner contributions to the t^0 heat-trace coefficient.

Closed forms for every boundary-condition pair, an independent numerical
route through the renormalized (finite-part) radial integral of the sector
mode sum, and the per-term diagonal trace contributions of the sector
Green's function decomposition.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quad_fp
from .errors import DomainError
from .sector_models import _bracket_terms, check_angle, mode_order
# _k_imag_scaled_table, bessel_i_scaled: unused; the benchmark tracer patches them
from .special_fns import _k_imag_scaled_table, bessel_i_scaled, bessel_i_scaled_many

_SAME_TYPE_PAIRS = frozenset({"DD", "NN", "RR", "NR", "RN"})
_MIXED_PAIRS = frozenset({"DN", "ND", "DR", "RD"})


@dataclass(frozen=True)
class CornerKind:
    """A vertex type: boundary-condition pair on the two edges plus angle."""

    pair: str
    alpha: float

    def __post_init__(self):
        if self.pair not in _SAME_TYPE_PAIRS | _MIXED_PAIRS:
            raise DomainError(f"unknown boundary pair {self.pair!r}", field="pair")
        check_angle("alpha", self.alpha)

    @property
    def same_type(self):
        """True when zero or two of the adjacent edges are Dirichlet."""
        return self.pair in _SAME_TYPE_PAIRS


def corner_coeff(kind):
    """Closed-form t^0 corner contribution for a vertex of angle alpha:

        (pi^2 - alpha^2) / (24 pi alpha)    zero or two Dirichlet edges,
        -(pi^2 + 2 alpha^2) / (48 pi alpha) exactly one Dirichlet edge.

    Robin edges count as non-Dirichlet (their corner models are Neumann).
    """
    a = kind.alpha
    if kind.same_type:
        return (math.pi**2 - a * a) / (24.0 * math.pi * a)
    return -(math.pi**2 + 2.0 * a * a) / (48.0 * math.pi * a)


def cone_point_coeff(opening):
    """Heat-trace t^0 contribution of an isolated conical point of the given
    opening angle 2*alpha: (pi^2 - alpha^2) / (12 pi alpha).

    An opening of 2*pi is a smooth point and contributes zero.
    """
    if not (opening > 0.0 and math.isfinite(opening)):
        raise DomainError(f"cone opening must be positive and finite, got {opening}",
                          field="opening")
    alpha = 0.5 * opening
    return (math.pi**2 - alpha * alpha) / (12.0 * math.pi * alpha)


# ---------------------------------------------------------------------------
# finite-part route: f.p. of int_0^{1/eps} (1/2) R e^{-R^2/2} sum_j I_{mu_j}(R^2/2) dR

CORNER_EPS_SCHEDULE = quad_fp.default_eps_schedule(eps_max=0.25, ratio=0.85, count=14)
CORNER_BASIS = (-2, -1, 0, 1, 3, 5)  # the cutoff expansion has no even powers >= 2
_MODE_TOL = 1e-16  # truncation bound of the corner mode ladder
_RADIAL_RULE = 10  # Gauss nodes per panel of the radial integral
_VERTEX_GRADING = 0.25 ** np.arange(12.0, -1.0, -1.0)  # graded edges on (0, 1], first 6e-8


def _log_mode_bound(nu, z):
    """log of the rigorous bound, for nu >= 0 and z > 0 (arrays broadcast),

        e^{-z} I_nu(z) <= (z/2)^nu / Gamma(nu+1) * exp(z^2 / (4 (nu+1)) - z),

    which holds term by term in the series of I_nu because Gamma(nu+k+1) >=
    Gamma(nu+1) (nu+1)^k.  It decreases in nu at every z: with x = nu + 1
    and y = z/(2x), its nu-derivative is log y - y^2 + log x - psi(x), where
    log y - y^2 <= -0.84 and log x - psi(x) is below 1/x and below 0.58."""
    nu = np.asarray(nu, dtype=float)
    z = np.asarray(z, dtype=float)
    lg = np.vectorize(math.lgamma, otypes=[float])(nu + 1.0)
    return nu * np.log(0.5 * z) - lg + z * z / (4.0 * (nu + 1.0)) - z


def _corner_orders(pair, alpha, z_max):
    """Bessel orders mode_order(pair, alpha, j), j = 0, 1, ..., of the sector
    mode sum, up to the first order whose _log_mode_bound at z_max is below
    _MODE_TOL; every later order is below it too, at every z <= z_max
    (for nu >= 1 the bound grows with z), bounding j < n in one array call
    for n doubling up to 100,001.  Robin pairs have no ladder (their corners
    use the Neumann formula) and raise UnsupportedBCError."""
    log_tol = math.log(_MODE_TOL)
    for n in [64 << k for k in range(11)] + [100_001]:
        orders = mode_order(pair, alpha, np.arange(n))
        below = np.flatnonzero(_log_mode_bound(orders, z_max) < log_tol)
        if below.size:
            return orders[:below[0]]
    raise DomainError("mode ladder did not truncate; angle too large?")


def _radial_nodes(a, b):
    """Radial Gauss nodes and weights of the cutoff segment [a, b], increasing:
    one panel per level of _VERTEX_GRADING on (0, min(b, 1)] when a = 0, then
    panels of length <= 1."""
    top = min(b, 1.0) if a == 0.0 else a
    graded = top * _VERTEX_GRADING if a == 0.0 else ()
    uniform = np.linspace(top, b, math.ceil(b - top) + 1)[1:]
    return quad_fp.edge_nodes(np.concatenate([[a], graded, uniform]), _RADIAL_RULE)


def _cumulative_mode_integral(orders, cutoffs):
    """F(L) = int_0^L (1/2) R e^{-R^2/2} sum_j I_{nu_j}(R^2/2) dR at each
    cutoff (increasing), on the nodes of _radial_nodes: mode j behaves like
    R^{2 nu_j + 1} at the vertex, with nu_0 as low as 1/4 (DN near 2 pi), so
    the panels there are graded; beyond R = 1 the modes switch on like
    e^{-nu^2/R^2}, smooth on a scale >= 1.

    Each segment between cutoffs sums the prefix of the ladder `orders` up to
    the last order whose _log_mode_bound reaches _MODE_TOL at some node of
    the segment (at least one order), so every order it leaves out is below
    _MODE_TOL at all its nodes.  For orders >= 1 the bound grows with z, so
    the segment's largest node decides them; orders below 1 are checked at
    every node.
    """
    edges = np.concatenate([[0.0], np.asarray(cutoffs)])
    log_tol = math.log(_MODE_TOL)
    total = 0.0
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        r_nodes, w_nodes = _radial_nodes(a, b)
        z = 0.5 * r_nodes * r_nodes
        reach = _log_mode_bound(orders, z.max()) >= log_tol
        low = orders < 1.0
        reach[low] |= (_log_mode_bound(orders[low], z[:, None]) >= log_tol).any(axis=0)
        needed = np.flatnonzero(reach)
        keep = int(needed[-1]) + 1 if needed.size else 1
        # one (nodes x orders) block per segment; rows are summed one by one
        # and accumulated in node order
        block = bessel_i_scaled_many(orders[:keep], z)
        for r_node, w, row in zip(r_nodes, w_nodes, block):
            total += w * 0.5 * r_node * float(row.sum())
        out.append(total)
    return np.array(out)


def corner_finite_part(pair, alpha, eps_schedule=CORNER_EPS_SCHEDULE):
    """Full finite-part extraction for the renormalized corner integral,
    fitted against CORNER_BASIS.

    Returns the FinitePartResult whose finite_part is the numerical corner
    coefficient; corner_coeff(CornerKind(pair, alpha)) is the closed form it
    must reproduce.  The mode sum evaluates e^{-z} I_nu(z) up to
    z = 1/(2 eps^2) in bessel_i_scaled_many blocks, which have no argument
    cap (special_fns._ive_entries states their branches).  So any schedule
    that quad_fp.check_eps_schedule accepts is, before anything is
    integrated; narrow corners need small eps (down to 0.0117 at
    alpha = 0.3) before the expansion is asymptotic.
    """
    check_angle("alpha", alpha)
    eps = quad_fp.check_eps_schedule(eps_schedule, CORNER_BASIS, field="eps_schedule")
    cutoffs = 1.0 / eps  # increasing, since eps decreases
    z_max = 0.5 * cutoffs.max() ** 2
    orders = _corner_orders(pair, alpha, z_max)
    values = _cumulative_mode_integral(orders, cutoffs)
    return quad_fp.finite_part(eps, values, basis=CORNER_BASIS)


def corner_coeff_numeric(pair, alpha):
    """Numerical corner coefficient: corner_finite_part(pair, alpha).finite_part.

    At the default schedule (eps from 0.25 down to 0.030) it is within 3e-6
    of corner_coeff for DD, NN and DN at every alpha >= 1.05 tried, and
    within 1e-4 at alpha = pi/4.  It is not asymptotic when pi/alpha, the
    scale of the lowest mode order, is large against the cutoffs
    1/eps <= 33: at alpha = 0.3 it is off by 0.066, with the usual fit
    condition number, so nothing in the result flags it.  There
    corner_finite_part with 14 eps from 0.0615 down to 0.0117 is within
    1e-9.
    """
    return corner_finite_part(pair, alpha).finite_part


def i0_radial_finite_part(eps_max=0.15):
    """Finite part of int_0^{1/eps} (1/2) R e^{-R^2/2} I_0(R^2/2) dR.

    This is the difference between the N-N and D-D mode sums (the extra zero
    mode); its finite part vanishes because the cutoff expansion carries only
    odd powers of eps.  With u = R^2/2 the cutoff integral is exactly
    (1/2) int_0^{L^2/2} e^{-u} I_0(u) du = g(L^2/2)/2, g = _primitive_g, so
    the 14 cutoffs cost one block of primitive values and no quadrature.
    """
    eps = np.asarray(quad_fp.default_eps_schedule(eps_max=eps_max, ratio=0.85, count=14))
    lam = 1.0 / eps
    values = 0.5 * _primitive_g(0.5 * lam * lam)
    return quad_fp.finite_part(eps, values, basis=CORNER_BASIS)


# ---------------------------------------------------------------------------
# per-term trace contributions of the Green's-function decomposition

_TERM_NAMES = ("A", "B", "C", "E", "F")


def _primitive_g(u):
    """g(u) = e^{-u} u (I_0(u) + I_1(u)), g'(u) = e^{-u} I_0(u), at each entry of u."""
    return u * bessel_i_scaled_many([0.0, 1.0], u).sum(axis=-1)


def _fit_against_tau(taus, values):
    """Coefficient of tau^0 in a {tau^2, tau, 1, 1/tau} weighted LS fit."""
    taus = np.asarray(taus, dtype=float)
    design = np.stack([taus**2, taus, np.ones_like(taus), 1.0 / taus], axis=1)
    # unit weights: multiplying by 1.0 is exact, so the solve sees the plain
    # column-scaled design
    coef, _, _ = quad_fp.weighted_lstsq(
        design, np.asarray(values, dtype=float), np.ones_like(taus)
    )
    return float(coef[2])


_TERM_RADIUS = 8.0  # truncation radius of the sector in term_contributions
_TERM_T = 0.01  # anchor time of its Laplace-variable fit


def term_contributions(term, gamma):
    """t^0 part of the named Green's-function term's diagonal trace over
    the sector truncated at radius R = 8.

    In the Laplace variable the trace of a term is g(R sqrt s)/s.  For A, B
    and F, sampling s = 1/t around the anchor t = 0.01 and fitting g against
    {tau^2, tau, 1, 1/tau} extracts the t^0 coefficient:

        A: exactly gamma R^2/(8 pi t), no t^0 part;
        B: R/(4 sqrt(pi t)) + O(sqrt t), no t^0 part;
        F: identically zero (its angular diagonal integral vanishes).

    For C (DD/NN bracket) and E (DN bracket) g(tau) tends to its limit
    exponentially fast, so the t^0 coefficient is g(inf), the s -> inf
    limit (_term_mu_integral):

        C: (pi^2 - gamma^2)/(24 pi gamma);
        E: -(pi^2 + 2 gamma^2)/(48 pi gamma), one mu integral of the DN
           bracket, whose factor is 2 C(2 gamma) - C(gamma) (an identity
           the tests check; no route uses it).
    """
    if term not in _TERM_NAMES:
        raise DomainError(f"term must be one of {_TERM_NAMES}, got {term!r}", field="term")
    check_angle("gamma", gamma)
    if term in ("C", "E"):
        return _term_mu_integral(term, gamma)
    ts = np.exp(np.linspace(math.log(_TERM_T / 3.0), math.log(3.0 * _TERM_T), 7))
    taus = np.sort(_TERM_RADIUS / np.sqrt(ts))
    if term == "A":
        # direct term: free heat kernel on the diagonal, trace = gamma R^2 / (8 pi t)
        values = gamma * taus**2 / (8.0 * math.pi)
    elif term == "B":
        # after pairing with q~ the B weight decays only algebraically in mu,
        # but its diagonal integral sinh(pi mu)/mu is angle independent, so
        # the gamma = pi image form applies and has the closed primitive
        # g_B = g(tau^2/2)/4
        values = 0.25 * _primitive_g(0.5 * taus * taus)
    else:
        # F = -2 B1 + B2 with int_0^g B1 dphi = (1/2) int_0^g B2 dphi:
        # the angular diagonal integral cancels identically
        values = np.zeros_like(taus)
    return _fit_against_tau(taus, values)


def _term_mu_integral(term, gamma):
    """g(inf) = (1/pi^2) int_0^inf SW(mu) q~(mu) dmu.  C and E depend on
    phi - phi0 only, so their angular diagonal integral SW(mu) is gamma
    times their _bracket_terms factor at phi = phi0 = 0, which decays like
    e^{-gap mu}.  q~(mu) = e^{pi mu} int_0^inf u K_{i mu}(u)^2 du is exact,

        q~(mu) = pi mu / (1 - e^{-2 pi mu})   (Gradshteyn-Ryzhik 6.576.4),

    from the antiderivative [(u^2 - mu^2) K^2 - u^2 K'^2]/2, which tends to
    -pi mu/(2 sinh(pi mu)) as u -> 0; cut at u = tau = R sqrt s the radial
    integral differs by O(e^{-2 tau})."""
    factor, gap = _bracket_terms("DD" if term == "C" else "DN", gamma, 0.0, 0.0)[term]
    mu_max = (math.log(1e12) + 20.0) / gap
    # ten-node panels: two per unit of mu, two per 4 e-folds of e^{-2 gamma mu}
    n_pan = 2 * max(8, math.ceil(mu_max), math.ceil(0.5 * gamma * mu_max))
    mus, mu_wts = quad_fp.panel_nodes(0.0, mu_max, n_pan)
    q = math.pi * mus / -np.expm1(-2.0 * math.pi * mus)
    return gamma * float(factor(mus) @ (mu_wts * q)) / math.pi**2
