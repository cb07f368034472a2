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
from .errors import ConvergenceError, DomainError, UnsupportedBCError
from .special_fns import (
    DEFAULT_CONFIG,
    _I_MANY_X_MAX,
    _clgamma,
    bessel_i_scaled,
    bessel_i_scaled_many,
)

_TWO_PI = 2.0 * math.pi

_SAME_TYPE_PAIRS = frozenset({"DD", "NN", "RR", "NR", "RN"})
_MIXED_PAIRS = frozenset({"DN", "ND", "DR", "RD"})


@dataclass(frozen=True)
class CornerKind:
    """A vertex type: boundary-condition pair on the two edges plus angle."""

    pair: str
    alpha: float

    def __post_init__(self):
        if self.pair not in _SAME_TYPE_PAIRS | _MIXED_PAIRS:
            raise DomainError(f"unknown boundary pair {self.pair!r}")
        if not 0.0 < self.alpha < 2.0 * math.pi:
            raise DomainError(f"corner angle must lie in (0, 2*pi), got {self.alpha}")

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
        raise DomainError(f"cone opening must be positive and finite, got {opening}")
    alpha = 0.5 * opening
    return (math.pi**2 - alpha * alpha) / (12.0 * math.pi * alpha)


# ---------------------------------------------------------------------------
# finite-part route: f.p. of int_0^{1/eps} (1/2) R e^{-R^2/2} sum_j I_{mu_j}(R^2/2) dR

CORNER_EPS_SCHEDULE = quad_fp.default_eps_schedule(eps_max=0.25, ratio=0.85, count=14)
CORNER_BASIS = (-2, -1, 0, 1, 3, 5)  # the cutoff expansion has no even powers >= 2

def _corner_orders(pair, alpha, z_max, tol_mode=1e-16):
    """Bessel orders of the sector mode sum, truncated where the rigorous
    bound (z/2)^nu / Gamma(nu+1) at the largest argument drops below tol_mode."""
    h = math.pi / alpha
    if pair == "DD":
        start = h
    elif pair == "NN":
        start = 0.0
    elif pair == "DN":
        start = 0.5 * h
    else:
        raise UnsupportedBCError(
            f"no sector mode sum for pair {pair!r}; Robin corners use the Neumann formula"
        )
    log_half = math.log(0.5 * z_max)
    log_tol = math.log(tol_mode)
    orders = []
    nu = start
    while nu <= z_max or nu * log_half - math.lgamma(nu + 1.0) > log_tol:
        orders.append(nu)
        nu += h
        if len(orders) > 100_000:
            raise DomainError("mode ladder did not truncate; angle too large?")
    return np.asarray(orders)


def _cumulative_mode_integral(orders, cutoffs, config):
    """F(L) = int_0^L (1/2) R e^{-R^2/2} sum_j I_{nu_j}(R^2/2) dR at each
    cutoff (increasing), by fixed Gauss panels of length <= 0.4."""
    edges = np.concatenate([[0.0], np.asarray(cutoffs)])
    total = 0.0
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        n_pan = max(2, int(math.ceil((b - a) / 0.4)))
        r_nodes, w_nodes = quad_fp.panel_nodes(a, b, n_pan, rule=21)
        # one (nodes x orders) block per segment; rows are summed one by one
        # and accumulated in node order
        block = bessel_i_scaled_many(orders, 0.5 * r_nodes * r_nodes, config)
        for r_node, w, row in zip(r_nodes, w_nodes, block):
            total += w * 0.5 * r_node * float(row.sum())
        out.append(total)
    return np.array(out)


def corner_finite_part(
    pair,
    alpha,
    eps_schedule=CORNER_EPS_SCHEDULE,
    basis=CORNER_BASIS,
    tol_mode=1e-16,
    config=DEFAULT_CONFIG,
):
    """Full finite-part extraction for the renormalized corner integral.

    Returns the FinitePartResult whose finite_part is the numerical corner
    coefficient; corner_coeff(CornerKind(pair, alpha)) is the closed form it
    must reproduce.  The mode sum evaluates I_nu up to 1/(2 eps^2), and
    bessel_i_scaled_many stops at 700, so the smallest eps must be
    >= 1/sqrt(1400) = 0.0267; a schedule below that raises DomainError
    before any integral is computed.
    """
    if not 0.0 < alpha < 2.0 * math.pi:
        raise DomainError(f"corner angle must lie in (0, 2*pi), got {alpha}")
    eps = np.asarray(tuple(eps_schedule), dtype=float)
    cutoffs = 1.0 / eps  # increasing, since eps decreases
    z_max = 0.5 * cutoffs.max() ** 2
    if not z_max <= _I_MANY_X_MAX:
        raise DomainError(
            f"eps_schedule goes down to eps = {float(eps.min())!r}; the mode sum "
            f"evaluates I_nu up to 1/(2 eps^2), which must stay <= {_I_MANY_X_MAX:g}, so "
            f"the smallest eps must be >= 1/sqrt({2.0 * _I_MANY_X_MAX:g}) = "
            f"{(2.0 * _I_MANY_X_MAX) ** -0.5:.6g}"
        )
    orders = _corner_orders(pair, alpha, z_max, tol_mode=tol_mode)
    values = _cumulative_mode_integral(orders, cutoffs, config)
    table = dict(zip((float(c) for c in cutoffs), values))
    return quad_fp.finite_part(
        lambda lam: table[float(lam)], basis=basis, eps_schedule=eps
    )


def corner_coeff_numeric(pair, alpha, tol=1e-4, **kwargs):
    """Numerical corner coefficient via the renormalized radial integral of
    the truncated sector mode sum.

    tol sets the per-mode truncation threshold of the Bessel-order ladder
    (with a wide safety factor); the default schedule and basis deliver a
    finite part within ~1e-6 of corner_coeff, far inside the 1e-4 contract.
    """
    result = corner_finite_part(pair, alpha, tol_mode=min(1e-12, 1e-3 * tol), **kwargs)
    return result.finite_part


def i0_radial_finite_part(eps_max=0.15, count=14, config=DEFAULT_CONFIG):
    """Finite part of int_0^{1/eps} (1/2) R e^{-R^2/2} I_0(R^2/2) dR.

    This is the difference between the N-N and D-D mode sums (the extra zero
    mode); its finite part vanishes because the cutoff expansion carries only
    odd powers of eps.
    """
    eps_schedule = quad_fp.default_eps_schedule(eps_max=eps_max, ratio=0.85, count=count)

    def integrand(r):
        r = np.atleast_1d(r)
        return np.array(
            [0.5 * rv * bessel_i_scaled(0.0, 0.5 * rv * rv, config) for rv in r]
        )

    eps = np.asarray(eps_schedule)
    cutoffs = 1.0 / eps
    values = []
    total = 0.0
    prev = 0.0
    for lam in cutoffs:
        seg = quad_fp.integrate(integrand, prev, float(lam), tol=1e-12)
        total += seg.value
        values.append(total)
        prev = float(lam)
    table = dict(zip((float(c) for c in cutoffs), values))
    return quad_fp.finite_part(
        lambda lam: table[float(lam)], basis=CORNER_BASIS, eps_schedule=eps_schedule
    )


# ---------------------------------------------------------------------------
# per-term trace contributions of the Green's-function decomposition

_TERM_NAMES = ("A", "B", "C", "E", "F")


def _primitive_g(u, config=DEFAULT_CONFIG):
    """g(u) = e^{-u} u (I_0(u) + I_1(u)), the primitive with g'(u) = e^{-u} I_0(u)."""
    return u * (bessel_i_scaled(0.0, u, config) + bessel_i_scaled(1.0, u, config))


def _log_u_grid(taus, mu_max):
    """Log-u quadrature grid whose panel edges include every tau.

    Returns (u_nodes, w_nodes, tau_slice_ends): weights are for du, and
    cumulative sums up to tau_slice_ends[i] integrate over (0, tau_i].
    """
    taus = np.asarray(taus)
    breakpoints = [math.log(1e-6)] + [math.log(tau) for tau in taus]
    per_unit = max(4.0, 3.0 * mu_max) / math.pi
    v_chunks, w_chunks, ends = [], [], []
    count = 0
    for v_a, v_b in zip(breakpoints[:-1], breakpoints[1:]):
        n_pan = max(2, int(math.ceil((v_b - v_a) * per_unit)))
        v, w = quad_fp.panel_nodes(v_a, v_b, n_pan)
        v_chunks.append(v)
        w_chunks.append(w)
        count += v.size
        ends.append(count)
    v_nodes = np.concatenate(v_chunks)
    u_nodes = np.exp(v_nodes)
    w_nodes = np.concatenate(w_chunks) * u_nodes  # du = u dv
    return u_nodes, w_nodes, ends


def _k_imag_scaled_table(mus, us, config):
    """e^{pi mu/2} K_{i mu}(u) on the grid mus x us (us ascending), batched.

    Each entry comes from the branch the scalar route
    (special_fns._k_imag_scaled_impl) would take.  The complex series serves
    the entries where it is preferred (mu >= 0.5, u <= pi mu/2 + 16,
    u^2 <= 72 mu), unless its error estimate
    4e-16 * 2 pi * (largest term) / (1 - e^{-2 pi mu}) exceeds 1e-11 of the
    value and the integral's rounding floor is lower.  Every other entry
    comes from the cosine integral representation: one matrix product over a
    shared cosh grid, built in blocks of at most 256 columns.  Each column of
    the series stops on its own convergence test and is frozen there; as us
    ascends, the converged columns are a prefix and leave the block.
    """
    mus = np.asarray(mus, dtype=float)
    us = np.asarray(us, dtype=float)
    # the test of special_fns._series_preferred, entry by entry
    series_ok = (
        (mus[:, None] >= 0.5)
        & (us[None, :] <= 0.5 * math.pi * mus[:, None] + 16.0)
        & (us[None, :] ** 2 <= 72.0 * mus[:, None])
    )

    lg = np.array([_clgamma(complex(1.0, m)) for m in mus])
    log_u = np.log(0.5 * us)
    c = np.exp(
        1j * mus[:, None] * log_u[None, :]
        - lg[:, None]
        - 0.5 * math.pi * mus[:, None]
    )
    # keep the recurrence off the entries the series does not serve
    c = np.where(series_ok, c, 0.0)
    s = c.copy()
    largest = np.abs(c)
    q = 0.25 * us * us
    # the series runs on the live columns lo:hi; no entry past hi uses it
    served = np.nonzero(series_ok.any(axis=0))[0]
    lo, hi = 0, int(served[-1]) + 1 if served.size else 0
    c = c[:, :hi]
    for k in range(1, config.max_terms):
        if lo == hi:
            break
        c = c * (q[None, lo:hi] / (k * (k + 1j * mus[:, None])))
        s[:, lo:hi] += c
        size = np.abs(c)
        np.maximum(largest[:, lo:hi], size, out=largest[:, lo:hi])
        done = size.max(axis=0) < 1e-18 * np.maximum(np.abs(s[:, lo:hi]).max(axis=0), 1e-300)
        c[:, done] = 0.0  # a converged column adds nothing more
        skip = done.size if done.all() else int(np.argmin(done))
        lo += skip
        c = c[:, skip:]
    if lo < hi:
        raise ConvergenceError("batched K_imu series did not converge", {"u": float(us[lo])})
    denom = -np.expm1(-_TWO_PI * mus)
    denom[mus == 0.0] = 1.0  # mu = 0 rows come from the integral below
    out = -_TWO_PI * s.imag / denom[:, None]
    # a series entry that fails the 1e-11 test is replaced where the
    # integral's rounding floor (as _k_imag_integral estimates it) is lower
    err = 4e-16 * _TWO_PI * largest / denom[:, None]
    err_int = 1e-16 * np.arccosh(1.0 + 50.0 / us)[None, :] * np.exp(
        np.minimum(0.5 * math.pi * mus, 700.0)[:, None] - us[None, :]
    )
    lossy = err > 1e-11 * np.maximum(np.abs(out), 1e-300)
    need_int = ~series_ok | (lossy & (err_int < err))

    cols = np.nonzero(need_int.any(axis=0))[0]
    if cols.size:
        w_max = math.acosh(1.0 + 50.0 / float(us[cols].min()))
        n_pan = max(8, int(4.0 * w_max), int(2.0 * mus.max() * w_max / math.pi))
        w_nodes, w_wts = quad_fp.panel_nodes(0.0, w_max, n_pan)
        cosh_w = np.cosh(w_nodes)
        osc = np.cos(mus[:, None] * w_nodes[None, :]) * w_wts[None, :]
        scale = np.exp(np.minimum(0.5 * math.pi * mus, 700.0))
        for start in range(0, cols.size, 256):
            block = cols[start:start + 256]
            decay = np.exp(-us[block, None] * cosh_w[None, :])
            vals = (osc @ decay.T) * scale[:, None]  # (n_mu, len(block))
            out[:, block] = np.where(need_int[:, block], vals, out[:, block])
    return out


def _stable_weight(term, gamma):
    """Angular-diagonal integrated bracket weight times e^{-pi mu}:
    SW(mu) = e^{-pi mu} int_0^gamma [bracket](mu, phi, phi) dphi, closed form."""
    g = gamma

    if term in ("C", "C1"):
        # int_0^gamma on the diagonal: sinh((pi - gt) mu)/sinh(gt mu) e^{-pi mu} with
        # gt = gamma for C and the doubled angle for C1; the angular factor
        # of gamma is the same for both (the diagonal integral range)
        gt = g if term == "C" else 2.0 * g

        def w(mu, gt=gt):
            num = np.exp(-2.0 * gt * mu) - np.exp(-2.0 * math.pi * mu)
            den = -np.expm1(-2.0 * gt * mu)
            return g * np.where(mu > 0.0, num / np.where(den > 0.0, den, 1.0), (math.pi - gt) / gt)
        return w, min(2.0 * gt, 2.0 * math.pi)
    if term == "B":
        def w(mu):
            # int_0^g B dphi = sinh(pi mu)/mu: times e^{-pi mu}
            return np.where(mu > 0.0, -np.expm1(-2.0 * math.pi * mu) / (2.0 * mu), math.pi)
        return w, 0.0
    raise DomainError(f"no reduced weight for term {term!r}")


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


def term_contributions(term, gamma, radius=8.0, t=0.01, config=DEFAULT_CONFIG):
    """Fitted t^0 part of the named Green's-function term's diagonal trace
    over the sector truncated at the given radius.

    The angular integral over the diagonal is done in closed form (the
    bracket weights reduce to sinh/cosh ratios); the remaining radial and mu
    integrals are quadrature.  In the Laplace variable the trace of a term is
    g(R sqrt s)/s, so sampling s = 1/t on a grid around the anchor t and
    fitting g against {tau^2, tau, 1, 1/tau} extracts the t^0 coefficient:

        A: exactly gamma R^2/(8 pi t), no t^0 part;
        B: R/(4 sqrt(pi t)) + O(sqrt t), no t^0 part;
        C: (pi^2 - gamma^2)/(24 pi gamma) + exponentially small;
        E = 2 C1 - C2: -(pi^2 + 2 gamma^2)/(48 pi gamma);
        F: identically zero (its angular diagonal integral vanishes).
    """
    if term not in _TERM_NAMES:
        raise DomainError(f"term must be one of {_TERM_NAMES}, got {term!r}")
    if not 0.0 < gamma < 2.0 * math.pi:
        raise DomainError(f"opening angle must lie in (0, 2*pi), got {gamma}")
    if radius <= 0.0 or t <= 0.0:
        raise DomainError("radius and t must be positive")
    ts = np.exp(np.linspace(math.log(t / 3.0), math.log(3.0 * t), 7))
    taus = radius / np.sqrt(ts)
    taus = np.sort(taus)

    if term == "A":
        # direct term: free heat kernel on the diagonal, trace = gamma R^2 / (8 pi t)
        values = gamma * taus**2 / (8.0 * math.pi)
        return _fit_against_tau(taus, values)
    if term == "B":
        w, _ = _stable_weight("B", gamma)
        values = _term_mu_integral(w, 0.0, taus, gamma, config, b_type=True)
        return _fit_against_tau(taus, values)
    if term == "F":
        # F = -2 B1 + B2 with int_0^g B1 dphi = (1/2) int_0^g B2 dphi:
        # the angular diagonal integral cancels identically
        return _fit_against_tau(taus, np.zeros_like(taus))
    if term == "C":
        w, gap = _stable_weight("C", gamma)
        values = _term_mu_integral(w, gap, taus, gamma, config)
        return _fit_against_tau(taus, values)
    # E = 2*C1 - C2
    w1, gap1 = _stable_weight("C1", gamma)
    w2, gap2 = _stable_weight("C", gamma)
    v1 = _term_mu_integral(w1, gap1, taus, gamma, config)
    v2 = _term_mu_integral(w2, gap2, taus, gamma, config)
    return _fit_against_tau(taus, 2.0 * v1 - v2)


def _term_mu_integral(weight, gap, taus, gamma, config, b_type=False):
    """g(tau) = (1/pi^2) int_0^inf SW(mu) q~(mu, tau) dmu for each tau,
    with q~(mu, tau) = e^{pi mu} int_0^tau u K_{i mu}(u)^2 du."""
    if b_type:
        # after pairing with q~ the B weight decays only algebraically in mu,
        # but its reduced weight is angle independent, so the gamma = pi
        # image form applies and has the closed primitive g_B = g(tau^2/2)/4
        return np.array([0.25 * _primitive_g(0.5 * tau * tau, config) for tau in taus])
    mu_max = (math.log(1e12) + 10.0) / gap
    mus, mu_wts = quad_fp.panel_nodes(0.0, mu_max, max(8, int(math.ceil(mu_max))))
    u_nodes, u_wts, ends = _log_u_grid(taus, mus.max())
    k_table = _k_imag_scaled_table(mus, u_nodes, config)
    integrand = k_table**2 * (u_nodes * u_wts)[None, :]  # rows: mu, cols: u
    cum = np.cumsum(integrand, axis=1)
    q_cols = cum[:, np.asarray(ends) - 1]  # (n_mu, n_tau)
    sw = weight(mus) * mu_wts
    return (sw @ q_cols) / math.pi**2
