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
from .errors import ConvergenceError, DomainError
from .sector_models import mode_order
from .special_fns import (
    _I_MANY_X_MAX,
    _MAX_TERMS,
    _clgamma,
    _series_preferred,
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
_MODE_TOL = 1e-16  # truncation bound of the corner mode ladder


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
    (for nu >= 1 the bound grows with z).  Robin pairs have no ladder
    (their corners use the Neumann formula) and raise UnsupportedBCError."""
    log_tol = math.log(_MODE_TOL)
    orders = []
    nu = mode_order(pair, alpha, 0)
    while _log_mode_bound(nu, z_max) >= log_tol:
        orders.append(nu)
        nu = mode_order(pair, alpha, len(orders))
        if len(orders) > 100_000:
            raise DomainError("mode ladder did not truncate; angle too large?")
    return np.asarray(orders)


def _cumulative_mode_integral(orders, cutoffs):
    """F(L) = int_0^L (1/2) R e^{-R^2/2} sum_j I_{nu_j}(R^2/2) dR at each
    cutoff (increasing), by fixed Gauss panels of length <= 0.4.

    Each segment between cutoffs sums the prefix of the ladder `orders` up to
    the last order whose _log_mode_bound reaches _MODE_TOL at some node of
    the segment (at least one order), so every order it leaves out is below
    _MODE_TOL at all its nodes.  Every node is checked, not only the largest
    z, because the bound need not grow with z for orders below 1.
    """
    edges = np.concatenate([[0.0], np.asarray(cutoffs)])
    log_tol = math.log(_MODE_TOL)
    total = 0.0
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        n_pan = max(2, int(math.ceil((b - a) / 0.4)))
        r_nodes, w_nodes = quad_fp.panel_nodes(a, b, n_pan, rule=21)
        z = 0.5 * r_nodes * r_nodes
        needed = np.flatnonzero((_log_mode_bound(orders, z[:, None]) >= log_tol).any(axis=0))
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
    orders = _corner_orders(pair, alpha, z_max)
    values = _cumulative_mode_integral(orders, cutoffs)
    table = dict(zip((float(c) for c in cutoffs), values))
    return quad_fp.finite_part(
        lambda lam: table[float(lam)], basis=CORNER_BASIS, eps_schedule=eps
    )


def corner_coeff_numeric(pair, alpha):
    """Numerical corner coefficient: corner_finite_part(pair, alpha).finite_part,
    within ~1e-6 of corner_coeff at the default schedule."""
    return corner_finite_part(pair, alpha).finite_part


def i0_radial_finite_part(eps_max=0.15):
    """Finite part of int_0^{1/eps} (1/2) R e^{-R^2/2} I_0(R^2/2) dR.

    This is the difference between the N-N and D-D mode sums (the extra zero
    mode); its finite part vanishes because the cutoff expansion carries only
    odd powers of eps.
    """
    eps_schedule = quad_fp.default_eps_schedule(eps_max=eps_max, ratio=0.85, count=14)

    def integrand(r):
        r = np.atleast_1d(r)
        return np.array(
            [0.5 * rv * bessel_i_scaled(0.0, 0.5 * rv * rv) for rv in r]
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


def _primitive_g(u):
    """g(u) = e^{-u} u (I_0(u) + I_1(u)), the primitive with g'(u) = e^{-u} I_0(u)."""
    return u * (bessel_i_scaled(0.0, u) + bessel_i_scaled(1.0, u))


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


def _k_imag_scaled_table(mus, us):
    """e^{pi mu/2} K_{i mu}(u) on the grid mus x us (us ascending), batched.

    Each entry comes from the branch the scalar route
    (special_fns._k_imag_scaled_impl) would take.  The complex series serves
    the entries where special_fns._series_preferred picks it, unless its
    error estimate 4e-16 * 2 pi * (largest term) / (1 - e^{-2 pi mu})
    exceeds 1e-11 of the value and the integral's rounding floor is lower.  Every other entry
    comes from the cosine integral representation: one matrix product over a
    shared cosh grid, built in blocks of at most 256 columns.  Each column of
    the series stops on its own convergence test and is frozen there; as us
    ascends, the converged columns are a prefix and leave the block.
    """
    mus = np.asarray(mus, dtype=float)
    us = np.asarray(us, dtype=float)
    series_ok = _series_preferred(mus[:, None], us[None, :])

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
    for k in range(1, _MAX_TERMS):
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


_TERM_RADIUS = 8.0  # truncation radius of the sector in term_contributions
_TERM_T = 0.01  # anchor time of its Laplace-variable fit


def term_contributions(term, gamma):
    """Fitted t^0 part of the named Green's-function term's diagonal trace
    over the sector truncated at radius R = 8, anchored at t = 0.01.

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
    ts = np.exp(np.linspace(math.log(_TERM_T / 3.0), math.log(3.0 * _TERM_T), 7))
    taus = _TERM_RADIUS / np.sqrt(ts)
    taus = np.sort(taus)

    if term == "A":
        # direct term: free heat kernel on the diagonal, trace = gamma R^2 / (8 pi t)
        values = gamma * taus**2 / (8.0 * math.pi)
        return _fit_against_tau(taus, values)
    if term == "B":
        w, _ = _stable_weight("B", gamma)
        values = _term_mu_integral(w, 0.0, taus, b_type=True)
        return _fit_against_tau(taus, values)
    if term == "F":
        # F = -2 B1 + B2 with int_0^g B1 dphi = (1/2) int_0^g B2 dphi:
        # the angular diagonal integral cancels identically
        return _fit_against_tau(taus, np.zeros_like(taus))
    if term == "C":
        w, gap = _stable_weight("C", gamma)
        values = _term_mu_integral(w, gap, taus)
        return _fit_against_tau(taus, values)
    # E = 2*C1 - C2
    w1, gap1 = _stable_weight("C1", gamma)
    w2, gap2 = _stable_weight("C", gamma)
    v1 = _term_mu_integral(w1, gap1, taus)
    v2 = _term_mu_integral(w2, gap2, taus)
    return _fit_against_tau(taus, 2.0 * v1 - v2)


def _term_mu_integral(weight, gap, taus, b_type=False):
    """g(tau) = (1/pi^2) int_0^inf SW(mu) q~(mu, tau) dmu for each tau,
    with q~(mu, tau) = e^{pi mu} int_0^tau u K_{i mu}(u)^2 du."""
    if b_type:
        # after pairing with q~ the B weight decays only algebraically in mu,
        # but its reduced weight is angle independent, so the gamma = pi
        # image form applies and has the closed primitive g_B = g(tau^2/2)/4
        return np.array([0.25 * _primitive_g(0.5 * tau * tau) for tau in taus])
    mu_max = (math.log(1e12) + 10.0) / gap
    mus, mu_wts = quad_fp.panel_nodes(0.0, mu_max, max(8, int(math.ceil(mu_max))))
    u_nodes, u_wts, ends = _log_u_grid(taus, mus.max())
    k_table = _k_imag_scaled_table(mus, u_nodes)
    integrand = k_table**2 * (u_nodes * u_wts)[None, :]  # rows: mu, cols: u
    cum = np.cumsum(integrand, axis=1)
    q_cols = cum[:, np.asarray(ends) - 1]  # (n_mu, n_tau)
    sw = weight(mus) * mu_wts
    return (sw @ q_cols) / math.pi**2
