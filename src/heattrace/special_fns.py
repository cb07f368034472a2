"""Special functions: modified Bessel I (real order), Bessel K of imaginary
order, Bessel J with its zeros, and complementary error functions, in double
precision from series, asymptotic expansions, recurrences and one contour
integral, with no external special-function library; scaled variants where
the unscaled value over- or underflows.  Each is computed one way, entry by
entry, the scalar API being the one-entry case: e^{-x} I_nu(x) by
_ive_entries (no argument cap; its docstring states the branch rule);
e^{pi mu/2} K_{i mu}(x) by _k_imag_scaled_table (the power series for
mu >= 0.5, x <= 4, a saddle-point contour elsewhere); (J_nu, J'_nu) by
_bessel_j_pair (the power series for x <= 2, a recurrence normalized by
Neumann's sum above).  One power series serves I_nu, I_{i mu} and J_nu.
Bessel zeros come from bessel_j_zeros_below, for whole arrays of orders.
"""

import functools
import math

import numpy as np

from ._rootfind import brent  # unused here; the benchmark tracer patches it (ROADMAP item 1)
from .errors import (
    AccuracyLossError,
    ConvergenceError,
    DomainError,
    OverflowRangeError,
)
from .quad_fp import gauss_rule

_LOG_HUGE = math.log(1.7976931348623157e308)  # ~709.78
_TWO_PI = 2.0 * math.pi
_MAX_TERMS = 20000  # term cap of every series and continued fraction
_K_CUT = 37.0  # the K contour's legs end at e^{-37} of the saddle's size
_K_NODES = 24  # Gauss nodes per K contour panel; its error bar adds 23
_K_ACCURACY = 1e-9  # relative error above which bessel_k_imag_scaled raises
# largest I order: below it nu log(x/2) - log Gamma(nu + 1) stays finite at
# every x >= 5e-324, and so does nu asinh(nu/x) at every x > 25
_MAX_I_ORDER = 1e305


# ---------------------------------------------------------------------------
# log Gamma for complex arguments (Stirling's series after a shift by 8)

# B_2k / (2k (2k - 1)), k = 1, ..., 10
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0, 43867.0 / 244188.0,
             -174611.0 / 125400.0)


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker's splitting)."""
    p = a * b
    a_hi = 134217729.0 * a - (134217729.0 * a - a)
    b_hi = 134217729.0 * b - (134217729.0 * b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _clgamma(z):
    """log Gamma(z), elementwise for an array of complex z with Re z >= 0.5:
    Stirling's series at w = z + 8 (|w| >= 8.5, so ten terms leave < 1e-18)
    less log z + ... + log(z + 7).  The product Im w (log|w| - 1), 860 at
    z = 1 + 200i, keeps its rounding error and that of log|w|, so at
    z = 1 + i mu, mu <= 200, both parts are within 1e-14 + 4.5e-16 mu."""
    z = np.asarray(z, dtype=complex)
    w = z + 8.0
    r = 1.0 / (w * w)
    s = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        s = s * r + c
    small = 0.5 * math.log(_TWO_PI) + s / w - sum(np.log(z + k) for k in range(8))
    x, y = w.real, w.imag
    size = np.hypot(x, y)
    log_size, arg = np.log(size), np.arctan2(y, x)
    p, e = _two_product(y, log_size - 1.0)
    im = p + ((x - 0.5) * arg + small.imag + e + y * (size - np.exp(log_size)) / size)
    return ((x - 0.5) * log_size - x + small.real - y * arg) + 1j * im


# ---------------------------------------------------------------------------
# modified Bessel function I_nu, real order nu >= 0

def _debye_polynomials(count):
    """Coefficients of U_0, ..., U_{count-1} of the uniform large-order
    expansion, from U_0 = 1 and the recurrence (DLMF 10.41.10)

        U_{k+1}(p) = p^2 (1 - p^2) U_k'(p) / 2 + int_0^p (1 - 5 t^2) U_k(t) dt / 8.

    The coefficient of p^m in U_{k+1} is a c_{m-1} - b c_{m-3} with a, b > 0
    and c_j those of U_k, whose signs alternate in steps of p^2, so nothing
    cancels.  U_k(p) = p^k P_k(p^2), P_k of degree k; row k of the returned
    (count, count) array holds the coefficients of P_k in increasing powers."""
    u = np.ones(1)  # U_k in increasing powers of p
    rows = np.zeros((count, count))
    for k in range(count):
        rows[k, :k + 1] = u[k::2]
        i = np.arange(u.size)
        new = np.zeros(u.size + 3)
        new[1:-2] += (i / 2.0 + 1.0 / (8.0 * (i + 1.0))) * u
        new[3:] -= (i / 2.0 + 5.0 / (8.0 * (i + 3.0))) * u
        u = new
    return rows


_DEBYE = _debye_polynomials(15)  # U_0 ... U_14


def _power_series(t0, q, nu):
    """(sum, largest |term|) of sum_k t_k, t_k = t_{k-1} q / (k (nu + k)), at
    the entries of the 1-d arrays t0, q, nu: the power series of I_nu(x),
    q = (x/2)^2, for real nu >= 0 and for nu = i mu, and that of J_nu(x),
    q = -(x/2)^2.

    Each entry stops at its first k with |t_k| <= 1e-18 |s_k|, s_k the sum
    up to t_k.  Terms and sums are built in runs of steps, one product and
    one sum per step and entry in order, so an entry's results depend on its
    own (t0, q, nu) only.  Terms past an entry's stop are below its largest
    (|q / (k (nu + k))| falls with k).
    """
    # numpy's complex multiply fuses a c - b d in its SIMD loops, and cumprod
    # does not; einsum's complex products round as cumprod's do
    multiply = functools.partial(np.einsum, "i,i->i") if np.iscomplexobj(t0) else np.multiply
    out, largest = np.empty_like(t0), np.empty(t0.shape)
    live = np.arange(t0.size)
    t, s, big = t0, t0, np.abs(t0)
    k = 0
    while live.size:
        if k >= _MAX_TERMS:
            raise ConvergenceError("power series did not converge",
                                   {"nu": nu[0].item(), "x": 2.0 * math.sqrt(abs(q[0]))})
        steps = max(1, min(64, 8192 // live.size))  # short runs while many entries are live
        ks = np.arange(k + 1.0, k + steps + 1.0)[:, None]
        factors = q / (ks * (nu + ks))
        # numpy's accumulate walks each entry's steps in turn: fast for few
        # entries, slow for many, which take one array product per step
        if live.size < 512:
            terms = np.cumprod(np.concatenate([t[None], factors]), axis=0)[1:]
            sums = np.cumsum(np.concatenate([s[None], terms]), axis=0)[1:]
        else:
            terms, sums = np.empty_like(factors), np.empty_like(factors)
            for i, f in enumerate(factors):
                t = multiply(t, f, out=terms[i])
                s = np.add(s, t, out=sums[i])
        sizes = np.abs(terms)
        big = np.maximum(big, sizes.max(axis=0))
        stop = sizes <= 1e-18 * np.abs(sums)  # row i: step k + 1 + i
        hit = stop.any(axis=0)
        out[live[hit]] = sums[stop[:, hit].argmax(axis=0), hit]
        largest[live[hit]] = big[hit]
        live, nu, q, t, s, big = (a[~hit] for a in (live, nu, q, terms[-1], sums[-1], big))
        k += steps
    return out, largest


def _ive_series(nu, x, lg):
    """e^{-x} I_nu(x) at the entries of the 1-d arrays nu, x >= 0 by
    _power_series, lg holding log Gamma(nu + 1); t_0 = e^{-x} (x/2)^nu /
    Gamma(nu + 1) is representable where the series serves (x <= 25)."""
    out = np.where(nu == 0.0, 1.0, 0.0)  # the values at x = 0
    live = x > 0.0
    nu, x = nu[live], x[live]
    with np.errstate(under="ignore"):
        t0 = np.exp(nu * (np.log(x) + math.log(0.5)) - lg[live] - x)
    out[live] = _power_series(t0, 0.25 * x * x, nu)[0]
    return out


def _ive_uniform(nu, x):
    """e^{-x} I_nu(x) at the entries of the 1-d arrays nu >= 0, x > 0 from
    the uniform large-order expansion (DLMF 10.41.3; Olver 1954), written in
    h = sqrt(nu^2 + x^2), w = 1/h and p = nu w, so that nothing divides by nu:

        e^{-x} I_nu(x) ~ sqrt(w / (2 pi)) e^{nu (nu/(h + x)) - nu asinh(nu/x)}
                         sum_k w^k P_k(p^2),

    U_k(p) = p^k P_k(p^2), k = 0 ... 14 (U_k(p) / nu^k = w^k P_k(p^2)).  The
    exponent, nu eta - x, does not cancel in this form, and nu^2 is never
    formed, so it stays finite up to _MAX_I_ORDER.  At nu = 0 the sum is
    the large-argument expansion of DLMF 10.40.1.  Within 1.6e-13 of the
    value for 0 <= nu <= 300, 25 < x <= 1e4, where the rounding of an
    exponent up to ~700 in size dominates; at nu = 5 it is off by 2e-8 at
    x = 3, so it serves no x <= 25."""
    h = np.hypot(nu, x)
    w = 1.0 / h
    p = nu * w
    r = p * p
    total = np.empty(x.size)  # sum_k w^k P_k(r), by Horner's rule in r, then in w
    for part in range(0, x.size, 1 << 14):  # bounds the memory of the P_k rows
        cut = slice(part, part + (1 << 14))
        polys = np.zeros((_DEBYE.shape[0], r[cut].size))  # row k: P_k(r)
        for j in range(_DEBYE.shape[1] - 1, -1, -1):
            polys[j:] *= r[cut]  # P_k has no power of r above r^k
            polys[j:] += _DEBYE[j:, j, None]
        acc = polys[-1]
        for row in polys[-2::-1]:
            acc = acc * w[cut] + row
        total[cut] = acc
    with np.errstate(under="ignore"):  # halved: h + x overflows near the largest x
        scale = np.exp(nu * (0.5 * nu / (0.5 * h + 0.5 * x)) - nu * np.arcsinh(nu / x))
    return scale * np.sqrt(w) / math.sqrt(_TWO_PI) * total


def _check_order_and_arg(nu, x):
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise DomainError(f"order must be finite and >= 0, got {nu}", field="nu")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"argument must be finite and >= 0, got {x}", field="x")


def _check_orders(nus, field):
    """Raise DomainError with `field` unless every order in the array nus
    is finite and in [0, _MAX_I_ORDER]."""
    if not (np.isfinite(nus) & (nus >= 0.0)).all():
        raise DomainError("orders must be finite and >= 0", field=field)
    if (nus > _MAX_I_ORDER).any():
        raise DomainError(f"order must be <= {_MAX_I_ORDER:g}, got {float(nus.max())!r}",
                          field=field)


def _ive_entries(orders, which, x):
    """e^{-x} I_nu(x) at nu = orders[which] and the matched entries of the
    1-d array x, the one I algorithm: orders holds finite values in
    [0, 1e305] and x finite values >= 0 (the callers check them).  Each
    entry takes one of two branches: the power series (_ive_series) where
    x <= 25, the uniform expansion (_ive_uniform) where x > 25, at every
    order (past x = 25 the first term it leaves out at nu = 0 is below
    9e-16; at x = 20 it is 2.5e-14).  Both compute each entry from its own
    (nu, x) alone, so an entry's value does not depend on the others.
    """
    nu = orders[which]
    series = x <= 25.0
    out = np.empty(x.size)
    if series.any():
        lg = np.array([math.lgamma(v + 1.0) for v in orders.tolist()])
        out[series] = _ive_series(nu[series], x[series], lg[which[series]])
    if not series.all():
        out[~series] = _ive_uniform(nu[~series], x[~series])
    return out


def bessel_i_scaled_many(nus, x):
    """e^{-x} I_nu(x) for an array of orders 0 <= nu <= 1e305 at arguments
    x >= 0, with no argument cap.

    A scalar x gives one value per order; a 1-D array x gives a
    (len(x), len(nus)) block: _ive_entries on every (x, nu) pair, so every
    entry is, bit for bit, the one-entry call bessel_i_scaled(nu, x).
    """
    nus = np.asarray(nus, dtype=float)
    _check_orders(nus, "nus")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise DomainError(f"argument must be a scalar or a 1-D array, got shape {xs.shape}",
                          field="x")
    rows = np.atleast_1d(xs)
    bad = ~(np.isfinite(rows) & (rows >= 0.0))
    if bad.any():
        raise DomainError(f"argument must be finite and >= 0, got {rows[bad][0]}", field="x")
    shape = (rows.size, nus.size)
    which = np.tile(np.arange(nus.size), rows.size)
    out = _ive_entries(nus.ravel(), which, np.repeat(rows, nus.size)).reshape(shape)
    return out if xs.ndim else out[0]


def bessel_i_scaled(nu, x):
    """Exponentially scaled modified Bessel function e^{-x} I_nu(x) for
    nu >= 0, x >= 0: the one-entry case of bessel_i_scaled_many (see
    _ive_entries for its branches).  No argument is too large.
    """
    _check_orders(np.array([nu], dtype=float), "nu")
    return float(bessel_i_scaled_many([nu], x)[0])


def bessel_i(nu, x):
    """Modified Bessel function I_nu(x) for nu >= 0, x >= 0.

    Raises OverflowRangeError when e^x I_nu(x) exceeds the double range;
    use bessel_i_scaled there.
    """
    scaled = bessel_i_scaled(nu, x)
    if scaled == 0.0:
        return 0.0
    ln_val = math.log(scaled) + x
    if ln_val > _LOG_HUGE:
        raise OverflowRangeError(
            f"I_{nu}({x}) overflows double precision; use bessel_i_scaled"
        )
    return math.exp(ln_val)


# ---------------------------------------------------------------------------
# Bessel K of imaginary order K_{i mu}(x)

def _k_series(mu, u):
    """(value, abs_err) of e^{pi mu/2} K_{i mu}(u) at the entries of the 1-d
    arrays mu > 0, u > 0: K_{i mu} = -pi Im I_{i mu} / sinh(pi mu), I_{i mu}
    by _power_series.  abs_err adds the terms' rounding,
    4e-16 2 pi (largest term) / (1 - e^{-2 pi mu}), and that of the phase of
    t_0 = exp(i mu log(u/2) - log Gamma(1 + i mu) - pi mu/2), which every
    term carries: its exponent rounds to 5e-16 of its parts, and _clgamma's
    parts are within 1e-14 + 4.5e-16 mu.  An error d in the phase moves
    Im s by up to d |s|, far above |Im s| where the sum cancels.
    """
    lg = _clgamma(1.0 + 1j * mu)
    phase = mu * np.log(0.5 * u)
    t0 = np.exp(1j * phase - lg - 0.5 * math.pi * mu)
    s, largest = _power_series(t0, 0.25 * u * u, 1j * mu)
    denom = -np.expm1(-_TWO_PI * mu)
    value = -_TWO_PI * s.imag / denom
    d = 5e-16 * (np.abs(phase) + np.abs(lg) + mu + 1.0) + 1e-14 + 4.5e-16 * mu
    rounding = 4e-16 * _TWO_PI * largest / denom
    return value, rounding + d * (_TWO_PI * np.abs(s) / denom + np.abs(value))


def _k_contour(mu, x):
    """(value, gap, rounding) of e^{pi mu/2} K_{i mu}(x) = Re int e^{g(t)} dt,
    g(t) = -x cosh t + i mu t + pi mu/2, at the entries of the 1-d arrays
    mu >= 0, x > 0, from the imaginary axis (where e^{g} dt is imaginary) to
    +inf on two straight legs through the saddle t* = i asin(mu/x) (mu <= x)
    or acosh(mu/x) + i pi/2 (mu > x): leg 0 from t*, level when
    mu <= x / sqrt 2 and down at 30 degrees to the real axis nearer the
    turning point, where g''(t*) vanishes; for mu > x the 45-degree line
    (g''(t*) = -i sqrt(mu^2 - x^2) descends along it) from the imaginary to
    the real axis, from its imaginary-axis end when mu < 1 (from t* the
    parts of g would cancel on that long leg); leg 1 the real axis onward.
    Legs end at e^{-37} of the saddle's size e^{Re g(t*)}.  Equal panels, at
    most 2, sqrt(32 / |g''(t*)|) and cbrt(32 / |g'''(t*)|) long (3.5 / mu on
    the real axis), carry 24 Gauss nodes and 23 more for gap, the distance
    to the 23-node rule.  rounding, 5e-16 (1 + x + 2 mu) sum |w e^{g} dt|,
    covers the exponents' rounding (the error less the gap reached
    2.8e-16 (1 + x + 2 mu) sum |w e^{g} dt| on 1,200 random entries with
    mu <= 150, x <= 700), plus mu acosh(mu/x) times the same where leg 0
    starts at the imaginary axis, from where the exponent reaches the saddle.
    Each entry sums its own panels in order, so its value does not depend on
    the other entries.
    """
    below = mu <= x
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = np.sqrt(np.abs(x - mu)) * np.sqrt(x + mu)  # |g''(t*)|; |g'''(t*)| = mu
        tau = np.where(below, np.arctan2(mu, rho), 0.5 * math.pi)
        s0 = np.where(below, 0.0, np.arcsinh(rho / x))
        re_star = np.where(below, mu * np.arctan2(rho, mu) - rho, 0.0)
        level, far = below & (rho >= mu), ~below & (mu < 1.0)
        # Im g(t*) = mu s0 - rho, up to 2e3: mu s0 kept exactly, s0 Newton-refined
        p_hi, p_lo = _two_product(mu, np.where(far, 0.0, s0))
        rest = np.where(below | far, 0.0, p_lo + mu * (rho / x - np.sinh(s0)) / np.cosh(s0) - rho)
        # on the 45-degree line Re g - Re g(t*) is -mu (sin u cosh u - u) -
        # rho sin u sinh u <= -0.23 mu u^3 - 0.9 rho u^2 at u = Re t - s0 in
        # [0, pi/2], and -mu v + x sin v cosh(s0 - v) <= -mu (v - 1) and
        # <= -mu (v - sin v) <= -0.15 mu v^3 (v <= 1.4) at v = s0 - Re t >= 0
        u0 = np.minimum(0.5 * math.pi, np.minimum(np.sqrt(_K_CUT / (0.9 * rho)),
                                                  np.cbrt(_K_CUT / (0.23 * mu))))
        cubic = np.cbrt(_K_CUT / (0.15 * mu))
        v1 = np.minimum(s0, np.minimum(1.0 + _K_CUT / mu, np.where(cubic <= 1.4, cubic, np.inf)))
        a3 = np.where(below, math.sqrt(3.0) * tau, s0 + 0.5 * math.pi)
        s_cut = np.arccosh(np.maximum((_K_CUT + 0.5 * math.pi * mu - re_star) / x, 1.0))
        shift, root2 = np.where(far, s0, 0.0), math.sqrt(2.0)
        # per leg (leg 0 from t* - shift (1 - i)): Re g(origin) - Re g(t*),
        # e^{i Im g(origin)}, x cosh and x sinh of the origin, the direction,
        # the ends r_a, r_b of origin + r direction and the panel length
        legs = np.array([
            [np.where(far, x * np.sin(s0) - mu * s0, 0.0),
             0.5 * math.pi * mu - x * np.cosh(a3) - re_star],
            [np.exp(1j * p_hi) * np.exp(1j * rest), np.exp(1j * mu * a3)],
            [np.where(below, rho, np.where(far, -x * np.sin(s0), 1j * rho)), x * np.cosh(a3)],
            [1j * np.where(far, x * np.cos(s0), mu), x * np.sinh(a3)],
            [np.where(level, 1.0, np.exp(np.where(below, -1j / 6.0, -0.25j) * math.pi)),
             np.ones_like(mu)],
            [np.where(below, 0.0, root2 * (shift - v1)), np.zeros_like(mu)],
            [np.where(level, 2.0 * np.arcsinh(np.sqrt(0.5 * _K_CUT / rho)),
                      np.where(below, 2.0 * tau, root2 * (shift + u0))),
             np.where(level, 0.0, np.maximum(s_cut - a3, 0.0))],
            [np.minimum(np.minimum(2.0, np.sqrt(32.0 / rho)), np.cbrt(32.0 / mu)),
             np.minimum(2.0, 3.5 / mu)],
        ])
    span = (legs[6] - legs[5]).real
    if not np.isfinite(span).all():
        bad = x[~np.isfinite(span).all(axis=0)][0]
        raise DomainError(f"K_imu(u) has no contour below u ~ 2e-307, got {bad}", field="u")
    counts = np.ceil(span / legs[7].real).astype(int).T.ravel()  # entry by entry, legs in order
    leg = np.repeat(np.arange(counts.size), counts)
    k = np.arange(leg.size) - (np.cumsum(counts) - counts)[leg]
    half = 0.5 * (span.T.ravel() / np.maximum(counts, 1))[leg, None]
    base, phase, a, b, d, r_a = legs[:6].transpose(0, 2, 1).reshape(6, -1)[:, leg, None]
    (gx_hi, gw_hi), (gx_lo, gw_lo) = gauss_rule(_K_NODES), gauss_rule(_K_NODES - 1)
    delta = (r_a.real + half * (2.0 * k[:, None] + 1.0 + np.concatenate([gx_hi, gx_lo]))) * d
    sh = np.sinh(0.5 * delta)  # cosh delta - 1 = 2 sh^2: nothing cancels near the origin
    with np.errstate(under="ignore"):
        e = np.exp(base.real - 2.0 * a * sh * sh - b * np.sinh(delta)
                   + 1j * mu[leg // 2, None] * delta)
    w = half * np.concatenate([gw_hi, gw_lo])
    terms, weighted = w * (e * phase * d).real, w * np.abs(e)  # Re(w e^{g} dt), |w e^{g} dt|
    per_entry = counts[0::2] + counts[1::2]
    starts = np.cumsum(per_entry) - per_entry
    hi, lo, mass = (np.add.reduceat(part.sum(axis=1), starts) for part in (
        terms[:, :_K_NODES], terms[:, _K_NODES:], weighted[:, :_K_NODES]))
    scale = np.exp(re_star)
    rounding = 5e-16 * (1.0 + x + 2.0 * mu + mu * shift) * mass
    return hi * scale, np.abs(hi - lo) * scale, rounding * scale


def _k_imag_scaled_table(mus, us):
    """(value, abs_err) arrays of e^{pi mu/2} K_{i mu}(u) on the grid
    mus x us, the one K_{i mu} algorithm: each entry takes the power series
    (_k_series) where mu >= 0.5 and u <= 4, the saddle-point contour
    (_k_contour, abs_err its gap plus rounding) elsewhere.  Both compute an
    entry from its own (mu, u), so every entry is, bit for bit, the
    one-entry table _k_imag_scaled_impl(mu, u).
    """
    mus, us = np.asarray(mus, dtype=float), np.asarray(us, dtype=float)
    series = (mus[:, None] >= 0.5) & (us[None, :] <= 4.0)
    out, err = np.empty(series.shape), np.empty(series.shape)
    for route, mask in ((_k_series, series), (_k_contour, ~series)):
        rows, cols = np.nonzero(mask)
        for start in range(0, rows.size, 1024):  # bounds the contour's node arrays
            cell = rows[start:start + 1024], cols[start:start + 1024]
            out[cell], *parts = route(mus[cell[0]], us[cell[1]])
            err[cell] = sum(parts)
    return out, err


def _k_imag_scaled_impl(mu, x):
    """(value, abs_err) of e^{pi mu/2} K_{i mu}(x): the one-entry table;
    never raises on accuracy."""
    value, err = _k_imag_scaled_table([mu], [x])
    return float(value[0, 0]), float(err[0, 0])


def bessel_k_imag_scaled(mu, x):
    """e^{pi mu / 2} K_{i mu}(x), a real number of moderate size: the
    one-entry case of _k_imag_scaled_table (the power series for mu >= 0.5
    and x <= 4, the saddle-point contour elsewhere).

    Raises AccuracyLossError when the table's error estimate exceeds 1e-9
    of the value: in practice only next to a zero of K_{i mu} (x < mu),
    where the value is small against the size of its parts.
    """
    if not (mu >= 0.0 and math.isfinite(mu)):
        raise DomainError(f"mu must be finite and >= 0, got {mu}", field="mu")
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"argument must be finite and > 0, got {x}", field="x")
    value, err = _k_imag_scaled_impl(mu, x)
    achieved = err / max(abs(value), 1e-300)
    if achieved > _K_ACCURACY:
        raise AccuracyLossError(
            f"cancellation in K_(i {mu})({x}) exceeds the accuracy budget", achieved
        )
    return value


def bessel_k_imag(mu, x):
    """Modified Bessel function of imaginary order K_{i mu}(x), real valued:
    the one-entry case of _k_imag_scaled_table, with its accuracy gate."""
    scaled = bessel_k_imag_scaled(mu, x)
    return scaled * math.exp(-0.5 * math.pi * mu)


# ---------------------------------------------------------------------------
# Bessel J and its zeros

def _bessel_j_pair(nu, x):
    """(J_nu(x), J'_nu(x)) at the entries of the matched 1-d arrays nu >= 0
    and x > 0, the one J algorithm; J'_nu = (nu/x) J_nu - J_{nu+1}.  Each
    entry is computed from its own (nu, x) alone, so it equals its one-entry
    call bit for bit.

    x <= 2: the series of J_nu and J_{nu+1}, one _power_series call at
    q = -(x/2)^2 with unit first terms, where no term exceeds the first
    (x^2/4 <= 1 <= nu + 1).  The prefactors, (nu/x) J_nu's its own, are
    applied after, so no value comes from a J_nu that underflowed.
    x > 2: a downward (Miller) recurrence over the orders b + k,
    b = nu - floor(nu), from an even index 15 + 8 x^{1/3} above
    max(x, nu + 1), normalized by Neumann's sum, accumulated as it runs:

        (x/2)^b / Gamma(b + 1) = sum_m c_m J_{b+2m}(x),
        c_0 = 1,  c_m = (b + 2m) Gamma(b + m) / (m! Gamma(b + 1)).

    Its 1e-100 rescale cannot keep up with a step 2(b + k)/x past ~1e208,
    so tiny x needs the series.  Where |J_nu| <= (x/2)^nu / Gamma(nu + 1)
    (DLMF 10.14.4) and |J'_nu| <= (nu/x + 1) (x/2)^nu / Gamma(nu + 1) are
    below e^{-745} (only where nu > x), the pair is (0, 0) without the O(nu)
    recurrence.  Logs, powers and Gamma values go through math, whose
    rounding numpy's vector loops do not always share.
    """
    out = np.zeros((2, x.size))
    series = x <= 2.0
    if series.any():
        nus, xs = nu[series], x[series]
        sums = _power_series(np.ones(2 * xs.size), np.tile(-0.25 * xs * xs, 2),
                             np.concatenate([nus, nus + 1.0]))[0].reshape(2, -1)
        logs = []
        for v, y in zip(nus.tolist(), xs.tolist()):
            log_half = math.log(y) + math.log(0.5)  # log x first: 0.5 * 5e-324 rounds to 0
            lg = math.lgamma(v + 1.0)
            # logs of (x/2)^nu / Gamma(nu + 1), (x/2)^{nu+1} / Gamma(nu + 2), nu/x times the first
            logs.append((v * log_half - lg, (v + 1.0) * log_half - math.lgamma(v + 2.0),
                         (v - 1.0) * log_half - lg + math.log(v) + math.log(0.5)
                         if v else -math.inf))
        with np.errstate(over="ignore", under="ignore"):  # J' beyond the range is inf
            pref, pref_next, lead = np.exp(np.array(logs)).T
        out[:, series] = pref * sums[0], lead * sums[0] - pref_next * sums[1]
    recur = ~series
    high = np.flatnonzero(recur & (nu > x))
    # J_{nu+1}'s bound is below J_nu's wherever this one underflows (x/2 < nu + 1)
    recur[[i for i, v, y in zip(high.tolist(), nu[high].tolist(), x[high].tolist())
           if v * math.log(0.5 * y) - math.lgamma(v + 1.0) + math.log1p(v / y) < -745.0]] = False
    if recur.any():
        out[:, recur] = _j_pair_miller(nu[recur], x[recur])
    return out[0], out[1]


def _j_pair_miller(nu, x):
    """_bessel_j_pair's x > 2 branch: the entries walk down together, each
    joining at its own top index (f = 0 above it), as its one-entry call."""
    b = nu - np.floor(nu)
    want = nu - b  # ladder index of order nu; nu + 1 is at want + 1
    cbrt = np.array([y ** (1.0 / 3.0) for y in x.tolist()])
    top = 2 * np.ceil(0.5 * (np.maximum(x, nu + 1.0) - b + 15.0 + 8.0 * cbrt)).astype(np.int64)
    order = np.argsort(-top, kind="stable")
    nu, x, b, want, top = (a[order] for a in (nu, x, b, want, top))
    ks = np.arange(top[0], -1, -1)
    started = np.searchsorted(-top, -ks, side="right").tolist()  # entries with top >= k
    f_hi, f, total, j_nu, j_next = np.zeros((5, x.size))  # j_*: the values at want, want + 1
    c = np.ones(x.size)
    n = 0
    for k, live in zip(ks.tolist(), started):
        f[n:live] = 1.0  # the entries whose top index is k
        n = live
        fn, bk = f[:n], b[:n] + k
        np.copyto(j_nu[:n], fn, where=want[:n] == k)
        np.copyto(j_next[:n], fn, where=want[:n] == k - 1)
        if k % 2 == 0:
            total[:n] += c[:n] * fn
            m = k // 2
            if m > 1:
                c[:n] *= m * (bk - 2.0) / (bk * (b[:n] + m - 1.0))
            elif m == 1:
                c[:n] /= b[:n] + 2.0
        step = (2.0 * bk / x[:n]) * fn - f_hi[:n]
        f_hi[:n] = fn
        f[:n] = step
        size = np.abs(step)
        if size.max() > 1e100:  # rescale the sums with the values
            for v in (f, f_hi, total, j_nu, j_next):
                v[:n][size > 1e100] *= 1e-100
    scale = np.array([(0.5 * y) ** v / math.gamma(v + 1.0)
                      for v, y in zip(b.tolist(), x.tolist())])
    j_nu, j_next = (v * (scale * c / total) for v in (j_nu, j_next))
    out = np.empty((2, x.size))
    out[:, order] = j_nu, (nu / x) * j_nu - j_next
    return out


def _j_pair_at(nu, x):
    """The one-entry case of _bessel_j_pair, as floats."""
    return [float(v[0]) for v in _bessel_j_pair(np.array([nu], float), np.array([x], float))]


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x) for nu >= 0, x >= 0."""
    _check_order_and_arg(nu, x)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    return _j_pair_at(nu, x)[0]


def bessel_j_prime(nu, x):
    """Derivative J'_nu(x) = (nu/x) J_nu - J_{nu+1}, from one evaluation of
    _bessel_j_pair; J'_nu(0) is +inf for 0 < nu < 1 (J'_nu ~ x^{nu-1})."""
    _check_order_and_arg(nu, x)
    if x == 0.0:
        return math.inf if 0.0 < nu < 1.0 else (0.5 if nu == 1.0 else 0.0)
    return _j_pair_at(nu, x)[1]


class BesselZeroCache(dict):  # unused here; the benchmark tracer patches it (ROADMAP item 1)
    """A dict of Bessel zeros; nothing in the package stores into it."""

    put = dict.__setitem__


_ZERO_STEP = math.pi / 4.0  # well below the spacing of consecutive zeros


def _j_or_prime(nu, x, prime):
    """(f, f') at the entries: (J'_nu, J''_nu) where prime, else (J_nu, J'_nu)."""
    j, jp = _bessel_j_pair(nu, x)
    jpp = -jp / x - (1.0 - (nu / x) ** 2) * j  # Bessel's equation
    return np.where(prime, jp, j), np.where(prime, jpp, jp)


def bessel_j_zeros_below(orders, x_max, derivative):
    """Every positive zero <= x_max of J_nu, or of J'_nu when derivative is
    true, for each nu in the 1-d array orders >= 0: (which, zeros), zeros[i]
    a zero of order orders[which[i]], by order, each order's ascending.

    A pi/4 grid per order starts below its first zero: for J at
    nu + nu^{1/3}/2 from nu = 1, else 0.05; for J' at nu + nu^{1/3}/10 while
    r = sqrt(nu (nu + 2)) >= 0.1, else r/2 (j'_{nu,1} > r, DLMF 10.21); J'_0
    = -J_1 takes J_1's.  Sign changes bracket the zeros, and safeguarded
    Newton runs in all brackets at once, one _bessel_j_pair call a step: a
    step out of its closed bracket bisects it, and an entry stops at a step
    below 1e-12 x, at f = 0 or when no double lies inside its bracket.
    """
    nu = np.asarray(orders, dtype=float)
    _check_orders(nu, "orders")
    if not 0.0 <= x_max < math.inf:
        raise DomainError(f"x_max must be finite and >= 0, got {x_max}", field="x_max")
    prime = derivative & (nu > 0.0)
    nu = np.where(derivative & (nu == 0.0), 1.0, nu)
    cbrt, root = np.cbrt(nu), np.sqrt(nu * (nu + 2.0))
    x0 = np.where(prime, np.where(root >= 0.1, np.maximum(nu + 0.1 * cbrt, 0.05), 0.5 * root),
                  np.where(nu >= 1.0, np.maximum(nu + 0.5 * cbrt, 0.1), 0.05))
    # grid points x0 + i pi/4, the last one above x_max
    count = np.maximum(np.floor((x_max - x0) / _ZERO_STEP) + 2.0, 0.0).astype(np.int64)
    owner = np.repeat(np.arange(nu.size), count)
    step = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    grid = x0[owner] + step * _ZERO_STEP
    f = _j_or_prime(nu[owner], grid, prime[owner])[0]
    # one zero per cell: at its left end where f is 0, else inside where f changes sign
    cell = np.flatnonzero((owner[1:] == owner[:-1]) & ((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0)))
    lo, hi, f_lo = grid[cell], grid[cell + 1], f[cell]
    x = lo - f_lo * (hi - lo) / (f[cell + 1] - f_lo)  # the secant point
    live, zeros = np.arange(cell.size), np.empty(cell.size)
    for _ in range(100):
        if not live.size:
            break
        fx, slope = _j_or_prime(nu[owner[cell[live]]], x, prime[owner[cell[live]]])
        left = np.signbit(fx) == np.signbit(f_lo)  # the zero lies right of x
        lo, f_lo, hi = np.where(left, x, lo), np.where(left, fx, f_lo), np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - fx / slope
        done = (fx == 0.0) | (np.abs(newton - x) <= 1e-12 * x) | (np.nextafter(lo, hi) >= hi)
        zeros[live[done]] = np.where(fx == 0.0, x, newton)[done]
        x = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))[~done]
        live, lo, hi, f_lo = (a[~done] for a in (live, lo, hi, f_lo))
    if live.size:
        raise ConvergenceError("Newton did not converge in its Bessel-zero brackets",
                               {"orders": nu[owner[cell[live]]].tolist()})
    keep = zeros <= x_max  # the cells, and so the zeros, run by order and then by x
    return owner[cell][keep], zeros[keep]


def _kth_zero(nu, k, derivative):
    """bessel_j_zeros_below's k-th zero of nu, over a span doubled until it holds k."""
    if not (k >= 1 and float(k).is_integer()):  # nan and inf fail here, before int(k)
        raise DomainError(f"zero index must be a positive integer, got {k}", field="k")
    _check_orders(np.array([nu], dtype=float), "nu")
    nu, k = float(nu), int(k)
    span = math.pi * (k + 1) + 2.0 * nu ** (1.0 / 3.0)  # j_{nu,k} ~ nu + 1.86 nu^{1/3} + k pi
    while (zeros := bessel_j_zeros_below(np.array([nu]), nu + span, derivative)[1]).size < k:
        span *= 2.0
    return float(zeros[k - 1])


def bessel_j_zero(nu, k):
    """k-th positive zero j_{nu,k} of J_nu (k is 1-based)."""
    return _kth_zero(nu, k, False)


def bessel_j_prime_zero(nu, k):
    """k-th positive zero of J'_nu (k is 1-based; x = 0 is never counted)."""
    return _kth_zero(nu, k, True)


# ---------------------------------------------------------------------------
# complementary error function and its scaled variant

def erfc(x):
    """Complementary error function erfc(x) = (2/sqrt(pi)) int_x^inf e^{-s^2} ds,
    at each entry of an array x (math.erfc), keeping its shape."""
    arr = np.asarray(x, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        raise DomainError(f"argument must be finite, got {arr[bad].flat[0]}", field="x")
    out = np.array([math.erfc(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    return out if arr.ndim else float(out)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0.

    Direct product for x < 2; Laplace continued fraction beyond, where the
    direct product would over/underflow.  x may be an array: the result has
    its shape, and each entry equals the scalar call's bit for bit.
    """
    arr = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(arr) & (arr >= 0.0))
    if bad.any():
        raise DomainError(f"argument must be finite and >= 0, got {arr[bad].flat[0]}",
                          field="x")
    flat = arr.ravel()
    out = np.empty(flat.shape)
    small = flat < 2.0
    out[small] = [math.exp(v * v) * math.erfc(v) for v in flat[small].tolist()]
    out[~small] = _erfcx_fraction(flat[~small])
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


def _erfcx_fraction(x):
    """erfcx at each entry of the 1-d array x >= 2, by the continued fraction

        erfcx(x) = (1/sqrt(pi)) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))

    under the modified Lentz method; each entry stops at its own test."""
    tiny = 1e-300
    out = np.empty(x.shape)
    live = np.arange(x.size)
    f = np.full(x.shape, tiny)
    c = f.copy()
    d = np.zeros(x.shape)
    for j in range(1, 300):
        a = 1.0 if j == 1 else 0.5 * (j - 1)
        d = x + a * d
        d[d == 0.0] = tiny
        c = x + a / c
        c[c == 0.0] = tiny
        d = 1.0 / d
        delta = c * d
        f = f * delta
        done = np.abs(delta - 1.0) < 1e-17
        out[live[done]] = f[done] / math.sqrt(math.pi)
        going = ~done
        live, x, f, c, d = live[going], x[going], f[going], c[going], d[going]
        if not live.size:
            return out
    raise ConvergenceError("erfcx continued fraction stalled", {"x": float(x[0])})
