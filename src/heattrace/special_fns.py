"""Special functions: modified Bessel I (real order), Bessel K of imaginary
order, Bessel J with its zeros, and complementary error functions.

Everything is evaluated in double precision from series, asymptotic
expansions, stable recurrences, and integral representations; no external
special-function library is used.  Scaled variants are provided wherever the
unscaled value over- or underflows.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._rootfind import brent
from .errors import (
    AccuracyLossError,
    ConvergenceError,
    DomainError,
    OverflowRangeError,
)
from .quad_fp import panel_nodes

_LOG_HUGE = math.log(1.7976931348623157e308)  # ~709.78
_I_MANY_X_MAX = 700.0  # bessel_i_scaled_many's argument cap
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpecialFnConfig:
    """Evaluation policy: target relative tolerance and work caps."""

    rel_tol: float = 1e-12
    max_terms: int = 20000
    max_quad_nodes: int = 40000

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-6:
            raise DomainError("rel_tol must lie in (0, 1e-6]")
        if self.max_terms < 50:
            raise DomainError("max_terms must be >= 50")
        if self.max_quad_nodes < 100:
            raise DomainError("max_quad_nodes must be >= 100")


DEFAULT_CONFIG = SpecialFnConfig()


# ---------------------------------------------------------------------------
# log Gamma for complex arguments (Lanczos, g = 7, 9 coefficients)

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _clgamma(z):
    """log Gamma(z) for complex z with Re z >= 0.5 (reflection otherwise)."""
    if z.real < 0.5:
        return cmath.log(math.pi / cmath.sin(math.pi * z)) - _clgamma(1.0 - z)
    z = z - 1.0
    a = _LANCZOS_COEF[0]
    t = z + _LANCZOS_G + 0.5
    for i in range(1, 9):
        a += _LANCZOS_COEF[i] / (z + i)
    return 0.5 * math.log(_TWO_PI) + (z + 0.5) * cmath.log(t) - t + cmath.log(a)


# ---------------------------------------------------------------------------
# modified Bessel function I_nu, real order nu >= 0

def _ive_series(nu, x, config):
    """e^{-x} I_nu(x) by the (all-positive) power series, anchored at its
    largest term so that no intermediate value under- or overflows."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    log_half = math.log(x) + math.log(0.5)  # safe for subnormal x
    # index of the largest term solves k(k+nu) = (x/2)^2
    k_peak = 0.5 * (-nu + math.hypot(nu, x))
    k0 = max(0, int(k_peak))
    ln_anchor = (nu + 2.0 * k0) * log_half - math.lgamma(k0 + 1.0) - math.lgamma(nu + k0 + 1.0)
    q = 0.25 * x * x
    s = 1.0
    t = 1.0
    k = k0
    for _ in range(config.max_terms):
        t *= q / ((k + 1.0) * (nu + k + 1.0))
        s += t
        k += 1
        if t < 1e-18 * s:
            break
    else:
        raise ConvergenceError("I series did not converge", {"nu": nu, "x": x})
    t = 1.0
    k = k0
    while k > 0:
        t *= k * (nu + k) / q
        s += t
        k -= 1
        if t < 1e-18 * s:
            break
    ln_val = ln_anchor - x + math.log(s)
    if ln_val < -745.0:
        return 0.0
    return math.exp(ln_val)


def _ive_asymptotic(nu, x):
    """e^{-x} I_nu(x) from the fixed-order large-argument expansion; accurate
    to ~1e-13 for x >= 20 when nu < 1, and more generally once x >= 10 nu^2
    (the terms then decay well past double precision before turning)."""
    mu4 = 4.0 * nu * nu
    s = 1.0
    c = 1.0
    prev = math.inf
    for k in range(1, 60):
        c *= -(mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * x * k)
        if abs(c) >= prev:
            break
        s += c
        prev = abs(c)
        if abs(c) < 1e-18 * abs(s):
            break
    return s / math.sqrt(_TWO_PI * x)


def _ive_ratio_cf(nu, x, config):
    """Continued fraction for I_{nu+1}(x) / I_nu(x) (modified Lentz)."""
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for j in range(1, config.max_terms):
        b = 2.0 * (nu + j) / x
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f
    raise ConvergenceError("I ratio continued fraction stalled", {"nu": nu, "x": x})


def _ive_ladder(nu, x, config):
    """e^{-x} I_nu(x) for nu >= 1, x > max(20, 2 nu): stable downward
    recurrence seeded by the continued-fraction ratio, normalized at the
    fractional base order where the large-argument expansion is exact."""
    nu_base = nu - math.floor(nu)
    steps = int(round(nu - nu_base))
    ratio = _ive_ratio_cf(nu, x, config)
    f_hi = ratio  # order nu + 1
    f = 1.0       # order nu
    log_top = 0.0
    order = nu
    for _ in range(steps):
        f_lo = f_hi + (2.0 * order / x) * f
        f_hi, f = f, f_lo
        order -= 1.0
        if f > 1e250:
            f *= 1e-250
            f_hi *= 1e-250
            log_top -= math.log(1e250)
    base = _ive_asymptotic(nu_base, x)
    ln_val = math.log(base) + log_top - math.log(f)
    if ln_val < -745.0:
        return 0.0
    return math.exp(ln_val)


def bessel_i_scaled(nu, x, config=DEFAULT_CONFIG):
    """Exponentially scaled modified Bessel function e^{-x} I_nu(x).

    Power series for x <= max(20, 2 nu); for larger x the value follows from
    the large-argument expansion at the fractional base order plus a stable
    downward recurrence in the order.  Never overflows for x <= 1e8.
    """
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise DomainError(f"order must be finite and >= 0, got {nu}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"argument must be finite and >= 0, got {x}")
    if x <= max(20.0, 2.0 * nu):
        return _ive_series(nu, x, config)
    if nu < 1.0 or x >= 10.0 * nu * nu:
        return _ive_asymptotic(nu, x)
    return _ive_ladder(nu, x, config)


def bessel_i(nu, x, config=DEFAULT_CONFIG):
    """Modified Bessel function I_nu(x) for nu >= 0, x >= 0.

    Raises OverflowRangeError when e^x I_nu(x) exceeds the double range;
    use bessel_i_scaled there.
    """
    scaled = bessel_i_scaled(nu, x, config)
    if scaled == 0.0:
        return 0.0
    ln_val = math.log(scaled) + x
    if ln_val > _LOG_HUGE:
        raise OverflowRangeError(
            f"I_{nu}({x}) overflows double precision; use bessel_i_scaled"
        )
    return math.exp(ln_val)


def bessel_i_scaled_many(nus, x, config=DEFAULT_CONFIG):
    """e^{-x} I_nu(x) for an array of orders at arguments 0 <= x <= 700.

    Vectorized forward series used by the corner-contribution mode sums;
    the x cap keeps the scaled first term representable.  A scalar x gives
    one value per order.  A 1-D array x gives a (len(x), len(nus)) block
    whose row i is, bit for bit, the scalar call at x[i]: every row takes
    the same steps and stops at the same term as that call, and a row that
    has converged is frozen (its term set to 0) while the others run on.
    """
    nus = np.asarray(nus, dtype=float)
    if nus.size and (nus.min() < 0.0 or not np.isfinite(nus).all()):
        raise DomainError("orders must be finite and >= 0")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise DomainError(f"argument must be a scalar or a 1-D array, got shape {xs.shape}")
    rows = np.atleast_1d(xs)
    bad = ~((rows >= 0.0) & (rows <= _I_MANY_X_MAX))
    if bad.any():
        raise DomainError(f"argument must lie in [0, {_I_MANY_X_MAX:g}], got {rows[bad][0]}")
    s = np.zeros((rows.size, nus.size))
    s[rows == 0.0] = np.where(nus == 0.0, 1.0, 0.0)
    if nus.size:
        # 0.5 * v underflows only at v = 0 and at the smallest subnormal
        log_half = np.array(
            [math.log(0.5 * v) if 0.5 * v > 0.0 else math.log(v or 1.0) - math.log(2.0)
             for v in rows]
        )
        lg = np.array([math.lgamma(v + 1.0) for v in nus])
        with np.errstate(under="ignore"):
            t = np.exp(nus * log_half[:, None] - lg - rows[:, None])
        t[rows == 0.0] = 0.0  # rows at x = 0 are final already
        s += t
        q = 0.25 * rows * rows
        lo = 0  # the rows before lo have converged and left the block
        for k in range(config.max_terms):
            t *= q[:, None] / ((k + 1.0) * (nus + k + 1.0))
            s[lo:] += t
            done = t.max(axis=1) < 1e-18 * np.maximum(s[lo:].max(axis=1), 1e-300)
            if done.all():
                break
            t[done] = 0.0  # a converged row is frozen: it adds nothing more
            skip = int(np.argmin(done))
            lo += skip
            t, q = t[skip:], q[skip:]
        else:
            raise ConvergenceError(
                "vectorized I series did not converge", {"x": float(rows[lo:][~done][0])}
            )
    return s if xs.ndim else s[0]


# ---------------------------------------------------------------------------
# Bessel K of imaginary order K_{i mu}(x)

def _k_imag_integral(mu, x, config):
    """(value, abs_err) of e^{pi mu / 2} K_{i mu}(x) from the cosine
    integral representation  K_{i mu}(x) = int_0^inf e^{-x cosh u} cos(mu u) du."""
    u_max = math.acosh(1.0 + 50.0 / x)
    # resolve both the Gaussian-ish decay and the cos(mu u) oscillation
    n_panels = max(8, int(4.0 * u_max), int(2.0 * mu * u_max / math.pi))
    n_panels = min(n_panels, config.max_quad_nodes // 10)
    u, w = panel_nodes(0.0, u_max, n_panels)
    vals = np.exp(-x * np.cosh(u)) * np.cos(mu * u)
    raw = float(np.dot(w, vals))
    # refined estimate with doubled panels for an error estimate
    u2, w2 = panel_nodes(0.0, u_max, 2 * n_panels)
    vals2 = np.exp(-x * np.cosh(u2)) * np.cos(mu * u2)
    raw2 = float(np.dot(w2, vals2))
    scale = math.exp(min(0.5 * math.pi * mu, _LOG_HUGE))
    err = (abs(raw2 - raw) + 1e-16 * math.exp(-x) * u_max) * scale
    return raw2 * scale, err


def _k_imag_series(mu, x, config):
    """(value, abs_err) of e^{pi mu/2} K_{i mu}(x) through the complex power
    series for I_{i mu}(x):  K_{i mu} = -pi Im I_{i mu} / sinh(pi mu)."""
    c = cmath.exp(
        complex(0.0, mu * (math.log(x) + math.log(0.5)))
        - _clgamma(complex(1.0, mu))
        - 0.5 * math.pi * mu
    )
    s = c
    max_abs = abs(c)
    q = 0.25 * x * x
    for k in range(1, config.max_terms):
        c *= q / (k * complex(k, mu))
        s += c
        a = abs(c)
        if a > max_abs:
            max_abs = a
        if a < 1e-18 * abs(s) + 1e-300:
            break
    else:
        raise ConvergenceError("K_imu series did not converge", {"mu": mu, "x": x})
    denom = -math.expm1(-_TWO_PI * mu)  # = 1 - e^{-2 pi mu}
    value = -_TWO_PI * s.imag / denom
    err = 4e-16 * _TWO_PI * max_abs / denom
    return value, err


def _series_preferred(mu, x):
    # the complex series loses ~x^2/(4 mu) nats for x < mu and about two
    # nats per unit of x beyond pi mu/2 (27 nats at mu = 11.73, x = 29.04,
    # where x - pi mu/2 = 10.6), so near the edge x = pi mu/2 + 16 its error
    # estimate decides; the integral representation loses ~pi mu/2 net
    return mu >= 0.5 and x <= 0.5 * math.pi * mu + 16.0 and x * x <= 72.0 * mu


def _k_imag_scaled_impl(mu, x, config):
    """(value, abs_err) for e^{pi mu/2} K_{i mu}(x); never raises on accuracy."""
    if mu == 0.0 or (mu < 0.5 and not _series_preferred(mu, x)):
        return _k_imag_integral(mu, x, config)
    first = _k_imag_series if _series_preferred(mu, x) else _k_imag_integral
    second = _k_imag_integral if first is _k_imag_series else _k_imag_series
    v, e = first(mu, x, config)
    if e <= 1e-11 * max(abs(v), 1e-300):
        return v, e
    v2, e2 = second(mu, x, config)
    return (v2, e2) if e2 < e else (v, e)


def bessel_k_imag_scaled(mu, x, config=DEFAULT_CONFIG):
    """e^{pi mu / 2} K_{i mu}(x), a real number of moderate size.

    Raises AccuracyLossError when cancellation leaves fewer than ~9 correct
    digits (large mu at argument comparable to mu).
    """
    if not (mu >= 0.0 and math.isfinite(mu)):
        raise DomainError(f"mu must be finite and >= 0, got {mu}")
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"argument must be finite and > 0, got {x}")
    value, err = _k_imag_scaled_impl(mu, x, config)
    achieved = err / max(abs(value), 1e-300)
    if achieved > max(100.0 * config.rel_tol, 1e-9):
        raise AccuracyLossError(
            f"cancellation in K_(i {mu})({x}) exceeds the accuracy budget", achieved
        )
    return value


def bessel_k_imag(mu, x, config=DEFAULT_CONFIG):
    """Modified Bessel function of imaginary order K_{i mu}(x), real valued.

    Evaluated from the integral representation
    int_0^inf e^{-x cosh u} cos(mu u) du, switching to a cancellation-free
    complex series when the oscillatory factor makes direct quadrature lossy.
    """
    scaled = bessel_k_imag_scaled(mu, x, config)
    return scaled * math.exp(-0.5 * math.pi * mu)


# ---------------------------------------------------------------------------
# Bessel J and its zeros

def _jv_series(nu, x, config):
    """Power series for J_nu(x); accurate for x <= 12 (alternating terms)."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    ln_pref = nu * (math.log(x) + math.log(0.5)) - math.lgamma(nu + 1.0)
    if ln_pref < -700.0:
        return 0.0
    pref = math.exp(ln_pref)
    q = -0.25 * x * x
    s = 1.0
    t = 1.0
    for k in range(1, config.max_terms):
        t *= q / (k * (nu + k))
        s += t
        if abs(t) < 1e-18 * max(abs(s), 1e-30):
            return pref * s
    raise ConvergenceError("J series did not converge", {"nu": nu, "x": x})


def _jv_base_integral(nu, x, config):
    """J_nu(x) for 0 <= nu < 1, 12 < x < 25, from Bessel's integral
    (1/pi) int_0^pi cos(x sin t - nu t) dt  -  (sin(nu pi)/pi) int_0^inf e^{-x sinh s - nu s} ds."""
    n_panels = min(max(10, int(x)), config.max_quad_nodes // 10)
    t, w = panel_nodes(0.0, math.pi, n_panels)
    first = float(np.dot(w, np.cos(x * np.sin(t) - nu * t))) / math.pi
    if nu == 0.0:
        return first
    s_max = math.asinh(50.0 / x) + 1.0
    s, ws = panel_nodes(0.0, s_max, 12)
    second = float(np.dot(ws, np.exp(-x * np.sinh(s) - nu * s))) / math.pi
    return first - math.sin(nu * math.pi) * second


def _jv_base_hankel(nu, x):
    """J_nu(x) for 0 <= nu < 1 and x >= 25 from the Hankel expansion; the
    smallest term there is ~e^{-2x}, far below double precision."""
    mu4 = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    c = 1.0
    prev = math.inf
    for k in range(1, 40):
        c *= (mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * x * k)
        if abs(c) >= prev:
            break
        prev = abs(c)
        if k % 2 == 1:
            q += c * (-1.0) ** ((k - 1) // 2)
        else:
            p += c * (-1.0) ** (k // 2)
        if abs(c) < 1e-18:
            break
    omega = x - 0.5 * nu * math.pi - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(omega) - q * math.sin(omega))


def _jv_base(nu, x, config):
    return _jv_base_hankel(nu, x) if x >= 25.0 else _jv_base_integral(nu, x, config)


def bessel_j(nu, x, config=DEFAULT_CONFIG):
    """Bessel function of the first kind J_nu(x) for nu >= 0, x >= 0."""
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise DomainError(f"order must be finite and >= 0, got {nu}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"argument must be finite and >= 0, got {x}")
    if x <= 12.0:
        return _jv_series(nu, x, config)
    nu_base = nu - math.floor(nu)
    if nu < 1.0:
        return _jv_base(nu, x, config)
    # downward (Miller) recurrence from well above the turning point,
    # normalized against directly computed base-order values
    n_extra = math.ceil(max(0.0, x - nu) + 15.0 + 2.0 * x ** (1.0 / 3.0))
    n_steps = round(nu - nu_base) + n_extra
    f_hi = 0.0
    f = 1e-280
    rescales = 0
    log_unit = math.log(1e280)
    saved = {}  # ladder index k -> (value, rescale count at save time)
    want = round(nu - nu_base)
    for k in range(n_steps - 1, -1, -1):
        order = nu_base + k + 1.0
        f_lo = (2.0 * order / x) * f - f_hi
        f_hi, f = f, f_lo
        if abs(f) > 1e280:
            f *= 1e-280
            f_hi *= 1e-280
            rescales += 1
        if k == want or k <= 1:
            saved[k] = (f, rescales)
    j0 = _jv_base(nu_base, x, config)
    j1 = _jv_base(nu_base + 1.0, x, config)
    # normalize at whichever base order is farther from a zero of J
    f0, r0 = saved[0]
    f1, r1 = saved[1]
    if abs(j1) > abs(j0):
        ref_val, ref_f, ref_r = j1, f1, r1
    else:
        ref_val, ref_f, ref_r = j0, f0, r0
    ft, rt = saved[want]
    if ft == 0.0 or ref_val == 0.0:
        return 0.0
    log_mag = (
        math.log(abs(ref_val))
        + math.log(abs(ft))
        - math.log(abs(ref_f))
        + log_unit * (rt - ref_r)
    )
    sign = math.copysign(1.0, ref_val) * math.copysign(1.0, ft) * math.copysign(1.0, ref_f)
    if log_mag < -745.0:
        return 0.0
    return sign * math.exp(log_mag)


def bessel_j_prime(nu, x, config=DEFAULT_CONFIG):
    """Derivative J'_nu(x) via J'_nu = (nu/x) J_nu - J_{nu+1}."""
    if x == 0.0:
        if nu == 1.0:
            return 0.5
        return 0.0 if nu > 1.0 else -bessel_j(nu + 1.0, x, config)
    return (nu / x) * bessel_j(nu, x, config) - bessel_j(nu + 1.0, x, config)


class BesselZeroCache:
    """Memoizes Bessel zeros, and the grid point where each zero's march
    stopped."""

    def __init__(self):
        self._data = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value):
        self._data[key] = value


_ZERO_STEP = math.pi / 4.0  # well below the spacing of consecutive zeros


def _march_for_zero(f, xa, fa, step, k, max_steps=100000):
    """k-th sign change of f marching right from xa, where f is fa, in
    increments of step.

    Returns ((a, b, f(a), f(b)), (x_next, f(x_next))): the bracket, with
    a == b when f vanishes exactly on a grid point, and the next grid point,
    where a march for the following sign change continues.
    """
    x0 = xa
    found = 0
    for _ in range(max_steps):
        xb = xa + step
        fb = f(xb)
        if fa == 0.0 or fa * fb < 0.0:
            found += 1
            if found == k:
                bracket = (xa, xa, fa, fa) if fa == 0.0 else (xa, xb, fa, fb)
                return bracket, (xb, fb)
        xa, fa = xb, fb
    raise ConvergenceError(
        "zero marching did not find enough sign changes",
        {"x0": x0, "step": step, "wanted": k, "found": found},
    )


def _cached_zero(kind, nu, k, f, x0, cache):
    """k-th positive zero of f, memoized under (kind, nu, k).

    Marches from x0 in steps of _ZERO_STEP.  When the cache holds where the
    march for zero k-1 stopped, the march resumes there: it visits the same
    accumulated grid points as a march from x0, so the bracket and the root
    are the same to the bit, for 1 sign change of work instead of k.
    """
    key = (kind, nu, k)
    resume = None
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
        if k > 1:
            resume = cache.get((kind + "-next", nu, k - 1))
    if resume is None:
        bracket, after = _march_for_zero(f, x0, f(x0), _ZERO_STEP, k)
    else:
        bracket, after = _march_for_zero(f, *resume, _ZERO_STEP, 1)
    a, b, fa, fb = bracket
    root = a if a == b else brent(f, a, b, fa, fb, xtol=1e-14, rtol=1e-15)
    if cache is not None:
        cache.put(key, root)
        cache.put((kind + "-next", nu, k), after)
    return root


def _check_zero_args(nu, k):
    if k < 1 or k != int(k):
        raise DomainError(f"zero index must be a positive integer, got {k}")
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise DomainError(f"order must be finite and >= 0, got {nu}")


def bessel_j_zero(nu, k, config=DEFAULT_CONFIG, cache=None):
    """k-th positive zero j_{nu,k} of J_nu (k is 1-based).

    With a BesselZeroCache, asking for k = 1, 2, ..., K in turn costs O(K)
    evaluations of J in all, not O(K^2); the result is the same float with
    or without the cache.
    """
    _check_zero_args(nu, k)
    f = lambda x: bessel_j(nu, x, config)
    x0 = max(nu + 0.5 * nu ** (1.0 / 3.0), 0.1) if nu >= 1.0 else 0.05
    return _cached_zero("j", nu, int(k), f, x0, cache)


def bessel_j_prime_zero(nu, k, config=DEFAULT_CONFIG, cache=None):
    """k-th positive zero of J'_nu (k is 1-based; x = 0 is never counted).

    With a BesselZeroCache, asking for k = 1, 2, ..., K in turn costs O(K)
    evaluations of J in all, not O(K^2); the result is the same float with
    or without the cache.
    """
    _check_zero_args(nu, k)
    if nu == 0.0:
        # J0' = -J1, so the positive zeros of J0' are those of J1
        key = ("jp", nu, int(k))
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            return hit
        root = bessel_j_zero(1.0, k, config, cache)
        if cache is not None:
            cache.put(key, root)
        return root
    f = lambda x: bessel_j_prime(nu, x, config)
    x0 = max(nu + 0.1 * nu ** (1.0 / 3.0), 0.05)
    return _cached_zero("jp", nu, int(k), f, x0, cache)


# ---------------------------------------------------------------------------
# complementary error function and its scaled variant

def erfc(x):
    """Complementary error function erfc(x) = (2/sqrt(pi)) int_x^inf e^{-s^2} ds."""
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    return math.erfc(x)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0.

    Direct product for x < 2; Laplace continued fraction beyond, where the
    direct product would over/underflow.
    """
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"argument must be finite and >= 0, got {x}")
    if x < 2.0:
        return math.exp(x * x) * math.erfc(x)
    # erfcx(x) = (1/sqrt(pi)) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for j in range(1, 300):
        a = 1.0 if j == 1 else 0.5 * (j - 1)
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return f / math.sqrt(math.pi)
    raise ConvergenceError("erfcx continued fraction stalled", {"x": x})
