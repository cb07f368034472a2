"""Exactly solvable Laplace spectra and heat-trace fitting.

Rectangles with any mix of Dirichlet/Neumann/Robin sides (1D factors via
transcendental root bracketing), circular sectors and disks through Bessel
zeros, lazily merged eigenvalue streams with rigorous Weyl-type tail bounds,
partial heat traces, and weighted least-squares extraction of the trace
coefficients (a_{-1}, a_{-1/2}, a_0) from trace samples.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._rootfind import brent
from .errors import DomainError, TailBoundError, UnsupportedBCError
from .quad_fp import weighted_lstsq
from .sector_models import BoundaryCondition, mode_order
from .special_fns import (
    BesselZeroCache,
    bessel_j_prime_zero,
    bessel_j_zero,
)


# ---------------------------------------------------------------------------
# 1D interval eigenvalues

class _Interval1D:
    """Eigenvalues of -u'' on [0, L] with D/N/Robin ends, as a growing
    memoized array.  Each Robin wavenumber is bracketed between consecutive
    multiples of pi/L (shifted by pi/2 for a Dirichlet partner), so no root
    can be missed."""

    def __init__(self, length, bc0, bc1):
        if not length > 0.0:
            raise DomainError(f"interval length must be positive, got {length}")
        self.length = length
        self.bc0 = BoundaryCondition.parse(bc0)
        self.bc1 = BoundaryCondition.parse(bc1)
        self._vals = []

    def _wavenumber(self, m):
        """m-th wavenumber (m >= 1)."""
        ell = self.length
        kinds = (self.bc0.kind, self.bc1.kind)
        if kinds == ("D", "D"):
            return m * math.pi / ell
        if kinds == ("N", "N"):
            return (m - 1) * math.pi / ell
        if kinds in (("D", "N"), ("N", "D")):
            return (m - 0.5) * math.pi / ell
        if "R" not in kinds:
            raise UnsupportedBCError(f"unsupported 1D pair {kinds}")
        if "D" in kinds:
            kap = (self.bc0 if self.bc0.kind == "R" else self.bc1).robin_kappa
            # u = sin(kx) up to reflection; -u'(L) = kappa u(L)
            f = lambda k: k * math.cos(k * ell) + kap * math.sin(k * ell)
            lo, hi = (m - 0.5) * math.pi / ell, m * math.pi / ell
        elif "N" in kinds:
            kap = (self.bc0 if self.bc0.kind == "R" else self.bc1).robin_kappa
            # u = cos(kx) up to reflection; k sin(kL) = kappa cos(kL)
            f = lambda k: k * math.sin(k * ell) - kap * math.cos(k * ell)
            lo, hi = (m - 1) * math.pi / ell, m * math.pi / ell
        else:
            k0, k1 = self.bc0.robin_kappa, self.bc1.robin_kappa
            f = lambda k: (k * k - k0 * k1) * math.sin(k * ell) - (k0 + k1) * k * math.cos(
                k * ell
            )
            lo, hi = (m - 1) * math.pi / ell, m * math.pi / ell
        lo = max(lo, 1e-12 / ell)
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0.0:
            return lo
        if f_lo * f_hi > 0.0:
            # the bracket is guaranteed by the sign pattern at the cell ends;
            # equality at an endpoint is the only way this can trip
            raise DomainError(
                f"Robin root bracketing failed on [{lo}, {hi}] (f: {f_lo}, {f_hi})"
            )
        return brent(f, lo, hi, f_lo, f_hi, xtol=1e-15, rtol=1e-15)

    def value(self, idx):
        """idx-th eigenvalue, 0-based: lambda_{idx+1} = k_{idx+1}^2."""
        while len(self._vals) <= idx:
            k = self._wavenumber(len(self._vals) + 1)
            self._vals.append(k * k)
        return self._vals[idx]


def interval_eigenvalues(length, bc0, bc1, count):
    """First `count` eigenvalues of the 1D problem, ascending."""
    iv = _Interval1D(length, bc0, bc1)
    return np.array([iv.value(i) for i in range(count)])


# ---------------------------------------------------------------------------
# merged eigenvalue streams

@dataclass
class Spectrum:
    """Ordered eigenvalue stream with Weyl-type counting metadata.

    counting_constants = (C1, C2, C3) bound the counting function
    N(lam) <= C1 lam + C2 sqrt(lam) + C3 for every lam >= 0, which yields a
    rigorous bound on the trace tail sum_{lambda > cutoff} e^{-lambda t}.
    """

    factory: object  # () -> iterator of eigenvalues, ascending
    weyl_area: float
    counting_constants: tuple

    def __iter__(self):
        yield from self._extend()

    def _extend(self):
        it = self.factory()
        prev = -math.inf
        for lam in it:
            if lam < prev - 1e-12:
                raise DomainError("eigenvalue stream is not nondecreasing")
            prev = lam
            yield lam

    def first(self, n):
        out = []
        for lam in self:
            out.append(lam)
            if len(out) == n:
                break
        return np.array(out)

    def up_to(self, cutoff):
        for lam in self:
            if lam > cutoff:
                return
            yield lam

    def counting_bound(self, lam):
        c1, c2, c3 = self.counting_constants
        return c1 * lam + c2 * math.sqrt(max(lam, 0.0)) + c3

    def tail_bound(self, t, cutoff):
        """Upper bound on sum_{lambda > cutoff} e^{-lambda t}, from
        integrating the counting bound against e^{-lambda t}."""
        if t <= 0.0:
            raise DomainError(f"time must be positive, got {t}")
        c1, c2, c3 = self.counting_constants
        lam = cutoff
        root = math.sqrt(max(lam, 1e-300))
        inner = c1 * (lam + 1.0 / t) + c2 * (root + 1.0 / (2.0 * t * root)) + c3
        log_val = -lam * t + math.log(inner)
        return math.exp(log_val) if log_val > -745.0 else 0.0


def _sorted_sum_stream(factor_x, factor_y):
    """Merge lambda_{i,j} = mu_x[i] + mu_y[j] in ascending order."""
    heap = [(factor_x.value(0) + factor_y.value(0), 0, 0)]
    while True:
        lam, i, j = heapq.heappop(heap)
        yield lam
        heapq.heappush(heap, (factor_x.value(i + 1) + factor_y.value(j), i + 1, j))
        if i == 0:
            heapq.heappush(heap, (factor_x.value(0) + factor_y.value(j + 1), 0, j + 1))


def rectangle_spectrum(a, b, bc_x, bc_y):
    """Laplace spectrum of the rectangle (0,a) x (0,b).

    bc_x = (left, right) and bc_y = (bottom, top) give the conditions on the
    two pairs of opposite sides; each is "D", "N", or ("R", kappa).
    """
    fx = _Interval1D(a, *bc_x)
    fy = _Interval1D(b, *bc_y)
    # 1D counting: N_1D(mu) <= L sqrt(mu)/pi + 1 since k_m >= (m-1) pi / L
    c1 = a * b / (4.0 * math.pi)
    c2 = (a + b) / math.pi + 1.0
    c3 = 3.0
    return Spectrum(
        factory=lambda: _sorted_sum_stream(fx, fy),
        weyl_area=a * b,
        counting_constants=(c1, c2, c3),
    )


class _BesselFamily:
    """k-th zeros (k >= 1) of J_nu or J'_nu divided by the radius, squared."""

    def __init__(self, nu, radius, arc_bc, cache):
        self.nu = nu
        self.radius = radius
        self.arc = arc_bc
        self.cache = cache
        self._extra_zero_mode = arc_bc == "N" and nu == 0.0

    def value(self, idx):
        if self._extra_zero_mode:
            if idx == 0:
                return 0.0
            idx -= 1
        if self.arc == "D":
            z = bessel_j_zero(self.nu, idx + 1, cache=self.cache)
        else:
            z = bessel_j_prime_zero(self.nu, idx + 1, cache=self.cache)
        return (z / self.radius) ** 2


def _family_merge_stream(make_family, orders):
    """Merge the (lazily created) Bessel families; family j is seeded once
    the first element of family j-1 has been emitted, which is safe because
    first eigenvalues increase with the angular order."""
    fam0 = make_family(orders(0))
    heap = [(fam0.value(0), 0, 0, fam0)]
    n_seeded = 1
    while True:
        lam, j, k, fam = heapq.heappop(heap)
        yield lam
        heapq.heappush(heap, (fam.value(k + 1), j, k + 1, fam))
        if k == 0 and j == n_seeded - 1:
            nxt = make_family(orders(n_seeded))
            heapq.heappush(heap, (nxt.value(0), n_seeded, 0, nxt))
            n_seeded += 1


def sector_disk_spectrum(gamma, radius, edge_pair=None, arc_bc="D", cache=None):
    """Spectrum of a circular sector (or full disk when gamma is None).

    For the sector, the angular orders are sector_models.mode_order(edge_pair,
    gamma, j) for the pair DD, NN, DN or ND, and the radial condition picks
    zeros of J_nu (Dirichlet arc) or of J'_nu (Neumann arc).  The disk uses
    integer orders with multiplicity two for m >= 1.
    """
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    if arc_bc not in ("D", "N"):
        raise UnsupportedBCError("arc condition must be 'D' or 'N'")
    if cache is None:
        cache = BesselZeroCache()
    # crude rigorous counting with x = radius sqrt(lam): families with
    # nu > x have no zero <= x (j_{nu,1} > nu), zeros within a family are
    # spaced by more than 3, and the family count is bounded by the order
    # density; expanding (#families)(x/3 + 1) gives the constants below
    if gamma is None:
        area = math.pi * radius * radius

        def orders(j):
            # nu sequence 0, 1, 1, 2, 2, ... encodes disk multiplicities
            return (j + 1) // 2

        c1 = 2.0 * radius * radius / 3.0
        c2 = radius * (2.0 + 1.0 / 3.0)
    else:
        if not 0.0 < gamma < 2.0 * math.pi:
            raise DomainError(f"opening angle must lie in (0, 2*pi), got {gamma}")
        mode_order(edge_pair, gamma, 0)  # raises for a pair with no ladder
        area = 0.5 * gamma * radius * radius
        h = math.pi / gamma

        def orders(j):
            return mode_order(edge_pair, gamma, j)

        c1 = radius * radius / (3.0 * h)
        c2 = radius * (1.0 / h + 1.0 / 3.0)

    def factory():
        return _family_merge_stream(
            lambda nu: _BesselFamily(float(nu), radius, arc_bc, cache), orders
        )

    return Spectrum(factory=factory, weyl_area=area, counting_constants=(c1, c2, 1.0))


# ---------------------------------------------------------------------------
# partial traces and coefficient fitting

def partial_trace(spectrum, t, cutoff, tol=None):
    """(sum_{lambda <= cutoff} e^{-lambda t}, tail bound).

    With tol given, raises TailBoundError (including a suggested larger
    cutoff) when the rigorous tail bound exceeds it.
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got {t}")
    value = math.fsum(math.exp(-lam * t) for lam in spectrum.up_to(cutoff))
    tail = spectrum.tail_bound(t, cutoff)
    if tol is not None and tail > tol:
        lam_needed = cutoff
        while spectrum.tail_bound(t, lam_needed) > tol:
            lam_needed *= 2.0
        raise TailBoundError(
            f"tail bound {tail:.3e} exceeds tolerance {tol:.1e}",
            tail_bound=tail,
            suggested_cutoff=lam_needed,
        )
    return value, tail


_TAIL_TOL = 1e-12  # trace tail bound at the smallest sample time


def choose_cutoff(spectrum, t_min):
    """Smallest power-of-two-ish cutoff whose tail bound at t_min is below
    1e-12."""
    cutoff = 16.0 / t_min
    while spectrum.tail_bound(t_min, cutoff) > _TAIL_TOL:
        cutoff *= 1.5
    return cutoff


def sample_times(window=(0.002, 0.05), n=12):
    """n log-spaced times from t_min to t_max, window = (t_min, t_max).

    Raises DomainError unless 0 < t_min < t_max <= 0.2 and n >= 8.
    """
    t_min, t_max = window
    if not 0.0 < t_min < t_max <= 0.2:
        raise DomainError("window must satisfy 0 < t_min < t_max <= 0.2")
    if n < 8:
        raise DomainError("need at least 8 samples")
    return np.exp(np.linspace(math.log(t_min), math.log(t_max), n))


def trace_samples(spectrum, window=(0.002, 0.05), n=12):
    """[(t_k, partial trace, tail bound)] at sample_times(window, n), with the
    cutoff chosen from the rigorous tail bound at the smallest time."""
    ts = sample_times(window, n)
    cutoff = choose_cutoff(spectrum, window[0])
    eigs = np.fromiter(spectrum.up_to(cutoff), dtype=float)
    out = []
    for t in ts:
        value = float(np.exp(-eigs * t).sum())
        out.append((float(t), value, spectrum.tail_bound(float(t), cutoff)))
    return out


@dataclass(frozen=True)
class FitReport:
    a_minus1: float
    a_minus_half: float
    a_0: float
    nuisance: dict
    residual_norm: float
    window: tuple
    condition_number: float

    def __post_init__(self):
        if not math.isfinite(self.residual_norm):
            raise DomainError("fit residual must be finite")
        if not 0.0 < self.window[0] < self.window[1] <= 0.2:
            raise DomainError("fit window must lie inside (0, 0.2]")

    def as_tuple(self):
        return (self.a_minus1, self.a_minus_half, self.a_0)


_FIT_POWERS = (-1.0, -0.5, 0.0, 0.5, 1.0)
_FIT_COND_LIMIT = 1e10  # fit_asymptotics raises DomainError above this


def fit_asymptotics(samples):
    """Weighted least squares of trace samples against

        a_{-1} t^{-1} + a_{-1/2} t^{-1/2} + a_0 + b_1 t^{1/2} + b_2 t,

    the last two as nuisance terms absorbing the O(t^{1/2} log t) remainder.
    Weights derive from the per-sample tail bounds.
    """
    samples = list(samples)
    if len(samples) < 8:
        raise DomainError("need at least 8 trace samples")
    ts = np.array([s[0] for s in samples])
    vals = np.array([s[1] for s in samples])
    tails = np.array([s[2] for s in samples])
    if ts[0] <= 0.0 or ts[-1] > 0.2:
        raise DomainError("sample times must lie in (0, 0.2]")
    design = np.stack([ts**p for p in _FIT_POWERS], axis=1)
    coef, cond, resid_norm = weighted_lstsq(design, vals, 1.0 / (tails + 1e-12))
    if cond > _FIT_COND_LIMIT:
        raise DomainError(
            f"fit basis is too collinear on this window (cond {cond:.2e})"
        )
    return FitReport(
        a_minus1=float(coef[0]),
        a_minus_half=float(coef[1]),
        a_0=float(coef[2]),
        nuisance={"t^1/2": float(coef[3]), "t": float(coef[4])},
        residual_norm=resid_norm,
        window=(float(ts[0]), float(ts[-1])),
        condition_number=cond,
    )


def fit_spectrum(spectrum, window=(0.002, 0.05), n=12):
    """Convenience: sample the partial trace and fit the coefficients."""
    return fit_asymptotics(trace_samples(spectrum, window, n))


def write_trace_samples(fileobj, samples):
    """CSV emission: columns t, partial_trace, tail_bound with full-precision
    scientific notation, comma separator, newline line endings."""
    fileobj.write("t,partial_trace,tail_bound\n")
    for t, value, tail in samples:
        fileobj.write(f"{t:.17e},{value:.17e},{tail:.17e}\n")
