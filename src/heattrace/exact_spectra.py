"""Exactly solvable Laplace spectra and heat-trace fitting.

A spectrum is the sorted array of its eigenvalues up to a cutoff, with
rigorous Weyl-type tail bounds for what lies above.  Rectangles with any mix
of Dirichlet/Neumann/Robin sides take the outer sum of two 1D arrays;
circular sectors and disks take every Bessel zero below the cutoff from one
bessel_j_zeros_below pass.  Weighted least squares extracts the trace
coefficients (a_{-1}, a_{-1/2}, a_0) from partial heat traces.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._rootfind import brent
from .errors import DomainError, TailBoundError, UnsupportedBCError
from .quad_fp import weighted_lstsq
from .sector_models import BoundaryCondition, check_angle, check_coordinate, mode_order
from .special_fns import (
    bessel_j_prime_zero,  # unused here; the benchmark tracer patches it (ROADMAP item 1)
    bessel_j_zero,  # unused here; the benchmark tracer patches it (ROADMAP item 1)
    bessel_j_zeros_below,
)


# ---------------------------------------------------------------------------
# 1D interval eigenvalues

class _Interval1D:
    """Eigenvalues of -u'' on [0, L] with D/N/Robin ends.  Each Robin
    wavenumber is bracketed between consecutive multiples of pi/L (shifted
    by pi/2 for a Dirichlet partner), so no root can be missed.  A bad
    length raises DomainError with field `name`."""

    def __init__(self, length, bc0, bc1, name="length"):
        check_coordinate(name, length, math.inf, False)
        self.length = length
        self.bc0 = BoundaryCondition.parse(bc0)
        self.bc1 = BoundaryCondition.parse(bc1)

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

    def up_to(self, bound):
        """Every eigenvalue k_m^2 <= bound, as an ascending array."""
        values = (k * k for k in map(self._wavenumber, itertools.count(1)))
        return np.fromiter(itertools.takewhile(lambda lam: lam <= bound, values), dtype=float)


def interval_eigenvalues(length, bc0, bc1, count):
    """First `count` eigenvalues of the 1D problem, ascending."""
    wavenumber = _Interval1D(length, bc0, bc1)._wavenumber
    return np.array([k * k for k in map(wavenumber, range(1, count + 1))])


# ---------------------------------------------------------------------------
# spectra as sorted eigenvalue arrays

@dataclass
class Spectrum:
    """Eigenvalues up to a cutoff, with Weyl-type counting metadata.

    eigenvalues(cutoff) returns every eigenvalue <= cutoff, repeated by its
    multiplicity, as one ascending float array; up_to keeps it at the
    largest cutoff so far and answers smaller ones with a slice of it.

    counting_constants = (C1, C2, C3) bound the counting function
    N(lam) <= C1 lam + C2 sqrt(lam) + C3 for every lam >= 0, which yields a
    rigorous bound on the trace tail sum_{lambda > cutoff} e^{-lambda t}.
    """

    eigenvalues: object  # cutoff -> ascending array of every eigenvalue <= cutoff
    weyl_area: float
    counting_constants: tuple
    _memo: tuple = field(default=(-math.inf, None), init=False, repr=False, compare=False)

    def up_to(self, cutoff):
        """Every eigenvalue <= cutoff, as an ascending read-only float array."""
        largest, values = self._memo
        if cutoff > largest:
            values = self.eigenvalues(cutoff)
            values.flags.writeable = False
            self._memo = (cutoff, values)
        return values[:np.searchsorted(values, cutoff, side="right")]

    def counting_bound(self, lam):
        c1, c2, c3 = self.counting_constants
        return c1 * lam + c2 * math.sqrt(max(lam, 0.0)) + c3

    def tail_bound(self, t, cutoff):
        """Upper bound on sum_{lambda > cutoff} e^{-lambda t}, from
        integrating the counting bound against e^{-lambda t}."""
        if t <= 0.0:
            raise DomainError(f"time must be positive, got {t}", field="t")
        c1, c2, c3 = self.counting_constants
        lam = cutoff
        root = math.sqrt(max(lam, 1e-300))
        inner = c1 * (lam + 1.0 / t) + c2 * (root + 1.0 / (2.0 * t * root)) + c3
        log_val = -lam * t + math.log(inner)
        return math.exp(log_val) if log_val > -745.0 else 0.0


def rectangle_spectrum(a, b, bc_x, bc_y):
    """Laplace spectrum of the rectangle (0,a) x (0,b).

    bc_x = (left, right) and bc_y = (bottom, top) give the conditions on the
    two pairs of opposite sides; each is "D", "N", or ("R", kappa).  A bad
    side length raises DomainError with field "a" or "b".
    """
    fx = _Interval1D(a, *bc_x, name="a")
    fy = _Interval1D(b, *bc_y, name="b")

    def eigenvalues(cutoff):
        # lambda_{k,j} = mu_x[k] + mu_y[j]; both are >= 0, so neither exceeds the cutoff
        sums = (fx.up_to(cutoff)[None, :] + fy.up_to(cutoff)[:, None]).ravel()
        return np.sort(sums[sums <= cutoff])

    # 1D counting: N_1D(mu) <= L sqrt(mu)/pi + 1 since k_m >= (m-1) pi / L
    return Spectrum(eigenvalues, a * b, (a * b / (4.0 * math.pi), (a + b) / math.pi + 1.0, 3.0))


def sector_disk_spectrum(gamma, radius, edge_pair=None, arc_bc="D"):
    """Spectrum of a circular sector (or full disk when gamma is None).

    For the sector, the angular orders are sector_models.mode_order(edge_pair,
    gamma, j) for the pair DD, NN, DN or ND; each gives the eigenvalues
    (zero / radius)^2 over the zeros of J_nu (Dirichlet arc) or of J'_nu
    (Neumann arc, which adds 0 at nu = 0), all from one bessel_j_zeros_below
    call.  The disk is the half disk's NN ladder merged with its DD ladder:
    every integer order, m >= 1 twice.  arc_bc takes any form
    BoundaryCondition.parse reads; a Robin arc raises UnsupportedBCError.
    Errors name the bad field: radius, arc_bc, gamma, in that order.
    """
    check_coordinate("radius", radius, math.inf, False)
    arc = BoundaryCondition.parse(arc_bc).kind
    if arc == "R":
        raise UnsupportedBCError("arc condition must be Dirichlet or Neumann", field="arc_bc")
    if gamma is None:
        # total angle 2 pi; orders 0, 1, 1, 2, 2, ... are the half disk's NN
        # orders j pi/pi merged with its DD orders (j + 1) pi/pi
        beta, orders = 2.0 * math.pi, lambda j: (j + 1) // 2
    else:
        check_angle("gamma", gamma)
        mode_order(edge_pair, gamma, 0)  # raises for a pair with no ladder
        beta, orders = gamma, functools.partial(mode_order, edge_pair, gamma)

    def eigenvalues(cutoff):
        # orders above x_max have no zero below it; the margin keeps a zero
        # whose eigenvalue rounds to the cutoff
        x_max = radius * math.sqrt(cutoff) * (1.0 + 1e-12)
        ladder = itertools.takewhile(lambda nu: nu <= x_max,
                                     map(float, map(orders, itertools.count())))
        nus, counts = np.unique(np.fromiter(ladder, dtype=float), return_counts=True)
        which, zeros = bessel_j_zeros_below(nus, x_max, arc == "N")
        lam = np.repeat((zeros / radius) ** 2, counts[which])
        if arc == "N":  # the constant mode: eigenvalue 0 at order 0
            lam = np.concatenate([np.zeros(counts[nus == 0.0].sum()), lam])
        return np.sort(lam[lam <= cutoff])

    # crude rigorous counting with x = radius sqrt(lam): orders nu > x have
    # no zero <= x (j_{nu,1} > nu), so at most x/h + 1 orders (spaced by
    # h = pi/beta) count, and the zeros of one order are spaced by more
    # than 3; expanding (x/h + 1)(x/3 + 1) gives the constants
    h = math.pi / beta
    return Spectrum(eigenvalues, 0.5 * beta * radius * radius,
                    (radius * radius / (3.0 * h), radius * (1.0 / h + 1.0 / 3.0), 1.0))


# ---------------------------------------------------------------------------
# partial traces and coefficient fitting

def partial_trace(spectrum, t, cutoff, tol=None):
    """(sum_{lambda <= cutoff} e^{-lambda t}, tail bound).

    With tol given, raises TailBoundError, carrying choose_cutoff(spectrum,
    t, tol) as the suggested cutoff, when the rigorous tail bound exceeds it.
    """
    tail = spectrum.tail_bound(t, cutoff)  # raises DomainError unless t > 0
    if tol is not None and tail > tol:
        raise TailBoundError(
            f"tail bound {tail:.3e} exceeds tolerance {tol:.1e}",
            tail_bound=tail,
            suggested_cutoff=choose_cutoff(spectrum, t, tol),
        )
    eigs = np.fromiter(spectrum.up_to(cutoff), dtype=float)
    return math.fsum(math.exp(-lam * t) for lam in eigs.tolist()), tail


_TAIL_TOL = 1e-12  # trace tail bound at the smallest sample time


def choose_cutoff(spectrum, t_min, tol=_TAIL_TOL):
    """The first cutoff 16/t_min * 1.5^k whose tail bound at t_min is at most
    tol.  Raises DomainError with field "t_min" unless 0 < t_min < inf with
    16/t_min finite, and with field "tol" unless tol > 0."""
    if not 0.0 < t_min < math.inf or 16.0 / t_min == math.inf:
        raise DomainError(f"t_min must be finite and > 0 with 16/t_min finite, got {t_min}",
                          field="t_min")
    if not tol > 0.0:
        raise DomainError(f"tail tolerance must be positive, got {tol}", field="tol")
    cutoff = 16.0 / t_min
    while spectrum.tail_bound(t_min, cutoff) > tol:
        cutoff *= 1.5
    return cutoff


def sample_times(window=(0.002, 0.05), n=12):
    """n log-spaced times from t_min to t_max, window = (t_min, t_max).

    Raises DomainError with field "window" unless 0 < t_min < t_max <= 0.2,
    and with field "n" unless n is an integer >= 8.
    """
    t_min, t_max = window
    if not 0.0 < t_min < t_max <= 0.2:
        raise DomainError("window must satisfy 0 < t_min < t_max <= 0.2", field="window")
    if not (isinstance(n, numbers.Integral) and n >= 8):
        raise DomainError(f"need an integer number of at least 8 samples, got {n!r}", field="n")
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
            raise DomainError("fit residual must be finite", field="residual_norm")
        if not 0.0 < self.window[0] < self.window[1] <= 0.2:
            raise DomainError("fit window must lie inside (0, 0.2]", field="window")

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
        raise DomainError("need at least 8 trace samples", field="samples")
    ts = np.array([s[0] for s in samples])
    vals = np.array([s[1] for s in samples])
    tails = np.array([s[2] for s in samples])
    if ts[0] <= 0.0 or ts[-1] > 0.2:
        raise DomainError("sample times must lie in (0, 0.2]", field="samples")
    design = np.stack([ts**p for p in _FIT_POWERS], axis=1)
    coef, cond, resid_norm = weighted_lstsq(design, vals, 1.0 / (tails + 1e-12))
    if cond > _FIT_COND_LIMIT:
        raise DomainError(
            f"fit basis is too collinear on this window (cond {cond:.2e})", field="samples"
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
