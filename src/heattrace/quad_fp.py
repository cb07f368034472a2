"""Adaptive quadrature and finite-part (renormalized integral) extraction.

The integrator handles finite and semi-infinite intervals; semi-infinite
integrands must come with an exponential decay envelope |f(x)| <= C e^{-d x}
that fixes the truncation point.  The finite-part engine fits the values of a
cutoff integral F(1/eps) against a power basis in eps and returns the eps^0
coefficient.
"""

import functools
import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    EnvelopeViolationWarning,
    IllConditionedFitError,
    ResidualError,
)


@functools.lru_cache(maxsize=None)
def gauss_rule(order):
    """Gauss-Legendre nodes and weights of the given order on [-1, 1].

    Each order is built once per process; the arrays are read-only because
    every caller shares them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def panel_nodes(a, b, n_panels, rule=10):
    """Gauss-Legendre nodes/weights tiling [a, b] with n_panels equal panels,
    panel by panel in increasing order."""
    gx, gw = gauss_rule(rule)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w = (half[:, None] * gw[None, :]).ravel()
    return x, w


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err_estimate: float
    nodes_used: int

    def __post_init__(self):
        if self.abs_err_estimate < 0.0:
            raise DomainError("abs_err_estimate must be >= 0")


@dataclass(frozen=True)
class FinitePartResult:
    finite_part: float
    divergent_coeffs: dict
    condition_number: float
    epsilons_used: tuple
    residual_norm: float = 0.0

    def __post_init__(self):
        eps = self.epsilons_used
        if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
            raise DomainError("epsilons_used must be strictly decreasing")
        if self.condition_number < 1.0:
            raise DomainError("condition_number must be >= 1")


def _eval_vectorized(f, x):
    """Evaluate f on an array, falling back to a scalar map."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(f(v)) for v in x])


def _panel_estimates(f, a, b):
    """(coarse, fine, n_evals) Gauss estimates of int_a^b f."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    gx_lo, gw_lo = gauss_rule(10)
    gx_hi, gw_hi = gauss_rule(21)
    y_lo = _eval_vectorized(f, mid + half * gx_lo)
    y_hi = _eval_vectorized(f, mid + half * gx_hi)
    coarse = half * float(np.dot(gw_lo, y_lo))
    fine = half * float(np.dot(gw_hi, y_hi))
    return coarse, fine, 31, float(np.abs(y_hi).max())


def integrate(f, a, b, tol=1e-10, envelope=None, max_nodes=200_000):
    """Adaptive integral of f over [a, b], b possibly math.inf.

    For b = inf an envelope (C, delta) with |f(x)| <= C e^{-delta x} is
    required; the integral is truncated where the envelope tail drops below
    tol/2.  Returns a QuadResult; raises BudgetExceededError (carrying the
    best estimate) when max_nodes is exhausted before the error estimate
    reaches tol.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    tail = 0.0
    if math.isinf(b):
        if envelope is None:
            raise DomainError("semi-infinite integrals need envelope=(C, delta)")
        c_env, delta = envelope
        if not (c_env > 0.0 and delta > 0.0):
            raise DomainError("envelope constants must be positive")
        # C e^{-delta b}/delta <= tol/2 at the truncation point
        b = a + max(1.0, (math.log(2.0 * c_env / (delta * tol))) / delta)
        tail = 0.5 * tol
    # seed panels; refinement is by bisection of the worst panel
    n_seed = 8
    edges = np.linspace(a, b, n_seed + 1)
    heap = []
    nodes = 0
    env_max_ratio = 0.0
    def _env_ratio(fmax, lo):
        bound = envelope[0] * math.exp(max(-envelope[1] * lo, -700.0))
        return fmax / bound if bound > 0.0 else 0.0

    for lo, hi in zip(edges[:-1], edges[1:]):
        coarse, fine, n, fmax = _panel_estimates(f, lo, hi)
        nodes += n
        if envelope is not None:
            env_max_ratio = max(env_max_ratio, _env_ratio(fmax, lo))
        heapq.heappush(heap, (-abs(fine - coarse), lo, hi, fine))
    while True:
        err = sum(-item[0] for item in heap) + tail
        if err <= tol:
            break
        if nodes >= max_nodes:
            value = _ordered_sum(heap)
            raise BudgetExceededError(
                f"node budget {max_nodes} exhausted at error {err:.3e}",
                QuadResult(value, err, nodes),
            )
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for p, q in ((lo, mid), (mid, hi)):
            coarse, fine, n, fmax = _panel_estimates(f, p, q)
            nodes += n
            if envelope is not None:
                env_max_ratio = max(env_max_ratio, _env_ratio(fmax, p))
            heapq.heappush(heap, (-abs(fine - coarse), p, q, fine))
    if envelope is not None and env_max_ratio > 1.05:
        warnings.warn(
            f"integrand exceeded its declared envelope by x{env_max_ratio:.2f}",
            EnvelopeViolationWarning,
            stacklevel=2,
        )
    return QuadResult(_ordered_sum(heap), err, nodes)


def _ordered_sum(heap):
    """Deterministic reduction: sum panel values in interval order."""
    return float(math.fsum(item[3] for item in sorted(heap, key=lambda it: it[1])))


def default_eps_schedule(eps_max=0.5, ratio=0.8, count=12):
    """Geometric cutoff-parameter ladder eps_k = eps_max * ratio^k."""
    if not (0.0 < ratio < 1.0 and eps_max > 0.0 and count >= 3):
        raise DomainError("need 0 < ratio < 1, eps_max > 0, count >= 3")
    return tuple(eps_max * ratio**k for k in range(count))


def weighted_lstsq(design, values, weights):
    """Weighted least squares: the coef minimising
    sum_i (weights_i (values_i - (design @ coef)_i))^2.

    The weighted design's columns are scaled to unit max norm before the
    solve.  Returns (coef, cond, rms): the coefficients, the 2-norm
    condition number of the scaled weighted design (inf when it is
    singular), and the root mean square of the unweighted residual
    values - design @ coef.  Callers apply their own gate to cond and rms.
    """
    a_mat = design * weights[:, None]
    col_scale = np.abs(a_mat).max(axis=0)
    coef_scaled, _, _, sing = np.linalg.lstsq(a_mat / col_scale, values * weights, rcond=None)
    cond = float(sing[0] / sing[-1]) if sing[-1] > 0.0 else math.inf
    coef = coef_scaled / col_scale
    resid = values - design @ coef
    return coef, cond, float(np.sqrt(np.mean(resid**2)))


DEFAULT_BASIS = (-2, -1, 0, 1)
_FP_COND_LIMIT = 1e8  # finite_part raises IllConditionedFitError above this


def finite_part(F, basis=DEFAULT_BASIS, eps_schedule=None, value_errs=None):
    """Finite part of a cutoff integral: the eps^0 coefficient of F(1/eps).

    F maps a cutoff Lambda = 1/eps to the integral value (a float or a
    QuadResult).  The values are fitted by weighted least squares against
    the model  F(1/eps) = sum_q c_q eps^q  over the exponents in `basis`
    (which must contain 0); weights 1/eps favor small eps where the o(1)
    remainder is smallest.  Divergent coefficients (q != 0) are reported
    alongside the conditioning of the normalized design matrix.
    """
    basis = tuple(basis)
    if 0 not in basis:
        raise DomainError("basis must contain the exponent 0")
    if len(set(basis)) != len(basis):
        raise DomainError("basis exponents must be distinct")
    if eps_schedule is None:
        eps_schedule = default_eps_schedule()
    eps = np.asarray(tuple(eps_schedule), dtype=float)
    if np.any(eps <= 0.0) or np.any(np.diff(eps) >= 0.0):
        raise DomainError("eps_schedule must be positive and strictly decreasing")
    if eps.size < len(basis) + 2:
        raise DomainError(
            f"need at least {len(basis) + 2} cutoffs for a {len(basis)}-term basis"
        )
    values = np.empty(eps.size)
    errs = np.zeros(eps.size)
    for i, e in enumerate(eps):
        out = F(1.0 / e)
        if isinstance(out, QuadResult):
            values[i] = out.value
            errs[i] = out.abs_err_estimate
        else:
            values[i] = float(out)
    if value_errs is not None:
        errs = np.asarray(value_errs, dtype=float)
    design = eps[:, None] ** np.asarray(basis, dtype=float)[None, :]
    w = 1.0 / np.sqrt(eps)  # squared weight 1/eps
    coef, cond, resid_norm = weighted_lstsq(design, values, w)
    if cond > _FP_COND_LIMIT:
        raise IllConditionedFitError("finite-part fit is ill conditioned", cond)
    if errs.any():
        budget = 10.0 * float(errs.max())
        if resid_norm > budget and budget > 0.0:
            raise ResidualError(
                f"fit residual {resid_norm:.3e} exceeds 10x the quadrature "
                f"error estimate {errs.max():.3e}; basis likely incomplete"
            )
    coeffs = dict(zip(basis, (float(c) for c in coef)))
    return FinitePartResult(
        finite_part=coeffs[0],
        divergent_coeffs={q: c for q, c in coeffs.items() if q != 0},
        condition_number=max(cond, 1.0),
        epsilons_used=tuple(float(e) for e in eps),
        residual_norm=resid_norm,
    )
