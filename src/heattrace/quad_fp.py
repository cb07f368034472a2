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
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    ConvergenceError,
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
    return edge_nodes(np.linspace(a, b, n_panels + 1), rule)


def edge_nodes(edges, rule=10):
    """Gauss-Legendre nodes/weights on the panels between consecutive entries
    of the increasing array `edges`, panel by panel in increasing order."""
    gx, gw = gauss_rule(rule)
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
            raise DomainError("abs_err_estimate must be >= 0", field="abs_err_estimate")


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
            raise DomainError("epsilons_used must be strictly decreasing", field="epsilons_used")
        if self.condition_number < 1.0:
            raise DomainError("condition_number must be >= 1", field="condition_number")


def _panel_estimates(f, panels):
    """(coarse, fine, fmax) Gauss estimates of int_lo^hi f for each
    panel (lo, hi) of `panels`, from one evaluation of f on the 10- and
    21-node sets of all of them.

    Raises DomainError when f's result does not have the nodes' shape, and
    ConvergenceError, naming the first node, when f is not finite
    somewhere: no refinement can mend either.
    """
    gx_lo, gw_lo = gauss_rule(10)
    gx_hi, gw_hi = gauss_rule(21)
    lo, hi = np.array(panels, dtype=float).T
    mid = (0.5 * (lo + hi))[:, None]
    half = (0.5 * (hi - lo))[:, None]
    x_lo = mid + half * gx_lo
    x_hi = mid + half * gx_hi
    x = np.concatenate([x_lo.ravel(), x_hi.ravel()])
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError(
            f"integrand returned shape {y.shape} for nodes of shape {x.shape}; "
            "it must map an array of nodes to an array of values", field="f"
        )
    bad = ~np.isfinite(y)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(
            "integrand is not finite", {"node": float(x[i]), "value": float(y[i])}
        )
    y_lo = y[:x_lo.size].reshape(x_lo.shape)
    y_hi = y[x_lo.size:].reshape(x_hi.shape)
    return [
        (h * float(np.dot(gw_lo, lo_vals)), h * float(np.dot(gw_hi, hi_vals)),
         float(np.abs(hi_vals).max()))
        for h, lo_vals, hi_vals in zip(half[:, 0].tolist(), y_lo, y_hi)
    ]


def integrate(f, a, b, tol=1e-10, envelope=None, max_nodes=200_000):
    """Adaptive integral of f over [a, b], b possibly math.inf.

    For b = inf an envelope (C, delta) with |f(x)| <= C e^{-delta x} is
    required; the integral is truncated where the envelope tail drops below
    tol/2.  Returns a QuadResult; raises BudgetExceededError (carrying the
    best estimate) when max_nodes is exhausted before the error estimate
    reaches tol, and ConvergenceError when f is not finite at a node.

    f is called once per refinement step, on a 1-D array of all the new
    nodes: the 8 seed panels first (248 nodes), then the two halves of each
    bisected panel (62 nodes).  It must return an array of that shape
    (DomainError otherwise), and its values must be pointwise, each
    depending on its own node only.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]", field="b")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be > 0 and finite, got {tol!r}", field="tol")
    tail = 0.0
    if math.isinf(b):
        if envelope is None:
            raise DomainError("semi-infinite integrals need envelope=(C, delta)", field="envelope")
        c_env, delta = envelope
        if not (c_env > 0.0 and delta > 0.0):
            raise DomainError("envelope constants must be positive", field="envelope")
        # C e^{-delta b}/delta <= tol/2 at the truncation point
        b = a + max(1.0, (math.log(2.0 * c_env / (delta * tol))) / delta)
        tail = 0.5 * tol
    heap = []
    nodes = 0
    env_max_ratio = 0.0

    def push(panels):
        nonlocal nodes, env_max_ratio
        nodes += 31 * len(panels)  # 10 + 21 nodes per panel
        for (lo, hi), (coarse, fine, fmax) in zip(panels, _panel_estimates(f, panels)):
            if envelope is not None:
                bound = envelope[0] * math.exp(max(-envelope[1] * lo, -700.0))
                env_max_ratio = max(env_max_ratio, fmax / bound if bound > 0.0 else 0.0)
            heapq.heappush(heap, (-abs(fine - coarse), lo, hi, fine))

    # seed panels; refinement is by bisection of the worst panel
    n_seed = 8
    edges = np.linspace(a, b, n_seed + 1)
    push(list(zip(edges[:-1], edges[1:])))
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
        push([(lo, mid), (mid, hi)])
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
    """Geometric cutoff-parameter ladder eps_k = eps_max * ratio^k.  Raises
    DomainError naming the field unless eps_max > 0, 0 < ratio < 1 and
    count is an integer >= 3."""
    if not eps_max > 0.0:
        raise DomainError(f"eps_max must be > 0, got {eps_max!r}", field="eps_max")
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"ratio must lie in (0, 1), got {ratio!r}", field="ratio")
    if not (isinstance(count, numbers.Integral) and count >= 3):
        raise DomainError(f"count must be an integer >= 3, got {count!r}", field="count")
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


def check_eps_schedule(eps, basis, field="eps"):
    """The one check of a cutoff schedule: eps as a float array, after
    checking that it holds finite, positive, strictly decreasing values, at
    least two more than the terms of `basis`.  Raises DomainError with
    `field` otherwise."""
    eps = np.asarray(tuple(eps), dtype=float)
    if eps.ndim != 1 or not (np.isfinite(eps).all() and (eps > 0.0).all()
                             and (np.diff(eps) < 0.0).all()):
        raise DomainError(f"{field} must be finite, positive and strictly decreasing",
                          field=field)
    if eps.size < len(basis) + 2:
        raise DomainError(
            f"need at least {len(basis) + 2} cutoffs for a {len(basis)}-term basis", field=field
        )
    return eps


def finite_part(eps, values, basis=DEFAULT_BASIS, value_errs=None):
    """Finite part of a cutoff integral: the eps^0 coefficient of F(1/eps),
    from its values F(1/eps_i) at the eps_i that check_eps_schedule accepts.

    The values are fitted by weighted least squares against the model
    F(1/eps) = sum_q c_q eps^q  over the exponents in `basis` (which must
    contain 0); weights 1/eps favor small eps where the o(1) remainder is
    smallest.  value_errs, when given, are the values' error estimates: a
    fit residual above 10x their largest raises ResidualError.  Divergent
    coefficients (q != 0) are reported alongside the conditioning of the
    normalized design matrix.
    """
    basis = tuple(basis)
    if 0 not in basis:
        raise DomainError("basis must contain the exponent 0", field="basis")
    if len(set(basis)) != len(basis):
        raise DomainError("basis exponents must be distinct", field="basis")
    eps = check_eps_schedule(eps, basis)
    values = np.asarray(values, dtype=float)
    errs = np.zeros(eps.size) if value_errs is None else np.asarray(value_errs, dtype=float)
    if values.shape != eps.shape or errs.shape != eps.shape:
        raise DomainError(f"need one value and one error per cutoff, {eps.size} of each",
                          field="values" if values.shape != eps.shape else "value_errs")
    design = eps[:, None] ** np.asarray(basis, dtype=float)[None, :]
    w = 1.0 / np.sqrt(eps)  # squared weight 1/eps
    coef, cond, resid_norm = weighted_lstsq(design, values, w)
    if cond > _FP_COND_LIMIT:
        raise IllConditionedFitError("finite-part fit is ill conditioned", cond)
    budget = 10.0 * float(errs.max())
    if budget > 0.0 and resid_norm > budget:
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
