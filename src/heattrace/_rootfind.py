"""Bracketed root finding: safeguarded Newton in many brackets at once."""

import numpy as np

from .errors import ConvergenceError


def bracketed_newton(fn, lo, hi, f_lo, f_hi):
    """The root in each closed bracket [lo[i], hi[i]] where f changes sign
    (or f_lo[i] = f(lo[i]) is 0), by Newton's method from the secant point,
    all brackets stepping together: fn(x, live) returns (f, f') at the points
    x of the brackets indexed by live, the ones still running.  A step out of
    its bracket bisects it instead; a bracket stops at a Newton step below
    1e-12 x (taking it), at f = 0, or when no double lies inside it."""
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    live, roots = np.arange(lo.size), np.empty(lo.size)
    for _ in range(100):
        if not live.size:
            break
        fx, slope = fn(x, live)
        left = np.signbit(fx) == np.signbit(f_lo)  # the root lies right of x
        lo, f_lo, hi = np.where(left, x, lo), np.where(left, fx, f_lo), np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - fx / slope
        done = (fx == 0.0) | (np.abs(newton - x) <= 1e-12 * x) | (np.nextafter(lo, hi) >= hi)
        roots[live[done]] = np.where(fx == 0.0, x, newton)[done]
        x = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))[~done]
        live, lo, hi, f_lo = (a[~done] for a in (live, lo, hi, f_lo))
    if live.size:
        raise ConvergenceError("Newton did not converge in its brackets",
                               {"lo": lo.tolist(), "hi": hi.tolist()})
    return roots
