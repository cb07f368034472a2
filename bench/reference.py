"""Closed-form references the benchmark checks every job against.

These are written out again here, from the formulas, so that a job's check
does not depend on the package code it is checking.
"""

import math

SQRT_PI = math.sqrt(math.pi)


def digits(error):
    """Correct digits for an error already made relative (or absolute, where
    the reference is zero): -log10(error), capped at 16."""
    if not math.isfinite(error):
        return 0.0
    if error <= 1e-16:
        return 16.0
    return max(0.0, -math.log10(error))


def rel_error(value, ref):
    """|value - ref| / |ref|, or the absolute error when ref is zero."""
    diff = abs(value - ref)
    return diff / abs(ref) if ref != 0.0 else diff


def corner(n_dirichlet, alpha):
    """t^0 corner term of a vertex of angle alpha touching n_dirichlet
    Dirichlet edges (Robin edges count as non-Dirichlet)."""
    if n_dirichlet == 1:
        return -(math.pi**2 + 2.0 * alpha * alpha) / (48.0 * math.pi * alpha)
    return (math.pi**2 - alpha * alpha) / (24.0 * math.pi * alpha)


def corner_pair(pair, alpha):
    return corner(pair.count("D"), alpha)


def term(name, gamma):
    """t^0 part of the C or E term of the sector Green's function decomposition."""
    return corner(0 if name == "C" else 1, gamma)


# ---------------------------------------------------------------------------
# trace coefficients (a_{-1}, a_{-1/2}, a_0)

def polygon(area, edges, angles, gauss_integral):
    """Coefficients of one boundary loop.

    edges: (length, bc, kg_integral, robin_integral) with bc "D", "N" or "R";
    angles[j] joins edge j and edge j+1 (mod n).  The Robin edge term is
    -int kappa / (2 pi), the sign the exactly solvable spectra confirm.
    """
    n_dir = [e[1] == "D" for e in edges]
    a_m1 = area / (4.0 * math.pi)
    a_mh = (
        math.fsum(e[0] for e, d in zip(edges, n_dir) if not d)
        - math.fsum(e[0] for e, d in zip(edges, n_dir) if d)
    ) / (8.0 * SQRT_PI)
    parts = [
        gauss_integral / (12.0 * math.pi),
        math.fsum(e[2] for e in edges) / (12.0 * math.pi),
        -math.fsum(e[3] for e in edges if e[1] == "R") / (2.0 * math.pi),
    ]
    n = len(edges)
    for j, alpha in enumerate(angles):
        parts.append(corner(int(n_dir[j]) + int(n_dir[(j + 1) % n]), alpha))
    return (a_m1, a_mh, math.fsum(parts))


def rectangle(a, b, left, right, bottom, top):
    """Sides given as "D", "N" or ("R", kappa); left/right have length b."""

    def edge(length, bc):
        if isinstance(bc, tuple):
            return (length, "R", 0.0, bc[1] * length)
        return (length, bc, 0.0, 0.0)

    # edge order bottom, right, top, left: consecutive edges meet at a vertex
    edges = [edge(a, bottom), edge(b, right), edge(a, top), edge(b, left)]
    return polygon(a * b, edges, [math.pi / 2.0] * 4, 0.0)


def disk(radius, arc):
    return polygon(
        math.pi * radius * radius,
        [(2.0 * math.pi * radius, arc, 2.0 * math.pi, 0.0)],
        [],
        0.0,
    )


def sector(gamma, radius, pair, arc):
    """Truncated sector: straight edge (pair[0]), arc, straight edge (pair[1]);
    right angles where the straight edges meet the arc, gamma at the tip."""
    edges = [
        (radius, pair[0], 0.0, 0.0),
        (gamma * radius, arc, gamma, 0.0),
        (radius, pair[1], 0.0, 0.0),
    ]
    return polygon(
        0.5 * gamma * radius * radius, edges, [math.pi / 2.0, math.pi / 2.0, gamma], 0.0
    )


# ---------------------------------------------------------------------------
# heat kernels by the method of images

def _free(t, d2):
    return math.exp(-d2 / (4.0 * t)) / (4.0 * math.pi * t)


def sector_images(gamma_n, pair, t, r, theta, r0, theta0):
    """Heat kernel of the sector of opening pi/n as a sum over the 2n images
    of the source under the dihedral reflection group.  A reflection in the
    edge theta=0 carries sign s0 (-1 for D, +1 for N), one in theta=gamma
    carries s1; mixed pairs need n even for the signs to be consistent."""
    gamma = math.pi / gamma_n
    s0 = -1.0 if pair[0] == "D" else 1.0
    s1 = -1.0 if pair[1] == "D" else 1.0
    total = 0.0
    for k in range(gamma_n):
        rot = (s0 * s1) ** k
        for ang, sign in ((2.0 * k * gamma + theta0, rot), (2.0 * k * gamma - theta0, rot * s0)):
            d2 = r * r + r0 * r0 - 2.0 * r * r0 * math.cos(theta - ang)
            total += sign * _free(t, d2)
    return total


def half_plane_robin(kappa, t, x, y, x0, y0):
    """Robin half-plane kernel (du/dy = kappa u on y = 0) in its erfc form:
    Neumann images minus kappa e^{kappa s + kappa^2 t} erfc(s/2 sqrt t + kappa sqrt t)
    times the x Gaussian, with s = y + y0."""
    s = y + y0
    gx = math.exp(-((x - x0) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    gy = (math.exp(-((y - y0) ** 2) / (4.0 * t)) + math.exp(-(s * s) / (4.0 * t))) / math.sqrt(
        4.0 * math.pi * t
    )
    corr = kappa * math.exp(kappa * s + kappa * kappa * t) * math.erfc(
        s / (2.0 * math.sqrt(t)) + kappa * math.sqrt(t)
    )
    return gx * (gy - corr)
